"""The documented API surface (docs/api.md) matches the code's __all__.

docs/api.md's "Public surface" section is machine-checked here so the
migration guide cannot drift from what the packages actually export.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import api

DOC = Path(__file__).resolve().parent.parent / "docs" / "api.md"


def _documented(prefix: str) -> set[str]:
    text = DOC.read_text()
    m = re.search(rf"^`{re.escape(prefix)}` (?:re-)?exports:(.*?)\.$",
                  text, re.MULTILINE | re.DOTALL)
    assert m, f"docs/api.md lacks a '`{prefix}` exports:' line"
    return set(re.findall(r"`([^`]+)`", m.group(1)))


def test_api_surface_documented():
    assert _documented("repro.api") == set(api.__all__)


def test_root_surface_documented():
    assert _documented("repro") == set(repro.__all__)


def test_all_lists_are_exact():
    """Every __all__ name exists; every public module-level class/function
    defined in repro.api is listed."""
    for name in api.__all__:
        assert hasattr(api, name)
    public = {n for n, v in vars(api).items()
              if not n.startswith("_") and getattr(v, "__module__", None)
              == "repro.api"}
    assert public == set(api.__all__)


def test_serve_surface_documented():
    import repro.serve as serve
    assert _documented("repro.serve") == set(serve.__all__)


def test_serve_all_lists_are_exact():
    import repro.serve as serve
    for name in serve.__all__:
        assert hasattr(serve, name)


def test_obs_surface_documented():
    import repro.obs as obs
    assert _documented("repro.obs") == set(obs.__all__)


def test_obs_all_lists_are_exact():
    import repro.obs as obs
    for name in obs.__all__:
        assert hasattr(obs, name)


def test_net_surface_documented():
    import repro.net as net
    assert _documented("repro.net") == set(net.__all__)


def test_net_all_lists_are_exact():
    import repro.net as net
    for name in net.__all__:
        assert hasattr(net, name)


def test_gpu_all_covers_multi_device_surface():
    import repro.gpu as gpu
    for name in ("resolve_device", "MultiGPU", "MultiRunResult", "ShardLost",
                 "Shard", "decompose", "halo_exchange_time_ms",
                 "peer_connected", "shard_retry_policy"):
        assert name in gpu.__all__
        assert hasattr(gpu, name)


_NUMBA_STEP = """
import sys
from repro.acoustics import BoxRoom, Grid3D, Room, RoomSimulation, SimConfig
from repro.lift.codegen.loops import LoopsUnsupported
try:
    sim = RoomSimulation(SimConfig(room=Room(Grid3D(12, 10, 8), BoxRoom()),
                                   scheme="fd_mm", backend="numba"))
except LoopsUnsupported:
    sys.exit(3)
sim.add_impulse("center")
sim.step()
unused = ("repro.serve", "repro.api", "repro.net", "repro.gpu",
          "repro.lift.codegen.opencl", "repro.lift.codegen.host",
          "repro.lift.interp", "repro.obs.export", "repro.obs.dashboard",
          "repro.obs.slo", "repro.obs.timeseries",
          "repro.acoustics.kernels_scalar", "numpy.ma")
loaded = [m for m in unused if m in sys.modules]
assert not loaded, loaded
import repro
from repro import serve
assert repro.Session.__module__ == "repro.api"
assert serve.SimulationService and repro.serve is serve
from repro import obs
from repro.lift import codegen
for pkg in (obs, codegen):
    star = {}
    exec(f"from {pkg.__name__} import *", star)
    for name in pkg.__all__:
        assert getattr(pkg, name) is star[name], (pkg.__name__, name)
"""


def _fresh(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports this ``repro``."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)


def test_a_simulation_loads_no_service_layer():
    """``import repro``, ``repro.obs`` and ``repro.lift.codegen`` name
    their exports lazily (PEP 562): a fresh interpreter that steps a
    numba-backend room imports neither the service layer nor the OpenCL
    and host emitters, the exporters or the reference kernels, and every
    name in their ``__all__`` still resolves."""
    proc = _fresh(_NUMBA_STEP)
    if proc.returncode == 3:
        pytest.skip("no compiled loop tier on this host")
    assert proc.returncode == 0, proc.stderr[-2000:]


_VGPU_STEP = """
import sys
from repro.acoustics import BoxRoom, Grid3D, Room, RoomSimulation, SimConfig
sim = RoomSimulation(SimConfig(room=Room(Grid3D(12, 10, 8), BoxRoom()),
                               scheme="fd_mm", backend="virtual_gpu"))
sim.add_impulse("center")
sim.step()
assert sim._path == "resident", sim._path
unused = ("repro.gpu.multi", "repro.gpu.resilient", "repro.gpu.parallel",
          "numpy.ma")
loaded = [m for m in unused if m in sys.modules]
assert not loaded, loaded
from repro import gpu
star = {}
exec("from repro.gpu import *", star)
for name in gpu.__all__:
    assert getattr(gpu, name) is star[name], name
"""


def test_a_single_device_virtual_gpu_loads_only_the_resident_path():
    """``repro.gpu`` names its exports lazily too: a fresh interpreter
    that steps a one-device ``virtual_gpu`` room loads neither the
    device pool, the recovery layer nor the overlap executor, and the
    cost model's sector count does not load ``numpy.ma``; every name in
    ``repro.gpu.__all__`` still resolves."""
    proc = _fresh(_VGPU_STEP)
    assert proc.returncode == 0, proc.stderr[-2000:]


_LIFT_EXPORTS = """
import sys
import repro.lift as lift
front = [m for m in sys.modules if m.startswith("repro.lift.")]
assert not front, front
star = {}
exec("from repro.lift import *", star)
names = sorted(n for n in star if not n.startswith("__"))
assert names == sorted(lift.__all__), names
for name in lift.__all__:
    assert getattr(lift, name) is star[name], name
assert lift.arith is sys.modules["repro.lift.arith"]
assert lift.types is sys.modules["repro.lift.types"]
"""


def test_lift_exports_resolve_lazily():
    """``import repro.lift`` loads none of its submodules (PEP 562), and
    every name in ``repro.lift.__all__`` resolves through ``getattr``
    and ``import *`` — ``arith`` and ``types`` to their modules."""
    proc = _fresh(_LIFT_EXPORTS)
    assert proc.returncode == 0, proc.stderr[-2000:]


#: names that moved to a module with no LIFT front end, by old home:
#: the ones each old home still imports because its own code uses them
_MOVED = {
    "repro.lift.codegen.host": ("ArgBinding", "BufferDecl", "CopyIn",
                                "CopyOut", "HostPlan", "HostProgram",
                                "KernelSource", "Launch"),
    "repro.lift.codegen.opencl": ("KernelAllocation", "KernelSource",
                                  "ParamInfo"),
    "repro.lift.memory": ("KernelAllocation", "OutputAllocation"),
    "repro.lift.analysis": ("Resources",),
    "repro.lift.codegen.numpy_backend": ("NumpyKernel",),
}
_NEW_HOME = {"Resources": "repro.lift.resources",
             "NumpyKernel": "repro.lift.codegen.arena"}


def _all_moved() -> set[str]:
    from repro.lift.codegen import plan
    return {*plan.__all__, *_NEW_HOME}


@pytest.mark.parametrize("old", sorted(_MOVED))
def test_moved_names_resolve_from_their_old_modules(old):
    """The plan's data model, ``Resources`` and ``NumpyKernel`` live in
    modules that import no LIFT front end.  An old home holds a moved
    name only where its own code uses it, as the same object, and
    re-exports no other."""
    import importlib
    module = importlib.import_module(old)
    for name in _MOVED[old]:
        new = importlib.import_module(
            _NEW_HOME.get(name, "repro.lift.codegen.plan"))
        assert getattr(module, name) is getattr(new, name), (old, name)
        assert getattr(new, name).__module__ == new.__name__
    kept = [n for n in sorted(_all_moved() - set(_MOVED[old]))
            if hasattr(module, n)]
    assert not kept, (old, kept)


def _imports_from(path: Path, module: str):
    """``(line, name)`` of every name a ``from ... import`` in ``path``
    takes from ``module`` (relative imports resolved)."""
    import ast
    parts = path.resolve().with_suffix("").parts
    package = (parts[parts.index("repro"):-1]
               if "repro" in parts else ())
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.ImportFrom):
            continue
        base = (node.module or "").split(".") if node.module else []
        if node.level:
            base = [*package[:len(package) - node.level + 1], *base]
        if ".".join(base) == module:
            for alias in node.names:
                yield node.lineno, alias.name


def test_callers_import_moved_names_from_their_new_homes():
    """No module of the package, its tests or its examples takes a
    moved name from its old home, though some old homes still hold it."""
    root = Path(repro.__file__).resolve().parents[2]
    moved = _all_moved()
    found = [f"{path.relative_to(root)}:{line}: {name} from {old}"
             for top in ("src", "tests", "examples")
             for path in sorted((root / top).rglob("*.py"))
             for old in _MOVED
             for line, name in _imports_from(path, old) if name in moved]
    assert not found, found


_PLAN_ONLY = """
import sys
from repro.lift.codegen.plan import HostProgram
import repro.gpu.autotune, repro.gpu.costmodel, repro.gpu.runtime
front = [m for m in ("repro.lift.ast", "repro.lift.patterns",
                     "repro.lift.type_inference", "repro.lift.analysis",
                     "repro.lift.memory", "repro.lift.codegen.host",
                     "repro.lift.codegen.opencl",
                     "repro.lift.codegen.numpy_backend")
         if m in sys.modules]
assert not front, front
"""


def test_the_plan_and_the_runtime_load_no_front_end():
    """The plan's data model, the cost model, the autotuner and the
    virtual runtime import only ``lift.arith`` / ``lift.types`` of
    LIFT's IR."""
    proc = _fresh(_PLAN_ONLY)
    assert proc.returncode == 0, proc.stderr[-2000:]
