"""repro — reproduction of "Code Generation for Room Acoustics Simulations
with Complex Boundary Conditions using LIFT" (Stoltzfus et al., IPDPS 2021).

Subpackages
-----------
``repro.lift``
    The paper's primary contribution: a pattern-based data-parallel IR and
    code generator (OpenCL C text + executable NumPy backend) extended with
    host-code orchestration and in-place update primitives.
``repro.acoustics``
    The room-acoustics FDTD substrate: geometry, boundary topology,
    materials (frequency-independent and frequency-dependent), reference
    kernels (paper Listings 1-4), LIFT programs (Listings 5-8) and a
    simulation driver.
``repro.gpu``
    A virtual OpenCL GPU: device table (paper Table III), an analytic
    roofline cost model, a host runtime with profiling, and a
    workgroup-size autotuner.
``repro.bench``
    Regeneration harnesses for every table and figure in the paper's
    evaluation (Tables II-VI, Figures 2, 4, 5, 6), plus strong/weak
    multi-device scaling sweeps.
``repro.api``
    The unified front door: ``Session(devices=..., resilient=...)``
    owning the device pool, fault policy, and observability sink, with
    ``session.simulate(...)`` / ``session.bench(...)`` returning typed
    results.  Start here::

        from repro import api
        session = api.Session(devices="RadeonR9:2")
        result = session.simulate(room, steps=100)
``repro.serve``
    The serving layer over all of the above: a ``SimulationService``
    with a bounded priority queue, same-program batching over a device
    pool, compile/result caches, and deadline/retry job lifecycle —
    ``session.service()`` or ``SimulationService(devices="TitanBlack:2")``.
"""

__version__ = "1.0.0"

import importlib

__all__ = ["BenchResult", "Session", "SimulationResult", "api", "lift",
           "serve", "__version__"]

#: what ``import repro`` names without importing it (PEP 562): a
#: simulation that never touches the service layer never loads it
_LAZY = {"api": "api", "lift": "lift", "serve": "serve",
         "BenchResult": "api", "Session": "api", "SimulationResult": "api"}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_LAZY[name]}", __name__)
    return module if name == _LAZY[name] else getattr(module, name)
