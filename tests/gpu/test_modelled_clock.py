"""The modelled clock, pinned value for value.

The cost model prices every launch from exact DRAM-sector statistics of
the boundary-index arrays (``sector_bytes_per_item``).  How those lines
are counted is an implementation detail; what the count prices is the
paper reproduction.  These values were recorded from the model and must
not move unless the model itself is meant to change.
"""

from pathlib import Path

import pytest

from repro.acoustics import RoomSimulation, SimConfig
from repro.acoustics.geometry import BoxRoom, DomeRoom, Room
from repro.acoustics.grid import Grid3D

GOLDEN = Path(__file__).resolve().parent / "golden" / "bench_scaling.json"
STEPS = 6

#: ``modelled_gpu_time_ms`` after STEPS steps on a 14x12x10 room
PINNED = {
    ("fi", "single", "BoxRoom"): 0.03159468673376972,
    ("fi", "single", "DomeRoom"): 0.03159468673376972,
    ("fi", "double", "BoxRoom"): 0.03185255097157078,
    ("fi", "double", "DomeRoom"): 0.03185255097157078,
    ("fi_mm", "single", "BoxRoom"): 0.0621782035328508,
    ("fi_mm", "single", "DomeRoom"): 0.06238879931323245,
    ("fi_mm", "double", "BoxRoom"): 0.06272966401837847,
    ("fi_mm", "double", "DomeRoom"): 0.06298714114381274,
    ("fd_mm", "single", "BoxRoom"): 0.06288945078086458,
    ("fd_mm", "single", "DomeRoom"): 0.06310004656124622,
    ("fd_mm", "double", "BoxRoom"): 0.06436553268881018,
    ("fd_mm", "double", "DomeRoom"): 0.06462300981424444,
}


@pytest.mark.parametrize("shape", [BoxRoom, DomeRoom])
@pytest.mark.parametrize("precision", ["single", "double"])
@pytest.mark.parametrize("scheme", ["fi", "fi_mm", "fd_mm"])
def test_modelled_gpu_time_is_pinned(scheme, precision, shape):
    sim = RoomSimulation(SimConfig(
        room=Room(Grid3D(14, 12, 10), shape()), scheme=scheme,
        backend="virtual_gpu", precision=precision))
    sim.add_impulse("center")
    sim.run(STEPS)
    assert sim.modelled_gpu_time_ms \
        == PINNED[(scheme, precision, shape.__name__)]


def test_bench_scaling_json_is_pinned(tmp_path):
    """``python -m repro.bench scaling --json`` byte for byte."""
    from repro.bench.__main__ import main
    out = tmp_path / "scaling.json"
    assert main(["scaling", "--json", str(out)]) == 0
    assert out.read_bytes() == GOLDEN.read_bytes()
