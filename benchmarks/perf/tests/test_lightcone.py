"""The light-cone verifier, with its negative controls."""

import numpy as np
import pytest

import lightcone
from workloads import Lane

pytest.importorskip("repro")

STEPS = 5


def _run(dims, impulse, recv_b, scheme, **sim_kwargs):
    lane = Lane(scheme, sim_kwargs, bulk=False)
    lane.build(dims)
    lane.place(impulse, recv_b)
    lane.advance(STEPS)
    return lightcone.snapshot(lane.sim, impulse, STEPS)


def test_pick_positions_is_seeded_and_respects_the_margin():
    dims = (302, 202, 152)
    assert (lightcone.pick_positions(7, dims, 8)
            == lightcone.pick_positions(7, dims, 8))
    seen = set()
    for seed in range(50):
        (x, y, z), b = lightcone.pick_positions(seed, dims, 8)
        seen.add((x, y, z))
        m = lightcone.margin(8)
        assert m <= x <= dims[0] - 1 - m and m <= y <= dims[1] - 1 - m
        assert abs(z - dims[2] // 2) <= 3          # cone crosses the 2-shard cut
        assert sum(abs(p - q) for p, q in zip((x, y, z), b)) == 3
    assert len(seen) > 40
    with pytest.raises(ValueError):
        lightcone.pick_positions(0, (20, 20, 20), 8)


@pytest.mark.parametrize("scheme", ["fi", "fi_mm", "fd_mm"])
def test_cone_is_the_same_in_every_room(scheme):
    """The premise of the check: a bigger room, another position and
    another backend give the reference cube bit for bit."""
    impulse, recv_b = (17, 12, 14), (17, 9, 14)
    got = _run((36, 30, 28), impulse, recv_b, scheme, backend="numba")
    ref = lightcone.reference(scheme, STEPS, (0, -3, 0))
    assert lightcone.compare(ref, got) == []
    assert got["nonzero_curr"] == int(np.count_nonzero(ref["curr"])) > 0


def test_one_ulp_is_caught():
    ref = lightcone.reference("fi_mm", STEPS, (3, 0, 0))
    assert lightcone.compare(ref, ref) == []
    assert lightcone.compare(ref, lightcone.perturb_one_ulp(ref)) == ["curr"]
    wrong_sample = dict(ref, b=ref["b"].copy())
    wrong_sample["b"][-1] = np.nextafter(wrong_sample["b"][-1], -np.inf)
    assert lightcone.compare(ref, wrong_sample) == ["b"]


def test_a_value_outside_the_cone_is_caught():
    ref = lightcone.reference("fi", STEPS, (3, 0, 0))
    leaked = dict(ref, nonzero_prev=ref["nonzero_prev"] + 1)
    assert lightcone.compare(ref, leaked) == ["prev-outside-cone"]


def test_snapshot_refuses_the_wrong_step():
    lane = Lane("fi", {"backend": "numpy-steady"}, bulk=False)
    lane.build((30, 30, 30))
    lane.place((15, 15, 15), (18, 15, 15))
    lane.advance(2)
    with pytest.raises(ValueError):
        lightcone.snapshot(lane.sim, (15, 15, 15), STEPS)
