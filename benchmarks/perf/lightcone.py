"""Output verification for the ``*_302`` workloads: the light-cone check.

The scheme's stencil moves information one cell per step, so ``V`` steps
after an impulse placed at least ``V + 4`` cells from every wall the
field is non-zero only inside the ``(2V+1)^3`` cube around the impulse,
and that cube — like the first ``V`` samples of any receiver inside it —
is bit-identical in *every* box room: no wall has been heard yet.  The
reference is therefore ``backend="numpy-steady"`` stepping the smallest
room that holds the cone (``(2(V+4)+1)^3``, impulse centred), which
costs milliseconds, and the thing verified is the **timed child's own
full-size field**, not a side run:

* the cube of ``curr`` and of ``prev`` equals the reference cube;
* the whole field has exactly as many non-zeros as the cube (nothing
  leaked outside the cone);
* both receiver signals equal the reference signals, sample for sample.

``perturb_one_ulp`` is the negative control: it moves one value of the
snapshot to the next representable double, which ``compare`` must catch.
"""

from __future__ import annotations

import random

import numpy as np

REFERENCE_BACKEND = "numpy-steady"
#: receiver ``b`` sits this many cells from the impulse
RECEIVER_OFFSET = 3


def margin(steps: int) -> int:
    """Minimum wall distance of the impulse for a ``steps``-step check."""
    return steps + 4


def pick_positions(seed: int, dims, steps: int):
    """Impulse (= receiver ``a``) and receiver ``b`` positions for a seed.

    ``x``/``y`` are uniform over the cells at least :func:`margin` from
    the walls; ``z`` stays within 3 planes of the mid-plane so the cone
    always crosses the cut of a 2-shard Z-slab decomposition and the
    halo exchange is part of what gets verified.  ``b`` is
    :data:`RECEIVER_OFFSET` cells from the impulse along ±x or ±y.
    Work per op does not depend on any of this.
    """
    nx, ny, nz = dims
    m = margin(steps)
    if min(nx, ny, nz) < 2 * m + 1:
        raise ValueError(f"room {dims} cannot hold a {steps}-step light "
                         f"cone with margin {m}")
    rng = random.Random(seed)
    x = rng.randint(m, nx - 1 - m)
    y = rng.randint(m, ny - 1 - m)
    z = rng.randint(max(m, nz // 2 - 3), min(nz - 1 - m, nz // 2 + 3))
    axis = rng.randrange(2)
    sign = rng.choice((-1, 1))
    b = [x, y, z]
    b[axis] += sign * RECEIVER_OFFSET
    return (x, y, z), tuple(b)


def _cube(sim, flat, centre, radius: int) -> np.ndarray:
    volume = flat[:sim.grid.num_points].reshape(sim.grid.shape)   # (z, y, x)
    x, y, z = centre
    r = radius
    return volume[z - r:z + r + 1, y - r:y + r + 1, x - r:x + r + 1].copy()


def snapshot(sim, impulse, steps: int) -> dict:
    """What :func:`compare` looks at, taken from a simulation that has
    just completed exactly ``steps`` steps."""
    if sim.time_step != steps:
        raise ValueError(f"snapshot wants a simulation at step {steps}, "
                         f"got step {sim.time_step}")
    n = sim.grid.num_points
    return {
        "curr": _cube(sim, sim.curr, impulse, steps),
        "prev": _cube(sim, sim.prev, impulse, steps),
        "nonzero_curr": int(np.count_nonzero(sim.curr[:n])),
        "nonzero_prev": int(np.count_nonzero(sim.prev[:n])),
        "a": sim.receiver_signal("a")[:steps].copy(),
        "b": sim.receiver_signal("b")[:steps].copy(),
    }


def reference(scheme: str, steps: int, b_offset) -> dict:
    """The expected snapshot: ``numpy-steady`` on the smallest room that
    holds the cone.  ``b_offset`` is receiver ``b`` minus the impulse."""
    from repro.acoustics import BoxRoom, Grid3D, Room
    from repro.acoustics.sim import RoomSimulation, SimConfig
    m = margin(steps)
    side = 2 * m + 1
    sim = RoomSimulation(SimConfig(
        room=Room(Grid3D(side, side, side), BoxRoom()), scheme=scheme,
        backend=REFERENCE_BACKEND))
    centre = (m, m, m)
    sim.add_impulse(centre)
    sim.add_receiver("a", centre)
    sim.add_receiver("b", tuple(c + d for c, d in zip(centre, b_offset)))
    for _ in range(steps):
        sim.step()
    return snapshot(sim, centre, steps)


def compare(ref: dict, got: dict) -> list[str]:
    """Names of the parts of ``got`` that differ from ``ref`` (empty
    when every check passes)."""
    bad = []
    for key in ("curr", "prev", "a", "b"):
        if (ref[key].shape != got[key].shape
                or not np.array_equal(ref[key], got[key])):
            bad.append(key)
    for key in ("curr", "prev"):
        if got[f"nonzero_{key}"] != int(np.count_nonzero(got[key])):
            bad.append(f"{key}-outside-cone")
    return bad


def perturb_one_ulp(snap: dict) -> dict:
    """A copy of ``snap`` whose ``curr`` centre value moved by one ULP."""
    out = dict(snap)
    cube = snap["curr"].copy()
    centre = tuple(s // 2 for s in cube.shape)
    cube[centre] = np.nextafter(cube[centre], np.inf)
    out["curr"] = cube
    return out
