"""What the perf ledger runs: rooms, lanes, block sizes and the gateway
job mix.  No heavy import happens at module level — ``child.py`` imports
this before it stamps the start of ``setup_s``'s interval only because
everything ``repro`` or NumPy is imported inside the functions.
"""

from __future__ import annotations

import random
import time

FULL_DIMS = (302, 202, 152)       # the paper's box room, 9.27 Mvox
HALF_DIMS = (151, 101, 76)        # the same room at scale 2, 1.16 Mvox
SMOKE_DIMS = (50, 34, 25)         # ... and at scale 6, for --smoke
SCHEMES = ("fi", "fi_mm", "fd_mm")

_KERNELS = {"backend": "numba"}
_VGPU = {"backend": "virtual_gpu"}
_SHARDS2 = {"backend": "virtual_gpu", "devices": "TitanBlack:2",
            "parallel": True}

#: lanes = (scheme, SimConfig keywords), timed one after another;
#: ``block_ops`` = S, the ops per block; ``bulk`` lanes advance through
#: ``sim.run(S)`` (one bulk segment), the others through S timed
#: ``sim.step()`` calls; ``min_blocks`` = the fewest blocks a lane times
#: however short ``--seconds`` is.  ``gateway_small`` lists lanes only so
#: the priming child compiles what its worker will load.
#:
#: S is 1 where an op is a full-room step.  This host has two speeds: for
#: stretches of 2-11 s every step of an unchanged process takes 1.8x its
#: floor (fd_mm: 50 ms and 89 ms, nothing in between; each vCPU on its
#: own schedule, more often when both are busy), so a block must be short
#: enough to fit between two slow stretches and the window of blocks long
#: enough to outlast one.  That is also why ``kernels_302`` times one
#: scheme over the whole window instead of three over a third each
#: (three resident simulations would need 5.2 GB touched cold, 32 s).
#:
#: A workload with ``"ledger_only"`` is run by ``run.py`` and stored in
#: the ledger but is not named in ``BENCHMARK.json``: its ``op_ms`` needs
#: two or three processes awake at once and moved 12-28 % between 20 s
#: windows of one unchanged process tree, which no admissible bound holds.
WORKLOADS = {
    "kernels_302": {"dims": FULL_DIMS, "block_ops": 1, "min_blocks": 10,
                    "bulk": False, "lanes": [("fd_mm", _KERNELS)]},
    "vgpu_302": {"dims": FULL_DIMS, "block_ops": 1, "min_blocks": 10,
                 "bulk": False, "lanes": [("fd_mm", _VGPU)]},
    "shards2_151": {"dims": HALF_DIMS, "block_ops": 5, "min_blocks": 3,
                    "bulk": True, "lanes": [("fi_mm", _SHARDS2)],
                    "ledger_only": "two shard processes in bulk segments on "
                    "the scale-2 room: repro.gpu.parallel/multi dominate "
                    "(per-segment worker spawn); resident ranged launches, "
                    "unlike vgpu_302's one-shot execute()"},
    "gateway_small": {"dims": None, "block_ops": 12, "min_blocks": 2,
                      "bulk": False, "lanes": [(s, _VGPU) for s in SCHEMES],
                      "ledger_only": "closed-loop small jobs over "
                      "HTTP/WebSocket: repro.net + repro.serve + pool "
                      "dominate, kernels do almost nothing, and work moved "
                      "into per-simulation set-up shows as a regression"},
}

#: steps after which a stepping lane's field is verified
VERIFY_STEPS = 8
#: ``gateway_small``: results bit-compared with in-process simulate,
#: warm-up ops before the timed phase (for every WebSocket subscriber the
#: gateway scans its 512-event flight-recorder ring and fingerprints the
#: request once per event, so its CPU time per job doubles, 7 to 14 ms,
#: while the ring fills over the first ~150 jobs, and is flat after),
#: steps per job, and the job count at which gateway + worker peak RSS is
#: read (the gateway keeps every result it ever produced, so its RSS is a
#: function of jobs served)
GATEWAY_VERIFIED = 12
GATEWAY_WARMUP = 200
GATEWAY_STEPS = 8
GATEWAY_RSS_AT = {False: 150, True: 30}


def now() -> float:
    return time.perf_counter()


def verify_steps(spec: dict) -> int:
    """The step at which a workload's field is checked: after the walk
    of :data:`VERIFY_STEPS` for stepping lanes, after the first op plus
    the first bulk segment for bulk lanes."""
    return 1 + spec["block_ops"] if spec["bulk"] else VERIFY_STEPS


class Lane:
    """One resident simulation of a ``*_302`` workload."""

    def __init__(self, scheme: str, sim_kwargs: dict, bulk: bool):
        self.scheme = scheme
        self.sim_kwargs = sim_kwargs
        self.bulk = bulk
        self.sim = None
        self.first_op_s = 0.0
        self.blocks: list[tuple[float, bool]] = []    # (s/op, was traced)
        self.segments: list[tuple[float, dict]] = []  # bulk: (wall, overlap)

    def build(self, dims) -> None:
        from repro.acoustics import (BoxRoom, Grid3D, Room, RoomSimulation,
                                     SimConfig)
        self.sim = RoomSimulation(SimConfig(
            room=Room(Grid3D(*dims), BoxRoom()), scheme=self.scheme,
            **self.sim_kwargs))

    def place(self, impulse, receiver_b) -> None:
        self.sim.add_impulse(impulse)
        self.sim.add_receiver("a", impulse)
        self.sim.add_receiver("b", receiver_b)

    def advance(self, n: int) -> list[float]:
        """Run ``n`` ops; returns their wall times in seconds (a bulk
        segment has one wall time, shared evenly by its steps)."""
        if self.bulk:
            t0 = now()
            self.sim.run(n)
            wall = now() - t0
            self.segments.append((wall, self.sim.last_overlap or {}))
            return [wall / n] * n
        out = []
        for _ in range(n):
            t0 = now()
            self.sim.step()
            out.append(now() - t0)
        return out


def computed_mb_per_step(sim) -> float:
    """Bytes one step must move, *computed* from array sizes (every
    operand read once, every result written once; cache misses and the
    arena's temporaries are ignored, so this is the algorithmic floor):
    the volume/fused kernel reads ``prev``, ``curr`` and the neighbour
    counts and writes ``nxt``; the boundary kernel reads its index,
    material and neighbour entries and ``prev``, reads and writes
    ``nxt``, and for ``fd_mm`` reads three and writes two branch-state
    arrays."""
    n = sim.grid.num_points
    item = sim.curr.itemsize
    total = n * (3 * item + sim.nbrs.itemsize)
    if sim.config.scheme != "fi":
        t = sim.topology
        k = t.num_boundary_points
        total += k * (t.boundary_indices.itemsize + t.material.itemsize
                      + sim.nbrs.itemsize + 3 * item)
        if sim.config.scheme == "fd_mm":
            total += 5 * sim.g1.size * item
    return total / 1e6


def loops_layers(lane: Lane, step_ms: float) -> dict:
    """``loops.<scheme>.*`` of a raw-kernel lane whose best step took
    ``step_ms``."""
    mb = computed_mb_per_step(lane.sim)
    return {f"loops.{lane.scheme}.step_ms": step_ms,
            f"loops.{lane.scheme}.computed_mb_per_step": mb,
            f"loops.{lane.scheme}.computed_gbs": mb / step_ms}


def gateway_request(index: int, seed: int):
    """Job ``index`` of the run: box ``(40 + k) x 32 x 24`` with ``k``
    from a seeded permutation of 0..15, schemes cycled, 8 steps, one
    receiver.  The impulse position makes every request of a run unique
    (a repeat would be answered from the result cache, not executed);
    work per op does not depend on it."""
    from repro.acoustics import BoxRoom, Grid3D, Room
    from repro.serve import SubmitRequest
    order = list(range(16))
    random.Random(seed).shuffle(order)
    variant = index // 48
    impulse = (8 + variant % 24, 8 + (variant // 24) % 16, 8 + variant // 384)
    return SubmitRequest(
        room=Room(Grid3D(40 + order[index % 16], 32, 24), BoxRoom()),
        steps=GATEWAY_STEPS, scheme=SCHEMES[index % 3], impulse=impulse,
        receivers={"mic": (impulse[0] + 3, impulse[1], impulse[2])})
