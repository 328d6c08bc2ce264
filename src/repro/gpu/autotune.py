"""Workgroup-size autotuning over the cost model.

The paper's methodology: "All benchmarks have been hand-tuned by workgroup
size and the best result is reported" (§VI).  We emulate that tuning pass
by sweeping candidate workgroup sizes through the cost model and keeping
the fastest — both the hand-written baseline and the LIFT-generated code
get the same treatment, exactly as in the paper.

The sweep is deterministic (same resources, device, precision and gather
array always pick the same workgroup), so its result is memoised in a
process-wide :class:`AutotuneMemo` keyed by the *content* of those
inputs: the resource-count fingerprint, the launch size, the device's
hardware model (name/board stripped, so every shard of a ``"name:k"``
pool shares one entry), the precision, the code-generation traits and a
hash of the gather-index array.  Repeated ``bench``/``serve`` runs and
per-step launches of a simulation stop re-sweeping
:data:`CANDIDATE_WORKGROUPS`; the serving layer's compile cache
(:mod:`repro.serve.cache`) shares this memo and surfaces its hit rate.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace

import numpy as np

from ..lift.resources import Resources
from .costmodel import (ImplTraits, KernelTiming, LIFT_TRAITS,
                        workgroup_pricer)
from .device import DeviceSpec

#: the workgroup sizes the sweep considers (powers of two up to the
#: device maximum, as a hand-tuner would try)
CANDIDATE_WORKGROUPS = (32, 64, 128, 256, 512, 1024)


def _resources_fingerprint(res: Resources) -> tuple:
    """A stable, hashable digest of per-work-item resource counts."""
    return (tuple(sorted(res.loads_detail.items())),
            tuple(sorted(res.stores_detail.items())),
            tuple(sorted(res.loads_by_width.items())),
            tuple(sorted(res.stores_by_width.items())),
            res.flops, res.int_ops, res.comparisons, res.divergent)


def _gather_fingerprint(gather_index: np.ndarray | None) -> str | None:
    """Content hash of the gather-index array (the boundary indices).

    The sector statistics the cost model derives from this array are pure
    functions of its content, so hashing it once replaces re-walking it
    for every candidate workgroup of every launch.
    """
    if gather_index is None:
        return None
    a = np.ascontiguousarray(gather_index)
    h = hashlib.sha1(a.tobytes())
    h.update(str((a.dtype.str, a.shape)).encode())
    return h.hexdigest()


class AutotuneMemo:
    """Memo of completed workgroup sweeps, keyed by sweep content.

    One entry per (resources-hash, n_items, device hardware model,
    precision, traits, gather hash, candidates).  The device key strips
    ``name``/``board`` (via :func:`dataclasses.replace`), so the shards
    of a ``"TitanBlack:2"`` pool — identical hardware under different
    names — share entries instead of re-sweeping per die.
    """

    def __init__(self):
        self._best: dict[tuple, KernelTiming] = {}
        self.hits = 0
        self.misses = 0

    def key(self, resources: Resources, n_items: int, device: DeviceSpec,
            precision: str, traits: ImplTraits,
            gather_index: np.ndarray | None,
            candidates: tuple[int, ...]) -> tuple:
        return (_resources_fingerprint(resources), int(n_items),
                replace(device, name="", board=""), precision, traits,
                _gather_fingerprint(gather_index), tuple(candidates))

    def lookup(self, key: tuple) -> KernelTiming | None:
        t = self._best.get(key)
        if t is not None:
            self.hits += 1
        return t

    def store(self, key: tuple, timing: KernelTiming) -> None:
        self.misses += 1
        self._best[key] = timing

    def __len__(self) -> int:
        return len(self._best)

    def clear(self) -> None:
        self._best.clear()
        self.hits = 0
        self.misses = 0


#: the process-wide memo every :func:`autotune_workgroup` call consults
_MEMO = AutotuneMemo()


def autotune_memo() -> AutotuneMemo:
    """The shared process-wide sweep memo (hit/miss stats included)."""
    return _MEMO


def autotune_workgroup(resources: Resources, n_items: int,
                       device: DeviceSpec, precision: str,
                       traits: ImplTraits = LIFT_TRAITS,
                       gather_index: np.ndarray | None = None,
                       candidates: tuple[int, ...] = CANDIDATE_WORKGROUPS,
                       memo: AutotuneMemo | None = None
                       ) -> KernelTiming:
    """Best modelled timing over the workgroup-size sweep (memoised).

    ``memo=None`` uses the process-wide :func:`autotune_memo`; pass an
    explicit :class:`AutotuneMemo` for an isolated cache, or disable
    memoisation entirely with a throwaway instance.
    """
    m = memo if memo is not None else _MEMO
    key = m.key(resources, n_items, device, precision, traits,
                gather_index, candidates)
    cached = m.lookup(key)
    if cached is not None:
        return cached
    # bytes and flops do not depend on the workgroup: priced once, and
    # only the occupancy is swept
    price = workgroup_pricer(resources, n_items, device, precision, traits,
                             gather_index)
    best: KernelTiming | None = None
    for wg in candidates:
        if wg > device.max_workgroup:
            continue
        t = price(wg)
        if best is None or t.time_ms < best.time_ms:
            best = t
    if best is None:
        from .errors import ClInvalidWorkGroupSize
        raise ClInvalidWorkGroupSize(
            f"no candidate workgroup size fits device {device.name!r}: "
            f"candidates {tuple(candidates)} all exceed max_workgroup="
            f"{device.max_workgroup}", device=device.name,
            candidates=tuple(candidates),
            max_workgroup=device.max_workgroup)
    m.store(key, best)
    return best
