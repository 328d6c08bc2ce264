"""Per-work-item resource counts: what :mod:`.analysis` derives from a
kernel's IR and the GPU cost model (:mod:`repro.gpu.costmodel`) prices.

A plain record with no LIFT imports, so a plan loaded from the disk
cache carries its kernels' counts without loading the analysis (its
old home, :mod:`.analysis`, re-exports it).
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["Resources"]


@dataclass
class Resources:
    """Per-work-item resource counts.

    ``loads_detail`` / ``stores_detail`` record counts keyed by
    ``(array_name, access_class, width)`` where ``access_class`` is one of

    * ``"contiguous"`` — index is an affine function of the work-item id
      (unit stride across neighbouring work items: coalesced);
    * ``"gathered"`` — index derives from a loaded value (data-dependent:
      the boundary-index indirection);
    * ``"table"`` — index derives from a loaded value but the array is a
      small per-material coefficient table (cache-resident).

    The aggregate ``loads_by_width`` / ``stores_by_width`` views are kept
    for convenience.
    """

    loads_by_width: dict[int, float] = field(default_factory=dict)
    stores_by_width: dict[int, float] = field(default_factory=dict)
    loads_detail: dict[tuple[str, str, int], float] = field(default_factory=dict)
    stores_detail: dict[tuple[str, str, int], float] = field(default_factory=dict)
    flops: float = 0.0
    int_ops: float = 0.0
    comparisons: float = 0.0
    divergent: bool = False

    # -- accumulation -----------------------------------------------------------
    def load(self, width: int, count: float = 1.0, array: str = "?",
             access_class: str = "gathered") -> None:
        self.loads_by_width[width] = self.loads_by_width.get(width, 0.0) + count
        key = (array, access_class, width)
        self.loads_detail[key] = self.loads_detail.get(key, 0.0) + count

    def store(self, width: int, count: float = 1.0, array: str = "?",
              access_class: str = "contiguous") -> None:
        self.stores_by_width[width] = self.stores_by_width.get(width, 0.0) + count
        key = (array, access_class, width)
        self.stores_detail[key] = self.stores_detail.get(key, 0.0) + count

    def scaled(self, factor: float) -> "Resources":
        r = Resources()
        r.loads_by_width = {w: c * factor for w, c in self.loads_by_width.items()}
        r.stores_by_width = {w: c * factor for w, c in self.stores_by_width.items()}
        r.loads_detail = {k: c * factor for k, c in self.loads_detail.items()}
        r.stores_detail = {k: c * factor for k, c in self.stores_detail.items()}
        r.flops = self.flops * factor
        r.int_ops = self.int_ops * factor
        r.comparisons = self.comparisons * factor
        r.divergent = self.divergent
        return r

    def merge(self, other: "Resources") -> None:
        for (a, cls, w), c in other.loads_detail.items():
            self.load(w, c, array=a, access_class=cls)
        for (a, cls, w), c in other.stores_detail.items():
            self.store(w, c, array=a, access_class=cls)
        self.flops += other.flops
        self.int_ops += other.int_ops
        self.comparisons += other.comparisons
        self.divergent = self.divergent or other.divergent

    # -- summaries ---------------------------------------------------------------
    @property
    def loads(self) -> float:
        return sum(self.loads_by_width.values())

    @property
    def stores(self) -> float:
        return sum(self.stores_by_width.values())

    @property
    def memory_accesses(self) -> float:
        """Total global memory accesses per work item (paper's metric)."""
        return self.loads + self.stores

    @property
    def bytes_moved(self) -> float:
        return (sum(w * c for w, c in self.loads_by_width.items())
                + sum(w * c for w, c in self.stores_by_width.items()))

    def __repr__(self) -> str:
        return (f"Resources(loads={self.loads:.0f}, stores={self.stores:.0f}, "
                f"flops={self.flops:.0f}, int_ops={self.int_ops:.0f}, "
                f"bytes={self.bytes_moved:.0f}, divergent={self.divergent})")
