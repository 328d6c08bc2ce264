"""repro.bench — regeneration harnesses for the paper's evaluation.

One entry per paper artefact (Tables II-VI, Figures 2/4/5/6); see
DESIGN.md's per-experiment index.  Use ``python -m repro.bench all`` for
the full paper-vs-model report (EXPERIMENTS.md is generated from it).
"""

from . import experiments, figures, harness, paper_data, report, rooms
from .harness import kernel_resources, modelled_time, throughput_gelems
from .rooms import PAPER_SHAPES, PAPER_SIZES, RoomBundle, room_bundle
from .serve import serve_benchmark

__all__ = [
    "experiments", "figures", "harness", "paper_data", "report", "rooms",
    "kernel_resources", "modelled_time", "throughput_gelems",
    "PAPER_SHAPES", "PAPER_SIZES", "RoomBundle", "room_bundle",
    "serve_benchmark",
]
