"""Timing estimators for the perf ledger (pure Python, no repro import).

Host noise on the shared 2-vCPU box this ledger is cut on is one-sided
and arrives in bursts of 10 s to minutes, so the *gated* number follows
the STREAM convention: the timed phase is a sequence of blocks of ``S``
consecutive ops, a block's value is its wall time / ``S``, and the
reported time is the **minimum over blocks**.  Medians and percentiles
over single ops are printed beside it as diagnostics only.
"""

from __future__ import annotations

import math


def best_block(block_values) -> float:
    """The minimum block value (wall time per op of the fastest block)."""
    values = [float(v) for v in block_values]
    if not values:
        raise ValueError("best_block needs at least one block")
    return min(values)


def block_values(op_times, block_ops: int) -> list[float]:
    """Mean op time of each full block of ``block_ops`` consecutive ops
    (a trailing partial block is dropped: it would be a shorter, hence
    noisier, sample than its peers)."""
    if block_ops < 1:
        raise ValueError(f"block_ops must be >= 1, got {block_ops}")
    ops = [float(t) for t in op_times]
    return [sum(ops[i:i + block_ops]) / block_ops
            for i in range(0, len(ops) - block_ops + 1, block_ops)]


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty list."""
    ordered = sorted(float(v) for v in values)
    if not ordered:
        raise ValueError("percentile of an empty list")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def diagnostics(op_times) -> dict:
    """``n``, p50 and p95 over single ops — printed, never gated."""
    return {"n": len(op_times), "p50": percentile(op_times, 50),
            "p95": percentile(op_times, 95)}


def keep_going(elapsed_s: float, last_block_s: float, seconds: float,
               blocks_done: int, min_blocks: int) -> bool:
    """Whether the timed phase starts another block: always until
    ``min_blocks`` are in, then only while at least half of a block of
    the size just seen still fits into ``seconds``."""
    if blocks_done < min_blocks:
        return True
    return elapsed_s + 0.5 * last_block_s < seconds
