"""The best-block estimator against synthetic samples with bursts."""

import random
import statistics

import pytest

from estimator import (best_block, block_values, diagnostics, keep_going,
                       percentile)


def _samples(n, burst_from, burst_to, seed=0, base=50.0):
    """``n`` op times of ``base`` ms with 1 % jitter; ops in the burst
    window run 1.6x slower (one-sided noise, as on the shared host)."""
    rng = random.Random(seed)
    return [base * (1.0 + 0.01 * rng.random())
            * (1.6 if burst_from <= i < burst_to else 1.0)
            for i in range(n)]


def test_best_block_ignores_a_burst_that_the_median_follows():
    quiet = _samples(120, 0, 0)
    noisy = _samples(120, 20, 95, seed=1)     # burst over 62 % of the run
    best_quiet = best_block(block_values(quiet, 5))
    best_noisy = best_block(block_values(noisy, 5))
    assert abs(best_noisy / best_quiet - 1.0) < 0.02
    assert statistics.median(noisy) / statistics.median(quiet) > 1.5


def test_best_block_needs_one_clean_block_only():
    samples = _samples(60, 0, 55)             # only the last block is clean
    assert best_block(block_values(samples, 5)) < 50.0 * 1.02


def test_block_values_drops_the_partial_block():
    assert block_values([1, 1, 3, 3, 9], 2) == [1.0, 3.0]
    with pytest.raises(ValueError):
        block_values([1.0], 0)
    with pytest.raises(ValueError):
        best_block([])


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 95) == 95
    assert percentile([7.0], 95) == 7.0
    assert diagnostics([3.0, 1.0, 2.0]) == {"n": 3, "p50": 2.0, "p95": 3.0}


def test_keep_going_honours_floor_then_budget():
    assert keep_going(100.0, 5.0, 10.0, blocks_done=1, min_blocks=2)
    assert not keep_going(100.0, 5.0, 10.0, blocks_done=2, min_blocks=2)
    assert keep_going(4.0, 2.0, 10.0, blocks_done=2, min_blocks=2)
    # less than half a block left: stop rather than overrun
    assert not keep_going(9.5, 2.0, 10.0, blocks_done=5, min_blocks=2)
