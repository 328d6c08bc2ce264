"""The measured columns of the strong-scaling sweep compare like with
like: every row's ``loop_wall_s`` times its steps alone, set-up
excluded, and every measured speedup divides loop walls."""

import pytest

from repro.bench.scaling_wallclock import scaling_wallclock_benchmark


@pytest.fixture(scope="module")
def sweep():
    # the smallest room the sweep builds (8 points per axis at least)
    return scaling_wallclock_benchmark(scale=40, steps=3,
                                       shard_counts=(1, 2))


def test_the_baseline_loop_wall_excludes_its_set_up(sweep):
    base = sweep["results"][0]["measured"]
    assert sweep["results"][0]["shards"] == 1
    assert 0 < base["loop_wall_s"] < base["wall_total_s"]
    assert base["seconds_per_step"] == base["loop_wall_s"] / sweep["steps"]


def test_speedup_divides_loop_walls(sweep):
    base, row = (r["measured"] for r in sweep["results"])
    assert sweep["all_bit_identical"]
    assert row["speedup"] == base["loop_wall_s"] / row["loop_wall_s"]
    assert row["efficiency"] == row["speedup"] / 2
