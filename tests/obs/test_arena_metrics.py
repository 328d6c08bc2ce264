"""Arena / host-wallclock metrics exposed through the obs session.

The steady-state runtime reports three new metric families alongside the
modelled-clock ones: ``repro_host_wallclock_seconds`` (real host seconds
per kernel call, histogram), ``repro_arena_bytes`` (resident arena
bytes, gauge) and ``repro_arena_slot_requests_total`` (hit/miss
counter).  ``kernel_cache_stats()`` mirrors the same accounting for
callers without a session.  Every kernel is forced onto the
``numpy-steady`` fallback (the loop emitter is made to decline it):
arena-resident temporaries are a property of that emitter (the
compiled-loop backend holds no full-grid temporaries, which is its whole
point).
"""

import pytest

from repro import obs
from repro.lift.codegen.arena import ArenaProgram
from repro.gpu import NVIDIA_TITAN_BLACK, VirtualGPU
from repro.gpu.runtime import clear_kernel_caches, kernel_cache_stats
from repro.obs import prometheus_text, validate_prometheus_text

from ..listing5 import listing5_problem


@pytest.fixture(autouse=True)
def _no_leaked_session():
    yield
    obs.disable()


@pytest.fixture(autouse=True)
def _numpy_steady_kernels(monkeypatch):
    """Kernels realised here run on the NumPy-steady emitter."""
    monkeypatch.setattr(ArenaProgram, "loop_opaque_reasons",
                        lambda self: ["forced NumPy-steady fallback"])
    clear_kernel_caches()
    yield
    clear_kernel_caches()


@pytest.fixture(scope="module")
def run_args():
    p = listing5_problem()
    return p["host"], p["inputs"], p["sizes"]


def _launch_steps(host, inputs, sizes, steps):
    """``steps`` one-shot runs on one device, launch by launch: the
    launches whose per-launch arenas these tests observe."""
    gpu = VirtualGPU(NVIDIA_TITAN_BLACK)
    for _ in range(steps):
        gpu.execute(host, inputs, sizes)


class TestArenaMetrics:
    def test_families_present_and_schema_valid(self, run_args):
        host, inputs, sizes = run_args
        with obs.observe() as o:
            _launch_steps(host, inputs, sizes, 4)
        text = prometheus_text(o.metrics)
        assert validate_prometheus_text(text) == []
        assert "repro_host_wallclock_seconds_bucket" in text
        assert "repro_arena_bytes" in text
        assert "repro_arena_slot_requests_total" in text

    def test_wallclock_histogram_counts_every_launch(self, run_args):
        host, inputs, sizes = run_args
        steps = 3
        with obs.observe() as o:
            _launch_steps(host, inputs, sizes, steps)
        h = o.metrics.get("repro_host_wallclock_seconds")
        total = sum(s.count for s in h.series.values())
        assert total == 2 * steps               # two kernels per step
        g = o.metrics.get("repro_arena_bytes")
        assert g.value(device=NVIDIA_TITAN_BLACK.name) > 0

    def test_slot_requests_split_hit_and_miss(self, run_args):
        host, inputs, sizes = run_args
        with obs.observe() as o:
            _launch_steps(host, inputs, sizes, 4)
        c = o.metrics.get("repro_arena_slot_requests_total")
        assert c.value(outcome="miss") > 0       # warm-up allocated slots
        assert c.value(outcome="hit") > 0        # later steps reused them

    def test_no_session_no_metrics_cost(self, run_args):
        """With no session active the instrumented paths still run and
        the process-wide cache stats expose the arena accounting."""
        host, inputs, sizes = run_args
        _launch_steps(host, inputs, sizes, 2)
        stats = kernel_cache_stats()
        assert {"hits", "misses", "workspaces", "nbytes"} \
            <= set(stats["arena"])
        assert stats["arena"]["misses"] > 0
