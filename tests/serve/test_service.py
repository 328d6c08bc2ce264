"""SimulationService end-to-end: bit-identity, lifecycle, metrics."""

import numpy as np
import pytest

from repro import obs
from repro.acoustics import BoxRoom, DomeRoom, Grid3D, Room
from repro.api import Session
from repro.gpu import FaultPlan, FaultSpec
from repro.serve import (InvalidRequest, JobError, QueueFull,
                         SimulationService, SubmitRequest)

MIX = (
    ("fi", "double", 3, (12, 10, 8)),
    ("fi_mm", "double", 7, (12, 10, 8)),
    ("fd_mm", "double", 1, (10, 10, 8)),
    ("fi_mm", "single", 9, (14, 10, 8)),
    ("fi", "single", 5, (12, 12, 8)),
    ("fd_mm", "double", 8, (10, 10, 8)),      # duplicate of entry 2
    ("fi_mm", "double", 2, (16, 10, 8)),
    ("fi", "double", 6, (14, 12, 8)),
)


def _mixed_requests(steps=5):
    return [SubmitRequest(room=Room(Grid3D(*dims), BoxRoom()), steps=steps,
                          scheme=s, precision=p, priority=prio,
                          receivers={"mic": "center"})
            for s, p, prio, dims in MIX]


def _small(priority=0, **kw):
    kw.setdefault("room", Room(Grid3D(10, 8, 8), BoxRoom()))
    kw.setdefault("steps", 3)
    return SubmitRequest(priority=priority, **kw)


def test_mixed_jobs_bit_identical_to_serial_session():
    """The acceptance scenario: 8 concurrent mixed-scheme jobs over a
    2-shard pool with fault injection, each bit-identical to a serial
    Session.simulate of the same request."""
    faults = FaultPlan([FaultSpec("launch_abort", steps=(1,)),
                        FaultSpec("transfer_fail", rate=0.02)], seed=11)
    svc = SimulationService(devices="TitanBlack:2", resilient=True,
                            faults=faults, observability=True)
    handles = [svc.submit(r) for r in _mixed_requests()]
    svc.drain()
    assert all(h.state == "DONE" for h in handles)
    serial = Session()
    for h in handles:
        req = h.request
        got = h.result()
        ref = serial.simulate(req.room, req.steps, scheme=req.scheme,
                              precision=req.precision,
                              receivers=dict(req.receiver_items()))
        assert got.time_step == ref.time_step == req.steps
        assert np.array_equal(got.field, ref.field)
        assert np.array_equal(got.receivers["mic"], ref.receivers["mic"])
    # repeated shapes hit the compile cache; the duplicate request hits
    # the result cache
    assert svc.compile_cache.hits > 0
    assert svc.result_cache.hits > 0


def test_result_triggers_drain_and_caches_duplicates():
    svc = SimulationService(devices="TitanBlack")
    first = svc.submit(_small())
    r1 = first.result()                   # drives the scheduler
    assert first.state == "DONE" and not r1.from_cache
    dup = svc.submit(_small(priority=5))  # same fingerprint, hits at submit
    assert dup.state == "DONE"
    r2 = dup.result()
    assert r2.from_cache and r2.field is r1.field
    assert r2.wait_ms == 0.0


def test_priority_scheduling_on_single_device():
    svc = SimulationService(devices="TitanBlack", max_batch=1)
    lo = svc.submit(_small(priority=1))
    hi = svc.submit(_small(priority=9, steps=4))   # distinct fingerprint
    svc.drain()
    assert hi.result().start_ms < lo.result().start_ms
    assert lo.result().wait_ms > 0.0


def test_batching_same_program_jobs_share_a_lease():
    svc = SimulationService(devices="TitanBlack", observability=True)
    a = svc.submit(_small(steps=3))
    b = svc.submit(_small(steps=4))       # same compile key, new result
    svc.drain()
    assert svc.batches >= 1
    # back-to-back on one lease: second starts when the first ends
    ra, rb = a.result(), b.result()
    lo, hi = sorted((ra, rb), key=lambda r: r.start_ms)
    assert hi.start_ms == pytest.approx(lo.end_ms)
    assert svc.obs.metrics.get("repro_serve_batches_total").total() >= 1


def test_cancellation_evicts_queued_job():
    svc = SimulationService(devices="TitanBlack")
    keep = svc.submit(_small(steps=3))
    drop = svc.submit(_small(steps=4))
    assert drop.cancel()
    assert drop.state == "EVICTED" and drop.error == "cancelled"
    with pytest.raises(JobError):
        drop.result()
    assert keep.result().time_step == 3
    assert not drop.cancel()              # terminal: second cancel refused


def test_deadline_eviction():
    svc = SimulationService(devices="TitanBlack", max_batch=1)
    first = svc.submit(_small(priority=9, steps=4))
    # the pool is busy with `first` when this one could start, and its
    # deadline allows no wait at all
    late = svc.submit(_small(priority=1, deadline_ms=0.0))
    svc.drain()
    assert first.state == "DONE"
    assert late.state == "EVICTED"
    assert "deadline" in late.error


def test_backpressure_and_admission_errors():
    svc = SimulationService(devices="TitanBlack", max_queue=1)
    svc.submit(_small())
    with pytest.raises(QueueFull):
        svc.submit(_small(steps=4))
    with pytest.raises(InvalidRequest):
        svc.submit(_small(scheme="nope"))
    with pytest.raises(InvalidRequest):
        svc.submit(_small(shards=3))      # pool has one device
    with pytest.raises(InvalidRequest):
        svc.submit(_small(steps=0))


def test_retry_recovers_transient_fault_without_resilient_executor():
    # a transient launch abort at step 0 fails attempt 1 (the plain
    # executor surfaces the typed error); the per-job retry re-runs and
    # the one-shot fault does not refire
    faults = FaultPlan([FaultSpec("launch_abort", steps=(0,))], seed=3)
    svc = SimulationService(devices="TitanBlack", faults=faults,
                            job_attempts=2)
    h = svc.submit(_small())
    r = h.result()
    assert h.state == "DONE" and r.attempts == 2


def test_persistent_fault_exhausts_attempts_and_fails():
    faults = FaultPlan([FaultSpec("launch_abort", steps=(0,),
                                  persistent=True)], seed=3)
    svc = SimulationService(devices="TitanBlack", faults=faults,
                            job_attempts=1)
    h = svc.submit(_small())
    svc.drain()
    assert h.state == "FAILED"
    with pytest.raises(JobError) as err:
        h.result()
    assert "attempt 1" in str(err.value)


def test_sharded_job_runs_decomposed_and_bit_identical():
    svc = SimulationService(devices="TitanBlack:2")
    h = svc.submit(_small(room=Room(Grid3D(12, 10, 10), DomeRoom()),
                          steps=4, shards=2))
    got = h.result()
    assert len(got.devices) == 2
    assert got.path == "parallel"
    assert len(got.shard_modes) == 2
    ref = Session().simulate(h.request.room, 4, scheme=h.request.scheme)
    assert np.array_equal(got.field, ref.field)


def test_result_names_the_stepping_path():
    svc = SimulationService(devices="TitanBlack:2", resilient=True)
    one = svc.submit(_small()).result()
    assert (one.path, one.shard_modes) == ("resident", ())
    pool = svc.submit(_small(steps=4, shards=2)).result()
    assert (pool.path, pool.shard_modes) == ("pool-loop", ())


def test_serve_metrics_in_prometheus_export():
    svc = SimulationService(devices="TitanBlack:2", observability=True)
    handles = [svc.submit(r) for r in _mixed_requests(steps=3)]
    svc.drain()
    assert all(h.done for h in handles)
    text = obs.prometheus_text(svc.obs.metrics)
    for metric in ("repro_serve_queue_depth",
                   "repro_serve_jobs_total",
                   "repro_serve_wait_ms",
                   "repro_serve_latency_ms",
                   "repro_serve_cache_hits_total",
                   "repro_serve_cache_misses_total"):
        assert metric in text, metric
    assert 'state="DONE"' in text
    assert 'tier="compile"' in text and 'tier="result"' in text
    # job lifecycle markers land in the trace without advancing the clock
    spans = svc.obs.tracer.find("serve.job")
    assert len(spans) == len(handles)
    assert all(s.duration_ms == 0.0 for s in spans)


def test_stats_shape_and_determinism():
    def run():
        svc = SimulationService(devices="TitanBlack:2")
        for r in _mixed_requests(steps=3):
            svc.submit(r)
        svc.drain()
        return svc.stats()

    s1, s2 = run(), run()
    assert s1 == s2                       # modelled clock => reproducible
    assert s1["states"]["DONE"] == len(MIX)
    assert s1["jobs_per_sec"] > 0
    assert s1["latency_ms"]["p95"] >= s1["latency_ms"]["p50"] > 0
    assert s1["pool"] == ["TitanBlack#0", "TitanBlack#1"]


def test_session_service_shares_pool_and_obs():
    session = Session(devices="TitanBlack:2", observability=True)
    svc = session.service(max_queue=4)
    assert svc.pool.devices == session.devices
    assert svc.obs is session.obs
    h = svc.submit(_small())
    assert h.result().time_step == 3


def test_cancel_during_batch_never_double_completes(monkeypatch):
    """Regression: a job cancelled between batch formation and its turn
    on the lease must stay EVICTED — not be flipped to RUNNING, executed,
    and double-completed over the cancellation."""
    svc = SimulationService(devices="TitanBlack", max_batch=4)
    lead = svc.submit(_small(steps=4))
    mate = svc.submit(_small(steps=5))    # same program, distinct job
    real_execute = SimulationService._execute

    def cancel_mate_then_execute(self, handle, slots, **kw):
        # the cancel lands while the batch leader holds the lease
        mate.cancel()
        return real_execute(self, handle, slots, **kw)

    monkeypatch.setattr(SimulationService, "_execute",
                        cancel_mate_then_execute)
    svc.drain()
    assert lead.state == "DONE"
    assert mate.state == "EVICTED" and mate._result is None
    assert "cancelled" in mate.error
    with pytest.raises(JobError):
        mate.result()
    # the service itself stays consistent for further work
    monkeypatch.undo()
    assert svc.submit(_small(steps=6)).result().time_step == 6


def test_cancelled_lead_does_not_burn_lease():
    """Regression: a batch whose every member was cancelled must not
    advance the slots' busy horizon (no leaked lease)."""
    svc = SimulationService(devices="TitanBlack")
    h = svc.submit(_small())
    assert h.cancel()
    before = [s.busy_until_ms for s in svc.pool.slots]
    svc._place_batch(h)          # the race: cancel landed after the pop
    assert h.state == "EVICTED" and h._result is None
    assert [s.busy_until_ms for s in svc.pool.slots] == before
