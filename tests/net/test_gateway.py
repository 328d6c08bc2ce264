"""End-to-end gateway tests: real sockets, real worker processes.

One module-scoped gateway (2 spawn workers, durable directory) serves
every test here — booting worker processes is the expensive part, the
requests are cheap.
"""

import numpy as np
import pytest

from repro.acoustics import BoxRoom, Grid3D, Room
from repro.api import Session
from repro.net import Gateway, GatewayClient, Tenant
from repro.serve import SubmitRequest

TENANTS = (
    Tenant("alpha", "key-alpha", rate=200.0, burst=100.0,
           max_concurrent=64, queue_share=0.9),
    Tenant("tiny", "key-tiny", rate=0.5, burst=1.0,
           max_concurrent=2, queue_share=0.5),
)


def _req(steps=6, dims=(12, 10, 8), scheme="fi_mm", **kw):
    return SubmitRequest(room=Room(Grid3D(*dims), BoxRoom()), steps=steps,
                         scheme=scheme, receivers={"mic": "center"}, **kw)


@pytest.fixture(scope="module")
def gateway(tmp_path_factory):
    gw = Gateway(workers=2, port=0,
                 durable_dir=str(tmp_path_factory.mktemp("gw-durable")),
                 checkpoint_every=4, max_queue=16, tenants=TENANTS)
    gw.start()
    yield gw
    gw.stop()


@pytest.fixture(scope="module")
def client(gateway):
    return GatewayClient(gateway.url, api_key="key-alpha")


def test_submit_execute_and_bit_identity(client):
    req = _req(steps=8)
    sub = client.submit_ok(req)
    assert sub["state"] in ("QUEUED", "RUNNING")
    assert sub["fingerprint"] == req.fingerprint()
    final = client.wait(sub["job_id"])
    assert final["state"] == "DONE"
    assert final["executed_in_process"] is True

    arrays = client.result_arrays(sub["job_id"])
    serial = Session().simulate(req.room, req.steps, scheme=req.scheme,
                                receivers={"mic": "center"})
    assert np.array_equal(arrays["field"], serial.field)
    assert np.array_equal(arrays["recv:mic"], serial.receivers["mic"])

    payload = client.result_json(sub["job_id"])
    assert payload["time_step"] == req.steps
    assert payload["field"]["shape"] == list(serial.field.shape)


def test_sharded_job_runs_on_shard_workers_inside_a_pool_worker():
    """A ``shards=2`` job's pool worker steps the job's two shards on
    threads of its own: the job reports the ``parallel`` path,
    bit-identical to a serial run."""
    gw = Gateway(workers=1, port=0, devices="TitanBlack:2", tenants=TENANTS)
    gw.start()
    try:
        client = GatewayClient(gw.url, api_key="key-alpha")
        req = _req(steps=8, shards=2)
        job_id = client.submit_ok(req)["job_id"]
        final = client.wait(job_id)
        assert final["state"] == "DONE"
        assert len(final["devices"]) == 2
        assert final["path"] == "parallel"
        assert "shard_modes" not in final
        arrays = client.result_arrays(job_id)
    finally:
        gw.stop()
    serial = Session().simulate(req.room, req.steps, scheme=req.scheme,
                                receivers={"mic": "center"})
    assert np.array_equal(arrays["field"], serial.field)
    assert np.array_equal(arrays["recv:mic"], serial.receivers["mic"])


def test_missing_or_bad_api_key_is_401(gateway):
    anon = GatewayClient(gateway.url)
    code, payload = anon.submit(_req())
    assert code == 401
    bad = GatewayClient(gateway.url, api_key="wrong")
    code, _ = bad.submit(_req())
    assert code == 401


def test_bearer_token_accepted(gateway, client):
    req = _req(steps=7, dims=(10, 12, 8))
    code, payload = client.request_json(
        "POST", "/v1/jobs", None)
    # raw POST without body is a 400-level error, not a crash
    assert code in (400, 422)
    status, _, data = GatewayClient(gateway.url).request(
        "POST", "/v1/jobs",
        headers={"Authorization": "Bearer key-alpha"})
    assert status in (400, 422)             # authenticated, body invalid


def test_invalid_request_is_422(client):
    code, payload = client.request_json("POST", "/v1/jobs",
                                        {"not": "a request"})
    assert code == 422
    assert "error" in payload


def test_unknown_job_is_404(client):
    code, _ = client.request_json("GET", "/v1/jobs/999999")
    assert code == 404
    code, _ = client.request_json("GET", "/v1/jobs/999999/result")
    assert code == 404


def test_rate_limit_429_with_retry_after(gateway):
    tiny = GatewayClient(gateway.url, api_key="key-tiny")
    codes = {}
    for i in range(3):
        # unique fingerprints so the duplicate path cannot hide a 429
        code, payload = tiny.submit(_req(steps=3 + i, dims=(8, 8, 8),
                                         scheme="fi"))
        codes[code] = payload
    assert 429 in codes, f"burst=1 tenant never refused: {codes}"
    refusal = codes[429]
    assert refusal["reason"] == "rate"
    assert refusal["tenant"] == "tiny"


def test_result_before_done_is_409_and_cancel(gateway, client):
    # a queue of slower jobs so ours is observably non-terminal;
    # steps vary because priority does not enter the fingerprint
    reqs = [_req(steps=30 + i, dims=(16, 14, 10), scheme="fd_mm",
                 priority=i) for i in range(3)]
    subs = [client.submit_ok(r) for r in reqs]
    target = subs[-1]
    code, payload = client.request_json(
        "GET", f"/v1/jobs/{target['job_id']}/result")
    if code == 409:                         # still queued/running
        assert payload["state"] in ("QUEUED", "RUNNING")
    cancelled = 0
    for s in subs:
        code, payload = client.cancel(s["job_id"])
        if code == 200:
            cancelled += 1
            assert payload["state"] == "EVICTED"
        else:
            assert code == 409              # already started/finished
    for s in subs:                          # everything reaches terminal
        client.wait(s["job_id"])


def test_healthz_and_metrics(client, gateway):
    h = client.healthz()
    assert h["queue_capacity"] == 16
    assert h["durable"] is True
    assert h["gateway"]["workers"]["size"] == 2
    assert h["gateway"]["workers"]["alive"] == 2
    assert set(h["states"]) == {"QUEUED", "RUNNING", "DONE", "FAILED",
                                "EVICTED"}
    assert "tiny" in h["gateway"]["tenants"]
    text = client.metrics_text()
    assert "repro_gateway_requests_total" in text
    assert "repro_serve_jobs_total" in text


def test_websocket_event_stream(client):
    req = _req(steps=40, dims=(14, 12, 10), scheme="fd_mm")
    sub = client.submit_ok(req)
    events = client.events(sub["job_id"], timeout=120)
    assert events[0]["event"] == "snapshot"
    assert events[-1]["final"] is True
    assert events[-1]["state"] == "DONE"
    assert {e["event"] for e in events} <= {"snapshot", "state",
                                            "started", "progress"}


def test_websocket_snapshot_for_finished_job(client):
    req = _req(steps=5, dims=(9, 9, 9), scheme="fi")
    sub = client.submit_ok(req)
    client.wait(sub["job_id"])
    events = client.events(sub["job_id"], timeout=30)
    assert len(events) == 1
    assert events[0]["event"] == "snapshot"
    assert events[0]["state"] == "DONE"
    assert events[0]["final"] is True


def test_websocket_subscribe_hashes_the_request_once(gateway, client,
                                                    monkeypatch):
    """Filtering a full flight-recorder ring for one job's history
    fingerprints the request once per subscribe, not once per event."""
    req = _req(steps=5, dims=(9, 10, 9), scheme="fi")
    sub = client.submit_ok(req)
    client.wait(sub["job_id"])
    flight = gateway.svc.flight
    for i in range(flight.capacity):
        flight.record("filler", 0.0, job=-1, fp=f"other-{i}")
    target = gateway._handle_of[sub["job_id"]].request
    calls = []
    original = SubmitRequest.fingerprint

    def counting(self):
        if self is target:
            calls.append(1)
        return original(self)

    monkeypatch.setattr(SubmitRequest, "fingerprint", counting)
    events = client.events(sub["job_id"], timeout=30)
    assert events[0]["event"] == "snapshot"
    assert len(calls) == 1


def test_session_serve_http_nonblocking():
    gw = Session().serve_http(block=False, port=0, workers=1, max_queue=4)
    try:
        probe = GatewayClient(gw.url, api_key="key-alpha")
        h = probe.healthz()
        assert h["gateway"]["workers"]["size"] == 1
        assert h["queue_capacity"] == 4
    finally:
        gw.stop()


def test_index_route_lists_surface(client):
    code, payload = client.request_json("GET", "/")
    assert code == 200
    assert "POST /v1/jobs" in payload["routes"]
    code, _ = client.request_json("PUT", "/v1/jobs/1")
    assert code == 405


class TestSubscriberBackpressure:
    """The bounded per-subscriber event buffer (no sockets needed —
    pushes happen on the loop thread, the buffer itself is plain
    Python)."""

    def _sub(self, limit=4):
        from repro.net.gateway import _Subscriber
        return _Subscriber(limit)

    def test_progress_events_coalesce_newest_wins(self):
        sub = self._sub()
        sub.push({"event": "state", "state": "RUNNING"})
        for step in range(5):
            sub.push({"event": "progress", "time_step": step})
        assert len(sub.items) == 2
        assert sub.items[-1] == {"event": "progress", "time_step": 4}
        assert sub.coalesced == 4
        assert sub.dropped == 0 and not sub.resync

    def test_state_transitions_do_not_coalesce(self):
        sub = self._sub(limit=8)
        sub.push({"event": "state", "state": "QUEUED"})
        sub.push({"event": "state", "state": "RUNNING"})
        sub.push({"event": "progress", "time_step": 1})
        sub.push({"event": "state", "state": "DONE", "final": True})
        assert [p["event"] for p in sub.items] == ["state", "state",
                                                   "progress", "state"]

    def test_overflow_drops_backlog_and_flags_resync(self):
        sub = self._sub(limit=3)
        for i in range(3):
            sub.push({"event": "state", "n": i})
        sub.push({"event": "state", "n": 3})     # overflow
        assert sub.resync is True
        assert sub.dropped == 3
        # only the newest payload survived the drop
        assert [p["n"] for p in sub.items] == [3]

    def test_get_reports_resync_exactly_once(self):
        import asyncio
        sub = self._sub(limit=2)
        for i in range(4):
            sub.push({"event": "state", "n": i})

        async def drain():
            first = await sub.get()
            sub.push({"event": "state", "n": 99})
            second = await sub.get()
            return first, second

        (owed1, p1), (owed2, p2) = asyncio.run(drain())
        # pushes 0,1 filled the buffer; push 2 dropped them (resync
        # owed); push 3 queued normally behind it
        assert owed1 is True and p1["n"] == 2
        assert owed2 is False and p2["n"] == 3

    def test_broadcast_counts_drops_in_metrics(self, gateway):
        sub = self._sub(limit=2)
        job_id = 10 ** 9  # never a real job
        gateway._subscribers[job_id] = {sub}
        try:
            for i in range(6):
                gateway._broadcast_one(job_id, {"event": "state", "n": i})
        finally:
            del gateway._subscribers[job_id]
        assert sub.dropped > 0
        from repro.obs import prometheus_text
        text = prometheus_text(gateway.svc.obs.metrics)
        assert "repro_gateway_ws_dropped_total" in text
