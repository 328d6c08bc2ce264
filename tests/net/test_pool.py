"""The pool worker's job loop, driven in-process over plain queues.

``_worker_main`` is the entrypoint of every gateway worker process; here
it runs on the test's own thread (no spawn) over ``queue.Queue``s, so
its messages can be compared directly with the in-process service.  The
last test spawns a real pool in a child process and SIGKILLs that child.
"""

import dataclasses
import os
import queue
import select
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

import repro
from repro.acoustics import BoxRoom, Grid3D, Room
from repro.gpu.device import resolve_device
from repro.net.pool import _worker_main
from repro.serve import (JobResult, SimulationService, SubmitRequest,
                         encode_request)
from repro.serve.job import run_job

CFG = {"devices": "TitanBlack", "job_attempts": 2}
CLOCK = {"submit_ms", "start_ms", "end_ms"}


def _request(**kw):
    kw.setdefault("room", Room(Grid3D(10, 8, 8), BoxRoom()))
    kw.setdefault("steps", 4)
    kw.setdefault("receivers", {"mic": "center"})
    return SubmitRequest(**kw)


def _task(req, **kw):
    return {"fingerprint": req.fingerprint(), "request": encode_request(req),
            "job_id": 1, **kw}


def _serve(*tasks):
    """Feed ``tasks`` then the shutdown sentinel to one worker running
    on this thread; returns every message it posted, in order."""
    task_q, result_q = queue.Queue(), queue.Queue()
    for task in tasks:
        task_q.put(task)
    task_q.put(None)
    _worker_main(0, CFG, task_q, result_q)
    out = []
    while not result_q.empty():
        out.append(result_q.get_nowait())
    return out


def _assert_same_result(got: JobResult, want: JobResult) -> None:
    """Field-for-field equality, arrays bit for bit, clock stamps aside."""
    for f in dataclasses.fields(JobResult):
        if f.name in CLOCK:
            continue
        a, b = getattr(got, f.name), getattr(want, f.name)
        if f.name == "field":
            assert np.array_equal(a, b)
        elif f.name == "receivers":
            assert a.keys() == b.keys()
            assert all(np.array_equal(a[k], b[k]) for k in a)
        else:
            assert a == b, f.name


@pytest.mark.parametrize("req", [
    _request(),
    _request(scheme="fd_mm", precision="single", impulse=(3, 3, 3),
             receivers={"mic": "center", "corner": (2, 2, 2)}),
], ids=["fi_mm", "fd_mm-single"])
def test_job_posts_started_then_the_services_result(req):
    fp = req.fingerprint()
    messages = _serve(_task(req))
    assert [m[0] for m in messages] == ["started", "done"]
    assert messages[0] == ("started", fp, 0)
    _, done_fp, result, worker = messages[1]
    assert (done_fp, worker) == (fp, 0)
    assert isinstance(result, JobResult)
    want = SimulationService(devices="TitanBlack").submit(req).result()
    _assert_same_result(result, want)


def test_resume_path_resumes_to_the_same_bits(tmp_path):
    req = _request(steps=6)
    path = str(tmp_path / "cp.npz")

    def save_mid_run(cp):
        if cp.time_step == 3:
            cp.save(path)

    unbroken, error = run_job(req, resolve_device("TitanBlack"),
                              checkpoint_every=3, on_checkpoint=save_mid_run)
    assert error == ""
    messages = _serve(_task(req, resume_path=path))
    assert [m[0] for m in messages] == ["started", "done"]
    resumed = messages[-1][2]
    assert resumed.time_step == 6
    assert np.array_equal(resumed.field, unbroken.field)
    assert np.array_equal(resumed.receivers["mic"], unbroken.receivers["mic"])


def test_checkpoint_every_posts_one_progress_per_boundary(tmp_path):
    req = _request(steps=6)
    fp = req.fingerprint()
    path = tmp_path / "cp.npz"
    messages = _serve(_task(req, checkpoint_every=2,
                            checkpoint_path=str(path)))
    assert [m[0] for m in messages] == [
        "started", "progress", "progress", "progress", "done"]
    assert [m[1:] for m in messages[1:4]] == [
        (fp, 2, 6, 0), (fp, 4, 6, 0), (fp, 6, 6, 0)]
    assert path.exists()                   # the last boundary's snapshot


def test_undecodable_request_fails_and_the_worker_keeps_serving():
    good = _request()
    messages = _serve({"fingerprint": "bad", "request": {"room": "?"},
                       "job_id": 1}, _task(good))
    assert [m[0] for m in messages] == ["failed", "started", "done"]
    _, fp, error, worker = messages[0]
    assert (fp, worker) == ("bad", 0)
    assert "Error" in error
    assert messages[2][1] == good.fingerprint()


#: a gateway stand-in: start a two-worker pool, report the worker PIDs,
#: then wait to be killed
_POOL_OWNER = """
import sys
from repro.net.pool import WorkerPool
pool = WorkerPool(2, devices="TitanBlack")
pool.start()
print(" ".join(str(p.pid) for p in pool._procs), flush=True)
sys.stdin.read()
"""


def _running(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            state = f.read().rsplit(")", 1)[1].split()[0]
    except (FileNotFoundError, ProcessLookupError):
        return False
    return state != "Z"


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
def test_workers_exit_when_their_parent_is_killed():
    """A SIGKILLed gateway never sends the shutdown sentinel; its workers
    notice the dead parent and exit instead of living on as orphans."""
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(
               filter(None, (src, os.environ.get("PYTHONPATH"))))}
    owner = subprocess.Popen([sys.executable, "-c", _POOL_OWNER], env=env,
                             stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                             text=True)
    pids = []
    try:
        ready, _, _ = select.select([owner.stdout], [], [], 60.0)
        assert ready, "the pool owner never reported its workers"
        pids = [int(p) for p in owner.stdout.readline().split()]
        assert len(pids) == 2
    finally:
        owner.kill()
        owner.wait()
        owner.stdin.close()
        owner.stdout.close()
    deadline = time.monotonic() + 10.0
    while any(map(_running, pids)) and time.monotonic() < deadline:
        time.sleep(0.1)
    orphans = [p for p in pids if _running(p)]
    for p in orphans:                       # leave nothing behind
        os.kill(p, signal.SIGKILL)
    assert orphans == []
