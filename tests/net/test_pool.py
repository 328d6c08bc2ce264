"""The pool worker's job loop, driven in-process over plain queues.

``_worker_main`` is the entrypoint of every gateway worker process; here
it runs on the test's own thread (no spawn) over ``queue.Queue``s, so
its messages can be compared directly with the in-process service.  The
last two tests run a real pool in a child process: one SIGKILLs that
child mid-job, one lets it exit without stopping the pool.
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


#: a gateway stand-in: start a two-worker pool, put one worker on a
#: ``shards=2`` job long enough to be cut short (its shards step on
#: threads of that worker), report every process below this one once the
#: job runs, then wait to be killed
_POOL_OWNER = """
import os, sys, time
from repro.acoustics import BoxRoom, Grid3D, Room
from repro.net.pool import WorkerPool
from repro.serve import SubmitRequest, encode_request

def children(pid):
    # python processes only: a compiler a worker runs exits on its own
    out = []
    for d in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{d}/stat") as f:
                comm, rest = f.read().split(" (", 1)[1].rsplit(")", 1)
            if int(rest.split()[1]) == pid and comm.startswith("python"):
                out.append(int(d))
        except (OSError, ValueError):
            pass
    return out

def tree(pid):
    return [c for k in children(pid) for c in (k, *tree(k))]

pool = WorkerPool(2, devices="TitanBlack:2")
pool.start()
req = SubmitRequest(room=Room(Grid3D(16, 12, 12), BoxRoom()),
                    steps=10**7, shards=2)
pool.dispatch({"fingerprint": req.fingerprint(),
               "request": encode_request(req), "job_id": 1})
assert pool.poll_message(120.0)[0] == "started"
time.sleep(1.0)
print(" ".join(map(str, tree(os.getpid()))), flush=True)
sys.stdin.read()
"""


def _child_env() -> dict:
    """This environment, with this checkout's package importable."""
    src = os.path.dirname(os.path.dirname(repro.__file__))
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}


def _running(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            state = f.read().rsplit(")", 1)[1].split()[0]
    except (FileNotFoundError, ProcessLookupError):
        return False
    return state != "Z"


def _shm_names() -> set:
    """Shared-memory blocks and semaphores ``multiprocessing`` made."""
    return {n for n in os.listdir("/dev/shm")
            if n.startswith(("psm_", "sem.mp-"))}


@pytest.mark.skipif(not os.path.isdir("/proc") or not os.path.isdir(
    "/dev/shm"), reason="needs /proc and /dev/shm")
def test_workers_exit_when_their_parent_is_killed():
    """A SIGKILLed gateway never sends the shutdown sentinel.  Its idle
    worker and its busy worker, mid ``shards=2`` job, notice their dead
    parent and exit instead of living on as orphans, and the queues they
    shared do not outlive them.  The job's shards are threads of its
    worker: no process of their own."""
    shm_before = _shm_names()
    owner = subprocess.Popen([sys.executable, "-c", _POOL_OWNER],
                             env=_child_env(),
                             stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                             text=True)
    pids = []
    try:
        ready, _, _ = select.select([owner.stdout], [], [], 240.0)
        assert ready, "the pool owner never reported its processes"
        pids = [int(p) for p in owner.stdout.readline().split()]
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
    # two pool workers, the resource tracker
    assert len(pids) == 3, pids
    assert orphans == []
    assert _shm_names() - shm_before == set()


#: a careless owner: starts a pool, waits for one job, puts both workers
#: on jobs that would run for hours, then exits without stopping the pool
_CARELESS_OWNER = """
from repro.acoustics import BoxRoom, Grid3D, Room
from repro.net.pool import WorkerPool
from repro.serve import SubmitRequest, encode_request

def dispatch(steps, job_id):
    req = SubmitRequest(room=Room(Grid3D(8, 8, 8), BoxRoom()), steps=steps,
                        impulse=(4, 4, job_id))
    pool.dispatch({"fingerprint": req.fingerprint(),
                   "request": encode_request(req), "job_id": job_id})

pool = WorkerPool(2, devices="TitanBlack")
pool.start()
dispatch(1, 1)
assert [pool.poll_message(120.0)[0] for _ in range(2)] == ["started", "done"]
dispatch(10**8, 2)
dispatch(10**8, 3)
assert [pool.poll_message(120.0)[0] for _ in range(2)] == ["started"] * 2
print(" ".join(str(p.pid) for p in pool._procs), flush=True)
"""


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
def test_an_unstopped_pool_does_not_hold_up_interpreter_exit():
    """The workers are not daemonic, so ``multiprocessing`` joins them
    at exit; the pool's exit finalizer stops them first.  Busy workers
    get one 10 s grace period between them, not 10 s each."""
    owner = subprocess.Popen([sys.executable, "-c", _CARELESS_OWNER],
                             env=_child_env(), stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE, text=True)
    pids = []
    try:
        ready, _, _ = select.select([owner.stdout], [], [], 240.0)
        assert ready, "the pool owner never put its workers to work"
        pids = [int(p) for p in owner.stdout.readline().split()]
        t0 = time.monotonic()
        owner.wait(timeout=60)
        exit_s = time.monotonic() - t0
    finally:
        if owner.poll() is None:
            owner.kill()
            owner.wait()
        left = [p for p in pids if _running(p)]
        for p in left:                      # leave nothing behind
            os.kill(p, signal.SIGKILL)
        stderr = owner.stderr.read()
        owner.stdout.close()
        owner.stderr.close()
    assert owner.returncode == 0, stderr
    assert len(pids) == 2
    assert exit_s < 16.0, exit_s
    assert left == []
