"""run_job, the one path from a SubmitRequest to a JobResult, and
verify_against_serial, the one oracle that checks such a result."""

import numpy as np
import pytest

from repro.acoustics import BoxRoom, Grid3D, Room
from repro.acoustics.materials import Branch, FDMaterial
from repro.gpu import FaultPlan, FaultSpec
from repro.gpu.device import resolve_device
from repro.gpu.errors import ClError
from repro.serve import JobResult, SimulationService, SubmitRequest
from repro.serve.job import run_job, verify_against_serial

ONE = resolve_device("TitanBlack")


def _request(**kw):
    kw.setdefault("room", Room(Grid3D(10, 8, 8), BoxRoom()))
    kw.setdefault("steps", 4)
    kw.setdefault("receivers", {"mic": "center"})
    return SubmitRequest(**kw)


def _abort_at_step_2():
    return FaultPlan([FaultSpec("launch_abort", steps=(2,))], seed=3)


@pytest.fixture(scope="module")
def unbroken():
    result, error = run_job(_request(), ONE)
    assert error == "" and isinstance(result, JobResult)
    return result


def test_plain_run_fills_the_result(unbroken):
    assert unbroken.time_step == 4 and unbroken.attempts == 1
    assert unbroken.devices == ("TitanBlack",)
    assert unbroken.policy_log == ()
    assert unbroken.receivers["mic"].shape == (4,)
    # the clock belongs to the caller
    assert (unbroken.submit_ms, unbroken.start_ms, unbroken.end_ms) == (
        0.0, 0.0, 0.0)


def test_failed_attempt_escalates_to_resilient_retry(unbroken):
    # the service's default first attempt is not resilient: the injected
    # abort surfaces as a typed error, the second attempt runs under the
    # resilient executor and recovers what is left of the fault
    failures = []
    result, error = run_job(
        _request(), ONE, faults=_abort_at_step_2(), attempts=2,
        on_failure=lambda attempt, exc: failures.append((attempt, exc)))
    assert error == ""
    assert result.attempts == 2
    assert result.policy_log
    assert [a for a, _ in failures] == [1]
    assert isinstance(failures[0][1], ClError)
    assert np.array_equal(result.field, unbroken.field)
    assert np.array_equal(result.receivers["mic"], unbroken.receivers["mic"])


def test_exhausted_budget_reports_the_last_attempt():
    result, error = run_job(_request(), ONE, faults=_abort_at_step_2(),
                            attempts=1)
    assert result is None
    assert error.startswith("attempt 1: ")
    assert "injected fault" in error


def test_resume_from_mid_run_checkpoint_equals_unbroken_run(unbroken):
    saved = {}

    def keep(cp):
        saved.setdefault(cp.time_step, cp)

    run_job(_request(), ONE, checkpoint_every=2, on_checkpoint=keep)
    assert sorted(saved) == [2, 4]
    result, error = run_job(_request(), ONE, resume=saved[2])
    assert error == "" and result.time_step == 4
    assert np.array_equal(result.field, unbroken.field)
    assert np.array_equal(result.receivers["mic"], unbroken.receivers["mic"])


def test_two_device_lease_matches_one_device(unbroken):
    result, error = run_job(_request(), resolve_device("TitanBlack:2"))
    assert error == ""
    assert result.devices == ("TitanBlack#0", "TitanBlack#1")
    assert result.halo_time_ms > 0
    assert np.array_equal(result.field, unbroken.field)
    assert np.array_equal(result.receivers["mic"], unbroken.receivers["mic"])


# -- the serial oracle ----------------------------------------------------------

def _two_branch_fd_request():
    """Every computing field away from its default: an off-centre
    impulse, two materials of at most two branches, two receivers."""
    dt = 1.0 / 44100.0
    materials = (
        FDMaterial("panel", 0.1, (Branch(m=1.0, r=0.5, k=2e4),)),
        FDMaterial("foam", 0.2, (Branch.from_resonance(250.0, 1.0, 0.3, dt),
                                 Branch.from_resonance(1500.0, 1.2, 0.2,
                                                       dt))))
    return SubmitRequest(
        room=Room(Grid3D(10, 10, 8), BoxRoom()), steps=5, scheme="fd_mm",
        impulse=(3, 3, 3), num_branches=2, materials=materials,
        receivers={"mic": "center", "far": (6, 6, 4)})


@pytest.fixture(scope="module")
def served_fd():
    req = _two_branch_fd_request()
    return req, SimulationService(devices="TitanBlack").submit(req).result()


def test_oracle_passes_every_computing_field(served_fd):
    req, result = served_fd
    assert verify_against_serial(req, result.field, result.receivers) == []


def test_oracle_reports_one_flipped_ulp_in_the_field(served_fd):
    req, result = served_fd
    field = result.field.copy()
    i = int(np.argmax(np.abs(field)))
    field[i] = np.nextafter(field[i], np.inf)
    errors = verify_against_serial(req, field, result.receivers)
    assert len(errors) == 1 and "field differs" in errors[0]


def test_oracle_reports_a_flipped_or_missing_receiver(served_fd):
    req, result = served_fd
    far = result.receivers["far"].copy()
    far[-1] = np.nextafter(far[-1], -np.inf)
    errors = verify_against_serial(req, result.field,
                                   {**result.receivers, "far": far})
    assert len(errors) == 1 and "receiver 'far' differs" in errors[0]
    errors = verify_against_serial(req, result.field,
                                   {"mic": result.receivers["mic"]})
    assert len(errors) == 1 and "receiver 'far' differs" in errors[0]
