"""The service harnesses' one job mix, drive loop and recovery check,
and the kill-and-recover chaos soak.

Every service harness runs the requests of :func:`build_workload`: the
``python -m repro.serve`` smoke and the serving benchmark (one function,
:func:`repro.bench.serve.serve_benchmark`), the open-loop load
generator, the ``python -m repro.obs dashboard`` CLI, this soak and the
gateway SIGKILL drill (:mod:`repro.net.chaos`).  The in-process ones
submit, drain and collect results through :func:`_drive`; both chaos
scenarios end in :func:`_check_recovery`.

The soak runs the mix against a durable
:class:`~repro.serve.scheduler.SimulationService` while a seeded fault
plan repeatedly murders the "process": ``worker_crash`` at mid-job
checkpoint boundaries, ``journal_torn_write`` mid-append,
``store_corrupt`` and ``disk_full`` against the result store.  Every
death is followed by :meth:`SimulationService.recover` on the same
directory, the surviving workload is resubmitted (idempotent — the
fingerprint is the content address of the answer), and the loop
continues until a drain finishes without dying.

:func:`_check_recovery` asserts, for the soak and the drill alike:

1. **Completion** — every unique fingerprint of the workload is DONE.
2. **No wasted work** — every result that sat intact in the store when
   the process died is served from it by recovery and never executed
   again by a later incarnation.
3. **Bit-identity** (``--verify``) — every unique request's final
   payload equals an uninterrupted serial
   :meth:`repro.api.Session.simulate`, array for array.  Crashing,
   resuming from checkpoints, and store round-trips must not change a
   single bit.

The fault plan is a single object shared across incarnations, exactly
like a real machine: a step-triggered crash that already fired does not
refire when the recovered service replays past the same boundary.

Usage::

    python -m repro.serve chaos --kills 5 --seed 7 --verify \\
        --json chaos-report.json
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile

from ..gpu.faults import FaultPlan, FaultSpec
from .job import SubmitRequest, verify_against_serial
from .journal import DurabilityError, WorkerCrash
from .scheduler import SimulationService

#: the deterministic job mix (scheme, precision, priority, grid); row 5
#: repeats row 1 verbatim and row 6 differs from row 2 only in priority,
#: which the fingerprint excludes: two duplicates -> fingerprint dedup
#: and result-cache hits, and repeated (scheme, precision) pairs share
#: compiled programs -> compile-cache hits and batching
_MIX = (
    ("fi", "double", 0, (12, 10, 8)),
    ("fi_mm", "double", 5, (12, 10, 8)),
    ("fd_mm", "double", 2, (10, 10, 8)),
    ("fi_mm", "single", 9, (14, 10, 8)),
    ("fi", "single", 1, (12, 12, 8)),
    ("fi_mm", "double", 5, (12, 10, 8)),   # duplicate of row 1
    ("fd_mm", "double", 7, (10, 10, 8)),   # twin of row 2
    ("fi", "double", 4, (16, 10, 8)),
)


def build_workload(jobs: int, steps: int) -> list[SubmitRequest]:
    """The first ``jobs`` requests of the deterministic mix, cycled.

    Each further cycle widens the rooms by one cell along x (modulo 4),
    so a long workload blends fresh work with exact duplicates."""
    from ..acoustics import BoxRoom, Grid3D, Room
    out = []
    for i in range(jobs):
        scheme, precision, priority, (nx, ny, nz) = _MIX[i % len(_MIX)]
        nx += (i // len(_MIX)) % 4
        out.append(SubmitRequest(
            room=Room(Grid3D(nx, ny, nz), BoxRoom()), steps=steps,
            scheme=scheme, precision=precision, priority=priority,
            receivers={"mic": "center"}))
    return out


def chaos_plan(*, kills: int, steps: int, checkpoint_every: int,
               seed: int) -> FaultPlan:
    """The seeded kill schedule: exactly up to ``kills`` worker crashes
    at checkpoint boundaries, plus one torn journal append, one silent
    store corruption, and one ENOSPC, all deterministic in ``seed``."""
    boundaries = tuple(range(checkpoint_every, steps + 1, checkpoint_every))
    return FaultPlan([
        FaultSpec("worker_crash", steps=boundaries, max_count=kills),
        FaultSpec("journal_torn_write", rate=0.03, max_count=1),
        FaultSpec("store_corrupt", rate=0.05, max_count=1),
        FaultSpec("disk_full", rate=0.03, max_count=1),
    ], seed=seed)


def _verify(workload, results: dict) -> list[str]:
    """Mismatches against serial :meth:`repro.api.Session.simulate` of
    every unique request that has an entry in ``results`` (fingerprint
    → ``(field, receivers)``)."""
    errors: list[str] = []
    for fp, req in {r.fingerprint(): r for r in workload}.items():
        if fp in results:
            errors += verify_against_serial(req, *results[fp])
    return errors


def _drive(svc: SimulationService, workload, *,
           verify: bool = False) -> tuple[dict, list[str]]:
    """Submit ``workload`` to ``svc``, drain it, and collect the results.

    Returns ``(results, errors)``: ``results`` maps each DONE
    fingerprint to its ``(field, receivers)``; ``errors`` names the jobs
    left non-terminal or FAILED and, with ``verify``, every mismatch
    against a serial run.  A typed ENOSPC refusal (``DurabilityError``:
    nothing was admitted) is retried once.  Resubmission is idempotent:
    an answered fingerprint is a cache/store hit, a queued twin dedups
    at placement.  ``WorkerCrash`` propagates: the process died, and
    the caller recovers.
    """
    handles = []
    for req in workload:
        for _ in range(2):
            try:
                handles.append(svc.submit(req))
                break
            except DurabilityError:
                continue
    svc.drain()
    nonterminal = [h.job_id for h in handles if not h.done]
    failed = [h.job_id for h in handles if h.state == "FAILED"]
    errors = [f"non-terminal jobs: {nonterminal}"] if nonterminal else []
    errors += [f"failed jobs: {failed}"] if failed else []
    results = {h.request.fingerprint(): (h._result.field,
                                         h._result.receivers)
               for h in handles if h.state == "DONE"}
    if verify:
        errors += _verify(workload, results)
    return results, errors


def _check_recovery(errors: list[str], workload, results: dict, *,
                    stored, recovered: int, executed,
                    verify: bool) -> int:
    """The chaos scenarios' one final check; appends to ``errors``.

    ``results`` has a key for each DONE fingerprint (the value, its
    ``(field, receivers)``, is read only with ``verify``).  ``stored``
    holds the fingerprints whose result sat intact in the store when
    the process died, ``recovered`` counts the results recovery served
    from the store, and ``executed`` holds the fingerprints an
    incarnation executed after they were stored.  Every unique
    fingerprint must be DONE, recovery must serve every stored result,
    none may be executed again, and with ``verify`` every result must
    be bit-identical to a serial run.

    Returns the ``verified`` count: every unique fingerprint when
    ``verify`` is set and ``errors`` is empty, else 0.
    """
    unique = dict.fromkeys(r.fingerprint() for r in workload)
    errors += [f"job {fp[:12]} never reached DONE"
               for fp in unique if fp not in results]
    if recovered < len(stored):
        errors.append(f"recovery served {recovered} result(s) from the "
                      f"store; {len(stored)} sat intact in it at a kill")
    again = sorted(fp[:12] for fp in set(stored) & set(executed))
    if again:
        errors.append(f"re-executed store-resident jobs: {again}")
    if verify:
        errors += _verify(workload, results)
    return len(unique) if verify and not errors else 0


def run_chaos(*, jobs: int = 8, kills: int = 5, steps: int = 12,
              checkpoint_every: int = 3, pool="TitanBlack:2",
              seed: int = 7, durable_dir=None, verify: bool = False,
              trace_path=None, flight_path=None,
              dashboard_path=None) -> dict:
    """Run the kill-and-recover soak; returns the recovery report.

    The report's ``errors`` list is empty iff every assertion of
    :func:`_check_recovery` held, and ``verified`` is true iff it also
    ran with ``verify``.

    Observability artifacts (all optional): ``trace_path`` writes one
    Chrome trace with every incarnation's spans stitched end-to-end —
    a job in flight at a kill renders as a single per-job lane spanning
    both incarnations, because its trace id is derived from the
    fingerprint and therefore survives recovery.  ``flight_path``
    writes the flight-recorder black boxes, one per incarnation (each
    crash also dumps ``<durable_dir>/flight-recorder.json`` at the
    moment of death).  ``dashboard_path`` writes the final service's
    dashboard snapshot.
    """
    if durable_dir is None:
        durable_dir = tempfile.mkdtemp(prefix="repro-chaos-")
    workload = build_workload(jobs, steps)
    plan = chaos_plan(kills=kills, steps=steps,
                      checkpoint_every=checkpoint_every, seed=seed)
    make = dict(devices=pool, faults=plan, observability=True,
                checkpoint_every=checkpoint_every)

    svc = SimulationService(durable_dir=durable_dir, **make)
    errors: list[str] = []
    results: dict = {}
    incarnations: list[dict] = []
    tracers = []                 # one tracer per incarnation, in order
    black_boxes: list[dict] = []   # one flight snapshot per incarnation
    stored: set[str] = set()       # intact in the store at some death
    recovered: set[str] = set()    # served from the store by a recovery
    again: set[str] = set()        # executed after being stored
    crashes = 0
    # kill/recover loop: bounded by the plan's max_count, with slack so
    # a logic bug surfaces as an assertion, not an infinite loop
    for _ in range(kills + 5):
        try:
            results, drive_errors = _drive(svc, workload)
            errors += drive_errors
            break
        except WorkerCrash as death:
            crashes += 1
            svc.close()
            # checkpoint-boundary kills already recorded "crash" inside
            # _execute; torn journal appends die outside it, so note the
            # incarnation's end here and (re)dump the black box either way
            svc.flight.record("incarnation_end", svc.now_ms,
                              detail=str(death)[:200])
            svc.dump_blackbox(reason=str(death)[:200])
            black_boxes.append(svc.flight.snapshot(reason=str(death)[:200]))
            tracers.append(svc.obs.tracer)
            incarnations.append({"death": str(death),
                                 "stats": svc.stats()["durability"]})
            again |= stored & set(svc.executed_fingerprints)
            # a fingerprint whose every handle is DONE has a complete
            # record last in the journal, so recovery must serve it
            open_fps = {h.request.fingerprint() for h in svc._handles
                        if h.state != "DONE"}
            done = {h.request.fingerprint() for h in svc._handles} - open_fps
            svc = SimulationService.recover(durable_dir, **make)
            # recovery's read drops a corrupt entry: what is left is intact
            stored |= {fp for fp in done if fp in svc.store}
            recovered.update(svc.recovery["from_store"])
    else:
        errors.append(f"service still dying after {kills + 5} recoveries")
    again |= stored & set(svc.executed_fingerprints)
    tracers.append(svc.obs.tracer)
    black_boxes.append(svc.flight.snapshot(reason="final incarnation"))
    verified = _check_recovery(errors, workload, results, stored=stored,
                               recovered=len(recovered), executed=again,
                               verify=verify)

    artifacts: dict[str, str] = {}
    if trace_path is not None:
        from ..obs import write_stitched_trace
        write_stitched_trace(tracers, trace_path,
                             labels=list(range(len(tracers))))
        artifacts["trace"] = str(trace_path)
    if flight_path is not None:
        with open(flight_path, "w") as f:
            json.dump({"incarnations": black_boxes}, f, indent=1,
                      sort_keys=True)
        artifacts["flight"] = str(flight_path)
    if dashboard_path is not None:
        from ..obs import service_snapshot
        with open(dashboard_path, "w") as f:
            json.dump(service_snapshot(svc), f, indent=2, sort_keys=True)
        artifacts["dashboard"] = str(dashboard_path)
    report = {
        "durable_dir": durable_dir,
        "artifacts": artifacts,
        "jobs": jobs, "unique_jobs": len({r.fingerprint()
                                          for r in workload}),
        "kills_requested": kills, "crashes": crashes,
        "incarnations": len(incarnations) + 1,
        "deaths": [i["death"] for i in incarnations],
        "injected": sorted(plan.injected_kinds()),
        "final": svc.stats()["durability"],
        "verified": bool(verified),
        "errors": errors,
    }
    svc.close()
    return report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m repro.serve chaos",
        description="kill-and-recover chaos soak for the durable service")
    ap.add_argument("--jobs", type=int, default=8,
                    help="workload size (default 8)")
    ap.add_argument("--kills", type=int, default=5,
                    help="worker crashes to schedule (default 5)")
    ap.add_argument("--steps", type=int, default=12,
                    help="time steps per job (default 12)")
    ap.add_argument("--checkpoint-every", type=int, default=3,
                    help="mid-job checkpoint cadence (default 3)")
    ap.add_argument("--pool", default="TitanBlack:2",
                    help="device designation (default TitanBlack:2)")
    ap.add_argument("--seed", type=int, default=7,
                    help="fault-plan seed (default 7)")
    ap.add_argument("--dir", metavar="PATH",
                    help="durable directory (default: fresh tempdir)")
    ap.add_argument("--verify", action="store_true",
                    help="compare every survivor bit-identically against "
                         "serial Session.simulate")
    ap.add_argument("--json", metavar="PATH",
                    help="write the recovery report as JSON")
    ap.add_argument("--trace", metavar="PATH",
                    help="write one Chrome trace stitching every "
                         "incarnation's spans (per-job lanes span kills)")
    ap.add_argument("--flight", metavar="PATH",
                    help="write the flight-recorder black boxes, one "
                         "per incarnation")
    ap.add_argument("--dashboard", metavar="PATH",
                    help="write the final service's dashboard snapshot")
    args = ap.parse_args(argv)

    report = run_chaos(jobs=args.jobs, kills=args.kills, steps=args.steps,
                       checkpoint_every=args.checkpoint_every,
                       pool=args.pool, seed=args.seed,
                       durable_dir=args.dir, verify=args.verify,
                       trace_path=args.trace, flight_path=args.flight,
                       dashboard_path=args.dashboard)
    if args.json:
        with open(args.json, "w") as f:
            json.dump(report, f, indent=2, sort_keys=True)
    print(f"chaos: {report['unique_jobs']} unique jobs, "
          f"{report['crashes']} crash(es), "
          f"{report['incarnations']} incarnation(s), "
          f"injected={report['injected']}")
    final = report["final"]
    print(f"final: executions={final['executions']} "
          f"recovered={final['recovered']} "
          f"store={ {k: final['store'][k] for k in ('entries', 'hits', 'corrupt')} }")
    for kind, path in sorted(report["artifacts"].items()):
        print(f"wrote {kind}: {path}")
    for e in report["errors"]:
        print(f"ERROR: {e}", file=sys.stderr)
    if report["verified"]:
        print("verified: all survivors bit-identical to serial "
              "Session.simulate")
    return 1 if report["errors"] else 0


if __name__ == "__main__":
    sys.exit(main())
