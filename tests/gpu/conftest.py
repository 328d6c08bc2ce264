"""Shared helpers of the runtime and shard tests."""

from repro.gpu.runtime import RunResult, leapfrog_cycle


def step_launches(gpu, host, inputs, sizes, steps, rotations) -> RunResult:
    """A launch-by-launch reference for ``execute_many``: ``steps``
    one-shot ``gpu.execute`` calls, with the buffer roles rotated on
    the host between them.

    After each call every transferred host parameter takes its device
    buffer (the launches' in-place writes included) and ``"__out__"``
    the call's result; each rotation name then takes the value of the
    next name in its cycle.  ``result`` is the newest level, and
    ``buffers`` holds each host parameter's final value under
    ``final:<name>``, like ``execute_many``'s."""
    newest = leapfrog_cycle(rotations)[-2]
    names = host.plan.host_buffers()
    state, events = dict(inputs), []
    for step in range(steps):
        res = gpu.execute(host, state, sizes, fault_step=step)
        events += res.events
        now = {n: res.buffers[b] for n, b in names.items()}
        now["__out__"] = res.result
        state.update((n, a) for n, a in now.items() if n in inputs)
        for cycle in rotations:
            for i, n in enumerate(cycle[:-1] if cycle[-1] == "__out__"
                                  else cycle):
                state[n] = now[cycle[(i + 1) % len(cycle)]]
    return RunResult(result=state[newest],
                     buffers={f"final:{n}": state[n] for n in names},
                     events=events)
