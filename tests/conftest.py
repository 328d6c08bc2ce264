"""Fixtures every test takes."""

import pytest

from repro.lift.codegen import loops


@pytest.fixture(autouse=True)
def _own_plan_steps(monkeypatch):
    """Each test starts with no step :func:`loops.plan_step` remembers,
    and what it builds (under a patched tier, or with workspaces it
    inspects) does not outlive it: steps are shared process-wide."""
    monkeypatch.setattr(loops, "_PLAN_STEPS", {})
