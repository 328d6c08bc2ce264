"""Acoustic analysis utilities: impulse responses, energy decay, RT60.

These support the examples (auralisation-style workflows, paper §I) and
give the test-suite physically meaningful invariants: Schroeder decay
curves must be monotone, rigid rooms must conserve energy to round-off,
and more absorptive materials must decay faster.
"""

from __future__ import annotations

import numpy as np


def energy_decay_curve(signal: np.ndarray) -> np.ndarray:
    """Schroeder backward-integrated energy decay, normalised to 1 at t=0."""
    sig = np.asarray(signal, dtype=np.float64)
    e = sig ** 2
    edc = np.cumsum(e[::-1])[::-1]
    total = edc[0]
    if total <= 0:
        return np.zeros_like(edc)
    return edc / total


def energy_decay_db(signal: np.ndarray, floor_db: float = -120.0) -> np.ndarray:
    """Schroeder decay in dB (clipped at ``floor_db``)."""
    edc = energy_decay_curve(signal)
    with np.errstate(divide="ignore"):
        db = 10.0 * np.log10(np.maximum(edc, 10 ** (floor_db / 10.0)))
    return db


def rt60_from_decay(signal: np.ndarray, dt: float,
                    fit_range_db: tuple[float, float] = (-5.0, -25.0)
                    ) -> float:
    """Reverberation time RT60 [s] via a linear fit of the Schroeder decay.

    Fits the decay between ``fit_range_db`` (default the T20 convention:
    −5 dB to −25 dB, extrapolated to −60 dB).  Returns ``inf`` when the
    signal never decays into the fit range.
    """
    db = energy_decay_db(signal)
    hi, lo = fit_range_db
    idx = np.where((db <= hi) & (db >= lo))[0]
    if idx.size < 2:
        return float("inf")
    t = idx.astype(np.float64) * dt
    slope, intercept = np.polyfit(t, db[idx], 1)
    if slope >= 0:
        return float("inf")
    return float(-60.0 / slope)


def impulse_response(sim, source="center", receiver=None, steps: int = 200
                     ) -> np.ndarray:
    """Run a simulation from an impulse and return the receiver signal.

    ``sim`` is a fresh :class:`~repro.acoustics.sim.RoomSimulation`;
    ``receiver`` defaults to a point offset from the source.
    """
    sim.add_impulse(source)
    if receiver is None:
        g = sim.grid
        receiver = (g.nx // 2 + max(1, g.nx // 8), g.ny // 2, g.nz // 2)
    sim.add_receiver("ir", receiver)
    sim.run(steps)
    return sim.receiver_signal("ir")


def total_field_energy(sim) -> float:
    """Leapfrog-consistent field energy proxy: Σ (curr² + prev²) / 2."""
    n = sim._N
    c = sim.curr[:n].astype(np.float64)
    p = sim.prev[:n].astype(np.float64)
    return float(0.5 * (np.sum(c * c) + np.sum(p * p)))


def dc_mode_amplitude(sim) -> float:
    """Mean field value over inside points (the DC mode, for drift checks)."""
    n = sim._N
    inside = sim.topology.room.inside_mask().reshape(-1)
    return float(sim.curr[:n][inside].mean())
