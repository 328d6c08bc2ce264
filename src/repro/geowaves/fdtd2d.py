"""2-D TEz Yee FDTD electromagnetics: the §VIII GPR substrate.

Scheme (normalised units, Courant number S = c·dt/h ≤ 1/√2):

    Hx[i]  -= S · (Ez[i+Nx] − Ez[i])               (∂Ez/∂y)
    Hy[i]  += S · (Ez[i+1]  − Ez[i])               (∂Ez/∂x)
    Ez[i]   = damp[i] · (Ez[i] + (S/εᵣ[i]) · ((Hy[i] − Hy[i−1])
                                             − (Hx[i] − Hx[i−Nx])))

* ``εᵣ`` is a per-cell relative permittivity map (heterogeneous media —
  the GPR subsurface);
* ``damp`` is a graded absorbing sponge towards the domain edges (a
  simple stand-in for the PML boundary the paper names; it damps
  outgoing waves so the domain behaves open);
* all three fields are updated **in place** every step — the multi-array
  volume update the paper's §VIII motivates.

Layout: flat arrays, ``idx = y·Nx + x``, one guard row of zeros appended
(the same guard-page convention as the acoustics kernels) so edge gathers
read deterministic zeros; edge cells are masked out of the update anyway.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def courant_limit_2d() -> float:
    return 1.0 / math.sqrt(2.0)


# --- NumPy reference kernels (the hand-written baseline) ---------------------------


def h_update(ez, hx, hy, mask, S, nx):
    """In-place magnetic-field half-step (two arrays updated)."""
    n = mask.size
    i = np.arange(n)
    dez_dy = ez[i + nx] - ez[i]
    dez_dx = ez[i + 1] - ez[i]
    hx[:n] = np.where(mask, hx[:n] - S * dez_dy, hx[:n])
    hy[:n] = np.where(mask, hy[:n] + S * dez_dx, hy[:n])
    return hx, hy


def e_update(ez, hx, hy, cez, damp, mask, nx):
    """In-place electric-field half-step (one array updated)."""
    n = mask.size
    i = np.arange(n)
    curl = (hy[i] - hy[i - 1]) - (hx[i] - hx[i - nx])
    new = damp * (ez[:n] + cez * curl)
    ez[:n] = np.where(mask, new, ez[:n])
    return ez


# --- scalar oracle ---------------------------------------------------------------------


def h_update_scalar(ez, hx, hy, mask, S, nx):
    for i in range(mask.size):
        if mask[i]:
            hx[i] = hx[i] - S * (ez[i + nx] - ez[i])
            hy[i] = hy[i] + S * (ez[i + 1] - ez[i])
    return hx, hy


def e_update_scalar(ez, hx, hy, cez, damp, mask, nx):
    for i in range(mask.size):
        if mask[i]:
            curl = (hy[i] - hy[i - 1]) - (hx[i] - hx[i - nx])
            ez[i] = damp[i] * (ez[i] + cez[i] * curl)
    return ez


# --- configuration ---------------------------------------------------------------------


def permittivity_half_space(nx: int, ny: int, depth_fraction: float = 0.5,
                            eps_upper: float = 1.0,
                            eps_lower: float = 6.0) -> np.ndarray:
    """A GPR scenario: air over a dielectric half-space (flat interface)."""
    eps = np.full((ny, nx), eps_upper)
    eps[int(ny * depth_fraction):, :] = eps_lower
    return eps


def sponge_profile(nx: int, ny: int, width: int = 8,
                   strength: float = 0.06) -> np.ndarray:
    """Graded damping multiplier: 1 inside, < 1 within ``width`` of edges."""
    def ramp(n):
        d = np.minimum(np.arange(n), np.arange(n)[::-1])
        return np.where(d < width, 1.0 - strength *
                        ((width - d) / width) ** 2, 1.0)
    return np.outer(ramp(ny), ramp(nx))


@dataclass
class GprConfig:
    """Configuration of a 2-D GPR simulation."""

    nx: int = 96
    ny: int = 80
    courant: float = 0.5
    eps_r: np.ndarray | None = None     # (ny, nx) relative permittivity
    sponge_width: int = 8
    backend: str = "numpy"              # "numpy" | "scalar" | "lift"

    def __post_init__(self):
        if not (0 < self.courant <= courant_limit_2d() + 1e-12):
            raise ValueError("Courant number violates the 2-D limit 1/sqrt(2)")
        if self.backend not in ("numpy", "scalar", "lift"):
            raise ValueError(f"unknown backend {self.backend!r}")


class GPRSimulation:
    """Driver for the 2-D TEz solver with pluggable backends."""

    def __init__(self, config: GprConfig):
        self.config = config
        nx, ny = config.nx, config.ny
        self.nx, self.ny = nx, ny
        n = nx * ny
        self.n = n
        guard = nx  # one guard row for ±nx / ±1 gathers
        self.ez = np.zeros(n + guard)
        self.hx = np.zeros(n + guard)
        self.hy = np.zeros(n + guard)
        eps = (config.eps_r if config.eps_r is not None
               else np.ones((ny, nx)))
        if eps.shape != (ny, nx):
            raise ValueError(f"eps_r must have shape {(ny, nx)}")
        if (eps <= 0).any():
            raise ValueError("relative permittivity must be positive")
        S = config.courant
        self.S = S
        self.cez = (S / eps).reshape(-1)
        self.damp = sponge_profile(nx, ny, config.sponge_width).reshape(-1)
        y, x = np.divmod(np.arange(n), nx)
        self.mask = ((x >= 1) & (x <= nx - 2) & (y >= 1)
                     & (y <= ny - 2)).astype(np.int32)
        self.time_step = 0
        self.receivers: dict[str, tuple[int, list[float]]] = {}
        if config.backend == "lift":
            self._compile_lift()

    def _compile_lift(self):
        from ..lift.codegen.arena import Workspace
        from ..lift.codegen.numpy_backend import compile_numpy
        from .lift_programs import e_update_program, h_update_program
        self._k_h = compile_numpy(h_update_program().kernel, "gpr_h_update")
        self._k_e = compile_numpy(e_update_program().kernel, "gpr_e_update")
        self._ws_h = Workspace("gpr:h_update")
        self._ws_e = Workspace("gpr:e_update")

    # -- sources / receivers -----------------------------------------------------------
    def point_index(self, x: int, y: int) -> int:
        if not (0 <= x < self.nx and 0 <= y < self.ny):
            raise ValueError(f"point ({x}, {y}) outside the domain")
        return y * self.nx + x

    def add_source(self, x: int, y: int, amplitude: float = 1.0) -> int:
        idx = self.point_index(x, y)
        self.ez[idx] += amplitude
        return idx

    def add_receiver(self, name: str, x: int, y: int) -> None:
        self.receivers[name] = (self.point_index(x, y), [])

    def receiver_signal(self, name: str) -> np.ndarray:
        return np.asarray(self.receivers[name][1])

    # -- stepping ------------------------------------------------------------------------
    def step(self) -> None:
        b = self.config.backend
        if b == "numpy":
            h_update(self.ez, self.hx, self.hy, self.mask.astype(bool),
                     self.S, self.nx)
            e_update(self.ez, self.hx, self.hy, self.cez, self.damp,
                     self.mask.astype(bool), self.nx)
        elif b == "scalar":
            h_update_scalar(self.ez, self.hx, self.hy, self.mask, self.S,
                            self.nx)
            e_update_scalar(self.ez, self.hx, self.hy, self.cez, self.damp,
                            self.mask, self.nx)
        else:
            n, nx = self.n, self.nx
            self._k_h.fn(self.ez, self.hx, self.hy, self.mask, self.S, nx,
                         N=n, NP=n + nx, _ws=self._ws_h)
            self._k_e.fn(self.ez, self.hx, self.hy, self.cez, self.damp,
                         self.mask, nx, N=n, NP=n + nx, _ws=self._ws_e)
        self.time_step += 1
        for name, (idx, sig) in self.receivers.items():
            sig.append(float(self.ez[idx]))

    def run(self, steps: int) -> None:
        for _ in range(steps):
            self.step()

    # -- diagnostics ----------------------------------------------------------------------
    def field_energy(self) -> float:
        n = self.n
        return float(np.sum(self.ez[:n] ** 2) + np.sum(self.hx[:n] ** 2)
                     + np.sum(self.hy[:n] ** 2))

    def ez_snapshot(self) -> np.ndarray:
        return self.ez[:self.n].reshape(self.ny, self.nx).copy()
