"""Vectorised NumPy room-acoustics kernels — the "hand-written, tuned"
baseline of the evaluation.

These play the role of the paper's hand-optimised OpenCL/CUDA codes
([10], [11]): the algorithms of Listings 1–4 written directly against the
backend (NumPy here), using in-place operations and views per the
HPC-Python guides.  The LIFT-generated kernels are validated against these
(and both against the scalar oracles).

All functions operate on flat arrays (``idx = (z*Ny + y)*Nx + x``) and
write in place where the paper's kernels do.  ``nbrs`` may be any integer
width: each kernel converts the counts it uses to the field's dtype
first, as the paper's kernels do with ``(float)nbr``, so the arithmetic
does not depend on how NumPy would promote the storage type.
"""

from __future__ import annotations

import numpy as np


def _neighbour_sum(curr: np.ndarray, shape: tuple[int, int, int]) -> np.ndarray:
    """Σ of the six face neighbours over the full grid (halo contributes 0).

    Returns a full-grid flat array; the halo rows of the result are
    garbage-free because the halo itself is never updated or read as a
    centre point.
    """
    nz, ny, nx = shape
    c = curr.reshape(nz, ny, nx)
    s = np.zeros_like(c)
    s[:, :, 1:-1] = c[:, :, :-2] + c[:, :, 2:]
    s[:, 1:-1, :] += c[:, :-2, :] + c[:, 2:, :]
    s[1:-1, :, :] += c[:-2, :, :] + c[2:, :, :]
    return s.reshape(-1)


def fi_fused_step(prev, curr, nxt, nbrs, shape, lam, beta):
    """Listing 1 (with nbrs lookup): fused stencil + FI boundary.

    Vectorised over the whole grid; points with nbr == 0 are written 0
    (they stay 0 forever, equivalent to never being updated).
    """
    l2 = lam * lam
    s = _neighbour_sum(curr, shape)
    nbr = nbrs.astype(curr.dtype)
    free = (2.0 - l2 * nbr) * curr + l2 * s - prev
    cf = 0.5 * lam * (6 - nbr) * beta
    lossy = ((2.0 - l2 * nbr) * curr + l2 * s + (cf - 1.0) * prev) / (1.0 + cf)
    np.copyto(nxt, np.where(nbr >= 6, free, np.where(nbr > 0, lossy, 0.0)))
    return nxt


def volume_step(prev, curr, nxt, nbrs, shape, lam):
    """Listing 2 kernel 1: lossless update wherever nbr > 0, else 0."""
    l2 = lam * lam
    s = _neighbour_sum(curr, shape)
    nbr = nbrs.astype(curr.dtype)
    free = (2.0 - l2 * nbr) * curr + l2 * s - prev
    np.copyto(nxt, np.where(nbr > 0, free, 0.0))
    return nxt


def fi_boundary(nxt, prev, boundary_indices, nbrs, lam, beta):
    """Listing 2 kernel 2: in-place single-material boundary absorption."""
    idx = boundary_indices
    nbr = nbrs[idx].astype(nxt.dtype)
    cf = 0.5 * lam * (6 - nbr) * beta
    nxt[idx] = (nxt[idx] + cf * prev[idx]) / (1.0 + cf)
    return nxt


def fi_mm_boundary(nxt, prev, boundary_indices, nbrs, material, beta, lam):
    """Listing 3: in-place FI-MM boundary (per-material beta)."""
    idx = boundary_indices
    nbr = nbrs[idx].astype(nxt.dtype)
    cf = 0.5 * lam * (6 - nbr) * beta[material]
    nxt[idx] = (nxt[idx] + cf * prev[idx]) / (1.0 + cf)
    return nxt


def fd_mm_boundary(nxt, prev, boundary_indices, nbrs, material,
                   beta, BI, DI, F, D, g1, v1, v2, lam):
    """Listing 4: in-place FD-MM boundary with MB ODE branches.

    Branch state is laid out ``ci = b*numBoundaryPoints + i`` (the paper's
    layout), i.e. ``g1.reshape(MB, nB)``.
    """
    idx = boundary_indices
    nB = idx.size
    MB = BI.shape[1]
    nbr = nbrs[idx]
    mi = material
    cf1 = lam * (6 - nbr).astype(nxt.dtype)
    cf = 0.5 * cf1 * beta[mi]
    _next = nxt[idx].copy()
    _prev = prev[idx]
    g = g1.reshape(MB, nB)
    vp = v2.reshape(MB, nB)
    vn = v1.reshape(MB, nB)
    BIb = BI[mi]   # (nB, MB) gathers
    DIb = DI[mi]
    Fb = F[mi]
    Db = D[mi]
    for b in range(MB):
        _next -= cf1 * BIb[:, b] * (2.0 * Db[:, b] * vp[b] - Fb[:, b] * g[b])
    _next = (_next + cf * _prev) / (1.0 + cf)
    nxt[idx] = _next
    for b in range(MB):
        _v1 = BIb[:, b] * (_next - _prev + DIb[:, b] * vp[b]
                           - 2.0 * Fb[:, b] * g[b])
        g[b] += 0.5 * (_v1 + vp[b])
        vn[b] = _v1
    return nxt
