"""Direct loop transliterations of the paper's Listings 1–4.

These are the *oracle* implementations: slow pure-Python loops kept as
close to the paper's C as Python allows (same variable names, same update
order).  Tests compare every other implementation — vectorised NumPy,
LIFT interpreter, LIFT NumPy backend — against these on small rooms.

All kernels operate on flat arrays with ``idx = (z*Ny + y)*Nx + x``.
"""

from __future__ import annotations

import numpy as np


def fi_fused_step_scalar(prev, curr, nxt, Nx, Ny, Nz, lam, beta):
    """Paper Listing 1: fused stencil + FI boundary for a box room.

    ``nbr`` is computed on the fly from coordinates (box only).
    Writes into ``nxt`` (pre-allocated, full grid).
    """
    l = lam
    l2 = lam * lam
    for z in range(Nz):
        for y in range(Ny):
            for x in range(Nx):
                idx = z * Nx * Ny + (y * Nx + x)
                nbr = ((0 if x == 1 else 1) + (0 if y == 1 else 1)
                       + (0 if z == 1 else 1)
                       + (0 if x == Nx - 2 else 1)
                       + (0 if y == Ny - 2 else 1)
                       + (0 if z == Nz - 2 else 1))
                if (x == 0 or y == 0 or z == 0
                        or x == Nx - 1 or y == Ny - 1 or z == Nz - 1):
                    nbr = 0  # outside
                if nbr > 0:  # inside or at boundary
                    s = (curr[idx - 1] + curr[idx + 1]
                         + curr[idx - Nx] + curr[idx + Nx]
                         + curr[idx - Nx * Ny] + curr[idx + Nx * Ny])
                    if nbr < 6:  # at boundary
                        cf = 0.5 * l * (6 - nbr) * beta
                        nxt[idx] = ((2.0 - l2 * nbr) * curr[idx] + l2 * s
                                    + (cf - 1.0) * prev[idx]) / (1.0 + cf)
                    else:  # inside
                        nxt[idx] = ((2.0 - l2 * nbr) * curr[idx]
                                    + l2 * s - prev[idx])
    return nxt


def fi_fused_step_scalar_nbrs(prev, curr, nxt, nbrs, Nx, Ny, Nz, lam, beta):
    """Listing 1 with the §II-B lookup replacement ``nbr = nbrs[idx]``."""
    l = lam
    l2 = lam * lam
    for z in range(Nz):
        for y in range(Ny):
            for x in range(Nx):
                idx = z * Nx * Ny + (y * Nx + x)
                nbr = int(nbrs[idx])
                if nbr > 0:
                    s = (curr[idx - 1] + curr[idx + 1]
                         + curr[idx - Nx] + curr[idx + Nx]
                         + curr[idx - Nx * Ny] + curr[idx + Nx * Ny])
                    if nbr < 6:
                        cf = 0.5 * l * (6 - nbr) * beta
                        nxt[idx] = ((2.0 - l2 * nbr) * curr[idx] + l2 * s
                                    + (cf - 1.0) * prev[idx]) / (1.0 + cf)
                    else:
                        nxt[idx] = ((2.0 - l2 * nbr) * curr[idx]
                                    + l2 * s - prev[idx])
    return nxt


def volume_step_scalar(prev, curr, nxt, nbrs, Nx, Ny, Nz, lam):
    """Paper Listing 2 kernel 1: lossless update wherever nbr > 0."""
    l2 = lam * lam
    for z in range(Nz):
        for y in range(Ny):
            for x in range(Nx):
                idx = z * Nx * Ny + (y * Nx + x)
                nbr = int(nbrs[idx])
                if nbr > 0:
                    s = (curr[idx - 1] + curr[idx + 1]
                         + curr[idx - Nx] + curr[idx + Nx]
                         + curr[idx - Nx * Ny] + curr[idx + Nx * Ny])
                    nxt[idx] = ((2.0 - l2 * nbr) * curr[idx]
                                + l2 * s - prev[idx])
    return nxt


def fi_boundary_scalar(nxt, prev, boundary_indices, nbrs, lam, beta):
    """Paper Listing 2 kernel 2: single-material boundary absorption."""
    l = lam
    for i in range(len(boundary_indices)):
        idx = int(boundary_indices[i])
        nbr = int(nbrs[idx])
        cf = 0.5 * l * (6 - nbr) * beta
        nxt[idx] = (nxt[idx] + cf * prev[idx]) / (1.0 + cf)
    return nxt


def fi_mm_boundary_scalar(nxt, prev, boundary_indices, nbrs, material,
                          beta, lam):
    """Paper Listing 3: FI-MM boundary (per-material beta)."""
    l = lam
    for i in range(len(boundary_indices)):
        idx = int(boundary_indices[i])
        nbr = int(nbrs[idx])
        mi = int(material[i])
        cf = 0.5 * l * (6 - nbr) * beta[mi]
        nxt[idx] = (nxt[idx] + cf * prev[idx]) / (1.0 + cf)
    return nxt


def fd_mm_boundary_scalar(nxt, prev, boundary_indices, nbrs, material,
                          beta, BI, DI, F, D, g1, v1, v2, lam):
    """Paper Listing 4: FD-MM boundary with MB ODE branches.

    ``BI, DI, F, D`` are (M, MB) coefficient tables; ``g1, v1, v2`` are
    branch state arrays laid out ``ci = b*numBoundaryPoints + i`` exactly
    as in the paper.  ``v2`` holds the previous branch velocities, ``v1``
    receives the new ones (they may be one array: ``_v2`` is read first).
    """
    l = lam
    MB = BI.shape[1]
    nB = len(boundary_indices)
    _g1 = [0.0] * MB
    _v2 = [0.0] * MB
    for i in range(nB):
        idx = int(boundary_indices[i])
        nbr = int(nbrs[idx])
        mi = int(material[i])
        cf1 = l * (6 - nbr)
        cf = 0.5 * cf1 * beta[mi]
        _next = nxt[idx]
        _prev = prev[idx]
        for b in range(MB):  # for each ODE branch
            ci = b * nB + i
            _g1[b] = g1[ci]
            _v2[b] = v2[ci]
            _next -= cf1 * BI[mi][b] * (2.0 * D[mi][b] * _v2[b]
                                        - F[mi][b] * _g1[b])
        _next = (_next + cf * _prev) / (1.0 + cf)
        nxt[idx] = _next
        for b in range(MB):  # for each ODE branch
            ci = b * nB + i
            _v1 = BI[mi][b] * (_next - _prev + DI[mi][b] * _v2[b]
                               - 2.0 * F[mi][b] * _g1[b])
            g1[ci] = _g1[b] + 0.5 * (_v1 + _v2[b])
            v1[ci] = _v1
    return nxt


def fd_mm_boundary_implicit_scalar(nxt, prev, boundary_indices, nbrs,
                                   material, beta_inf, branch_mrk, g1, v1,
                                   v2, lam):
    """The *coupled implicit* FD boundary solve (no coefficient elimination).

    Solves, per boundary point, the linear system in (next, v1_b):

        (1 + cf_inf)·next + cf1·Σ (v1_b + v2_b)/2·... — via direct
        substitution of the branch equations — and must agree with
        :func:`fd_mm_boundary_scalar` to round-off.  Used as a property
        test that the paper's eliminated kernel algebra is the exact
        solution of the coupled discretisation (DESIGN.md §2).

    ``branch_mrk`` is a list per material of (m, r, k) tuples; ``beta_inf``
    the per-material instantaneous admittance (NOT pre-combined).
    """
    l = lam
    nB = len(boundary_indices)
    for i in range(nB):
        idx = int(boundary_indices[i])
        nbr = int(nbrs[idx])
        mi = int(material[i])
        cf1 = l * (6 - nbr)
        branches = branch_mrk[mi]
        MB = len(branches)
        _prev = prev[idx]
        next_free = nxt[idx]  # volume kernel already produced the free update
        # v1_b = BI (dp + DI v2_b - 2F g1_b), dp = next - prev   (branch rows)
        # next = next_free - cf1 [ beta_inf*dp/2 + sum (v1_b+v2_b)/2 ]
        # Substitute and solve the single linear equation for `next`.
        coef_next = 1.0 + cf1 * beta_inf[mi] / 2.0
        rhs = next_free + cf1 * beta_inf[mi] / 2.0 * _prev
        for b in range(MB):
            m, r, k = branches[b]
            A = m + r / 2.0 + k / 4.0
            BIb = 1.0 / A
            DIb = m - r / 2.0 - k / 4.0
            Fb = k / 2.0
            ci = b * nB + i
            coef_next += cf1 * BIb / 2.0
            rhs += cf1 * BIb / 2.0 * _prev
            rhs -= cf1 * (0.5 * (BIb * DIb + 1.0) * v2[ci]
                          - BIb * Fb * g1[ci])
        _next = rhs / coef_next
        nxt[idx] = _next
        for b in range(MB):
            m, r, k = branches[b]
            A = m + r / 2.0 + k / 4.0
            BIb = 1.0 / A
            DIb = m - r / 2.0 - k / 4.0
            Fb = k / 2.0
            ci = b * nB + i
            _v1 = BIb * (_next - _prev + DIb * v2[ci] - 2.0 * Fb * g1[ci])
            g1[ci] = g1[ci] + 0.5 * (_v1 + v2[ci])
            v1[ci] = _v1
    return nxt
