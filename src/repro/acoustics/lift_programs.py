"""The room-acoustics kernels expressed in the extended LIFT IR.

This module is the reproduction of the paper's Section V: each builder
returns a :class:`~repro.lift.ast.Lambda` (plus metadata) that the LIFT
code generators can lower to OpenCL C text, to executable NumPy, or run
through the reference interpreter.

Programs
--------
* :func:`fi_fused_3d` — paper Listing 6: the stencil *pattern* formulation
  (``Map3D ∘ Zip3D ∘ Slide3D``) of the fused FI simulation, the halo grid
  itself acting as ``pad``.
* :func:`fi_fused_flat` / :func:`volume_kernel` — the flat gather
  formulation matching the generated code of Listings 1–2 (one work-item
  per grid point, neighbour gathers at ``idx ± 1, ±Nx, ±Nx·Ny``).
* :func:`fi_mm_boundary` — paper Listing 7: in-place multi-material
  boundary handling via ``WriteTo``/``Concat``/``Skip``/``ArrayCons``.
* :func:`fd_mm_boundary` — paper Listing 8: frequency-dependent boundary
  handling with per-branch state, multiple in-place array updates returned
  as a tuple of ``WriteTo``.
* :func:`two_kernel_host` — paper Listing 5: the host orchestration
  (``ToGPU`` → volume kernel → in-place boundary kernel → ``ToHost``);
  :func:`compiled_host` picks and compiles a scheme's host program, and
  :func:`host_inputs` binds its parameters (:data:`LEAPFROG` rotates
  its levels; both live in the LIFT-free :mod:`.host_io` and are
  re-exported here).

Guard-page convention: flat kernels gather ``curr[idx ± Nx·Ny]`` for every
point and mask the result by ``nbr > 0`` (exactly the paper's Listing 2
structure, where the halo guarantees neighbours exist for all updated
points).  The driver allocates state arrays with one extra z-plane of
zeros at the end so out-of-range gathers at halo points (whose results are
masked anyway) read deterministic zeros in every backend — the same trick
production FDTD codes use.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..lift.arith import Var
from ..lift.ast import BinOp, Expr, FunCall, Lambda, Param, Select, lit
from ..lift.patterns import (ArrayAccess, ArrayAccess3, ArrayCons, Concat,
                             Get, Id, Iota, Map, Map3D, OclKernel, Reduce,
                             Skip, Slide3D, ToGPU, ToHost, TupleCons, WriteTo,
                             Zip, Zip3D)
from ..lift.types import (ArrayType, Int, ScalarType, TupleType, array,
                          float_type)
# Listing 5's host interface needs no LIFT; re-exported for its callers
from .host_io import LEAPFROG, host_inputs, host_sizes  # noqa: F401


def _T(dtype) -> ScalarType:
    if isinstance(dtype, ScalarType):
        return dtype
    return float_type(str(dtype))


def let(bindings: list[tuple[Param, Expr]], body: Expr) -> FunCall:
    """``val x = e`` chains: apply a lambda binding all names at once.

    Ensures each bound expression is evaluated exactly once in every
    backend (the paper's ``val`` lines in Listings 5–8).
    """
    params = [p for p, _ in bindings]
    exprs = [e for _, e in bindings]
    return FunCall(Lambda(params, body), *exprs)


def AA(arr, idx) -> FunCall:
    return FunCall(ArrayAccess(), arr, idx)


def AA3(arr, z, y, x) -> FunCall:
    return FunCall(ArrayAccess3(), arr, lit(z, Int), lit(y, Int), lit(x, Int))


@dataclass
class LiftKernelProgram:
    """A kernel Lambda plus the launch/driver metadata the runtime needs."""

    name: str
    kernel: Lambda
    dtype: ScalarType
    #: symbolic size variable names → meaning, for the driver's size env
    sizes: tuple[str, ...]
    #: human description (used by benchmarks / reports)
    description: str = ""


# --- Listing 6: pattern-formulation fused FI stencil -----------------------------------


def fi_fused_3d(dtype="double") -> LiftKernelProgram:
    """Fused FI simulation as a 3-D stencil over full (halo-padded) grids.

    Parameters of the kernel: ``prev``, ``curr``, ``nbrs`` as 3-D arrays of
    the full grid (``NZ×NY×NX`` including the halo), plus the Courant
    number ``l``.  Output: the interior next-state, ``(NZ-2)×(NY-2)×(NX-2)``.
    """
    T = _T(dtype)
    NZ, NY, NX = Var("NZ"), Var("NY"), Var("NX")
    prev = Param("prev", array(T, NZ, NY, NX))
    curr = Param("curr", array(T, NZ, NY, NX))
    nbrs = Param("nbrs", array(Int, NZ, NY, NX))
    l = Param("l", T)
    beta = Param("beta", T)

    win_t = array(T, 3, 3, 3)
    m = Param("m", TupleType(win_t, array(Int, 3, 3, 3), win_t))

    cw = FunCall(Get(0), m)     # curr neighbourhood
    nw = FunCall(Get(1), m)     # nbrs neighbourhood
    pw = FunCall(Get(2), m)     # prev neighbourhood

    nbr = AA3(nw, 1, 1, 1)
    ctr = AA3(cw, 1, 1, 1)
    prv = AA3(pw, 1, 1, 1)
    s = BinOp("+", BinOp("+", BinOp("+", AA3(cw, 1, 1, 0), AA3(cw, 1, 1, 2)),
                         BinOp("+", AA3(cw, 1, 0, 1), AA3(cw, 1, 2, 1))),
              BinOp("+", AA3(cw, 0, 1, 1), AA3(cw, 2, 1, 1)))

    l2 = BinOp("*", l, l)
    two = lit(2.0, T)
    coef = BinOp("-", two, BinOp("*", l2, nbr))
    free = BinOp("-", BinOp("+", BinOp("*", coef, ctr), BinOp("*", l2, s)), prv)
    cf = BinOp("*", BinOp("*", BinOp("*", lit(0.5, T), l),
                          BinOp("-", lit(6, Int), nbr)), beta)
    lossy = BinOp("/",
                  BinOp("+", BinOp("+", BinOp("*", coef, ctr),
                                   BinOp("*", l2, s)),
                        BinOp("*", BinOp("-", cf, lit(1.0, T)), prv)),
                  BinOp("+", lit(1.0, T), cf))
    val = Select(BinOp(">=", nbr, lit(6, Int)), free,
                 Select(BinOp(">", nbr, lit(0, Int)), lossy, lit(0.0, T)))

    body = FunCall(Map3D(Lambda([m], val)),
                   FunCall(Zip3D(3),
                           FunCall(Slide3D(3, 1), curr),
                           FunCall(Slide3D(3, 1), nbrs),
                           FunCall(Slide3D(3, 1), prev)))
    kernel = Lambda([prev, curr, nbrs, l, beta], body)
    return LiftKernelProgram(
        name="fi_fused_3d", kernel=kernel, dtype=T,
        sizes=("NZ", "NY", "NX"),
        description="Listing 6: fused FI stencil (pattern formulation)")


# --- flat gather formulation (Listings 1–2 generated-code shape) ----------------------


def _flat_stencil_sum(curr: Param, i: Param, Nx: Param, NxNy: Param):
    one = lit(1, Int)
    s = BinOp("+",
              BinOp("+",
                    BinOp("+", AA(curr, BinOp("-", i, one)),
                          AA(curr, BinOp("+", i, one))),
                    BinOp("+", AA(curr, BinOp("-", i, Nx)),
                          AA(curr, BinOp("+", i, Nx)))),
              BinOp("+", AA(curr, BinOp("-", i, NxNy)),
                    AA(curr, BinOp("+", i, NxNy))))
    return s


def fi_fused_flat(dtype="double") -> LiftKernelProgram:
    """Fused FI simulation, one work-item per grid point (Listing 1 shape).

    State arrays are typed with the padded length ``NP = N + Nx·Ny`` (the
    guard plane) while the map iterates over the ``N`` real grid points.
    """
    T = _T(dtype)
    N, NP = Var("N"), Var("NP")
    prev = Param("prev", ArrayType(T, NP))
    curr = Param("curr", ArrayType(T, NP))
    nbrs = Param("nbrs", ArrayType(Int, NP))
    l = Param("l", T)
    beta = Param("beta", T)
    Nx = Param("Nx", Int)
    NxNy = Param("NxNy", Int)

    i = Param("i", Int)
    nbr_p = Param("nbr", Int)
    s_p = Param("s", T)
    cf_p = Param("cf", T)
    coef_p = Param("coef", T)
    ctr_p = Param("ctr", T)
    prv_p = Param("prv", T)

    l2 = BinOp("*", l, l)
    inner = let(
        [(nbr_p, AA(nbrs, i)),
         (s_p, _flat_stencil_sum(curr, i, Nx, NxNy)),
         (ctr_p, AA(curr, i)),
         (prv_p, AA(prev, i))],
        let([(coef_p, BinOp("-", lit(2.0, T), BinOp("*", l2, nbr_p))),
             (cf_p, BinOp("*", BinOp("*", BinOp("*", lit(0.5, T), l),
                                    BinOp("-", lit(6, Int), nbr_p)), beta))],
            Select(
                BinOp(">=", nbr_p, lit(6, Int)),
                BinOp("-", BinOp("+", BinOp("*", coef_p, ctr_p),
                                 BinOp("*", l2, s_p)), prv_p),
                Select(
                    BinOp(">", nbr_p, lit(0, Int)),
                    BinOp("/",
                          BinOp("+", BinOp("+",
                                           BinOp("*", coef_p, ctr_p),
                                           BinOp("*", l2, s_p)),
                                BinOp("*", BinOp("-", cf_p, lit(1.0, T)),
                                      prv_p)),
                          BinOp("+", lit(1.0, T), cf_p)),
                    lit(0.0, T)))))
    body = FunCall(Map(Lambda([i], inner)), FunCall(Iota(N)))
    kernel = Lambda([prev, curr, nbrs, l, beta, Nx, NxNy], body)
    return LiftKernelProgram(
        name="fi_fused_flat", kernel=kernel, dtype=T, sizes=("N", "NP"),
        description="Listing 1: fused FI stencil + boundary (flat gathers)")


def volume_kernel(dtype="double") -> LiftKernelProgram:
    """Listing 2 kernel 1: lossless volume update wherever nbr > 0.

    Arrays carry the padded length ``NP``; the map runs over ``N``.
    """
    T = _T(dtype)
    N, NP = Var("N"), Var("NP")
    prev = Param("prev", ArrayType(T, NP))
    curr = Param("curr", ArrayType(T, NP))
    nbrs = Param("nbrs", ArrayType(Int, NP))
    l = Param("l", T)
    Nx = Param("Nx", Int)
    NxNy = Param("NxNy", Int)

    i = Param("i", Int)
    nbr_p = Param("nbr", Int)
    s_p = Param("s", T)
    l2 = BinOp("*", l, l)
    inner = let(
        [(nbr_p, AA(nbrs, i)),
         (s_p, _flat_stencil_sum(curr, i, Nx, NxNy))],
        Select(BinOp(">", nbr_p, lit(0, Int)),
               BinOp("-", BinOp("+",
                                BinOp("*", BinOp("-", lit(2.0, T),
                                                 BinOp("*", l2, nbr_p)),
                                      AA(curr, i)),
                                BinOp("*", l2, s_p)),
                     AA(prev, i)),
               lit(0.0, T)))
    body = FunCall(Map(Lambda([i], inner)), FunCall(Iota(N)))
    kernel = Lambda([prev, curr, nbrs, l, Nx, NxNy], body)
    return LiftKernelProgram(
        name="volume_kernel", kernel=kernel, dtype=T, sizes=("N", "NP"),
        description="Listing 2 kernel 1: volume handling")


# --- Listing 7: FI-MM boundary handling -------------------------------------------------


def fi_mm_boundary(dtype="double") -> LiftKernelProgram:
    """Listing 7: in-place frequency-independent multi-material boundary.

    ``Map`` over ``Zip(boundaryIndices, material)``; each element produces
    a (mostly skipped) full-length row written into ``next`` in place via
    ``WriteTo``/``Concat``/``Skip``/``ArrayCons``.
    """
    T = _T(dtype)
    N, K, M = Var("N"), Var("K"), Var("M")
    bidx = Param("boundaryIndices", ArrayType(Int, K))
    mat = Param("material", ArrayType(Int, K))
    nbrs = Param("nbrs", ArrayType(Int, N))
    beta = Param("beta", ArrayType(T, M))
    nxt = Param("next", ArrayType(T, N))
    prev = Param("prev", ArrayType(T, N))
    l = Param("l", T)

    tup = Param("tup", TupleType(Int, Int))
    idx = Param("idx", Int)
    mi = Param("mi", Int)
    nbr_p = Param("nbr", Int)
    cf_p = Param("cf", T)

    boundary_update = BinOp(
        "/", BinOp("+", AA(nxt, idx), BinOp("*", cf_p, AA(prev, idx))),
        BinOp("+", lit(1.0, T), cf_p))

    row = FunCall(
        Concat(3),
        FunCall(Skip(T, idx.arith)),
        FunCall(Map(Id()), FunCall(ArrayCons(1), boundary_update)),
        FunCall(Skip(T, N - 1 - idx.arith)))

    inner = let(
        [(nbr_p, AA(nbrs, idx))],
        let([(cf_p, BinOp("*", BinOp("*", BinOp("*", lit(0.5, T), l),
                                     BinOp("-", lit(6, Int), nbr_p)),
                          AA(beta, mi)))],
            row))
    f = Lambda([tup], FunCall(Lambda([idx, mi], inner),
                              FunCall(Get(0), tup), FunCall(Get(1), tup)))
    body = FunCall(WriteTo(), nxt,
                   FunCall(Map(f), FunCall(Zip(2), bidx, mat)))
    kernel = Lambda([bidx, mat, nbrs, beta, nxt, prev, l], body)
    return LiftKernelProgram(
        name="fi_mm_boundary", kernel=kernel, dtype=T, sizes=("N", "K", "M"),
        description="Listing 7: FI-MM boundary handling (in-place)")


# --- Listing 8: FD-MM boundary handling -------------------------------------------------


def fd_mm_boundary(dtype="double", num_branches: int = 3) -> LiftKernelProgram:
    """Listing 8: frequency-dependent multi-material boundary handling.

    Three arrays are updated in place per boundary point — ``next`` at the
    gathered index, and the branch state arrays ``g1`` and ``vel_next`` at
    ``ci = b·K + i`` — expressed as a tuple of ``WriteTo`` (paper §V-D).
    Branch state and coefficients follow the layout of Listing 4.
    """
    T = _T(dtype)
    MB = num_branches
    N, K, M = Var("N"), Var("K"), Var("M")
    bidx = Param("boundaryIndices", ArrayType(Int, K))
    mat = Param("material", ArrayType(Int, K))
    nbrs = Param("nbrs", ArrayType(Int, N))
    beta = Param("beta", ArrayType(T, M))
    BI = Param("BI", ArrayType(T, M * MB))
    DI = Param("DI", ArrayType(T, M * MB))
    Fc = Param("F", ArrayType(T, M * MB))
    Dc = Param("D", ArrayType(T, M * MB))
    nxt = Param("next", ArrayType(T, N))
    prev = Param("prev", ArrayType(T, N))
    g1 = Param("g1", ArrayType(T, MB * K))
    v2 = Param("vel_prev", ArrayType(T, MB * K))
    v1 = Param("vel_next", ArrayType(T, MB * K))
    l = Param("l", T)
    Kp = Param("K", Int)  # numBoundaryPoints as a scalar (index arithmetic)

    tup = Param("tup", TupleType(Int, Int, Int))
    i = Param("i", Int)
    idx = Param("idx", Int)
    mi = Param("mi", Int)

    nbr_p = Param("nbr", Int)
    cf1_p = Param("cf1", T)
    cf_p = Param("cf", T)
    nv_p = Param("nextVal", T)
    pv_p = Param("prevVal", T)

    def coef(table: Param, b: Param) -> FunCall:
        return AA(table, BinOp("+", BinOp("*", mi, lit(MB, Int)), b))

    def state_index(b: Param) -> BinOp:
        return BinOp("+", BinOp("*", b, Kp), i)

    # private copies of the branch state (the paper's _g1[MB]/_v2[MB])
    b0 = Param("b0", Int)
    g1_arr = FunCall(Map(Lambda([b0], AA(g1, state_index(b0)))),
                     FunCall(Iota(MB)))
    b1 = Param("b1", Int)
    v2_arr = FunCall(Map(Lambda([b1], AA(v2, state_index(b1)))),
                     FunCall(Iota(MB)))
    g1p = Param("g1p", ArrayType(T, MB))
    v2p = Param("v2p", ArrayType(T, MB))

    # Σ_b BI (2 D v2 − F g1)
    b2 = Param("b2", Int)
    branch_term = BinOp(
        "*", coef(BI, b2),
        BinOp("-", BinOp("*", BinOp("*", lit(2.0, T), coef(Dc, b2)),
                         AA(v2p, b2)),
              BinOp("*", coef(Fc, b2), AA(g1p, b2))))
    acc = Param("acc", T)
    x = Param("x", T)
    sum_term = FunCall(Reduce(Lambda([acc, x], BinOp("+", acc, x)),
                              lit(0.0, T)),
                       FunCall(Map(Lambda([b2], branch_term)),
                               FunCall(Iota(MB))))

    nn_p = Param("newNext", T)
    new_next = BinOp(
        "/",
        BinOp("+", BinOp("-", nv_p, BinOp("*", cf1_p, sum_term)),
              BinOp("*", cf_p, pv_p)),
        BinOp("+", lit(1.0, T), cf_p))

    # per-branch state updates
    b3 = Param("b3", Int)
    v1_p = Param("v1val", T)
    v1_val = BinOp(
        "*", coef(BI, b3),
        BinOp("-", BinOp("+", BinOp("-", nn_p, pv_p),
                         BinOp("*", coef(DI, b3), AA(v2p, b3))),
              BinOp("*", BinOp("*", lit(2.0, T), coef(Fc, b3)),
                    AA(g1p, b3))))
    branch_updates = FunCall(
        Map(Lambda([b3], let(
            [(v1_p, v1_val)],
            FunCall(TupleCons(2),
                    FunCall(WriteTo(), AA(v1, state_index(b3)), v1_p),
                    FunCall(WriteTo(), AA(g1, state_index(b3)),
                            BinOp("+", AA(g1p, b3),
                                  BinOp("*", lit(0.5, T),
                                        BinOp("+", v1_p, AA(v2p, b3))))))))),
        FunCall(Iota(MB)))

    inner = let(
        [(nbr_p, AA(nbrs, idx)),
         (nv_p, AA(nxt, idx)),
         (pv_p, AA(prev, idx)),
         (g1p, g1_arr),
         (v2p, v2_arr)],
        let([(cf1_p, BinOp("*", l, BinOp("-", lit(6, Int), nbr_p)))],
            let([(cf_p, BinOp("*", BinOp("*", lit(0.5, T), cf1_p),
                              AA(beta, mi)))],
                let([(nn_p, new_next)],
                    FunCall(TupleCons(2),
                            FunCall(WriteTo(), AA(nxt, idx), nn_p),
                            branch_updates)))))

    f = Lambda([tup], FunCall(Lambda([i, idx, mi], inner),
                              FunCall(Get(0), tup), FunCall(Get(1), tup),
                              FunCall(Get(2), tup)))
    body = FunCall(Map(f), FunCall(Zip(3), FunCall(Iota(K)), bidx, mat))
    kernel = Lambda([bidx, mat, nbrs, beta, BI, DI, Fc, Dc, nxt, prev,
                     g1, v2, v1, l, Kp], body)
    return LiftKernelProgram(
        name="fd_mm_boundary", kernel=kernel, dtype=T, sizes=("N", "K", "M"),
        description=f"Listing 8: FD-MM boundary handling (MB={num_branches})")


# --- Listing 5: host orchestration -------------------------------------------------------


@dataclass
class LiftHostProgram:
    """A host Lambda (Listing 5) plus builder metadata."""

    name: str
    program: Lambda
    dtype: ScalarType
    scheme: str


def fused_host(dtype="double") -> LiftHostProgram:
    """Host orchestration of the fused FI scheme (Listing 1 kernel).

    One launch per step — volume update and lossy boundary handling fused
    in :func:`fi_fused_flat` — with the single scalar boundary admittance
    ``beta_h`` (FI has one material by construction).  Shares the host
    parameter conventions of :func:`two_kernel_host` (``prev1_h`` /
    ``prev2_h`` / ``neighbors`` padded to ``NP``), so the virtual GPU,
    the multi-device decomposition, and the leapfrog rotation treat all
    three schemes uniformly.
    """
    T = _T(dtype)
    fused = fi_fused_flat(T)
    NP = Var("NP")

    nbrs_h = Param("neighbors", ArrayType(Int, NP))
    prev1_h = Param("prev1_h", ArrayType(T, NP))  # state at t   (curr)
    prev2_h = Param("prev2_h", ArrayType(T, NP))  # state at t-1 (prev)
    l_h = Param("lambda_h", T)
    beta_h = Param("beta_h", T)
    Nx_h = Param("Nx_h", Int)
    NxNy_h = Param("NxNy_h", Int)

    next_g = FunCall(OclKernel(fused.kernel, "fused_handling_kernel"),
                     FunCall(ToGPU(), prev2_h), FunCall(ToGPU(), prev1_h),
                     FunCall(ToGPU(), nbrs_h), l_h, beta_h, Nx_h, NxNy_h)
    body = FunCall(ToHost(), next_g)
    program = Lambda([nbrs_h, prev1_h, prev2_h, l_h, beta_h, Nx_h, NxNy_h],
                     body)
    return LiftHostProgram(name="host_fi", program=program, dtype=T,
                           scheme="fi")


def two_kernel_host(scheme: str = "fi_mm", dtype="double",
                    num_branches: int = 3) -> LiftHostProgram:
    """Listing 5: orchestrate the volume kernel and a boundary kernel.

    The boundary kernel's output is redirected onto the volume kernel's
    output buffer with a host-level ``WriteTo`` (in-place), and a
    synchronisation is implied between the kernels.
    """
    T = _T(dtype)
    vol = volume_kernel(T)
    N, NP, K, M = Var("N"), Var("NP"), Var("K"), Var("M")

    bidx_h = Param("boundaries", ArrayType(Int, K))
    mat_h = Param("materialIdx", ArrayType(Int, K))
    nbrs_h = Param("neighbors", ArrayType(Int, NP))
    beta_h = Param("betaTable", ArrayType(T, M))
    prev1_h = Param("prev1_h", ArrayType(T, NP))  # state at t   (curr)
    prev2_h = Param("prev2_h", ArrayType(T, NP))  # state at t-1 (prev)
    l_h = Param("lambda_h", T)
    Nx_h = Param("Nx_h", Int)
    NxNy_h = Param("NxNy_h", Int)

    prev2_g = FunCall(ToGPU(), prev2_h)
    prev1_g = FunCall(ToGPU(), prev1_h)
    nbrs_g = FunCall(ToGPU(), nbrs_h)

    next_g = FunCall(OclKernel(vol.kernel, "volume_handling_kernel"),
                     prev2_g, prev1_g, nbrs_g, l_h, Nx_h, NxNy_h)

    if scheme == "fi_mm":
        bnd = fi_mm_boundary(T)
        params_extra: list[Param] = []
        launch = FunCall(OclKernel(bnd.kernel, "boundary_handling_kernel"),
                         FunCall(ToGPU(), bidx_h), FunCall(ToGPU(), mat_h),
                         nbrs_g, FunCall(ToGPU(), beta_h),
                         next_g, prev2_g, l_h)
    elif scheme == "fd_mm":
        MB = num_branches
        bnd = fd_mm_boundary(T, MB)
        BI_h = Param("BI_h", ArrayType(T, M * MB))
        DI_h = Param("DI_h", ArrayType(T, M * MB))
        F_h = Param("F_h", ArrayType(T, M * MB))
        D_h = Param("D_h", ArrayType(T, M * MB))
        g1_h = Param("g1_h", ArrayType(T, MB * K))
        v2_h = Param("v2_h", ArrayType(T, MB * K))
        v1_h = Param("v1_h", ArrayType(T, MB * K))
        K_h = Param("K", Int)
        params_extra = [BI_h, DI_h, F_h, D_h, g1_h, v2_h, v1_h, K_h]
        launch = FunCall(OclKernel(bnd.kernel, "boundary_handling_kernel"),
                         FunCall(ToGPU(), bidx_h), FunCall(ToGPU(), mat_h),
                         nbrs_g, FunCall(ToGPU(), beta_h),
                         FunCall(ToGPU(), BI_h), FunCall(ToGPU(), DI_h),
                         FunCall(ToGPU(), F_h), FunCall(ToGPU(), D_h),
                         next_g, prev2_g,
                         FunCall(ToGPU(), g1_h), FunCall(ToGPU(), v2_h),
                         FunCall(ToGPU(), v1_h), l_h, K_h)
    else:
        raise ValueError(f"unknown scheme {scheme!r} (fi_mm or fd_mm)")

    body = FunCall(ToHost(), FunCall(WriteTo(), next_g, launch))
    program = Lambda([bidx_h, mat_h, nbrs_h, beta_h, prev1_h, prev2_h,
                      l_h, Nx_h, NxNy_h] + params_extra, body)
    return LiftHostProgram(name=f"host_{scheme}", program=program, dtype=T,
                           scheme=scheme)


def compiled_host(scheme: str, dtype, num_branches: int):
    """The compiled host program a scheme runs on the virtual GPU:
    :func:`fused_host` for ``fi``, else :func:`two_kernel_host` with
    ``num_branches or 3`` (a material table without branches still
    builds the 3-branch variant)."""
    from ..lift.codegen.host import compile_host
    hp = (fused_host(dtype) if scheme == "fi"
          else two_kernel_host(scheme, dtype, num_branches or 3))
    return compile_host(hp.program, hp.name)
