"""Listing 5's host interface: the compiled host program of a scheme
(:func:`host_program`), the values and sizes of its host parameters,
and the leapfrog cycle that rotates its levels.

No LIFT front end is imported here: every path binds its host buffers
with NumPy alone, and :func:`host_program` compiles only when the loops
disk cache lacks the program.  :mod:`.lift_programs` re-exports
``LEAPFROG``, ``host_inputs`` and ``host_sizes`` next to the builders
whose parameter names they bind.
"""

from __future__ import annotations

import os

import numpy as np

__all__ = ["BUILDERS", "LEAPFROG", "host_inputs", "host_program",
           "host_sizes"]

#: the module of the LIFT builders (:mod:`.lift_programs`), whose
#: digest keys every artifact built from them in the loops disk cache
BUILDERS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "lift_programs.py")

#: Listing 5's leapfrog cycle: each step's result (``"__out__"``)
#: becomes ``prev1_h`` and the old ``prev1_h`` becomes ``prev2_h``
LEAPFROG = ("prev2_h", "prev1_h", "__out__")


def host_sizes(grid, topology, table) -> dict[str, int]:
    """The size variables of a ``compiled_host`` program: ``N`` grid
    points, ``NP`` with the guard plane, ``K`` boundary points and ``M``
    materials (a new dict each call)."""
    N = grid.num_points
    return {"N": N, "NP": N + grid.nx * grid.ny,
            "K": topology.num_boundary_points, "M": table.num_materials}


def host_inputs(scheme, grid, topology, table, prev, curr, g1=None, v=None):
    """Listing 5's interface: the host-parameter values of the
    ``compiled_host`` program of ``scheme``, and its sizes.

    Binds the caller's arrays by reference: ``curr`` / ``prev`` (the
    levels at t and t-1, guard plane included) as ``prev1_h`` /
    ``prev2_h``, the topology's one-byte guarded counts as ``neighbors``
    and, for ``fd_mm``, ``g1`` and the one branch velocity ``v`` as both
    ``v2_h`` and ``v1_h`` (zeros when not given).  ``lambda_h`` takes
    the levels' type.  Returns ``(inputs, sizes)``."""
    inputs = dict(neighbors=topology.nbrs_guarded, prev1_h=curr,
                  prev2_h=prev, lambda_h=prev.dtype.type(grid.courant),
                  Nx_h=grid.nx, NxNy_h=grid.nx * grid.ny)
    if scheme == "fi":
        inputs["beta_h"] = table.beta[0]
    else:
        inputs.update(boundaries=topology.boundary_indices,
                      materialIdx=topology.material, betaTable=table.beta)
    if scheme == "fd_mm":
        K = topology.num_boundary_points
        branch = table.num_branches * K
        g1 = np.zeros(branch, prev.dtype) if g1 is None else g1
        v = np.zeros(branch, prev.dtype) if v is None else v
        inputs.update(BI_h=table.BI.reshape(-1), DI_h=table.DI.reshape(-1),
                      F_h=table.F.reshape(-1), D_h=table.D.reshape(-1),
                      g1_h=g1, v2_h=v, v1_h=v, K=K)
    return inputs, host_sizes(grid, topology, table)


def host_program(scheme: str, precision, num_branches: int):
    """``compiled_host(scheme, precision, num_branches)``, kept in the
    loops disk cache (:func:`~repro.lift.codegen.loops.cached_build`,
    kind ``host``) with every kernel lowered and analysed and without
    its AST nodes (:meth:`~repro.lift.codegen.plan.HostProgram.portable`;
    with the cache off, each kernel lowers and analyses on first use
    instead).  A process that finds it there imports neither
    :mod:`.lift_programs` nor any of the LIFT front end.  Keyed by
    ``(scheme, precision, num_branches or 3)``."""
    from ..lift.codegen.loops import cached_build
    from ..lift.codegen.plan import HostProgram
    branches = num_branches or 3

    def build() -> HostProgram:
        from .lift_programs import compiled_host
        return compiled_host(scheme, precision, branches)

    return cached_build("host", (scheme, str(precision), str(branches)),
                        BUILDERS, build,
                        count=lambda hp: int(isinstance(hp, HostProgram)),
                        portable=HostProgram.portable)
