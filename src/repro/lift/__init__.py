"""repro.lift — a Python re-implementation of the LIFT data-parallel IR
and code generator, extended with the IPDPS'21 paper's primitives for
complex boundary conditions (WriteTo / Concat / Skip / ArrayCons and the
host-side OclKernel / ToGPU / ToHost).

Layering (bottom-up):

``arith`` → ``types`` → ``ast`` / ``patterns`` → ``type_inference`` →
``interp`` (oracle) / ``views`` → ``memory`` → ``codegen`` (OpenCL C, host
code, NumPy backend) with ``rewrite`` and ``analysis`` on the side.
"""

import importlib

#: the submodule each export lives in, imported on first access (PEP 562):
#: a step whose lowered programs come from the disk cache loads none of
#: the front end (``arith`` and ``types`` name their own modules)
_LAZY = {name: module for module, names in {
    "arith": ("arith", "Cst", "Var", "to_arith"),
    "types": ("types", "ArrayType", "Bool", "Double", "Float", "Int",
              "LiftType", "Long", "ScalarType", "TupleType", "TypeError_",
              "array", "float_type"),
    "ast": ("BinOp", "Expr", "FunCall", "Lambda", "Literal", "Param",
            "Select", "UnaryOp", "UserFun", "as_expr", "lam", "lit"),
    "patterns": ("ArrayAccess", "ArrayCons", "Concat", "Get", "Id", "Iota",
                 "Iterate", "Join", "Map", "Map3D", "MapGlb", "MapGlb3D",
                 "MapLcl", "MapSeq", "MapWrg", "OclKernel", "Pad", "Pad3D",
                 "Reduce", "ReduceSeq", "Skip", "Slide", "Slide3D", "Split",
                 "ToGPU", "ToHost", "Transpose", "TupleCons", "WriteTo",
                 "Zip", "Zip3D", "dump"),
    "type_inference": ("infer",),
}.items() for name in names}

__all__ = list(_LAZY)


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_LAZY[name]}", __name__)
    return module if name == _LAZY[name] else getattr(module, name)
