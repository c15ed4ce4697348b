"""qsylv: two-sided quaternion matrix equations by two independent routes.

The package solves ``a1 x1 b1 + a2 x2 b2 = c`` over the quaternions — plus
eight identity-specialized variants and two conjugate-transpose variants —
both by closed-form pseudoinverse products and by entrywise noncommutative
Cramer-style formulas (bordered minor sums of Gram matrices), and
cross-verifies the two.

Every exported name is listed once, under the submodule that defines it, and
that submodule is imported on first access (PEP 562), so ``import qsylv``
loads no numeric code and the determinant engine loads only when used.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "errors": (
        "ConstraintViolated", "DimensionMismatch", "DimensionTooLarge", "Inconsistent",
        "InconsistentDeterminants", "InvalidSize", "NotConverged", "NotHermitian",
        "NotSquare", "OutOfRange", "ParseError", "QsylvError", "ZeroDivisor",
    ),
    "mpinv": ("MpResult", "mp_cramer", "mp_oracle", "proj_p", "proj_q"),
    "qmatrix": (
        "QMatrix", "block2x2", "complex_embed", "complex_unembed", "ctranspose", "fro_norm",
        "hstack", "is_hermitian", "rank", "scalar_lmul", "scalar_rmul", "vstack",
    ),
    "quaternion": ("Quaternion",),
    "rcdet": (
        "bordered_cdet_sum", "bordered_rdet_sum", "cdet", "cdet_coeffs", "det_dim_cap",
        "hdet", "max_det_dim", "principal_minor_sum", "rdet", "rdet_coeffs",
    ),
    "solvers": (
        "AuxData", "CheckResult", "DEFAULT_TOL", "EquationKind", "FreeParams",
        "GenSylvesterProblem", "PairSolution", "SolveReport", "apply_lhs",
        "check_consistency", "cramer_ax", "cramer_axb", "derive_aux", "free_param_shapes",
        "residual", "solve", "solve_cramer", "solve_direct", "solve_general",
    ),
}

_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_OWNER, "__version__"]


def __getattr__(name: str):
    module = _OWNER.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
