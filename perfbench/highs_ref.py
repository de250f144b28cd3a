"""HiGHS references (through scipy) for the correctness gate.

They read the same model arrays the built-in solver gets from
``solver.model_arrays``; they are yardsticks, never part of a timed op.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, linprog, milp

from efp.formulations import FormulationKind, build
from efp.solver import model_arrays


def _row_bounds(senses, b):
    lo = np.array([-np.inf if s == "<=" else rhs for s, rhs in zip(senses, b)])
    hi = np.array([np.inf if s == ">=" else rhs for s, rhs in zip(senses, b)])
    return lo, hi


def mip_optimum(model) -> float:
    """Optimal objective of the MIP via scipy.optimize.milp."""
    _, c, A, senses, b, lb, ub, integer = model_arrays(model)
    lo, hi = _row_bounds(senses, b)
    res = milp(
        -c,
        constraints=LinearConstraint(sparse.csr_array(A), lo, hi),
        integrality=integer.astype(int),
        bounds=Bounds(lb, ub),
        options={"mip_rel_gap": 1e-9},
    )
    if res.status != 0:
        raise RuntimeError(f"HiGHS MIP reference failed: {res.message}")
    return -res.fun


def lp_optimum(model) -> float:
    """Optimal objective of the linear relaxation via scipy.optimize.linprog."""
    _, c, A, senses, b, lb, ub, _ = model_arrays(model)
    senses = np.array(senses)
    le, ge, eq = senses == "<=", senses == ">=", senses == "="
    A_ub = sparse.vstack([sparse.csr_array(A[le]), -sparse.csr_array(A[ge])])
    b_ub = np.concatenate([b[le], -b[ge]])
    res = linprog(
        -c,
        A_ub=A_ub if b_ub.size else None,
        b_ub=b_ub if b_ub.size else None,
        A_eq=sparse.csr_array(A[eq]) if eq.any() else None,
        b_eq=b[eq] if eq.any() else None,
        bounds=np.column_stack([lb, ub]),
        method="highs",
    )
    if res.status != 0:
        raise RuntimeError(f"HiGHS LP reference failed: {res.message}")
    return -res.fun


def mip_reference(spec) -> tuple[float, dict]:
    """The market's MIP optimum and the LP relaxation of each formulation solved.

    Every formulation of a market has the same optimum, so one HiGHS solve
    of the U model is the reference for all five.
    """
    optimum = mip_optimum(build(spec.inst, FormulationKind.U))
    return optimum, {kind: lp_optimum(build(spec.inst, kind)) for kind in spec.kinds}


def lp_reference(spec) -> float:
    return lp_optimum(build(spec.inst, FormulationKind.U))
