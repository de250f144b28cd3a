"""Independent LP and MIP oracles used to cross-check the built-in solver."""

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, linprog, milp

from efp.formulations import MipModel

# (item, bidder) -> value on 5 items x 4 bidders: HiGHS's presolve stops
# with a solve error on its capped P model
MARKET_HIGHS_SOLVE_ERROR = {
    (0, 2): 7.96931217474568, (0, 3): 4, (1, 0): 4, (1, 1): 1, (1, 2): 1,
    (2, 0): 5.172604293414339, (2, 2): 1, (2, 3): 2, (3, 0): 4, (3, 2): 1,
    (4, 0): 2, (4, 1): 4.921451011432122, (4, 2): 1,
}


def _lp_value(c, A, senses, b, lb, ub) -> float:
    """max c x over A x (senses) b, lb <= x <= ub, A in CSR.  linprog takes
    the >= rows negated, with the <= rows, and the = rows on their own."""
    senses = np.asarray(senses)
    sign = np.where(senses == ">=", -1.0, 1.0)
    A = A.copy()
    A.data *= np.repeat(sign, np.diff(A.indptr))
    b = sign * b
    le, eq = senses != "=", senses == "="
    res = linprog(
        -c,
        A_ub=A[le] if le.any() else None,
        b_ub=b[le] if le.any() else None,
        A_eq=A[eq] if eq.any() else None,
        b_eq=b[eq] if eq.any() else None,
        bounds=list(zip(lb, ub)),
        method="highs",
    )
    if res.status != 0:
        raise AssertionError(f"reference solver failed: {res.message}")
    return -res.fun


def reference_lp_optimum(model: MipModel) -> float:
    """Optimal relaxation value via an unrelated solver implementation."""
    return _lp_value(model.c, model.A, model.senses, model.b, model.lb, model.ub)


def reference_mip_optimum(model: MipModel) -> float:
    """Optimal integer value via HiGHS branch-and-cut, for solve_mip to match.

    HiGHS's MIP point may break a row by up to its feasibility tolerance,
    which lifts its objective by as much: 489.704383945 for 489.704382945
    on the seed-0 characteristics n=6 P model.  So the value returned is
    the LP optimum with the integer columns fixed at HiGHS's rounded values.
    HiGHS's presolve ends some models in a solve error (status 4), such as
    the capped P model of MARKET_HIGHS_SOLVE_ERROR; those are solved once
    more with the presolve off.
    """
    c, A, b, lb, ub = model.c, model.A, model.b, model.lb, model.ub
    integer, senses = model.integer, np.array(model.senses)
    row_lb = np.where(senses == "<=", -np.inf, b)
    row_ub = np.where(senses == ">=", np.inf, b)
    for presolve in (True, False):
        res = milp(
            -c,
            constraints=LinearConstraint(A, row_lb, row_ub),
            integrality=integer.astype(int),
            bounds=Bounds(lb, ub),
            options={"mip_rel_gap": 1e-9, "presolve": presolve},
        )
        if res.status != 4:
            break
    if res.status != 0:
        raise AssertionError(f"reference MIP solver failed: {res.message}")
    lb, ub = lb.copy(), ub.copy()
    lb[integer] = ub[integer] = np.round(res.x[integer])
    return _lp_value(c, A, senses, b, lb, ub)
