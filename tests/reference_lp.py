"""Independent LP and MIP oracles used to cross-check the built-in solver."""

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, linprog, milp

from efp.formulations import MipModel
from efp.solver import model_arrays

# (item, bidder) -> value on 5 items x 4 bidders: HiGHS's presolve stops
# with a solve error on its capped P model
MARKET_HIGHS_SOLVE_ERROR = {
    (0, 2): 7.96931217474568, (0, 3): 4, (1, 0): 4, (1, 1): 1, (1, 2): 1,
    (2, 0): 5.172604293414339, (2, 2): 1, (2, 3): 2, (3, 0): 4, (3, 2): 1,
    (4, 0): 2, (4, 1): 4.921451011432122, (4, 2): 1,
}


def _lp_value(c, A, senses, b, lb, ub) -> float:
    A_ub, b_ub, A_eq, b_eq = [], [], [], []
    for row, sense, rhs in zip(A, senses, b):
        if sense == "<=":
            A_ub.append(row)
            b_ub.append(rhs)
        elif sense == ">=":
            A_ub.append(-row)
            b_ub.append(-rhs)
        else:
            A_eq.append(row)
            b_eq.append(rhs)
    res = linprog(
        -c,
        A_ub=np.array(A_ub) if A_ub else None,
        b_ub=np.array(b_ub) if b_ub else None,
        A_eq=np.array(A_eq) if A_eq else None,
        b_eq=np.array(b_eq) if b_eq else None,
        bounds=list(zip(lb, ub)),
        method="highs",
    )
    if res.status != 0:
        raise AssertionError(f"reference solver failed: {res.message}")
    return -res.fun


def reference_lp_optimum(model: MipModel) -> float:
    """Optimal relaxation value via an unrelated solver implementation."""
    _, c, A, senses, b, lb, ub, _ = model_arrays(model)
    return _lp_value(c, A, senses, b, lb, ub)


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
    _, c, A, senses, b, lb, ub, integer = model_arrays(model)
    senses = np.array(senses)
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
