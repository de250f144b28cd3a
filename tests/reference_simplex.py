"""The simplex's two pivot loops as they were before they kept state: an oracle.

_iterate, _dual_iterate, _lowest and _pivot are efp.simplex's as they were
when each iteration gathered its slot statuses, slot bounds and row bounds
afresh from the tableau.  The loops now keep those across pivots; given the
same tableau, both must make every pivot the same and leave the same bits.
The constants are bound here at import, so a test that changes
BLAND_TRIGGER must change it in both modules.  The tableau's kept loop state
(its last two fields) is neither read nor kept here.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.linalg.blas import dger

from efp.simplex import (
    _BASIC,
    _LOWER,
    _UPPER,
    BLAND_TRIGGER,
    DEGENERATE_STEP,
    FEASIBILITY_TOL,
    OPTIMALITY_TOL,
    PIVOT_TOL,
    _Tableau,
)


def _iterate(
    tableau: _Tableau, max_iterations: int, iterations: int, deadline: float | None
) -> tuple[str, int]:
    """Primal simplex from a primal feasible basis.

    Of tied slots, the one holding the lowest column enters.
    """
    T, nb, val, basis, vstat, ubp, d, *_ = tableau
    m = T.shape[0]
    degenerate = 0
    weight = np.ones(len(nb))  # Devex reference weights, per slot
    while True:
        bland = degenerate > BLAND_TRIGGER
        stat = vstat[nb]
        improving = (ubp[nb] > 0.0) & (
            ((stat == _LOWER) & (d > OPTIMALITY_TOL))
            | ((stat == _UPPER) & (d < -OPTIMALITY_TOL))
        )
        if not improving.any():
            return "optimal", iterations
        if iterations >= max_iterations:
            return "iteration-limit", iterations
        if deadline is not None and time.perf_counter() > deadline:
            return "time-limit", iterations
        iterations += 1
        candidates = np.flatnonzero(improving)
        score = None if bland else d[candidates] ** 2 / weight[candidates]
        j = _lowest(candidates, nb, score)
        e = int(nb[j])
        dirn = 1.0 if vstat[e] == _LOWER else -1.0
        g = dirn * T[:, j]

        # ratio test: basics hitting their lower (0) or upper bound, and
        # the entering variable hitting its own opposite bound
        if m:
            ub_basic = ubp[basis]
            t_low = np.full(m, np.inf)
            down = g > PIVOT_TOL
            t_low[down] = np.maximum(val[down], 0.0) / g[down]
            t_up = np.full(m, np.inf)
            up = (g < -PIVOT_TOL) & np.isfinite(ub_basic)
            t_up[up] = np.maximum(ub_basic[up] - val[up], 0.0) / -g[up]
            t_row = np.minimum(t_low, t_up)
            t_rows = float(t_row.min())
        else:
            t_rows = np.inf
        t_self = float(ubp[e])

        if t_self <= t_rows:
            if np.isinf(t_self):
                return "unbounded", iterations
            # bound flip: no basis change
            val -= t_self * g
            vstat[e] = _UPPER if vstat[e] == _LOWER else _LOWER
            continue
        if np.isinf(t_rows):
            return "unbounded", iterations

        ties = np.flatnonzero(t_row <= t_rows + 1e-9)
        if bland:
            r = int(ties[np.argmin(basis[ties])])
        else:
            r = int(ties[np.argmax(np.abs(g[ties]))])
        t = float(t_row[r])
        if t < DEGENERATE_STEP:
            degenerate += 1

        val -= t * g
        piv = T[r, j]
        row = _pivot(
            tableau, r, j, (0.0 if dirn > 0 else ubp[e]) + dirn * t,
            _LOWER if t_low[r] <= t_up[r] else _UPPER,
        )
        # Devex weight propagation onto the reference framework, which
        # Bland's rule never reads; slot j now holds the leaving variable
        if not bland:
            w_e = weight[j]
            np.maximum(weight, row * row * w_e, out=weight)
            weight[j] = max(w_e / (piv * piv), 1.0)

def _dual_iterate(
    tableau: _Tableau, max_iterations: int, iterations: int, deadline: float | None
) -> tuple[str, int]:
    """Bounded dual simplex from a dual feasible basis.

    "optimal" here means primal feasible; "infeasible" means a row whose
    basic value no nonbasic can move back towards its bound.  Of tied
    slots, the one holding the lowest column enters.
    """
    T, nb, val, basis, vstat, ubp, d, *_ = tableau
    degenerate = 0
    while True:
        ub_basic = ubp[basis]
        violation = np.maximum(-val, val - ub_basic)
        rows = np.flatnonzero(violation > FEASIBILITY_TOL)
        if not rows.size:
            return "optimal", iterations
        if iterations >= max_iterations:
            return "iteration-limit", iterations
        if deadline is not None and time.perf_counter() > deadline:
            return "time-limit", iterations
        iterations += 1
        bland = degenerate > BLAND_TRIGGER
        if bland:
            r = int(rows[np.argmin(basis[rows])])
        else:
            r = int(rows[np.argmax(violation[rows])])
        to_lower = val[r] < 0.0
        target = 0.0 if to_lower else float(ub_basic[r])

        # a nonbasic y_k moving off its bound by t changes the row's basic
        # by -alpha_k * dirn_k * t; it is eligible when that is the way
        # the basic must go
        alpha = T[r]
        dirn = np.where(vstat[nb] == _UPPER, -1.0, 1.0)
        slope = alpha * dirn if to_lower else -alpha * dirn
        eligible = np.flatnonzero((ubp[nb] > 0.0) & (slope < -PIVOT_TOL))
        if not eligible.size:
            return "infeasible", iterations
        # dual ratio test: the least |d_k / alpha_k| keeps every reduced
        # cost on its optimal side
        ratio = np.abs(d[eligible] / alpha[eligible])
        step = ratio.min()
        ties = eligible[ratio <= step + 1e-12]
        j = _lowest(ties, nb, None if bland else np.abs(alpha[ties]))
        e = int(nb[j])
        if step < DEGENERATE_STEP:
            degenerate += 1

        t = (val[r] - target) / alpha[j]  # change of y_e
        val -= t * T[:, j]
        _pivot(
            tableau, r, j, (ubp[e] if vstat[e] == _UPPER else 0.0) + t,
            _LOWER if to_lower else _UPPER,
        )

def _lowest(slots: np.ndarray, nb: np.ndarray, key: np.ndarray | None) -> int:
    """Of the slots with the largest key (all of them when key is None), the
    slot holding the lowest column: np.argmax's pick over the columns in
    column order, a NaN key counting as the largest."""
    if key is not None:
        top = key[np.argmax(key)]
        slots = slots[np.isnan(key) if np.isnan(top) else key == top]
    return int(slots[np.argmin(nb[slots])])


def _pivot(
    tableau: _Tableau, r: int, j: int, entering_val: float, leaving_status: int
) -> np.ndarray:
    """Slot j's column enters the basis in row r and the leaving variable
    takes slot j; returns the new pivot row.

    The caller has already moved val along slot j; the leaving variable
    rests at the bound given by leaving_status.  The leaving variable's
    column is the unit column e_r, so a full-tableau update would make it
    -col * (1 / piv) with 1 / piv in row r; it is written so, with the same
    floating-point operations.
    """
    T, nb, val, basis, vstat, _, d, *_ = tableau
    leaving = basis[r]
    vstat[leaving] = leaving_status
    vstat[nb[j]] = _BASIC
    basis[r] = nb[j]
    nb[j] = leaving
    val[r] = entering_val
    piv = T[r, j]
    row = T[r] / piv  # fresh contiguous array
    T[r] = row
    col = T[:, j].copy()
    col[r] = 0.0
    dger(-1.0, col, row, a=T, overwrite_a=1)
    d_e = d[j]
    d -= d_e * row
    inv = 1.0 / piv
    T[:, j] = -col * inv
    T[r, j] = inv
    d[j] = -(d_e * inv)
    return row
