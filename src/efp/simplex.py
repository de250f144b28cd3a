"""Two-phase primal simplex on a dense tableau with bounded variables.

Maximizes c.x subject to A x (<=, =, >=) b and finite lower bounds
lb <= x <= ub (ub may be infinite).  Variable bounds are handled implicitly:
nonbasic variables rest at either bound, and the ratio test lets a basic
variable leave at its lower or upper bound or lets the entering variable flip
bounds without a basis change.  Phase 1 drives artificial variables for rows
the starting point violates; a crash start can place selected variables at
their upper bound, which for the pricing models makes the slack basis
feasible and skips phase 1 entirely.

The tableau is never refactorised, so drift can end a run at a basis whose
point breaks the rows.  An "optimal" point is therefore checked against the
rows and bounds before it is returned; one that fails is re-solved from the
slack basis, and a second failure is status "numerical" with the first point.

Pricing is Devex (approximate steepest edge); Bland's rule engages after a
run of degenerate pivots to guarantee termination.  A is held once, sparse
(CSR; a dense A is converted on entry), with >= rows folded in by a +-1 row
sign.  Only the tableau is dense, kept Fortran-ordered so the rank-1 pivot
update runs as one in-place BLAS ger call; desk-scale models stay within a
few thousand columns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.linalg.blas import dger

FEASIBILITY_TOL = 1e-7
OPTIMALITY_TOL = 1e-7
PIVOT_TOL = 1e-9
DEGENERATE_STEP = 1e-9
BLAND_TRIGGER = 1000
RESIDUAL_TOL = 1e-6  # relative row and bound slack an "optimal" x may show

_LOWER, _UPPER, _BASIC = 0, 1, 2


@dataclass
class SimplexResult:
    status: str  # optimal | infeasible | unbounded | iteration-limit | numerical
    objective: float
    x: np.ndarray | None
    iterations: int


class SimplexSolver:
    """Reusable standard-form data; each solve() call owns its tableau.

    Bounds passed to solve() override the stored ones, which is how
    branch-and-bound fixes binaries without rebuilding the matrix.
    """

    def __init__(
        self,
        c: np.ndarray,
        A: np.ndarray | sparse.sparray,
        senses: list[str],
        b: np.ndarray,
        lb: np.ndarray,
        ub: np.ndarray,
    ) -> None:
        self.nvars = len(c)
        self.c = np.asarray(c, dtype=float)
        self.A = sparse.csr_array(A, dtype=float, copy=True)
        self.A.sum_duplicates()  # the start tableau writes each entry once
        unknown = set(senses) - {"<=", "=", ">="}
        if unknown:
            raise ValueError(f"unknown constraint sense {unknown.pop()!r}")
        kind = np.asarray(senses, dtype=str)
        self.row_sign = np.where(kind == ">=", -1.0, 1.0)
        self.b = self.row_sign * np.asarray(b, dtype=float)
        self._le = kind != "="
        self.senses = np.where(self._le, "<=", "=").tolist()
        self.lb = np.asarray(lb, dtype=float)
        self.ub = np.asarray(ub, dtype=float)
        if np.any(np.isneginf(self.lb)):
            raise ValueError("all variables need finite lower bounds")

    def solve(
        self,
        lb: np.ndarray | None = None,
        ub: np.ndarray | None = None,
        *,
        start_at_upper: np.ndarray | None = None,
        max_iterations: int = 10**6,
    ) -> SimplexResult:
        """Solve under optional bound overrides; an "optimal" x is verified."""
        lob = self.lb if lb is None else np.asarray(lb, dtype=float)
        upb = self.ub if ub is None else np.asarray(ub, dtype=float)
        first = self._solve(lob, upb, start_at_upper, max_iterations)
        if first.status != "optimal" or self._feasible(first.x, lob, upb):
            return first
        retry = self._solve(lob, upb, None, max_iterations - first.iterations)
        iterations = first.iterations + retry.iterations
        if retry.status == "optimal" and self._feasible(retry.x, lob, upb):
            return SimplexResult("optimal", retry.objective, retry.x, iterations)
        return SimplexResult("numerical", first.objective, first.x, iterations)

    def _feasible(self, x: np.ndarray, lob: np.ndarray, upb: np.ndarray) -> bool:
        """Rows and bounds hold within RESIDUAL_TOL * max(1, |rhs|)."""
        excess = self.row_sign * (self.A @ x) - self.b
        excess = np.where(self._le, excess, np.abs(excess))
        return bool(
            np.all(excess <= RESIDUAL_TOL * np.maximum(1.0, np.abs(self.b)))
            and np.all(x >= lob - RESIDUAL_TOL * np.maximum(1.0, np.abs(lob)))
            and np.all(x <= upb + RESIDUAL_TOL * np.maximum(1.0, np.abs(upb)))
        )

    def _solve(
        self,
        lob: np.ndarray,
        upb: np.ndarray,
        start_at_upper: np.ndarray | None,
        max_iterations: int,
    ) -> SimplexResult:
        nv = self.nvars
        m = len(self.b)
        span = upb - lob
        if np.any(span < -1e-12):
            return SimplexResult("infeasible", float("nan"), None, 0)
        span = np.maximum(span, 0.0)

        # optional crash start: the flagged variables begin nonbasic at their
        # upper bound, which can make the slack basis feasible and skip phase 1
        upper_start = np.zeros(nv, dtype=bool)
        if start_at_upper is not None:
            upper_start = start_at_upper & np.isfinite(span) & (span > 0)

        y_start = np.where(upper_start, span, 0.0)
        b0 = self.b - self.row_sign * (self.A @ (lob + y_start))
        T, val, basis, art_start = self._start_tableau(b0)
        K = T.shape[1]

        ubp = np.full(K, np.inf)
        ubp[:nv] = span
        vstat = np.full(K, _LOWER, dtype=np.int8)
        vstat[:nv][upper_start] = _UPPER
        vstat[basis] = _BASIC

        iterations = 0
        if K > art_start:
            c1 = np.zeros(K)
            c1[art_start:] = -1.0
            d = c1 - c1[basis] @ T
            status, iterations = self._iterate(
                T, val, basis, vstat, ubp, d, max_iterations, iterations
            )
            if status != "optimal":
                return self._result(status, val, basis, vstat, ubp, lob, iterations)
            residual = val[basis >= art_start].sum() if m else 0.0
            if residual > FEASIBILITY_TOL:
                return SimplexResult("infeasible", float("nan"), None, iterations)
            ubp[art_start:] = 0.0

        cfull = np.zeros(K)
        cfull[:nv] = self.c
        d = cfull - cfull[basis] @ T if m else cfull.copy()
        status, iterations = self._iterate(
            T, val, basis, vstat, ubp, d, max_iterations, iterations
        )
        return self._result(status, val, basis, vstat, ubp, lob, iterations)

    def _start_tableau(self, b0: np.ndarray):
        """Tableau, basic values, basis and first artificial column at b0 = b - A x0.

        Columns are the structurals, one slack per <= row, then one artificial
        per row x0 violates (every = row, and <= rows with b0 < 0).  A row
        with b0 < 0 is negated so its basic variable starts at |b0|.
        """
        nv, A = self.nvars, self.A
        flip = b0 < 0
        sign = np.where(flip, -1.0, 1.0)
        slack_rows = np.flatnonzero(self._le)
        art_rows = np.flatnonzero(~self._le | flip)
        art_start = nv + len(slack_rows)
        slack_cols = nv + np.arange(len(slack_rows))
        art_cols = art_start + np.arange(len(art_rows))

        T = np.zeros((len(b0), art_start + len(art_rows)), order="F")
        rows = np.repeat(np.arange(len(b0)), np.diff(A.indptr))
        T[rows, A.indices] = (sign * self.row_sign)[rows] * A.data
        T[slack_rows, slack_cols] = sign[slack_rows]
        T[art_rows, art_cols] = 1.0
        basis = np.empty(len(b0), dtype=np.intp)
        basis[slack_rows] = slack_cols
        basis[art_rows] = art_cols
        return T, np.abs(b0), basis, art_start

    def _result(
        self,
        status: str,
        val: np.ndarray,
        basis: np.ndarray,
        vstat: np.ndarray,
        ubp: np.ndarray,
        lob: np.ndarray,
        iterations: int,
    ) -> SimplexResult:
        y = np.where(vstat == _UPPER, ubp, 0.0)
        y[basis] = val
        x = y[: self.nvars] + lob
        return SimplexResult(status, float(self.c @ x), x, iterations)

    @staticmethod
    def _iterate(
        T: np.ndarray,
        val: np.ndarray,
        basis: np.ndarray,
        vstat: np.ndarray,
        ubp: np.ndarray,
        d: np.ndarray,
        max_iterations: int,
        iterations: int,
    ) -> tuple[str, int]:
        m, K = T.shape
        degenerate = 0
        weight = np.ones(K)  # Devex reference weights
        movable = ubp > 0.0
        while True:
            bland = degenerate > BLAND_TRIGGER
            improving = movable & (
                ((vstat == _LOWER) & (d > OPTIMALITY_TOL))
                | ((vstat == _UPPER) & (d < -OPTIMALITY_TOL))
            )
            if not improving.any():
                return "optimal", iterations
            if iterations >= max_iterations:
                return "iteration-limit", iterations
            iterations += 1
            candidates = np.flatnonzero(improving)
            if bland:
                e = int(candidates[0])
            else:
                score = d[candidates] ** 2 / weight[candidates]
                e = int(candidates[np.argmax(score)])
            dirn = 1.0 if vstat[e] == _LOWER else -1.0
            g = dirn * T[:, e]

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
            leave_to_lower = t_low[r] <= t_up[r]
            if t < DEGENERATE_STEP:
                degenerate += 1

            val -= t * g
            entering_val = (0.0 if dirn > 0 else ubp[e]) + dirn * t
            leaving = basis[r]
            vstat[leaving] = _LOWER if leave_to_lower else _UPPER
            vstat[e] = _BASIC
            basis[r] = e

            piv = T[r, e]
            row = T[r] / piv  # fresh contiguous array
            T[r] = row
            col = T[:, e].copy()
            col[r] = 0.0
            dger(-1.0, col, row, a=T, overwrite_a=1)
            d -= d[e] * row
            # Devex weight propagation onto the reference framework
            w_e = weight[e]
            np.maximum(weight, row * row * w_e, out=weight)
            weight[leaving] = max(w_e / (piv * piv), 1.0)
            T[:, e] = 0.0
            T[r, e] = 1.0
            d[e] = 0.0
            val[r] = entering_val
