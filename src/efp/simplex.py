"""Primal simplex on a dense condensed tableau with bounded variables.

Maximizes c.x subject to A x (<=, =, >=) b and finite lower bounds
lb <= x <= ub (ub may be infinite).  Variable bounds are handled implicitly:
nonbasic variables rest at either bound, and the ratio test lets a basic
variable leave at its lower or upper bound or lets the entering variable flip
bounds without a basis change.

Every column lives in one fixed column space: the structurals, then one
logical per row (the slack of a <= row, >= rows folded in by a -1 row sign;
for an = row, a logical fixed at 0).  A basis is one status per column, and
one builder, _refactor, computes the tableau of any basis.  A solve runs
three steps, each written once.

1. Choose a start.  A solve can start from an earlier optimal result of the
   same solver under other bounds (``start_from``), as branch-and-bound does
   for every node after the root.  If that result still holds its tableau,
   the tableau is taken over in place; otherwise its nonbasic columns are
   computed again from an LU of the basic block: the basic logicals are unit
   columns, so only the rows whose logical is nonbasic, against the basic
   structurals, are factorised.  A shared start (``share_start``) leaves
   that tableau with the earlier result and runs on a copy, so the next
   solve from the same result takes it over: the two children of a node
   need at most one factorisation.  The changed variables move to their new
   bounds, which leaves only basic values out of bounds.  Without a stored
   basis, or when its block is singular or ill-conditioned (counted in
   ``singular_blocks``), the start is the slack basis, every logical basic,
   with the LP's crash start: the structurals the solver was built with in
   ``start_at_upper`` rest at their upper bound, which for the pricing
   models makes the slack basis feasible.  A warm start that ends
   "infeasible" is confirmed by this cold start.
2. Optimise.  One driver runs the bounded dual simplex, then the primal
   loop.  Reduced costs do not depend on bounds, so a stored basis stays
   dual feasible, and the dual loop clears its bound violations: the row
   with the largest violation leaves, and the entering column is the
   nonbasic that can move that row the right way at the least |d_k / a_rk|.
   The primal loop then runs as a clean-up.  A cold start passes a zero
   objective to the dual loop instead: every basis is dual feasible for it,
   so the loop is phase 1 and ends at a feasible basis or at a row that
   proves the LP infeasible.  If it pivoted, the reduced costs of c are
   computed afresh before the primal loop.
3. Check.  Between factorisations the tableau is updated by pivots alone, so
   drift can end a run at a basis whose point breaks the rows, or whose kept
   reduced costs no longer match its columns.  An "optimal" point is
   therefore checked against the rows and bounds, and its basis against
   reduced costs computed afresh from the tableau (_priced_out), before it
   is returned; one that fails is re-optimised once from its own basis,
   factorised afresh (from the plain slack basis, without the crash start,
   if that block is singular), and a second failure is status "numerical"
   with the first point; a retry cut short reports its own "iteration-limit"
   or "time-limit".  An optimal result carries its final basis, and
   holds its final tableau until a later solve takes it over or its owner
   drops it.

Pricing is Devex (approximate steepest edge); Bland's rule engages after a
run of degenerate pivots to guarantee termination, in both loops (every
phase-1 pivot is degenerate in the zero objective).  A deadline (an absolute
``time.perf_counter()`` value) is checked once per pivot; a loop that passes
it stops with status "time-limit".  One solve() call makes at most
MAX_ITERATIONS pivots over all its runs, or stops with status
"iteration-limit".  A is held once, sparse (CSR; a dense A is converted on
entry), with >= rows folded in by a +-1 row sign.  Only the tableau is dense,
kept Fortran-ordered so the rank-1 pivot update runs as a BLAS ger call in
place; desk-scale models stay within a few thousand columns.  On a tableau
of more than 20,000 entries whose pivot row is sparse, the update gathers
the columns the row reaches, runs ger on those alone and scatters them back
(_reach); the rest would only have had +-0.0 added.  The pricing LPs are
sparse: a pivot row of the presolved n=50 U root (950 x 500) holds about 1%
nonzeros, and one of the n=15 U search tableaus (up to 288 x 159) 4-10%.

The tableau is condensed (a dictionary, as in Chvatal's *Linear
Programming*): it keeps B^-1 A_N, one column per nonbasic slot, and not the
m unit columns of the basic variables.  A pivot gives the entering
variable's slot to the leaving variable, whose column is written with the
floating-point operations a full-tableau update would apply to it.  Slots
are not in column order, so every tie among entering candidates goes to the
slot holding the lowest column, as on the full tableau; the pivot sequence
and every value are those of the full tableau.

A tableau carries the state both loops read at every iteration, so that
neither gathers it again (_loop_state).  Per slot it keeps a sign, the way
the slot's nonbasic can move off its bound: +1 at its lower bound, -1 at
its upper bound, 0 when it is fixed.  The primal improving test is then one
product, sgn * d > OPTIMALITY_TOL, and the dual loop's eligible slots are
those where alpha * sgn points the right way.  Per row it keeps the upper
bound of the row's basic, and the primal loop also which of those bounds
are finite.  The state is computed once per LP, when _refactor builds the
tableau or _resolve moves its bounds; a bound flip changes one slot's
sign, and a pivot changes slot j's sign, for the leaving variable, and row
r's bound, for the entering one.  The dual loop, the primal loop and the
reduced-cost check (_priced_out) all read the same arrays.  The state only
saves work: every choice, and so every pivot, is the one the loops made
when they gathered it afresh at every iteration.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np
from scipy import sparse
from scipy.linalg.blas import dger
from scipy.linalg.lapack import dgecon, dgetrf, dgetrs

FEASIBILITY_TOL = 1e-7
OPTIMALITY_TOL = 1e-7
PIVOT_TOL = 1e-9
DEGENERATE_STEP = 1e-9
BLAND_TRIGGER = 1000
MAX_ITERATIONS = 10**6  # pivots one solve() call may make, over all its runs
RESIDUAL_TOL = 1e-6  # relative row and bound slack an "optimal" x may show

_LOWER, _UPPER, _BASIC = 0, 1, 2


class _Tableau(NamedTuple):
    """A tableau in the shifted variables y = x - lob."""

    T: np.ndarray  # B^-1 A_N: one column per nonbasic slot
    nb: np.ndarray  # the column held in each slot
    val: np.ndarray  # basic values
    basis: np.ndarray
    vstat: np.ndarray
    ubp: np.ndarray  # upper bounds of y
    d: np.ndarray  # reduced costs of c, per slot
    lob: np.ndarray
    # the loop state (_loop_state), kept current by _pivot and bound flips
    sgn: np.ndarray  # per slot, the way its nonbasic can move off its bound
    ub_row: np.ndarray  # per row, the upper bound of its basic


@dataclass
class SimplexResult:
    # optimal | infeasible | unbounded | iteration-limit | time-limit | numerical
    status: str
    objective: float
    x: np.ndarray | None
    iterations: int
    # the final tableau of an optimal solve, until a start_from solve takes
    # it over or the result's owner drops it; a share_start solve leaves it
    tableau: _Tableau | None = field(default=None, repr=False, compare=False)
    # an optimal solve's final basis: one status per structural, then per
    # row's logical
    basis: np.ndarray | None = field(default=None, repr=False, compare=False)


class SimplexSolver:
    """Reusable standard-form data; each solve() call builds its own tableau,
    takes over a held one or rebuilds one from a stored basis (start_from).

    Bounds passed to solve() override the stored ones, which is how
    branch-and-bound fixes binaries without rebuilding the matrix.  The
    crash start, start_at_upper, is part of the LP: a mask over the
    structurals, kept as given, that every cold start reads.
    """

    def __init__(
        self,
        c: np.ndarray,
        A: np.ndarray | sparse.sparray,
        senses: list[str],
        b: np.ndarray,
        lb: np.ndarray,
        ub: np.ndarray,
        start_at_upper: np.ndarray | None = None,
    ) -> None:
        self.nvars = len(c)
        self.c = np.asarray(c, dtype=float)
        self.A = sparse.csr_array(A, dtype=float, copy=True)
        self.A.sum_duplicates()  # _refactor writes each entry once
        unknown = set(senses) - {"<=", "=", ">="}
        if unknown:
            raise ValueError(f"unknown constraint sense {unknown.pop()!r}")
        kind = np.asarray(senses, dtype=str)
        self.row_sign = np.where(kind == ">=", -1.0, 1.0)
        self.b = self.row_sign * np.asarray(b, dtype=float)
        self._le = kind != "="
        self._row_tol = _residual_tol(self.b)  # the rows' bound, for _feasible
        self.senses = np.where(self._le, "<=", "=").tolist()
        self._cost = np.concatenate((self.c, np.zeros(len(kind))))  # logicals cost 0
        self.lb = np.asarray(lb, dtype=float)
        self.ub = np.asarray(ub, dtype=float)
        if np.any(np.isneginf(self.lb)):
            raise ValueError("all variables need finite lower bounds")
        # A with the >= rows negated, and the row of each entry.  Negation is
        # exact, so _signed @ x is row_sign * (A @ x) up to the sign of a zero
        self._rows = np.repeat(np.arange(len(kind)), np.diff(self.A.indptr))
        self._signed = sparse.csr_array(
            (self.row_sign[self._rows] * self.A.data, self.A.indices, self.A.indptr),
            shape=self.A.shape,
        )
        self.singular_blocks = 0  # stored bases that could not be factorised
        # the crash start of every cold start: structurals flagged here rest
        # at their upper bound, where it is finite
        self.start_at_upper = start_at_upper

    def solve(
        self,
        lb: np.ndarray | None = None,
        ub: np.ndarray | None = None,
        *,
        deadline: float | None = None,
        start_from: SimplexResult | None = None,
        share_start: bool = False,
    ) -> SimplexResult:
        """Solve under optional bound overrides in three steps.

        Start: start_from is an earlier result of this solver.  If it still
        holds its tableau, that tableau is taken from it and re-optimised in
        place under the new bounds; otherwise start_from's basis is
        factorised afresh.  With share_start, start_from keeps that tableau,
        the held or the fresh one, and the solve runs on a copy, so that a
        second solve from start_from can take it over; this is how both
        children of a branch-and-bound node start from the node's tableau at
        the cost of at most one factorisation.  Without a start_from, when
        its basis is missing or singular, or when the warm start ends
        "infeasible", the solve starts cold from the slack basis,
        crash-started by the solver's start_at_upper.  Optimise: _optimise
        runs the dual loop, then the primal loop.  Check: an "optimal" x that
        breaks a row or bound, or whose basis prices a slot in under reduced
        costs computed afresh, is re-optimised once from its own basis,
        factorised afresh (from the plain slack basis if that basis is
        singular); a second failure is "numerical", with the first point,
        and a retry cut short by the cap or the deadline reports that limit.
        An optimal result holds its final tableau until a start_from solve
        takes it over or its owner drops it.  All runs of one call together
        make at most MAX_ITERATIONS pivots, read at the call.  deadline is
        an absolute time.perf_counter() value.
        """
        lob = self.lb if lb is None else np.asarray(lb, dtype=float)
        upb = self.ub if ub is None else np.asarray(ub, dtype=float)
        if (upb - lob < -1e-12).any():
            return SimplexResult("infeasible", float("nan"), None, 0)
        cap = MAX_ITERATIONS
        result = None
        if start_from is not None:
            result = self._resolve(start_from, lob, upb, cap, deadline, share_start)
        if result is None or result.status == "infeasible":
            # a warm "infeasible" is confirmed by the cold start
            spent = 0 if result is None else result.iterations
            cold = self._solve(lob, upb, self.start_at_upper, cap - spent, deadline)
            result = replace(cold, iterations=spent + cold.iterations)
        if result.status == "optimal" and not (
            self._feasible(result.x, lob, upb) and self._priced_out(result.tableau)
        ):
            # one retry, from the rejected basis factorised afresh
            result.tableau = None  # one tableau alive at a time
            budget = cap - result.iterations
            retry = self._resolve(result, lob, upb, budget, deadline)
            if retry is None:
                # the plain slack basis: the crash start could replay the
                # run that drifted
                retry = self._solve(lob, upb, None, budget, deadline)
            iterations = result.iterations + retry.iterations
            if retry.status in ("iteration-limit", "time-limit") or (
                retry.status == "optimal" and self._feasible(retry.x, lob, upb)
                and self._priced_out(retry.tableau)
            ):
                # a retry cut short reports its limit: no check failed twice
                result = replace(retry, iterations=iterations)
            else:
                result = SimplexResult(
                    "numerical", result.objective, result.x, iterations
                )
        return result

    def _feasible(self, x: np.ndarray, lob: np.ndarray, upb: np.ndarray) -> bool:
        """Rows and bounds hold within RESIDUAL_TOL * max(1, |rhs|).

        Each bound side is first held to RESIDUAL_TOL alone, which implies
        the scaled test (max(1, |rhs|) >= 1 and rounding is monotone), so
        only a side that fails it builds its scaled tolerances.
        """
        excess = self._signed @ x - self.b
        excess = np.where(self._le, excess, np.abs(excess))
        return bool(
            (excess <= self._row_tol).all()
            and ((x >= lob - RESIDUAL_TOL).all()
                 or (x >= lob - _residual_tol(lob)).all())
            and ((x <= upb + RESIDUAL_TOL).all()
                 or (x <= upb + _residual_tol(upb)).all())
        )

    def _priced_out(self, tableau: _Tableau) -> bool:
        """No slot prices in under reduced costs computed afresh from the
        tableau, c_N - c_B T.

        The loops update d and T pivot by pivot, and after a tiny pivot the
        two can drift apart: d then shows no improving slot where T does.
        The slot signs are the tableau's kept ones, which no drift touches.
        """
        T, nb, _, basis, *_ = tableau
        d = self._cost[nb] - self._cost[basis] @ T
        return not (tableau.sgn * d > OPTIMALITY_TOL).any()

    def _solve(
        self,
        lob: np.ndarray,
        upb: np.ndarray,
        start_at_upper: np.ndarray | None,
        max_iterations: int,
        deadline: float | None,
    ) -> SimplexResult:
        """Optimise from the slack basis, crash-started: the structurals
        flagged in start_at_upper (None flags none) rest at their upper
        bound, which can make the start point feasible.  Phase 1 is the dual
        loop on a zero objective."""
        nv = self.nvars
        span = np.maximum(upb - lob, 0.0)
        crash = np.full(nv + len(self.b), _BASIC, dtype=np.int8)
        crash[:nv] = _LOWER
        if start_at_upper is not None:
            crash[:nv][start_at_upper & np.isfinite(span) & (span > 0)] = _UPPER
        tableau = self._refactor(crash, lob, span)
        return self._optimise(tableau, np.zeros(nv), max_iterations, deadline)

    def _resolve(
        self,
        start: SimplexResult,
        lob: np.ndarray,
        upb: np.ndarray,
        max_iterations: int,
        deadline: float | None,
        share: bool = False,
    ) -> SimplexResult | None:
        """Optimise start's basis under new bounds.

        start's kept tableau is taken over; without one its basis is
        factorised afresh.  With share, start keeps the tableau, kept or
        fresh, and a copy is optimised.  None means start has no basis, or a
        singular one.
        """
        tableau, start.tableau = start.tableau, None
        span = np.maximum(upb - lob, 0.0)
        if tableau is None and start.basis is not None:
            tableau = self._refactor(start.basis, lob, span)
            self.singular_blocks += tableau is None
        if tableau is None:
            return None
        if share:  # np.copy keeps T Fortran-ordered
            start.tableau, tableau = tableau, _Tableau(*map(np.copy, tableau))
        T, nb, val, basis, vstat, ubp, d, old_lob, *_ = tableau
        nv = self.nvars

        # every structural keeps its status and moves with its bound; the
        # basic values absorb the move, val -= column_k * shift_k.  A
        # nonbasic k's column is its slot's; a basic k's is the unit
        # column of its row, so only that row shifts.  Nothing moves in a
        # tableau just rebuilt at these bounds
        stat = vstat[:nv]
        old_x = old_lob + np.where(stat == _UPPER, ubp[:nv], 0.0)
        stat[(stat == _UPPER) & np.isinf(span)] = _LOWER
        shift = lob + np.where(stat == _UPPER, span, 0.0) - old_x
        moved = np.flatnonzero(shift)
        if moved.size:
            place = np.empty(len(vstat), dtype=np.intp)  # slot or row of a column
            place[nb] = np.arange(nb.size)
            place[basis] = np.arange(basis.size)
            basic = stat[moved] == _BASIC
            off = moved[~basic]
            if off.size:
                val -= T[:, place[off]] @ shift[off]
            val[place[moved[basic]]] -= shift[moved[basic]]
        ubp[:nv] = span
        sgn, ub_row = _loop_state(nb, basis, vstat, ubp)  # read at the new bounds
        tableau = tableau._replace(lob=lob, sgn=sgn, ub_row=ub_row)
        return self._optimise(tableau, d, max_iterations, deadline)

    def _optimise(
        self,
        tableau: _Tableau,
        d: np.ndarray,
        max_iterations: int,
        deadline: float | None,
    ) -> SimplexResult:
        """The dual loop on reduced costs d, then the primal loop on the
        tableau's own, and the result.

        A warm start passes the tableau's d, which the bound changes leave
        dual feasible.  A cold start passes a zero d, for which every basis
        is dual feasible, so the dual loop is phase 1: it ends at a feasible
        basis or at a row that proves the LP infeasible.  A phase 1 that
        pivoted has its basis priced afresh.
        """
        status, iterations = self._dual_iterate(
            tableau._replace(d=d), max_iterations, 0, deadline
        )
        if status == "optimal":
            if iterations and d is not tableau.d:  # a phase 1 that pivoted
                d = self._cost[tableau.nb] - self._cost[tableau.basis] @ tableau.T
                tableau = tableau._replace(d=d)
            status, iterations = self._iterate(
                tableau, max_iterations, iterations, deadline
            )
        return self._result(status, tableau, iterations)

    def _refactor(
        self, status: np.ndarray, lob: np.ndarray, span: np.ndarray
    ) -> _Tableau | None:
        """The tableau B^-1 A_N of a basis at bounds lob, lob + span: the one
        builder, for the cold start's slack basis and for stored bases alike.

        Rows are ordered with R1, the rows whose logical is nonbasic, first:
        there the basic structurals S hold the rows, and B11 = A[R1, S] is
        the only block factorised.  The other rows R2 keep their basic
        logical, so B^-1 = [[B11^-1, 0], [-A21 B11^-1, I]] with A21 =
        A[R2, S], kept sparse.  The slots hold the nonbasic columns in
        ascending order, and no temporary is larger than k x K, k = |S| and
        K the column count.  At the slack basis k = 0: T is A, rows in
        order, and no LU runs.  None if B11 is singular or ill-conditioned.
        """
        nv, m = self.nvars, len(self.b)
        K = nv + m
        basic = status == _BASIC
        S = np.flatnonzero(basic[:nv])
        R1 = np.flatnonzero(~basic[nv:])
        k = S.size
        if k != R1.size:
            return None
        place = np.empty(m, dtype=np.intp)  # each row's tableau row
        place[R1] = np.arange(k)
        place[basic[nv:]] = np.arange(k, m)
        vstat = status.copy()
        vstat[:nv][(vstat[:nv] == _UPPER) & np.isinf(span)] = _LOWER
        y = np.where(vstat[:nv] == _UPPER, span, 0.0)
        val = np.empty(m)
        val[place] = self.b - self.row_sign * (self.A @ (lob + y))
        nb = np.concatenate((np.flatnonzero(~basic[:nv]), nv + R1))
        slot = np.full(K, -1)  # each nonbasic column's slot
        slot[nb] = np.arange(nv)
        rows, cols, data = place[self._rows], self.A.indices, self._signed.data
        in_s = slot[cols] < 0  # the entries in basic structural columns
        kept = ~in_s
        T = np.zeros((m, nv), order="F")
        T[rows[kept], slot[cols[kept]]] = data[kept]
        T[np.arange(k), slot[nv + R1]] = 1.0
        if k:
            rank = np.full(nv, -1)  # each basic structural's place in S
            rank[S] = np.arange(k)
            block = in_s & (rows < k)
            B11 = np.zeros((k, k), order="F")
            B11[rows[block], rank[cols[block]]] = data[block]
            norm = np.abs(B11).sum(axis=0).max()
            lu, piv, info = dgetrf(B11, overwrite_a=1)
            if info != 0 or dgecon(lu, norm)[0] < PIVOT_TOL:
                return None
            # A21 in CSR: its entries already run in row order
            low = in_s & (rows >= k)
            indptr = np.zeros(m - k + 1, dtype=np.intp)
            np.cumsum(np.bincount(rows[low] - k, minlength=m - k), out=indptr[1:])
            A21 = sparse.csr_array(
                (data[low], rank[cols[low]], indptr), shape=(m - k, k)
            )
            x = np.ascontiguousarray(dgetrs(lu, piv, T[:k])[0])
            T[:k] = x
            width = k * K // max(m - k, 1)  # columns per product, within k x K
            for lo in range(0, nv, width):
                T[k:, lo:lo + width] -= A21 @ x[:, lo:lo + width]
            val[:k] = dgetrs(lu, piv, val[:k])[0]
            val[k:] -= A21 @ val[:k]

        basis = np.concatenate((S, nv + np.flatnonzero(basic[nv:])))
        ubp = np.concatenate((span, np.where(self._le, np.inf, 0.0)))
        d = self._cost[nb] - self.c[S] @ T[:k]
        return _Tableau(T, nb, val, basis, vstat, ubp, d, lob,
                        *_loop_state(nb, basis, vstat, ubp))

    def _result(
        self, status: str, tableau: _Tableau, iterations: int
    ) -> SimplexResult:
        """The point of a tableau, none if infeasible; an optimal one keeps the
        tableau and its basis."""
        if status == "infeasible":
            return SimplexResult(status, float("nan"), None, iterations)
        nv = self.nvars
        _, _, val, basis, vstat, ubp, _, lob, *_ = tableau
        y = np.where(vstat == _UPPER, ubp, 0.0)
        y[basis] = val
        x = y[:nv] + lob
        if status != "optimal":
            return SimplexResult(status, float(self.c @ x), x, iterations)
        stored = vstat.copy()
        stored[nv:][stored[nv:] == _UPPER] = _LOWER  # an = row's logical at 0
        return SimplexResult(status, float(self.c @ x), x, iterations, tableau, stored)

    @staticmethod
    def _iterate(
        tableau: _Tableau, max_iterations: int, iterations: int, deadline: float | None
    ) -> tuple[str, int]:
        """Primal simplex from a primal feasible basis.

        Of tied slots, the one holding the lowest column enters.  The
        tableau's slot signs and row bounds, and which row bounds are
        finite, are kept up to date across pivots and bound flips.  A basis
        that is already optimal, as after most warm dual runs, returns
        before any buffer is allocated.
        """
        T, nb, val, basis, vstat, ubp, d, _, sgn, ub_row = tableau
        candidates = (sgn * d > OPTIMALITY_TOL).nonzero()[0]
        if not candidates.size:
            return "optimal", iterations
        m = T.shape[0]
        finite = np.isfinite(ub_row)
        t_row = np.empty(m)  # the ratio test's step per row
        degenerate = 0
        weight = np.ones(len(nb))  # Devex reference weights, per slot
        while True:
            bland = degenerate > BLAND_TRIGGER
            if iterations >= max_iterations:
                return "iteration-limit", iterations
            if deadline is not None and time.perf_counter() > deadline:
                return "time-limit", iterations
            iterations += 1
            if bland or candidates.size == 1:
                j = _lowest(candidates, nb, None)
            else:
                d_c = d[candidates]
                j = _lowest(candidates, nb, d_c * d_c / weight[candidates])
            e = int(nb[j])
            dirn = sgn[j]
            g = dirn * T[:, j]

            # ratio test: basics hitting their lower (0) or upper bound, and
            # the entering variable hitting its own opposite bound.  A row
            # is either or neither, so both steps go to one buffer
            if m:
                t_row.fill(np.inf)
                down = g > PIVOT_TOL
                np.divide(np.maximum(val, 0.0), g, out=t_row, where=down)
                up = g < -PIVOT_TOL
                up &= finite
                np.divide(np.maximum(ub_row - val, 0.0), -g, out=t_row, where=up)
                t_rows = float(t_row[t_row.argmin()])  # a NaN wins, as in min()
            else:
                t_rows = np.inf
            t_self = float(ubp[e])

            if t_self <= t_rows:
                if np.isinf(t_self):
                    return "unbounded", iterations
                # bound flip: no basis change
                val -= t_self * g
                vstat[e] = _UPPER if vstat[e] == _LOWER else _LOWER
                sgn[j] = -dirn
            elif np.isinf(t_rows):
                return "unbounded", iterations
            else:
                ties = (t_row <= t_rows + 1e-9).nonzero()[0]
                if ties.size == 1:
                    r = int(ties[0])
                elif bland:
                    r = int(ties[np.argmin(basis[ties])])
                else:
                    r = int(ties[np.argmax(np.abs(g[ties]))])
                t = float(t_row[r])
                if t < DEGENERATE_STEP:
                    degenerate += 1

                val -= t * g
                piv = T[r, j]
                # row r's step is finite, so its basic fell to 0 exactly when
                # g[r] > 0
                row = _pivot(
                    tableau, r, j, (0.0 if dirn > 0 else ubp[e]) + dirn * t,
                    _LOWER if g[r] > 0.0 else _UPPER,
                )
                finite[r] = ub_row[r] < np.inf
                # Devex weight propagation onto the reference framework, which
                # Bland's rule never reads; slot j now holds the leaving variable
                if not bland:
                    w_e = weight[j]
                    np.maximum(weight, row * row * w_e, out=weight)
                    weight[j] = max(w_e / (piv * piv), 1.0)
            candidates = (sgn * d > OPTIMALITY_TOL).nonzero()[0]
            if not candidates.size:
                return "optimal", iterations

    @staticmethod
    def _dual_iterate(
        tableau: _Tableau, max_iterations: int, iterations: int, deadline: float | None
    ) -> tuple[str, int]:
        """Bounded dual simplex from a dual feasible basis.

        "optimal" here means primal feasible; "infeasible" means a row whose
        basic value no nonbasic can move back towards its bound.  Of tied
        slots, the one holding the lowest column enters.  The tableau's slot
        signs and row bounds are kept up to date across pivots.
        """
        T, nb, val, basis, vstat, ubp, d, _, sgn, ub_row = tableau
        if not basis.size:
            return "optimal", iterations
        degenerate = 0
        while True:
            violation = np.maximum(-val, val - ub_row)
            r = int(violation.argmax())
            if violation[r] != violation[r]:  # argmax's pick is a NaN row,
                violation[np.isnan(violation)] = -np.inf  # which never leaves
                r = int(violation.argmax())
            if not violation[r] > FEASIBILITY_TOL:
                return "optimal", iterations
            if iterations >= max_iterations:
                return "iteration-limit", iterations
            if deadline is not None and time.perf_counter() > deadline:
                return "time-limit", iterations
            iterations += 1
            bland = degenerate > BLAND_TRIGGER
            if bland:
                rows = (violation > FEASIBILITY_TOL).nonzero()[0]
                r = int(rows[np.argmin(basis[rows])])
            to_lower = val[r] < 0.0
            target = 0.0 if to_lower else float(ub_row[r])

            # a nonbasic y_k moving off its bound by t changes the row's basic
            # by -alpha_k * sgn_k * t; it is eligible when that is the way
            # the basic must go.  A fixed slot's sign is 0, so it never is
            alpha = T[r]
            slope = alpha * sgn
            eligible = (
                slope < -PIVOT_TOL if to_lower else slope > PIVOT_TOL
            ).nonzero()[0]
            if not eligible.size:
                return "infeasible", iterations
            # dual ratio test: the least |d_k / alpha_k| keeps every reduced
            # cost on its optimal side
            ratio = np.abs(d[eligible] / alpha[eligible])
            step = ratio[ratio.argmin()]  # a NaN wins, as in min()
            ties = eligible[ratio <= step + 1e-12]
            key = None if bland or ties.size == 1 else np.abs(alpha[ties])
            j = _lowest(ties, nb, key)
            e = int(nb[j])
            if step < DEGENERATE_STEP:
                degenerate += 1

            t = (val[r] - target) / alpha[j]  # change of y_e
            val -= t * T[:, j]
            _pivot(
                tableau, r, j, (ubp[e] if vstat[e] == _UPPER else 0.0) + t,
                _LOWER if to_lower else _UPPER,
            )


def _residual_tol(rhs: np.ndarray) -> np.ndarray:
    """The residual an "optimal" point may show against each rhs."""
    return RESIDUAL_TOL * np.maximum(1.0, np.abs(rhs))


def _loop_state(
    nb: np.ndarray, basis: np.ndarray, vstat: np.ndarray, ubp: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The state both loops read at every iteration, kept across pivots.

    Per slot, the way its nonbasic can move off its bound: +1 at its lower
    bound, -1 at its upper bound, 0 when it is fixed (upper bound 0).  Per
    row, the upper bound of its basic.  A bound flip changes one slot's
    sign; a pivot changes slot j's sign and row r's bound (_pivot).
    """
    sgn = np.where(ubp[nb] > 0.0, np.where(vstat[nb] == _UPPER, -1.0, 1.0), 0.0)
    return sgn, ubp[basis]


def _lowest(slots: np.ndarray, nb: np.ndarray, key: np.ndarray | None) -> int:
    """Of the slots with the largest key (all of them when key is None), the
    slot holding the lowest column: np.argmax's pick over the columns in
    column order, a NaN key counting as the largest."""
    if key is not None:
        top = key[key.argmax()]
        slots = slots[key == top if top == top else np.isnan(key)]
    if slots.size == 1:
        return int(slots[0])
    return int(slots[nb[slots].argmin()])


def _pivot(
    tableau: _Tableau,
    r: int,
    j: int,
    entering_val: float,
    leaving_status: int,
) -> np.ndarray:
    """Slot j's column enters the basis in row r and the leaving variable
    takes slot j; returns the new pivot row.

    The caller has already moved val along slot j; the leaving variable
    rests at the bound given by leaving_status.  The leaving variable's
    column is the unit column e_r, so a full-tableau update would make it
    -col * (1 / piv) with 1 / piv in row r; it is written so, with the same
    floating-point operations.  The rank-1 update runs on the whole tableau
    or, where _reach finds that cheaper, on the columns the pivot row
    reaches.  The loop's state follows: slot j takes the leaving variable's
    sign and row r the entering variable's bound.
    """
    T, nb, val, basis, vstat, ubp, d, _, sgn, ub_row = tableau
    leaving = basis[r]
    vstat[leaving] = leaving_status
    entering = nb[j]
    vstat[entering] = _BASIC
    basis[r] = entering
    nb[j] = leaving
    val[r] = entering_val
    if not ubp[leaving] > 0.0:
        sgn[j] = 0.0
    else:
        sgn[j] = -1.0 if leaving_status == _UPPER else 1.0
    ub_row[r] = ubp[entering]
    piv = T[r, j]
    row = T[r] / piv  # fresh contiguous array
    T[r] = row
    col = T[:, j].copy()
    col[r] = 0.0
    reach = _reach(T, row)
    if reach is None:
        dger(-1.0, col, row, a=T, overwrite_a=1)
    else:  # the gathered block is Fortran-ordered too, so dger takes it as is
        T[:, reach] = dger(-1.0, col, row[reach], a=T[:, reach], overwrite_a=1)
    d_e = d[j]
    d -= d_e * row
    inv = 1.0 / piv
    np.multiply(col, -inv, out=T[:, j])
    T[r, j] = inv
    d[j] = -(d_e * inv)
    return row


def _reach(T: np.ndarray, row: np.ndarray) -> np.ndarray | None:
    """The columns where the pivot row is nonzero, when the rank-1 update is
    cheaper on those alone; None when the whole tableau should be updated.

    Elsewhere the update only adds +-0.0, and dger computes every entry it
    touches the same way in a gathered block, so both paths give the same
    bits.  Measured per pivot (one-thread OpenBLAS, 2-core Xeon VM), the
    gathered path costs about 4 us plus 2-4 times the dense update's time
    per entry, and counting a row's nonzeros about 0.5-1 us.  It won below
    a row density of about 9% at 200 x 100 to 244 x 126, of 17-20% at
    264 x 136 to 288 x 159, of 23% at 400 x 200, and by 20x at 1% on
    950 x 500; at 140 x 85 and 170 x 106 it never won.  The n=15 U
    branch-and-bound tableaus, 218 x 124 to 288 x 159, have pivot rows 4-10%
    nonzero on average; the n=8 ones of more than 20,000 entries are 30-65%
    nonzero, so most of their rows are counted and then updated densely.
    So tableaus of up to 20,000 entries stay dense, and larger ones gather
    below 1/6.
    """
    m, n = T.shape
    if m * n <= 20000:
        return None
    reach = row.nonzero()[0]
    return reach if 6 * reach.size < n else None
