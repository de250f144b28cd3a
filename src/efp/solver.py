"""LP and MIP solving for the pricing formulations.

solve_lp and solve_mip share one set-up: the model's arrays, a presolve that
fixes dominated columns and drops rows that can never bind, and the simplex
built on what is left, crash-started at the price columns, which sit at
their upper bound in every cold start and feed the heuristic.  The presolve
keeps the LP's value at every branch-and-bound node; every x it returns, and
every objective, is mapped back to the model's full length.  solve_lp
evaluates a model's linear relaxation.

solve_mip runs best-bound branch-and-bound with plunging on the binary
assignment variables.  Every LP, the root included, passes through one node
step: the greedy turns its fractional prices, clipped at 0 as
primal_heuristic clips them, into the envy-free allocation, which is always
feasible, so the incumbent can improve at every LP; prices bit-equal to one
of the last two distinct vectors the search saw are skipped, since their
outcome was already offered.  Then the LP is closed (infeasible, failed, or
bounded by the cutoff) or kept open.  The search returns from one block
after its loop, the infeasible root included.  After a node's two children,
the better one kept open (higher bound, then lower LP number) is expanded
next, a dive, and the other goes on the heap; a dive ends when neither child
is kept open, and the best bound is popped.  The root is the first dive.

The search alone decides which tableaus live.  Every optimal LP result holds
its final tableau; the node step drops a closed LP's, and shelving a node on
the heap drops its tableau too, so a node on the heap keeps only its LP's
optimal basis, and only the node a dive expands next keeps its tableau.
Both children of a node start from the node's tableau: child x_j = 0 from a
copy, child x_j = 1 from the tableau itself.  A node popped from the heap
gets that tableau from one factorisation of its basis, inside the solve of
its child x_j = 0; the simplex's dual re-solve takes each child from there.
Only the root LP is solved cold.  An LP counts as optimal only after it
passes the simplex's row, bound and reduced-cost checks; otherwise it is
"numerical" and its bound is not trusted.  The time limit is a deadline
inside every LP as well as between nodes.

compare_relaxations evaluates all five relaxations of an instance and flags
any breach of the proven ordering LR_I <= LR_STM and LR_I <= LR_L <= LR_P <=
LR_U as a solver bug.
"""

from __future__ import annotations

import heapq
import logging
import math
import time
from dataclasses import dataclass
from itertools import compress
from typing import NamedTuple, Optional

import numpy as np
from scipy import sparse

from .allocation import Outcome, envy_free_allocation
from .core import Instance, Pricing
from .formulations import ALL_KINDS, MipModel, build
from .simplex import SimplexResult, SimplexSolver

log = logging.getLogger("efp.solver")

ORDER_TOL = 1e-6
INTEGRALITY_TOL = 1e-6


# the <= form of a row: a >= row is negated; an = row (0) has none
_ROW_SIGN = {"<=": 1.0, ">=": -1.0, "=": 0.0}


class InvalidLimitError(ValueError):
    """A time limit, node limit or gap tolerance outside its domain."""


@dataclass(frozen=True, eq=False)
class LpSolution:
    """Result of one linear-relaxation solve: x over the named columns, if any.

    The point is kept as its nonzeros, their positions and values: the
    n=50 U root's has about 135 of 2,600.  x and values read it at full
    length.
    """

    status: str  # optimal | infeasible | unbounded | iteration-limit | numerical
    objective: float
    names: tuple[str, ...]
    support: Optional[np.ndarray]  # positions of x's nonzeros; None without x
    nonzeros: Optional[np.ndarray]  # x at those positions
    iterations: int

    @property
    def x(self) -> Optional[np.ndarray]:
        if self.support is None:
            return None
        x = np.zeros(len(self.names))
        x[self.support] = self.nonzeros
        return x

    @property
    def values(self) -> dict[str, float]:
        x = self.x
        return {} if x is None else dict(zip(self.names, x.tolist()))


@dataclass(frozen=True)
class MipResult:
    """Branch-and-bound outcome with an honest bound and gap."""

    # optimal | feasible | infeasible; error marks a solve that raised in the
    # benchmark harness
    status: str
    incumbent: Optional[Outcome]
    incumbent_value: float
    bound: float
    gap: float
    nodes: int
    wall_seconds: float
    root_relaxation: float
    root_seconds: float


@dataclass(frozen=True)
class RelaxationReport:
    """The five relaxation values of one instance, plus ordering diagnostics."""

    values: dict[str, float]
    failed: tuple[str, ...]
    violations: tuple[tuple[str, float], ...]

    def ok(self) -> bool:
        return not self.failed and not self.violations


def model_arrays(model: MipModel):
    """The model's names and arrays with A dense, for reference solvers.

    Only perfbench/ calls it: its HiGHS reference reads models through it,
    and its tracer wraps it.
    """
    m = model
    return m.names, m.c, m.A.toarray(), m.senses, m.b, m.lb, m.ub, m.integer


def _presolve(c, A, senses, b, lb, ub, integer):
    """The columns fixed at their lower bound and the rows the LP keeps.

    Every row is read in <= form, a >= row negated, as a x <= h.  Three
    reductions keep the LP's value, and since branch-and-bound only tightens
    bounds, also the value at every node:

    1. A column with c_j <= 0, finite lb_j, no = row and no negative entry
       is fixed at lb_j: lowering it keeps every row and cannot lower the
       maximised objective.  In the five formulations these are the x_ib
       with v_ib = 0.
    2. A <= row r bounds each x_k with a_rk > 0 by lb_k + (h_r - minact_r)
       / a_rk, where minact_r is the row's least activity.  In it, the
       binaries of one packing row (rhs 1, every entry +1 on a binary)
       count only their most negative entry, as at most one of them is 1.
       These implied bounds are not written into the LP.
    3. A <= row whose greatest activity, under the bounds tightened by the
       implied ones, is at most its rhs is dropped, exactly, with no
       tolerance.  A packing row and a row that supplies an implied bound
       are kept, so the bounds the drop relies on stay in the LP.
    """
    m, n = A.shape
    row = np.repeat(np.arange(m), np.diff(A.indptr))
    col = A.indices
    sign = np.fromiter(map(_ROW_SIGN.__getitem__, senses), float, m)
    le = sign != 0
    sign[~le] = 1.0
    a = sign[row] * A.data

    blocked = np.zeros(n, dtype=bool)
    blocked[col[(a < 0) | ~le[row]]] = True
    fixed = (c <= 0) & np.isfinite(lb) & ~blocked
    h = sign * b - np.bincount(row, a * np.where(fixed, lb, 0.0)[col], minlength=m)

    live = ~fixed[col] & (a != 0)
    row, col, a = row[live], col[live], a[live]
    pos = a > 0
    # packing rows, and each binary's group: the first packing row it is in
    binary = integer & (lb == 0) & (ub == 1)
    unit = (a == 1) & binary[col]
    packing = (
        le & (h == 1)
        & (np.bincount(row, minlength=m) > 0)
        & (np.bincount(row[~unit], minlength=m) == 0)
    )
    group = np.full(n, m)
    in_packing = packing[row]
    np.minimum.at(group, col[in_packing], row[in_packing])

    # least activity: a grouped binary adds only its group's most negative
    # entry in the row, and nothing if its group has none there
    grouped = group[col] < m
    lo = a * np.where(pos, lb[col], ub[col])
    minact = np.bincount(row[~grouped], lo[~grouped], minlength=m)
    neg = grouped & ~pos
    key = row[neg] * m + group[col[neg]]
    order = np.argsort(key, kind="stable")
    key = key[order]
    new = np.ones(key.size, dtype=bool)
    new[1:] = key[1:] != key[:-1]
    starts = np.flatnonzero(new)
    least = np.minimum.reduceat(a[neg][order], starts) if key.size else key
    minact += np.bincount(key[starts] // m, least, minlength=m)

    # implied upper bounds, each with the first row that gives it
    bounding = le[row] & pos & np.isfinite(minact[row])
    brow, bcol = row[bounding], col[bounding]
    bound = lb[bcol] + (h[brow] - minact[brow]) / a[bounding]
    upper = ub.copy()
    np.minimum.at(upper, bcol, bound)
    tight = (bound < ub[bcol]) & (bound == upper[bcol])
    supplier = np.full(n, m)
    np.minimum.at(supplier, bcol[tight], brow[tight])
    keep = packing.copy()
    keep[supplier[supplier < m]] = True

    maxact = np.bincount(row, a * np.where(pos, upper[col], lb[col]), minlength=m)
    return fixed, keep | ~le | (maxact > h)


class _Setup(NamedTuple):
    """One model's presolved LP and the way back to the model's columns."""

    lp: SimplexSolver  # on the kept columns and rows only, crash-started at its prices
    binaries: np.ndarray  # the lp's binary columns
    columns: np.ndarray  # model position of each lp column
    fixed_x: np.ndarray  # full-length x: fixed columns at their value, 0 elsewhere
    offset: float  # c @ fixed_x, the fixed columns' share of the objective
    fixed_prices: np.ndarray  # fixed_x at the model's prices: the lp's read 0
    live_prices: np.ndarray  # which of the model's prices the lp keeps
    price_columns: np.ndarray  # the lp column of each kept price

    def full(self, x: np.ndarray) -> np.ndarray:
        """The lp's x at full length, in model positions."""
        out = self.fixed_x.copy()
        out[self.columns] = x
        return out

    def prices(self, x: np.ndarray) -> tuple[float, ...]:
        """The model's prices at the lp's x, clipped at 0 as the greedy reads
        them: full(x)[model.prices], without the full-length x."""
        out = self.fixed_prices.copy()
        out[self.live_prices] = x[self.price_columns]
        return _clip(out)


def _setup(model: MipModel) -> _Setup:
    """The presolved LP of one model and its binary positions.

    The LP keeps the columns and rows _presolve leaves, so its objective
    lacks the fixed columns' offset and full() maps its x back.  A is read
    as build() wrote it; the LP sorts the rows it keeps.  Its crash start is
    the model's price columns: every envy-style row holds when each price
    sits at the item's maximum valuation, so the slack basis is feasible and
    phase 1 (the dual loop on a zero objective) makes no pivot whenever the
    price cap is active.
    """
    c, A, b, lb, ub = model.c, model.A, model.b, model.lb, model.ub
    fixed, rows = _presolve(c, A, model.senses, b, lb, ub, model.integer)
    fixed_x = np.where(fixed, lb, 0.0)
    columns = np.flatnonzero(~fixed)
    lp_column = np.cumsum(~fixed) - 1  # each kept column's lp position
    lp = SimplexSolver(
        c[columns], _submatrix(A, rows, ~fixed, lp_column),
        list(compress(model.senses, rows)), (b - A @ fixed_x)[rows],
        lb[columns], ub[columns], np.isin(columns, model.prices),
    )
    binaries = np.flatnonzero(model.integer[columns])
    live = ~fixed[model.prices]
    return _Setup(
        lp, binaries, columns, fixed_x, float(c @ fixed_x),
        fixed_x[model.prices], live, lp_column[model.prices[live]],
    )


def _submatrix(A, rows: np.ndarray, kept: np.ndarray, position: np.ndarray):
    """A[rows][:, kept] in one pass over A's entries, each kept column
    renumbered by position.  A dropped row keeps no entry, so a kept row's
    entries start after the kept entries stored before it."""
    entry = kept[A.indices]
    entry &= np.repeat(rows, np.diff(A.indptr))
    idx = np.flatnonzero(entry)
    indptr = np.searchsorted(idx, A.indptr[np.append(np.flatnonzero(rows), len(rows))])
    return sparse.csr_array(
        (A.data[idx], position[A.indices[idx]], indptr),
        shape=(indptr.size - 1, np.count_nonzero(kept)),
    )


def solve_lp(model: MipModel) -> LpSolution:
    """Solve the linear relaxation of a model (integrality is ignored)."""
    s = _setup(model)
    res = s.lp.solve()
    support = nonzeros = None
    if res.x is not None:
        x = s.full(res.x)
        support = np.flatnonzero(x.view(np.int64))  # by bits: a -0.0 is kept
        nonzeros = x[support]
    return LpSolution(
        res.status, res.objective + s.offset, model.names, support, nonzeros,
        res.iterations,
    )


def _clip(prices) -> tuple[float, ...]:
    """Prices clipped at 0, a NaN to 0 as well: the prices the greedy reads.

    These are max(0.0, float(p)) for each p: fmax passes a NaN over, and
    adding 0.0 turns the -0.0 it keeps into 0.0.
    """
    return tuple((np.fmax(np.asarray(prices, dtype=float), 0.0) + 0.0).tolist())


def primal_heuristic(inst: Instance, prices) -> Outcome:
    """Greedy envy-free outcome at (possibly fractional) LP prices, clipped at 0.

    Feasible for every formulation, so it is always a valid incumbent.
    """
    return envy_free_allocation(inst, Pricing(_clip(prices)))


def _unseen(
    recent: list[Optional[tuple[float, ...]]], prices: tuple[float, ...]
) -> bool:
    """Whether prices is neither of the two most recent distinct price
    vectors in recent (most recent first), which then moves it to the front.

    A vector seen before has had its greedy outcome offered to the
    incumbent, which only rises, so the greedy need not run on it again.
    Clipped prices hold no NaN and no -0.0, so == is bit equality here.
    """
    if prices == recent[0]:
        return False
    fresh = prices != recent[1]
    recent[:] = prices, recent[0]
    return fresh


def _branch_variable(x: np.ndarray, int_idx: np.ndarray) -> Optional[int]:
    """Most-fractional binary; ties to larger LP value, then lower index."""
    xi = x[int_idx]
    frac = np.abs(xi - np.round(xi))
    eligible = frac > INTEGRALITY_TOL
    if not eligible.any():
        return None
    dist = np.abs(xi - 0.5)
    dist[~eligible] = np.inf
    best = dist[dist.argmin()]
    ties = np.flatnonzero(dist <= best + 1e-12)
    pick = ties[np.argmax(xi[ties])]
    return int(int_idx[pick])


# an open node: -bound, its LP's number (the tie-break), its bounds and its LP
# result; the node a dive is about to expand holds its LP's final tableau too
_Node = tuple[float, int, np.ndarray, np.ndarray, SimplexResult]


def _check_limits(
    time_limit: Optional[float], node_limit: Optional[int], gap_tolerance: float
) -> None:
    """Reject limits under which a search would report a wrong bound.

    A NaN tolerance fails every prune and push comparison, so no child is
    ever queued and the root incumbent comes back as the bound; a negative
    one reports a gap of 0 as "feasible".
    """
    if not (math.isfinite(gap_tolerance) and gap_tolerance >= 0):
        raise InvalidLimitError(
            f"gap tolerance must be finite and >= 0, got {gap_tolerance}"
        )
    if time_limit is not None and not time_limit > 0:
        raise InvalidLimitError(f"time limit must be > 0 seconds, got {time_limit}")
    if node_limit is not None and not node_limit >= 1:
        raise InvalidLimitError(f"node limit must be >= 1, got {node_limit}")


def solve_mip(
    model: MipModel,
    inst: Instance,
    *,
    time_limit: Optional[float] = None,
    node_limit: Optional[int] = None,
    gap_tolerance: float = 1e-6,
) -> MipResult:
    """Best-bound branch-and-bound with plunging over the binary assignment
    variables.

    Every LP, the root included, passes through one node step: its point,
    if any, gives a candidate incumbent, the greedy outcome at its clipped
    prices (the first is kept, then any strictly better one; prices among
    the last two distinct vectors seen are not run again), and an optimal
    LP whose bound exceeds the cutoff, incumbent + gap_tolerance * max(1,
    |incumbent|), is kept open; every other LP is closed.  One that ends
    "numerical" or at the iteration limit has no trusted bound, so it is
    closed with a warning and the search is no longer exhaustive.  An
    expanded node branches on its most fractional binary, or is dropped if
    integral.  The better child kept open is expanded next (a dive), the
    other is pushed on the heap, and when neither is kept open the best
    bound is popped.  A dive node whose bound no longer beats the cutoff is
    dropped alone; only a popped node that does not beat it ends the
    search, since every other open node is then bounded by it.  The search returns from one block after its
    loop: status "infeasible" with NaNs when no LP had a point.

    Limits never fail the solve: hitting one reports status "feasible" with
    the incumbent found so far and the honest remaining bound.  A dive node
    pending at a limit stays among the open ones, and a node LP cut short by
    the time limit puts its node back among them, so the bound stays finite;
    only a root LP cut short leaves it inf.  Raises
    InvalidLimitError unless gap_tolerance is finite and >= 0, time_limit
    is None or > 0 and node_limit is None or >= 1.
    """
    _check_limits(time_limit, node_limit, gap_tolerance)
    start = time.perf_counter()
    deadline = None if time_limit is None else start + time_limit
    s = _setup(model)
    incumbent: Optional[Outcome] = None
    inc_val = -math.inf
    exhaustive = True
    nodes = 0
    open_nodes: list[_Node] = []  # a heap, each node with its LP's basis only
    # the last two distinct price vectors of the search, most recent first
    recent: list[Optional[tuple[float, ...]]] = [None, None]

    def scale() -> float:
        return max(1.0, abs(inc_val))

    def cutoff() -> float:
        return inc_val + gap_tolerance * scale()

    def visit(res: SimplexResult, lb: np.ndarray, ub: np.ndarray) -> Optional[_Node]:
        """The node step for one LP; its open node if it is kept open."""
        nonlocal incumbent, inc_val, exhaustive, nodes
        nodes += 1
        if res.status == "unbounded":
            raise RuntimeError("pricing formulations are bounded; unbounded LP is a bug")
        if res.x is not None:
            prices = s.prices(res.x)
            if _unseen(recent, prices):
                candidate = envy_free_allocation(inst, Pricing(prices))
                if candidate.profit > inc_val:
                    incumbent, inc_val = candidate, candidate.profit
        if res.status == "optimal":
            bound, limit = res.objective + s.offset, cutoff()
            if bound > limit:
                log.debug("LP %d kept open at bound %.9g", nodes, bound)
                return (-bound, nodes, lb, ub, res)
            log.debug("LP %d closed by bound %.9g <= cutoff %.9g", nodes, bound, limit)
        elif res.status == "infeasible":
            log.debug("LP %d infeasible", nodes)
        elif res.status == "time-limit":
            log.debug("LP %d cut short by the time limit", nodes)
        else:
            log.warning("LP %d ended with status %s", nodes, res.status)
            exhaustive = False
        res.tableau = None  # a closed LP's tableau serves no child
        return None

    def shelve(node: _Node) -> None:
        """Put an open node on the heap with its basis only."""
        node[4].tableau = None
        heapq.heappush(open_nodes, node)

    root = s.lp.solve(deadline=deadline)
    root_seconds = time.perf_counter() - start
    dive = visit(root, s.lp.lb, s.lp.ub)  # the root is the first dive
    if root.status == "time-limit":
        exhaustive = False  # a root LP cut short leaves no bound to fall back on
    while dive is not None or open_nodes:
        if deadline is not None and time.perf_counter() > deadline:
            break
        if node_limit is not None and nodes >= node_limit:
            break
        if dive is None:
            node = heapq.heappop(open_nodes)
            if -node[0] <= cutoff():
                open_nodes.clear()
                break
            log.debug("heap pops node of LP %d", node[1])
        else:
            node, dive = dive, None
            if -node[0] <= cutoff():
                log.debug(
                    "dive node of LP %d dropped by bound %.9g <= cutoff %.9g",
                    node[1], -node[0], cutoff(),
                )
                continue
            log.debug("dive reaches node of LP %d", node[1])
        _, number, node_lb, node_ub, res = node
        branch = _branch_variable(res.x, s.binaries)
        if branch is None:
            log.debug("node of LP %d is integral", number)
            continue
        log.debug("node of LP %d branches on %s", number, model.names[s.columns[branch]])
        # both children start from the node's tableau: child 0 from a copy
        # (after one factorisation of the node's basis if the node came from
        # the heap) and child 1 from the tableau itself
        children: list[_Node] = []
        for fixed in (0.0, 1.0):
            child_lb = node_lb.copy()
            child_ub = node_ub.copy()
            child_lb[branch] = fixed
            child_ub[branch] = fixed
            child = s.lp.solve(
                child_lb, child_ub, deadline=deadline, start_from=res,
                share_start=fixed == 0.0,
            )
            kept = visit(child, child_lb, child_ub)
            if child.status == "time-limit":
                break
            if kept is not None:
                children.append(kept)
        if child.status == "time-limit":
            shelve(node)  # the node's own bound still covers both children
            break
        if children:
            # plunge into the better child (higher bound, then lower LP
            # number); only it keeps its final tableau
            dive = min(children)
            for other in children:
                if other is not dive:
                    shelve(other)
    if dive is not None:
        shelve(dive)  # a dive pending at a limit stays open, so the bound is honest

    wall = time.perf_counter() - start
    # a root LP cut short reached some point, not the relaxation's optimum
    root_relaxation = root.objective + s.offset if root.status == "optimal" else math.nan
    if incumbent is None:  # no LP had a point: the root LP is infeasible
        status, inc_val, bound, gap = "infeasible", math.nan, math.nan, math.nan
    else:
        open_best = max((-entry[0] for entry in open_nodes), default=-math.inf)
        bound = max(inc_val, open_best if exhaustive else math.inf)
        gap = max(0.0, (bound - inc_val) / scale())
        status = "optimal" if gap <= gap_tolerance else "feasible"
    return MipResult(
        status, incumbent, inc_val, bound, gap, nodes, wall,
        root_relaxation, root_seconds,
    )


_ORDER_CHECKS = (
    ("I", "STM"),
    ("I", "L"),
    ("L", "P"),
    ("P", "U"),
)

# each find_strict_instance target: the relaxation pairs (lo, hi) it wants
# strictly apart, LR_lo < LR_hi - ORDER_TOL
STRICT_TARGETS = {"i-stm": (("I", "STM"),), "l-p-u": (("L", "P"), ("P", "U"))}


def _strictly_below(values: dict[str, float], lo: str, hi: str) -> bool:
    return values[lo] < values[hi] - ORDER_TOL


def compare_relaxations(inst: Instance, *, price_bound: bool = True) -> RelaxationReport:
    """Solve all five relaxations and verify the proven ordering.

    Any breach beyond 1e-6 is reported as a violation (a solver bug, not a
    property of the instance).  A strict LR_I < LR_L gap is merely logged:
    whether one exists is an open question and the suite asserts nothing
    about it.
    """
    values: dict[str, float] = {}
    failed: list[str] = []
    for kind in ALL_KINDS:
        sol = solve_lp(build(inst, kind, price_bound=price_bound))
        if sol.status == "optimal":
            values[kind.value] = sol.objective
        else:
            values[kind.value] = math.nan
            failed.append(kind.value)
    violations: list[tuple[str, float]] = []
    if not failed:
        for lo, hi in _ORDER_CHECKS:
            delta = values[lo] - values[hi]
            if delta > ORDER_TOL:
                violations.append((f"LR_{lo} <= LR_{hi}", delta))
        if _strictly_below(values, "I", "L"):
            log.info(
                "instance with LR_I < LR_L found: %.9g < %.9g",
                values["I"], values["L"],
            )
    return RelaxationReport(values, tuple(failed), tuple(violations))


def find_strict_instance(
    target: str, *, budget: int = 500, base_seed: int = 0
) -> Optional[tuple[str, Instance, RelaxationReport]]:
    """Search small generated instances for a strict relaxation separation.

    The target names the pairs STRICT_TARGETS holds for it: "i-stm" wants
    LR_I < LR_STM - 1e-6; "l-p-u" wants LR_L < LR_P - 1e-6 and LR_P < LR_U -
    1e-6.  Returns (description, instance, report) for the first hit within
    the budget, None otherwise.
    """
    from .generators import MODELS, generate, preset, smallest_preset_size

    if target not in STRICT_TARGETS:
        raise ValueError(f"unknown search target {target!r}")
    pairs = STRICT_TARGETS[target]
    for trial in range(budget):
        model = MODELS[trial % 3]
        n = max(3 + (trial // 3) % 4, smallest_preset_size(model))
        seed = base_seed + trial
        inst = generate(model, preset(model, n), seed)
        report = compare_relaxations(inst)
        if report.failed:
            continue
        if all(_strictly_below(report.values, lo, hi) for lo, hi in pairs):
            return f"{model} n={n} seed={seed}", inst, report
    return None
