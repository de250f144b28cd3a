import inspect
import logging
import math
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from efp import simplex
from efp import solver as solver_module
from efp.allocation import is_envy_free
from efp.core import validate_instance
from efp.formulations import (
    ALL_KINDS,
    FormulationKind,
    MipModel,
    build,
    constraint_violations,
)
from efp.generators import generate, preset
from efp.simplex import SimplexSolver
from efp.solver import compare_relaxations, solve_lp, solve_mip

import reference_simplex
from conftest import make_fig1
from reference_lp import reference_lp_optimum


def _stored(A):
    """Bytes of everything a caller's A holds, dense or sparse."""
    if sparse.issparse(A):
        return A.data.tobytes(), A.indices.tobytes(), A.indptr.tobytes()
    return A.tobytes()


def _solvers(c, A, senses, b, lb, ub):
    """Yield the LP's solver built from a dense A, then from a sparse A.

    Each is yielded before the caller solves it; on resuming, the caller's A
    must be exactly as it was given.
    """
    if sparse.issparse(A):
        A = A.toarray()
    dense = np.array(A, float).reshape(len(senses), len(c))
    for given in (dense, sparse.csr_array(dense)):
        before = _stored(given)
        yield SimplexSolver(
            np.array(c, float),
            given,
            senses,
            np.array(b, float),
            np.array(lb, float),
            np.array(ub, float),
        )
        assert _stored(given) == before


def test_optimum_at_variable_bounds_without_constraints():
    for s in _solvers([1.0, -2.0], [], [], [], [0.0, -1.0], [3.0, 5.0]):
        res = s.solve()
        assert res.status == "optimal"
        assert res.objective == pytest.approx(3.0 + 2.0)
        assert tuple(res.x) == (3.0, -1.0)


def test_classic_two_variable_lp():
    # max x + y st x + 2y <= 4, 3x + y <= 6 -> (1.6, 1.2), value 2.8
    lp = ([1, 1], [[1, 2], [3, 1]], ["<=", "<="], [4, 6], [0, 0], [np.inf] * 2)
    for s in _solvers(*lp):
        res = s.solve()
        assert res.status == "optimal"
        assert res.objective == pytest.approx(2.8)


def test_equality_constraint():
    # max x + y st x + y = 2, x <= 1.5
    for s in _solvers([1, 1], [[1, 1]], ["="], [2], [0, 0], [1.5, np.inf]):
        res = s.solve()
        assert res.status == "optimal"
        assert res.objective == pytest.approx(2.0)


def test_greater_equal_constraint():
    # max -x st x >= 3
    for s in _solvers([-1], [[1]], [">="], [3], [0], [np.inf]):
        res = s.solve()
        assert res.status == "optimal"
        assert res.objective == pytest.approx(-3.0)


def test_infeasible():
    for s in _solvers([1], [[1]], [">="], [2], [0], [1.0]):
        assert s.solve().status == "infeasible"


def test_zero_cost_dual_proves_an_equality_row_infeasible():
    # x + y = 3 with x, y <= 1: the slack basis breaks the row, and phase 1
    # ends at a row no nonbasic can move back
    for s in _solvers([1, 1], [[1, 1]], ["="], [3], [0, 0], [1, 1]):
        res = s.solve()
        assert (res.status, res.x) == ("infeasible", None)


def test_conflicting_bounds_infeasible():
    for s in _solvers([1], [[1]], ["<="], [5], [2.0], [1.0]):
        assert s.solve().status == "infeasible"


def test_unbounded():
    for s in _solvers([1], [[-1]], ["<="], [0], [0], [np.inf]):
        assert s.solve().status == "unbounded"


def test_iteration_limit(monkeypatch):
    lp, _, _ = _lp(build(make_fig1(), "STM"))
    monkeypatch.setattr(simplex, "MAX_ITERATIONS", 1)
    res = lp.solve()
    assert res.status == "iteration-limit"
    assert res.iterations == 1


def test_fixed_variables_respected():
    for s in _solvers([1, 1], [[1, 1]], ["<="], [10], [2, 0], [2, 3]):
        res = s.solve()
        assert res.status == "optimal"
        assert res.x[0] == pytest.approx(2.0)
        assert res.objective == pytest.approx(5.0)


def test_negative_lower_bounds():
    # max -x - y st x + y >= -3, lb = -5
    for s in _solvers([-1, -1], [[1, 1]], [">="], [-3], [-5, -5], [np.inf] * 2):
        res = s.solve()
        assert res.status == "optimal"
        assert res.objective == pytest.approx(3.0)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_matches_reference_solver_on_worked_instance(kind):
    model = build(make_fig1(), kind)
    mine = solve_lp(model)
    assert mine.status == "optimal"
    assert mine.objective == pytest.approx(reference_lp_optimum(model), abs=1e-6)


@pytest.mark.parametrize("price_bound", [True, False])
def test_matches_reference_solver_on_generated_instances(price_bound):
    # without the price cap the crash point breaks rows, so phase 1 runs
    checked = 0
    for model_name, n in (("characteristics", 5), ("neighborhood", 5), ("popularity", 8)):
        for seed in range(3):
            inst = generate(model_name, preset(model_name, n), seed)
            for kind in ALL_KINDS:
                model = build(inst, kind, price_bound=price_bound)
                mine = solve_lp(model)
                assert mine.status == "optimal"
                ref = reference_lp_optimum(model)
                assert mine.objective == pytest.approx(ref, abs=1e-6), (
                    model_name, seed, kind,
                )
                checked += 1
    assert checked == 45


def test_blands_rule_path_agrees(monkeypatch):
    model = build(make_fig1(), "I")
    solver = SimplexSolver(model.c, model.A, model.senses, model.b, model.lb, model.ub)
    plain = solver.solve()
    monkeypatch.setattr(simplex, "BLAND_TRIGGER", 0)
    bland = solver.solve()
    assert bland.status == "optimal"
    assert bland.objective == pytest.approx(plain.objective, abs=1e-7)


def test_blands_rule_leaves_the_devex_weights_alone(monkeypatch):
    # under Bland's rule the weights used to keep growing until they
    # overflowed to inf and then NaN on this model
    model = build(generate("popularity", preset("popularity", 10), 1), "STM")
    devex = solve_lp(model)
    monkeypatch.setattr(simplex, "BLAND_TRIGGER", 0)
    with np.errstate(over="raise", invalid="raise"):
        bland = solve_lp(model)
    assert devex.status == bland.status == "optimal"
    assert bland.objective == pytest.approx(devex.objective, abs=1e-7)


# The pivot sequence, pinned by values measured on the full m x (n + m)
# tableau: fig1's root LP iterations per formulation, and on characteristics
# n=8, seed 0 each uncapped search's nodes and its pivots over all LPs.  The
# condensed tableau keeps one column per nonbasic slot, and slots are not in
# column order; a tie broken by slot order instead of the lowest column
# changes these counts.  Bland's rule from the first pivot (trigger -1) pins
# its own tie-breaks.
_PINNED_PIVOTS = {
    1000: (
        {"STM": 27, "I": 24, "L": 19, "P": 14, "U": 10},
        {"STM": (111, 1053), "I": (23, 404), "L": (23, 372), "P": (35, 178),
         "U": (37, 130)},
    ),
    -1: (
        {"STM": 28, "I": 27, "L": 26, "P": 17, "U": 11},
        {"STM": (111, 2282), "I": (23, 945), "L": (23, 899), "P": (35, 285),
         "U": (37, 248)},
    ),
}


def _count_pivots(monkeypatch):
    """The pivots of every solve() call from now on, appended to one list."""
    pivots = []
    solve = SimplexSolver.solve

    def counted(self, *args, **kwargs):
        result = solve(self, *args, **kwargs)
        pivots.append(result.iterations)
        return result

    monkeypatch.setattr(SimplexSolver, "solve", counted)
    return pivots


@pytest.mark.parametrize("trigger", sorted(_PINNED_PIVOTS))
def test_pivot_sequence_is_pinned(monkeypatch, trigger):
    fig1_iterations, searches = _PINNED_PIVOTS[trigger]
    monkeypatch.setattr(simplex, "BLAND_TRIGGER", trigger)
    pivots = _count_pivots(monkeypatch)
    assert {
        kind.value: solve_lp(build(make_fig1(), kind)).iterations for kind in ALL_KINDS
    } == fig1_iterations
    inst = generate("characteristics", preset("characteristics", 8), 0)
    for kind in ALL_KINDS:
        pivots.clear()
        result = solve_mip(build(inst, kind), inst)
        assert result.status == "optimal"
        assert (result.nodes, sum(pivots)) == searches[kind.value], kind
        assert result.incumbent_value == pytest.approx(740.049380512, abs=1e-9)


# Criterion 10's ten uncapped U searches at n=15, each one's nodes and its
# pivots over all LPs.  Their tableaus are large and sparse enough for the
# gathered pivot update, and their searches plunge, which the n=8 market
# above does not show.
_PINNED_N15 = {
    ("popularity", 0): (247, 841), ("popularity", 1): (99, 425),
    ("popularity", 2): (123, 525), ("popularity", 3): (127, 568),
    ("characteristics", 0): (419, 1276), ("characteristics", 1): (81, 299),
    ("characteristics", 2): (459, 1645), ("neighborhood", 0): (59, 239),
    ("neighborhood", 1): (1183, 6346), ("neighborhood", 2): (409, 2095),
}


def test_n15_searches_are_pinned(monkeypatch):
    pivots = _count_pivots(monkeypatch)
    for (model, seed), pinned in _PINNED_N15.items():
        inst = generate(model, preset(model, 15), seed)
        pivots.clear()
        result = solve_mip(build(inst, FormulationKind.U), inst)
        assert result.status == "optimal"
        assert (result.nodes, sum(pivots)) == pinned, (model, seed)


# fig1's root LP iterations without the price cap, where the crash point
# breaks rows and phase 1, the dual loop on a zero objective, runs first
_PINNED_UNCAPPED = {
    1000: {"STM": 35, "I": 30, "L": 25, "P": 17, "U": 11},
    -1: {"STM": 46, "I": 30, "L": 27, "P": 21, "U": 20},
}


@pytest.mark.parametrize("trigger", sorted(_PINNED_UNCAPPED))
def test_uncapped_pivot_sequence_is_pinned(monkeypatch, trigger):
    monkeypatch.setattr(simplex, "BLAND_TRIGGER", trigger)
    assert {
        kind.value: solve_lp(build(make_fig1(), kind, price_bound=False)).iterations
        for kind in ALL_KINDS
    } == _PINNED_UNCAPPED[trigger]


def _loop_slack_tableau(solver, x0):
    """Row-by-row build of the slack-basis tableau at x0, the reference for
    _refactor: A's stored entries and b - A x0, with the solver's A and b,
    whose >= rows are negated.

    Only stored entries are negated, so unstored zeros stay +0.0.
    """
    nv, m, A = solver.nvars, len(solver.b), solver.A
    T = np.zeros((m, nv), order="F")
    val = np.empty(m)
    for r in range(m):
        entries = range(A.indptr[r], A.indptr[r + 1])
        ax = 0.0
        for e in entries:
            T[r, A.indices[e]] = A.data[e]
            ax += A.data[e] * x0[A.indices[e]]
        val[r] = solver.b[r] - ax
    return T, val


def test_slack_basis_tableau_matches_row_loop():
    models = [build(make_fig1(), kind) for kind in ALL_KINDS]
    lps = [
        (model.c, model.A, model.senses, model.b, model.lb, model.ub,
         np.array([n.startswith("p_") for n in model.names]))
        for model in models
    ]
    lps.append(([1, 1], [[1, 2], [3, 1], [1, 1]], ["<=", ">=", "="], [4, 6, 2],
                [0, 0], [np.inf] * 2, None))
    starts = []
    for c, A, senses, b, lb, ub, prices in lps:
        # the solver holds the LP's A and b with the >= rows negated
        sign = np.where(np.asarray(senses) == ">=", -1.0, 1.0)
        dense = A.toarray() if sparse.issparse(A) else np.array(A, float)
        for solver in _solvers(c, A, senses, b, lb, ub):
            assert np.array_equal(solver.A.toarray(), sign[:, None] * dense)
            assert np.array_equal(solver.b, sign * np.asarray(b, float))
            starts.append((solver, np.zeros(len(c), dtype=bool)))
            if prices is not None:
                starts.append((solver, prices))
    for solver, upper in starts:
        nv, m = solver.nvars, len(solver.b)
        span = np.maximum(solver.ub - solver.lb, 0.0)
        status = np.full(nv + m, simplex._BASIC, dtype=np.int8)
        status[:nv] = np.where(upper, simplex._UPPER, simplex._LOWER)
        tableau = solver._refactor(status, solver.lb, span)
        x0 = solver.lb + np.where(upper, span, 0.0)
        want_T, want_val = _loop_slack_tableau(solver, x0)
        for got, want in ((tableau.T, want_T), (tableau.val, want_val)):
            assert got.tobytes() == want.tobytes()  # bit for bit, signed zeros too
        # the structurals fill the slots in order, every logical is basic in
        # its own row, and an = row's logical is fixed at 0
        assert tableau.nb.tolist() == list(range(nv))
        assert tableau.basis.tolist() == list(range(nv, nv + m))
        assert tableau.vstat.tobytes() == status.tobytes()
        assert tableau.ubp.tolist() == span.tolist() + [
            np.inf if sense == "<=" else 0.0 for sense in solver.senses
        ]
        assert tableau.d.tobytes() == solver.c.tobytes()


def test_crash_start_agrees():
    model = build(make_fig1(), "U")
    lp = (model.c, model.A, model.senses, model.b, model.lb, model.ub)
    cold = SimplexSolver(*lp).solve()
    prices = np.array([n.startswith("p_") for n in model.names])
    crash = SimplexSolver(*lp, start_at_upper=prices).solve()
    assert crash.status == "optimal"
    assert crash.objective == pytest.approx(cold.objective, abs=1e-7)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_optimal_solutions_are_feasible(kind):
    model = build(make_fig1(), kind)
    sol = solve_lp(model)
    assert sol.status == "optimal"
    assert not constraint_violations(model, sol.values, tol=1e-7)


@pytest.mark.parametrize(
    "model_name, seed",
    [("popularity", 113432314267342), ("characteristics", 213719188383311)],
)
def test_drifted_optimum_is_re_solved(model_name, seed):
    # the crash-started tableau drifts to an "optimal" basis that breaks rows
    # of formulation I on these markets (202.37 and 747.75 unchecked)
    inst = generate(model_name, preset(model_name, 8), seed)
    model = build(inst, FormulationKind.I)
    sol = solve_lp(model)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(reference_lp_optimum(model), abs=1e-6)
    assert not constraint_violations(model, sol.values, tol=1e-6)
    report = compare_relaxations(inst)
    assert report.ok(), report


def test_drifted_reduced_costs_are_re_solved(monkeypatch):
    # the crash-started primal loop pivots on 1e-5 here, and its kept d then
    # prices no slot in although T does: unchecked, formulation I's LP ends
    # "optimal" at 5.99999, with a feasible point, below HiGHS's 6
    inst = validate_instance(2, 3, [(0, 2, 2.0), (1, 0, 2.00001), (1, 1, 2.0),
                                    (1, 2, 2.00001)])
    model = build(inst, FormulationKind.I)
    priced_out, verdicts = SimplexSolver._priced_out, []

    def spy(self, tableau):
        verdicts.append(priced_out(self, tableau))
        return verdicts[-1]

    monkeypatch.setattr(SimplexSolver, "_priced_out", spy)
    sol = solve_lp(model)
    assert verdicts == [False, True]  # rejected once, then re-solved
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(reference_lp_optimum(model), abs=1e-9)
    assert not constraint_violations(model, sol.values, tol=1e-6)


def _lp(model):
    """The solver and binary columns solve_mip uses for a model, and the
    model name of each of the solver's columns.  The solver's crash start,
    lp.start_at_upper, is the price mask."""
    s = solver_module._setup(model)
    return s.lp, s.binaries, [model.names[k] for k in s.columns]


def _fixed(lp, j, value):
    lb, ub = lp.lb.copy(), lp.ub.copy()
    lb[j] = ub[j] = value
    return lb, ub


def _fractional(x, int_idx):
    return [int(j) for j in int_idx if abs(x[j] - round(x[j])) > 1e-6]


def _markets():
    """fig1 and one market per generator at n = 6, 7, 8."""
    return [make_fig1()] + [
        generate(name, preset(name, n), 0)
        for name, n in (("characteristics", 6), ("neighborhood", 7), ("popularity", 8))
    ]


def _in_fixed_space(tableau):
    """A tableau's rows, keyed by their basic column, and its reduced costs,
    over the fixed column space: structurals, then one logical per row.

    The kept nonbasic columns are expanded to the full tableau, with the
    unit column of each basic.
    """
    m = tableau.basis.size
    K = tableau.nb.size + m
    full = np.zeros((m, K))
    full[:, tableau.nb] = tableau.T
    full[np.arange(m), tableau.basis] = 1.0
    d = np.zeros(K)
    d[tableau.nb] = tableau.d
    rows = {int(f): (full[i], tableau.val[i]) for i, f in enumerate(tableau.basis)}
    return rows, d


def _assert_rebuilt_matches_kept(lp, kept, basis):
    """The tableau rebuilt from basis at kept's bounds equals kept within 1e-9."""
    rebuilt = lp._refactor(basis, kept.lob, kept.ubp[: lp.nvars])
    kept_rows, kept_d = _in_fixed_space(kept)
    rows, d = _in_fixed_space(rebuilt)
    assert rows.keys() == kept_rows.keys()
    for f, (row, value) in rows.items():
        assert np.max(np.abs(row - kept_rows[f][0])) <= 1e-9, f
        assert abs(value - kept_rows[f][1]) <= 1e-9, f
    assert np.max(np.abs(d - kept_d)) <= 1e-9


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_rebuilt_tableau_matches_the_kept_one(kind):
    for inst in _markets():
        lp, _, _ = _lp(build(inst, kind))
        root = lp.solve()
        assert root.status == "optimal"
        _assert_rebuilt_matches_kept(lp, root.tableau, root.basis)


def test_basis_maps_every_row_to_its_logical():
    # max 2x + y st x + y = 2, x + y >= 2, x <= 1.5: the slack basis breaks
    # the = and the >= row, and the optimum is degenerate, with one of the
    # three logicals basic at 0
    c, A, senses, b = [2, 1], [[1, 1], [1, 1], [1, 0]], ["=", ">=", "<="], [2, 2, 1.5]
    for lp in _solvers(c, A, senses, b, [0, 0], [np.inf] * 2):
        root = lp.solve()
        assert root.status == "optimal" and root.objective == pytest.approx(3.5)
        kept = root.tableau
        # x and y basic, the = row's and the <= row's logicals nonbasic
        B, L = simplex._BASIC, simplex._LOWER
        assert root.basis.tolist() == [B, B, L, B, L]
        _assert_rebuilt_matches_kept(lp, kept, root.basis)
        for ub, status, objective in (
            ([1.0, np.inf], "optimal", 3.0), ([np.inf, 0.25], "infeasible", None),
        ):
            warm = lp.solve(lp.lb, np.array(ub), start_from=root)
            assert warm.status == status
            if objective is not None:
                assert warm.objective == pytest.approx(objective)
        assert lp.singular_blocks == 0


@pytest.mark.parametrize("breakdown", ["singular", "ill-conditioned"])
def test_singular_block_falls_back_to_the_cold_solve(monkeypatch, breakdown):
    lp, int_idx, _ = _lp(build(make_fig1(), FormulationKind.U))
    prices = lp.start_at_upper
    root = lp.solve()
    root.tableau = None  # the warm start factorises the root's basis
    bounds = _fixed(lp, _fractional(root.x, int_idx)[0], 0.0)
    cold = lp.solve(*bounds)
    if breakdown == "singular":
        getrf = simplex.dgetrf
        monkeypatch.setattr(simplex, "dgetrf", lambda a, **kw: (*getrf(a, **kw)[:2], 1))
    else:
        monkeypatch.setattr(simplex, "dgecon", lambda lu, norm: (1e-17, 0))
    starts, solve = [], SimplexSolver._solve

    def spy_solve(self, lob, upb, start_at_upper, *args):
        starts.append(start_at_upper)
        return solve(self, lob, upb, start_at_upper, *args)

    monkeypatch.setattr(SimplexSolver, "_solve", spy_solve)
    warm = lp.solve(*bounds, start_from=root)
    assert lp.singular_blocks == 1
    assert len(starts) == 1 and starts[0] is prices
    assert (warm.status, warm.objective, warm.iterations) == (
        cold.status, cold.objective, cold.iterations,
    )

    # a rejected point whose basis is singular is re-solved from the slack basis
    feasible = SimplexSolver._feasible
    checks = []

    def reject_first_point(self, *args):
        checks.append(None)
        return len(checks) > 1 and feasible(self, *args)

    monkeypatch.setattr(SimplexSolver, "_feasible", reject_first_point)
    starts.clear()
    retried = lp.solve(*bounds)
    assert lp.singular_blocks == 2
    assert len(starts) == 2 and starts[0] is prices and starts[1] is None
    assert retried.status == "optimal"
    assert retried.objective == pytest.approx(cold.objective, abs=1e-9)


def _warm_child(lp, j):
    """Child x_j = 0 cold, then child x_j = 1 warm from its final tableau."""
    child0 = lp.solve(*_fixed(lp, j, 0.0))
    warm = lp.solve(*_fixed(lp, j, 1.0), start_from=child0)
    assert child0.tableau is None  # taken over
    # an optimal result holds its final tableau, any other none
    assert (warm.tableau is None) == (warm.status != "optimal")
    return warm


def _warm_solves(lp, j, root):
    """Children x_j = 0 and x_j = 1 from the root's basis, then x_j = 1 from
    its sibling's final tableau, each with the value x_j is fixed at."""
    for value in (0.0, 1.0):
        bounds = _fixed(lp, j, value)
        yield value, lp.solve(*bounds, start_from=root)
    yield 1.0, _warm_child(lp, j)


class _WarmSolves:
    """Each warm re-solve's own result, before any cold fallback, and the
    primal pivots run after its dual loop."""

    def __init__(self, monkeypatch):
        self.results = []
        self.clean_up_pivots = 0
        self._warm = False
        resolve, iterate = SimplexSolver._resolve, SimplexSolver._iterate
        signature = inspect.signature(iterate)

        def spy_resolve(lp, *args):
            self._warm = True
            try:
                self.results.append(resolve(lp, *args))
            finally:
                self._warm = False
            return self.results[-1]

        def spy_iterate(*args):
            status, iterations = iterate(*args)
            if self._warm:
                self.clean_up_pivots += (
                    iterations - signature.bind(*args).arguments["iterations"]
                )
            return status, iterations

        monkeypatch.setattr(SimplexSolver, "_resolve", spy_resolve)
        monkeypatch.setattr(SimplexSolver, "_iterate", staticmethod(spy_iterate))


def _check_warm_children(model, spy, reference=False):
    """Every fractional binary's warm children against their cold solves.

    Both children start from the root's basis, factorised afresh, and child
    x_j = 1 also from its sibling's final tableau.  Each warm re-solve must
    reach the cold status by itself: a cold fallback would hide a wrong
    warm answer.
    """
    lp, int_idx, names = _lp(model)
    root = lp.solve()
    assert root.status == "optimal"
    root.tableau = None  # every child factorises the root's basis
    branches = _fractional(root.x, int_idx)
    for k, j in enumerate(branches):
        for value, warm in _warm_solves(lp, j, root):
            cold = lp.solve(*_fixed(lp, j, value))
            assert warm.status == spy.results[-1].status == cold.status, (
                j, value, spy.results[-1].status, cold.status,
            )
            if cold.status != "optimal":
                continue
            assert warm is spy.results[-1]  # passed its check, no cold re-solve
            assert abs(warm.objective - cold.objective) <= 1e-9 * max(
                1.0, abs(cold.objective)
            ), (j, value, warm.objective, cold.objective)
        if reference and k == 0 and cold.status == "optimal":
            name = names[j]
            fixed = MipModel.from_rows(
                tuple(
                    replace(v, lower=1.0, integer=False) if v.name == name else v
                    for v in model.variables
                ),
                model.objective,
                model.constraints,
            )
            assert warm.objective == pytest.approx(
                reference_lp_optimum(fixed), abs=1e-6
            )
    return len(branches)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_warm_child_matches_cold(kind, monkeypatch):
    spy = _WarmSolves(monkeypatch)
    branched = sum(
        _check_warm_children(build(inst, kind), spy, reference=True)
        for inst in _markets()
    )
    assert branched >= 10 and len(spy.results) == 3 * branched
    # the dual ratio test keeps every reduced cost on its optimal side, so
    # the basis the dual loop ends at is already optimal
    assert spy.clean_up_pivots == 0


@st.composite
def _small_markets(draw):
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 5))
    values = draw(
        st.lists(
            st.one_of(st.just(0.0), st.floats(0.5, 10.0)), min_size=m * n,
            max_size=m * n,
        )
    )
    edges = [(k // n, k % n, v) for k, v in enumerate(values) if v > 0]
    return validate_instance(m, n, edges)


@settings(max_examples=200, deadline=None)
@given(inst=_small_markets(), kind=st.sampled_from(ALL_KINDS))
def test_warm_child_matches_cold_on_random_markets(inst, kind):
    with pytest.MonkeyPatch.context() as monkeypatch:
        spy = _WarmSolves(monkeypatch)
        _check_warm_children(build(inst, kind), spy)
        assert spy.clean_up_pivots == 0


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_shared_start_leaves_its_tableau_for_the_sibling(kind):
    # a node's child x_j = 0 runs on a copy of the node's tableau, kept or
    # factorised afresh, and child x_j = 1 takes that tableau over; each
    # must reach its cold solve's answer, and the copy's pivots must leave
    # the shared tableau as it was
    for inst in _markets():
        lp, int_idx, _ = _lp(build(inst, kind))
        root = lp.solve()
        # the first branch shares the root's kept tableau, every later one a
        # tableau factorised afresh from the root's basis
        for j in _fractional(root.x, int_idx)[:3]:
            kept = root.tableau
            before = None if kept is None else [a.tobytes() for a in kept]
            child0 = lp.solve(*_fixed(lp, j, 0.0), start_from=root, share_start=True)
            assert root.tableau is not None
            if kept is not None:
                assert root.tableau is kept
                assert [a.tobytes() for a in kept] == before
            child1 = lp.solve(*_fixed(lp, j, 1.0), start_from=root)
            assert root.tableau is None  # taken over
            for value, warm in ((0.0, child0), (1.0, child1)):
                cold = lp.solve(*_fixed(lp, j, value))
                assert warm.status == cold.status
                if cold.status == "optimal":
                    assert warm.objective == pytest.approx(
                        cold.objective, abs=1e-9 * max(1.0, abs(cold.objective))
                    )
        assert lp.singular_blocks == 0


def _copied(result):
    """result with its kept tableau copied, each array in its own layout, so
    that a second solve can take the copy over in place."""
    if result is None or result.tableau is None:
        return result
    arrays = (a.copy(order="K") for a in result.tableau)
    return replace(result, tableau=simplex._Tableau(*arrays))


def _fresh_state(tableau):
    """The tableau's loop state gathered afresh from its statuses and bounds."""
    return simplex._loop_state(tableau.nb, tableau.basis, tableau.vstat, tableau.ubp)


def _state_refreshed(loop):
    """A reference loop that leaves the tableau's kept loop state as the
    program's loops do.  The reference gathers that state afresh at every
    iteration and keeps none, while _priced_out reads the kept state after
    the loops; so it is written afresh when the loop returns."""

    def run(tableau, *args):
        outcome = loop(tableau, *args)
        tableau.sgn[:], tableau.ub_row[:] = _fresh_state(tableau)
        return outcome

    return run


def _solve_twice(monkeypatch):
    """Patch SimplexSolver.solve to solve every LP first with the reference
    loops, on a copy of its start, then with the program's own; the two
    must agree bit for bit, and the state the program's loops kept must be
    the state gathered afresh.  Returns the statuses of the LPs compared."""
    solve, compared = SimplexSolver.solve, []

    def twin(lp, *args, start_from=None, **kwargs):
        with pytest.MonkeyPatch.context() as loops:
            for name in ("_iterate", "_dual_iterate"):
                reference = _state_refreshed(getattr(reference_simplex, name))
                loops.setattr(SimplexSolver, name, staticmethod(reference))
            want = solve(lp, *args, start_from=_copied(start_from), **kwargs)
        got = solve(lp, *args, start_from=start_from, **kwargs)
        assert (got.status, got.iterations) == (want.status, want.iterations)
        for mine, theirs in ((got.x, want.x), (got.basis, want.basis)):
            assert (mine is None) == (theirs is None)
            assert mine is None or mine.tobytes() == theirs.tobytes()
        if got.tableau is not None:
            for kept, fresh in zip((got.tableau.sgn, got.tableau.ub_row),
                                   _fresh_state(got.tableau)):
                assert kept.tobytes() == fresh.tobytes()
        compared.append(got.status)
        return got

    monkeypatch.setattr(SimplexSolver, "solve", twin)
    return compared


@settings(max_examples=100, deadline=None)
@given(
    inst=_small_markets(),
    kind=st.sampled_from(ALL_KINDS),
    price_bound=st.booleans(),
    trigger=st.sampled_from([1000, -1]),
)
def test_pivot_loops_match_the_reference_loops(inst, kind, price_bound, trigger):
    # every LP of a search, root and children, warm and cold, Devex and
    # Bland's rule from the first pivot (trigger -1)
    with pytest.MonkeyPatch.context() as monkeypatch:
        for module in (simplex, reference_simplex):
            monkeypatch.setattr(module, "BLAND_TRIGGER", trigger)
        compared = _solve_twice(monkeypatch)
        solve_mip(build(inst, kind, price_bound=price_bound), inst)
        assert compared


def test_a_nan_row_never_leaves():
    # the dual loop's leaving row is one argmax over the violations, which
    # would pick a NaN; the loop must pass it over for the largest violation
    lp = SimplexSolver(
        np.ones(2), np.array([[1.0, 2.0], [-3.0, -1.0], [1.0, 1.0]]), ["<="] * 3,
        np.array([4.0, 6.0, 3.0]), np.zeros(2), np.full(2, np.inf),
    )
    status = np.array([simplex._LOWER] * 2 + [simplex._BASIC] * 3, dtype=np.int8)
    runs = []
    reference = _state_refreshed(reference_simplex._dual_iterate)
    for loop in (SimplexSolver._dual_iterate, reference):
        tableau = lp._refactor(status, lp.lb, np.full(2, np.inf))
        tableau.val[:] = [np.nan, -2.0, -1.0]
        runs.append((loop(tableau, 1, 0, None), [a.tobytes() for a in tableau]))
        # row 1, the largest violation, left and x_1 entered
        assert tableau.basis.tolist() == [2, 0, 4]
    assert runs[0] == runs[1]
    assert runs[0][0] == ("iteration-limit", 1)


def _always_gather(T, row):
    return row.nonzero()[0]


def _never_gather(T, row):
    return None


def _mid_solve_tableau(model, pivots):
    """A model's crash-started tableau after some primal pivots, and a pivot
    (r, j) on the largest entry of its densest column."""
    lp, _, _ = _lp(model)
    span = np.maximum(lp.ub - lp.lb, 0.0)
    status = np.full(lp.nvars + len(lp.b), simplex._BASIC, dtype=np.int8)
    status[: lp.nvars] = np.where(lp.start_at_upper, simplex._UPPER, simplex._LOWER)
    tableau = lp._refactor(status, lp.lb, span)
    assert SimplexSolver._iterate(tableau, pivots, 0, None) == ("iteration-limit", pivots)
    j = int(np.count_nonzero(tableau.T, axis=0).argmax())
    return tableau, int(np.abs(tableau.T[:, j]).argmax()), j


@pytest.mark.parametrize(
    "size, kind, pivots, gathers",
    [  # the n=15 U root LP ends after 39 pivots
        pytest.param(50, FormulationKind.U, 60, True, id="50-U-True"),
        pytest.param(15, FormulationKind.U, 20, True, id="15-U-True"),
        pytest.param(8, FormulationKind.STM, 60, False, id="8-STM-False"),
    ],
)
def test_both_update_paths_give_the_same_bits(monkeypatch, size, kind, pivots, gathers):
    # the n=50 U root is 950 x 500 and sparse, and the n=15 U tableau, of
    # more than 20,000 entries, is sparse too, so their pivots gather the
    # columns the pivot row reaches; the n=8 STM tableau is small and dense
    inst = generate("popularity", preset("popularity", size), 0)
    tableau, r, j = _mid_solve_tableau(build(inst, kind), pivots)
    runs = []
    for reach in (_always_gather, _never_gather):
        monkeypatch.setattr(simplex, "_reach", reach)
        copy = simplex._Tableau(*(a.copy(order="K") for a in tableau))
        row = simplex._pivot(copy, r, j, 0.0, simplex._LOWER)
        runs.append((copy.T, copy.d, row))
    monkeypatch.undo()
    assert (simplex._reach(runs[0][0], runs[0][2]) is not None) == gathers
    for got, want in zip(*runs):
        assert np.array_equal(got, want)


def test_root_lp_is_the_same_on_both_update_paths(monkeypatch):
    lp, _, _ = _lp(build(generate("popularity", preset("popularity", 50), 0), "U"))
    results = []
    for reach in (simplex._reach, _never_gather):
        monkeypatch.setattr(simplex, "_reach", reach)
        results.append(lp.solve())
    gathered, dense = results
    assert gathered.status == dense.status == "optimal"
    assert gathered.iterations == dense.iterations
    assert gathered.x.tobytes() == dense.x.tobytes()
    assert gathered.basis.tobytes() == dense.basis.tobytes()


def test_node_lps_are_the_same_on_both_update_paths(monkeypatch):
    # the n=15 U search: its node LPs start warm from their node's tableau,
    # and most of their pivots gather under _reach.  Every LP, and so the
    # search, must be the same with every pivot updating the whole tableau
    inst = generate("popularity", preset("popularity", 15), 0)
    model = build(inst, FormulationKind.U)
    solve, reach, runs, gathered = SimplexSolver.solve, simplex._reach, [], []

    def counted(T, row):
        columns = reach(T, row)
        gathered.append(columns is not None)
        return columns

    for update in (counted, _never_gather):
        monkeypatch.setattr(simplex, "_reach", update)
        lps = []

        def spy(lp, *args, **kwargs):
            result = solve(lp, *args, **kwargs)
            lps.append((result.status, result.iterations) + tuple(
                None if a is None else a.tobytes() for a in (result.x, result.basis)
            ))
            return result

        monkeypatch.setattr(SimplexSolver, "solve", spy)
        mip = solve_mip(model, inst, node_limit=40)
        runs.append((lps, mip.status, mip.incumbent_value, mip.bound, mip.nodes))
    assert runs[0] == runs[1]
    assert len(runs[0][0]) > 40  # the root and every child of 40 nodes
    assert sum(gathered) > len(gathered) / 2


def _fig1_assign_conflict():
    """fig1's U model with bidder 1 given item 1; x_3_1 = 1 then breaks assign_1."""
    model = build(make_fig1(), FormulationKind.U)
    lp, _, names = _lp(model)
    lp.lb[names.index("x_1_1")] = 1.0
    return lp, names.index("x_3_1")


def test_warm_infeasible_is_confirmed_cold(monkeypatch):
    lp, j = _fig1_assign_conflict()
    prices = lp.start_at_upper
    warm_status, cold_calls, runs = [], [], []
    resolve, solve = SimplexSolver._resolve, SimplexSolver._solve

    def spy_resolve(self, start, lob, upb, spent, *args):
        result = resolve(self, start, lob, upb, spent, *args)
        warm_status.append(result.status)
        runs.append((spent, result))
        return result

    def spy_solve(self, lob, upb, start_at_upper, spent, *args):
        result = solve(self, lob, upb, start_at_upper, spent, *args)
        cold_calls.append((start_at_upper is prices, result.status))
        runs.append((spent, result))
        return result

    monkeypatch.setattr(SimplexSolver, "_resolve", spy_resolve)
    monkeypatch.setattr(SimplexSolver, "_solve", spy_solve)
    child = _warm_child(lp, j)
    assert child.status == "infeasible"
    assert warm_status == ["infeasible"]
    # child 0, then the confirmation: both crash-started
    assert cold_calls == [(True, "optimal"), (True, "infeasible")]
    # the warm run and the confirmation, one count
    _one_count(runs[1:], child)


def test_rejected_warm_point_is_refactored(monkeypatch):
    model = build(make_fig1(), FormulationKind.U)
    lp, int_idx, _ = _lp(model)
    root = lp.solve()
    j = _fractional(root.x, int_idx)[0]
    cold = lp.solve(*_fixed(lp, j, 1.0))
    child0 = lp.solve(*_fixed(lp, j, 0.0))

    warm_starts, warm_results, cold_solves, runs = [], [], [], []
    feasible, resolve, solve = (
        SimplexSolver._feasible, SimplexSolver._resolve, SimplexSolver._solve
    )

    def reject_warm_point(self, *args):
        # the warm point is the one checked before any re-solve has run
        return len(warm_results) > 1 and feasible(self, *args)

    def spy_resolve(self, start, lob, upb, spent, *args):
        warm_starts.append(start)
        warm_results.append(resolve(self, start, lob, upb, spent, *args))
        runs.append((spent, warm_results[-1]))
        return warm_results[-1]

    def spy_solve(self, *args):
        cold_solves.append(args)
        return solve(self, *args)

    monkeypatch.setattr(SimplexSolver, "_feasible", reject_warm_point)
    monkeypatch.setattr(SimplexSolver, "_resolve", spy_resolve)
    monkeypatch.setattr(SimplexSolver, "_solve", spy_solve)
    child = lp.solve(*_fixed(lp, j, 1.0), start_from=child0)
    assert child.status == "optimal"
    assert child.objective == pytest.approx(cold.objective, abs=1e-9)
    # the rejected point's own basis is factorised afresh and re-optimised;
    # nothing is solved from the slack basis
    assert [id(start) for start in warm_starts] == [id(child0), id(warm_results[0])]
    assert not cold_solves
    assert len(_one_count(runs, child)) == 2


def _confirmed_and_retried(lp, j, child0):
    """Child x_j = 1 warm from child x_j = 0, its warm run forced to end
    "infeasible" and the first point checked rejected, so the one solve runs
    the warm run, the cold confirmation and the retry.

    Returns the child, the start and result of each warm run, the
    confirmations, the checks made and each run's (spent, result) in order.
    """
    warm_starts, warm_results, confirmations, checks, runs = [], [], [], [], []
    feasible, resolve, solve = (
        SimplexSolver._feasible, SimplexSolver._resolve, SimplexSolver._solve
    )

    def reject_first_point(self, *args):
        checks.append(None)
        return len(checks) > 1 and feasible(self, *args)

    def spy_resolve(self, start, lob, upb, spent, *args):
        warm_starts.append(start)
        warm_results.append(resolve(self, start, lob, upb, spent, *args))
        runs.append((spent, warm_results[-1]))
        if len(warm_results) == 1:
            return replace(warm_results[0], status="infeasible", tableau=None)
        return warm_results[-1]

    def spy_solve(self, lob, upb, start_at_upper, spent, *args):
        confirmations.append(solve(self, lob, upb, start_at_upper, spent, *args))
        runs.append((spent, confirmations[-1]))
        return confirmations[-1]

    with pytest.MonkeyPatch.context() as spies:
        spies.setattr(SimplexSolver, "_feasible", reject_first_point)
        spies.setattr(SimplexSolver, "_resolve", spy_resolve)
        spies.setattr(SimplexSolver, "_solve", spy_solve)
        child = lp.solve(*_fixed(lp, j, 1.0), start_from=child0)
    return child, warm_starts, warm_results, confirmations, checks, runs


def _one_count(runs, result):
    """Each run's own pivots, where runs are one solve() call's (spent,
    result) pairs in order.  Each run must continue the count the runs
    before it left, so the call's count is the sum of their pivots.  A None
    result is a warm start that could not be factorised."""
    own, count = [], 0
    for spent, run in runs:
        assert spent == count
        if run is not None:
            own.append(run.iterations - spent)
            count = run.iterations
    assert result.iterations == count == sum(own)
    return own


def test_confirmed_warm_infeasible_is_checked_and_retried():
    # a warm child wrongly ending "infeasible" falls through to its cold
    # confirmation; that point is rejected once, and the retry from the
    # confirmation's basis closes the solve with every run's pivots counted
    model = build(make_fig1(), FormulationKind.U)
    lp, int_idx, _ = _lp(model)
    root = lp.solve()
    j = _fractional(root.x, int_idx)[0]
    cold = lp.solve(*_fixed(lp, j, 1.0))
    child0 = lp.solve(*_fixed(lp, j, 0.0))
    child, warm_starts, _, confirmations, checks, runs = (
        _confirmed_and_retried(lp, j, child0)
    )
    assert child.status == cold.status == "optimal"
    assert child.objective == pytest.approx(cold.objective, abs=1e-9)
    assert len(confirmations) == 1 and len(checks) == 2
    assert warm_starts[0] is child0
    assert warm_starts[1].basis is confirmations[0].basis
    # the warm run, the confirmation and the retry, one count
    warm, confirmation, _ = _one_count(runs, child)
    assert warm and confirmation


def test_a_point_rejected_twice_is_numerical(monkeypatch):
    # every optimal basis is taken to price a slot in, so the first run's
    # point is rejected, and so is the retry's.  The retry's block is made
    # singular, so it runs from the plain slack basis, pivots, and on this
    # market ends at another optimal vertex: the result must keep the first
    # run's point and objective, with the pivots of both runs
    inst = generate("characteristics", preset("characteristics", 6), 0)
    lp, _, _ = _lp(build(inst, FormulationKind.STM))
    runs, solve, getrf = [], SimplexSolver._solve, simplex.dgetrf

    def spy_solve(self, lob, upb, start_at_upper, spent, *args):
        runs.append((spent, solve(self, lob, upb, start_at_upper, spent, *args)))
        return runs[-1][1]

    monkeypatch.setattr(SimplexSolver, "_priced_out", lambda self, tableau: False)
    monkeypatch.setattr(SimplexSolver, "_solve", spy_solve)
    monkeypatch.setattr(simplex, "dgetrf", lambda a, **kw: (*getrf(a, **kw)[:2], 1))
    result = lp.solve()
    (_, first), (_, retry) = runs
    assert first.status == retry.status == "optimal"
    assert _one_count(runs, result)[1] and not np.array_equal(retry.x, first.x)
    assert result.status == "numerical" and lp.singular_blocks == 1
    assert np.array_equal(result.x, first.x)
    assert result.objective == first.objective


def test_a_numerical_root_closes_the_search_with_an_open_bound(monkeypatch, caplog):
    # the root LP ends "numerical": its bound is not trusted, so the search
    # warns, keeps the greedy incumbent from its point and reports bound inf
    inst = make_fig1()
    monkeypatch.setattr(SimplexSolver, "_priced_out", lambda self, tableau: False)
    with caplog.at_level(logging.WARNING, logger="efp.solver"):
        result = solve_mip(build(inst, FormulationKind.U), inst)
    assert result.status == "feasible"
    assert result.bound == math.inf and result.gap == math.inf
    assert math.isnan(result.root_relaxation)
    assert is_envy_free(inst, result.incumbent.pricing, result.incumbent.allocation)[0]
    assert [r.levelno for r in caplog.records] == [logging.WARNING]
    assert "numerical" in caplog.records[0].getMessage()


def _feasible_as_before(lp, x, lob, upb):
    """SimplexSolver._feasible as it was when it built both sides' scaled
    bound tolerances on every call: an oracle for its verdict.  The solver's
    A and b are in <= form, a >= row negated."""
    tol = simplex.RESIDUAL_TOL
    excess = lp.A @ x - lp.b
    excess = np.where(lp._le, excess, np.abs(excess))
    return bool(
        np.all(excess <= tol * np.maximum(1.0, np.abs(lp.b)))
        and np.all(x >= lob - tol * np.maximum(1.0, np.abs(lob)))
        and np.all(x <= upb + tol * np.maximum(1.0, np.abs(upb)))
    )


@st.composite
def _points_near_their_bounds(draw):
    """Bounds of magnitude below and above 1, and a point whose every entry
    sits near one of its bounds: on the edge of the unscaled band b -+ tol,
    of the scaled band b -+ tol * max(1, |b|), one float either side of
    either edge, or a random multiple of either tolerance inside or out."""
    tol = simplex.RESIDUAL_TOL
    n = draw(st.integers(1, 4))
    magnitudes = st.sampled_from([0.0, 0.5, 1.0, -1.0, 3.0, -2.5, 1e4, -1e6])
    lob = np.array([draw(st.one_of(magnitudes, st.floats(-1e6, 1e6))) for _ in range(n)])
    spans = st.sampled_from([0.0, 1.0, 2.5, 3e5, np.inf])
    upb = lob + np.array([draw(spans) for _ in range(n)])
    x = np.empty(n)
    for k in range(n):
        at_upper = draw(st.booleans()) and np.isfinite(upb[k])
        b, out = (upb[k], 1.0) if at_upper else (lob[k], -1.0)
        width = draw(st.sampled_from([tol, tol * max(1.0, abs(b))]))
        edge = b + out * width
        x[k] = draw(st.sampled_from([
            edge, np.nextafter(edge, np.inf), np.nextafter(edge, -np.inf), b,
            b + out * width * draw(st.floats(0.0, 3.0)),
        ]))
    return lob, upb, x


@settings(max_examples=500, deadline=None)
@given(_points_near_their_bounds())
def test_bound_check_keeps_the_scaled_verdict(case):
    # the unscaled band is tested first and the scaled one only on a side
    # that fails it; the verdict must be the scaled formula's
    lob, upb, x = case
    n = len(x)
    lp = SimplexSolver(np.zeros(n), np.ones((1, n)), ["<="], [np.sum(x) + 1.0], lob, upb)
    assert lp._feasible(x, lob, upb) == _feasible_as_before(lp, x, lob, upb)


def test_one_iteration_cap_per_solve(monkeypatch):
    # MAX_ITERATIONS bounds one solve() call's pivots over the warm run, the
    # cold confirmation and the retry together: under every cap short of
    # the three runs' total, the call stops at the cap.  A cap one short of
    # the first two runs catches a confirmation given a fresh count, one
    # short of all three a retry given one.  The retry's block is made
    # singular, so that it pivots: it runs from the plain slack basis
    lp, int_idx, _ = _lp(build(make_fig1(), FormulationKind.U))
    j = _fractional(lp.solve().x, int_idx)[0]
    getrf = simplex.dgetrf
    monkeypatch.setattr(simplex, "dgetrf", lambda a, **kw: (*getrf(a, **kw)[:2], 1))
    child0 = lp.solve(*_fixed(lp, j, 0.0))
    child, _, warm_results, confirmations, _, runs = _confirmed_and_retried(
        lp, j, child0
    )
    assert child.status == "optimal" and lp.singular_blocks == 1
    assert warm_results[1] is None and len(confirmations) == 2
    # the warm run, the confirmation and the retry each pivot, on one count
    pivots = _one_count(runs, child)
    assert len(pivots) == 3 and all(pivots)
    for cap in range(child.iterations):
        child0 = lp.solve(*_fixed(lp, j, 0.0))
        with pytest.MonkeyPatch.context() as limit:
            limit.setattr(simplex, "MAX_ITERATIONS", cap)
            capped = _confirmed_and_retried(lp, j, child0)[0]
        # a call cut short in any run, the retry included, reports the cap
        assert (capped.status, capped.iterations) == ("iteration-limit", cap), cap


def test_deadline_stops_the_lp():
    model = build(make_fig1(), FormulationKind.U)
    lp, int_idx, _ = _lp(model)
    past = time.perf_counter()
    assert lp.solve(deadline=past).status == "time-limit"
    root = lp.solve()
    j = _fractional(root.x, int_idx)[0]
    child0 = lp.solve(*_fixed(lp, j, 0.0))
    child1 = lp.solve(*_fixed(lp, j, 1.0), start_from=child0, deadline=past)
    assert child1.status == "time-limit"
