import dataclasses
import hashlib
import json
import math
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse

from efp.allocation import envy_free_allocation
from efp.core import Pricing, validate_instance
from efp.formulations import (
    ALL_KINDS,
    Constraint,
    FormulationKind,
    InfeasibleAssignmentError,
    MipModel,
    Variable,
    build,
    constraint_violations,
    embed_outcome,
    export_lp_text,
    extract_outcome,
    objective_value,
)
from efp.generators import MODELS, SeededRng, generate, preset
from efp.solver import solve_lp

from conftest import make_fig1, random_instance, random_pricing
from lp_text import parse_lp_text
from reference_model import reference_build

GOLDEN = Path(__file__).parent / "golden"

# bidder 1 values items 1 and 2 equally and bidder 2 values one item only, so
# STM's envy rows meet v_ib == v_kb, whose zero coefficient build() leaves out;
# the worked instance never does
TIED = validate_instance(
    3, 3, [(0, 0, 4.0), (1, 0, 4.0), (2, 1, 2.5), (0, 2, 3.0), (1, 2, 5.0), (2, 2, 1.5)]
)

EXPECTED_SIZES = {  # (variables, constraints) on the 3x4 worked instance
    FormulationKind.STM: (27, 52),
    FormulationKind.I: (27, 52),
    FormulationKind.L: (27, 40),
    FormulationKind.P: (19, 32),
    FormulationKind.U: (19, 32),
}


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_model_sizes_on_worked_instance(fig1, kind):
    model = build(fig1, kind)
    assert (len(model.variables), len(model.constraints)) == EXPECTED_SIZES[kind]


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_constraint_family_counts(kind):
    rng = SeededRng(77)
    for _ in range(5):
        m, n = 1 + rng.randint(5), 1 + rng.randint(5)
        inst = random_instance(rng, m, n)
        model = build(inst, kind)
        if kind in (FormulationKind.STM, FormulationKind.I):
            assert len(model.constraints) == n + 4 * m * n
            assert len(model.variables) == 2 * m * n + m
        elif kind is FormulationKind.L:
            assert len(model.constraints) == n + 3 * m * n
            assert len(model.variables) == 2 * m * n + m
        else:
            assert len(model.constraints) == 2 * n + 2 * m * n
            assert len(model.variables) == m * n + m + n


def test_price_bound_toggle(fig1):
    bounded = build(fig1, FormulationKind.U)
    free = build(fig1, FormulationKind.U, price_bound=False)
    caps = {v.name: v.upper for v in bounded.variables if v.name.startswith("p_")}
    assert caps == {"p_1": 6.0, "p_2": 7.0, "p_3": 3.0}
    assert all(
        math.isinf(v.upper) for v in free.variables if v.name.startswith("p_")
    )


def test_model_rejects_bad_structure():
    x = Variable("x_1_1", 0.0, 1.0, True)
    for _ in range(2):  # the label checks are memoised, but not a failed one
        with pytest.raises(ValueError, match="unique"):
            MipModel.from_rows((x, x), {}, ())
    with pytest.raises(ValueError, match="objective"):
        MipModel.from_rows((x,), {"ghost": 1.0}, ())
    with pytest.raises(ValueError, match="constraint c references an undeclared"):
        MipModel.from_rows((x,), {}, (Constraint("c", {"ghost": 1.0}, "<=", 0.0),))
    with pytest.raises(ValueError, match="binary"):
        MipModel.from_rows((Variable("y", 0.0, 2.0, True),), {}, ())
    with pytest.raises(ValueError, match="constraint c has sense '<'"):
        MipModel.from_rows((x,), {}, (Constraint("c", {"x_1_1": 1.0}, "<", 0.0),))
    model = MipModel.from_rows((x,), {}, (Constraint("c", {"x_1_1": 1.0}, "<=", 1.0),))
    with pytest.raises(ValueError, match=r"A is \(1, 2\) for 1 rows and 1 columns"):
        dataclasses.replace(model, A=sparse.csr_array((1, 2)))
    with pytest.raises(ValueError, match=r"A is \(1, 1\) for 1 rows and 1 columns"):
        dataclasses.replace(model, senses=("<=", "<="))


@st.composite
def _markets(draw):
    """Up to 5 x 5, with few distinct values, so ties v_ib = v_kb and items
    and bidders without any valuation are common."""
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    value = st.one_of(st.just(0.0), st.sampled_from([1.0, 2.5]), st.floats(0.5, 10.0))
    values = draw(st.lists(value, min_size=m * n, max_size=m * n))
    return validate_instance(
        m, n, [(k // n, k % n, v) for k, v in enumerate(values) if v > 0]
    )


def _solver_arrays(model):
    """The arrays the solver takes, A with each row's entries sorted."""
    A = model.A.sorted_indices()
    m = model
    return m.c, m.b, m.lb, m.ub, m.integer, m.prices, A.data, A.indices, A.indptr


@settings(max_examples=300, deadline=None)
@given(inst=_markets(), kind=st.sampled_from(ALL_KINDS), price_bound=st.booleans())
@example(inst=TIED, kind=FormulationKind.STM, price_bound=True)
@example(inst=validate_instance(2, 3, []), kind=FormulationKind.U, price_bound=False)
def test_build_matches_the_dict_oracle(inst, kind, price_bound):
    mine = build(inst, kind, price_bound=price_bound)
    theirs = reference_build(inst, kind, price_bound=price_bound)
    assert export_lp_text(mine) == export_lp_text(theirs)
    assert (mine.names, mine.row_names, mine.senses) == (
        theirs.names, theirs.row_names, theirs.senses,
    )
    for a, b in zip(_solver_arrays(mine), _solver_arrays(theirs)):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_lp_text_sections(fig1):
    text = export_lp_text(build(fig1, FormulationKind.STM))
    assert text.splitlines()[0] == "Maximize"
    binaries = text.split("Binaries")[1].split("End")[0].split()
    assert len(binaries) == 12
    assert export_lp_text(build(fig1, FormulationKind.STM)) == text


def _model_digests() -> dict[str, str]:
    """SHA-256 of every LP export on the pinned markets, both price caps."""
    markets = {"fig1": make_fig1(), "tied": TIED}
    for model in MODELS:
        markets[f"{model}-n15-s0"] = generate(model, preset(model, 15), 0)
    return {
        f"{name} {kind.value} {'capped' if cap else 'uncapped'}": hashlib.sha256(
            export_lp_text(build(inst, kind, price_bound=cap)).encode()
        ).hexdigest()
        for name, inst in markets.items()
        for kind in ALL_KINDS
        for cap in (True, False)
    }


def test_models_match_golden(fig1):
    # every coefficient of every model is pinned, binding or not; after an
    # intended model change, rewrite tests/golden/fig1_<kind>.lp with
    # export_lp_text and build_digests.json with _model_digests()
    for kind in ALL_KINDS:
        golden = (GOLDEN / f"fig1_{kind.value}.lp").read_text()
        assert export_lp_text(build(fig1, kind)) == golden, kind
    pinned = json.loads((GOLDEN / "build_digests.json").read_text())
    assert _model_digests() == pinned


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_lp_text_round_trip_preserves_optimum(fig1, kind):
    model = build(fig1, kind)
    reparsed = parse_lp_text(export_lp_text(model))
    original = solve_lp(model)
    recovered = solve_lp(reparsed)
    assert original.status == recovered.status == "optimal"
    assert abs(original.objective - recovered.objective) <= 1e-6


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_empty_instance_has_zero_optimum(kind):
    inst = validate_instance(1, 1, [])
    sol = solve_lp(build(inst, kind))
    assert sol.status == "optimal"
    assert abs(sol.objective) <= 1e-9


def test_extract_outcome_from_known_optimum(fig1):
    values = {f"p_{i}": p for i, p in zip((1, 2, 3), (6.0, 6.0, 3.0))}
    for i in range(3):
        for b in range(4):
            values[f"x_{i + 1}_{b + 1}"] = 0.0
            values[f"ph_{i + 1}_{b + 1}"] = 0.0
    for i, b in ((2, 0), (1, 1), (0, 2), (1, 3)):  # assignment from the worked example
        values[f"x_{i + 1}_{b + 1}"] = 1.0
        values[f"ph_{i + 1}_{b + 1}"] = values[f"p_{i + 1}"]
    outcome = extract_outcome(fig1, FormulationKind.STM, values)
    assert outcome.profit == 21.0
    assert outcome.allocation.assignment == (2, 1, 0, 1)


def test_extract_outcome_all_zero_on_empty_instance():
    inst = validate_instance(1, 1, [])
    for kind in ALL_KINDS:
        outcome = extract_outcome(inst, kind, {})
        assert outcome.profit == 0.0


def test_extract_outcome_all_zero_on_worked_instance(fig1):
    # envy rows make the all-zero point feasible only for the variant that
    # sums over the non-candidate items; the others need prices to cover
    # every valuation
    outcome = extract_outcome(fig1, FormulationKind.STM, {})
    assert outcome.profit == 0.0
    for kind in (FormulationKind.I, FormulationKind.L, FormulationKind.P, FormulationKind.U):
        with pytest.raises(InfeasibleAssignmentError):
            extract_outcome(fig1, kind, {})


def test_extract_outcome_rejects_double_assignment(fig1):
    values = {f"x_{i + 1}_{b + 1}": 0.0 for i in range(3) for b in range(4)}
    values.update({f"ph_{i + 1}_{b + 1}": 0.0 for i in range(3) for b in range(4)})
    values.update({"p_1": 0.0, "p_2": 0.0, "p_3": 0.0})
    values["x_1_1"] = 1.0
    values["x_2_1"] = 1.0
    with pytest.raises(InfeasibleAssignmentError):
        extract_outcome(fig1, FormulationKind.STM, values)


def test_extract_outcome_rejects_fractional(fig1):
    with pytest.raises(InfeasibleAssignmentError):
        extract_outcome(fig1, FormulationKind.STM, {"x_1_1": 0.5})


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_greedy_outcomes_embed_feasibly(kind):
    rng = SeededRng(15)
    for _ in range(10):
        inst = random_instance(rng, 1 + rng.randint(4), 1 + rng.randint(4))
        pricing = random_pricing(rng, inst)
        outcome = envy_free_allocation(inst, pricing)
        model = build(inst, kind)
        point = embed_outcome(inst, kind, outcome)
        assert not constraint_violations(model, point, tol=1e-9)
        assert abs(objective_value(model, point) - outcome.profit) <= 1e-9


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_embedding_round_trips_through_extract(fig1, kind):
    outcome = envy_free_allocation(fig1, Pricing((6, 6, 3)))
    point = embed_outcome(fig1, kind, outcome)
    assert extract_outcome(fig1, kind, point).profit == outcome.profit


def test_embedding_caps_prices_above_any_valuation(fig1):
    # pricing an item out of the market embeds as the capped price
    outcome = envy_free_allocation(fig1, Pricing((100.0, 6.0, 3.0)))
    point = embed_outcome(fig1, FormulationKind.U, outcome)
    assert point["p_1"] == 6.0
    assert extract_outcome(fig1, FormulationKind.U, point).profit == outcome.profit


def test_extract_accepts_uncapped_prices():
    # the utility form tolerates moderately overpriced unsold items, but only
    # below the explicit cap once it is active
    inst = validate_instance(1, 1, [(0, 0, 5.0)])
    point = {"x_1_1": 0.0, "p_1": 8.0, "u_1": 0.0}
    with pytest.raises(InfeasibleAssignmentError):
        extract_outcome(inst, FormulationKind.U, point)
    recovered = extract_outcome(inst, FormulationKind.U, point, price_bound=False)
    assert recovered.profit == 0.0
