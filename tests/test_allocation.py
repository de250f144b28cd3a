import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from efp.allocation import (
    TooLargeError,
    allocation_brute_force,
    best_response,
    envy_free_allocation,
    is_envy_free,
    profit,
)
from efp.core import TOLERANCE, Allocation, Pricing, validate_instance
from efp.generators import SeededRng

import reference_greedy
from conftest import random_instance, random_pricing


def test_best_response_prefers_positive_utility(fig1):
    # bidder b3: utilities 6-5=1 on item 1, 2-3=-1 on item 3
    assert best_response(fig1, Pricing((5, 8, 3)), 2) == (0, 1.0)


def test_best_response_none_when_all_negative(fig1):
    assert best_response(fig1, Pricing((5, 8, 3)), 3) is None


def test_best_response_zero_utility_still_sells(fig1):
    assert best_response(fig1, Pricing((6, 6, 3)), 3) == (1, 0.0)


def test_best_response_tie_goes_to_higher_price():
    inst = validate_instance(2, 1, [(0, 0, 3.0), (1, 0, 4.0)])
    # both utilities equal 1; item 1 has the higher price
    item, utility = best_response(inst, Pricing((2.0, 3.0)), 0)
    assert (item, utility) == (1, 1.0)


def test_best_response_full_tie_takes_lowest_index():
    inst = validate_instance(2, 1, [(0, 0, 3.0), (1, 0, 3.0)])
    item, _ = best_response(inst, Pricing((2.0, 2.0)), 0)
    assert item == 0


@pytest.mark.parametrize("bidder, named", [(-1, 0), (4, 5)])
def test_best_response_rejects_a_bidder_out_of_range(fig1, bidder, named):
    # fig1 has four bidders: -1 would read the last one, 4 none
    with pytest.raises(ValueError, match=f"bidder {named} is out of range for 4"):
        best_response(fig1, Pricing((5, 8, 3)), bidder)


def test_envy_free_allocation_profit_13(fig1):
    outcome = envy_free_allocation(fig1, Pricing((5, 8, 3)))
    assert outcome.profit == 13.0
    assert outcome.allocation.assignment == (2, 0, 0, None)
    assert outcome.utilities == (0.0, 0.0, 1.0, 0.0)


def test_envy_free_allocation_profit_21(fig1):
    outcome = envy_free_allocation(fig1, Pricing((6, 6, 3)))
    assert outcome.profit == 21.0
    assert outcome.allocation.assignment == (2, 1, 0, 1)


def test_unaffordable_prices_sell_nothing(fig1):
    outcome = envy_free_allocation(fig1, Pricing((10, 10, 10)))
    assert outcome.profit == 0.0
    assert outcome.allocation.assignment == (None,) * 4


def test_is_envy_free_accepts_greedy(fig1):
    pricing = Pricing((5, 8, 3))
    outcome = envy_free_allocation(fig1, pricing)
    ok, violations = is_envy_free(fig1, pricing, outcome.allocation)
    assert ok and not violations


def test_is_envy_free_detects_envy(fig1):
    # only bidder 0 served: bidder 2 would gain utility 1 from item 0
    allocation = Allocation((2, None, None, None))
    ok, violations = is_envy_free(fig1, Pricing((5, 8, 3)), allocation)
    assert not ok
    assert any(v.bidder == 2 and v.item == 0 for v in violations)


def test_is_envy_free_empty_allocation_with_free_items(fig1):
    ok, violations = is_envy_free(fig1, Pricing((0, 0, 0)), Allocation((None,) * 4))
    assert not ok
    assert violations


def test_profit_examples(fig1):
    assert profit(fig1, Pricing((6, 6, 3))) == 21.0
    assert profit(fig1, Pricing((0, 0, 0))) == 0.0
    assert profit(fig1, Pricing((3.5, 3.5, 1.75))) == 12.25


def test_brute_force_matches_worked_values(fig1):
    assert allocation_brute_force(fig1, Pricing((5, 8, 3))).profit == 13.0
    assert allocation_brute_force(fig1, Pricing((6, 6, 3))).profit == 21.0


def test_brute_force_single_pair():
    inst = validate_instance(1, 1, [(0, 0, 5.0)])
    assert allocation_brute_force(inst, Pricing((4.0,))).profit == 4.0


def test_brute_force_guard():
    rng = SeededRng(3)
    inst = random_instance(rng, 9, 8, density=0.9)
    with pytest.raises(TooLargeError):
        allocation_brute_force(inst, Pricing((1.0,) * 9))


def test_greedy_is_always_envy_free():
    rng = SeededRng(42)
    for _ in range(40):
        inst = random_instance(rng, 1 + rng.randint(7), 1 + rng.randint(7))
        pricing = random_pricing(rng, inst)
        outcome = envy_free_allocation(inst, pricing)
        ok, violations = is_envy_free(inst, pricing, outcome.allocation)
        assert ok, violations


def test_greedy_matches_exhaustive_maximum():
    rng = SeededRng(7)
    for _ in range(40):
        inst = random_instance(rng, 1 + rng.randint(3), 1 + rng.randint(4))
        pricing = random_pricing(rng, inst)
        greedy = envy_free_allocation(inst, pricing).profit
        exhaustive = allocation_brute_force(inst, pricing).profit
        assert abs(greedy - exhaustive) <= 1e-9


def test_served_bidders_stay_served_under_lower_prices():
    rng = SeededRng(19)
    for _ in range(30):
        inst = random_instance(rng, 2 + rng.randint(4), 2 + rng.randint(4))
        base = Pricing(tuple(0.5 + 5 * rng.uniform() for _ in range(inst.num_items)))
        lower = Pricing(tuple(0.7 * p for p in base.prices))
        before = set(envy_free_allocation(inst, base).allocation.served())
        after = set(envy_free_allocation(inst, lower).allocation.served())
        assert before <= after


def test_determinism(fig1):
    pricing = Pricing((4.5, 6.5, 2.5))
    assert envy_free_allocation(fig1, pricing) == envy_free_allocation(fig1, pricing)


@st.composite
def near_tie_markets(draw):
    """Small markets whose utilities form near-tie chains: prices and
    utilities are base values plus multiples of a fraction of TOLERANCE, so
    consecutive candidates tie within TOLERANCE while the chain's ends do
    not; equal prices and exact zero utilities are common."""
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    step = draw(st.sampled_from([0.3, 0.45, 0.6, 0.9])) * TOLERANCE
    prices = tuple(
        draw(st.sampled_from([0.0, 1.0, 2.5])) + draw(st.integers(0, 3)) * step
        for _ in range(m)
    )
    edges = []
    for b in range(n):
        for i in range(m):
            rung = draw(st.one_of(st.none(), st.integers(-3, 4)))
            if rung is None:
                continue
            value = prices[i] + draw(st.sampled_from([0.0, 0.0, 0.5])) + rung * step
            if value > 0:
                edges.append((i, b, value))
    return validate_instance(m, n, edges), Pricing(prices)


def _bits(choice):
    return None if choice is None else (choice[0], choice[1].hex())


@settings(max_examples=400, deadline=None)
@given(near_tie_markets())
def test_greedy_equals_the_per_bidder_scan(market):
    inst, pricing = market
    expected = reference_greedy.envy_free_allocation(inst, pricing)
    outcome = envy_free_allocation(inst, pricing)
    assert outcome.allocation == expected.allocation
    assert [u.hex() for u in outcome.utilities] == [u.hex() for u in expected.utilities]
    assert outcome.profit.hex() == expected.profit.hex()
    assert profit(inst, pricing).hex() == expected.profit.hex()
    for b in range(inst.num_bidders):
        assert _bits(best_response(inst, pricing, b)) == _bits(
            reference_greedy.best_response(inst, pricing, b)
        )
