import math
import sys

import pytest

from efp.allocation import profit
from efp.core import Pricing, derive_constants
from efp.generators import SeededRng, generate, preset
from efp.geometric import (
    GeometricGrid,
    InvalidEpsilonError,
    NonPositiveApexError,
    floor_geometric,
    guarantee_factor,
    round_pricing_eps,
    round_pricing_half,
)

from conftest import random_pricing


GRID7 = GeometricGrid(7.0, 2.0)  # 7, 3.5, 1.75, 0.875, ...


@pytest.mark.parametrize(
    "x,expected",
    [(5.0, 3.5), (3.5, 3.5), (0.9, 0.875), (7.0, 7.0), (100.0, 7.0), (0.0, 0.0)],
)
def test_floor_examples(x, expected):
    assert floor_geometric(x, GRID7) == expected


def test_floor_rejects_negative():
    with pytest.raises(ValueError):
        floor_geometric(-1.0, GRID7)


def test_grid_requires_positive_apex():
    with pytest.raises(NonPositiveApexError):
        GeometricGrid(0.0, 2.0)


def test_grid_requires_ratio_above_one():
    with pytest.raises(InvalidEpsilonError):
        GeometricGrid(5.0, 1.0)


def test_floor_is_exact_on_grid_points():
    grid = GeometricGrid(11.3, 1.25)
    for k in range(60):
        assert floor_geometric(grid.element(k), grid) == grid.element(k)


def test_floor_lands_on_grid_members():
    grid = GeometricGrid(9.0, 1.5)
    rng = SeededRng(5)
    for _ in range(300):
        x = 9.0 * (1.0 - rng.uniform())  # (0, 9]
        d = floor_geometric(x, grid)
        assert d <= x
        k = math.log(grid.apex / d) / math.log(grid.ratio)
        assert abs(k - round(k)) <= 1e-9
        assert grid.element(round(k) - 1) > x or round(k) == 0


def _floor_as_before(x, grid):
    """floor_geometric as it was when it raised OverflowError wherever
    apex / x or ratio**k overflowed: an oracle for every other x."""
    if x == 0:
        return 0.0
    if x >= grid.apex:
        return grid.apex
    r = max(0, math.ceil(math.log(grid.apex / x) / math.log(grid.ratio)))
    while grid.apex / grid.ratio**r > x:
        r += 1
    while r > 0 and grid.apex / grid.ratio ** (r - 1) <= x:
        r -= 1
    return grid.apex / grid.ratio**r


# one x per grid where the log estimate lands on an element above x, so the
# floor searches upward from it.  On the first three the next element is
# already at or below x; on the ratio 1 + 2**-50 grid the estimate's
# rounding error is worth 64 indices, so the upward gallop doubles its step
GALLOPS_UP = {
    (1.0, 1.25): [4.412521810481589e-24],
    (6.0, 1.001): [0.8673838424770057],
    (1e300, 1.1): [1.4151858236628272e+233],
    (1.0, 1.0 + 2.0**-50): [3.494029893952894e-223],
}


def test_floor_keeps_the_bits_wherever_it_never_raised():
    rng = SeededRng(11)
    checked = 0
    for apex, ratio in [(7.0, 2.0), (11.3, 1.25), (1e300, 1.5), (1e-300, 1.01),
                        (3.0, 1.0 + 1e-9), *GALLOPS_UP]:
        grid = GeometricGrid(apex, ratio)
        xs = [apex * 10.0 ** (-300 * rng.uniform()) for _ in range(300)]
        xs += [grid.element(k) for k in range(0, 3000, 7)]
        xs += GALLOPS_UP.get((apex, ratio), [])
        for x in xs:
            try:
                before = _floor_as_before(x, grid)
            except OverflowError:
                continue
            assert floor_geometric(x, grid).hex() == before.hex()
            checked += 1
    assert checked > 2000


@pytest.mark.parametrize("apex", [7.0, 1e300, sys.float_info.max])
@pytest.mark.parametrize("ratio", [2.0, 1.25, 1.01])
def test_floor_takes_every_finite_value(apex, ratio):
    # apex / x and ratio**k overflow here; the floor must not
    grid = GeometricGrid(apex, ratio)
    for x in (5e-324, 1e-310, sys.float_info.min, 1e-300, sys.float_info.max):
        d = floor_geometric(x, grid)
        assert 0.0 <= d <= x
    # 6 / 2**1033 = 3 / 2**1032 <= 1e-310 < 6 / 2**1032, exact in subnormals
    assert floor_geometric(1e-310, GeometricGrid(6.0, 2.0)) == math.ldexp(3.0, -1032)


def test_floor_gallops_over_runs_of_equal_subnormals(monkeypatch):
    # Steps of 1e-12 are far finer than the subnormal spacing at 1e-322, so
    # billions of consecutive elements round alike and some round to x itself.
    # A walk one index at a time does not return; a search makes a few dozen
    # element calls, and the cap stands in for a timeout.
    element = GeometricGrid.element
    calls = 0

    def capped(grid, k):
        nonlocal calls
        calls += 1
        assert calls <= 500, "floor_geometric walks the grid index by index"
        return element(grid, k)

    monkeypatch.setattr(GeometricGrid, "element", capped)
    for apex in (6.0, 1.0, sys.float_info.max):
        assert floor_geometric(1e-322, GeometricGrid(apex, 1.0 + 1e-12)) == 1e-322
    assert floor_geometric(5e-324, GeometricGrid(1.0, 1.0 + 2**-52)) == 5e-324


def test_round_half_worked_example(fig1):
    rounded = round_pricing_half(fig1, Pricing((6, 6, 3)))
    assert rounded.prices == (3.5, 3.5, 1.75)


def test_round_half_zero_pricing(fig1):
    assert round_pricing_half(fig1, Pricing((0, 0, 0))).prices == (0.0, 0.0, 0.0)


def test_round_half_component_bounds(fig1):
    rng = SeededRng(31)
    consts = derive_constants(fig1)
    for _ in range(200):
        pricing = Pricing(tuple(rng.uniform() * r for r in consts.item_max))
        rounded = round_pricing_half(fig1, pricing)
        for p, q in zip(pricing.prices, rounded.prices):
            if p > 0:
                assert p / 3 < q <= 2 * p / 3 + 1e-12


def test_round_eps_component_bounds(fig1):
    rng = SeededRng(37)
    consts = derive_constants(fig1)
    for eps in (0.5, 0.25, 0.1):
        r = 1 + math.sqrt(eps / (1 + eps))
        for _ in range(100):
            pricing = Pricing(tuple(rng.uniform() * v for v in consts.item_max))
            rounded = round_pricing_eps(fig1, pricing, eps)
            for p, q in zip(pricing.prices, rounded.prices):
                if p > 0:
                    assert p / ((1 + eps) * r) < q <= p / r + 1e-12


def test_round_eps_at_apex(fig1):
    eps = 0.5
    r = 1 + math.sqrt(eps / (1 + eps))
    apex = derive_constants(fig1).global_max
    rounded = round_pricing_eps(fig1, Pricing((apex,) * 3), eps)
    grid = GeometricGrid(apex, 1 + eps)
    for q in rounded.prices:
        assert q <= apex / r
        k = math.log(apex / q) / math.log(1 + eps)
        assert abs(k - round(k)) <= 1e-9


@pytest.mark.parametrize("eps", [0.0, 1.0, 1.5, -0.2])
def test_round_eps_domain(fig1, eps):
    with pytest.raises(InvalidEpsilonError):
        round_pricing_eps(fig1, Pricing((1, 1, 1)), eps)


def test_guarantee_factor_values():
    assert guarantee_factor(1.0, half_rounding=True) == 0.25
    assert abs(guarantee_factor(1.0) - 1 / (2 * math.sqrt(2) + 3)) < 1e-12
    # loss vanishes as the grid refines
    expected = 1 / (2 * math.sqrt(0.01 * 1.01) + 1.02)
    assert abs(guarantee_factor(0.01) - expected) < 1e-12
    assert guarantee_factor(1e-8) > 0.999


def test_guarantee_factor_domain():
    with pytest.raises(InvalidEpsilonError):
        guarantee_factor(0.0)
    with pytest.raises(InvalidEpsilonError):
        guarantee_factor(1.5)
    with pytest.raises(InvalidEpsilonError):
        guarantee_factor(0.5, half_rounding=True)


def _corpus(count):
    """(instance, pricing) pairs on preset 8x8 markets, deterministic."""
    models = ("characteristics", "neighborhood", "popularity")
    rng = SeededRng(2024)
    out = []
    seed = 0
    while len(out) < count:
        model = models[len(out) % 3]
        inst = generate(model, preset(model, 8), seed)
        seed += 1
        if not inst.valuations:
            continue
        out.append((inst, random_pricing(rng, inst)))
    return out


def test_half_rounding_profit_bound_sample():
    for inst, pricing in _corpus(100):
        before = profit(inst, pricing)
        after = profit(inst, round_pricing_half(inst, pricing))
        assert after >= before / 4 - 1e-6


def test_eps_rounding_profit_bound_sample():
    for eps in (0.5, 0.1):
        for inst, pricing in _corpus(50):
            before = profit(inst, pricing)
            after = profit(inst, round_pricing_eps(inst, pricing, eps))
            assert after >= guarantee_factor(eps) * before - 1e-6


def test_rounding_preserves_served_bidders():
    from efp.allocation import envy_free_allocation

    for inst, pricing in _corpus(60):
        rounded = round_pricing_half(inst, pricing)
        for p, q in zip(pricing.prices, rounded.prices):
            assert q < p or p == 0
        before = set(envy_free_allocation(inst, pricing).allocation.served())
        after = set(envy_free_allocation(inst, rounded).allocation.served())
        assert before <= after


def test_finer_grids_keep_more_profit_on_average():
    ratios = {0.5: [], 0.1: []}
    for inst, pricing in _corpus(80):
        before = profit(inst, pricing)
        if before <= 0:
            continue
        for eps in ratios:
            after = profit(inst, round_pricing_eps(inst, pricing, eps))
            ratios[eps].append(after / before)
    mean = {eps: sum(v) / len(v) for eps, v in ratios.items()}
    assert mean[0.1] > mean[0.5]
