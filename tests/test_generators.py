import dataclasses
import math

import pytest

from efp.fileio import serialize_instance
from efp.generators import (
    CharacteristicsConfig,
    EdgeBudgetInfeasibleError,
    MODELS,
    InvalidConfigError,
    NeighborhoodConfig,
    PopularityConfig,
    SeededRng,
    _market_prices,
    _place_bidders,
    gen_characteristics,
    gen_neighborhood,
    gen_popularity,
    generate,
    preset,
)


def test_rng_is_deterministic():
    a = SeededRng(123)
    b = SeededRng(123)
    assert [a.next_u64() for _ in range(5)] == [b.next_u64() for _ in range(5)]
    assert all(0 <= SeededRng(9).uniform() < 1 for _ in range(100))


def test_rng_seeds_differ():
    assert SeededRng(1).next_u64() != SeededRng(2).next_u64()


@pytest.mark.parametrize("model", ["characteristics", "neighborhood", "popularity"])
def test_generation_is_deterministic(model):
    cfg = preset(model, 10)
    first = generate(model, cfg, seed=77)
    second = generate(model, cfg, seed=77)
    assert first == second
    assert serialize_instance(first) == serialize_instance(second)
    assert generate(model, cfg, seed=78) != first


def test_characteristics_all_options_preferred_gives_complete_graph():
    cfg = CharacteristicsConfig(m=4, n=5, c=3, o=4, p_pref=4, ell=1, h=2, d=0.1)
    inst = gen_characteristics(cfg, seed=1)
    assert len(inst.valuations) == 4 * 5


def test_characteristics_vanishing_deviation_concentrates_values():
    cfg = CharacteristicsConfig(m=3, n=6, c=1, o=2, p_pref=2, ell=50, h=90, d=1e-9)
    inst = gen_characteristics(cfg, seed=3)
    for i in range(3):
        values = [v for (item, _), v in inst.valuations.items() if item == i]
        assert values
        center = sum(values) / len(values)
        for v in values:
            assert abs(v - center) <= 1e-6 * (center - 1.0) + 1.0


def test_characteristics_structure():
    cfg = CharacteristicsConfig(m=3, n=3, c=2, o=3, p_pref=2, ell=140, h=190, d=0.10)
    inst = gen_characteristics(cfg, seed=5)
    assert inst.num_items == 3 and inst.num_bidders == 3
    for v in inst.valuations.values():
        assert v > 0


def test_neighborhood_diameter_radius_gives_complete_graph():
    cfg = NeighborhoodConfig(m=4, n=4, r=math.sqrt(2), h=3, M=10)
    inst = gen_neighborhood(cfg, seed=2)
    assert len(inst.valuations) == 16


def test_neighborhood_zero_radius_gives_empty_graph():
    cfg = NeighborhoodConfig(m=5, n=5, r=0.0, h=3, M=10)
    inst = gen_neighborhood(cfg, seed=2)
    assert not inst.valuations


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(m=2, n=2, r=-0.1, h=3, M=10),
        dict(m=2, n=2, r=2.0, h=3, M=10),
        dict(m=2, n=2, r=0.5, h=0.5, M=10),
        dict(m=2, n=2, r=0.5, h=3, M=0),
    ],
)
def test_neighborhood_config_validation(kwargs):
    with pytest.raises(InvalidConfigError):
        gen_neighborhood(NeighborhoodConfig(**kwargs), seed=0)


@pytest.mark.parametrize(
    "model, field, value",
    [
        ("characteristics", "ell", math.nan),
        ("characteristics", "ell", -math.inf),
        ("characteristics", "h", math.inf),
        ("characteristics", "d", math.inf),
        ("neighborhood", "h", math.nan),
        ("neighborhood", "M", math.inf),
        ("neighborhood", "r", math.nan),
        ("popularity", "Q", math.inf),
        ("popularity", "d", math.inf),
        ("popularity", "d", math.nan),
    ],
)
def test_config_rejects_non_finite_floats(model, field, value):
    # validate() alone, as a NaN market price would make the generator's
    # valuation draw loop forever
    config = dataclasses.replace(preset(model, 8), **{field: value})
    with pytest.raises(InvalidConfigError, match=f"{field} must be finite"):
        config.validate()


@pytest.mark.parametrize(
    "model, other", [(m, o) for m in MODELS for o in MODELS if m != o]
)
def test_generate_rejects_another_models_config(model, other):
    # unchecked, a generator would read fields its config lacks, such as
    # the popularity model's edge count e on a CharacteristicsConfig
    config = preset(other, 8)
    with pytest.raises(InvalidConfigError, match=type(config).__name__) as raised:
        generate(model, config, seed=0)
    assert repr(model) in str(raised.value)


def test_generate_rejects_an_unknown_model():
    with pytest.raises(InvalidConfigError, match="unknown model 'nonsense'"):
        generate("nonsense", preset("popularity", 8), seed=0)


def test_models_keep_their_order():
    # the study and the benchmarks index MODELS by position
    assert MODELS == ("characteristics", "neighborhood", "popularity")


@pytest.mark.parametrize("ell, h", [(-1e9, -1e9), (0.0, 100.0), (-5.0, 100.0)])
def test_characteristics_rejects_non_positive_market_values(ell, h):
    # a market price of -1e9 with d = 0.001 needs a deviation of about 1000
    # sigmas for a positive valuation, so the draw loop never ended
    config = dataclasses.replace(preset("characteristics", 5), ell=ell, h=h, d=0.001)
    with pytest.raises(InvalidConfigError, match="ell > 0"):
        gen_characteristics(config, seed=0)


class _ScriptedRng:
    def __init__(self, values):
        self._values = iter(values)

    def uniform(self):
        return next(self._values)


def test_coincident_bidder_is_resampled():
    # first draw lands exactly on the item, second is accepted
    placed = _place_bidders(_ScriptedRng([0.5, 0.5, 0.25, 0.75]), [(0.5, 0.5)], 1)
    assert placed == [(0.25, 0.75)]


def test_popularity_full_budget_gives_complete_graph():
    cfg = PopularityConfig(m=4, n=4, e=16, Q=10, d=0.2)
    inst = gen_popularity(cfg, seed=4)
    assert len(inst.valuations) == 16


def test_popularity_edge_count_is_exact():
    for seed in range(5):
        cfg = PopularityConfig(m=12, n=12, e=60, Q=10, d=0.2)
        assert len(gen_popularity(cfg, seed).valuations) == 60


def test_popularity_edge_budget_guard():
    with pytest.raises(EdgeBudgetInfeasibleError):
        gen_popularity(PopularityConfig(m=3, n=3, e=10, Q=10, d=0.2), seed=0)


def test_market_price_is_quality_over_degree():
    # a degree-4 item of quality 8 sells around price 2
    assert _market_prices([8.0, 5.0, 3.0], [4, 0, 2]) == [2.0, 0.0, 1.5]


def test_popularity_degree_skew():
    # preferential attachment: a few very popular items dominate
    hits = 0
    for seed in range(20):
        inst = gen_popularity(PopularityConfig(m=200, n=200, e=1600, Q=200, d=0.25), seed)
        degrees = [0] * 200
        for (i, _b) in inst.valuations:
            degrees[i] += 1
        if max(degrees) > 4 * (sum(degrees) / 200):
            hits += 1
    assert hits >= 15, f"degree skew seen on only {hits} of 20 seeds"


def test_preset_characteristics_formula():
    cfg = preset("characteristics", 100)
    assert cfg.c == math.ceil(math.log(8 / 100) / math.log(7 / 8)) == 19
    assert (cfg.o, cfg.p_pref, cfg.ell, cfg.h, cfg.d) == (8, 7, 1.0, 100.0, 0.25)
    # the formula goes non-positive for tiny markets; at least one remains
    assert preset("characteristics", 8).c == 1


def test_preset_popularity_and_neighborhood():
    assert preset("popularity", 300).e == 2400
    assert abs(preset("neighborhood", 500).r - math.sqrt(8 / (500 * math.pi))) < 1e-15
    assert abs(preset("neighborhood", 500).r - 0.07136) < 5e-6


def test_preset_rejects_tiny_markets():
    with pytest.raises(InvalidConfigError):
        preset("characteristics", 1)
    with pytest.raises(InvalidConfigError):
        preset("nonsense", 10)


def test_presets_stay_sparse():
    for model in ("characteristics", "neighborhood", "popularity"):
        for seed in range(3):
            inst = generate(model, preset(model, 50), seed)
            assert len(inst.valuations) <= 10 * 50
            for v in inst.valuations.values():
                assert v > 0


def test_characteristics_mean_degree_sample():
    total = 0
    seeds = 5
    for seed in range(seeds):
        inst = generate("characteristics", preset("characteristics", 100), seed)
        total += len(inst.valuations) / 100
    assert 5.0 <= total / seeds <= 10.0
