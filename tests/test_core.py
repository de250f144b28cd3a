import math

import pytest

from efp.core import (
    DuplicateEdgeError,
    IndexOutOfRangeError,
    Instance,
    InstanceError,
    NonPositiveValueError,
    Pricing,
    derive_constants,
    validate_instance,
)
from efp.generators import MODELS, SeededRng, generate, preset, smallest_preset_size

from conftest import FIG1_EDGES, random_instance


def test_fig1_validates(fig1):
    assert fig1.num_items == 3
    assert fig1.num_bidders == 4
    assert len(fig1.valuations) == 8
    assert fig1.value(1, 1) == 7.0
    assert fig1.value(0, 3) == 0.0


def test_empty_market_is_valid():
    inst = validate_instance(1, 1, [])
    assert inst.value(0, 0) == 0.0


def test_duplicate_edge_rejected():
    with pytest.raises(DuplicateEdgeError):
        validate_instance(1, 1, [(0, 0, 5.0), (0, 0, 5.0)])


@pytest.mark.parametrize("value", [0.0, -1.0, float("inf"), float("nan")])
def test_non_positive_value_rejected(value):
    # an infinite valuation used to pass and make the pricing LP unbounded
    with pytest.raises(NonPositiveValueError, match="positive and finite"):
        validate_instance(2, 2, [(0, 0, value), (1, 1, 3.0)])
    with pytest.raises(NonPositiveValueError, match="positive and finite"):
        Instance(2, 2, {(0, 0): value})


def test_messages_name_items_and_bidders_1_based():
    # the message counts from 1, as files, prices and the CLI do; the
    # attributes keep the API's 0-based indices
    with pytest.raises(NonPositiveValueError, match="item 1, bidder 2") as err:
        validate_instance(1, 2, [(0, 1, math.inf)])
    assert (err.value.item, err.value.bidder) == (0, 1)


@pytest.mark.parametrize("edge", [(2, 0, 1.0), (0, 2, 1.0), (-1, 0, 1.0)])
def test_out_of_range_index_rejected(edge):
    with pytest.raises(IndexOutOfRangeError):
        validate_instance(2, 2, [edge])


def test_degenerate_shape_rejected():
    with pytest.raises(InstanceError):
        validate_instance(0, 3, [])


@pytest.mark.parametrize("bad", [-1.0, float("nan")])
def test_pricing_rejects_negative_and_nan(bad):
    assert Pricing((0.0, 6.0)).prices == (0.0, 6.0)
    with pytest.raises(ValueError, match="non-negative"):
        Pricing((6.0, bad))


def test_derive_constants_fig1(fig1):
    consts = derive_constants(fig1)
    assert consts.item_max == (6.0, 7.0, 3.0)
    assert consts.bidder_max == (4.0, 7.0, 6.0, 6.0)
    assert consts.global_max == 7.0


def test_derive_constants_empty():
    consts = derive_constants(validate_instance(2, 3, []))
    assert consts.item_max == (0.0, 0.0)
    assert consts.bidder_max == (0.0, 0.0, 0.0)
    assert consts.global_max == 0.0


def test_derive_constants_singleton():
    consts = derive_constants(validate_instance(1, 1, [(0, 0, 9.0)]))
    assert consts.item_max == (9.0,)
    assert consts.bidder_max == (9.0,)
    assert consts.global_max == 9.0


def test_every_valuation_below_maxima():
    rng = SeededRng(11)
    for _ in range(20):
        inst = random_instance(rng, 1 + rng.randint(6), 1 + rng.randint(6))
        consts = derive_constants(inst)
        for (i, b), v in inst.valuations.items():
            assert v <= consts.item_max[i]
            assert v <= consts.bidder_max[b]
            assert v <= consts.global_max


def test_validation_is_order_insensitive(fig1):
    reversed_edges = list(reversed(FIG1_EDGES))
    assert validate_instance(3, 4, reversed_edges) == fig1


def test_isclose_tolerance(fig1):
    bumped = validate_instance(
        3, 4, [(i, b, v + 5e-10) for i, b, v in FIG1_EDGES]
    )
    assert fig1.isclose(bumped)
    assert not fig1.isclose(validate_instance(3, 4, FIG1_EDGES[:-1]))


def test_adjacency_views(fig1):
    assert fig1.by_bidder[3] == ((1, 6.0), (2, 2.0))
    assert fig1.matrix[0].tolist() == [4.0, 5.0, 6.0, 0.0]
    assert list(fig1.sorted_edges())[0] == (0, 0, 4.0)


def test_matrix_is_the_valuations_densified_once():
    rng = SeededRng(11)
    markets = [generate(model, preset(model, n), 0)
               for model in MODELS for n in (smallest_preset_size(model), 9)]
    markets += [random_instance(rng, 1 + rng.randint(6), 1 + rng.randint(6))
                for _ in range(20)]
    markets.append(validate_instance(2, 3, []))
    for inst in markets:
        V = inst.matrix
        assert V.shape == (inst.num_items, inst.num_bidders)
        assert V.tolist() == [[inst.value(i, b) for b in range(inst.num_bidders)]
                              for i in range(inst.num_items)]
        assert inst.matrix is V  # cached: built at most once per instance
        with pytest.raises(ValueError, match="read-only"):
            V[0, 0] = 1.0
