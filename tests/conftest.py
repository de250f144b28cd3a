import itertools
import math

import pytest

from efp import Instance, Pricing, SeededRng, derive_constants, solver, validate_instance
from efp.formulations import ALL_KINDS

# 3 items x 4 bidders worked market: known best profit 21 at prices (6, 6, 3),
# and profit 13 at prices (5, 8, 3)
FIG1_EDGES = [
    (0, 0, 4.0),
    (0, 1, 5.0),
    (0, 2, 6.0),
    (1, 1, 7.0),
    (1, 3, 6.0),
    (2, 0, 3.0),
    (2, 2, 2.0),
    (2, 3, 2.0),
]


def make_fig1() -> Instance:
    return validate_instance(3, 4, FIG1_EDGES)


@pytest.fixture
def fig1() -> Instance:
    return make_fig1()


def random_instance(
    rng: SeededRng, num_items: int, num_bidders: int, density: float = 0.6,
    scale: float = 10.0,
) -> Instance:
    """Arbitrary-shape sparse instance for property tests."""
    edges = []
    for i in range(num_items):
        for b in range(num_bidders):
            if rng.uniform() < density:
                edges.append((i, b, 0.5 + scale * rng.uniform()))
    return validate_instance(num_items, num_bidders, edges)


def random_pricing(rng: SeededRng, inst: Instance) -> Pricing:
    """Per-item price uniform on [0, R_i]; unvalued items get price 0."""
    item_max = derive_constants(inst).item_max
    return Pricing(tuple(rng.uniform() * r for r in item_max))


def craft_relaxations(monkeypatch, values: dict[str, float | None]) -> None:
    """Make solver.solve_lp return values[kind] as each relaxation's optimum;
    None stands for an LP that ended "numerical".  compare_relaxations solves
    the kinds in ALL_KINDS order, so the answers follow that order."""
    kinds = itertools.cycle(ALL_KINDS)

    def crafted(model):
        value = values[next(kinds).value]
        if value is None:
            return solver.LpSolution("numerical", math.nan, model.names, None, None, 0)
        return solver.LpSolution("optimal", value, model.names, None, None, 0)

    monkeypatch.setattr(solver, "solve_lp", crafted)
