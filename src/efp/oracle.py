"""Candidate-price enumeration: a certified lower bound on the optimum.

Each item's price ranges over zero and the positive entries of its row of
Instance.matrix; every combination is evaluated through the greedy envy-free
allocation.  Whether an optimum always lies on this grid is unknown, so the
result is documented as a lower bound only; observed equality with the exact
solver is logged, never asserted.
"""

from __future__ import annotations

import itertools
import logging

import numpy as np

from .allocation import Outcome, TooLargeError, envy_free_allocation
from .core import Instance, Pricing

log = logging.getLogger("efp.oracle")

MAX_ITEMS = 4
MAX_COMBINATIONS = 10**7


def candidate_prices(inst: Instance) -> list[tuple[float, ...]]:
    """Per-item sorted candidate sets {0} union {v_ib > 0}."""
    return [(0.0, *np.unique(row[row > 0]).tolist()) for row in inst.matrix]


def brute_force_optimal(inst: Instance) -> Outcome:
    """Best outcome over the candidate price grid.

    Guarded by m <= 4 and at most 10^7 price combinations.
    """
    if inst.num_items > MAX_ITEMS:
        raise TooLargeError(f"{inst.num_items} items exceed the limit of {MAX_ITEMS}")
    candidates = candidate_prices(inst)
    total = 1
    for cand in candidates:
        total *= len(cand)
    if total > MAX_COMBINATIONS:
        raise TooLargeError(f"{total} price combinations exceed {MAX_COMBINATIONS}")
    best: Outcome | None = None
    for prices in itertools.product(*candidates):
        outcome = envy_free_allocation(inst, Pricing(prices))
        if best is None or outcome.profit > best.profit:
            best = outcome
    assert best is not None
    log.debug("enumerated %d candidate pricings, best profit %.9g", total, best.profit)
    return best
