"""Envy-free allocations for a fixed pricing.

Given prices, each bidder takes an item maximizing valuation minus price,
provided that utility is non-negative; ties go to the higher-priced item and
then to the lowest item index.  One loop, run by envy_free_allocation, profit
and best_response, scans each bidder's (item, value) row once under that rule.
The resulting allocation is envy-free and maximizes the auctioneer's profit
among all envy-free allocations for that pricing, which a brute-force
enumerator verifies on tiny instances.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

from .core import TOLERANCE, Allocation, Instance, Pricing


class TooLargeError(ValueError):
    """Exhaustive enumeration would exceed the safety budget."""


@dataclass(frozen=True)
class EnvyViolation:
    """Bidder prefers `item` (or has negative utility when item is None)."""

    bidder: int
    item: Optional[int]
    shortfall: float


@dataclass(frozen=True)
class Outcome:
    """A pricing with an allocation, the seller's profit and bidder utilities."""

    pricing: Pricing
    allocation: Allocation
    profit: float
    utilities: tuple[float, ...]


def _check_dims(inst: Instance, pricing: Pricing) -> None:
    if len(pricing) != inst.num_items:
        raise ValueError(
            f"pricing has {len(pricing)} entries for {inst.num_items} items"
        )


def best_response(
    inst: Instance, pricing: Pricing, bidder: int
) -> Optional[tuple[int, float]]:
    """Utility-maximizing item for `bidder`, or None if all utilities are negative.

    Ties within TOLERANCE go to the higher-priced item, then to the lowest
    item index.  A zero-utility item is preferred over receiving nothing.
    Items the bidder values at zero never beat that: their utility is -p <= 0.
    """
    _check_dims(inst, pricing)
    if not 0 <= bidder < inst.num_bidders:
        raise ValueError(
            f"bidder {bidder + 1} is out of range for {inst.num_bidders} bidders"
        )
    (item,), (utility,), _ = _greedy((inst.by_bidder[bidder],), pricing.prices)
    return None if item is None else (item, utility)


def _greedy(
    rows: tuple[tuple[tuple[int, float], ...], ...], prices: tuple[float, ...]
) -> tuple[list[Optional[int]], list[float], float]:
    """Each row's best response in one pass: (assignment, utilities, profit)."""
    tol = TOLERANCE
    assignment: list[Optional[int]] = []
    utilities: list[float] = []
    profit = 0.0
    for row in rows:
        best, best_utility, best_price = None, -math.inf, 0.0  # -tol beats -inf
        for item, value in row:
            price = prices[item]
            utility = value - price
            if utility < -tol:
                continue
            if utility > best_utility + tol or (
                utility > best_utility - tol and price > best_price + tol
            ):
                best, best_utility, best_price = item, utility, price
            # remaining ties keep the incumbent, i.e. the lowest item index
        assignment.append(best)
        utilities.append(0.0 if best is None else best_utility)
        profit += best_price  # an unserved bidder's 0.0 leaves the sum's bits
    return assignment, utilities, profit


def envy_free_allocation(inst: Instance, pricing: Pricing) -> Outcome:
    """Profit-maximizing envy-free outcome for a fixed pricing (the greedy x_p)."""
    _check_dims(inst, pricing)
    assignment, utilities, profit = _greedy(inst.by_bidder, pricing.prices)
    return Outcome(pricing, Allocation(tuple(assignment)), profit, tuple(utilities))


def is_envy_free(
    inst: Instance, pricing: Pricing, allocation: Allocation
) -> tuple[bool, list[EnvyViolation]]:
    """Check both envy-freeness conditions within TOLERANCE.

    A bidder is envy-free when its utility is non-negative and at least the
    utility any other item would give at current prices.  Only stored edges
    can violate the second condition: absent items have utility -p <= 0.
    """
    _check_dims(inst, pricing)
    if len(allocation) != inst.num_bidders:
        raise ValueError(
            f"allocation has {len(allocation)} entries for {inst.num_bidders} bidders"
        )
    violations: list[EnvyViolation] = []
    for b in range(inst.num_bidders):
        assigned = allocation[b]
        if assigned is None:
            utility = 0.0
        else:
            if not 0 <= assigned < inst.num_items:
                raise ValueError(
                    f"bidder {b + 1} assigned out-of-range item {assigned + 1}"
                )
            utility = inst.value(assigned, b) - pricing[assigned]
        if utility < -TOLERANCE:
            violations.append(EnvyViolation(b, assigned, -utility))
        for item, value in inst.by_bidder[b]:
            other = value - pricing[item]
            if other > utility + TOLERANCE:
                violations.append(EnvyViolation(b, item, other - utility))
    return not violations, violations


def profit(inst: Instance, pricing: Pricing) -> float:
    """The seller's profit under `pricing` and its greedy envy-free allocation."""
    _check_dims(inst, pricing)
    return _greedy(inst.by_bidder, pricing.prices)[2]


def allocation_brute_force(inst: Instance, pricing: Pricing) -> Outcome:
    """Enumerate every allocation, keep the envy-free ones, return the best.

    Oracle for envy_free_allocation on tiny instances; guarded by
    (m+1)^n <= 10^7.
    """
    _check_dims(inst, pricing)
    m, n = inst.num_items, inst.num_bidders
    if (m + 1) ** n > 10**7:
        raise TooLargeError(f"(m+1)^n = {(m + 1) ** n} exceeds the 10^7 budget")
    best: Optional[Outcome] = None
    # m encodes "no item" so that product() covers unserved bidders too
    for combo in itertools.product(range(m + 1), repeat=n):
        assignment = tuple(i if i < m else None for i in combo)
        allocation = Allocation(assignment)
        ok, _ = is_envy_free(inst, pricing, allocation)
        if not ok:
            continue
        total = sum(pricing[i] for i in assignment if i is not None)
        if best is None or total > best.profit:
            utilities = tuple(
                inst.value(i, b) - pricing[i] if i is not None else 0.0
                for b, i in enumerate(assignment)
            )
            best = Outcome(pricing, allocation, total, utilities)
    assert best is not None  # the greedy allocation is envy-free and enumerated
    return best
