"""The greedy envy-free allocation as it was, one call per bidder: an oracle.

best_response and envy_free_allocation are efp.allocation's as they were
when each bidder's choice came from its own _best_response call, which kept
the incumbent as an (item, utility) pair and read its price back from the
pricing.  The library now scans all bidders in one loop; on the same market
and pricing both must pick the same items and leave the same bits.
"""

from __future__ import annotations

from typing import Optional

from efp.allocation import Outcome
from efp.core import TOLERANCE, Allocation, Instance, Pricing


def best_response(
    inst: Instance, pricing: Pricing, bidder: int
) -> Optional[tuple[int, float]]:
    prices = pricing.prices
    best: Optional[tuple[int, float]] = None
    for item, value in inst.by_bidder[bidder]:
        utility = value - prices[item]
        if utility < -TOLERANCE:
            continue
        if best is None:
            best = (item, utility)
        elif utility > best[1] + TOLERANCE:
            best = (item, utility)
        elif utility > best[1] - TOLERANCE and prices[item] > prices[best[0]] + TOLERANCE:
            best = (item, utility)
        # remaining ties keep the incumbent, i.e. the lowest item index
    return best


def envy_free_allocation(inst: Instance, pricing: Pricing) -> Outcome:
    assignment: list[Optional[int]] = []
    utilities: list[float] = []
    profit = 0.0
    for b in range(inst.num_bidders):
        choice = best_response(inst, pricing, b)
        if choice is None:
            assignment.append(None)
            utilities.append(0.0)
        else:
            item, utility = choice
            assignment.append(item)
            utilities.append(utility)
            profit += pricing[item]
    return Outcome(pricing, Allocation(tuple(assignment)), profit, tuple(utilities))
