"""Domain types for unit-demand markets: instances, pricings, allocations.

A market instance is a sparse valuation matrix over items x bidders.  Zero
valuations are represented by absence; every stored entry is strictly
positive.  Instance.matrix is the one dense copy of it, built at most once
per instance, which the formulations and the oracle read.  All types are
immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Optional

import numpy as np

# Absolute tolerance for equality comparisons on valuations, prices and
# utilities throughout the package.
TOLERANCE = 1e-9


class InstanceError(ValueError):
    """Invalid market instance data.

    Messages name items and bidders 1-based, as Pricing, the file format and
    the CLI do; the item and bidder attributes stay 0-based.
    """


class DuplicateEdgeError(InstanceError):
    def __init__(self, item: int, bidder: int) -> None:
        super().__init__(
            f"duplicate valuation for item {item + 1}, bidder {bidder + 1}"
        )
        self.item = item
        self.bidder = bidder


class NonPositiveValueError(InstanceError):
    def __init__(self, item: int, bidder: int, value: float) -> None:
        super().__init__(
            f"valuation for item {item + 1}, bidder {bidder + 1} must be positive "
            f"and finite, got {value}"
        )
        self.item = item
        self.bidder = bidder
        self.value = value


class IndexOutOfRangeError(InstanceError):
    def __init__(self, item: int, bidder: int, num_items: int, num_bidders: int) -> None:
        super().__init__(
            f"edge ({item + 1}, {bidder + 1}) outside {num_items} items x "
            f"{num_bidders} bidders"
        )
        self.item = item
        self.bidder = bidder


@dataclass(frozen=True)
class Instance:
    """Sparse valuation matrix: ``valuations[(item, bidder)]`` finite and > 0,
    absent = 0."""

    num_items: int
    num_bidders: int
    valuations: dict[tuple[int, int], float]

    def __post_init__(self) -> None:
        if self.num_items < 1 or self.num_bidders < 1:
            raise InstanceError("instance needs at least one item and one bidder")
        for (i, b), v in self.valuations.items():
            if not (0 <= i < self.num_items and 0 <= b < self.num_bidders):
                raise IndexOutOfRangeError(i, b, self.num_items, self.num_bidders)
            if not 0 < v < math.inf:
                raise NonPositiveValueError(i, b, v)

    def value(self, item: int, bidder: int) -> float:
        return self.valuations.get((item, bidder), 0.0)

    @cached_property
    def by_bidder(self) -> tuple[tuple[tuple[int, float], ...], ...]:
        """Per-bidder list of (item, valuation) pairs, items ascending."""
        rows: list[list[tuple[int, float]]] = [[] for _ in range(self.num_bidders)]
        for (i, b), v in sorted(self.valuations.items()):
            rows[b].append((i, v))
        return tuple(tuple(r) for r in rows)

    @cached_property
    def matrix(self) -> np.ndarray:
        """Read-only items x bidders array of the valuations, 0 where absent."""
        V = np.zeros((self.num_items, self.num_bidders))
        if self.valuations:
            V[tuple(np.array(list(self.valuations)).T)] = list(self.valuations.values())
        V.flags.writeable = False
        return V

    def sorted_edges(self) -> Iterator[tuple[int, int, float]]:
        """Edges as (item, bidder, value), ordered by (item, bidder)."""
        for (i, b), v in sorted(self.valuations.items()):
            yield i, b, v

    def isclose(self, other: "Instance", tol: float = TOLERANCE) -> bool:
        """Structural equality with per-entry value tolerance ``tol``."""
        if (self.num_items, self.num_bidders) != (other.num_items, other.num_bidders):
            return False
        if self.valuations.keys() != other.valuations.keys():
            return False
        return all(
            abs(v - other.valuations[k]) <= tol for k, v in self.valuations.items()
        )


@dataclass(frozen=True)
class Pricing:
    """Non-negative price per item, dense over item indices."""

    prices: tuple[float, ...]

    def __post_init__(self) -> None:
        for i, p in enumerate(self.prices):
            if not p >= 0:  # also rejects NaN; items are named 1-based, as printed
                raise ValueError(f"price of item {i + 1} must be non-negative, got {p}")

    def __len__(self) -> int:
        return len(self.prices)

    def __getitem__(self, item: int) -> float:
        return self.prices[item]


@dataclass(frozen=True)
class Allocation:
    """Per-bidder assigned item index, or None for an unserved bidder."""

    assignment: tuple[Optional[int], ...]

    def __len__(self) -> int:
        return len(self.assignment)

    def __getitem__(self, bidder: int) -> Optional[int]:
        return self.assignment[bidder]

    def served(self) -> tuple[int, ...]:
        """Indices of bidders that receive an item."""
        return tuple(b for b, i in enumerate(self.assignment) if i is not None)


@dataclass(frozen=True)
class DerivedConstants:
    """Big-M data: per-item max, per-bidder max and global max valuation."""

    item_max: tuple[float, ...]
    bidder_max: tuple[float, ...]
    global_max: float


def validate_instance(
    num_items: int, num_bidders: int, edges: Iterable[tuple[int, int, float]]
) -> Instance:
    """Build an Instance from a raw edge list, rejecting malformed input.

    Raises DuplicateEdgeError, NonPositiveValueError or IndexOutOfRangeError.
    """
    if num_items < 1 or num_bidders < 1:
        raise InstanceError("instance needs at least one item and one bidder")
    valuations: dict[tuple[int, int], float] = {}
    for item, bidder, value in edges:
        if not (0 <= item < num_items and 0 <= bidder < num_bidders):
            raise IndexOutOfRangeError(item, bidder, num_items, num_bidders)
        if (item, bidder) in valuations:
            raise DuplicateEdgeError(item, bidder)
        if not 0 < value < math.inf:
            raise NonPositiveValueError(item, bidder, value)
        valuations[(item, bidder)] = float(value)
    return Instance(num_items, num_bidders, valuations)


def derive_constants(inst: Instance) -> DerivedConstants:
    """Per-item maxima, per-bidder maxima and the global maximum valuation.

    Items or bidders without stored valuations get 0; an empty valuation map
    yields a global maximum of 0.
    """
    item_max = [0.0] * inst.num_items
    bidder_max = [0.0] * inst.num_bidders
    global_max = 0.0
    for (i, b), v in inst.valuations.items():
        if v > item_max[i]:
            item_max[i] = v
        if v > bidder_max[b]:
            bidder_max[b] = v
        if v > global_max:
            global_max = v
    return DerivedConstants(tuple(item_max), tuple(bidder_max), global_max)
