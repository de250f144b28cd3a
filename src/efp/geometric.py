"""Geometric price grids and the rounding schemes with proven loss factors.

The grid anchored at the largest valuation V with ratio 1+eps is
{V / (1+eps)^k : k >= 0}.  Rounding a pricing down onto the grid (after a
fixed shrink) loses at most a constant factor of profit: 1/4 for the ratio-2
grid, 1 / (2*sqrt(eps*(1+eps)) + 2*eps + 1) in general, approaching 1 as eps
goes to 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import Instance, Pricing, derive_constants


class NonPositiveApexError(ValueError):
    """The grid anchor must be strictly positive."""


class InvalidEpsilonError(ValueError):
    """eps outside the admissible range."""


@dataclass(frozen=True)
class GeometricGrid:
    """Strictly decreasing grid d_k = apex / ratio^k for k >= 0."""

    apex: float
    ratio: float

    def __post_init__(self) -> None:
        if not self.apex > 0:
            raise NonPositiveApexError(f"grid apex must be positive, got {self.apex}")
        if not self.ratio > 1:
            raise InvalidEpsilonError(f"grid ratio must exceed 1, got {self.ratio}")

    def element(self, k: int) -> float:
        return self.apex / self.ratio**k


def floor_geometric(x: float, grid: GeometricGrid) -> float:
    """Largest grid element d_r with d_r <= x (so d_r <= x < d_{r-1}).

    Conventions beyond the grid's natural domain: x >= apex returns the apex
    itself (a price above the top element sells nothing anyway) and x = 0
    returns 0 (the grid never reaches 0).
    """
    if x < 0:
        raise ValueError(f"cannot floor a negative value: {x}")
    if x == 0:
        return 0.0
    if x >= grid.apex:
        return grid.apex
    r = math.ceil(math.log(grid.apex / x) / math.log(grid.ratio))
    if r < 0:
        r = 0
    # +-1 correction absorbs floating-point error in the logarithms
    while grid.element(r) > x:
        r += 1
    while r > 0 and grid.element(r - 1) <= x:
        r -= 1
    return grid.element(r)


def _round_down(
    inst: Instance, pricing: Pricing, ratio: float, shrink: float
) -> Pricing:
    """Floor each positive p / shrink onto the ratio grid at the top valuation.

    Zero prices stay zero; the grid needs a positive maximum valuation.
    """
    apex = derive_constants(inst).global_max
    if not apex > 0:
        raise NonPositiveApexError("instance has no positive valuation to anchor the grid")
    grid = GeometricGrid(apex, ratio)
    return Pricing(
        tuple(
            floor_geometric(p / shrink, grid) if p > 0 else 0.0
            for p in pricing.prices
        )
    )


def round_pricing_half(inst: Instance, pricing: Pricing) -> Pricing:
    """Round 2p/3 down onto the ratio-2 grid; profit loses at most a factor 4.

    Zero prices stay zero.  Requires a positive maximum valuation to anchor
    the grid.
    """
    # p / 1.5 and 2p / 3 are the same correctly rounded quotient
    return _round_down(inst, pricing, 2.0, 1.5)


def round_pricing_eps(inst: Instance, pricing: Pricing, eps: float) -> Pricing:
    """Round p/r down onto the ratio-(1+eps) grid, r = 1 + sqrt(eps/(1+eps)).

    Each positive component lands in (p_i / ((1+eps) r), p_i / r]; profit
    loses at most a factor 1/guarantee_factor(eps).  Zero prices stay zero.

    The guarantee is a lower bound only.  On a pricing that is not optimal
    the rounded profit may exceed the original, because cheaper items sell
    to more bidders; only from an optimal pricing does rounding never gain.
    """
    if not 0 < eps < 1:
        raise InvalidEpsilonError(f"eps must lie in (0, 1), got {eps}")
    return _round_down(inst, pricing, 1.0 + eps, 1.0 + math.sqrt(eps / (1.0 + eps)))


def guarantee_factor(eps: float, *, half_rounding: bool = False) -> float:
    """Provable lower bound on sol(rounded) / sol(original).

    With half_rounding the factor of the dedicated ratio-2 scheme (1/4)
    is returned; otherwise the general formula for the ratio-(1+eps) scheme,
    which tends to 1 as eps goes to 0.

    The bound is one-sided: nothing caps the ratio from above.  On a pricing
    that is not optimal, rounding may raise profit, because cheaper items
    sell to more bidders, so the ratio can exceed 1.
    """
    if not 0 < eps <= 1:
        raise InvalidEpsilonError(f"eps must lie in (0, 1], got {eps}")
    if half_rounding:
        if eps != 1:
            raise InvalidEpsilonError("the dedicated half rounding is an eps = 1 scheme")
        return 0.25
    return 1.0 / (2.0 * math.sqrt(eps * (1.0 + eps)) + 2.0 * eps + 1.0)
