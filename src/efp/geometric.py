"""Geometric price grids and the rounding schemes with proven loss factors.

The grid anchored at the largest valuation V with ratio 1+eps is
{V / (1+eps)^k : k >= 0}.  Rounding a pricing down onto the grid (after a
fixed shrink) loses at most a constant factor of profit.  Each eps in (0, 1]
has one scheme, its grid ratio, shrink and factor decided in _scheme: eps = 1
runs the dedicated ratio-2 scheme, factor 1/4; below 1 the ratio-(1+eps)
scheme has factor 1 / (2*sqrt(eps*(1+eps)) + 2*eps + 1), approaching 1 as
eps goes to 0.  A floor usually computes two grid elements, d_r and d_{r-1}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .core import Instance, Pricing


class NonPositiveApexError(ValueError):
    """The grid anchor must be strictly positive."""


class InvalidEpsilonError(ValueError):
    """eps outside the admissible range."""


@dataclass(frozen=True)
class GeometricGrid:
    """Strictly decreasing grid d_k = apex / ratio^k for k >= 0; logs taken once."""

    apex: float
    ratio: float
    log_apex: float = field(init=False, repr=False, compare=False)
    log_ratio: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.apex > 0:
            raise NonPositiveApexError(f"grid apex must be positive, got {self.apex}")
        if not self.ratio > 1:
            raise InvalidEpsilonError(f"grid ratio must exceed 1, got {self.ratio}")
        object.__setattr__(self, "log_apex", math.log(self.apex))
        object.__setattr__(self, "log_ratio", math.log(self.ratio))

    def element(self, k: int) -> float:
        return _over_power(self.apex, self.ratio, k)


def _over_power(d: float, ratio: float, k: int) -> float:
    """d / ratio**k, divided by the power's two halves in turn where
    ratio**k itself leaves the float range."""
    try:
        return d / ratio**k
    except OverflowError:
        return _over_power(_over_power(d, ratio, k // 2), ratio, k - k // 2)


def floor_geometric(x: float, grid: GeometricGrid) -> float:
    """Largest grid element d_r with d_r <= x (so d_r <= x < d_{r-1}).

    Conventions beyond the grid's natural domain: x >= apex returns the apex
    itself (a price above the top element sells nothing anyway) and x = 0
    returns 0 (the grid never reaches 0).  A NaN is rejected as a negative
    value is.
    """
    if not x >= 0:
        raise ValueError(f"cannot floor a negative value: {x}")
    if x == 0:
        return 0.0
    if x >= grid.apex:
        return grid.apex
    r = max(0, math.ceil((grid.log_apex - math.log(x)) / grid.log_ratio))
    # The log estimate misses by a step or so in floating point, but by up to
    # billions where a run of grid elements rounds to one subnormal.  Gallop
    # from it to a bracket d_lo > x >= d_hi (d_{-1} counts as above x), then
    # bisect: elements never increase with k, so the answer is one value.
    lo, hi, step = r, r + 1, 1
    if (d_hi := grid.element(r)) <= x:
        lo, hi = r - 1, r
        while lo >= 0 and (d_lo := grid.element(lo)) <= x:
            lo, hi, d_hi, step = max(-1, lo - step), lo, d_lo, 2 * step
    else:
        while (d_hi := grid.element(hi)) > x:
            lo, hi, step = hi, hi + step, 2 * step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if (d_mid := grid.element(mid)) > x:
            lo = mid
        else:
            hi, d_hi = mid, d_mid
    return d_hi


def _round_down(inst: Instance, pricing: Pricing, eps: float) -> Pricing:
    """Floor each positive p / shrink onto the grid of eps's scheme, anchored
    at the top valuation.

    Zero prices stay zero; the grid needs a positive maximum valuation.
    """
    ratio, shrink, _ = _scheme(eps)
    apex = max(inst.valuations.values(), default=0.0)
    if not apex > 0:
        raise NonPositiveApexError("instance has no positive valuation to anchor the grid")
    grid = GeometricGrid(apex, ratio)
    return Pricing(
        tuple(
            floor_geometric(p / shrink, grid) if p > 0 else 0.0
            for p in pricing.prices
        )
    )


def _scheme(eps: float) -> tuple[float, float, float]:
    """(grid ratio, shrink, guaranteed factor) of the rounding run at eps.

    eps = 1 runs the dedicated ratio-2 scheme: 2p/3 onto the ratio-2 grid,
    which loses at most a factor 4.  Below 1 the grid ratio is 1+eps, the
    shrink r = 1 + sqrt(eps/(1+eps)) and the factor
    1 / (2*sqrt(eps*(1+eps)) + 2*eps + 1).
    """
    if not 0 < eps <= 1:
        raise InvalidEpsilonError(f"eps must lie in (0, 1], got {eps}")
    if eps == 1:
        # p / 1.5 and 2p / 3 are the same correctly rounded quotient
        return 2.0, 1.5, 0.25
    shrink = 1.0 + math.sqrt(eps / (1.0 + eps))
    factor = 1.0 / (2.0 * math.sqrt(eps * (1.0 + eps)) + 2.0 * eps + 1.0)
    return 1.0 + eps, shrink, factor


def round_pricing_half(inst: Instance, pricing: Pricing) -> Pricing:
    """Round 2p/3 down onto the ratio-2 grid, the scheme run at eps = 1;
    profit loses at most a factor 4.

    Zero prices stay zero.  Requires a positive maximum valuation to anchor
    the grid.
    """
    return _round_down(inst, pricing, 1.0)


def round_pricing_eps(inst: Instance, pricing: Pricing, eps: float) -> Pricing:
    """Round p/r down onto the grid of the scheme run at eps in (0, 1].

    Below eps = 1 the grid ratio is 1+eps and r = 1 + sqrt(eps/(1+eps)), so
    each positive component lands in (p_i / ((1+eps) r), p_i / r]; eps = 1
    is round_pricing_half.  Profit loses at most a factor
    1/guarantee_factor(eps).  Zero prices stay zero.

    The guarantee is a lower bound only.  On a pricing that is not optimal
    the rounded profit may exceed the original, because cheaper items sell
    to more bidders; only from an optimal pricing does rounding never gain.
    """
    return _round_down(inst, pricing, eps)


def guarantee_factor(eps: float) -> float:
    """Provable lower bound on sol(rounded) / sol(original) for the scheme
    round_pricing_eps runs at eps: 1/4 at eps = 1, and below 1 a factor
    that tends to 1 as eps goes to 0.

    The bound is one-sided: nothing caps the ratio from above.  On a pricing
    that is not optimal, rounding may raise profit, because cheaper items
    sell to more bidders, so the ratio can exceed 1.
    """
    return _scheme(eps)[2]
