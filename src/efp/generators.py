"""Random market models producing instances deterministically from a seed.

Three bipartite models: option-matching characteristic profiles, geometric
proximity in the unit square, and preferential attachment with quality-derived
market prices.  Valuations of an item cluster around its market price via a
Gaussian whose deviation scales with that price; draws are rejected until the
valuation is strictly positive.

One table names each model with its config type and generator: MODELS lists
its names in order, and generate dispatches through it, rejecting a config of
another model.  The checks every config shares, finite floats and positive m
and n, are made once, in _check_common.

All randomness flows through one SplitMix64 counter stream per generation
call, so identical (config, seed) pairs reproduce instances byte-for-byte
through the file format.  Cross-language bit-reproducibility is a non-goal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .core import Instance, validate_instance

_MASK64 = (1 << 64) - 1


class InvalidConfigError(ValueError):
    """Generator configuration violates its invariants."""


class EdgeBudgetInfeasibleError(InvalidConfigError):
    """More edges requested than the bipartite graph can hold."""


class SeededRng:
    """SplitMix64 stream: 64-bit counter state, bijectively hashed per draw.

    Uniforms take the top 53 bits; normals use Box-Muller and consume two
    uniforms per call.
    """

    __slots__ = ("_state",)

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return (z ^ (z >> 31)) & _MASK64

    def uniform(self) -> float:
        """Uniform on [0, 1)."""
        return (self.next_u64() >> 11) * 2.0**-53

    def uniform_in(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.uniform()

    def uniform_open_scaled(self, scale: float) -> float:
        """Uniform on (0, scale]: scale * (1 - u) with u on [0, 1)."""
        return scale * (1.0 - self.uniform())

    def randint(self, n: int) -> int:
        """Uniform integer on [0, n)."""
        if n <= 0:
            raise ValueError("randint needs a positive bound")
        return min(int(self.uniform() * n), n - 1)

    def normal(self, mu: float, sigma: float) -> float:
        u1 = 1.0 - self.uniform()  # (0, 1], keeps the log finite
        u2 = self.uniform()
        return mu + sigma * math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)


def _positive_valuation(rng: SeededRng, market_price: float, deviation: float) -> float:
    """1.0 + Gaussian(market_price, (market_price*deviation)^2), redrawn until > 0."""
    while True:
        v = 1.0 + rng.normal(market_price, market_price * deviation)
        if v > 0:
            return v


def _check_common(config) -> None:
    """The checks every model's config shares.  A NaN or infinite float
    field is rejected: it would reach the valuations, where a NaN market
    price makes _positive_valuation redraw forever.  So is a market without
    items or bidders."""
    for field in fields(config):
        value = getattr(config, field.name)
        if field.type in ("float", float) and not math.isfinite(value):
            raise InvalidConfigError(f"{field.name} must be finite, got {value}")
    if config.m < 1 or config.n < 1:
        raise InvalidConfigError("m and n must be positive")


@dataclass(frozen=True)
class CharacteristicsConfig:
    """Items carry option profiles; a bidder wants every characteristic matched."""

    m: int
    n: int
    c: int
    o: int
    p_pref: int
    ell: float
    h: float
    d: float

    def validate(self) -> None:
        """Reject a config the generator cannot draw from.

        Market values come from [ell, h] and must be positive, as the
        preset's [1, 100] is: for a market price p > 0 each valuation draw,
        1 + Gaussian(p, (p * d)^2), is positive with probability above 1/2,
        while a large negative p makes _positive_valuation redraw for ever.
        """
        _check_common(self)
        if self.c < 1:
            raise InvalidConfigError("need at least one characteristic")
        if not 1 <= self.p_pref <= self.o:
            raise InvalidConfigError("preferred options must satisfy 1 <= p_pref <= o")
        if self.ell > self.h:
            raise InvalidConfigError("market value interval needs ell <= h")
        if not self.ell > 0:
            raise InvalidConfigError("market values need ell > 0")
        if not self.d > 0:
            raise InvalidConfigError("deviation fraction must be positive")


@dataclass(frozen=True)
class NeighborhoodConfig:
    """Geometric proximity in the unit square; valuations decay with distance."""

    m: int
    n: int
    r: float
    h: float
    M: float

    def validate(self) -> None:
        _check_common(self)
        # the unit square's diameter caps any useful radius; r = 0 is allowed
        # and produces an empty edge set
        if not 0 <= self.r <= math.sqrt(2.0) + 1e-12:
            raise InvalidConfigError("radius must lie in [0, sqrt(2)]")
        if self.h < 1:
            raise InvalidConfigError("maximum multiplier must be at least 1")
        if not self.M > 0:
            raise InvalidConfigError("scaling factor must be positive")


@dataclass(frozen=True)
class PopularityConfig:
    """Preferential attachment; market price is quality divided by final degree."""

    m: int
    n: int
    e: int
    Q: float
    d: float

    def validate(self) -> None:
        _check_common(self)
        if self.e < 0:
            raise InvalidConfigError("edge count must be non-negative")
        if self.e > self.m * self.n:
            raise EdgeBudgetInfeasibleError(
                f"{self.e} edges requested but only {self.m * self.n} pairs exist"
            )
        if not self.Q > 0:
            raise InvalidConfigError("maximum quality must be positive")
        if not self.d > 0:
            raise InvalidConfigError("deviation fraction must be positive")


def _choose_positions(rng: SeededRng, options: int, count: int) -> list[int]:
    """`count` distinct positions from range(options), by partial Fisher-Yates."""
    pool = list(range(options))
    for j in range(count):
        k = j + rng.randint(options - j)
        pool[j], pool[k] = pool[k], pool[j]
    return pool[:count]


def gen_characteristics(cfg: CharacteristicsConfig, seed: int) -> Instance:
    """Edge ib exists iff bidder b prefers every characteristic value of item i."""
    cfg.validate()
    rng = SeededRng(seed)
    # draw order: item profiles, bidder preference rows, market prices, valuations
    chars = np.array(
        [[rng.randint(cfg.o) for _ in range(cfg.c)] for _ in range(cfg.m)], dtype=np.intp
    )
    prefs = np.zeros((cfg.n, cfg.c, cfg.o), dtype=bool)
    for b in range(cfg.n):
        for k in range(cfg.c):
            for pos in _choose_positions(rng, cfg.o, cfg.p_pref):
                prefs[b, k, pos] = True
    market = [rng.uniform_in(cfg.ell, cfg.h) for _ in range(cfg.m)]
    cols = np.arange(cfg.c)
    edges: list[tuple[int, int, float]] = []
    for i in range(cfg.m):
        matching = prefs[:, cols, chars[i]].all(axis=1)
        for b in np.flatnonzero(matching):
            edges.append((i, int(b), _positive_valuation(rng, market[i], cfg.d)))
    return validate_instance(cfg.m, cfg.n, edges)


def _place_bidders(
    rng: SeededRng, item_xy: list[tuple[float, float]], n: int
) -> list[tuple[float, float]]:
    """Uniform points in the unit square, redrawn while coincident with an item.

    Coincidence (distance below 1e-12) would make the valuation singular.
    """
    out = []
    for _ in range(n):
        while True:
            x, y = rng.uniform(), rng.uniform()
            if all(math.hypot(x - ix, y - iy) >= 1e-12 for ix, iy in item_xy):
                out.append((x, y))
                break
    return out


def gen_neighborhood(cfg: NeighborhoodConfig, seed: int) -> Instance:
    """Edge ib exists iff the item lies within distance r of the bidder."""
    cfg.validate()
    rng = SeededRng(seed)
    # draw order: item points, bidder points, bidder multipliers
    item_xy = [(rng.uniform(), rng.uniform()) for _ in range(cfg.m)]
    bidder_xy = _place_bidders(rng, item_xy, cfg.n)
    mult = [rng.uniform_in(1.0, cfg.h) for _ in range(cfg.n)]
    items = np.asarray(item_xy)
    bidders = np.asarray(bidder_xy)
    dist = np.hypot(
        items[:, 0:1] - bidders[None, :, 0], items[:, 1:2] - bidders[None, :, 1]
    )
    edges = []
    for i, b in zip(*np.nonzero(dist <= cfg.r)):
        edges.append((int(i), int(b), 1.0 + cfg.M * mult[b] / dist[i, b]))
    return validate_instance(cfg.m, cfg.n, edges)


def _market_prices(qualities: list[float], degrees: list[int]) -> list[float]:
    """Quality over final degree; items of degree zero get no market price."""
    return [q / d if d > 0 else 0.0 for q, d in zip(qualities, degrees)]


def gen_popularity(cfg: PopularityConfig, seed: int) -> Instance:
    """Preferential attachment: bidders uniform, items weighted by degree + 1.

    A draw that duplicates an existing edge redraws the whole (bidder, item)
    pair.  Loops until exactly cfg.e distinct edges exist.
    """
    cfg.validate()
    rng = SeededRng(seed)
    degrees = [0] * cfg.m
    adjacency: list[list[int]] = [[] for _ in range(cfg.m)]
    present: set[tuple[int, int]] = set()
    while len(present) < cfg.e:
        b = rng.randint(cfg.n)
        # total weight is sum(d_i + 1) = |edges so far| + m
        t = rng.randint(len(present) + cfg.m)
        acc = 0
        item = cfg.m - 1
        for i in range(cfg.m):
            acc += degrees[i] + 1
            if t < acc:
                item = i
                break
        if (item, b) in present:
            continue
        present.add((item, b))
        degrees[item] += 1
        adjacency[item].append(b)
    qualities = [rng.uniform_open_scaled(cfg.Q) for _ in range(cfg.m)]
    market = _market_prices(qualities, degrees)
    edges = []
    for i in range(cfg.m):
        for b in sorted(adjacency[i]):
            edges.append((i, b, _positive_valuation(rng, market[i], cfg.d)))
    return validate_instance(cfg.m, cfg.n, edges)


def preset(model: str, n: int):
    """Experiment configuration for a square market with n items and n bidders.

    characteristics: o = 8 options, p_pref = 7, c chosen so the expected
    bidder degree is near 8 (clamped to at least one characteristic),
    market values on [1, 100], deviation 0.25.
    neighborhood: radius sqrt(8 / (n pi)) targets mean bidder degree near 8,
    multiplier bound 3, scaling 10.
    popularity: 8n edges, maximum quality 200, deviation 0.25.
    """
    if n < 2:
        raise InvalidConfigError("presets need n >= 2")
    if model == "characteristics":
        c = max(1, math.ceil(math.log(8 / n) / math.log(7 / 8)))
        return CharacteristicsConfig(
            m=n, n=n, c=c, o=8, p_pref=7, ell=1.0, h=100.0, d=0.25
        )
    if model == "neighborhood":
        return NeighborhoodConfig(m=n, n=n, r=math.sqrt(8.0 / (n * math.pi)), h=3.0, M=10.0)
    if model == "popularity":
        return PopularityConfig(m=n, n=n, e=8 * n, Q=200.0, d=0.25)
    raise InvalidConfigError(f"unknown model {model!r}")


# each model's config type and generator; MODELS keeps the table's order,
# which the study and the benchmarks index by position
_MODELS = {
    "characteristics": (CharacteristicsConfig, gen_characteristics),
    "neighborhood": (NeighborhoodConfig, gen_neighborhood),
    "popularity": (PopularityConfig, gen_popularity),
}
MODELS = tuple(_MODELS)


def generate(model: str, config, seed: int) -> Instance:
    """Hand a config produced by preset() (or built directly) to its model's
    generator; a config of another model is an input error."""
    if model not in _MODELS:
        raise InvalidConfigError(f"unknown model {model!r}")
    config_type, generator = _MODELS[model]
    if not isinstance(config, config_type):
        raise InvalidConfigError(
            f"model {model!r} takes a {config_type.__name__}, "
            f"got a {type(config).__name__}"
        )
    return generator(config, seed)
