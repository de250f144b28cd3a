"""The four benchmark workloads: inputs from a seed, the timed op, the gate.

Every op is called through the efp module attributes (``solver.solve_mip``,
``formulations.build``, ...), never through names bound at import time, so
the traced run can rebind them.  Seed 0 reproduces the acceptance schedules;
seed s shifts every market seed (and the pricing stream of ``rounding``) by
``s * SEED_STRIDE``, so any other seed draws markets the default never uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from efp import allocation, formulations, generators, geometric, solver
from efp.allocation import is_envy_free
from efp.core import Instance, Pricing, derive_constants
from efp.formulations import ALL_KINDS, FormulationKind

SEED_STRIDE = 100_003

# A complete solve at n=15 takes 0.5-18 s and at n=8 the STM solves range
# from 0.2 to 13 s, so a 20 s window of complete solves holds a handful of
# heavy-tailed samples and its throughput swings by half between seeds.
# Capping the tree keeps the work per solve near-constant, and node LPs
# still take most of it.  Solves that close under the cap finish early.
U15_NODE_LIMIT = 40
FIVE_NODE_LIMIT = 16
EPS_GRID = (0.5, 0.25, 0.1)
HALF_FACTOR = 0.25
# Single pairs take 0.1-0.4 ms in several modes, so the median of per-pair
# latencies hops between modes from corpus to corpus; ten pairs per op make
# the latency distribution unimodal.
PAIRS_PER_OP = 10


def _tol(reference: float) -> float:
    return 1e-6 * max(1.0, abs(reference))


def _interleave(schedule: list[tuple[str, int]]) -> list[tuple[str, int]]:
    """Round-robin over generators, so a partial pass still mixes all three."""
    by_model: dict[str, list[tuple[str, int]]] = {}
    for entry in schedule:
        by_model.setdefault(entry[0], []).append(entry)
    columns = list(by_model.values())
    out = []
    for k in range(max(len(c) for c in columns)):
        out.extend(c[k] for c in columns if k < len(c))
    return out


def _markets(schedule: list[tuple[str, int]], size: int, shift: int) -> list[Instance]:
    return [
        generators.generate(model, generators.preset(model, size), seed + shift)
        for model, seed in _interleave(schedule)
    ]


@dataclass(frozen=True)
class MipSpec:
    market: int
    inst: Instance
    kinds: tuple[FormulationKind, ...]


@dataclass(frozen=True)
class LpSpec:
    inst: Instance


@dataclass(frozen=True)
class PairSpec:
    inst: Instance
    pricing: Pricing


def _mip_op(node_limit: int) -> Callable[[MipSpec], Any]:
    def op(spec: MipSpec):
        return tuple(
            solver.solve_mip(
                formulations.build(spec.inst, kind), spec.inst, node_limit=node_limit
            )
            for kind in spec.kinds
        )

    return op


def lp_op(spec: LpSpec):
    return solver.solve_lp(formulations.build(spec.inst, FormulationKind.U))


def rounding_op(batch: tuple[PairSpec, ...]):
    return tuple(round_pair(spec) for spec in batch)


def round_pair(spec: PairSpec) -> tuple[tuple[float, float, float], ...]:
    """Criterion 5's half rounding and criterion 6's three eps roundings.

    Returns (profit before, profit after, guaranteed factor) per rounding.
    """
    inst, pricing = spec.inst, spec.pricing
    before = allocation.profit(inst, pricing)
    after = allocation.profit(inst, geometric.round_pricing_half(inst, pricing))
    out = [(before, after, HALF_FACTOR)]
    for eps in EPS_GRID:
        before = allocation.profit(inst, pricing)
        after = allocation.profit(inst, geometric.round_pricing_eps(inst, pricing, eps))
        out.append((before, after, geometric.guarantee_factor(eps)))
    return tuple(out)


def _mip_check(node_limit: int) -> Callable[[MipSpec, Any, tuple], str]:
    def check(spec: MipSpec, results, reference: tuple[float, dict]) -> str:
        optimum, relaxations = reference
        return "; ".join(
            f"{kind.value}: {fault}"
            for kind, result in zip(spec.kinds, results)
            if (fault := _check_solve(spec, result, optimum, relaxations[kind], node_limit))
        )

    return check


def _check_solve(
    spec: MipSpec, result, optimum: float, relaxation: float, node_limit: int
) -> str:
    """What in one solve disagrees with HiGHS, or "" if nothing does.

    The incumbent must be envy-free with a profit that recomputes from its
    prices.  A solve stopped by the node cap must bracket the HiGHS optimum
    between its incumbent and its bound; a closed solve must equal it.
    Every comparison is written so that a NaN fails it.
    """
    tol = _tol(optimum)
    incumbent = result.incumbent
    if incumbent is None:
        return f"no incumbent (status {result.status})"
    if result.status not in ("optimal", "feasible"):
        return f"status {result.status}"
    if result.status == "feasible" and result.nodes < node_limit:
        return f"stopped feasible after {result.nodes} of {node_limit} nodes"
    envy_free, _ = is_envy_free(spec.inst, incumbent.pricing, incumbent.allocation)
    recomputed = sum(
        incumbent.pricing[i] for i in incumbent.allocation.assignment if i is not None
    )
    value, bound, root = result.incumbent_value, result.bound, result.root_relaxation
    faults = []
    if not envy_free:
        faults.append("incumbent not envy-free")
    if not abs(root - relaxation) <= _tol(relaxation):
        faults.append(f"root LP {root!r}, HiGHS {relaxation!r}")
    if not abs(recomputed - value) <= tol:
        faults.append(f"incumbent {value!r}, profit at its prices {recomputed!r}")
    if not value <= optimum + tol:
        faults.append(f"incumbent {value!r} above the HiGHS optimum {optimum!r}")
    if not bound >= optimum - tol:
        faults.append(f"bound {bound!r} below the HiGHS optimum {optimum!r}")
    if result.status == "optimal" and not abs(value - optimum) <= tol:
        faults.append(f"closed at {value!r}, HiGHS optimum {optimum!r}")
    return "; ".join(faults)


def check_lp(spec: LpSpec, result, optimum: float) -> str:
    if result.status == "optimal" and abs(result.objective - optimum) <= _tol(optimum):
        return ""
    return f"status {result.status}, objective {result.objective!r}, HiGHS {optimum!r}"


def check_rounding(batch, outcomes, _reference=None) -> str:
    return "; ".join(
        f"pair {k} rounding {j}: profit {after!r} < {factor} x {before!r}"
        for k, outcome in enumerate(outcomes)
        for j, (before, after, factor) in enumerate(outcome)
        if not after >= factor * before - 1e-6
    )


def random_pricing(rng: generators.SeededRng, inst: Instance) -> Pricing:
    """Per-item price uniform on [0, R_i], the acceptance suite's pricing draw."""
    item_max = derive_constants(inst).item_max
    return Pricing(tuple(rng.uniform() * r for r in item_max))


def pricing_corpus(count: int, shift: int, size: int = 8) -> list[PairSpec]:
    """Criteria 5 and 6's (market, random pricing) pairs; shift 0 reproduces them."""
    rng = generators.SeededRng(2024 + shift)
    pairs: list[PairSpec] = []
    gen_seed = shift
    while len(pairs) < count:
        model = generators.MODELS[len(pairs) % 3]
        inst = generators.generate(model, generators.preset(model, size), gen_seed)
        gen_seed += 1
        if not inst.valuations:
            continue
        pairs.append(PairSpec(inst, random_pricing(rng, inst)))
    return pairs


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    inputs: Callable[[int], list]
    op: Callable[[Any], Any]
    # check(spec, output, reference) -> what is wrong, "" if nothing; applied
    # outside the timed window
    check: Callable[[Any, Any, Any], str]
    # name of the highs_ref function that gives each input's reference
    reference: str | None = None


def _bnb_u15_inputs(shift: int) -> list[MipSpec]:
    schedule = [("popularity", s) for s in range(4)]
    schedule += [("characteristics", s) for s in range(3)]
    schedule += [("neighborhood", s) for s in range(3)]
    markets = _markets(schedule, 15, shift)
    return [MipSpec(j, inst, (FormulationKind.U,)) for j, inst in enumerate(markets)]


def _bnb_five_inputs(shift: int) -> list[MipSpec]:
    schedule = [(model, s) for model in generators.MODELS for s in range(10)]
    markets = _markets(schedule, 8, shift)
    return [MipSpec(j, inst, ALL_KINDS) for j, inst in enumerate(markets)]


def _root_lp_inputs(shift: int) -> list[LpSpec]:
    markets = _markets([("popularity", s) for s in range(6)], 50, shift)
    return [LpSpec(inst) for inst in markets]


def _rounding_inputs(shift: int) -> list[tuple[PairSpec, ...]]:
    pairs = pricing_corpus(1000, shift)
    return [
        tuple(pairs[k : k + PAIRS_PER_OP]) for k in range(0, len(pairs), PAIRS_PER_OP)
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "bnb-u15",
            "criterion 10's ten U markets at n=15, each solve capped at 40 nodes: "
            "node LPs take ~99% of op time",
            _bnb_u15_inputs, _mip_op(U15_NODE_LIMIT), _mip_check(U15_NODE_LIMIT),
            "mip_reference",
        ),
        Workload(
            "bnb-five-n8",
            "criterion 2's 30 markets at n=8, one op solves all five formulations "
            "capped at 16 nodes: the same search on five LP shapes",
            _bnb_five_inputs, _mip_op(FIVE_NODE_LIMIT), _mip_check(FIVE_NODE_LIMIT),
            "mip_reference",
        ),
        Workload(
            "root-lp-n50",
            "U root relaxation of popularity markets at n=50: one cold LP on a "
            "5100 x 7700 dense tableau, no branching",
            _root_lp_inputs, lp_op, check_lp, "lp_reference",
        ),
        Workload(
            "rounding",
            "criteria 5/6's 1000 (market, pricing) pairs, ten per op: rounding "
            "plus greedy profits, no LP at all",
            _rounding_inputs, rounding_op, check_rounding,
        ),
    )
}


def warm_up() -> None:
    """One pass through every layer on a tiny market, before any timing."""
    inst = generators.generate("characteristics", generators.preset("characteristics", 4), 0)
    for kind in ALL_KINDS:
        solver.solve_mip(formulations.build(inst, kind), inst)
    solver.solve_lp(formulations.build(inst, FormulationKind.U))
    pricing = Pricing(tuple(r / 2 for r in derive_constants(inst).item_max))
    round_pair(PairSpec(inst, pricing))
