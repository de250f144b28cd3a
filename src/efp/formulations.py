"""Mixed-integer models of the pricing problem, in five equivalent shapes.

All five formulations share the binary assignment matrix x and the price
vector p.  STM, I and L track the price paid per (item, bidder) pair; P
aggregates it into a per-bidder profit variable; U tracks bidder utilities
instead.  STM bounds envy over all items except the candidate, I strengthens
that to the full item set, L drops the price-cap rows from I, and P and U are
the compact two- and one-sided big-M variants.  Big-M constants are the
per-item maxima R and, for U, R plus the per-bidder maxima S.

Variable names use 1-based indices (x_i_b, p_i, ph_i_b, z_b, u_b) to match
the external file format and the LP text export.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from enum import Enum
from typing import Mapping

from .allocation import Outcome
from .core import Allocation, Instance, Pricing, derive_constants


class InfeasibleAssignmentError(ValueError):
    """A variable assignment violates the model beyond tolerance."""


class FormulationKind(str, Enum):
    STM = "STM"
    I = "I"
    L = "L"
    P = "P"
    U = "U"


ALL_KINDS = tuple(FormulationKind)


@dataclass(frozen=True)
class Variable:
    name: str
    lower: float
    upper: float  # math.inf when unbounded above
    integer: bool


@dataclass(frozen=True)
class Constraint:
    name: str
    coeffs: dict[str, float]
    sense: str  # one of '<=', '>=', '='
    rhs: float


@dataclass(frozen=True)
class MipModel:
    """Solver-agnostic linear model: variables, maximize objective, constraints."""

    variables: tuple[Variable, ...]
    objective: dict[str, float]  # sense is always maximize
    constraints: tuple[Constraint, ...]

    def __post_init__(self) -> None:
        names = [v.name for v in self.variables]
        declared = set(names)
        if len(declared) != len(names):
            raise ValueError("variable names must be unique")
        for v in self.variables:
            if v.integer and (v.lower, v.upper) != (0.0, 1.0):
                raise ValueError(f"integer variable {v.name} must be binary")
        for name in self.objective:
            if name not in declared:
                raise ValueError(f"objective references undeclared variable {name}")
        seen = set()
        for con in self.constraints:
            if con.name in seen:
                raise ValueError(f"duplicate constraint name {con.name}")
            seen.add(con.name)
            if con.sense not in ("<=", ">=", "="):
                raise ValueError(f"constraint {con.name} has sense {con.sense!r}")
            for name in con.coeffs:
                if name not in declared:
                    raise ValueError(
                        f"constraint {con.name} references undeclared variable {name}"
                    )


# cached, so every model built shares one string per variable name
@cache
def _x(i: int, b: int) -> str:
    return f"x_{i + 1}_{b + 1}"


@cache
def _p(i: int) -> str:
    return f"p_{i + 1}"


@cache
def _ph(i: int, b: int) -> str:
    return f"ph_{i + 1}_{b + 1}"


@cache
def _z(b: int) -> str:
    return f"z_{b + 1}"


@cache
def _u(b: int) -> str:
    return f"u_{b + 1}"


def _sum(*terms: Mapping[str, float]) -> dict[str, float]:
    """The terms' coefficients in one dict, in order; the names are disjoint."""
    return {name: c for term in terms for name, c in term.items()}


def build(inst: Instance, kind: FormulationKind, *, price_bound: bool = True) -> MipModel:
    """Translate an instance into the requested formulation.

    With price_bound each price variable is capped at the item's maximum
    valuation: any higher price sells nothing, so the cap tightens the
    relaxation without cutting an optimal outcome.  Disable it to keep the
    price variables unbounded above.
    """
    kind = FormulationKind(kind)
    m, n = inst.num_items, inst.num_bidders
    consts = derive_constants(inst)
    R, S = consts.item_max, consts.bidder_max
    value = inst.value
    pairs = [(i, b) for i in range(m) for b in range(n)]
    x = {(i, b): _x(i, b) for i, b in pairs}
    price = [_p(i) for i in range(m)]
    # the valuation term v_ib x_ib of each pair, left out where v_ib = 0
    vx = {(i, b): {x[i, b]: value(i, b)} if value(i, b) > 0 else {} for i, b in pairs}
    # and its sum over the items, per bidder: sum_i v_ib x_ib
    welfare = [_sum(*(vx[i, b] for i in range(m))) for b in range(n)]

    # the one auxiliary family: the utility u_b in U, otherwise the price paid
    # for item i by bidder b, ph_ib, which P aggregates into z_b
    if kind is FormulationKind.U:
        aux = [_u(b) for b in range(n)]
    elif kind is FormulationKind.P:
        aux = [_z(b) for b in range(n)]
        paid = {(i, b): aux[b] for i, b in pairs}
    else:
        aux = [_ph(i, b) for i, b in pairs]
        paid = dict(zip(pairs, aux))
    variables = [Variable(x[i, b], 0.0, 1.0, True) for i, b in pairs]
    variables += [
        Variable(price[i], 0.0, R[i] if price_bound else math.inf, False)
        for i in range(m)
    ]
    variables += [Variable(name, 0.0, math.inf, False) for name in aux]
    if kind is FormulationKind.U:
        objective = _sum(*vx.values(), dict.fromkeys(aux, -1.0))
    else:
        objective = dict.fromkeys(aux, 1.0)

    cons = [
        Constraint(f"assign_{b + 1}", {x[i, b]: 1.0 for i in range(m)}, "<=", 1.0)
        for b in range(n)
    ]
    # what bidder b keeps: u_b in U, otherwise sum_i v_ib x_ib less what b
    # pays, sum_i ph_ib or z_b in P
    if kind is FormulationKind.U:
        surplus = [{aux[b]: 1.0} for b in range(n)]
    elif kind is FormulationKind.P:
        surplus = [{**welfare[b], aux[b]: -1.0} for b in range(n)]
    else:
        surplus = [
            _sum(*({**vx[i, b], paid[i, b]: -1.0} for i in range(m))) for b in range(n)
        ]
    for k, b in pairs:
        if kind is FormulationKind.STM:
            # sum_{i != k} (v_ib - v_kb) x_ib - sum_{i != k} ph_ib + p_k >= 0
            coeffs = {}
            for i in range(m):
                if i == k:
                    continue
                c = value(i, b) - value(k, b)
                if c != 0.0:
                    coeffs[x[i, b]] = c
                coeffs[paid[i, b]] = -1.0
            coeffs[price[k]] = 1.0
            cons.append(Constraint(f"envy_{k + 1}_{b + 1}", coeffs, ">=", 0.0))
        else:
            # surplus_b + p_k >= v_kb
            coeffs = {**surplus[b], price[k]: 1.0}
            cons.append(Constraint(f"envy_{k + 1}_{b + 1}", coeffs, ">=", value(k, b)))
    if kind is FormulationKind.U:
        for i, b in pairs:
            # u_b <= v_ib x_ib - p_i + (1 - x_ib)(R_i + S_b)
            big = R[i] + S[b]
            coeffs = {aux[b]: 1.0, price[i]: 1.0, x[i, b]: big - value(i, b)}
            cons.append(Constraint(f"ub_util_{i + 1}_{b + 1}", coeffs, "<=", big))
        for b in range(n):
            coeffs = {aux[b]: 1.0, **{name: -c for name, c in welfare[b].items()}}
            cons.append(Constraint(f"cap_util_{b + 1}", coeffs, "<=", 0.0))
        return MipModel(tuple(variables), objective, tuple(cons))
    if kind is FormulationKind.P:
        cons += [Constraint(f"value_{b + 1}", surplus[b], ">=", 0.0) for b in range(n)]
    else:
        for i, b in pairs:
            coeffs = {paid[i, b]: -1.0, **vx[i, b]}
            cons.append(Constraint(f"value_{i + 1}_{b + 1}", coeffs, ">=", 0.0))
    if kind in (FormulationKind.STM, FormulationKind.I):
        for i, b in pairs:
            coeffs = {paid[i, b]: 1.0, price[i]: -1.0}
            cons.append(Constraint(f"ub_price_{i + 1}_{b + 1}", coeffs, "<=", 0.0))
    for i, b in pairs:
        # ph_ib >= p_i - R_i (1 - x_ib), with z_b in place of ph_ib in P
        coeffs = {paid[i, b]: 1.0, price[i]: -1.0, x[i, b]: -R[i]}
        cons.append(Constraint(f"lb_price_{i + 1}_{b + 1}", coeffs, ">=", -R[i]))
    return MipModel(tuple(variables), objective, tuple(cons))


def objective_value(model: MipModel, values: Mapping[str, float]) -> float:
    return sum(c * values.get(name, 0.0) for name, c in model.objective.items())


def constraint_violations(
    model: MipModel, values: Mapping[str, float], tol: float = 1e-6
) -> list[tuple[str, float]]:
    """Constraints (and bounds) violated beyond tol, with the excess amount."""
    out: list[tuple[str, float]] = []
    for v in model.variables:
        x = values.get(v.name, 0.0)
        if x < v.lower - tol:
            out.append((f"lb({v.name})", v.lower - x))
        if x > v.upper + tol:
            out.append((f"ub({v.name})", x - v.upper))
    for con in model.constraints:
        lhs = sum(c * values.get(name, 0.0) for name, c in con.coeffs.items())
        if con.sense == "<=":
            excess = lhs - con.rhs
        elif con.sense == ">=":
            excess = con.rhs - lhs
        else:
            excess = abs(lhs - con.rhs)
        if excess > tol:
            out.append((con.name, excess))
    return out


def extract_outcome(
    inst: Instance,
    kind: FormulationKind,
    values: Mapping[str, float],
    *,
    price_bound: bool = True,
) -> Outcome:
    """Read an outcome off an integral-feasible variable assignment.

    Verifies integrality of the assignment variables and every constraint
    within 1e-6, then rebuilds the pricing and allocation and recomputes the
    profit, which must match the model objective within 1e-6.  Pass
    price_bound=False for assignments coming from a model built without the
    per-item price cap.
    """
    tol = 1e-6
    model = build(inst, kind, price_bound=price_bound)
    for i in range(inst.num_items):
        for b in range(inst.num_bidders):
            x = values.get(_x(i, b), 0.0)
            if abs(x - round(x)) > tol:
                raise InfeasibleAssignmentError(f"{_x(i, b)} = {x} is not integral")
    bad = constraint_violations(model, values, tol)
    if bad:
        name, excess = bad[0]
        raise InfeasibleAssignmentError(
            f"{len(bad)} violated constraints, first {name} by {excess:.3g}"
        )
    prices = Pricing(
        tuple(max(0.0, values.get(_p(i), 0.0)) for i in range(inst.num_items))
    )
    assignment: list[int | None] = [None] * inst.num_bidders
    for b in range(inst.num_bidders):
        for i in range(inst.num_items):
            if round(values.get(_x(i, b), 0.0)) == 1:
                assignment[b] = i
                break
    total = sum(prices[i] for i in assignment if i is not None)
    utilities = tuple(
        inst.value(i, b) - prices[i] if i is not None else 0.0
        for b, i in enumerate(assignment)
    )
    declared = objective_value(model, values)
    if abs(total - declared) > tol:
        raise InfeasibleAssignmentError(
            f"profit {total} does not match objective {declared}"
        )
    return Outcome(prices, Allocation(tuple(assignment)), total, utilities)


def embed_outcome(
    inst: Instance, kind: FormulationKind, outcome: Outcome
) -> dict[str, float]:
    """Variable assignment representing an envy-free outcome in a formulation.

    The point is integral-feasible with objective equal to the outcome's
    profit, which is what lets any envy-free allocation seed the solver's
    incumbent.  Prices are capped at the item's maximum valuation: the big-M
    rows admit no feasible point with an unsold item priced above its cap,
    and a capped item never sells, so the profit is unchanged.
    """
    kind = FormulationKind(kind)
    consts = derive_constants(inst)
    values: dict[str, float] = {}
    for i in range(inst.num_items):
        values[_p(i)] = min(outcome.pricing[i], consts.item_max[i])
    for b, assigned in enumerate(outcome.allocation.assignment):
        for i in range(inst.num_items):
            values[_x(i, b)] = 1.0 if i == assigned else 0.0
    if kind in (FormulationKind.STM, FormulationKind.I, FormulationKind.L):
        for i in range(inst.num_items):
            for b in range(inst.num_bidders):
                sold = outcome.allocation[b] == i
                values[_ph(i, b)] = values[_p(i)] if sold else 0.0
    elif kind is FormulationKind.P:
        for b, assigned in enumerate(outcome.allocation.assignment):
            values[_z(b)] = values[_p(assigned)] if assigned is not None else 0.0
    else:
        for b, assigned in enumerate(outcome.allocation.assignment):
            if assigned is None:
                values[_u(b)] = 0.0
            else:
                values[_u(b)] = inst.value(assigned, b) - values[_p(assigned)]
    return values


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _terms(coeffs: Mapping[str, float]) -> str:
    parts = []
    for name, c in coeffs.items():
        sign = "-" if c < 0 else "+"
        parts.append(f"{sign} {_fmt(abs(c))} {name}")
    return " ".join(parts) if parts else "0"


def export_lp_text(model: MipModel) -> str:
    """Emit the model in LP text format, deterministically ordered.

    Sections: Maximize, Subject To, Bounds, Binaries, End.  Constraints
    appear in declaration order; coefficients carry up to 12 significant
    digits.
    """
    lines = ["Maximize", f" obj: {_terms(model.objective)}", "Subject To"]
    for con in model.constraints:
        lines.append(f" {con.name}: {_terms(con.coeffs)} {con.sense} {_fmt(con.rhs)}")
    lines.append("Bounds")
    for v in model.variables:
        if v.integer:
            continue
        if math.isinf(v.upper):
            lines.append(f" {v.name} >= {_fmt(v.lower)}")
        else:
            lines.append(f" {_fmt(v.lower)} <= {v.name} <= {_fmt(v.upper)}")
    lines.append("Binaries")
    binaries = [v.name for v in model.variables if v.integer]
    for start in range(0, len(binaries), 8):
        lines.append(" " + " ".join(binaries[start : start + 8]))
    lines.append("End")
    return "\n".join(lines) + "\n"
