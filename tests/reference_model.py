"""The five formulations written row by row as name-keyed dicts: an oracle.

reference_build is formulations.build as it was when every model was a set
of coefficient dicts.  It shares no array code with the array-native build,
so the property tests can ask both for the same LP export and the same
solver arrays.
"""

from __future__ import annotations

import math
from typing import Mapping

from efp.core import Instance, derive_constants
from efp.formulations import Constraint, FormulationKind, MipModel, Variable


def _x(i: int, b: int) -> str:
    return f"x_{i + 1}_{b + 1}"


def _p(i: int) -> str:
    return f"p_{i + 1}"


def _ph(i: int, b: int) -> str:
    return f"ph_{i + 1}_{b + 1}"


def _z(b: int) -> str:
    return f"z_{b + 1}"


def _u(b: int) -> str:
    return f"u_{b + 1}"


def _sum(*terms: Mapping[str, float]) -> dict[str, float]:
    """The terms' coefficients in one dict, in order; the names are disjoint."""
    return {name: c for term in terms for name, c in term.items()}


def reference_build(
    inst: Instance, kind: FormulationKind, *, price_bound: bool = True
) -> MipModel:
    """Translate an instance into the requested formulation, dict by dict."""
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
        return MipModel.from_rows(tuple(variables), objective, tuple(cons))
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
    return MipModel.from_rows(tuple(variables), objective, tuple(cons))
