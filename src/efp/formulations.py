"""Mixed-integer models of the pricing problem, in five equivalent shapes.

All five formulations share the binary assignment matrix x and the price
vector p.  STM, I and L track the price paid per (item, bidder) pair; P
aggregates it into a per-bidder profit variable; U tracks bidder utilities
instead.  STM bounds envy over all items except the candidate, I strengthens
that to the full item set, L drops the price-cap rows from I, and P and U are
the compact two- and one-sided big-M variants.  Big-M constants are the
per-item maxima R and, for U, R plus the per-bidder maxima S.

A model is the solver's arrays.  build() writes them with numpy from
Instance.matrix, one block of rows at a time, each a fixed-width
template per row flattened by a keep mask.  So rows keep their declaration
order, terms with a zero valuation stay out and explicit zeros (U's
R_i + S_b - v_ib) stay in.  Names are for views and the LP export only.

Variable names use 1-based indices (x_i_b, p_i, ph_i_b, z_b, u_b) to match
the external file format and the LP text export.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property, lru_cache
from enum import Enum
from types import MappingProxyType
from typing import Mapping

import numpy as np
from scipy import sparse

from .allocation import Outcome
from .core import Allocation, Instance, Pricing


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
    coeffs: Mapping[str, float]
    sense: str  # one of '<=', '>=', '='
    rhs: float


@dataclass(frozen=True, eq=False)
class MipModel:
    """Maximize c x subject to A x (senses) b and lb <= x <= ub, the integer
    columns binary.  Each row of the CSR A keeps its entries in declaration
    order.  prices holds the positions of p_1..p_m in item order.  The
    arrays are read-only; variables, objective and constraints view them."""

    names: tuple[str, ...]
    c: np.ndarray
    A: sparse.csr_array
    senses: tuple[str, ...]
    b: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    integer: np.ndarray
    row_names: tuple[str, ...]
    prices: np.ndarray

    def __post_init__(self) -> None:
        nvars, nrows = len(self.names), len(self.row_names)
        _check_labels(self.names, self.row_names, self.senses)
        for j in np.flatnonzero(self.integer & ((self.lb != 0) | (self.ub != 1)))[:1]:
            raise ValueError(f"integer variable {self.names[j]} must be binary")
        if self.c.shape != (nvars,):
            raise ValueError("objective references undeclared variables")
        if self.A.shape != (nrows, nvars) or len(self.senses) != nrows:
            raise ValueError(f"A is {self.A.shape} for {nrows} rows and {nvars} columns")
        for k in np.flatnonzero(self.A.indices >= nvars)[:1]:
            row = self.row_names[np.searchsorted(self.A.indptr, k, side="right") - 1]
            raise ValueError(f"constraint {row} references an undeclared column")
        for part in (self.c, self.b, self.lb, self.ub, self.integer, self.prices,
                     self.A.data, self.A.indices, self.A.indptr):
            part.flags.writeable = False

    @classmethod
    def from_rows(cls, variables, objective, constraints) -> MipModel:
        """A model from named rows, each constraint's coefficients in order.  A
        name no variable declares becomes a column index out of range, which
        the model rejects.  The price columns are those named p_*."""
        names = tuple(v.name for v in variables)
        col = {name: j for j, name in enumerate(names)}.get

        def entries(coeffs):  # each term's column and value
            terms = [(col(name, len(names)), c) for name, c in coeffs]
            cols, data = np.array(terms, dtype=float).reshape(-1, 2).T
            return cols.astype(np.int64), data
        cols, data = entries(kv for con in constraints for kv in con.coeffs.items())
        indptr = np.cumsum([0] + [len(con.coeffs) for con in constraints])
        return cls(
            names, np.bincount(*entries(objective.items()), len(names)) + 0.0,
            sparse.csr_array((data, cols, indptr), shape=(len(constraints), len(names))),
            tuple(con.sense for con in constraints),
            np.array([con.rhs for con in constraints], dtype=float),
            *(np.array([getattr(v, f) for v in variables], dtype=t)
              for f, t in (("lower", float), ("upper", float), ("integer", bool))),
            tuple(con.name for con in constraints),
            np.flatnonzero([name.startswith("p_") for name in names]),
        )

    @cached_property
    def variables(self) -> tuple[Variable, ...]:
        bounds = (self.lb.tolist(), self.ub.tolist(), self.integer.tolist())
        return tuple(map(Variable, self.names, *bounds))

    @cached_property
    def objective(self) -> Mapping[str, float]:
        """The nonzero objective coefficients by name, in column order."""
        return MappingProxyType({n: c for n, c in zip(self.names, self.c.tolist()) if c})

    @cached_property
    def constraints(self) -> tuple[Constraint, ...]:
        """Each row by name, its coefficients in declaration order."""
        cols = list(map(self.names.__getitem__, self.A.indices.tolist()))
        data, ends = self.A.data.tolist(), self.A.indptr.tolist()
        rows = zip(self.row_names, ends, ends[1:], self.senses, self.b.tolist())
        return tuple(
            Constraint(row, MappingProxyType(dict(zip(cols[s:e], data[s:e]))), sense, rhs)
            for row, s, e, sense, rhs in rows
        )


@lru_cache(maxsize=64)  # every build of one layout passes the same tuples
def _check_labels(
    names: tuple[str, ...], row_names: tuple[str, ...], senses: tuple[str, ...]
) -> None:
    """Names are unique and every sense is known; a failed check is not
    cached, so it raises on every model that fails it."""
    if len(set(names)) != len(names) or len(set(row_names)) != len(row_names):
        raise ValueError("variable names and constraint names must be unique")
    for sense in set(senses) - {"<=", ">=", "="}:
        row = row_names[senses.index(sense)]
        raise ValueError(f"constraint {row} has sense {sense!r}")


@cache  # so every model of one layout shares its label strings
def _layout(m: int, n: int, aux: str, blocks: tuple) -> tuple[tuple[str, ...], ...]:
    """Column names, row names and senses of an m x n model with auxiliary
    family aux and row blocks (label, sense, a row per pair, else per bidder)."""
    pairs = [f"{i + 1}_{b + 1}" for i in range(m) for b in range(n)]
    bidders = [f"{b + 1}" for b in range(n)]
    own = (f"{aux}_{key}" for key in (pairs if aux == "ph" else bidders))
    names = (*(f"x_{key}" for key in pairs), *(f"p_{i + 1}" for i in range(m)), *own)
    rows = [(f"{label}_{key}", sense) for label, sense, per_pair in blocks
            for key in (pairs if per_pair else bidders)]
    return names, *map(tuple, zip(*rows))


def _block(label, sense, rhs, *runs):
    """A block of rows from runs of its per-row template, side by side.

    A run is (grid, *slots): a row per pair on an (m, n, items) grid, per
    bidder on (n, items).  Its slots, (column, value, keep) broadcast to the
    grid, alternate within each item.  Returns (label, sense, per pair) and
    the kept columns, values, count per row and rhs per row."""
    parts: list[list[np.ndarray]] = [[], [], []]
    for grid, *slots in runs:
        for k, dtype in enumerate((np.int64, float, bool)):
            part = np.empty(grid + (len(slots),), dtype)
            for s, slot in enumerate(slots):
                part[..., s] = slot[k]
            parts[k].append(part.reshape(-1, grid[-1] * len(slots)))
    cols, vals, keep = (np.concatenate(part, axis=1) for part in parts)
    entries = cols[keep], vals[keep], keep.sum(axis=1), np.broadcast_to(rhs, len(keep))
    return (label, sense, len(runs[0][0]) == 3), entries


def build(inst: Instance, kind: FormulationKind, *, price_bound: bool = True) -> MipModel:
    """Translate an instance into the requested formulation.

    With price_bound each price variable is capped at the item's maximum
    valuation: any higher price sells nothing, so the cap tightens the
    relaxation without cutting an optimal outcome.  Disable it to keep the
    price variables unbounded above.
    """
    kind = FormulationKind(kind)
    U, P = kind is FormulationKind.U, kind is FormulationKind.P
    m, n = inst.num_items, inst.num_bidders
    V = inst.matrix
    R, S, VT, mn = V.max(axis=1), V.max(axis=0), V.T, m * n
    X = np.arange(mn).reshape(m, n)  # the column of x_ib
    # the auxiliary column of pair (i, b): u_b in U, z_b in P, otherwise ph_ib
    aux = mn + m + (X % n if U or P else X)
    pair, item = (m, n, 1), (m, n, m)  # a row per pair, and its run over items i
    mine, own = (aux[..., None], 1.0, True), aux[0][:, None]  # own: u_b or z_b
    price = (np.arange(mn, mn + m)[:, None, None], 1.0, True)  # p_i, or p_k
    unit_price = (price[0], -1.0, True)
    valued = (X.T, VT, VT > 0)  # v_ib x_ib, left out where v_ib = 0

    # assign_b: sum_i x_ib <= 1
    blocks = [_block("assign", "<=", 1.0, ((n, m), (X.T, 1.0, True)))]
    # envy_k_b: surplus_b + p_k >= v_kb, where surplus_b is u_b in U, else
    # sum_i v_ib x_ib less what b pays, sum_i ph_ib or z_b in P.  STM sums
    # (v_ib - v_kb) x_ib - ph_ib over i != k only, against 0.
    if kind is FormulationKind.STM:
        gain = VT - V[..., None]
        other = ~np.eye(m, dtype=bool)[:, None]
        surplus = [(item, (X.T, gain, gain != 0), (aux.T, -1.0, other))]
    elif U:
        surplus = [(pair, (own, 1.0, True))]
    elif P:
        surplus = [(item, valued), (pair, (own, -1.0, True))]
    else:
        surplus = [(item, valued, (aux.T, -1.0, True))]
    envy_rhs = 0.0 if kind is FormulationKind.STM else V.ravel()
    blocks.append(_block("envy", ">=", envy_rhs, *surplus, (pair, price)))
    if U:
        # ub_util_i_b: u_b + p_i + (R_i + S_b - v_ib) x_ib <= R_i + S_b
        big = R[:, None] + S
        x_big = (X[..., None], (big - V)[..., None], True)
        blocks.append(_block("ub_util", "<=", big.ravel(), (pair, mine, price, x_big)))
        # cap_util_b: u_b - sum_i v_ib x_ib <= 0
        x_paid = ((n, m), (X.T, -VT, VT > 0))
        blocks.append(_block("cap_util", "<=", 0.0, ((n, 1), (own, 1.0, True)), x_paid))
    elif P:
        # value_b: sum_i v_ib x_ib - z_b >= 0
        z_b = ((n, 1), (own, -1.0, True))
        blocks.append(_block("value", ">=", 0.0, ((n, m), valued), z_b))
    else:
        # value_i_b: v_ib x_ib - ph_ib >= 0
        x_value = (X[..., None], V[..., None], V[..., None] > 0)
        blocks.append(_block("value", ">=", 0.0, (pair, (mine[0], -1.0, True), x_value)))
    if kind in (FormulationKind.STM, FormulationKind.I):
        # ub_price_i_b: ph_ib - p_i <= 0
        blocks.append(_block("ub_price", "<=", 0.0, (pair, mine, unit_price)))
    if not U:
        # lb_price_i_b: ph_ib - p_i - R_i x_ib >= -R_i, with z_b for ph_ib in P
        x_cap = (X[..., None], -R[:, None, None], True)
        lb_price = (pair, mine, unit_price, x_cap)
        blocks.append(_block("lb_price", ">=", np.repeat(-R, n), lb_price))

    specs, entries = zip(*blocks)
    names, row_names, senses = _layout(m, n, "u" if U else "z" if P else "ph", specs)
    cols, vals, counts, b = map(np.concatenate, zip(*entries))
    indptr = np.concatenate(([0], np.cumsum(counts)))
    A = sparse.csr_array((vals, cols, indptr), shape=(len(row_names), len(names)))
    c, ub = np.zeros(len(names)), np.full(len(names), math.inf)
    c[:mn], c[mn + m:] = (V.ravel(), -1.0) if U else (0.0, 1.0)
    ub[:mn], ub[mn:mn + m] = 1.0, R if price_bound else math.inf
    return MipModel(
        names, c, A, senses, b, np.zeros(len(names)), ub, np.arange(len(names)) < mn,
        row_names, np.arange(mn, mn + m),
    )


def _point(model: MipModel, values: Mapping[str, float]) -> np.ndarray:
    """The assignment as a vector over the model's columns, 0 where absent."""
    return np.array([values.get(name, 0.0) for name in model.names], dtype=float)


def objective_value(model: MipModel, values: Mapping[str, float]) -> float:
    return float(model.c @ _point(model, values))


def constraint_violations(
    model: MipModel, values: Mapping[str, float], tol: float = 1e-6
) -> list[tuple[str, float]]:
    """Constraints (and bounds) violated beyond tol, with the excess amount."""
    x = _point(model, values)
    low, high = model.lb - x, x - model.ub
    out = [
        (f"{side}({model.names[j]})", float(gap[j]))
        for j in np.flatnonzero((low > tol) | (high > tol))
        for side, gap in (("lb", low), ("ub", high)) if gap[j] > tol
    ]
    gap, senses = model.A @ x - model.b, np.array(model.senses)
    excess = np.where(senses == "<=", gap, np.where(senses == ">=", -gap, np.abs(gap)))
    out += [(model.row_names[r], float(excess[r])) for r in np.flatnonzero(excess > tol)]
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
    within 1e-6, then reads the pricing and allocation and prices them with
    Outcome.of, whose profit must match the model objective within 1e-6.  Pass
    price_bound=False for assignments coming from a model built without the
    per-item price cap.
    """
    tol = 1e-6
    model = build(inst, kind, price_bound=price_bound)
    m, n = inst.num_items, inst.num_bidders
    x = _point(model, values)
    for j in np.flatnonzero(np.abs(x[: m * n] - np.round(x[: m * n])) > tol)[:1]:
        raise InfeasibleAssignmentError(f"{model.names[j]} = {x[j]} is not integral")
    bad = constraint_violations(model, values, tol)
    if bad:
        name, excess = bad[0]
        raise InfeasibleAssignmentError(
            f"{len(bad)} violated constraints, first {name} by {excess:.3g}"
        )
    prices = Pricing(tuple(np.maximum(x[model.prices], 0.0).tolist()))
    sold = np.round(x[: m * n]).reshape(m, n) == 1
    items = [int(i) if sold[i, b] else None for b, i in enumerate(sold.argmax(axis=0))]
    outcome = Outcome.of(inst, prices, Allocation(tuple(items)))
    declared = objective_value(model, values)
    if abs(outcome.profit - declared) > tol:
        raise InfeasibleAssignmentError(
            f"profit {outcome.profit} does not match objective {declared}"
        )
    return outcome


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
    m, n = inst.num_items, inst.num_bidders
    names = build(inst, kind).names
    x = np.zeros(len(names))
    prices = np.minimum(outcome.pricing.prices, inst.matrix.max(axis=1))
    x[m * n : m * n + m] = prices
    U = kind == FormulationKind.U  # kind may be the kind's name
    per_bidder = U or kind == FormulationKind.P
    for b, i in enumerate(outcome.allocation.assignment):
        if i is not None:  # x_ib, then u_b in U, z_b in P, otherwise ph_ib
            x[i * n + b] = 1.0
            aux = inst.value(i, b) - prices[i] if U else prices[i]
            x[m * n + m + (b if per_bidder else i * n + b)] = aux
    return dict(zip(names, x.tolist()))


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
