"""Minimal reader for the exported LP text format, for round-trip checks.

Written against the format itself rather than the exporter's internals, so a
parse-and-resolve agreement genuinely exercises the emitted text.
"""

import math

from efp.formulations import Constraint, MipModel, Variable


def _parse_terms(text: str) -> dict[str, float]:
    tokens = text.split()
    coeffs: dict[str, float] = {}
    pos = 0
    while pos < len(tokens):
        sign = tokens[pos]
        if sign not in ("+", "-"):
            raise ValueError(f"expected sign, got {sign!r}")
        coef = float(tokens[pos + 1])
        name = tokens[pos + 2]
        coeffs[name] = coeffs.get(name, 0.0) + (coef if sign == "+" else -coef)
        pos += 3
    return coeffs


def parse_lp_text(text: str) -> MipModel:
    lines = [line.rstrip() for line in text.splitlines()]
    section = None
    objective: dict[str, float] = {}
    constraints: list[Constraint] = []
    bounds: dict[str, tuple[float, float]] = {}
    binaries: list[str] = []
    for line in lines:
        stripped = line.strip()
        if stripped in ("Maximize", "Subject To", "Bounds", "Binaries", "End"):
            section = stripped
            continue
        if not stripped:
            continue
        if section == "Maximize":
            _, body = stripped.split(":", 1)
            body = body.strip()
            if body != "0":
                objective = _parse_terms(body)
        elif section == "Subject To":
            name, body = stripped.split(":", 1)
            tokens = body.split()
            sense_pos = next(
                i for i, tok in enumerate(tokens) if tok in ("<=", ">=", "=")
            )
            coeffs = _parse_terms(" ".join(tokens[:sense_pos])) if sense_pos else {}
            constraints.append(
                Constraint(
                    name.strip(), coeffs, tokens[sense_pos], float(tokens[sense_pos + 1])
                )
            )
        elif section == "Bounds":
            tokens = stripped.split()
            if len(tokens) == 5:  # lo <= name <= hi
                bounds[tokens[2]] = (float(tokens[0]), float(tokens[4]))
            elif len(tokens) == 3 and tokens[1] == ">=":
                bounds[tokens[0]] = (float(tokens[2]), math.inf)
            else:
                raise ValueError(f"unrecognized bounds line {stripped!r}")
        elif section == "Binaries":
            binaries.extend(stripped.split())

    ordered: list[Variable] = []
    seen = set()
    for name in binaries:
        ordered.append(Variable(name, 0.0, 1.0, True))
        seen.add(name)
    for name, (lo, hi) in bounds.items():
        if name not in seen:
            ordered.append(Variable(name, lo, hi, False))
            seen.add(name)
    # names referenced only in rows default to non-negative continuous
    mentioned = set(objective)
    for con in constraints:
        mentioned.update(con.coeffs)
    for name in sorted(mentioned - seen):
        ordered.append(Variable(name, 0.0, math.inf, False))
    return MipModel.from_rows(tuple(ordered), objective, tuple(constraints))
