"""Command-line surface: generate, solve, relax, find-strict, round, oracle,
benchmark.

Exit codes: 0 on success, 1 on usage or input errors, 2 when an internal
invariant is violated (a relaxation-ordering breach, a rounding ratio below
its guaranteed factor or a benchmark solve that raised, each of which signals
a bug rather than bad input).
The environment variable EFP_LOG (error, info or debug) controls diagnostic
verbosity; at debug, branch-and-bound names each LP's and each node's fate.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import logging
import os
import sys
from contextlib import nullcontext
from pathlib import Path

from . import benchmark as bench
from .allocation import Outcome, TooLargeError, profit
from .core import Instance, Pricing
from .fileio import FormatError, load_instance, save_instance
from .formulations import ALL_KINDS, FormulationKind, build
from .generators import MODELS, InvalidConfigError, generate, preset
from .geometric import (
    InvalidEpsilonError,
    NonPositiveApexError,
    guarantee_factor,
    round_pricing_eps,
)
from .oracle import brute_force_optimal
from .solver import (
    STRICT_TARGETS,
    InvalidLimitError,
    _check_limits,
    compare_relaxations,
    find_strict_instance,
    solve_mip,
)

log = logging.getLogger("efp.cli")

USAGE_ERROR = 1
INVARIANT_ERROR = 2

# errors that mean the input was bad, not the program; an OSError names its file
_INPUT_ERRORS = (
    InvalidConfigError,
    InvalidEpsilonError,
    InvalidLimitError,
    NonPositiveApexError,
    OSError,
    TooLargeError,
)


class CliError(Exception):
    """Usage-level failure; message goes to stderr, exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # noqa: D102 - argparse hook
        # one line from every parser, as for the library's input errors
        print(f"efp: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _configure_logging() -> None:
    level = os.environ.get("EFP_LOG", "error").lower()
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    if level not in levels:
        raise CliError(f"EFP_LOG must be one of {sorted(levels)}, got {level!r}")
    logging.basicConfig(
        level=levels[level], format="%(levelname)s %(name)s: %(message)s"
    )


def _load(path: str) -> Instance:
    try:
        return load_instance(path)
    except (FormatError, UnicodeDecodeError) as exc:
        raise CliError(f"{path}: {exc}") from exc


# argparse types: each raises ArgumentTypeError, whose message argparse
# reports as a usage error on the flag
def _kinds(text: str) -> list[FormulationKind]:
    if text == "all":
        return list(ALL_KINDS)
    try:
        return [FormulationKind(token.strip()) for token in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"unknown formulation in {text!r}") from None


def _sizes(text: str) -> list[int]:
    try:
        return [int(token) for token in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad sizes {text!r}") from None


def _prices(text: str) -> Pricing:
    try:
        return Pricing(tuple(float(token) for token in text.split(",")))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad prices {text!r}: {exc}") from None


def _at_least_one(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be an integer of at least 1, got {text!r}")
    return int(text)


def _apply_overrides(config, overrides: list[str]):
    fields = {f.name: f for f in dataclasses.fields(config)}
    updates = {}
    for token in overrides:
        if "=" not in token:
            raise CliError(f"override must look like key=value, got {token!r}")
        key, raw = token.split("=", 1)
        if key not in fields:
            raise CliError(
                f"unknown config field {key!r}; valid fields: {sorted(fields)}"
            )
        caster = fields[key].type
        try:
            updates[key] = int(raw) if caster in ("int", int) else float(raw)
        except ValueError:
            raise CliError(f"bad value for {key!r}: {raw!r}") from None
    return dataclasses.replace(config, **updates)


def _outcome_block(inst: Instance, outcome: Outcome | None) -> list[str]:
    if outcome is None:
        return ["pricing      -", "allocation   -"]
    prices = " ".join(
        f"p_{i + 1}={bench.fmt(p)}" for i, p in enumerate(outcome.pricing.prices)
    )
    served = []
    for b, item in enumerate(outcome.allocation.assignment):
        target = f"i_{item + 1}" if item is not None else "none"
        served.append(f"b_{b + 1}<-{target}")
    return [f"pricing      {prices}", f"allocation   {' '.join(served)}"]


def cmd_generate(args) -> int:
    config = preset(args.model, args.n)
    config = _apply_overrides(config, args.set or [])
    inst = generate(args.model, config, args.seed)
    save_instance(inst, args.output)
    print(
        f"wrote {args.output}: {inst.num_items} items, {inst.num_bidders} bidders, "
        f"{len(inst.valuations)} edges (model {args.model}, seed {args.seed})"
    )
    return 0


def cmd_solve(args) -> int:
    inst = _load(args.instance)
    rows = []
    for kind in args.formulation:
        model = build(inst, kind, price_bound=not args.no_price_bound)
        result = solve_mip(
            model,
            inst,
            time_limit=args.time_limit,
            node_limit=args.node_limit,
            gap_tolerance=args.tolerance,
        )
        lines = [
            f"instance     {args.instance}",
            f"formulation  {kind.value}",
            f"status       {result.status}",
            f"incumbent    {bench.fmt(result.incumbent_value)}",
            f"bound        {bench.fmt(result.bound)}",
            f"gap          {bench.fmt(result.gap)}",
            f"nodes        {result.nodes}",
            f"wall_seconds {bench.fmt(result.wall_seconds)}",
            f"root_lp      {bench.fmt(result.root_relaxation)}"
            f" ({bench.fmt(result.root_seconds)} s)",
        ]
        lines.extend(_outcome_block(inst, result.incumbent))
        print("\n".join(lines))
        print()
        rows.append(
            bench.row_from_result(Path(args.instance).stem, "-", inst, kind, result)
        )
    if args.output:
        bench.write_rows(args.output, rows, append=True)
    return 0


def cmd_relax(args) -> int:
    header = ["instance", *(f"LR_{kind.value}" for kind in ALL_KINDS), "violations"]
    out_rows = [header]
    yell = False
    for path in args.instances:
        inst = _load(path)
        report = compare_relaxations(inst, price_bound=not args.no_price_bound)
        notes = ";".join(f"{name} off by {delta:.3g}" for name, delta in report.violations)
        if report.failed:
            notes = ";".join((notes, "failed: " + ",".join(report.failed))).strip(";")
        if report.violations:
            yell = True
            log.error("ordering violation on %s: %s", path, notes)
        out_rows.append([Path(path).stem, *map(bench.fmt, report.values.values()), notes])
    sink = open(args.output, "w", newline="") if args.output else nullcontext(sys.stdout)
    with sink as handle:  # csv quotes a stem or a note that holds a comma
        csv.writer(handle, lineterminator="\n").writerows(out_rows)
    if yell:
        print("relaxation ordering violated: solver bug", file=sys.stderr)
        return INVARIANT_ERROR
    return 0


def cmd_find_strict(args) -> int:
    found = find_strict_instance(args.target, budget=args.budget, base_seed=args.seed)
    if found is None:
        print(f"no strict {args.target} instance within {args.budget} trials")
        return 0
    description, _, report = found
    print(f"strict {args.target} instance: {description}")
    for kind, value in report.values.items():
        print(f"LR_{kind:3} = {bench.fmt(value)}")
    return 0


def cmd_round(args) -> int:
    # the factor checks eps before a solve can spend the whole time limit
    factor = guarantee_factor(args.eps)
    inst = _load(args.instance)
    # the flags are checked even when --prices leaves them unused
    _check_limits(args.time_limit, None, args.tolerance)
    if args.prices is not None:
        if len(args.prices) != inst.num_items:
            raise CliError(
                f"--prices has {len(args.prices)} entries for {inst.num_items} items"
            )
        pricing = args.prices
    else:
        result = solve_mip(
            build(inst, FormulationKind.U, price_bound=not args.no_price_bound),
            inst,
            time_limit=args.time_limit,
            gap_tolerance=args.tolerance,
        )
        if result.incumbent is None:
            raise CliError("no pricing available from the solver")
        pricing = result.incumbent.pricing
        print(f"using solved pricing (status {result.status})")
    rounded = round_pricing_eps(inst, pricing, args.eps)
    sol_p = profit(inst, pricing)
    sol_r = profit(inst, rounded)
    ratio = sol_r / sol_p if sol_p > 0 else 1.0
    print(f"prices       {' '.join(bench.fmt(p) for p in pricing.prices)}")
    print(f"rounded      {' '.join(bench.fmt(p) for p in rounded.prices)}")
    print(f"sol(p)       {bench.fmt(sol_p)}")
    print(f"sol(rounded) {bench.fmt(sol_r)}")
    print(f"ratio        {bench.fmt(ratio)}")
    print(f"guaranteed   {bench.fmt(factor)}")
    if ratio < factor - 1e-6:
        print("rounding guarantee violated: bug", file=sys.stderr)
        return INVARIANT_ERROR
    return 0


def cmd_oracle(args) -> int:
    inst = _load(args.instance)
    outcome = brute_force_optimal(inst)
    print(f"instance     {args.instance}")
    print(f"best_profit  {bench.fmt(outcome.profit)}")
    print("\n".join(_outcome_block(inst, outcome)))
    return 0


def cmd_benchmark(args) -> int:
    rows = bench.run_benchmark(
        args.model,
        args.sizes,
        args.seeds,
        args.formulations,
        time_limit=args.time_limit,
        gap_tolerance=args.tolerance,
        price_bound=not args.no_price_bound,
    )
    bench.write_rows(args.output, rows)
    aggregates = bench.aggregate(rows)
    agg_path = bench.aggregate_path(args.output)
    bench.write_aggregates(agg_path, aggregates)
    solved = sum(1 for r in rows if r.status == "optimal")
    print(f"wrote {len(rows)} rows to {args.output} ({solved} solved to optimality)")
    print(f"wrote {len(aggregates)} aggregate rows to {agg_path}")
    errors = sum(1 for r in rows if r.status == "error")
    if errors:
        print(f"{errors} of {len(rows)} solves raised an error: bug", file=sys.stderr)
        return INVARIANT_ERROR
    return 0


def build_parser() -> argparse.ArgumentParser:
    # flag groups; each command takes only the groups whose flags it reads
    seed = _Parser(add_help=False)
    seed.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    output = _Parser(add_help=False)
    output.add_argument("--output", type=str, default=None, help="output file path")
    limits = _Parser(add_help=False)
    limits.add_argument(
        "--time-limit", type=float, default=60.0,
        help="per-solve wall-clock limit in seconds (default 60)",
    )
    limits.add_argument(
        "--tolerance", type=float, default=1e-6,
        help="relative MIP gap tolerance (default 1e-6)",
    )
    price = _Parser(add_help=False)
    price.add_argument(
        "--no-price-bound", action="store_true",
        help="drop the per-item price cap from the formulations",
    )

    parser = _Parser(prog="efp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("generate", parents=[seed], help="write a random instance")
    p.add_argument("--output", required=True, help="instance file to write")
    p.add_argument("--model", required=True, choices=MODELS)
    p.add_argument("--n", required=True, type=int, help="items = bidders = n")
    p.add_argument(
        "--set", action="append", metavar="KEY=VALUE",
        help="override a preset config field (repeatable)",
    )
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser(
        "solve", parents=[output, limits, price], help="solve an instance file"
    )
    p.add_argument("instance")
    p.add_argument(
        "--formulation", type=_kinds, default="U",
        help="one of STM,I,L,P,U, a comma list, or 'all' (default U)",
    )
    p.add_argument("--node-limit", type=int, default=None)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser(
        "relax", parents=[output, price], aliases=["compare-relaxations"],
        help="compare the five linear relaxations",
    )
    p.add_argument("instances", nargs="+")
    p.set_defaults(func=cmd_relax)

    p = sub.add_parser(
        "find-strict", parents=[seed],
        help="search generated instances for a strict separation",
    )
    p.add_argument("target", choices=tuple(STRICT_TARGETS))
    p.add_argument("--budget", type=_at_least_one, default=500, help="search budget")
    p.set_defaults(func=cmd_find_strict)

    p = sub.add_parser("round", parents=[limits, price], help="geometric price rounding")
    p.add_argument("instance")
    p.add_argument("--prices", type=_prices, help="comma-separated price vector")
    p.add_argument(
        "--eps", type=float, default=1.0,
        help="grid parameter in (0, 1]; 1 selects the dedicated ratio-2 rounding",
    )
    p.set_defaults(func=cmd_round)

    p = sub.add_parser("oracle", help="candidate-price brute force")
    p.add_argument("instance")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("benchmark", parents=[limits, price], help="sweep sizes and seeds")
    p.add_argument("--output", required=True, help="row CSV to write")
    p.add_argument("--model", required=True, choices=MODELS)
    p.add_argument("--sizes", type=_sizes, required=True, help="comma-separated sizes")
    p.add_argument(
        "--seeds", type=_at_least_one, default=5, help="seeds 0..k-1 (default 5)"
    )
    p.add_argument("--formulations", type=_kinds, default="all")
    p.set_defaults(func=cmd_benchmark)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        _configure_logging()
        parser = build_parser()
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            return int(exc.code or 0)
        return args.func(args)
    except BrokenPipeError:  # stdout's reader went away: console_main's case
        raise
    except (CliError, *_INPUT_ERRORS) as exc:
        print(f"efp: error: {exc}", file=sys.stderr)
        return USAGE_ERROR


def console_main() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader went away (efp ... | head); send what is still buffered
        # to devnull so the flush at exit does not raise again, and exit 1
        # as Python does on EPIPE
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        code = 1
    raise SystemExit(code)


if __name__ == "__main__":
    console_main()
