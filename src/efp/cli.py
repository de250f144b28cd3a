"""Command-line surface: generate, solve, relax, round, oracle, benchmark.

Exit codes: 0 on success, 1 on usage or input errors, 2 when an internal
invariant is violated (a relaxation-ordering breach or a rounding ratio below
its guaranteed factor, both of which signal a bug rather than bad input).
The environment variable EFP_LOG (error, info or debug) controls diagnostic
verbosity; at debug, branch-and-bound names each LP's and each node's fate.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import os
import sys
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
    round_pricing_half,
)
from .oracle import brute_force_optimal
from .solver import (
    InvalidLimitError,
    _check_limits,
    compare_relaxations,
    find_strict_instance,
    solve_mip,
)

log = logging.getLogger("efp.cli")

USAGE_ERROR = 1
INVARIANT_ERROR = 2

# library errors that mean the input was bad, not that the program is
_INPUT_ERRORS = (
    InvalidConfigError,
    InvalidEpsilonError,
    InvalidLimitError,
    NonPositiveApexError,
    TooLargeError,
)


class CliError(Exception):
    """Usage-level failure; message goes to stderr, exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # noqa: D102 - argparse hook
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _fmt(x: float) -> str:
    return f"{x:.9g}"


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
    except FileNotFoundError:
        raise CliError(f"no such instance file: {path}") from None
    except FormatError as exc:
        raise CliError(f"{path}: {exc}") from exc


def _parse_kinds(selector: str) -> list[FormulationKind]:
    if selector == "all":
        return list(ALL_KINDS)
    kinds = []
    for token in selector.split(","):
        try:
            kinds.append(FormulationKind(token.strip()))
        except ValueError:
            raise CliError(f"unknown formulation {token.strip()!r}") from None
    return kinds


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
        f"p_{i + 1}={_fmt(p)}" for i, p in enumerate(outcome.pricing.prices)
    )
    served = []
    for b, item in enumerate(outcome.allocation.assignment):
        target = f"i_{item + 1}" if item is not None else "none"
        served.append(f"b_{b + 1}<-{target}")
    return [f"pricing      {prices}", f"allocation   {' '.join(served)}"]


def cmd_generate(args) -> int:
    if args.output is None:
        raise CliError("generate needs --output <path>")
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
    kinds = _parse_kinds(args.formulation)
    rows = []
    for kind in kinds:
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
            f"incumbent    {_fmt(result.incumbent_value)}",
            f"bound        {_fmt(result.bound)}",
            f"gap          {_fmt(result.gap)}",
            f"nodes        {result.nodes}",
            f"wall_seconds {_fmt(result.wall_seconds)}",
            f"root_lp      {_fmt(result.root_relaxation)} ({_fmt(result.root_seconds)} s)",
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
    if args.find_strict:
        if args.budget < 1:
            raise CliError(f"--budget must be at least 1, got {args.budget}")
        found = find_strict_instance(
            args.find_strict, budget=args.budget, base_seed=args.seed
        )
        if found is None:
            print(f"no strict {args.find_strict} instance within {args.budget} trials")
            return 0
        description, _, report = found
        print(f"strict {args.find_strict} instance: {description}")
        for kind in ("STM", "I", "L", "P", "U"):
            print(f"LR_{kind:3} = {_fmt(report.values[kind])}")
        return 0
    if not args.instances:
        raise CliError("relax needs instance files (or --find-strict)")
    header = ["instance", "LR_STM", "LR_I", "LR_L", "LR_P", "LR_U", "violations"]
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
        out_rows.append(
            [Path(path).stem]
            + [_fmt(report.values[k]) for k in ("STM", "I", "L", "P", "U")]
            + [notes]
        )
    text = "\n".join(",".join(row) for row in out_rows) + "\n"
    if args.output:
        Path(args.output).write_text(text)
    else:
        print(text, end="")
    if yell:
        print("relaxation ordering violated: solver bug", file=sys.stderr)
        return INVARIANT_ERROR
    return 0


def cmd_round(args) -> int:
    # the factor checks eps before a solve can spend the whole time limit
    factor = guarantee_factor(args.eps, half_rounding=args.eps == 1.0)
    inst = _load(args.instance)
    # the flags are checked even when --prices leaves them unused
    _check_limits(args.time_limit, None, args.tolerance)
    if args.prices:
        try:
            values = tuple(float(tok) for tok in args.prices.split(","))
        except ValueError:
            raise CliError(f"bad --prices list: {args.prices!r}") from None
        if len(values) != inst.num_items:
            raise CliError(
                f"--prices has {len(values)} entries for {inst.num_items} items"
            )
        try:
            pricing = Pricing(values)
        except ValueError as exc:
            raise CliError(f"bad --prices list: {exc}") from None
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
    if args.eps == 1.0:
        rounded = round_pricing_half(inst, pricing)
    else:
        rounded = round_pricing_eps(inst, pricing, args.eps)
    sol_p = profit(inst, pricing)
    sol_r = profit(inst, rounded)
    ratio = sol_r / sol_p if sol_p > 0 else 1.0
    print(f"prices       {' '.join(_fmt(p) for p in pricing.prices)}")
    print(f"rounded      {' '.join(_fmt(p) for p in rounded.prices)}")
    print(f"sol(p)       {_fmt(sol_p)}")
    print(f"sol(rounded) {_fmt(sol_r)}")
    print(f"ratio        {_fmt(ratio)}")
    print(f"guaranteed   {_fmt(factor)}")
    if ratio < factor - 1e-6:
        print("rounding guarantee violated: bug", file=sys.stderr)
        return INVARIANT_ERROR
    return 0


def cmd_oracle(args) -> int:
    inst = _load(args.instance)
    outcome = brute_force_optimal(inst)
    print(f"instance     {args.instance}")
    print(f"best_profit  {_fmt(outcome.profit)}")
    print("\n".join(_outcome_block(inst, outcome)))
    return 0


def cmd_benchmark(args) -> int:
    if args.output is None:
        raise CliError("benchmark needs --output <csv path>")
    if args.model not in MODELS:
        raise CliError(f"unknown model {args.model!r}")
    if args.seeds < 1:
        raise CliError(f"--seeds must be at least 1, got {args.seeds}")
    try:
        sizes = [int(tok) for tok in args.sizes.split(",")]
    except ValueError:
        raise CliError(f"bad --sizes list: {args.sizes!r}") from None
    kinds = _parse_kinds(args.formulations)
    rows = bench.run_benchmark(
        args.model,
        sizes,
        args.seeds,
        kinds,
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

    p = sub.add_parser(
        "generate", parents=[seed, output], help="write a random instance"
    )
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
        "--formulation", default="U",
        help="one of STM,I,L,P,U, a comma list, or 'all' (default U)",
    )
    p.add_argument("--node-limit", type=int, default=None)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser(
        "relax", parents=[seed, output, price], aliases=["compare-relaxations"],
        help="compare the five linear relaxations",
    )
    p.add_argument("instances", nargs="*")
    p.add_argument(
        "--find-strict", choices=["i-stm", "l-p-u"], default=None,
        help="search generated instances for a strict separation",
    )
    p.add_argument("--budget", type=int, default=500, help="search budget")
    p.set_defaults(func=cmd_relax)

    p = sub.add_parser(
        "round", parents=[limits, price], help="geometric price rounding"
    )
    p.add_argument("instance")
    p.add_argument("--prices", default=None, help="comma-separated price vector")
    p.add_argument(
        "--eps", type=float, default=1.0,
        help="grid parameter; 1 selects the dedicated ratio-2 rounding",
    )
    p.set_defaults(func=cmd_round)

    p = sub.add_parser("oracle", help="candidate-price brute force")
    p.add_argument("instance")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser(
        "benchmark", parents=[output, limits, price], help="sweep sizes and seeds"
    )
    p.add_argument("--model", required=True)
    p.add_argument("--sizes", required=True, help="comma-separated instance sizes")
    p.add_argument("--seeds", type=int, default=5, help="seeds 0..k-1 (default 5)")
    p.add_argument("--formulations", default="all")
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
