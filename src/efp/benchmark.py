"""Benchmark harness: solve generated instances, record rows, aggregate.

One CSV row per (instance, formulation) solve with a fixed column order;
aggregates per (size, formulation) mirror the solved-count / mean-final-gap /
mean-root-relaxation-seconds structure of the reference tables.  Mean gaps
are taken over unsolved instances only and left empty when everything
solved.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import astuple, dataclass, fields
from pathlib import Path
from typing import Iterable, Optional, Sequence

from .core import Instance
from .formulations import FormulationKind, build
from .generators import generate, preset
from .solver import MipResult, _check_limits, solve_mip

log = logging.getLogger("efp.benchmark")

AGGREGATE_COLUMNS = (
    "model",
    "formulation",
    "size",
    "instances",
    "solved",
    "mean_gap_unsolved",
    "mean_root_seconds",
)


def fmt(x: float) -> str:
    return f"{x:.9g}"


@dataclass(frozen=True)
class BenchmarkRow:
    """One solve; the fields in order are the CSV columns."""

    instance: str
    model: str
    formulation: str
    size: str
    status: str
    incumbent: float
    bound: float
    gap: float
    nodes: int
    wall_seconds: float
    root_relaxation: float
    root_seconds: float

    def as_csv(self) -> list[str]:
        return [fmt(v) if isinstance(v, float) else str(v) for v in astuple(self)]


BENCHMARK_COLUMNS = tuple(f.name for f in fields(BenchmarkRow))


def row_from_result(
    instance_id: str, model: str, inst: Instance, kind: FormulationKind, result: MipResult
) -> BenchmarkRow:
    return BenchmarkRow(
        instance=instance_id,
        model=model,
        formulation=kind.value,
        size=f"{inst.num_items}x{inst.num_bidders}",
        status=result.status,
        incumbent=result.incumbent_value,
        bound=result.bound,
        gap=result.gap,
        nodes=result.nodes,
        wall_seconds=result.wall_seconds,
        root_relaxation=result.root_relaxation,
        root_seconds=result.root_seconds,
    )


def write_rows(path: str | Path, rows: Iterable[BenchmarkRow], append: bool = False) -> None:
    with Path(path).open("a" if append else "w", newline="") as handle:
        writer = csv.writer(handle)
        # an append lands at the end: an empty or new file still needs a header
        if handle.tell() == 0:
            writer.writerow(BENCHMARK_COLUMNS)
        for row in rows:
            writer.writerow(row.as_csv())


def aggregate(rows: Sequence[BenchmarkRow]) -> list[dict[str, str]]:
    """Per (model, formulation, size): solved count, mean gap over unsolved,
    mean root-relaxation seconds."""
    groups: dict[tuple[str, str, str], list[BenchmarkRow]] = {}
    for row in rows:
        groups.setdefault((row.model, row.formulation, row.size), []).append(row)
    out = []
    for (model, kind, size), members in sorted(groups.items()):
        solved = [r for r in members if r.status == "optimal"]
        unsolved = [r for r in members if r.status != "optimal"]
        mean_gap = (
            fmt(sum(r.gap for r in unsolved) / len(unsolved)) if unsolved else ""
        )
        mean_root = fmt(sum(r.root_seconds for r in members) / len(members))
        values = (model, kind, size, str(len(members)), str(len(solved)), mean_gap, mean_root)
        out.append(dict(zip(AGGREGATE_COLUMNS, values)))
    return out


def write_aggregates(path: str | Path, aggregates: Sequence[dict[str, str]]) -> None:
    with Path(path).open("w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=AGGREGATE_COLUMNS)
        writer.writeheader()
        writer.writerows(aggregates)


def aggregate_path(rows_path: str | Path) -> Path:
    rows_path = Path(rows_path)
    return rows_path.with_name(rows_path.stem + ".agg" + (rows_path.suffix or ".csv"))


def run_benchmark(
    model: str,
    sizes: Sequence[int],
    num_seeds: int,
    kinds: Sequence[FormulationKind],
    *,
    time_limit: Optional[float] = 60.0,
    gap_tolerance: float = 1e-6,
    price_bound: bool = True,
) -> list[BenchmarkRow]:
    """Cartesian product of sizes x seeds x formulations on one model.

    Individual failures are recorded as rows with status "error" and the run
    continues; invalid limits raise InvalidLimitError before any solve.
    """
    _check_limits(time_limit, None, gap_tolerance)
    rows: list[BenchmarkRow] = []
    for size in sizes:
        for seed in range(num_seeds):
            instance_id = f"{model}-n{size}-s{seed}"
            inst = generate(model, preset(model, size), seed)
            for kind in kinds:
                log.info("solving %s with %s", instance_id, kind.value)
                try:
                    result = solve_mip(
                        build(inst, kind, price_bound=price_bound),
                        inst,
                        time_limit=time_limit,
                        gap_tolerance=gap_tolerance,
                    )
                except Exception:  # noqa: BLE001 - keep the sweep alive
                    log.exception("solve failed for %s %s", instance_id, kind.value)
                    nan = float("nan")
                    result = MipResult(
                        status="error", incumbent=None, incumbent_value=nan,
                        bound=nan, gap=nan, nodes=0, wall_seconds=0.0,
                        root_relaxation=nan, root_seconds=0.0,
                    )
                rows.append(row_from_result(instance_id, model, inst, kind, result))
    return rows
