import csv
import math
from dataclasses import replace

from efp.benchmark import (
    AGGREGATE_COLUMNS,
    BENCHMARK_COLUMNS,
    BenchmarkRow,
    aggregate,
    aggregate_path,
    run_benchmark,
    write_aggregates,
    write_rows,
)
from efp.formulations import FormulationKind


def _row(status="optimal", gap=0.0, kind="U", size="8x8"):
    return BenchmarkRow(
        instance="popularity-n8-s0",
        model="popularity",
        formulation=kind,
        size=size,
        status=status,
        incumbent=10.0,
        bound=10.0 * (1 + gap),
        gap=gap,
        nodes=3,
        wall_seconds=0.5,
        root_relaxation=11.0,
        root_seconds=0.01,
    )


def test_run_benchmark_rows_and_agreement():
    rows = run_benchmark(
        "popularity", [8], 2, [FormulationKind.L, FormulationKind.U], time_limit=120
    )
    assert len(rows) == 4
    assert all(r.status == "optimal" for r in rows)
    by_instance = {}
    for r in rows:
        by_instance.setdefault(r.instance, []).append(r.incumbent)
    for values in by_instance.values():
        assert max(values) - min(values) <= 1e-6


def test_aggregate_solved_and_gap():
    rows = [_row(), _row(), _row(status="feasible", gap=0.25)]
    summary = aggregate(rows)
    assert len(summary) == 1
    entry = summary[0]
    assert entry["instances"] == "3"
    assert entry["solved"] == "2"
    assert float(entry["mean_gap_unsolved"]) == 0.25
    all_solved = aggregate([_row(), _row()])[0]
    assert all_solved["mean_gap_unsolved"] == ""


def test_aggregate_error_rows_count_in_instances_only():
    # an error row's placeholders (gap NaN, root seconds 0.0) measured nothing
    error = replace(_row(status="error"), incumbent=math.nan, bound=math.nan,
                    gap=math.nan, nodes=0, wall_seconds=0.0,
                    root_relaxation=math.nan, root_seconds=0.0)
    rows = [_row(), replace(_row(status="feasible", gap=0.1), root_seconds=0.02), error]
    entry = aggregate(rows)[0]
    assert (entry["instances"], entry["solved"]) == ("3", "1")
    assert float(entry["mean_gap_unsolved"]) == 0.1
    assert float(entry["mean_root_seconds"]) == 0.015
    only_errors = aggregate([error, error])[0]
    assert only_errors["instances"] == "2" and only_errors["solved"] == "0"
    assert only_errors["mean_gap_unsolved"] == only_errors["mean_root_seconds"] == ""


def test_solved_count_never_increases_with_size():
    # pinned desk corpus: everything at these sizes solves, so the counts are
    # flat, which satisfies the monotonicity the larger sweeps exhibit
    rows = run_benchmark("popularity", [8, 10], 2, [FormulationKind.U], time_limit=120)
    solved = {}
    for row in rows:
        size = int(row.size.split("x")[0])
        solved[size] = solved.get(size, 0) + (row.status == "optimal")
    assert solved[8] >= solved[10]


def test_csv_written_with_fixed_schema(tmp_path):
    path = tmp_path / "bench.csv"
    write_rows(path, [_row()])
    with path.open() as handle:
        reader = csv.reader(handle)
        header = next(reader)
        assert tuple(header) == BENCHMARK_COLUMNS
        row = next(reader)
        assert row[0] == "popularity-n8-s0"
        assert row[4] == "optimal"
    write_rows(path, [_row()], append=True)
    assert len(path.read_text().splitlines()) == 3  # one header, two rows
    path.write_text("")  # an append to an empty file still writes the header
    write_rows(path, [_row()], append=True)
    lines = path.read_text().splitlines()
    assert len(lines) == 2 and lines[0] == ",".join(BENCHMARK_COLUMNS)

    agg = aggregate_path(path)
    assert agg.name == "bench.agg.csv"
    write_aggregates(agg, aggregate([_row()]))
    with agg.open() as handle:
        assert tuple(next(csv.reader(handle))) == AGGREGATE_COLUMNS
