import csv
import math
from pathlib import Path

import pytest

from efp.cli import main
from efp.core import validate_instance
from efp.fileio import save_instance
from efp.solver import RelaxationReport

from conftest import craft_relaxations, make_fig1

GOLDEN = Path(__file__).parent / "golden" / "solve_fig1_U.csv"
TIME_COLUMNS = (9, 11)  # wall_seconds, root_seconds vary run to run


@pytest.fixture
def fig1_path(tmp_path):
    path = tmp_path / "fig1.efp"
    save_instance(make_fig1(), path)
    return str(path)


def _mask_times(text: str) -> str:
    lines = text.splitlines()
    out = [lines[0]]
    for line in lines[1:]:
        cells = line.split(",")
        for col in TIME_COLUMNS:
            cells[col] = "T"
        out.append(",".join(cells))
    return "\n".join(out) + "\n"


def test_generate_popularity_edge_lines(tmp_path):
    out = tmp_path / "pop.efp"
    assert main(["generate", "--model", "popularity", "--n", "50", "--seed", "7",
                 "--output", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "items 50"
    assert lines[2] == "bidders 50"
    assert sum(1 for line in lines if line.startswith("edge ")) == 400


def test_generate_characteristics_header(tmp_path):
    out = tmp_path / "char.efp"
    assert main(["generate", "--model", "characteristics", "--n", "100", "--seed",
                 "1", "--output", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "EFP 1"
    assert lines[1] == "items 100"
    assert lines[2] == "bidders 100"


def test_generate_is_byte_deterministic(tmp_path):
    a, b = tmp_path / "a.efp", tmp_path / "b.efp"
    args = ["generate", "--model", "neighborhood", "--n", "20", "--seed", "5"]
    assert main(args + ["--output", str(a)]) == 0
    assert main(args + ["--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_generate_override(tmp_path):
    out = tmp_path / "pop.efp"
    assert main(["generate", "--model", "popularity", "--n", "20", "--seed", "2",
                 "--set", "e=100", "--output", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert sum(1 for line in lines if line.startswith("edge ")) == 100


def test_generate_requires_output():
    assert main(["generate", "--model", "popularity", "--n", "10"]) == 1


def test_generate_rejects_bad_override(tmp_path):
    assert main(["generate", "--model", "popularity", "--n", "10", "--set",
                 "bogus=3", "--output", str(tmp_path / "x.efp")]) == 1


def test_solve_prints_block_and_appends_csv(fig1_path, tmp_path, capsys):
    out = tmp_path / "rows.csv"
    assert main(["solve", fig1_path, "--formulation", "U", "--output", str(out)]) == 0
    text = capsys.readouterr().out
    assert "status       optimal" in text
    assert "incumbent    21" in text
    assert "allocation   b_1<-i_3 b_2<-i_2 b_3<-i_1 b_4<-i_2" in text
    assert main(["solve", fig1_path, "--formulation", "U", "--output", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 3 and lines[0].startswith("instance,")


def test_solve_all_formulations_agree(fig1_path, tmp_path):
    out = tmp_path / "rows.csv"
    assert main(["solve", fig1_path, "--formulation", "all", "--output", str(out)]) == 0
    with out.open() as handle:
        rows = list(csv.DictReader(handle))
    assert [r["formulation"] for r in rows] == ["STM", "I", "L", "P", "U"]
    incumbents = [float(r["incumbent"]) for r in rows]
    assert max(incumbents) - min(incumbents) <= 1e-6


def test_solve_missing_file():
    assert main(["solve", "missing.efp"]) == 1


def test_solve_without_price_cap(fig1_path, capsys):
    assert main(["solve", fig1_path, "--formulation", "L", "--no-price-bound"]) == 0
    assert "incumbent    21" in capsys.readouterr().out


def test_solve_unknown_formulation(fig1_path):
    assert main(["solve", fig1_path, "--formulation", "Q"]) == 1


def test_solve_golden_csv(fig1_path, tmp_path):
    out = tmp_path / "rows.csv"
    assert main(["solve", fig1_path, "--formulation", "U", "--output", str(out)]) == 0
    produced = _mask_times(out.read_text())
    assert produced == _mask_times(GOLDEN.read_text())


def test_relax_reports_values(fig1_path, tmp_path, capsys):
    assert main(["relax", fig1_path]) == 0
    text = capsys.readouterr().out
    header, row = text.splitlines()[:2]
    assert header == "instance,LR_STM,LR_I,LR_L,LR_P,LR_U,violations"
    cells = row.split(",")
    assert cells[0] == "fig1"
    assert float(cells[2]) <= float(cells[1]) + 1e-6


def test_relax_alias(fig1_path):
    assert main(["compare-relaxations", fig1_path]) == 0


def test_relax_output_holds_the_printed_table(fig1_path, tmp_path, capsys):
    assert main(["relax", fig1_path]) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "relax.csv"
    assert main(["relax", fig1_path, "--output", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == printed.encode()


def test_relax_find_strict(capsys):
    assert main(["find-strict", "i-stm", "--budget", "20"]) == 0
    assert "strict i-stm instance" in capsys.readouterr().out


def test_relax_needs_input():
    assert main(["relax"]) == 1


def test_relax_violation_exit_code(fig1_path, monkeypatch):
    import efp.cli as cli_mod

    def fake(inst, price_bound=True):
        return RelaxationReport(
            {"STM": 1.0, "I": 2.0, "L": 2.0, "P": 2.0, "U": 2.0},
            (),
            (("LR_I <= LR_STM", 1.0),),
        )

    monkeypatch.setattr(cli_mod, "compare_relaxations", fake)
    assert main(["relax", fig1_path]) == 2


def test_relax_breach_exits_2_through_the_real_comparison(fig1_path, monkeypatch, capsys):
    # the LPs are crafted, the comparison and its report are the program's
    craft_relaxations(monkeypatch, {"STM": 1.0, "I": 1.0, "L": 1.0, "P": 1.2, "U": 1.1})
    assert main(["relax", fig1_path]) == 2
    out, err = capsys.readouterr()
    assert "LR_P <= LR_U off by 0.1" in out
    assert "relaxation ordering violated: solver bug" in err


def test_relax_table_is_csv_when_names_and_notes_hold_commas(
    fig1_path, tmp_path, monkeypatch, capsys
):
    # "m,1" and "failed: STM,I" used to shift the columns, on stdout and in
    # the --output file alike
    comma = tmp_path / "m,1.efp"
    save_instance(make_fig1(), comma)
    craft_relaxations(monkeypatch, {"STM": None, "I": None, "L": 1.0, "P": 1.0, "U": 1.0})
    out = tmp_path / "relax.csv"
    assert main(["relax", str(comma), fig1_path]) == 0
    assert main(["relax", str(comma), fig1_path, "--output", str(out)]) == 0
    for text in (capsys.readouterr().out, out.read_text()):
        header, *rows = csv.reader(text.splitlines())
        assert len(header) == 7 and all(len(row) == 7 for row in rows)
        assert [row[0] for row in rows] == ["m,1", "fig1"]
        assert [row[-1] for row in rows] == ["failed: STM,I"] * 2


@pytest.mark.parametrize(
    "args, path",
    [
        (["generate", "--model", "popularity", "--n", "8", "--output", "{missing}"],
         "{missing}"),
        (["relax", "{fig1}", "--output", "{missing}"], "{missing}"),
        (["solve", "{directory}"], "{directory}"),
        (["solve", "{not_utf8}"], "{not_utf8}"),
    ],
    ids=["generate-output", "relax-output", "solve-directory", "solve-not-utf8"],
)
def test_file_errors_exit_1_naming_the_path(args, path, fig1_path, tmp_path, capsys):
    not_utf8 = tmp_path / "latin1.efp"
    not_utf8.write_bytes("EFP 1\nitems 1\nbidders 1\nedge 1 1 4 \u00e9\n".encode("latin-1"))
    paths = {"missing": tmp_path / "missing" / "x", "fig1": fig1_path,
             "directory": tmp_path, "not_utf8": not_utf8}
    assert main([arg.format(**paths) for arg in args]) == 1
    err = capsys.readouterr().err
    assert err.startswith("efp: error: ") and err.count("\n") == 1, err
    assert path.format(**paths) in err


def test_find_strict_targets_are_the_solvers(capsys):
    from efp.solver import STRICT_TARGETS

    assert main(["find-strict", "--help"]) == 0
    usage = capsys.readouterr().out.splitlines()[0]
    assert usage.startswith("usage: efp find-strict ")
    assert usage.endswith(" {" + ",".join(STRICT_TARGETS) + "}")
    assert main(["find-strict", "nonsense"]) == 1
    assert "invalid choice: 'nonsense'" in capsys.readouterr().err


def test_round_worked_example(fig1_path, capsys):
    assert main(["round", fig1_path, "--prices", "6,6,3", "--eps", "1"]) == 0
    text = capsys.readouterr().out
    assert "sol(p)       21" in text
    assert "sol(rounded) 12.25" in text
    assert "rounded      3.5 3.5 1.75" in text
    assert "guaranteed   0.25" in text


def test_round_zero_prices_ratio_one(fig1_path, capsys):
    assert main(["round", fig1_path, "--prices", "0,0,0"]) == 0
    assert "ratio        1" in capsys.readouterr().out


def test_round_general_eps(fig1_path, capsys):
    assert main(["round", fig1_path, "--prices", "6,6,3", "--eps", "0.25"]) == 0
    out = capsys.readouterr().out
    assert "guaranteed   0.381966" in out  # 1 / (2 sqrt(0.25 * 1.25) + 1.5)


def test_round_solved_pricing(fig1_path, capsys):
    assert main(["round", fig1_path, "--eps", "1"]) == 0
    assert "using solved pricing" in capsys.readouterr().out


@pytest.mark.parametrize(
    "price, eps",
    [
        ("1e-310", "1"),  # 6 / (1e-310 / 1.5) overflows
        ("1e-322", "1e-12"),  # billions of grid elements round to this subnormal
    ],
)
def test_round_subnormal_price(fig1_path, price, eps):
    import subprocess
    import sys

    done = subprocess.run(
        [sys.executable, "-m", "efp", "round", fig1_path,
         "--prices", f"{price},6,3", "--eps", eps],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert "rounded      " in done.stdout


def test_round_dimension_mismatch(fig1_path):
    assert main(["round", fig1_path, "--prices", "1,2"]) == 1


@pytest.mark.parametrize(
    "args",
    [
        ["generate", "--model", "popularity", "--n", "1", "--output", "{out}"],
        ["generate", "--model", "popularity", "--n", "4", "--set", "e=1000",
         "--output", "{out}"],
        ["benchmark", "--model", "popularity", "--sizes", "1", "--output", "{out}"],
        ["round", "{fig1}", "--prices", "6,6,3", "--eps", "2"],
        ["round", "{fig1}", "--prices", "6,6,3", "--eps", "0"],
        ["round", "{fig1}", "--prices", "6,-1,3"],
        ["round", "{fig1}", "--prices", "nan,6,3", "--eps", "0.5"],
        ["round", "{no_edges}", "--prices", "0"],
        ["oracle", "{twelve_items}"],
        ["solve", "{fig1}", "--tolerance", "nan"],
        ["solve", "{fig1}", "--tolerance", "-1"],
        ["solve", "{fig1}", "--time-limit", "nan"],
        ["solve", "{fig1}", "--time-limit", "-5"],
        ["solve", "{fig1}", "--node-limit", "0"],
        ["round", "{fig1}", "--eps", "0.5", "--tolerance", "nan"],
        ["round", "{fig1}", "--prices", "6,6,3", "--tolerance", "nan", "--eps", "0.5"],
        ["round", "{fig1}", "--prices", "6,6,3", "--time-limit", "-5"],
        ["benchmark", "--model", "popularity", "--sizes", "4", "--tolerance", "nan",
         "--output", "{out}"],
        ["benchmark", "--model", "popularity", "--sizes", "4", "--seeds", "0",
         "--output", "{out}"],
        ["find-strict", "i-stm", "--budget", "-1"],
        ["find-strict", "i-stm", "{fig1}"],
        ["find-strict", "i-stm", "--output", "{out}"],
        ["find-strict", "i-stm", "--no-price-bound"],
        ["oracle", "{fig1}", "--seed", "1"],
        ["generate", "--model", "popularity", "--n", "4", "--time-limit", "5",
         "--output", "{out}"],
        ["solve", "{inf_edge}"],
        ["generate", "--model", "characteristics", "--n", "5", "--set", "ell=nan",
         "--output", "{out}"],
        ["generate", "--model", "characteristics", "--n", "5", "--set", "ell=-inf",
         "--output", "{out}"],
        ["generate", "--model", "characteristics", "--n", "5", "--set", "h=inf",
         "--output", "{out}"],
        ["generate", "--model", "characteristics", "--n", "5", "--set", "d=inf",
         "--output", "{out}"],
        ["generate", "--model", "characteristics", "--n", "5", "--set", "ell=-1e9",
         "--set", "h=-1e9", "--set", "d=0.001", "--output", "{out}"],
        ["generate", "--model", "neighborhood", "--n", "5", "--set", "h=nan",
         "--output", "{out}"],
        ["generate", "--model", "neighborhood", "--n", "5", "--set", "M=inf",
         "--output", "{out}"],
        ["generate", "--model", "popularity", "--n", "8", "--set", "Q=inf",
         "--output", "{out}"],
        ["generate", "--model", "popularity", "--n", "8", "--set", "d=inf",
         "--output", "{out}"],
        ["relax", "{fig1}", "--budget", "3", "--seed", "5"],
        ["generate", "--model", "popularity", "--n", "4", "--set", "e",
         "--output", "{out}"],
        ["generate", "--model", "popularity", "--n", "4", "--set", "e=abc",
         "--output", "{out}"],
        ["benchmark", "--model", "popularity", "--sizes", "4,x", "--output", "{out}"],
        ["round", "{fig1}", "--prices", "6,x,3"],
        ["solve", "{fig1}", "--formulation", "Q"],
        ["generate", "--model", "popularity", "--n", "4"],
        ["find-strict", "i-stm", "--budget", "0"],
    ],
    ids=["n1", "edge-budget", "sizes1", "eps2", "eps0", "negative-price",
         "nan-price", "no-edges", "oracle-too-large", "tolerance-nan",
         "tolerance-negative", "time-limit-nan", "time-limit-negative",
         "node-limit-0", "round-tolerance-nan", "round-prices-tolerance-nan",
         "round-prices-time-limit-negative", "benchmark-tolerance-nan",
         "seeds0", "budget-negative", "find-strict-instance",
         "find-strict-output", "find-strict-no-price-bound", "oracle-dead-flag", "generate-dead-flag",
         "inf-valuation", "characteristics-ell-nan", "characteristics-ell-minus-inf",
         "characteristics-h-inf", "characteristics-d-inf",
         "characteristics-ell-negative", "neighborhood-h-nan",
         "neighborhood-M-inf", "popularity-Q-inf", "popularity-d-inf",
         "relax-dead-flags", "set-without-value", "set-bad-value", "sizes-not-int",
         "prices-not-float", "formulation-unknown", "generate-no-output",
         "budget0"],
)
def test_input_errors_exit_1(args, fig1_path, tmp_path, capsys):
    no_edges = tmp_path / "no_edges.efp"
    save_instance(validate_instance(1, 1, []), no_edges)
    twelve_items = tmp_path / "twelve.efp"
    save_instance(validate_instance(12, 1, [(i, 0, 1.0) for i in range(12)]),
                  twelve_items)
    # an infinite valuation used to reach the solver: "unbounded LP is a bug"
    inf_edge = tmp_path / "inf.efp"
    inf_edge.write_text("EFP 1\nitems 1\nbidders 1\nedge 1 1 inf\n")
    paths = {"out": tmp_path / "out.efp", "fig1": fig1_path, "no_edges": no_edges,
             "twelve_items": twelve_items, "inf_edge": inf_edge}
    assert main([arg.format(**paths) for arg in args]) == 1
    # one line, in the same form from argparse and from the library
    err = capsys.readouterr().err
    assert err.startswith("efp: error: ") and err.count("\n") == 1, err
    if "6,-1,3" in args:  # the bad price is the one printed as p_2
        assert "price of item 2 must be non-negative" in err, err


def test_round_violation_exit_code(fig1_path, monkeypatch):
    import efp.cli as cli_mod

    monkeypatch.setattr(cli_mod, "guarantee_factor", lambda eps, **kw: 0.99)
    assert main(["round", fig1_path, "--prices", "6,6,3", "--eps", "1"]) == 2


def test_round_checks_eps_before_solving(tmp_path, monkeypatch, capsys):
    import efp.cli as cli_mod

    path = str(tmp_path / "pop12.efp")
    assert main(["generate", "--model", "popularity", "--n", "12", "--seed", "0",
                 "--output", path]) == 0

    def no_solve(*args, **kwargs):
        raise AssertionError("round solved before checking --eps")

    monkeypatch.setattr(cli_mod, "solve_mip", no_solve)
    capsys.readouterr()
    assert main(["round", path, "--eps", "5"]) == 1
    out, err = capsys.readouterr()
    assert "using solved pricing" not in out
    assert "eps must lie in (0, 1]" in err


def test_oracle_output(fig1_path, capsys):
    assert main(["oracle", fig1_path]) == 0
    assert "best_profit  21" in capsys.readouterr().out


def test_benchmark_writes_rows_and_aggregates(tmp_path):
    out = tmp_path / "bench.csv"
    assert main(["benchmark", "--model", "popularity", "--sizes", "8", "--seeds",
                 "2", "--formulations", "L,U", "--output", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 5  # header + 2 seeds x 2 formulations
    agg = tmp_path / "bench.agg.csv"
    assert agg.exists()
    with agg.open() as handle:
        rows = list(csv.DictReader(handle))
    assert {r["formulation"] for r in rows} == {"L", "U"}
    assert all(r["solved"] == "2" for r in rows)


def test_benchmark_raising_solve_exits_2(tmp_path, monkeypatch, capsys):
    import efp.benchmark as bench_mod

    real_solve, calls = bench_mod.solve_mip, []

    def solve_or_raise(model, inst, **kwargs):
        calls.append(model)
        if len(calls) == 1:  # L, the first of L,U
            raise RuntimeError("solver bug")
        return real_solve(model, inst, **kwargs)

    monkeypatch.setattr(bench_mod, "solve_mip", solve_or_raise)
    out = tmp_path / "bench.csv"
    assert main(["benchmark", "--model", "popularity", "--sizes", "8", "--seeds",
                 "1", "--formulations", "L,U", "--output", str(out)]) == 2
    assert "1 of 2 solves raised an error" in capsys.readouterr().err
    with out.open() as handle:
        rows = {r["formulation"]: r for r in csv.DictReader(handle)}
    assert rows["U"]["status"] == "optimal"
    error = rows["L"]
    assert error["status"] == "error"
    assert all(math.isnan(float(error[key])) for key in ("incumbent", "bound", "gap"))
    assert error["nodes"] == "0"
    assert (tmp_path / "bench.agg.csv").exists()


def test_benchmark_requires_known_model(tmp_path):
    assert main(["benchmark", "--model", "nope", "--sizes", "8",
                 "--output", str(tmp_path / "x.csv")]) == 1


def test_unknown_command_is_usage_error():
    assert main(["frobnicate"]) == 1


def test_module_entry_point(fig1_path):
    import subprocess
    import sys

    done = subprocess.run(
        [sys.executable, "-m", "efp", "oracle", fig1_path],
        capture_output=True, text=True,
    )
    assert done.returncode == 0
    assert "best_profit  21" in done.stdout


def test_closed_stdout_exits_without_traceback(fig1_path):
    # the reading end is closed before efp writes, as when `| head` has quit
    import os
    import subprocess
    import sys

    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "efp", "solve", fig1_path],
            stdout=write_end, stderr=subprocess.PIPE, text=True,
        )
    finally:
        os.close(write_end)
    assert "Traceback" not in done.stderr
    assert done.stderr == ""
    assert done.returncode == 1


def test_bad_log_level(monkeypatch):
    monkeypatch.setenv("EFP_LOG", "banana")
    assert main(["oracle", "whatever.efp"]) == 1
