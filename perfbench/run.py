"""efp benchmark: one closed-loop workload per run, every op checked.

    python3 perfbench/run.py --workload bnb-u15 --seed 0 --seconds 20 --trace 0

Run from the repository root; the program is imported from ``src``.  One
process, one thread, closed loop: the next op starts only after the previous
one returned, cycling through the workload's inputs until ``--seconds`` have
passed.  Every op is then checked outside the timed window: MIP and LP
values against HiGHS, incumbents for envy-freeness, roundings against their
guaranteed factor.  Workloads and seeds are described in ``workloads.py``.

``--trace 0`` prints the end-to-end metrics: ops per second, median op
latency, peak RSS, and ``setup_s``, the median of three set-ups (imports,
inputs, warm-up op) in fresh interpreters.  ``--trace 1`` prints the
per-layer split of ``tracing.py`` instead, over whole passes through the
inputs, with every op run once untraced and once traced so that
``trace.overhead`` compares like with like.

Human-readable lines come first, including the environment, the failure
share and the HiGHS reference time ``ref.highs_s``.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  Exit code 2 means the sources or the workload
were not found.
"""

from __future__ import annotations

import os
import time

# pinned before numpy loads: two BLAS threads on two cores fight the process
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from array import array  # noqa: E402
from collections import defaultdict  # noqa: E402
from itertools import cycle  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
SETUP_REPEATS = 3
P90_MIN_OPS = 100  # p90 needs ten samples beyond it
FAULTS_SHOWN = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


_COLD_SETUP = """
import time
start = time.perf_counter()
import sys
sys.path[:0] = sys.argv[1:3]
import workloads
workloads.WORKLOADS[sys.argv[3]].inputs(int(sys.argv[4]))
workloads.warm_up()
print(time.perf_counter() - start)
"""


def cold_setup_s(name: str, shift: int) -> float:
    """Seconds a fresh interpreter spends on imports, inputs and the warm-up."""
    out = subprocess.run(
        [sys.executable, "-c", _COLD_SETUP, str(SRC), str(BENCH), name, str(shift)],
        capture_output=True, text=True, check=True, timeout=170,
    )
    return float(out.stdout)


class OpLog:
    """Latencies and outputs of a sequence of ops, in spec order.

    Equal hashable outputs are stored once, so the bookkeeping of a long run
    of cheap ops does not inflate peak RSS.
    """

    def __init__(self) -> None:
        self.latencies = array("d")
        self.outputs: list = []
        self._distinct: dict = {}

    def run(self, op, spec) -> None:
        start = time.perf_counter()
        try:
            out = op(spec)
        except Exception:  # counted as a failed op by the gate
            traceback.print_exc(file=sys.stderr)
            out = None
        self.latencies.append(time.perf_counter() - start)
        try:
            out = self._distinct.setdefault(out, out)
        except TypeError:  # unhashable, e.g. an LP solution's value map
            pass
        self.outputs.append(out)


def run_ops(op, specs, seconds) -> tuple[OpLog, float]:
    """Closed loop over specs for `seconds`; returns the log and its wall time."""
    log = OpLog()
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        log.run(op, specs[len(log.outputs) % len(specs)])
    return log, time.perf_counter() - start


def run_traced(op, specs, seconds, tracer) -> tuple[OpLog, OpLog, int]:
    """Whole passes over specs, at least one, until `seconds` have passed.

    Each op runs twice back to back, untraced and traced; which goes first
    alternates, so warm caches and slow drift of the machine's speed cancel
    out of trace.overhead.  Returns both logs and the number of passes.
    """
    plain, traced = OpLog(), OpLog()
    start = time.perf_counter()
    passes = 0
    while not passes or time.perf_counter() - start < seconds:
        for k, spec in enumerate(specs):
            for log in (plain, traced) if k % 2 == 0 else (traced, plain):
                if log is traced:
                    tracer.install()
                try:
                    log.run(op, spec)
                finally:
                    tracer.uninstall()
        passes += 1
    return plain, traced, passes


def references(workload, specs, n_ops):
    """HiGHS reference of every input the ops touched, and their total time."""
    if workload.reference is None:
        return [], 0.0
    import highs_ref

    solve = getattr(highs_ref, workload.reference)
    start = time.perf_counter()
    refs = [solve(spec) for spec in specs[:n_ops]]
    return refs, time.perf_counter() - start


def count_failed(workload, specs, outputs, refs, label) -> int:
    """Ops whose output fails the gate; the first few are described on stderr."""
    failed = 0
    for k, out in enumerate(outputs):
        key = k % len(specs)
        reference = refs[key] if refs else None
        fault = "op raised" if out is None else workload.check(specs[key], out, reference)
        if fault:
            failed += 1
            if failed <= FAULTS_SHOWN:
                print(f"FAILED {label} op {k} (input {key}): {fault}", file=sys.stderr)
    if failed > FAULTS_SHOWN:
        print(f"FAILED {label}: {failed - FAULTS_SHOWN} more ops", file=sys.stderr)
    return failed


def metric(value, unit):
    return {"value": value, "unit": unit}


def ratio(part, whole) -> float:
    """part / whole, or 0 for a layer the workload never calls."""
    return part / whole if whole else 0.0


def layer_metrics(tracer, specs, outputs, refs, op_s, untraced_s, passes):
    """Per-layer figures per pass of the traced ops over the inputs.

    Counts and seconds are divided by the number of passes, so the counts
    repeat exactly for a seed.  Generation is timed in the set-up instead.
    """
    import workloads as wl
    from efp.formulations import ALL_KINDS

    def per_pass(table):
        return defaultdict(float, {key: value / passes for key, value in table.items()})

    c, s, n = per_pass(tracer.counts), per_pass(tracer.seconds), per_pass(tracer.calls)
    pivots = c["simplex.root_pivots"] + c["simplex.node_pivots"]
    lp_s = c["simplex.root_s"] + c["simplex.node_s"]
    m = {
        "simplex.node_lps": metric(c["simplex.node_lps"], "count"),
        "simplex.node_s": metric(c["simplex.node_s"], "s"),
        "simplex.node_pivots": metric(c["simplex.node_pivots"], "count"),
        "simplex.pivots_per_node_lp": metric(
            ratio(c["simplex.node_pivots"], c["simplex.node_lps"]), "pivots/lp"
        ),
        "simplex.root_lps": metric(c["simplex.root_lps"], "count"),
        "simplex.root_s": metric(c["simplex.root_s"], "s"),
        "simplex.root_pivots": metric(c["simplex.root_pivots"], "count"),
        "simplex.s_per_pivot": metric(ratio(lp_s, pivots), "s"),
        # computed from the model shape, not measured: rows x (vars + <= rows)
        # x 8 bytes, read and written once by every rank-1 update
        "simplex.tableau_bytes": metric(tracer.counts["simplex.tableau_bytes"], "B"),
        "simplex.bytes_per_pivot": metric(ratio(c["simplex.computed_bytes"], pivots), "B"),
        "simplex.computed_gbps": metric(ratio(c["simplex.computed_bytes"], lp_s) / 1e9, "GB/s"),
        "simplex.nonoptimal_lps": metric(c["simplex.nonoptimal_lps"], "count"),
        "simplex.infeasible_lps": metric(c["simplex.infeasible_lps"], "count"),
    }
    mips = [
        (spec.market, kind, result, ref[0])
        for spec, ref, out in zip(cycle(specs), cycle(refs), outputs)
        if isinstance(spec, wl.MipSpec) and out is not None
        for kind, result in zip(spec.kinds, out)
    ]
    for kind in ALL_KINDS:
        mine = [(market, out, ref) for market, k, out, ref in mips if k == kind]
        m[f"solver.nodes.{kind.value}"] = metric(
            sum(out.nodes for _, out, _ in mine) / passes, "count"
        )
        gaps = {
            market: (out.root_relaxation - ref) / max(1.0, abs(ref))
            for market, out, ref in mine
        }
        m[f"solver.root_gap.{kind.value}"] = metric(
            ratio(sum(gaps.values()), len(gaps)), "frac"
        )
    closed = sum(out.status == "optimal" for _, _, out, _ in mips)
    m["solver.closed_frac"] = metric(ratio(closed, len(mips)), "frac")
    m["solver.bnb_self_s"] = metric(c["bnb.self_s"], "s")
    m["solver.heuristic_calls"] = metric(c["heuristic.calls"], "count")
    m["solver.incumbent_improvements"] = metric(c["heuristic.improvements"], "count")
    m["solver.heuristic_hit_rate"] = metric(
        ratio(c["heuristic.improvements"], c["heuristic.calls"]), "frac"
    )
    m["formulations.build_s"] = metric(s["build"], "s")
    m["formulations.vars"] = metric(ratio(c["build.vars"], n["build"]), "count")
    m["formulations.rows"] = metric(ratio(c["build.rows"], n["build"]), "count")
    m["formulations.nnz"] = metric(ratio(c["build.nnz"], n["build"]), "count")
    m["solver.model_arrays_s"] = metric(s["model_arrays"], "s")
    m["solver.dense_a_bytes"] = metric(
        ratio(c["arrays.dense_bytes"], n["model_arrays"]), "B"
    )
    m["allocation.greedy_calls"] = metric(n["greedy"], "count")
    m["allocation.greedy_s"] = metric(s["greedy"], "s")
    m["allocation.us_per_greedy"] = metric(1e6 * ratio(s["greedy"], n["greedy"]), "us")
    m["geometric.round_calls"] = metric(n["round"], "count")
    m["geometric.round_s"] = metric(s["round"], "s")
    m["generators.generate_s"] = metric(tracer.seconds["generate"], "s")
    m["trace.coverage"] = metric(tracer.covered_s / sum(op_s), "frac")
    m["trace.overhead"] = metric(sum(op_s) / untraced_s - 1.0, "frac")
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "efp" / "__init__.py").is_file():
        print(f"efp sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import numpy
    import scipy

    import workloads as wl
    from tracing import Tracer

    if args.workload not in wl.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(wl.WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = wl.WORKLOADS[args.workload]
    shift = args.seed * wl.SEED_STRIDE
    tracer = Tracer() if args.trace else None
    # set-up is timed in fresh interpreters, where imports are not yet cached
    setup_times = [] if tracer else [
        cold_setup_s(workload.name, shift) for _ in range(SETUP_REPEATS)
    ]
    if tracer:
        tracer.install()  # during set-up only generate() runs under it
    try:
        specs = workload.inputs(shift)
    finally:
        if tracer:
            tracer.uninstall()
            tracer.covered_s = 0.0
    wl.warm_up()

    if tracer:
        plain, log, passes = run_traced(workload.op, specs, args.seconds, tracer)
        logs = [plain, log]
    else:
        log, loop_s = run_ops(workload.op, specs, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        logs = [log]
    op_s = log.latencies

    refs, ref_s = references(workload, specs, len(log.outputs))
    label = f"{workload.name} seed={args.seed}"
    failed = sum(count_failed(workload, specs, entry.outputs, refs, label) for entry in logs)
    attempted = sum(len(entry.outputs) for entry in logs)

    print(f"workload {workload.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}: {workload.why}")
    print(f"env OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']} "
          f"nproc={os.cpu_count()} cpu={cpu_model()!r} python={platform.python_version()} "
          f"numpy={numpy.__version__} scipy={scipy.__version__}")
    if setup_times:
        print("cold set-ups " + ", ".join(f"{t:.4f}" for t in setup_times) + " s")
    if tracer:
        print(f"{passes} traced passes over {len(specs)} inputs; per-layer figures are per pass")
    print(f"ops {len(op_s)}  failed {failed}/{attempted} "
          f"(failed_frac {failed / attempted:.4f})  ref.highs_s {ref_s:.4f} s")
    if tracer:
        metrics = layer_metrics(
            tracer, specs, log.outputs, refs, op_s, sum(plain.latencies), passes
        )
    else:
        metrics = {
            "ops_per_s": metric(len(op_s) / loop_s, "1/s"),
            "op_s.p50": metric(statistics.median(op_s), "s"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
            "setup_s": metric(statistics.median(setup_times), "s"),
        }
        if len(op_s) >= P90_MIN_OPS:
            p90 = statistics.quantiles(op_s, n=10)[-1]
            print(f"op_s.p90 {p90:.6g} s over {len(op_s)} ops")
    for name, entry in metrics.items():
        print(f"  {name:32s} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
