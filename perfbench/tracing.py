"""Per-layer timing by rebinding efp's public entry points from outside.

``Tracer.install`` replaces module attributes with timing wrappers and
``Tracer.uninstall`` puts the originals back; the program itself is not
edited.  Spans are aggregated in memory as they close, and only while the
wrappers are installed.  The wrapped layers:

- generators: ``generate``
- formulations: ``build``
- solver: ``model_arrays``, plus ``solve_mip`` as a frame that gives the
  root/node split and the branch-and-bound self time
- simplex: ``SimplexSolver.solve``
- allocation: ``envy_free_allocation`` (as seen from ``efp.allocation`` and
  ``efp.solver``) and ``profit``
- geometric: ``round_pricing_half`` and ``round_pricing_eps``
"""

from __future__ import annotations

import functools
from collections import defaultdict
from time import perf_counter

from efp import allocation, formulations, generators, geometric, simplex, solver


class Tracer:
    """Per-layer call counts, seconds and solver counters of traced calls.

    An LP solved outside solve_mip (solve_lp) counts as a root LP; inside
    it, the first LP is the root and every later one a node.
    """

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        # wall time inside outermost leaf-layer calls, for trace.coverage
        self.covered_s = 0.0
        self._leaf_depth = 0
        self._mip: dict | None = None  # state of the solve_mip being traced
        # (owner, attribute, original, wrapper), built once
        self._bindings: list[tuple[object, str, object, object]] = []
        self._wrap(generators, "generate", "generate", self._noop)
        self._wrap(formulations, "build", "build", self._on_build)
        self._wrap(solver, "model_arrays", "model_arrays", self._on_arrays)
        self._wrap(simplex.SimplexSolver, "solve", "simplex", self._on_simplex)
        for module in (allocation, solver):
            self._wrap(module, "envy_free_allocation", "greedy", self._on_greedy)
        self._wrap(allocation, "profit", "profit", self._noop)
        self._wrap(geometric, "round_pricing_half", "round", self._noop)
        self._wrap(geometric, "round_pricing_eps", "round", self._noop)
        self._wrap_frame(solver, "solve_mip", self._enter_mip, self._exit_mip)

    def install(self) -> None:
        for owner, attr, _, wrapper in self._bindings:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._bindings:
            setattr(owner, attr, original)

    def _wrap(self, owner, attr: str, layer: str, on_exit) -> None:
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            outermost = tracer._leaf_depth == 0
            tracer._leaf_depth += 1
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                tracer._leaf_depth -= 1
            if outermost:
                tracer.covered_s += elapsed
            tracer.calls[layer] += 1
            tracer.seconds[layer] += elapsed
            on_exit(args, result, elapsed)
            return result

        self._bindings.append((owner, attr, original, wrapper))

    def _wrap_frame(self, owner, attr: str, enter, leave) -> None:
        """A frame span: timed, but not a leaf, so it adds no coverage."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            enter()
            start = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                leave(perf_counter() - start)

        self._bindings.append((owner, attr, original, wrapper))

    # -- span handlers ------------------------------------------------------

    def _noop(self, args, result, elapsed) -> None:
        pass

    def _on_build(self, args, model, elapsed) -> None:
        self.counts["build.vars"] += len(model.variables)
        self.counts["build.rows"] += len(model.constraints)
        self.counts["build.nnz"] += sum(len(c.coeffs) for c in model.constraints)

    def _on_arrays(self, args, arrays, elapsed) -> None:
        self.counts["arrays.dense_bytes"] += arrays[2].nbytes
        if self._mip is not None:
            self._mip["inner_s"] += elapsed

    def _on_simplex(self, args, result, elapsed) -> None:
        lp = args[0]
        rows, nvars = lp.A.shape
        tableau = rows * (nvars + lp.senses.count("<=")) * 8
        if self._mip is not None:
            self._mip["inner_s"] += elapsed
            is_root = self._mip["root_pending"]
            self._mip["root_pending"] = False
        else:
            is_root = True
        tag = "root" if is_root else "node"
        self.counts[f"simplex.{tag}_lps"] += 1
        self.counts[f"simplex.{tag}_s"] += elapsed
        self.counts[f"simplex.{tag}_pivots"] += result.iterations
        self.counts["simplex.computed_bytes"] += 2 * tableau * result.iterations
        self.counts["simplex.tableau_bytes"] = max(
            self.counts["simplex.tableau_bytes"], tableau
        )
        if result.status == "infeasible":
            self.counts["simplex.infeasible_lps"] += 1
        elif result.status != "optimal":
            self.counts["simplex.nonoptimal_lps"] += 1

    def _on_greedy(self, args, outcome, elapsed) -> None:
        mip = self._mip
        if mip is None:
            return
        mip["inner_s"] += elapsed
        self.counts["heuristic.calls"] += 1
        # solve_mip keeps the first outcome as its incumbent and then any
        # strictly better one; both count as a useful outcome
        if mip["best"] is None or outcome.profit > mip["best"]:
            mip["best"] = outcome.profit
            self.counts["heuristic.improvements"] += 1

    def _enter_mip(self) -> None:
        self._mip = {"root_pending": True, "inner_s": 0.0, "best": None}

    def _exit_mip(self, elapsed: float) -> None:
        self.counts["bnb.self_s"] += elapsed - self._mip["inner_s"]
        self._mip = None
