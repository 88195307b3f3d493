"""In-memory span tracing around the package's stage functions.

The package imports many functions by name (``dispatch.hessian``,
``laplacian.hessian_matrix``, ``cases.build_study``, ``cli.build_study`` and
so on), so wrapping only the defining module would miss calls. ``Tracer``
therefore replaces every binding of each traced function in every loaded
``oscdamp`` module, plus ``scipy.linalg.eig`` as ``oscdamp.modal`` reaches
it, and restores them all on exit.

A span is recorded only while ``Tracer.op`` holds an op id; outside ops the
wrappers call straight through. Spans stay in memory until the run ends.
A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

TRACED = {
    "network": ("parse_grid_file", "solve_power_flow", "hessian_matrix",
                "residual_vectors", "line_states", "build_incidence"),
    "laplacian": ("hessian", "coord_jacobian"),
    "modal": ("build_dynamic_matrices", "solve_qep"),
    "sensitivity": ("sensitivity_coefficients", "const_v_coefficients"),
    "dispatch": ("flow_response", "unit_dlambda", "rank_pairs", "sweep", "match_mode"),
    "cases": ("finite_difference_sensitivity", "reproduce_case", "random_network"),
    "study": ("build_study",),
    "cli": ("main",),
}
QZ = "modal.qz"
PF = "network.solve_power_flow"

# Counts that depend only on the inputs: two runs of one seed must report
# them identically.
EXACT_REPEAT = (
    "network.solve_power_flow.newton_iters",
    "network.solve_power_flow.residual_evals",
    "network.solve_power_flow.backtracks",
    "network.hessian_matrix.calls",
    "network.line_states.calls",
    "network.build_incidence.calls",
    "laplacian.hessian.calls",
    "laplacian.coord_jacobian.calls",
    "modal.build_dynamic_matrices.calls",
    "modal.qz.calls",
    "modal.qz.pencil_n",
    "sensitivity.sensitivity_coefficients.calls",
    "dispatch.flow_response.calls",
    "dispatch.unit_dlambda.calls",
    "dispatch.match_mode.calls",
    "dispatch.match_mode.failures",
    "cases.finite_difference_sensitivity.failures",
    "cases.random_network.attempts",
    "study.build_study.calls",
)
TIMES = (
    "cli.main.self_s",
    "network.parse_grid_file.self_s",
    "network.solve_power_flow.self_s",
    "modal.qz_s",
    "modal.solve_qep.postproc_s",
    "sensitivity.sensitivity_coefficients.self_s",
    "sensitivity.const_v_coefficients.self_s",
    "dispatch.flow_response.self_s",
    "dispatch.rank_pairs.self_s",
    "cases.finite_difference_sensitivity.self_s",
    "cases.reproduce_case.self_s",
    "study.build_study.self_s",
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    failed: bool = False
    size: int | None = None

    FIELDS = ("name", "start", "end", "parent", "op", "failed", "size")

    def dump(self) -> list:
        return [self.name, self.start, self.end, self.parent, self.op, self.failed, self.size]


class Tracer:
    """Span recorder; use as a context manager to install and remove the wrappers."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, sized: bool = False):
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            span = Span(name, time.perf_counter(), 0.0,
                        self._stack[-1] if self._stack else None, self.op,
                        size=args[0].shape[0] if sized else None)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
        return traced

    def __enter__(self) -> "Tracer":
        import oscdamp.cli  # noqa: F401  (loads every package module)

        modules = [mod for name, mod in sys.modules.items()
                   if name == "oscdamp" or name.startswith("oscdamp.")]
        for short, names in TRACED.items():
            home = importlib.import_module(f"oscdamp.{short}")
            for fname in names:
                orig = getattr(home, fname)
                wrapped = self.wrap(f"{short}.{fname}", orig)
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            self._restore.append((mod, attr, orig))
                            setattr(mod, attr, wrapped)
        modal_linalg = importlib.import_module("oscdamp.modal").scipy.linalg
        self._restore.append((modal_linalg, "eig", modal_linalg.eig))
        modal_linalg.eig = self.wrap(QZ, modal_linalg.eig, sized=True)
        return self

    def __exit__(self, *exc) -> None:
        while self._restore:
            mod, attr, orig = self._restore.pop()
            setattr(mod, attr, orig)

    def dump(self) -> list[list]:
        return [s.dump() for s in self.spans]

    def absorb(self, dumped: list[list], op: int) -> None:
        """Add spans recorded by another process, re-based onto this list."""
        base = len(self.spans)
        for name, start, end, parent, _, failed, size in dumped:
            self.spans.append(Span(name, start, end,
                                   None if parent is None else base + parent,
                                   op, failed, size))


def per_op(spans: list[Span]) -> dict[int, dict[str, float]]:
    """Counts and self times of every traced stage, keyed by op id."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.end - s.start
    ops: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    solves: dict[int, int] = defaultdict(int)
    for i, s in enumerate(spans):
        d = ops[s.op]
        dur = s.end - s.start
        d[f"{s.name}.calls"] += 1
        d[f"{s.name}.total_s"] += dur
        d[f"{s.name}.self_s"] += dur - covered[i]
        d[f"{s.name}.failures"] += s.failed
        parent = spans[s.parent].name if s.parent is not None else None
        if s.name == PF:
            solves[s.op] += 1
        elif parent == PF and s.name == "network.hessian_matrix":
            d[f"{PF}.newton_iters"] += 1
        elif parent == PF and s.name == "network.residual_vectors":
            d[f"{PF}.residual_evals"] += 1
        elif s.name == QZ:
            d["modal.qz.pencil_n"] = max(d["modal.qz.pencil_n"], s.size)
        elif s.name == "study.build_study" and _under(spans, i, "cases.random_network"):
            d["cases.random_network.attempts"] += 1
    for op, d in ops.items():
        d[f"{PF}.backtracks"] = d[f"{PF}.residual_evals"] - d[f"{PF}.newton_iters"] - solves[op]
        d["modal.qz_s"] = d[f"{QZ}.total_s"]
        d["modal.solve_qep.postproc_s"] = d["modal.solve_qep.self_s"]
    return ops


def _under(spans: list[Span], i: int, name: str) -> bool:
    p = spans[i].parent
    while p is not None:
        if spans[p].name == name:
            return True
        p = spans[p].parent
    return False


def stage_of(metric: str) -> str:
    """The traced stage a per-layer metric belongs to."""
    return QZ if metric == "modal.qz_s" else metric.rsplit(".", 1)[0]


def layer_metrics(
    spans: list[Span], timed_ops: list[int], counted_ops: list[int]
) -> dict[str, float]:
    """Per-op medians over the ops that call each metric's stage, 0 where none does.

    Times use ``timed_ops``; exact-repeat counts use ``counted_ops``, a fixed
    set of ops so that the counts repeat between runs of one seed.
    """
    ops = per_op(spans)

    def median(key: str, op_ids: list[int]) -> float:
        calls = f"{stage_of(key)}.calls"
        values = [ops[o].get(key, 0.0) for o in op_ids if ops[o].get(calls)]
        return statistics.median(values) if values else 0.0

    out = {key: median(key, timed_ops) for key in TIMES}
    out.update((key, median(key, counted_ops)) for key in EXACT_REPEAT)
    return out
