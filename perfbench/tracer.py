"""Outside-in tracer: spans around the library's public functions.

The package binds functions with `from .x import f`, so a call can reach a
function through several module attributes (typespace.solve_standard is
linprog.solve_standard).  install() replaces every affinelogic module
attribute that is one of the target functions with one wrapper, so each
call is seen once whatever binding it goes through, and a call made from
inside another target (zeroset_recover -> check_distance_axioms) becomes
a child span.

Wrappers record only while `instance` is set, that is inside a timed
region.  Spans stay in memory; the size statistics (LP shape, bit
lengths, table cells) are computed from the kept arguments and results
after the run, so that work never lands inside a span.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict

TARGETS = (
    ("linprog", "solve_standard"),
    ("linalg", "gauss_solve"),
    ("linalg", "matrix_rank"),
    ("typespace", "type_hull"),
    ("typespace", "extreme_points"),
    ("typespace", "affine_satisfiable"),
    ("typespace", "barycenter"),
    ("typespace", "keisler_decompose"),
    ("definability", "distance_predicate"),
    ("definability", "check_distance_axioms"),
    ("definability", "zeroset_recover"),
    ("definability", "is_definable_set"),
    ("model", "validate_structure"),
    ("model", "eval_table"),
    ("model", "eval_formula"),
    ("mean", "build_ultramean"),
    ("mean", "check_ultramean_identity"),
    ("syntax", "parse_formula"),
    ("syntax", "render"),
    ("syntax", "certificate"),
    ("serialize", "load_structure"),
    ("cli", "main"),
    ("cli", "build_parser"),
    ("pra", "build_algebra"),
    ("pra", "hahn_max_set"),
)

# Statistics derived from arguments and results, with their units.
DERIVED = (
    ("linprog.rows_max", "count"),
    ("linprog.cols_max", "count"),
    ("linprog.bits_max", "bits"),
    ("linprog.infeasible_ratio", "ratio"),
    ("linalg.bits_max", "bits"),
    ("typespace.type_hull.vertices", "count"),
    ("typespace.extreme_points.extreme_ratio", "ratio"),
    ("typespace.affine_satisfiable.sat_ratio", "ratio"),
    ("model.validate_structure.pairs", "count"),
    ("model.eval_table.cells", "count"),
    ("mean.build_ultramean.classes", "count"),
    ("serialize.bytes_read", "bytes"),
    ("bench.instances", "count"),
    ("bench.busy_s", "s"),
    ("bench.trace_overhead", "ratio"),
)

# Functions whose arguments and results are kept for DERIVED.
KEEP = {
    "linprog.solve_standard", "linalg.gauss_solve", "linalg.matrix_rank",
    "typespace.type_hull", "typespace.extreme_points", "typespace.affine_satisfiable",
    "model.validate_structure", "model.eval_table", "mean.build_ultramean",
    "serialize.load_structure",
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for mod, fn in TARGETS:
        units[f"{mod}.{fn}.calls"] = "count"
        units[f"{mod}.{fn}.self_s"] = "s"
    units.update(DERIVED)
    return units


def _bits(values) -> int:
    best = 0
    for v in values:
        best = max(best, abs(v.numerator).bit_length(), v.denominator.bit_length())
    return best


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


class Tracer:
    """Spans and kept call data for the target functions of one run."""

    def __init__(self):
        self.spans: list[list] = []    # [name, start, end, parent index, instance]
        self.kept: list[tuple] = []    # (name, args, kwargs, result)
        self.instance: int | None = None
        self._stack: list[int] = []
        self._bindings: list[tuple] = []  # (module, attribute, original, wrapper)

    def _wrap(self, name: str, fn):
        tracer = self
        keep = name in KEEP

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.instance is None:
                return fn(*args, **kwargs)
            stack = tracer._stack
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.instance]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if keep:
                tracer.kept.append((name, args, kwargs, result))
            return result

        return traced

    def bind(self) -> None:
        """Find every binding of each target in the loaded affinelogic modules."""
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == "affinelogic" or k.startswith("affinelogic."))]
        for mod, fn in TARGETS:
            original = getattr(sys.modules[f"affinelogic.{mod}"], fn)
            wrapper = self._wrap(f"{mod}.{fn}", original)
            for m in modules:
                for attr, value in vars(m).items():
                    if value is original:
                        self._bindings.append((m, attr, original, wrapper))

    def install(self) -> None:
        for m, attr, _, wrapper in self._bindings:
            setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for m, attr, original, _ in self._bindings:
            setattr(m, attr, original)

    def self_times(self) -> dict[str, float]:
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += end - start - child[i]
        return out

    def metrics(self, instances: int, busy_s: float, overhead: float) -> dict[str, float]:
        values = {name: 0 for name in metric_units()}
        for name, *_ in self.spans:
            values[f"{name}.calls"] += 1
        for name, s in self.self_times().items():
            values[f"{name}.self_s"] = s
        infeasible = satisfiable = 0
        reports = {}
        for name, args, kwargs, result in self.kept:
            if name == "linprog.solve_standard":
                rows, b, cost = (_arg(args, kwargs, i, n) for i, n in enumerate(("a_rows", "b", "cost")))
                values["linprog.rows_max"] = max(values["linprog.rows_max"], len(rows))
                values["linprog.cols_max"] = max(values["linprog.cols_max"], len(cost))
                out = [v for part in (result.x, result.farkas) if part for v in part]
                if result.value is not None:
                    out.append(result.value)
                bits = max(_bits(b), _bits(cost), _bits(out), *(_bits(r) for r in rows))
                values["linprog.bits_max"] = max(values["linprog.bits_max"], bits)
                infeasible += result.status == "infeasible"
            elif name in ("linalg.gauss_solve", "linalg.matrix_rank"):
                rows = _arg(args, kwargs, 0, "rows")
                parts = [_bits(r) for r in rows]
                if name == "linalg.gauss_solve":
                    parts.append(_bits(_arg(args, kwargs, 1, "rhs")))
                    parts.append(_bits(result.x or result.combination or ()))
                values["linalg.bits_max"] = max(values["linalg.bits_max"], *parts, 0)
            elif name == "typespace.type_hull":
                values["typespace.type_hull.vertices"] += len(result)
            elif name == "typespace.extreme_points":
                reports[id(result)] = result  # barycenter and keisler hit the cache
            elif name == "typespace.affine_satisfiable":
                satisfiable += bool(result.satisfiable)
            elif name == "model.validate_structure":
                M = _arg(args, kwargs, 0, "M")
                tables = list(M.functions.values()) + list(M.relations.values())
                values["model.validate_structure.pairs"] += sum((M.size ** t.arity) ** 2 for t in tables)
            elif name == "model.eval_table":
                M = _arg(args, kwargs, 0, "M")
                values["model.eval_table.cells"] += M.size ** len(_arg(args, kwargs, 2, "variables"))
            elif name == "mean.build_ultramean":
                values["mean.build_ultramean.classes"] += result.structure.size
            elif name == "serialize.load_structure":
                values["serialize.bytes_read"] += os.path.getsize(_arg(args, kwargs, 0, "path"))
        classified = sum(len(r.extreme) + len(r.non_extreme) for r in reports.values())
        if classified:
            values["typespace.extreme_points.extreme_ratio"] = (
                sum(len(r.extreme) for r in reports.values()) / classified)
        if values["linprog.solve_standard.calls"]:
            values["linprog.infeasible_ratio"] = infeasible / values["linprog.solve_standard.calls"]
        if values["typespace.affine_satisfiable.calls"]:
            values["typespace.affine_satisfiable.sat_ratio"] = (
                satisfiable / values["typespace.affine_satisfiable.calls"])
        values["bench.instances"] = instances
        values["bench.busy_s"] = busy_s
        values["bench.trace_overhead"] = overhead
        return values
