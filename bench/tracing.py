"""Spans around pdim's public functions, recorded from outside the package.

``Tracer.install`` replaces each traced function by a wrapper in every pdim
module that binds it, including dict values such as the suite table, since
the modules import these names with ``from .x import y``.  A span is
``[name, start, end, parent index, attrs]`` and stays in memory until the
process writes it out.  :func:`summarize` turns spans into the per-layer
metrics; a span's self time is its duration minus its child spans'.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _distance_bytes(args, kwargs, _result):
    # computed from shapes: the (n, m, m) float64 difference tensor for real
    # points, the chunked (m, m, L) weighted differences for long word lists,
    # the (m, m) matrix for the pairwise fallback
    n, points = _arg(args, kwargs, 1, "n"), _arg(args, kwargs, 2, "points")
    m = len(points)
    if m and hasattr(points[0], "symbols"):
        depth = len(points[0].symbols) if m > 64 else 1
    else:
        depth = n
    return {"bytes": 8 * depth * m * m}


def _inst_points(args, kwargs, _result):
    return {"points": _arg(args, kwargs, 0, "inst").size}


def _steps(args, kwargs, _result):
    return {"steps": _arg(args, kwargs, 3, "length")}


# (module, function, span name, attrs from (args, kwargs, result))
TRACED = [
    ("pdim.symbolic", "log_weighted_word_sum", "symbolic.word_sum", _steps),
    ("pdim.symbolic", "exact_growth_table", "symbolic.growth_table", None),
    ("pdim.partition", "make_instance", "partition.make_instance", None),
    ("pdim.partition", "bowen_distance_matrix", "partition.distances", _distance_bytes),
    ("pdim.partition", "separated_lower_bound", "partition.greedy_separated", _inst_points),
    ("pdim.partition", "greedy_separated", "partition.greedy_separated", _inst_points),
    ("pdim.partition", "spanning_upper_bound", "partition.greedy_spanning", _inst_points),
    ("pdim.partition", "exact_separated_value", "partition.oracle", _inst_points),
    ("pdim.partition", "exact_spanning_value", "partition.oracle", _inst_points),
    ("pdim.partition", "count_spanning_separated", "partition.oracle",
     lambda a, kw, r: {"points": len(_arg(a, kw, 3, "points"))}),
    ("pdim.potentials", "sup_inf_norm", "potentials.sup_inf_norm", None),
    ("pdim.dimension", "pressure_curve", "dimension.pressure_curve", None),
    ("pdim.dimension", "dimension_estimate", "dimension.estimate", None),
    ("pdim.dimension", "classify_jump", "dimension.estimate", None),
    ("pdim.dimension", "entropy_dimension", "dimension.entropy_dimension", None),
] + [
    ("pdim.theorems", f"check_{suite}", f"theorems.{suite}", None)
    for suite in ("chain", "prop22", "thm31", "thm32", "thm33", "thm34", "thm35", "section4")
]

LAYERS = ("cli", "symbolic", "partition", "systems", "potentials", "dimension", "theorems")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def _open(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, attrs=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if attrs is not None:
                rec[4] = attrs(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for module, attr, name, attrs in TRACED:
            original = getattr(sys.modules[module], attr)
            _rebind(original, self.wrap(name, original, attrs))
        systems = sys.modules["pdim.systems"]
        for cls in vars(systems).values():
            if isinstance(cls, type) and "candidate_set" in vars(cls):
                cls.candidate_set = self.wrap(
                    "systems.candidate_set", vars(cls)["candidate_set"],
                    lambda a, kw, r: {"points": len(r.points)})


def _rebind(original, wrapper) -> None:
    """Point every pdim module-level name and dict entry bound to ``original`` at ``wrapper``."""
    for modname, mod in list(sys.modules.items()):
        if modname != "pdim" and not modname.startswith("pdim."):
            continue
        for key, val in list(vars(mod).items()):
            if val is original:
                setattr(mod, key, wrapper)
            elif isinstance(val, dict) and key != "__builtins__":
                for k, v in val.items():
                    if v is original:
                        val[k] = wrapper


def summarize(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics from spans of one traced process.

    A name's time and counters add up its outermost spans only, so a call
    nested in a same-named call is not counted twice.
    """
    count = len(spans)
    dur = [end - start for _, start, end, _, _ in spans]
    self_time = list(dur)
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            self_time[parent] -= dur[i]

    def outermost(i: int) -> bool:
        name, parent = spans[i][0], spans[i][3]
        while parent >= 0:
            if spans[parent][0] == name:
                return False
            parent = spans[parent][3]
        return True

    total_s, calls, attr_sum, attr_max, self_by_name = {}, {}, {}, {}, {}
    for i in range(count):
        name, _, _, _, attrs = spans[i]
        self_by_name[name] = self_by_name.get(name, 0.0) + self_time[i]
        if not outermost(i):
            continue
        total_s[name] = total_s.get(name, 0.0) + dur[i]
        calls[name] = calls.get(name, 0) + 1
        for key, val in (attrs or {}).items():
            attr_sum[name, key] = attr_sum.get((name, key), 0) + val
            attr_max[name, key] = max(attr_max.get((name, key), 0), val)

    out: dict[str, float] = {}
    ws_s, steps = total_s.get("symbolic.word_sum", 0.0), attr_sum.get(("symbolic.word_sum", "steps"), 0)
    out["symbolic.word_sum.calls"] = calls.get("symbolic.word_sum", 0)
    out["symbolic.word_sum.steps"] = steps
    out["symbolic.word_sum.s"] = ws_s
    out["symbolic.word_sum.us_per_step"] = 1e6 * ws_s / steps if steps else 0.0
    out["symbolic.growth_table.s"] = total_s.get("symbolic.growth_table", 0.0)
    out["partition.greedy_spanning.s"] = total_s.get("partition.greedy_spanning", 0.0)
    out["partition.greedy_spanning.points"] = attr_sum.get(("partition.greedy_spanning", "points"), 0)
    out["partition.greedy_separated.s"] = total_s.get("partition.greedy_separated", 0.0)
    out["partition.distances.calls"] = calls.get("partition.distances", 0)
    out["partition.distances.s"] = total_s.get("partition.distances", 0.0)
    out["partition.distances.computed_mb"] = attr_sum.get(("partition.distances", "bytes"), 0) / 1e6
    out["partition.oracle.calls"] = calls.get("partition.oracle", 0)
    out["partition.oracle.s"] = total_s.get("partition.oracle", 0.0)
    out["partition.oracle.max_points"] = attr_max.get(("partition.oracle", "points"), 0)
    out["partition.make_instance.s"] = total_s.get("partition.make_instance", 0.0)
    out["potentials.sup_inf_norm.s"] = total_s.get("potentials.sup_inf_norm", 0.0)
    out["systems.candidate_set.s"] = total_s.get("systems.candidate_set", 0.0)
    out["systems.candidate_set.points"] = attr_sum.get(("systems.candidate_set", "points"), 0)
    for name in ("pressure_curve", "estimate", "entropy_dimension"):
        out[f"dimension.{name}.s"] = total_s.get(f"dimension.{name}", 0.0)
    for _, _, name, _ in TRACED:
        if name.startswith("theorems."):
            out[f"{name}.s"] = total_s.get(name, 0.0)
    for cmd in ("estimate", "verify"):
        out[f"cli.{cmd}.self_s"] = self_by_name.get(f"cli.{cmd}", 0.0)

    root_s = sum(dur[i] for i in range(count) if spans[i][3] < 0)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for name, s in self_by_name.items():
        layer_self[name.split(".")[0]] += s
    for layer in LAYERS:
        out[f"self_share.{layer}"] = layer_self[layer] / root_s if root_s else 0.0
    return out
