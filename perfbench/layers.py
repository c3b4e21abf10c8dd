"""Layer tracing: wrappers installed in an op's interpreter, and the
per-layer metrics computed from what they record.

`install` wraps public functions wherever a semibasis module binds them.
Coarse layer calls become spans (name, start, end, parent) kept in
memory; the linear-algebra leaves run hundreds of thousands of times per
op, so they only add to call counters and busy time.  A target the
package no longer defines is reported as absent and its metrics read 0.
"""

from __future__ import annotations

import functools
import sys
from statistics import median
from time import perf_counter

# (defining module, attribute, how to record, metric name).  A dict of
# metric names keys the metric by the module whose binding is called.
TARGETS = (
    ("semibasis.quiver", "refine_order", "span", "quiver.order"),
    ("semibasis.hall", "left_mul_divided_power", "span", "hall.left_mul"),
    ("semibasis.hall", "pbw_to_words", "span", "hall.expand"),
    ("semibasis.hall", "check_serre", "span", "hall.serre"),
    (
        "semibasis.linalg",
        "interpolate_eval_one",
        "span",
        {"semibasis.hall": "hall.interp", "semibasis.nilpotent": "nilpotent.interp"},
    ),
    ("semibasis.nilpotent", "evaluate_word_at_point", "span", "nilpotent.word_eval"),
    ("semibasis.nilpotent", "lift_generic", "span", "nilpotent.lift"),
    ("semibasis.nilpotent", "t_component", "span", "nilpotent.sample"),
    ("semibasis.nilpotent", "peel_component", "span", "nilpotent.sample"),
    ("semibasis.nilpotent", "RhoEvaluator.chi", "distinct", "nilpotent.chi"),
    ("semibasis.linalg", "rref_ff", "count", "linalg.rref"),
    ("semibasis.linalg", "matmul_ff", "count", "linalg.matmul"),
    ("semibasis.linalg", "subspaces_ff", "yields", "linalg.subspaces"),
    ("semibasis.semican", "transition_via_inversion", "span", "semican.inversion"),
    ("semibasis.semican", "transition_matrix", "span", "semican.transition"),
    ("semibasis.semican", "SemicanBasis.element", "span", "semican.recursion"),
)

# Top-level library calls an op is made of; op time outside them is cli.self_s.
TOP_CALLS = ("semican.transition", "hall.serre")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.counters: dict[str, list] = {}  # name -> [count, seconds]
        self.absent: list[str] = []

    def span(self, name, fn):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, perf_counter(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = perf_counter()

        return wrapper

    def count(self, name, fn):
        cell = self.counters.setdefault(name, [0, 0.0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            started = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                cell[0] += 1
                cell[1] += perf_counter() - started

        return wrapper

    def yields(self, name, fn):
        cell = self.counters.setdefault(name, [0, 0.0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                cell[0] += 1
                yield item

        return wrapper

    def distinct(self, name, fn):
        # distinct (evaluator, arguments) keys; evaluators are kept alive
        # so that an id is never reused within the op
        cell = self.counters.setdefault(name, [0, 0.0])
        seen: set = set()
        owners: list = []

        @functools.wraps(fn)
        def wrapper(owner, *args):
            key = (id(owner),) + args
            if key not in seen:
                seen.add(key)
                owners.append(owner)
                cell[0] += 1
            return fn(owner, *args)

        return wrapper

    def install(self) -> None:
        modules = [
            mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "semibasis" or name.startswith("semibasis."))
        ]
        for home, attr, how, metric in TARGETS:
            names = metric.values() if isinstance(metric, dict) else [metric]
            owner_name, _, method = attr.rpartition(".")
            owner = sys.modules.get(home)
            if owner is not None and owner_name:
                owner = getattr(owner, owner_name, None)
            original = None if owner is None else vars(owner).get(method)
            if original is None:
                self.absent.extend(f"{n} ({home}.{attr})" for n in names)
                continue
            make = getattr(self, how)
            if owner_name:
                setattr(owner, method, make(metric, original))
                continue
            bound = set()
            for mod in modules:
                key = metric.get(mod.__name__) if isinstance(metric, dict) else metric
                if key is None:
                    continue
                for name, value in list(vars(mod).items()):
                    if value is original and not name.startswith("_"):
                        setattr(mod, name, make(key, original))
                        bound.add(key)
            self.absent.extend(f"{n} ({home}.{attr})" for n in names if n not in bound)

    def record(self, op_start: float) -> dict:
        return {
            "spans": [[n, s - op_start, e - op_start, p] for n, s, e, p in self.spans],
            "counters": self.counters,
            "absent": self.absent,
        }


# ---------------------------------------------------------------------------
# per-layer metrics, computed in the benchmark process

class RoundTotals:
    """Call counts, busy time and counters over the traced ops of one round.

    A span's time counts toward its name only when no enclosing span has
    the same name, so recursion is not counted twice.  `check` is the
    time of transition_matrix outside the inversion and the outermost
    recursion spans it encloses: the fresh-seed delta check.  `overhead`
    is the traced round's op time minus the untraced round's.
    """

    def __init__(self, ops: list[dict], overhead: float):
        self.overhead = overhead
        self.call_counts: dict[str, int] = {}
        self.busy_s: dict[str, float] = {}
        self.counters: dict[str, list] = {}
        self.check = self.self_s = 0.0
        for op in ops:
            spans = op["spans"]
            top = 0.0
            for name, start, end, parent in spans:
                self.call_counts[name] = self.call_counts.get(name, 0) + 1
                p = parent
                while p >= 0 and spans[p][0] != name:
                    p = spans[p][3]
                if p < 0:
                    self.busy_s[name] = self.busy_s.get(name, 0.0) + end - start
                if parent < 0 and name in TOP_CALLS:
                    top += end - start
                if name == "semican.transition":
                    self.check += end - start
                elif parent >= 0 and spans[parent][0] == "semican.transition" and name in (
                    "semican.inversion",
                    "semican.recursion",
                ):
                    self.check -= end - start
            self.self_s += op["op_s"] - top
            for name, (n, s) in op["counters"].items():
                cell = self.counters.setdefault(name, [0, 0.0])
                cell[0] += n
                cell[1] += s

    def calls(self, name: str) -> int:
        return self.call_counts.get(name, 0)

    def busy(self, name: str) -> float:
        return self.busy_s.get(name, 0.0)

    def counted(self, name: str) -> int:
        return self.counters.get(name, [0, 0.0])[0]

    def counted_s(self, name: str) -> float:
        return self.counters.get(name, [0, 0.0])[1]

    def per_chi(self, count: int) -> float:
        chi = self.counted("nilpotent.chi")
        return count / chi if chi else 0.0


# (metric name, unit, value from a round's totals): the one list of
# per-layer metrics.  BENCHMARK.json repeats it; selfcheck.py compares.
PER_LAYER = (
    ("quiver.order_s", "s", lambda t: t.busy("quiver.order")),
    ("hall.left_mul_calls", "count", lambda t: t.calls("hall.left_mul")),
    ("hall.left_mul_s", "s", lambda t: t.busy("hall.left_mul")),
    ("hall.interp_calls", "count", lambda t: t.calls("hall.interp")),
    ("hall.interp_s", "s", lambda t: t.busy("hall.interp")),
    ("hall.expand_s", "s", lambda t: t.busy("hall.expand")),
    ("nilpotent.word_evals", "count", lambda t: t.calls("nilpotent.word_eval")),
    ("nilpotent.word_eval_s", "s", lambda t: t.busy("nilpotent.word_eval")),
    ("nilpotent.chi_values", "count", lambda t: t.counted("nilpotent.chi")),
    ("nilpotent.evals_per_chi", "ratio", lambda t: t.per_chi(t.calls("nilpotent.word_eval"))),
    ("nilpotent.interp_calls", "count", lambda t: t.calls("nilpotent.interp")),
    ("nilpotent.interp_s", "s", lambda t: t.busy("nilpotent.interp")),
    ("nilpotent.interp_per_chi", "ratio", lambda t: t.per_chi(t.calls("nilpotent.interp"))),
    ("nilpotent.lift_calls", "count", lambda t: t.calls("nilpotent.lift")),
    ("nilpotent.lift_s", "s", lambda t: t.busy("nilpotent.lift")),
    ("nilpotent.sample_calls", "count", lambda t: t.calls("nilpotent.sample")),
    ("nilpotent.sample_s", "s", lambda t: t.busy("nilpotent.sample")),
    ("linalg.rref_calls", "count", lambda t: t.counted("linalg.rref")),
    ("linalg.rref_s", "s", lambda t: t.counted_s("linalg.rref")),
    ("linalg.matmul_calls", "count", lambda t: t.counted("linalg.matmul")),
    ("linalg.matmul_s", "s", lambda t: t.counted_s("linalg.matmul")),
    ("linalg.subspaces", "count", lambda t: t.counted("linalg.subspaces")),
    ("semican.inversion_s", "s", lambda t: t.busy("semican.inversion")),
    ("semican.check_s", "s", lambda t: t.check),
    ("semican.recursion_s", "s", lambda t: t.busy("semican.recursion")),
    ("cli.self_s", "s", lambda t: t.self_s),
    ("trace.overhead_s", "s", lambda t: t.overhead),
)


def round_layers(ops: list[dict], overhead: float) -> dict[str, float]:
    """Every per-layer metric of one round."""
    totals = RoundTotals(ops, overhead)
    return {name: value(totals) for name, _, value in PER_LAYER}


def median_layers(rounds: list[dict[str, float]]) -> dict[str, float]:
    return {name: median(r[name] for r in rounds) for name, _, _ in PER_LAYER}
