"""Outside-in span tracing of the ltrlab layers.

`Tracer.install` wraps, from outside the package, the public functions of
each ltrlab module, `core.ScoredList.__post_init__` and the public methods of
`distill_data.SyntheticWorld`. Every name that refers to a wrapped function,
in any ltrlab module, is rebound to the wrapper, so `from .x import f` call
sites are traced too. `uninstall` restores the originals. Nothing under
`src/` is edited.

A span records its name, start, end, parent span and operation id. Spans are
kept in memory and written out by `write_tsv` when the benchmark ends.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
from collections import defaultdict
from time import perf_counter

TRACED_MODULES = (
    "core",
    "distill_data",
    "evaluation",
    "losses",
    "pipeline",
    "rerank_sim",
    "scorer",
    "trainer",
)

# Called once per document id: a span each would cost more than the work it
# measures. Their time stays in the caller's self time.
UNTRACED = frozenset({"core.validate_id"})

# These names report self time as `.s`: their callees have their own metrics.
SELF_TIMED = frozenset({"trainer.train_stage1", "trainer.train_distill"})

# Direct children of a training function that belong to one optimizer step.
_STEP_WORK = frozenset(
    {
        "scorer.score_batch",
        "scorer.grad_batch",
        "losses.infonce",
        "losses.ranknet",
        "losses.adr_mse",
    }
)
_TRAIN_FUNCTIONS = ("trainer.train_stage1", "trainer.train_distill")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _text_mb(value) -> float:
    return len(value) / 1e6 if isinstance(value, str) else 0.0


# name -> hook(counts, queries, args, kwargs, result), run after the call.
def _score_rows(c, q, a, k, r):
    c["scorer.score_batch.rows"] += len(_arg(a, k, 1, "features"))


def _written_mb(name):
    def hook(c, q, a, k, r):
        c[f"{name}.mb"] += _text_mb(r)

    return hook


def _parsed_mb(name):
    def hook(c, q, a, k, r):
        c[f"{name}.mb"] += _text_mb(_arg(a, k, 0, "source"))

    return hook


def _teacher_lists(c, q, a, k, r):
    c["distill_data.lists"] += len(r)


def _negative_groups(c, q, a, k, r):
    c["distill_data.groups"] += len(r)
    c["distill_data.skipped"] += len(_arg(a, k, 0, "run")) - len(r)


def _scored_list(c, q, a, k, r):
    q.add(a[0].query)


HOOKS = {
    "scorer.score_batch": _score_rows,
    "core.write_run": _written_mb("core.write_run"),
    "core.write_distill_dataset": _written_mb("core.write_distill_dataset"),
    "core.parse_run": _parsed_mb("core.parse_run"),
    "core.parse_qrels": _parsed_mb("core.parse_qrels"),
    "core.parse_distill_dataset": _parsed_mb("core.parse_distill_dataset"),
    "distill_data.build_teacher_dataset": _teacher_lists,
    "distill_data.build_hard_negative_groups": _negative_groups,
    "core.ScoredList": _scored_list,
}


class OpTrace:
    """The spans and counts of one traced operation."""

    def __init__(self, op_id: int, first: int, last: int, wall_s: float, counts, queries):
        self.op_id = op_id
        self.first = first  # span index range [first, last)
        self.last = last
        self.wall_s = wall_s
        self.counts = dict(counts)
        self.queries = len(queries)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.op: list[int] = []
        self.ops: list[OpTrace] = []
        self._stack: list[int] = []
        self._op_id = -1
        self._op_first = 0
        self._counts: dict[str, float] = defaultdict(float)
        self._queries: set[str] = set()
        self._patched: list[tuple[object, str, object]] = []

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name: str, fn):
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.name)
            self.name.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.op.append(self._op_id)
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                self._stack.pop()
            if hook is not None:
                hook(self._counts, self._queries, args, kwargs, result)
            return result

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap the layers of the already imported ltrlab package."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for short in TRACED_MODULES:
            module = sys.modules[f"ltrlab.{short}"]
            for attr, obj in vars(module).items():
                name = f"{short}.{attr}"
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not attr.startswith("_")
                    and name not in UNTRACED
                ):
                    wrappers[obj] = self._wrap(name, obj)
        package = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "ltrlab"]
        for module in package:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(module, attr, wrappers[obj])
        core = sys.modules["ltrlab.core"]
        self._patch(
            core.ScoredList,
            "__post_init__",
            self._wrap("core.ScoredList", core.ScoredList.__post_init__),
        )
        world_cls = sys.modules["ltrlab.distill_data"].SyntheticWorld
        for attr, obj in list(vars(world_cls).items()):
            if inspect.isfunction(obj) and not attr.startswith("_"):
                self._patch(world_cls, attr, self._wrap(f"distill_data.{attr}", obj))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- operations ---------------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self._op_id = op_id
        self._op_first = len(self.name)
        self._counts.clear()
        self._queries.clear()

    def end_op(self, wall_s: float) -> OpTrace:
        if self._stack:
            raise RuntimeError("operation ended inside an open span")
        trace = OpTrace(
            self._op_id, self._op_first, len(self.name), wall_s, self._counts, self._queries
        )
        self.ops.append(trace)
        return trace

    # -- analysis -----------------------------------------------------------

    def op_metrics(self, trace: OpTrace) -> dict[str, float]:
        """Per-layer figures of one operation.

        `<span>.calls` counts calls and `<span>.s` is the time inside them
        including callees (self time for SELF_TIMED). `cli.other.s` is the
        operation's wall time that no span covers.
        """
        span_range = range(trace.first, trace.last)
        calls: dict[str, float] = defaultdict(float)
        total: dict[str, float] = defaultdict(float)
        child: dict[int, float] = defaultdict(float)
        top = 0.0
        for i in span_range:
            dur = self.end[i] - self.start[i]
            name = self.names[self.name[i]]
            calls[name] += 1
            total[name] += dur
            if self.parent[i] < 0:
                top += dur
            else:
                child[self.parent[i]] += dur
        self_s: dict[str, float] = defaultdict(float)
        for i in span_range:
            own = self.end[i] - self.start[i] - child[i]
            if own < -1e-9:
                raise RuntimeError(f"span {i} is shorter than its children")
            self_s[self.names[self.name[i]]] += own
        # Nested spans make the self times plus the uncovered time add up to
        # the operation's wall time.
        other = trace.wall_s - top
        if other < -1e-9:
            raise RuntimeError("spans outlast the operation")
        out: dict[str, float] = dict(trace.counts)
        for name in calls:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.s"] = self_s[name] if name in SELF_TIMED else total[name]
        out["core.ScoredList.count"] = calls.get("core.ScoredList", 0.0)
        if trace.queries:
            out["core.ScoredList.per_query"] = out["core.ScoredList.count"] / trace.queries
        out["cli.other.s"] = other
        out["trace.wall_s"] = trace.wall_s
        out["trace.spans"] = float(trace.last - trace.first)
        return out

    def step_ms(self) -> list[float]:
        """Optimizer step times over all traced operations, in ms.

        A step runs from the first scoring or loss call after the previous
        AdamW update to the end of its own update; validation in between is
        not part of it.
        """
        train_ids = {self._name_ids[n] for n in _TRAIN_FUNCTIONS if n in self._name_ids}
        work_ids = {self._name_ids[n] for n in _STEP_WORK if n in self._name_ids}
        adamw = self._name_ids.get("scorer.adamw_step")
        step_start: dict[int, float] = {}
        steps = []
        for i in range(len(self.name)):
            p = self.parent[i]
            if p < 0 or self.name[p] not in train_ids:
                continue
            if self.name[i] in work_ids:
                step_start.setdefault(p, self.start[i])
            elif self.name[i] == adamw and p in step_start:
                steps.append((self.end[i] - step_start.pop(p)) * 1e3)
        return steps

    def durations_ms(self, name: str) -> list[float]:
        nid = self._name_ids.get(name)
        spans = range(len(self.name))
        return [(self.end[i] - self.start[i]) * 1e3 for i in spans if self.name[i] == nid]

    def write_tsv(self, path) -> None:
        """All spans, one line each: op, span, parent, name, start_s, end_s."""
        t0 = self.start[0] if self.start else 0.0
        lines = ["op\tspan\tparent\tname\tstart_s\tend_s"]
        for i in range(len(self.name)):
            lines.append(
                f"{self.op[i]}\t{i}\t{self.parent[i]}\t{self.names[self.name[i]]}\t"
                f"{self.start[i] - t0:.9f}\t{self.end[i] - t0:.9f}"
            )
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (1..99) by the inclusive method; 0.0 when empty."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]
