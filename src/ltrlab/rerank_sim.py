"""Scoring-count and cost arithmetic for re-ranking strategies.

Compares pointwise re-ranking (every candidate scored once, one call) with
the LLM-style sliding window that moves a fixed-size window from the back of
the list toward the front, re-scoring the overlap at every stride. Costs are
modeled per scoring call plus a per-strategy resident memory figure.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from typing import Sequence

POINTWISE = "pointwise"
SLIDING_WINDOW = "sliding_window"


@dataclass(frozen=True)
class StrategySpec:
    """A re-ranking strategy: pointwise, or a back-to-front sliding window."""

    kind: str
    window: int = 20
    stride: int = 10

    def __post_init__(self):
        if self.kind not in (POINTWISE, SLIDING_WINDOW):
            raise ValueError(f"unknown strategy kind {self.kind!r}")
        if self.kind == SLIDING_WINDOW and not 1 <= self.stride <= self.window:
            raise ValueError(
                f"need 1 <= stride <= window, got stride={self.stride} window={self.window}"
            )


def pointwise() -> StrategySpec:
    return StrategySpec(POINTWISE)


def sliding_window(window: int = 20, stride: int = 10) -> StrategySpec:
    return StrategySpec(SLIDING_WINDOW, window, stride)


@dataclass(frozen=True)
class CostModel:
    """Seconds per scoring call and resident gigabytes for a strategy."""

    per_call_latency: float
    per_item_memory: float

    def __post_init__(self):
        for value in (self.per_call_latency, self.per_item_memory):
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"cost parameters must be finite and >= 0, got {value!r}")


def schedule(n: int, spec: StrategySpec) -> list[tuple[int, int]]:
    """Scoring windows as 1-based inclusive index ranges, in execution order.

    Pointwise is a single window over the whole list. The sliding window
    starts at the back, [n-w+1, n], and steps toward the front by the stride;
    the final window is clamped to [1, w]. Every index is covered at least
    once.
    """
    if n < 1:
        raise ValueError("depth n must be >= 1")
    if spec.kind == POINTWISE:
        return [(1, n)]
    if spec.window > n:
        raise ValueError(f"window {spec.window} larger than depth {n}")
    windows: list[tuple[int, int]] = []
    hi = n
    while True:
        lo = hi - spec.window + 1
        if lo <= 1:
            windows.append((1, spec.window))
            break
        windows.append((lo, hi))
        hi -= spec.stride
    return windows


def scoring_count(n: int, spec: StrategySpec) -> int:
    """Total number of document scorings the strategy performs at depth n."""
    return sum(hi - lo + 1 for lo, hi in schedule(n, spec))


@dataclass(frozen=True)
class CostEstimate:
    """Estimated cost of one strategy at one depth."""

    calls: int
    scorings: int
    latency_s: float
    memory_gb: float
    latency_ratio_vs_baseline: float | None = None
    memory_ratio_vs_baseline: float | None = None


def estimate(
    n: int,
    spec: StrategySpec,
    cost: CostModel,
    baseline: CostEstimate | None = None,
) -> CostEstimate:
    """Latency (calls x per-call latency) and resident memory at depth n.

    When a baseline estimate is given, the ratios of this strategy's latency
    and memory against the baseline's are included.
    """
    windows = schedule(n, spec)
    latency = len(windows) * cost.per_call_latency
    latency_ratio = memory_ratio = None
    if baseline is not None:
        if baseline.latency_s > 0:
            latency_ratio = latency / baseline.latency_s
        if baseline.memory_gb > 0:
            memory_ratio = cost.per_item_memory / baseline.memory_gb
    return CostEstimate(
        calls=len(windows),
        scorings=scoring_count(n, spec),
        latency_s=latency,
        memory_gb=cost.per_item_memory,
        latency_ratio_vs_baseline=latency_ratio,
        memory_ratio_vs_baseline=memory_ratio,
    )


def _ratio_text(ratio: float | None) -> str:
    return "-" if ratio is None else f"{ratio:.3f}"


def cost_report(rows: Sequence[tuple[str, CostEstimate]]) -> str:
    """Aligned text table over (name, estimate) rows."""
    width = max([len(name) for name, _ in rows] + [len("strategy")])
    header = (
        f"{'strategy':<{width}}  {'calls':>5}  {'scorings':>8}  "
        f"{'latency_s':>10}  {'memory_gb':>9}  {'lat_ratio':>9}  {'mem_ratio':>9}"
    )
    lines = [header]
    for name, est in rows:
        lat = _ratio_text(est.latency_ratio_vs_baseline)
        mem = _ratio_text(est.memory_ratio_vs_baseline)
        lines.append(
            f"{name:<{width}}  {est.calls:>5d}  {est.scorings:>8d}  "
            f"{est.latency_s:>10.3f}  {est.memory_gb:>9.2f}  {lat:>9}  {mem:>9}"
        )
    return "\n".join(lines) + "\n"


def cost_report_jsonl(rows: Sequence[tuple[str, CostEstimate]]) -> str:
    """Line-delimited machine form of the cost report: each row's strategy
    name, then the fields of its estimate in their order."""
    lines = [
        json.dumps({"strategy": name, **asdict(est)}, separators=(",", ":"))
        for name, est in rows
    ]
    return "\n".join(lines) + ("\n" if lines else "")
