"""Ranking evaluation: nDCG@k, averaging, and paired significance testing.

nDCG uses the trec_eval-style gain 2^grade - 1 and discount log2(rank + 1).
Per-collection results are micro-averaged over queries; across collections a
geometric macro-average is used. Comparisons against a baseline use paired
two-sided t-tests with Holm-Bonferroni correction of the decisions.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .core import DocId, Qrels, QueryId, ScoredList

logger = logging.getLogger(__name__)

GEOMEAN_FLOOR = 1e-4


def ndcg_at_k(ranking: ScoredList, qrels: Qrels, k: int = 10) -> float:
    """Normalized DCG at cutoff k for one query.

    Unjudged docs count as grade 0. A query with no relevant doc anywhere in
    the qrels scores 0 (its ideal DCG is 0).
    """
    if k < 1:
        raise ValueError("cutoff k must be >= 1")
    judged = qrels.judged(ranking.query)
    ideal_grades = sorted(judged.values(), reverse=True)[:k]
    idcg = sum((2.0**g - 1.0) / math.log2(i + 2.0) for i, g in enumerate(ideal_grades))
    if idcg == 0.0:
        return 0.0
    dcg = sum(
        (2.0 ** judged.get(doc, 0) - 1.0) / math.log2(i + 2.0)
        for i, (doc, _) in enumerate(ranking.entries[:k])
    )
    return dcg / idcg


def _dcg_rows(grades: np.ndarray, k: int) -> np.ndarray:
    """DCG@k of each row of grades, term by term as `ndcg_at_k` sums it."""
    top = grades[:, :k]
    values, index = np.unique(top, return_inverse=True)
    gains = np.array([2.0 ** int(g) - 1.0 for g in values])[index.reshape(top.shape)]
    discounts = np.array([math.log2(i + 2.0) for i in range(top.shape[1])])
    terms = gains / discounts
    dcg = np.zeros(len(grades))
    for column in terms.T:  # left to right, so every sum rounds as the scalar one
        dcg += column
    return dcg


def ndcg_rows(ranked_grades: np.ndarray, ideal_grades: np.ndarray, k: int = 10) -> np.ndarray:
    """nDCG@k of many queries at once; row i equals `ndcg_at_k` bit for bit.

    Row i of `ranked_grades` holds query i's grades in ranked order and row i
    of `ideal_grades` all its judged grades sorted best first; both are
    zero-padded on the right.
    """
    if k < 1:
        raise ValueError("cutoff k must be >= 1")
    dcg = _dcg_rows(ranked_grades, k)
    idcg = _dcg_rows(ideal_grades, k)
    return np.divide(dcg, idcg, out=np.zeros_like(dcg), where=idcg != 0.0)


def grade_rows(
    qrels: Qrels, queries: Sequence[QueryId], ranked_docs: Sequence[Sequence[DocId]]
) -> tuple[np.ndarray, np.ndarray]:
    """The inputs of `ndcg_rows` for lists of docs in ranked order.

    Row i of the first matrix holds the grades of `ranked_docs[i]` and row i
    of the second all judged grades of `queries[i]`, best first. Both are
    zero-padded on the right and at least one column wide.
    """

    def padded(rows: list[list[int]]) -> np.ndarray:
        out = np.zeros((len(rows), max([1, *map(len, rows)])), dtype=np.int64)
        for row, values in zip(out, rows):
            row[: len(values)] = values
        return out

    judged = [qrels.judged(query) for query in queries]
    return (
        padded([[grades.get(doc, 0) for doc in docs] for grades, docs in zip(judged, ranked_docs)]),
        padded([sorted(grades.values(), reverse=True) for grades in judged]),
    )


def micro_average(
    per_collection: Mapping[str, Mapping[str, float] | Sequence[float]],
) -> dict[str, float]:
    """Arithmetic mean of per-query scores within each collection."""
    out: dict[str, float] = {}
    for name, scores in per_collection.items():
        values = list(scores.values()) if isinstance(scores, Mapping) else list(scores)
        if not values:
            raise ValueError(f"collection {name!r} has no queries")
        out[name] = float(np.mean(values))
    return out


def geometric_mean(values: Iterable[float]) -> float:
    """exp(mean(log(values))), flooring non-positive inputs at 1e-4."""
    vals = list(values)
    if not vals:
        raise ValueError("geometric_mean requires at least one value")
    floored = []
    for v in vals:
        if v <= 0.0:
            logger.warning("geometric_mean: flooring non-positive value %g at %g", v, GEOMEAN_FLOOR)
            v = GEOMEAN_FLOOR
        floored.append(v)
    return float(np.exp(np.mean(np.log(floored))))


def paired_t_test(scores_a: Sequence[float], scores_b: Sequence[float]) -> tuple[float, float]:
    """Two-sided paired t-test; returns (t statistic, p value).

    Zero-variance differences use the convention p = 1 when the mean
    difference is 0, else p = 0 with a warning.
    """
    a = np.asarray(scores_a, dtype=np.float64)
    b = np.asarray(scores_b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError(f"paired samples must be 1-d and equal length, got {a.shape} vs {b.shape}")
    n = a.size
    if n < 2:
        raise ValueError("paired t-test requires at least 2 pairs")
    diff = a - b
    mean = float(diff.mean())
    var = float(diff.var(ddof=1))
    if var == 0.0:
        if mean == 0.0:
            return 0.0, 1.0
        logger.warning("paired_t_test: zero variance with nonzero mean difference %g", mean)
        return math.copysign(math.inf, mean), 0.0
    t = mean / math.sqrt(var / n)
    return t, _two_sided_p(t, n - 1)


def _two_sided_p(t: float, df: int) -> float:
    """P(|T| >= |t|) for Student's t with df degrees of freedom.

    That is the regularized incomplete beta I_x(df/2, 1/2) at
    x = df / (df + t^2), evaluated in logs and by its continued fraction.
    """
    if math.isnan(t):
        return math.nan
    t2 = t * t
    u = t2 / df
    if u == 0.0:
        return 1.0
    a, b = df / 2.0, 0.5
    x, y = df / (df + t2), t2 / (df + t2)  # y is 1 - x, without cancellation
    if x == 0.0:
        return 0.0
    # log of x^a (1 - x)^b / B(a, b)
    log_front = (
        -a * math.log1p(u) + b * (math.log(u) - math.log1p(u))
        + _log_gamma_half_step(a) - math.lgamma(b)
    )
    # The fraction converges fast below the mean of the beta distribution;
    # above it, I_x(a, b) = 1 - I_y(b, a).
    if x < (a + 1.0) / (a + b + 2.0):
        return math.exp(log_front + math.log(_beta_fraction(a, b, x) / a))
    return 1.0 - math.exp(log_front + math.log(_beta_fraction(b, a, y) / b))


def _log_gamma_half_step(a: float) -> float:
    """log Gamma(a + 1/2) - log Gamma(a).

    For large a the two log-gammas are large and nearly equal, so their
    difference is taken from Stirling's series instead, term by term.
    """
    if a < 50.0:
        return math.lgamma(a + 0.5) - math.lgamma(a)

    def series(z: float) -> float:  # log Gamma(z) - ((z - 1/2) log z - z + log(2 pi) / 2)
        return 1 / (12 * z) - 1 / (360 * z**3) + 1 / (1260 * z**5) - 1 / (1680 * z**7)

    return (a - 0.5) * math.log1p(0.5 / a) + 0.5 * math.log(a + 0.5) - 0.5 + (
        series(a + 0.5) - series(a)
    )


def _beta_fraction(a: float, b: float, x: float) -> float:
    """The continued fraction of I_x(a, b), by the modified Lentz method."""
    tiny = 1e-300

    def clamp(v: float) -> float:
        return v if abs(v) >= tiny else tiny

    c, d = 1.0, 1.0 / clamp(1.0 - (a + b) * x / (a + 1.0))
    h = d
    for m in range(1, 100_000):
        even = m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m))
        odd = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0))
        for coefficient in (even, odd):
            d = 1.0 / clamp(1.0 + coefficient * d)
            c = clamp(1.0 + coefficient / c)
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            return h
    raise ArithmeticError(f"incomplete beta fraction did not converge at a={a}, b={b}, x={x}")


def holm_bonferroni(p_values: Sequence[float], alpha: float = 0.05) -> list[bool]:
    """Step-down Holm correction; True means the hypothesis is rejected.

    The i-th smallest p is rejected iff every p_(j) with j <= i satisfies
    p_(j) <= alpha / (m - j + 1); the procedure stops at the first failure.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    ps = [float(p) for p in p_values]
    for p in ps:
        if not 0.0 <= p <= 1.0 or math.isnan(p):
            raise ValueError(f"p value {p} outside [0, 1]")
    m = len(ps)
    decisions = [False] * m
    order = sorted(range(m), key=lambda i: ps[i])
    for j, idx in enumerate(order):
        if ps[idx] <= alpha / (m - j):
            decisions[idx] = True
        else:
            break
    return decisions


@dataclass(frozen=True)
class Comparison:
    """One system compared against the baseline over paired queries."""

    name: str
    t_stat: float
    p_value: float
    reject: bool
    num_queries: int


@dataclass(frozen=True)
class SignificanceReport:
    """Holm-corrected paired t-tests of systems against a baseline."""

    baseline: str
    alpha: float
    comparisons: tuple[Comparison, ...]

    def to_text(self) -> str:
        width = max([len(c.name) for c in self.comparisons] + [len("system")])
        lines = [
            f"baseline: {self.baseline}  alpha: {self.alpha}",
            f"{'system':<{width}}  {'queries':>7}  {'t':>9}  {'p':>9}  decision",
        ]
        for c in self.comparisons:
            verdict = "reject" if c.reject else "retain"
            lines.append(
                f"{c.name:<{width}}  {c.num_queries:>7d}  {c.t_stat:>9.4f}  {c.p_value:>9.4f}  {verdict}"
            )
        return "\n".join(lines) + "\n"

    def to_jsonl(self) -> str:
        lines = []
        for c in self.comparisons:
            lines.append(
                json.dumps(
                    {
                        "baseline": self.baseline,
                        "system": c.name,
                        "num_queries": c.num_queries,
                        "t_stat": c.t_stat,
                        "p_value": c.p_value,
                        "alpha": self.alpha,
                        "reject": c.reject,
                    },
                    separators=(",", ":"),
                )
            )
        return "\n".join(lines) + ("\n" if lines else "")


def significance_report(
    per_system_scores: Mapping[str, Mapping[str, float]],
    baseline: str,
    alpha: float = 0.05,
) -> SignificanceReport:
    """Pair every system against the baseline on their shared queries.

    Systems are compared on the intersection of their query sets with the
    baseline's; the Holm family is the set of all non-baseline systems.
    """
    if baseline not in per_system_scores:
        raise ValueError(f"baseline {baseline!r} not among systems")
    base_scores = per_system_scores[baseline]
    names = sorted(n for n in per_system_scores if n != baseline)
    stats: list[tuple[str, float, float, int]] = []
    for name in names:
        scores = per_system_scores[name]
        shared = sorted(set(base_scores) & set(scores))
        if len(shared) < 2:
            raise ValueError(f"system {name!r} shares fewer than 2 queries with the baseline")
        t, p = paired_t_test([scores[q] for q in shared], [base_scores[q] for q in shared])
        stats.append((name, t, p, len(shared)))
    decisions = holm_bonferroni([p for _, _, p, _ in stats], alpha) if stats else []
    comparisons = tuple(
        Comparison(name, t, p, reject, n)
        for (name, t, p, n), reject in zip(stats, decisions)
    )
    return SignificanceReport(baseline, alpha, comparisons)


def per_query_scores_text(scores: Mapping[str, float], metric: str) -> str:
    """Tab-separated per-query metric lines: qid, metric, value."""
    lines = [f"{qid}\t{metric}\t{repr(float(scores[qid]))}" for qid in sorted(scores)]
    return "\n".join(lines) + ("\n" if lines else "")
