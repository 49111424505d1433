"""Independent oracles used across the test suite.

These deliberately avoid the library's own code paths: finite differences
instead of analytic gradients, permutation enumeration instead of the nDCG
formula's sorted-ideal shortcut, and pair counting for rank correlation.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

FD_STEP = 1e-5
FD_REL_TOL = 1e-4
FD_ABS_FLOOR = 1e-6


def finite_difference_grad(fn, scores, step: float = FD_STEP) -> np.ndarray:
    """Central finite differences of a scalar function of a vector."""
    s = np.asarray(scores, dtype=np.float64)
    grad = np.zeros_like(s)
    for i in range(s.size):
        up, down = s.copy(), s.copy()
        up[i] += step
        down[i] -= step
        grad[i] = (fn(up) - fn(down)) / (2.0 * step)
    return grad


def grad_close(analytic, numeric, rel_tol: float = FD_REL_TOL, abs_floor: float = FD_ABS_FLOOR):
    """Elementwise |a - n| <= abs_floor + rel_tol * max(|a|, |n|)."""
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    return np.all(np.abs(a - n) <= abs_floor + rel_tol * np.maximum(np.abs(a), np.abs(n)))


def dcg_direct(grades, k: int) -> float:
    """DCG by direct formula evaluation, position by position."""
    return sum((2.0**g - 1.0) / math.log2(i + 2.0) for i, g in enumerate(grades[:k]))


def ndcg_bruteforce(ranked_grades, all_judged_grades, k: int) -> float:
    """nDCG with the ideal found by enumerating every permutation of judged docs."""
    if not all_judged_grades:
        return 0.0
    ideal = max(dcg_direct(perm, k) for perm in itertools.permutations(all_judged_grades))
    if ideal == 0.0:
        return 0.0
    return dcg_direct(ranked_grades, k) / ideal


def kendall_tau(order_a, order_b) -> float:
    """Rank correlation by explicit pair counting over two orderings."""
    pos_b = {doc: i for i, doc in enumerate(order_b)}
    items = list(order_a)
    concordant = discordant = 0
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            diff = pos_b[items[i]] - pos_b[items[j]]
            if diff < 0:
                concordant += 1
            elif diff > 0:
                discordant += 1
    total = len(items) * (len(items) - 1) // 2
    return (concordant - discordant) / total if total else 1.0


def scored_list_checks(query, entries) -> None:
    """ScoredList's per-doc entry checks, one entry at a time."""
    from ltrlab.core import validate_id

    seen = set()
    for doc, score in entries:
        validate_id(doc, "doc id")
        if doc in seen:
            raise ValueError(f"duplicate doc id {doc!r} in list for query {query!r}")
        seen.add(doc)
        if not np.isfinite(score):
            raise ValueError(f"non-finite score for doc {doc!r} in query {query!r}")


def teacher_order(world, query, docs):
    """The synthetic teacher by a sort of (key, doc id) tuples, doc by doc."""
    qi = world.query_ids.index(query)
    if len(set(docs)) != len(docs):
        raise ValueError(f"teacher got duplicate candidates for query {query!r}")
    cfg = world.config
    keyed = []
    for pos, doc in enumerate(docs):
        j = world._dindex(qi, doc)
        sigma = cfg.teacher_noise + cfg.teacher_noise_rank_growth * pos
        keyed.append((-(world._rel[qi, j] + sigma * world._teacher_u[qi, j]), doc))
    keyed.sort()
    return tuple(doc for _, doc in keyed)


def outcome(fn):
    """None when fn() returns, else the type and message of what it raised."""
    try:
        fn()
    except Exception as exc:  # the test compares whatever is raised
        return type(exc), str(exc)
    return None
