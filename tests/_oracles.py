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


def parse_run_oracle(source):
    """TREC run parsing one line at a time, with a check per field."""
    from ltrlab.core import DuplicateEntryError, ParseError, ScoredList, canonical_order

    lines = source.splitlines() if isinstance(source, str) else source
    per_query = {}
    seen = set()
    for lineno, line in enumerate(lines, start=1):
        fields = line.rstrip("\n").split()
        if not fields:
            continue
        if len(fields) != 6:
            raise ParseError(f"expected 6 fields, got {len(fields)}", lineno)
        qid, literal, doc, rank, score_text, _tag = fields
        if literal != "Q0":
            raise ParseError(f"second field must be 'Q0', got {literal!r}", lineno)
        try:
            int(rank)
        except ValueError:
            raise ParseError(f"rank field {rank!r} is not an integer", lineno) from None
        try:
            score = float(score_text)
        except ValueError:
            raise ParseError(f"score field {score_text!r} is not a number", lineno) from None
        if not np.isfinite(score):
            raise ParseError(f"non-finite score {score_text!r}", lineno)
        if (qid, doc) in seen:
            raise DuplicateEntryError(f"duplicate entry for query {qid!r} doc {doc!r}", lineno)
        seen.add((qid, doc))
        per_query.setdefault(qid, []).append((doc, score))
    return {qid: ScoredList(qid, canonical_order(entries)) for qid, entries in per_query.items()}


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


def rerank(model, pool):
    """One (query, docs, features) pool scored on its own and sorted into
    canonical order, as `PoolBlock.rank` orders each row of a block."""
    from ltrlab import scorer
    from ltrlab.core import ScoredList, canonical_order

    query, docs, features = pool
    scores = scorer.score_batch(model, np.asarray(features, dtype=np.float64))
    return ScoredList(query, canonical_order(zip(docs, scores)))


def outcome(fn):
    """None when fn() returns, else the type and message of what it raised."""
    try:
        fn()
    except Exception as exc:  # the test compares whatever is raised
        return type(exc), str(exc)
    return None


# The per-list losses and scorer passes that the batched code replaced, kept
# as they were so the batched code can be compared with them bit for bit.


def infonce_oracle(scores, positive_index: int):
    """InfoNCE of one list: (value, grad)."""
    s = np.asarray(scores, dtype=np.float64)
    z = s - s.max()
    expz = np.exp(z)
    total = expz.sum()
    value = max(float(np.log(total) - z[positive_index]), 0.0)
    grad = expz / total
    grad[positive_index] -= 1.0
    return value, grad


def ranknet_oracle(scores):
    """RankNet of one teacher-ordered list: (value, grad)."""
    from scipy.special import expit

    s = np.asarray(scores, dtype=np.float64)
    n = s.size
    if n == 1:
        return 0.0, np.zeros(1)
    diff = s[None, :] - s[:, None]
    upper = np.triu_indices(n, k=1)
    value = float(np.logaddexp(0.0, diff[upper]).sum())
    pair = np.triu(expit(diff), k=1)
    return value, pair.sum(axis=0) - pair.sum(axis=1)


def adr_mse_oracle(scores, alpha: float = 1.0):
    """Discounted rank MSE of one teacher-ordered list: (value, grad)."""
    from scipy.special import expit

    s = np.asarray(scores, dtype=np.float64)
    n = s.size
    mat = expit(alpha * (s[None, :] - s[:, None]))
    pi = mat.sum(axis=1) + 0.5
    targets = np.arange(1, n + 1, dtype=np.float64)
    weights = 1.0 / np.log2(targets + 1.0)
    gaps = targets - pi
    value = float(np.sum(weights * gaps * gaps) / n)
    dpi = (2.0 / n) * weights * (pi - targets)
    bmat = mat * (1.0 - mat)
    np.fill_diagonal(bmat, 0.0)
    return value, alpha * (bmat.T @ dpi - dpi * bmat.sum(axis=1))


def score_oracle(model, x):
    """Scores of one (n, F) list."""
    p, f, h = model.params, model.feature_dim, model.hidden_width
    if model.architecture == "linear":
        return x @ p[:f] + float(p[f])
    w1, b1, w2 = p[: f * h].reshape(h, f), p[f * h : f * h + h], p[f * h + h : f * h + 2 * h]
    return np.tanh(x @ w1.T + b1) @ w2 + float(p[-1])


def grad_oracle(model, x, u):
    """Gradient of sum_i u_i * score(x_i) for one (n, F) list."""
    p, f, h = model.params, model.feature_dim, model.hidden_width
    if model.architecture == "linear":
        return np.concatenate([x.T @ u, [u.sum()]])
    w1, b1, w2 = p[: f * h].reshape(h, f), p[f * h : f * h + h], p[f * h + h : f * h + 2 * h]
    hidden = np.tanh(x @ w1.T + b1)
    delta = (u[:, None] * w2[None, :]) * (1.0 - hidden * hidden)
    return np.concatenate([(delta.T @ x).ravel(), delta.sum(axis=0), hidden.T @ u, [u.sum()]])


def reference_step(model, features, batch, loss):
    """One training step's mean loss and mean gradient, a list at a time.

    `loss(scores)` returns (value, grad) for one list. Values and gradients
    are added in batch order, starting from zero.
    """
    total = 0.0
    grad = np.zeros(model.num_params)
    for i in batch:
        value, upstream = loss(score_oracle(model, features[i]))
        total += value
        grad += grad_oracle(model, features[i], upstream)
    return total / len(batch), grad / len(batch)


# The string-keyed world paths that the index runs replaced: lists of doc
# ids in, ids decoded back to pool indices one at a time.


def first_stage_run_oracle(world, retriever):
    """A world's first-stage run as checked ScoredLists, ordered by `canonical_order`."""
    from ltrlab.core import ScoredList, canonical_order

    scores = world._fs_scores[retriever]
    return {
        qid: ScoredList(
            qid,
            canonical_order(
                (world._doc_id(qi, j), float(scores[qi, j])) for j in range(scores.shape[1])
            ),
        )
        for qi, qid in enumerate(world.query_ids)
    }


def restrict_run_oracle(run, queries):
    return {q: run[q] for q in queries if q in run}


def features_oracle(world, query, docs):
    """A query's (len(docs), F) features, looked up one doc id at a time."""
    qi = world.query_ids.index(query)
    rows = [world._features[qi, world._dindex(qi, doc)] for doc in docs]
    return np.array(rows).reshape(len(docs), world.config.feature_dim)


def teacher_dataset_oracle(world, run, depth):
    """Each query's first-stage top `depth` of a string-keyed run, re-ranked
    by `teacher_order`: one (query, docs, features, first-stage ranks,
    source depth) tuple per query, in query-id order."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    dataset = []
    for qid in sorted(run):
        ranking = run[qid]
        if len(ranking) < depth:
            raise ValueError(
                f"query {qid!r} has run depth {len(ranking)} < requested depth {depth}"
            )
        top_docs = ranking.docs[:depth]
        ranked = teacher_order(world, qid, top_docs)
        fs_rank = dict(zip(top_docs, range(1, depth + 1)))
        features = features_oracle(world, qid, ranked)
        if not np.isfinite(features).all():
            raise ValueError(f"record for query {qid!r} has non-finite features")
        dataset.append((qid, ranked, features, tuple(fs_rank[d] for d in ranked), depth))
    return dataset


def subsample_depth_oracle(records, depth):
    """The record-at-a-time depth filter over (query, docs, features,
    first-stage ranks, source depth) tuples."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    out = []
    for query, docs, features, ranks, source_depth in records:
        if depth >= source_depth:
            raise ValueError(
                f"subsample depth {depth} must be smaller than source depth "
                f"{source_depth} (query {query!r})"
            )
        keep = [i for i, r in enumerate(ranks) if r <= depth]
        if not keep:
            raise ValueError(f"record for query {query!r} has no docs")
        kept = (tuple(docs[i] for i in keep), np.asarray(features)[keep])
        out.append((query, *kept, tuple(ranks[i] for i in keep), depth))
    return out


def hard_negative_groups_oracle(run, qrels, cfg):
    """Hard-negative groups drawn from (doc, score) lists: (query, positive,
    negatives) tuples and the (no positive, shallow run, small pool) skip counts."""
    from ltrlab.distill_data import _query_rng

    groups, skipped = [], [0, 0, 0]
    for qid in sorted(run):
        ranking = run[qid]
        positives = qrels.positives(qid)
        if not positives:
            skipped[0] += 1
            continue
        if len(ranking) < cfg.pool_depth:
            skipped[1] += 1
            continue
        exclude = set(positives)
        pool = [doc for doc, _ in ranking.entries[: cfg.pool_depth] if doc not in exclude]
        if len(pool) < cfg.num_negatives:
            skipped[2] += 1
            continue
        chosen = _query_rng(cfg.seed, qid).choice(len(pool), size=cfg.num_negatives, replace=False)
        groups.append((qid, positives[0], tuple(pool[i] for i in chosen)))
    return groups, tuple(skipped)


def rerank_pools_oracle(world, run, queries, depth):
    """Top-`depth` pools of a string-keyed run, features looked up doc by doc."""
    pools = []
    for qid in queries:
        docs = run[qid].docs[:depth]
        pools.append((qid, docs, features_oracle(world, qid, docs)))
    return pools


def stack_records(records, dim=0):
    """(query, docs, features, first-stage ranks, source depth) tuples as one
    DistillDataset; `dim` is the feature width of an empty one."""
    from ltrlab.core import DistillDataset

    records = list(records)
    lengths = [len(docs) for _, docs, _, _, _ in records]
    features = [np.asarray(f, dtype=np.float64).reshape(len(d), -1) for _, d, f, _, _ in records]
    return DistillDataset(
        tuple(query for query, _, _, _, _ in records),
        np.cumsum([0] + lengths),
        [doc for _, docs, _, _, _ in records for doc in docs],
        np.concatenate(features) if records else np.zeros((0, dim)),
        np.array([r for _, _, _, ranks, _ in records for r in ranks], dtype=np.int64),
        np.array([depth for _, _, _, _, depth in records], dtype=np.int64),
    )


def record_values(records):
    """DistillRecords, or (query, docs, features, first-stage ranks, source
    depth) tuples, as plain Python values that compare with ==."""
    return [
        (query, tuple(docs), np.asarray(features).tolist(), [int(r) for r in ranks], int(depth))
        for query, docs, features, ranks, depth in (
            rec if isinstance(rec, tuple)
            else (rec.query, rec.docs, rec.features, rec.first_stage_ranks, rec.source_depth)
            for rec in records
        )
    ]


def block_lists(block):
    """Each list of a ListBlock as (query, docs, features)."""
    bounds = block.offsets.tolist()
    return [
        (query, tuple(block.docs[lo:hi]), block.features[lo:hi])
        for query, lo, hi in zip(block.queries, bounds, bounds[1:])
    ]
