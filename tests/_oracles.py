"""Independent oracles used across the test suite.

These deliberately avoid the library's own code paths: finite differences
instead of analytic gradients, permutation enumeration instead of the nDCG
formula's sorted-ideal shortcut, and pair counting for rank correlation.
"""

from __future__ import annotations

import itertools
import math
import re
import weakref

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


def scored_lists(rows):
    """(query, docs, scores) rows, such as `WorldRun.ranked()` yields, as a
    dict of checked ScoredLists keyed by query, in row order."""
    from ltrlab.core import ScoredList

    return {query: ScoredList(query, tuple(zip(docs, scores))) for query, docs, scores in rows}


def ranked_rows(lists):
    """A mapping of query -> ScoredList as the (query, docs, scores) rows that
    `core.write_run` takes, in query-id order."""
    return [(q, lists[q].docs, [score for _, score in lists[q].entries]) for q in sorted(lists)]


# The number grammar of the text formats, in ASCII only: an integer, and a
# decimal with an optional sign, point and exponent.
INTEGER = re.compile(r"[+-]?[0-9]+")
DECIMAL = re.compile(r"[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?")
NON_FINITE = re.compile(r"[+-]?(inf|infinity|nan)", re.IGNORECASE)


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
            if not INTEGER.fullmatch(rank):
                raise ValueError(rank)
            int(rank)  # Python's int refuses more than 4300 digits
        except ValueError:
            raise ParseError(f"rank field {rank!r} is not an integer", lineno) from None
        if NON_FINITE.fullmatch(score_text):
            raise ParseError(f"non-finite score {score_text!r}", lineno)
        if not DECIMAL.fullmatch(score_text):
            raise ParseError(f"score field {score_text!r} is not a number", lineno)
        score = float(score_text)
        if not np.isfinite(score):  # a decimal past the largest float
            raise ParseError(f"non-finite score {score_text!r}", lineno)
        if (qid, doc) in seen:
            raise DuplicateEntryError(f"duplicate entry for query {qid!r} doc {doc!r}", lineno)
        seen.add((qid, doc))
        per_query.setdefault(qid, []).append((doc, score))
    return {qid: ScoredList(qid, canonical_order(entries)) for qid, entries in per_query.items()}


def write_run_oracle(lists, tag):
    """TREC run writing one f-string per entry."""
    from ltrlab.core import validate_id

    validate_id(tag, "run tag")
    for qid, docs, scores in lists:
        yield "".join(
            [
                f"{qid} Q0 {doc} {rank} {score:.6f} {tag}\n"
                for rank, (doc, score) in enumerate(zip(docs, scores), start=1)
            ]
        )


# Each world's query ids -> row index, built on a world's first lookup.
_QUERY_ROWS = weakref.WeakKeyDictionary()


def query_row(world, query):
    """The row of `query` in `world`; ValueError if the world lacks it."""
    rows = _QUERY_ROWS.get(world)
    if rows is None:
        rows = _QUERY_ROWS[world] = {qid: qi for qi, qid in enumerate(world.query_ids)}
    if query not in rows:
        raise ValueError(f"query {query!r} is not in the world")
    return rows[query]


def teacher_order(world, query, docs):
    """The synthetic teacher by a sort of (key, doc id) tuples, doc by doc."""
    qi = query_row(world, query)
    if len(set(docs)) != len(docs):
        raise ValueError(f"teacher got duplicate candidates for query {query!r}")
    cfg = world.config
    keyed = []
    for pos, doc in enumerate(docs):
        j = doc_index_oracle(world, qi, doc)
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


def softplus_sigmoid_reference(d):
    """log(1 + exp(d)) and 1 / (1 + exp(-d)) elementwise, by numpy's
    logaddexp and scipy's expit: the reference math for the losses'
    per-pair kernel, which computes both from one shared exp."""
    from scipy.special import expit

    return np.logaddexp(0.0, d), expit(d)


# The block kernels of the losses as they were before they wrote each pair
# pass into the call's own arrays: a fresh array per operation, and the
# sigmoid's numerator picked by np.where. The in-place kernels must equal
# them byte for byte.


def pair_sigmoid_oracle(d):
    """sigmoid(d) elementwise, and the e = exp(-|d|) it was computed from."""
    e = np.exp(-np.abs(d))
    return np.where(d >= 0.0, 1.0, e) / (1.0 + e), e


def pair_softplus_sigmoid_oracle(d):
    """softplus(d) = log(1 + exp(d)) and sigmoid(d) elementwise, sharing one exp."""
    sigmoid, e = pair_sigmoid_oracle(d)
    return np.maximum(d, 0.0) + np.log1p(e), sigmoid


def ranknet_block_oracle(scores):
    """RankNet of an (n,) list or a (B, n) block, one fresh array per operation."""
    from ltrlab.losses import _as_rows, _output, _upper_pairs

    s = _as_rows(scores, "ranknet")
    rows, n = s.shape
    upper_i, upper_j = _upper_pairs(n)
    diff = np.take(s, upper_j, axis=1) - np.take(s, upper_i, axis=1)
    softplus, sigmoid = pair_softplus_sigmoid_oracle(diff)
    values = np.add.reduce(softplus, axis=1)
    pair = np.zeros((rows, n * n))
    pair[:, upper_i * n + upper_j] = sigmoid
    pair = pair.reshape(rows, n, n)
    return _output(scores, values, pair.sum(axis=1) - pair.sum(axis=2))


def smooth_rank_block_oracle(scores, alpha: float = 1.0):
    """Smooth ranks of an (n,) list or a (B, n) block."""
    from ltrlab.losses import _as_rows

    s = _as_rows(scores, "smooth_rank")
    mat = pair_sigmoid_oracle(alpha * (s[:, None, :] - s[:, :, None]))[0]
    return (mat.sum(axis=2) + 0.5).reshape(np.shape(scores))


def adr_mse_block_oracle(scores, alpha: float = 1.0):
    """ADR-MSE of an (n,) list or a (B, n) block, one fresh array per operation."""
    from ltrlab.losses import _as_rows, _output

    s = _as_rows(scores, "adr_mse")
    n = s.shape[1]
    mat = pair_sigmoid_oracle(alpha * (s[:, None, :] - s[:, :, None]))[0]
    pi = mat.sum(axis=2) + 0.5
    targets = np.arange(1, n + 1, dtype=np.float64)
    weights = 1.0 / np.log2(targets + 1.0)
    gaps = targets - pi
    values = np.add.reduce(weights * gaps * gaps, axis=1) / n
    dpi = (2.0 / n) * weights * (pi - targets)
    bmat = mat * (1.0 - mat)
    bmat.reshape(len(s), n * n)[:, :: n + 1] = 0.0
    back = np.matmul(bmat.swapaxes(1, 2), dpi[:, :, None])[:, :, 0]
    return _output(scores, values, alpha * (back - dpi * bmat.sum(axis=2)))


# The per-list losses and scorer passes that the batched code replaced, kept
# as they were so the batched code can be compared with them bit for bit.
# RankNet and ADR-MSE take their pairwise softplus and sigmoid from the
# block kernels above, which are checked against the reference math.


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
    s = np.asarray(scores, dtype=np.float64)
    n = s.size
    if n == 1:
        return 0.0, np.zeros(1)
    diff = s[None, :] - s[:, None]
    upper = np.triu_indices(n, k=1)
    softplus, sigmoid = pair_softplus_sigmoid_oracle(diff)
    value = float(softplus[upper].sum())
    pair = np.triu(sigmoid, k=1)
    return value, pair.sum(axis=0) - pair.sum(axis=1)


def adr_mse_oracle(scores, alpha: float = 1.0):
    """Discounted rank MSE of one teacher-ordered list: (value, grad)."""
    s = np.asarray(scores, dtype=np.float64)
    n = s.size
    mat = pair_sigmoid_oracle(alpha * (s[None, :] - s[:, None]))[0]
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


def row_sums(rows):
    """One 1-d sum per row of a (B, m) block: the loop that the losses ran
    before they summed a block's rows with one axis-1 reduce."""
    return np.array([np.add.reduce(row) for row in rows])


def add_in_order(start, rows):
    """`start` plus each row, one `+=` at a time: the loop that
    `scorer.grad_batch` ran before it added a block's per-list gradients
    with one axis-0 reduce."""
    total = np.array(start, dtype=np.float64)
    for row in rows:
        total += row
    return total


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
                (doc, float(scores[qi, j]))
                for j, doc in enumerate(world._doc_ids(qi, range(scores.shape[1])))
            ),
        )
        for qi, qid in enumerate(world.query_ids)
    }


def restrict_run_oracle(run, queries):
    return {q: run[q] for q in queries if q in run}


def restrict_run(run, queries):
    """The WorldRun of just these queries of `run` (each once), in query-id order."""
    from ltrlab.distill_data import WorldRun

    rows = np.unique(np.array([run._row[q] for q in queries], dtype=np.intp))
    return WorldRun(run.world, run._scores, run.qindex[rows], run.order[rows])


def teacher_lists(run, depth, cut=None):
    """Each row's teacher list of `run` at `depth`, cut to its first-stage top
    `cut` if given, as the (n, F) features that `train` and `ablate` gather."""
    from ltrlab.distill_data import first_stage_top, teacher_ranking

    ranked, ranks = teacher_ranking(run, depth)
    if cut is not None:
        ranked = ranked[first_stage_top(ranks, cut)].reshape(len(run), cut)
    return list(run.features(ranked))


def restrict_qrels(qrels, queries):
    """The judgments of just these queries."""
    from ltrlab.core import Qrels

    keep = set(queries)
    return Qrels({q: qrels.judged(q) for q in qrels.query_ids() if q in keep})


def doc_index_oracle(world, qi, doc):
    """Pool index of one of query qi's docs, by a search of its pool's ids."""
    pool = world._doc_ids(qi, range(world.config.docs_per_query))
    if doc not in pool:
        raise ValueError(f"doc {doc!r} is not in the pool of {world.query_ids[qi]!r}")
    return pool.index(doc)


def features_oracle(world, query, docs):
    """A query's (len(docs), F) features, looked up one doc id at a time."""
    qi = query_row(world, query)
    rows = [world._features[qi, doc_index_oracle(world, qi, doc)] for doc in docs]
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
        dataset.append((qid, ranked, features, tuple(fs_rank[d] for d in ranked), depth))
    return dataset


def subsample_depth_oracle(records, depth):
    """The record-at-a-time depth filter over (query, docs, first-stage
    ranks, source depth) tuples."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    out = []
    for query, docs, ranks, source_depth in records:
        if depth >= source_depth:
            raise ValueError(
                f"subsample depth {depth} must be smaller than source depth "
                f"{source_depth} (query {query!r})"
            )
        keep = [i for i, r in enumerate(ranks) if r <= depth]
        if not keep:
            raise ValueError(f"record for query {query!r} has no docs")
        out.append((query, tuple(docs[i] for i in keep), tuple(ranks[i] for i in keep), depth))
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


def assert_groups_equal(world, block, groups):
    """Row i of a (G, n, F) block of hard-negative groups holds the features
    of the oracle's group i, (query, positive, negatives), looked up doc by
    doc. Each query's pool features are first shown pairwise distinct, so
    that equal features pin the docs."""
    index = {query: qi for qi, query in enumerate(world.query_ids)}
    for query in {query for query, _, _ in groups}:
        pool = world._features[index[query]]
        rows = pool[np.lexsort(pool.T)]  # sorted, so equal rows would be neighbours
        assert (rows[1:] != rows[:-1]).any(axis=1).all(), f"{query!r} has tied pool features"
    assert isinstance(block, np.ndarray) and len(block) == len(groups)
    assert block.dtype == np.float64 and block.flags.c_contiguous
    assert block.ndim == 3 and block.shape[2] == world.config.feature_dim
    for row, (query, positive, negatives) in zip(block, groups):
        assert np.array_equal(row, features_oracle(world, query, (positive, *negatives)))


def rerank_pools_oracle(world, run, queries, depth):
    """Top-`depth` pools of a string-keyed run, features looked up doc by doc."""
    pools = []
    for qid in queries:
        docs = run[qid].docs[:depth]
        pools.append((qid, docs, features_oracle(world, qid, docs)))
    return pools


def block_docs(block):
    """The doc ids of each row of a PoolBlock, made from its pool indices in
    the world's id format: the query id, `_p` and the pool index, zero-padded
    to the width of the pool's last index."""
    width = len(str(block.pool - 1))
    rows = zip(block.queries, block.index.tolist())
    return [[f"{q}_p{j:0{width}d}" for j in row] for q, row in rows]


def judged_block(queries, pool, index, features, qrels):
    """A PoolBlock of pool indices judged by `qrels` the string way: its
    grades are `grade_rows` of the ids that `block_docs` makes."""
    from ltrlab.evaluation import grade_rows
    from ltrlab.trainer import PoolBlock

    unjudged = PoolBlock(tuple(queries), pool, index, features, None, None)
    grades, ideal = grade_rows(qrels, unjudged.queries, block_docs(unjudged))
    return PoolBlock(unjudged.queries, pool, index, features, grades, ideal)


def range_pools_oracle(config, retriever, queries, depth):
    """`pipeline.range_pools` as it was built before it wrote in place: each
    world slice's `build_rerank_pools` block, concatenated and judged by the
    slices' qrels through their doc ids."""
    from ltrlab.core import Qrels
    from ltrlab.distill_data import map_ranges
    from ltrlab.pipeline import build_rerank_pools

    def part(world):
        run = world.first_stage_run(retriever)
        return build_rerank_pools(world, run, world.query_ids, depth), world.qrels()

    parts = list(map_ranges(part, config, queries))
    if not parts:
        empty = (np.empty((0, 0), np.intp), np.empty((0, 0, config.feature_dim)))
        return judged_block((), config.docs_per_query, *empty, Qrels())
    blocks, qrels = zip(*parts)
    return judged_block(
        tuple(itertools.chain.from_iterable(b.queries for b in blocks)),
        config.docs_per_query,
        np.concatenate([b.index for b in blocks]),
        np.concatenate([b.features for b in blocks]),
        Qrels({q: part.judged(q) for part in qrels for q in part.query_ids()}),
    )


def rejudged(block, qrels, rows=slice(None)):
    """The rows `rows` of a PoolBlock, judged by `qrels` in place of the
    block's own grades; its features are a view of the block's."""
    return judged_block(
        block.queries[rows], block.pool, block.index[rows], block.features[rows], qrels
    )


def slice_bytes(config, queries):
    """The `distill_data._SLICE_BYTES` that cuts `config`'s world into slices
    of `queries` queries."""
    return queries * config.docs_per_query * config.feature_dim * 8


WORLD = "0" * 64  # the world fingerprint of the datasets that tests build by hand


def stack_records(records, world=WORLD):
    """(query, docs, first-stage ranks, source depth) tuples as one DistillDataset."""
    from ltrlab.core import DistillDataset

    records = list(records)
    return DistillDataset(
        world if records else None,
        tuple(query for query, _, _, _ in records),
        np.cumsum([0] + [len(docs) for _, docs, _, _ in records]),
        [doc for _, docs, _, _ in records for doc in docs],
        np.array([r for _, _, ranks, _ in records for r in ranks], dtype=np.int64),
        np.array([depth for _, _, _, depth in records], dtype=np.int64),
    )


def record_values(records):
    """DistillRecords, or (query, docs, first-stage ranks, source depth)
    tuples, as plain Python values that compare with ==."""
    return [
        (query, tuple(docs), [int(r) for r in ranks], int(depth))
        for query, docs, ranks, depth in (
            rec if isinstance(rec, tuple)
            else (rec.query, rec.docs, rec.first_stage_ranks, rec.source_depth)
            for rec in records
        )
    ]


def without_features(records):
    """(query, docs, features, first-stage ranks, source depth) tuples, such
    as `teacher_dataset_oracle` gives, without their features."""
    return [(query, docs, ranks, depth) for query, docs, _, ranks, depth in records]

