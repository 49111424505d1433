"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with:  pytest tests/test_acceptance.py -v -s

The directional experiments (criteria 6-8) train real models in seeded
synthetic worlds; everything is deterministic, so the asserted margins are
stable across runs.
"""

import itertools
import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from ltrlab import scorer
from ltrlab.cli import main as cli_main
from ltrlab.core import Qrels, ScoredList
from ltrlab.distill_data import (
    SamplingConfig,
    WorldConfig,
    build_hard_negative_groups,
    generate_world,
)
from ltrlab.evaluation import geometric_mean, holm_bonferroni, ndcg_at_k
from ltrlab.losses import ApproxConfig, adr_mse, infonce, ranknet, smooth_rank
from ltrlab.pipeline import (
    build_rerank_pools,
    evaluate_model,
    query_ranges,
    range_pools,
    split_query_ids,
)
from ltrlab.rerank_sim import CostModel, estimate, pointwise, schedule, scoring_count, sliding_window
from ltrlab.trainer import TrainConfig, train_distill, train_stage1

from _oracles import finite_difference_grad, grad_close, ndcg_bruteforce, restrict_run, teacher_lists


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance {number:02d}] {name}: {status}  {detail}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


# ---------------------------------------------------------------------------
# 1. Gradient suite
# ---------------------------------------------------------------------------


def test_criterion_01_gradient_suite():
    sizes = (2, 8, 20, 50, 100)
    instances = 100
    rng = np.random.default_rng(12345)
    t0 = time.time()
    failures = []

    loss_fns = {
        "infonce": lambda s, pos: (infonce(s, pos), lambda v: infonce(v, pos).value),
        "ranknet": lambda s, pos: (ranknet(s), lambda v: ranknet(v).value),
        "adr_mse": lambda s, pos: (adr_mse(s), lambda v: adr_mse(v).value),
    }
    for name, make in loss_fns.items():
        for n in sizes:
            for _ in range(instances):
                s = rng.normal(size=n) * rng.uniform(0.5, 3.0)
                pos = int(rng.integers(0, n))
                out, value_fn = make(s, pos)
                if not grad_close(out.grad, finite_difference_grad(value_fn, s)):
                    failures.append(f"{name} n={n}")

    for arch, hidden in ((scorer.LINEAR, 0), (scorer.MLP, 4)):
        feature_dim = 8
        for n in sizes:
            for i in range(instances):
                model = scorer.init_model(arch, feature_dim, hidden, seed=i)
                x = rng.normal(size=(n, feature_dim))
                upstream = rng.normal(size=n)
                analytic = scorer.grad_batch(model, x, upstream)

                def objective(params):
                    shifted = replace(model, params=params)
                    return float(upstream @ scorer.score_batch(shifted, x))

                if not grad_close(analytic, finite_difference_grad(objective, model.params)):
                    failures.append(f"{arch} n={n}")

    elapsed = time.time() - t0
    ok = not failures and elapsed < 30.0
    report(
        1,
        "gradient suite (3 losses + 2 architectures vs finite differences)",
        ok,
        f"elapsed {elapsed:.1f}s" + (f", failures: {failures[:3]}" if failures else ""),
    )


# ---------------------------------------------------------------------------
# 2. Closed-form values
# ---------------------------------------------------------------------------


def test_criterion_02_closed_form_values():
    checks = []
    checks.append(abs(infonce(np.full(8, 2.2), 3).value - math.log(8)) <= 1e-9)
    checks.append(abs(ranknet([0.4, 0.4]).value - math.log(2)) <= 1e-9)
    checks.append(adr_mse([1.7]).value == 0.0)
    rng = np.random.default_rng(7)
    for n in (1, 2, 8, 50, 200):
        s = rng.normal(size=n) * 5
        checks.append(abs(smooth_rank(s).sum() - n * (n + 1) / 2) <= 1e-9)
    report(
        2,
        "closed-form values (ln 8, ln 2, zero singleton, rank conservation)",
        all(checks),
        f"{sum(checks)}/{len(checks)} checks",
    )


# ---------------------------------------------------------------------------
# 3. Efficiency arithmetic
# ---------------------------------------------------------------------------


def test_criterion_03_efficiency_arithmetic():
    # Per-call costs calibrated so the windowed LLM-style re-ranker totals
    # 24.047 s over its 9 calls at depth 100, against pointwise cross-encoder
    # totals of 0.215 s (large) and 0.139 s (base). Memory figures are the
    # per-strategy resident sizes in GB.
    depth = 100
    windowed = sliding_window(20, 10)
    windows = schedule(depth, windowed)
    scorings = scoring_count(depth, windowed)

    llm_cost = CostModel(per_call_latency=24.047 / len(windows), per_item_memory=15.48)
    large_cost = CostModel(per_call_latency=0.215, per_item_memory=2.69)
    base_cost = CostModel(per_call_latency=0.139, per_item_memory=1.18)

    large_est = estimate(depth, pointwise(), large_cost)
    base_est = estimate(depth, pointwise(), base_cost)
    llm_vs_large = estimate(depth, windowed, llm_cost, baseline=large_est)
    llm_vs_base = estimate(depth, windowed, llm_cost, baseline=base_est)

    expected_large_ratio = 24.047 / 0.215  # ~111.8, "around 110 times slower"
    expected_base_ratio = 24.047 / 0.139  # ~173.0
    expected_memory_ratio = 15.48 / 2.69  # ~5.75, "around 5.7 times"

    ok = (
        len(windows) == 9
        and scorings == 180
        and abs(llm_vs_large.latency_ratio_vs_baseline - expected_large_ratio)
        <= 0.01 * expected_large_ratio
        and abs(llm_vs_base.latency_ratio_vs_baseline - expected_base_ratio)
        <= 0.01 * expected_base_ratio
        and abs(llm_vs_large.memory_ratio_vs_baseline - expected_memory_ratio)
        <= 0.01 * expected_memory_ratio
    )
    report(
        3,
        "efficiency arithmetic (9 windows, 180 scorings, latency/memory ratios)",
        ok,
        f"latency x{llm_vs_large.latency_ratio_vs_baseline:.1f} / "
        f"x{llm_vs_base.latency_ratio_vs_baseline:.1f}, "
        f"memory x{llm_vs_large.memory_ratio_vs_baseline:.2f}",
    )


# ---------------------------------------------------------------------------
# 4. Geometric-mean reproduction
# ---------------------------------------------------------------------------


def test_criterion_04_geometric_mean_reproduction():
    # Two rows of 13 per-corpus nDCG@10 values with known printed geometric
    # means (.309 and .320); inputs are rounded to 3 decimals, hence the
    # 0.002 tolerance.
    distilled_base_row = [
        0.593, 0.375, 0.209, 0.295, 0.692, 0.010, 0.507,
        0.305, 0.541, 0.399, 0.306, 0.522, 0.458,
    ]
    llm_teacher_row = [
        0.534, 0.364, 0.213, 0.303, 0.767, 0.009, 0.542,
        0.349, 0.560, 0.460, 0.314, 0.512, 0.508,
    ]
    gm_distilled = geometric_mean(distilled_base_row)
    gm_teacher = geometric_mean(llm_teacher_row)
    ok = abs(gm_distilled - 0.309) < 0.002 and abs(gm_teacher - 0.320) < 0.002
    report(
        4,
        "geometric macro-average reproduces printed means",
        ok,
        f"got {gm_distilled:.4f} (want .309+/-.002) and {gm_teacher:.4f} (want .320+/-.002)",
    )


# ---------------------------------------------------------------------------
# 5. Evaluation oracles
# ---------------------------------------------------------------------------


def test_criterion_05_evaluation_oracles():
    rng = np.random.default_rng(99)
    ndcg_ok = True
    for _ in range(1000):
        n_judged = int(rng.integers(1, 6))
        n_ranked = int(rng.integers(1, 7))
        k = int(rng.integers(1, 7))
        universe = [f"d{i}" for i in range(8)]
        judged = {d: int(rng.integers(0, 4)) for d in rng.choice(universe, n_judged, replace=False)}
        ranked = list(rng.choice(universe, n_ranked, replace=False))
        ranking = ScoredList("q", tuple((d, float(n_ranked - i)) for i, d in enumerate(ranked)))
        got = ndcg_at_k(ranking, Qrels({"q": judged}), k)
        want = ndcg_bruteforce([judged.get(d, 0) for d in ranked], list(judged.values()), k)
        if abs(got - want) > 1e-12:
            ndcg_ok = False
            break

    holm_worked = holm_bonferroni([0.01, 0.04, 0.03], 0.05) == [True, False, False]

    bracket_ok = True
    for _ in range(1000):
        m = int(rng.integers(1, 12))
        ps = rng.uniform(size=m)
        holm = holm_bonferroni(ps, 0.05)
        bonf = [p <= 0.05 / m for p in ps]
        unc = [p <= 0.05 for p in ps]
        if any(b and not h for b, h in zip(bonf, holm)):
            bracket_ok = False
        if any(h and not u for h, u in zip(holm, unc)):
            bracket_ok = False

    ok = ndcg_ok and holm_worked and bracket_ok
    report(
        5,
        "evaluation oracles (nDCG brute force, Holm worked case + bracketing)",
        ok,
        f"ndcg={ndcg_ok} holm_worked={holm_worked} bracketing={bracket_ok}",
    )


# ---------------------------------------------------------------------------
# 6-8. Directional experiments
# ---------------------------------------------------------------------------


def _pool_quality_run(seed: int) -> dict[str, float]:
    """Train one student per retriever's pools; evaluate both on the same
    held-out low-noise candidates. Capacity-limited MLP scorer plus feature
    noise keep the task unsaturated, so pool quality shows up in the model."""
    world = generate_world(
        WorldConfig(
            num_queries=300,
            docs_per_query=300,
            feature_dim=16,
            first_stage_noise={"low": 0.3, "high": 12.0},
            teacher_noise=0.0,
            feature_map="product",
            feature_noise=0.5,
            seed=seed,
        )
    )
    fractions = {"train": 0.6, "validation": 0.2, "test": 0.2}
    splits = split_query_ids(world.query_ids, fractions)
    validation_range = query_ranges(len(world.query_ids), fractions)["validation"]
    validation = range_pools(world.config, "low", validation_range, 50)
    test_pools = build_rerank_pools(world, world.first_stage_run("low"), splits["test"], 50)
    result = {}
    for name in ("low", "high"):
        run = restrict_run(world.first_stage_run(name), splits["train"])
        dataset = teacher_lists(run, 50)
        model = scorer.init_model(scorer.MLP, 16, hidden_width=8, seed=seed + 1)
        cfg = TrainConfig(
            loss="ranknet",
            max_steps=600,
            batch_size=32,
            learning_rate=0.02,
            weight_decay=0.0,
            patience_steps=100,
            validation_every=10,
            seed=seed + 2,
        )
        trained, _ = train_distill(model, dataset, validation, cfg)
        scores, _ = evaluate_model(trained, test_pools, 10)
        result[name] = float(np.mean(list(scores.values())))
    return result


def test_criterion_06_first_stage_quality():
    t0 = time.time()
    seeds = range(100, 105)
    rows = [_pool_quality_run(seed) for seed in seeds]
    low = float(np.mean([r["low"] for r in rows]))
    high = float(np.mean([r["high"] for r in rows]))
    gap = low - high
    elapsed = time.time() - t0
    per_seed = " ".join(f"{r['low'] - r['high']:+.3f}" for r in rows)
    ok = gap >= 0.02 and elapsed < 600
    report(
        6,
        "distilling from low-noise pools beats high-noise pools by >= 0.02",
        ok,
        f"nDCG@10 {low:.4f} vs {high:.4f}, gap {gap:+.4f} (per-seed {per_seed}), {elapsed:.0f}s",
    )


@pytest.fixture(scope="module")
def training_regimes():
    """Stage-1-only vs single-stage distillation (both losses) vs two-stage,
    trained per seed on a sparse-label world with a clean teacher."""

    def one_seed(seed: int) -> dict[str, float]:
        world = generate_world(
            WorldConfig(
                num_queries=300,
                docs_per_query=200,
                feature_dim=16,
                first_stage_noise={"strong": 0.3},
                teacher_noise=0.0,
                feature_map="product",
                feature_noise=0.3,
                seed=seed,
            )
        )
        fractions = {"train": 0.6, "validation": 0.2, "test": 0.2}
        splits = split_query_ids(world.query_ids, fractions)
        run_train = restrict_run(world.first_stage_run("strong"), splits["train"])
        groups = list(build_hard_negative_groups(
            run_train, SamplingConfig(pool_depth=200, num_negatives=7, seed=seed + 3)
        ))
        dataset = teacher_lists(run_train, 50)
        validation_range = query_ranges(len(world.query_ids), fractions)["validation"]
        validation = range_pools(world.config, "strong", validation_range, 50)
        test_pools = build_rerank_pools(
            world, world.first_stage_run("strong"), splits["test"], 50
        )
        model0 = scorer.init_model(scorer.LINEAR, 16, seed=seed + 1)
        cfg1 = TrainConfig(
            loss="infonce", max_steps=400, batch_size=32, learning_rate=0.02,
            weight_decay=0.0, seed=seed + 2,
        )

        def cfg2(loss):
            return TrainConfig(
                loss=loss, max_steps=600, batch_size=32, learning_rate=0.02,
                weight_decay=0.0, patience_steps=100, validation_every=10, seed=seed + 2,
            )

        def test_ndcg(m):
            scores, _ = evaluate_model(m, test_pools, 10)
            return float(np.mean(list(scores.values())))

        stage1_model, _ = train_stage1(model0, groups, cfg1)
        single_model, _ = train_distill(model0, dataset, validation, cfg2("ranknet"))
        # Two-stage: distillation fine-tunes the stage-1 model.
        two_model, _ = train_distill(stage1_model, dataset, validation, cfg2("ranknet"))
        adr_model, _ = train_distill(model0, dataset, validation, cfg2("adr-mse"))
        return {
            "stage1_only": test_ndcg(stage1_model),
            "single_distill": test_ndcg(single_model),
            "two_stage": test_ndcg(two_model),
            "adr_distill": test_ndcg(adr_model),
        }

    rows = [one_seed(seed) for seed in range(200, 205)]
    return {key: float(np.mean([r[key] for r in rows])) for key in rows[0]}


def test_criterion_07_two_stage_ordering(training_regimes):
    r = training_regimes
    tie = 0.005
    ok = (
        r["two_stage"] >= r["single_distill"] - tie
        and r["two_stage"] >= r["stage1_only"] - tie
    )
    report(
        7,
        "two-stage >= single-stage distill and >= stage-1-only (ties 0.005)",
        ok,
        f"two={r['two_stage']:.4f} single={r['single_distill']:.4f} stage1={r['stage1_only']:.4f}",
    )


def test_criterion_08_loss_parity(training_regimes):
    r = training_regimes
    diff = abs(r["adr_distill"] - r["single_distill"])
    report(
        8,
        "ADR-MSE and RankNet reach held-out nDCG@10 within 0.01",
        diff < 0.01,
        f"adr={r['adr_distill']:.4f} ranknet={r['single_distill']:.4f} |diff|={diff:.4f}",
    )


# ---------------------------------------------------------------------------
# 9. Depth ablation harness
# ---------------------------------------------------------------------------


ABLATION_CONFIG = {
    "world": {
        "num_queries": 300,
        "docs_per_query": 150,
        "feature_dim": 16,
        "first_stage_noise": {"strong": 0.5},
        "teacher_noise": 0.1,
        "teacher_noise_rank_growth": 0.05,
        "feature_map": "product",
        "feature_noise": 0.3,
        "seed": 42,
    },
    "split": {"train": 0.6, "validation": 0.2, "test": 0.2},
    "scorer": {"architecture": "linear", "init_seed": 7},
    "distill": {"retriever": "strong", "depth": 100},
    "stage2": {
        "loss": "ranknet",
        "max_steps": 500,
        "learning_rate": 0.02,
        "weight_decay": 0.0,
        "patience_steps": 100,
        "validation_every": 10,
        "seed": 9,
    },
    "eval": {"retriever": "strong", "depth": 100},
    "ablation": {"depths": [10, 25, 50, 100], "fractions": [0.5, 1.0]},
}


def _curve_shape(values: list[float], tolerance: float = 0.005) -> str:
    rises = [b - a for a, b in zip(values, values[1:])]
    peak = values.index(max(values))
    before_ok = all(r >= -tolerance for r in rises[:peak])
    after_ok = all(r <= tolerance for r in rises[peak:])
    if before_ok and after_ok:
        return "monotone-then-flat-or-declining"
    return "irregular"


def test_criterion_09_depth_ablation_harness(tmp_path):
    config_path = tmp_path / "ablate.json"
    config_path.write_text(json.dumps(ABLATION_CONFIG))
    out = tmp_path / "grid"
    code = cli_main(["ablate", "--config", str(config_path), "--out", str(out)])
    cells = [json.loads(line) for line in (out / "ablation.jsonl").read_text().splitlines()]
    expected_cells = {(d, f) for d in (10, 25, 50, 100) for f in (0.5, 1.0)}
    got_cells = {(c["depth"], c["query_fraction"]) for c in cells}
    grid_ok = (
        code == 0
        and got_cells == expected_cells
        and all(0.0 <= c["mean_ndcg10"] <= 1.0 for c in cells)
        and (out / "ablation.tsv").exists()
    )
    curve = {
        c["depth"]: c["mean_ndcg10"] for c in cells if c["query_fraction"] == 1.0
    }
    values = [curve[d] for d in (10, 25, 50, 100)]
    shape = _curve_shape(values)
    detail = "depth curve " + " ".join(
        f"{d}:{curve[d]:.4f}" for d in (10, 25, 50, 100)
    ) + f" -> shape: {shape} (reported, not asserted)"
    report(9, "depth ablation harness emits the full grid", grid_ok, detail)


# ---------------------------------------------------------------------------
# 10. Determinism
# ---------------------------------------------------------------------------


DETERMINISM_CONFIG = {
    "world": {
        "num_queries": 150,
        "docs_per_query": 60,
        "feature_dim": 8,
        "first_stage_noise": {"strong": 0.5, "weak": 3.0},
        "teacher_noise": 0.1,
        "seed": 31,
    },
    "split": {"train": 0.6, "validation": 0.2, "test": 0.2},
    "sampling": {"pool_depth": 60, "num_negatives": 7, "seed": 5},
    "scorer": {"architecture": "linear", "init_seed": 2},
    "distill": {"retriever": "strong", "depth": 30},
    "stage1": {"max_steps": 50, "learning_rate": 0.02, "weight_decay": 0.0, "seed": 7},
    "stage2": {
        "loss": "adr-mse",
        "max_steps": 120,
        "learning_rate": 0.02,
        "weight_decay": 0.0,
        "patience_steps": 60,
        "validation_every": 10,
        "seed": 8,
    },
    "eval": {"retriever": "strong", "depth": 30},
}


def test_criterion_10_determinism(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(DETERMINISM_CONFIG))

    def run_pipeline(root):
        stages = []
        assert cli_main(["world", "--config", str(config_path), "--out", str(root / "world")]) == 0
        assert cli_main(["distill", "--config", str(config_path), "--out", str(root / "distill")]) == 0
        assert (
            cli_main(
                [
                    "train", "--config", str(config_path), "--stage", "two",
                    "--out", str(root / "train"),
                ]
            )
            == 0
        )
        assert (
            cli_main(
                [
                    "eval",
                    "--run", str(root / "train" / "test_run.trec"),
                    "--qrels", str(root / "world" / "qrels.txt"),
                    "--out", str(root / "eval"),
                ]
            )
            == 0
        )
        artifacts = {}
        for sub in ("world", "distill", "train", "eval"):
            for path in sorted((root / sub).iterdir()):
                artifacts[f"{sub}/{path.name}"] = path.read_bytes()
        return artifacts

    run_a = run_pipeline(tmp_path / "a")
    run_b = run_pipeline(tmp_path / "b")
    same_names = sorted(run_a) == sorted(run_b)
    diffs = [name for name in run_a if run_a[name] != run_b.get(name)]
    ok = same_names and not diffs
    report(
        10,
        "every pipeline stage byte-identical across two seeded runs",
        ok,
        f"{len(run_a)} artifacts compared" + (f", diffs: {diffs[:3]}" if diffs else ""),
    )
