"""Closed-loop benchmark of the ltrlab command line.

One client runs a workload's operation back to back, in this process,
through the real entry point `ltrlab.cli.main`, for about `--seconds`
seconds (at least two operations). Every operation passes the workload seed
as `--seed`, so all operations of a run must write byte-identical outputs.
Run it from the repository root:

    python3 bench/run.py --workload train-mlp-ranknet --seed 0 --seconds 40 --trace 0

With `--trace 0` the last line of standard output is a JSON object holding
the end-to-end metrics named in BENCHMARK.json; with `--trace 1` it holds the
per-layer metrics, measured by alternating untraced and traced operations.
The raw median operation time `wall_s` is printed on the line before.
Outputs of the run go to bench/out/. README.md in this directory explains
the workloads and the metrics.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy is first imported: untuned BLAS threading
# made single-shot times of one workload swing by a third on a 2-core machine.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

import tracer as tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

# Seed 0 is the development seed. HELD_OUT_SEED is used only to confirm a
# claimed gain, never while a change is being written.
DEV_SEED = 0
HELD_OUT_SEED = 4242

SETUP_REPEATS = 5
NDCG_K = 10
SUBSAMPLE_DEPTH = 50
CALIBRATION_DEPTH = 100
CALIBRATION_PASSES = 5
PROBE_ITERATIONS = 30000

TRAIN_MLP_RANKNET = {
    "world": {
        "num_queries": 300,
        "docs_per_query": 300,
        "feature_dim": 16,
        "feature_map": "saturated",
        "first_stage_noise": {"strong": 0.5},
    },
    "split": {"train": 0.6, "validation": 0.2, "test": 0.2},
    "sampling": {"pool_depth": 200, "num_negatives": 7},
    "scorer": {"architecture": "mlp", "hidden_width": 8},
    "distill": {"retriever": "strong", "depth": 50},
    "stage1": {"loss": "infonce", "max_steps": 400},
    "stage2": {"loss": "ranknet", "max_steps": 600, "patience_steps": 600, "validation_every": 10},
    "eval": {"retriever": "strong", "depth": 50},
}

TRAIN_LINEAR_ADR = {
    "world": {"num_queries": 2000, "docs_per_query": 200, "feature_dim": 16, "feature_noise": 0.3},
    "split": {"train": 0.7, "validation": 0.15, "test": 0.15},
    "sampling": {"pool_depth": 200, "num_negatives": 7},
    "scorer": {"architecture": "linear"},
    "distill": {"retriever": "strong", "depth": 100},
    "stage1": {"loss": "infonce", "max_steps": 300},
    "stage2": {"loss": "adr-mse", "max_steps": 100, "patience_steps": 100, "validation_every": 10},
    "eval": {"retriever": "strong", "depth": CALIBRATION_DEPTH},
}

TREC_FILES = {
    "world": {"num_queries": 1000, "docs_per_query": 200, "feature_dim": 16},
    "split": {"train": 0.7, "validation": 0.15, "test": 0.15},
    "distill": {"retriever": "strong", "depth": 100},
}


class CheckFailed(Exception):
    """An operation exited nonzero or wrote wrong outputs."""


@dataclass
class Run:
    workload: "Workload"
    seed: int
    work: Path
    _qrels: object = None

    @property
    def config(self) -> str:
        return str(self.work / "config.json")

    @property
    def op_dir(self) -> Path:
        return self.work / "op"

    def experiment_config(self):
        from ltrlab import cli

        return cli.load_experiment_config(self.config, argparse.Namespace(seed=self.seed))

    def qrels(self):
        if self._qrels is None:
            from ltrlab import distill_data

            self._qrels = distill_data.generate_world(self.experiment_config().world).qrels()
        return self._qrels


def _cli(*argv: str) -> None:
    from ltrlab import cli

    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(list(argv))
    if code != 0:
        raise CheckFailed(f"ltrlab {argv[0]} exited with status {code}")


def _digests(directory: Path, names: list[str]) -> dict[str, str]:
    return {
        name: hashlib.sha256((directory / name).read_bytes()).hexdigest() for name in names
    }


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-15)


# -- train-mlp-ranknet and train-linear-adr ---------------------------------


def run_train(run: Run):
    _cli(
        "train", "--config", run.config, "--stage", "two",
        "--seed", str(run.seed), "--out", str(run.op_dir),
    )


def check_train(run: Run, _result) -> tuple[dict[str, str], float]:
    """nDCG@10 recomputed from test_run.trec must equal summary.json."""
    from ltrlab import core, evaluation

    summary = json.loads((run.op_dir / "summary.json").read_text(encoding="utf-8"))
    reported = summary[f"mean_test_ndcg{NDCG_K}"]
    ranked = core.parse_run((run.op_dir / "test_run.trec").read_text(encoding="utf-8"))
    if not ranked or len(ranked) != summary["num_test_queries"]:
        raise CheckFailed(
            f"test_run.trec has {len(ranked)} queries, summary.json "
            f"{summary['num_test_queries']}"
        )
    qrels = run.qrels()
    values = [evaluation.ndcg_at_k(r, qrels, NDCG_K) for r in ranked.values()]
    recomputed = sum(values) / len(values)
    if not _close(recomputed, reported):
        raise CheckFailed(f"test nDCG@10 {reported!r} but test_run.trec gives {recomputed!r}")
    names = ["checkpoint.txt", "test_run.trec", "metrics_stage1.jsonl", "metrics_distill.jsonl"]
    return _digests(run.op_dir, names), reported


# -- trec-files --------------------------------------------------------------


def run_trec_files(run: Run):
    from ltrlab import core, distill_data

    seed, out = str(run.seed), run.op_dir
    world = out / "world"
    _cli("world", "--config", run.config, "--seed", seed, "--out", str(out / "world"))
    _cli("distill", "--config", run.config, "--seed", seed, "--out", str(out / "distill"))
    _cli(
        "eval", "--run", str(world / "run_strong.trec"), "--qrels", str(world / "qrels.txt"),
        "--out", str(out / "eval"),
    )
    _cli(
        "significance", "--qrels", str(world / "qrels.txt"),
        "--baseline", str(world / "run_weak.trec"),
        "--candidate", str(world / "run_strong.trec"), "--out", str(out / "significance"),
    )
    text = (out / "distill" / "distill_dataset.jsonl").read_text(encoding="utf-8")
    dataset = core.parse_distill_dataset(text)
    return dataset, distill_data.subsample_depth(dataset, SUBSAMPLE_DEPTH)


def independent_ndcg(run_text: str, qrels_text: str, k: int) -> tuple[float, int]:
    """Mean nDCG@k of a TREC run, written apart from ltrlab.

    Gain 2^grade - 1, discount log2(rank + 1), ties by ascending doc id.
    """
    grades: dict[str, dict[str, int]] = {}
    for line in qrels_text.splitlines():
        qid, _, doc, grade = line.split()
        grades.setdefault(qid, {})[doc] = int(grade)
    lists: dict[str, list[tuple[float, str]]] = {}
    for line in run_text.splitlines():
        qid, _, doc, _, score, _ = line.split()
        lists.setdefault(qid, []).append((-float(score), doc))
    total = 0.0
    for qid, entries in lists.items():
        judged = grades.get(qid, {})
        ideal = sorted(judged.values(), reverse=True)[:k]
        idcg = sum((2.0**g - 1.0) / math.log2(i + 2.0) for i, g in enumerate(ideal))
        ranked = sorted(entries)[:k]
        dcg = sum(
            (2.0 ** judged.get(doc, 0) - 1.0) / math.log2(i + 2.0)
            for i, (_, doc) in enumerate(ranked)
        )
        total += dcg / idcg if idcg else 0.0
    return total / len(lists), len(lists)


def check_trec_files(run: Run, result) -> tuple[dict[str, str], float]:
    """eval's mean must match an independent recompute; depth subsampling
    must keep exactly the first-stage top 50 in teacher order."""
    out = run.op_dir
    summary = json.loads((out / "eval" / "eval_summary.json").read_text(encoding="utf-8"))
    mean, count = independent_ndcg(
        (out / "world" / "run_strong.trec").read_text(encoding="utf-8"),
        (out / "world" / "qrels.txt").read_text(encoding="utf-8"),
        NDCG_K,
    )
    if count != summary["num_queries"] or not _close(mean, summary["mean"]):
        raise CheckFailed(
            f"eval reports {summary['mean']!r} over {summary['num_queries']} queries, "
            f"recompute gives {mean!r} over {count}"
        )
    comparisons = [
        json.loads(line)
        for line in (out / "significance" / "significance.jsonl").read_text().splitlines()
    ]
    if [(c["baseline"], c["system"], c["num_queries"]) for c in comparisons] != [
        ("run_weak", "run_strong", count)
    ]:
        raise CheckFailed(f"unexpected significance comparisons {comparisons}")
    dataset, shallow = result
    world = TREC_FILES["world"]
    train_queries = round(TREC_FILES["split"]["train"] * world["num_queries"])
    depth = TREC_FILES["distill"]["depth"]
    if len(dataset) != train_queries or len(shallow) != train_queries:
        raise CheckFailed(f"{len(dataset)} dataset records, expected {train_queries}")
    for full, cut in zip(dataset, shallow):
        keep = [d for d, r in zip(full.docs, full.first_stage_ranks) if r <= SUBSAMPLE_DEPTH]
        if len(full) != depth or list(cut.docs) != keep or len(keep) != SUBSAMPLE_DEPTH:
            raise CheckFailed(f"bad depth subsample for query {full.query!r}")
    names = [
        "world/qrels.txt", "world/run_strong.trec", "world/run_weak.trec",
        "distill/distill_dataset.jsonl", "eval/per_query.tsv", "eval/eval_summary.json",
        "significance/significance.jsonl",
    ]
    return _digests(out, names), summary["mean"]


@dataclass(frozen=True)
class Workload:
    config: dict
    operation: Callable[[Run], object]
    check: Callable[[Run, object], tuple[dict[str, str], float]]


WORKLOADS = {
    "train-mlp-ranknet": Workload(TRAIN_MLP_RANKNET, run_train, check_train),
    "train-linear-adr": Workload(TRAIN_LINEAR_ADR, run_train, check_train),
    "trec-files": Workload(TREC_FILES, run_trec_files, check_trec_files),
}


# -- measurement ---------------------------------------------------------------

SETUP_CODE = """\
import sys
sys.path.insert(0, sys.argv[1])
import ltrlab
with open(sys.argv[2], "w", encoding="utf-8") as f:
    f.write(sys.argv[3])
"""


def measure_setup(run: Run) -> float:
    """Seconds from interpreter start to `import ltrlab` done and the
    workload's config written, in a fresh child process."""
    text = json.dumps(run.workload.config, indent=2) + "\n"
    path = Path(run.config)
    t0 = perf_counter()
    subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(SRC), str(path), text],
        check=True,
        stdout=subprocess.DEVNULL,
    )
    elapsed = perf_counter() - t0
    if path.read_text(encoding="utf-8") != text:
        raise CheckFailed("set-up wrote a different config")
    return elapsed


def reference_probe() -> float:
    """Seconds for a fixed computation that does not use ltrlab.

    Small matrix products and a sort of Python tuples, the mix the
    workloads run. Timed through the run, it tracks how fast the machine is
    at the moment, so that a workload's time can be given relative to it.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    x = rng.normal(size=(50, 16))
    w = rng.normal(size=16)
    ids = [f"d{j:03d}" for j in range(50)]
    t0 = perf_counter()
    for _ in range(PROBE_ITERATIONS):
        ranked = sorted(zip((-np.tanh(x @ w)).tolist(), ids))
        w[0] = ranked[0][0]
    return perf_counter() - t0


def run_op(run: Run, tracer: tracing.Tracer | None, op_id: int) -> tuple[float, object]:
    shutil.rmtree(run.op_dir, ignore_errors=True)
    gc.collect()
    if tracer is not None:
        tracer.install()
        tracer.begin_op(op_id)
    try:
        t0 = perf_counter()
        result = run.workload.operation(run)
        wall = perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()
    if tracer is not None:
        tracer.end_op(wall)
    return wall, result


def calibrate_rerank_sim(run: Run) -> dict[str, float]:
    """Feed the scorer's measured per-call latency into rerank_sim.

    Times `scorer.score_batch` on the test pools at depth 100, once per pool
    (pointwise) and once per sliding window of 20 with stride 10, and checks
    the simulator's call and scoring counts against the calls made.
    """
    from ltrlab import distill_data, pipeline, rerank_sim, scorer

    cfg = run.experiment_config()
    world = distill_data.generate_world(cfg.world)
    test = pipeline.split_query_ids(world.query_ids, cfg.split)["test"]
    first_stage = world.first_stage_run(cfg.eval.retriever)
    pools = pipeline.build_rerank_pools(world, first_stage, test, CALIBRATION_DEPTH)
    model = scorer.load_checkpoint(run.op_dir / "checkpoint.txt")
    strategy = rerank_sim.sliding_window(20, 10)
    windows = rerank_sim.schedule(CALIBRATION_DEPTH, strategy)
    point, calls, per_query = [], [], []
    for _ in range(CALIBRATION_PASSES):
        for pool in pools:
            t0 = perf_counter()
            scorer.score_batch(model, pool.features)
            point.append(perf_counter() - t0)
            q0 = perf_counter()
            scorings = 0
            for lo, hi in windows:
                t0 = perf_counter()
                scorings += len(scorer.score_batch(model, pool.features[lo - 1 : hi]))
                calls.append(perf_counter() - t0)
            per_query.append(perf_counter() - q0)
    point_s, call_s, query_s = map(statistics.median, (point, calls, per_query))
    base = rerank_sim.estimate(
        CALIBRATION_DEPTH, rerank_sim.pointwise(), rerank_sim.CostModel(point_s, 0.0)
    )
    est = rerank_sim.estimate(
        CALIBRATION_DEPTH, strategy, rerank_sim.CostModel(call_s, 0.0), baseline=base
    )
    if (est.calls, est.scorings) != (len(windows), scorings):
        raise CheckFailed(
            f"rerank_sim estimates {est.calls} calls / {est.scorings} scorings, "
            f"measured {len(windows)} / {scorings}"
        )
    return {
        "rerank_sim.pointwise.call_ms": point_s * 1e3,
        "rerank_sim.window.call_ms": call_s * 1e3,
        "rerank_sim.window.calls": len(windows),
        "rerank_sim.window.scorings": scorings,
        "rerank_sim.window.query_ms.measured": query_s * 1e3,
        "rerank_sim.window.query_ms.estimated": est.latency_s * 1e3,
        "rerank_sim.latency_ratio.measured": query_s / point_s,
        "rerank_sim.latency_ratio.estimated": est.latency_ratio_vs_baseline,
    }


def layer_metrics(tracer: tracing.Tracer, walls: dict[bool, list[float]]) -> dict[str, float]:
    """Median per traced operation of every layer figure, plus pooled step
    and validation-pass percentiles."""
    per_op = [tracer.op_metrics(t) for t in tracer.ops]
    names = sorted(set().union(*per_op))
    out = {n: statistics.median(m.get(n, 0.0) for m in per_op) for n in names}
    steps = tracer.step_ms()
    out["trainer.steps"] = len(steps) / len(per_op)
    out["trainer.step_ms.p50"] = tracing.percentile(steps, 50)
    out["trainer.step_ms.p98"] = tracing.percentile(steps, 98)
    if steps and len(steps) * 0.02 < 10:
        print(f"note: step_ms.p98 rests on {len(steps)} steps", file=sys.stderr)
    out["trainer.validation_pass_ms.p50"] = tracing.percentile(
        tracer.durations_ms("trainer.mean_validation_ndcg"), 50
    )
    out["trace.overhead_s"] = statistics.median(walls[True]) - statistics.median(walls[False])
    return out


def environment(seed: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        openblas = "unknown"
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, check=True, timeout=30,
            ).stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
        "blas_threads": BLAS_THREADS,
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
        "commit": commit,
        "isolation": "no CPU pinning, no frequency change, no cache drop; "
        "only this process is measured",
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEV_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ltrlab" / "__init__.py").is_file():
        print(f"error: no ltrlab sources at {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workload = WORKLOADS[args.workload]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / tag
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = Run(workload, args.seed, work)

    # Set-up samples are spread over the run, one after each operation, so
    # that their median is not taken from a single burst.
    setup_times = [measure_setup(run)]
    sys.path.insert(0, str(SRC))
    import ltrlab.cli  # noqa: F401  (loads every layer, so all can be traced)

    tracer = tracing.Tracer() if args.trace else None
    walls: dict[bool, list[float]] = {False: [], True: []}
    cycles: list[float] = []
    attempted = failed = 0
    digests = quality = peak_rss_mb = None
    probes = [reference_probe()]
    start = perf_counter()
    while attempted < 2 or perf_counter() - start + statistics.median(cycles) <= args.seconds:
        traced = tracer is not None and attempted % 2 == 1
        c0 = perf_counter()
        attempted += 1
        try:
            wall, result = run_op(run, tracer if traced else None, attempted)
            if peak_rss_mb is None:  # one CLI process runs one operation
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            got, value = workload.check(run, result)
            del result
            if digests is None:
                digests, quality = got, value
            elif got != digests:
                differ = sorted(n for n in got if got[n] != digests.get(n))
                raise CheckFailed(f"same seed, different outputs: {differ}")
            walls[traced].append(wall)
        except Exception:  # one failed operation is counted; the loop goes on
            failed += 1
            traceback.print_exc()
        if len(setup_times) < SETUP_REPEATS:
            setup_times.append(measure_setup(run))
        probes.append(reference_probe())
        cycles.append(perf_counter() - c0)
    while len(setup_times) < SETUP_REPEATS:
        setup_times.append(measure_setup(run))

    values: dict[str, float] = {}
    if tracer is not None and walls[True] and walls[False]:
        values.update(layer_metrics(tracer, walls))
        tracer.write_tsv(OUT / f"{args.workload}-spans.tsv")
        if workload is WORKLOADS["train-linear-adr"]:
            try:
                values.update(calibrate_rerank_sim(run))
            except Exception:  # a failed calibration check fails the run
                failed += 1
                traceback.print_exc()
    if walls[False]:
        values.update(
            setup_s=statistics.median(setup_times),
            wall_s=statistics.median(walls[False]),
            wall_ref=statistics.median(walls[False]) / statistics.median(probes),
            peak_rss_mb=peak_rss_mb,
            test_ndcg10=quality,
        )
    shutil.rmtree(work, ignore_errors=True)

    section = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for m in spec[section]:
        if m["name"] in values:
            value = values[m["name"]]
        elif args.trace and values:
            value = 0  # the layer did not run in this workload
        else:
            print(f"error: no value for metric {m['name']!r}", file=sys.stderr)
            return 1
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    env = environment(args.seed)
    record = {
        "workload": args.workload,
        "env": env,
        "error_rate": failed / attempted,
        "samples": {
            "setup_s": setup_times,
            "wall_s": walls[False],
            "traced_wall_s": walls[True],
            "probe_s": probes,
        },
        "values": values,
    }
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print("env: " + json.dumps(env, sort_keys=True))
    print(
        f"{args.workload}: {attempted} operations, {failed} failed "
        f"(error_rate {failed / attempted}); wall_s {values.get('wall_s')} "
        f"over {len(walls[False])} untraced operations"
    )
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
