"""The benchmark's own functions run against the package as it stands.

`bench/run.py` and `bench/tracer.py` read parts of the package API that no
command uses, such as `ParsedRun` as a mapping, `PoolBlock` rows and
`DistillDataset` records. Running the benchmark's checks here, unchanged,
makes a change that breaks them fail the tests.
"""

import importlib.util
import json
import os
import sys
from pathlib import Path

import pytest

import ltrlab.cli  # noqa: F401  (loads every layer, so all can be traced)

BENCH = Path(__file__).resolve().parent.parent / "bench"

SMALL_TRAIN = {
    "world": {
        "num_queries": 60,
        "docs_per_query": 100,
        "feature_dim": 4,
        "first_stage_noise": {"strong": 0.5},
    },
    "split": {"train": 0.6, "validation": 0.2, "test": 0.2},
    "sampling": {"pool_depth": 100, "num_negatives": 3},
    "scorer": {"architecture": "mlp", "hidden_width": 4},
    "distill": {"retriever": "strong", "depth": 20},
    "stage1": {"loss": "infonce", "max_steps": 5},
    "stage2": {"loss": "ranknet", "max_steps": 10, "validation_every": 5},
    "eval": {"retriever": "strong", "depth": 100},
}


@pytest.fixture(scope="module")
def bench():
    """`bench/run.py`, loaded as the benchmark loads it. It sets BLAS thread
    variables when imported, so the environment is restored afterwards."""
    environ = dict(os.environ)
    sys.path.insert(0, str(BENCH))
    try:
        spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
        module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(BENCH))
        for name in ("bench_run", "tracer"):
            sys.modules.pop(name, None)
        os.environ.clear()
        os.environ.update(environ)
    return module


def bench_run(bench, config: dict, operation, check, work: Path):
    run = bench.Run(bench.Workload(config, operation, check), 0, work)
    Path(run.config).write_text(json.dumps(config), encoding="utf-8")
    return run


def test_traced_training_and_its_checks(bench, tmp_path):
    run = bench_run(bench, SMALL_TRAIN, bench.run_train, bench.check_train, tmp_path)
    tracer = bench.tracing.Tracer()
    wall, _ = bench.run_op(run, tracer, 1)
    metrics = tracer.op_metrics(tracer.ops[0])
    assert metrics["trainer.train_distill.calls"] == metrics["trainer.train_stage1.calls"] == 1
    assert metrics["trace.wall_s"] == wall
    _, ndcg = bench.check_train(run, None)
    assert 0.0 <= ndcg <= 1.0
    calibration = bench.calibrate_rerank_sim(run)
    window = calibration["rerank_sim.window.calls"], calibration["rerank_sim.window.scorings"]
    assert window == (9, 9 * 20)  # windows of 20 at stride 10 over a pool of 100


def test_trec_files_and_its_checks(bench, tmp_path):
    run = bench_run(bench, bench.TREC_FILES, bench.run_trec_files, bench.check_trec_files, tmp_path)
    result = bench.run_trec_files(run)
    digests, ndcg = bench.check_trec_files(run, result)
    assert "distill/distill_dataset.jsonl" in digests
    assert 0.0 < ndcg <= 1.0
