import argparse
import dataclasses
import json
import math
import multiprocessing
import os
import shutil
import subprocess
import sys
import time
import tracemalloc
import typing
from pathlib import Path

import numpy as np
import pytest

from ltrlab import cli, core, distill_data, pipeline, trainer
from ltrlab.cli import ExperimentConfig, _atomic_write, load_experiment_config, main
from ltrlab.distill_data import WorldConfig, build_teacher_dataset, generate_world
from ltrlab.evaluation import ndcg_at_k, per_query_scores_text, significance_report

from _oracles import parse_run_oracle, slice_bytes

SMOKE_CONFIG = {
    "world": {
        "num_queries": 200,
        "docs_per_query": 40,
        "feature_dim": 8,
        "first_stage_noise": {"strong": 0.5, "weak": 3.0},
        "teacher_noise": 0.0,
        "seed": 11,
    },
    "split": {"train": 0.6, "validation": 0.2, "test": 0.2},
    "sampling": {"pool_depth": 40, "num_negatives": 7, "seed": 4},
    "scorer": {"architecture": "linear", "init_seed": 2},
    "distill": {"retriever": "strong", "depth": 20},
    "stage1": {"max_steps": 60, "learning_rate": 0.02, "weight_decay": 0.0, "seed": 7},
    "stage2": {
        "loss": "ranknet",
        "max_steps": 150,
        "learning_rate": 0.02,
        "weight_decay": 0.0,
        "patience_steps": 60,
        "validation_every": 10,
        "seed": 8,
    },
    "eval": {"retriever": "strong", "depth": 20, "k": 10},
    "ablation": {"depths": [5, 10, 20], "fractions": [0.5, 1.0]},
}


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(SMOKE_CONFIG), encoding="utf-8")
    return path


def read(path: Path) -> str:
    return path.read_text(encoding="utf-8")


def eval_argv(tmp_path: Path, run_text: str, qrels_text: str) -> list[str]:
    """`eval` arguments for a run and qrels written to files in tmp_path."""
    run, qrels = tmp_path / "run.trec", tmp_path / "qrels.txt"
    run.write_text(run_text, encoding="utf-8")
    qrels.write_text(qrels_text, encoding="utf-8")
    return ["eval", "--run", str(run), "--qrels", str(qrels)]


class TestEvalCommand:
    def test_perfect_run_scores_one(self, tmp_path, capsys):
        run = tmp_path / "run.trec"
        qrels = tmp_path / "qrels.txt"
        run.write_text("q1 Q0 dA 1 3.0 t\nq1 Q0 dB 2 2.0 t\nq2 Q0 dC 1 1.0 t\n")
        qrels.write_text("q1 0 dA 2\nq1 0 dB 1\nq2 0 dC 1\n")
        out = tmp_path / "out"
        code = main(["eval", "--run", str(run), "--qrels", str(qrels), "--out", str(out)])
        assert code == 0
        lines = read(out / "per_query.tsv").splitlines()
        assert all(line.split("\t")[2] == "1.0" for line in lines)
        assert "mean nDCG@10 over 2 queries = 1.0000" in capsys.readouterr().out

    def test_missing_run_file_is_data_error(self, tmp_path):
        qrels = tmp_path / "qrels.txt"
        qrels.write_text("q1 0 dA 1\n")
        code = main(["eval", "--run", str(tmp_path / "nope.trec"), "--qrels", str(qrels)])
        assert code == 2

    def test_malformed_run_is_data_error(self, tmp_path):
        run = tmp_path / "run.trec"
        run.write_text("garbage line\n")
        qrels = tmp_path / "qrels.txt"
        qrels.write_text("q1 0 dA 1\n")
        code = main(
            ["eval", "--run", str(run), "--qrels", str(qrels), "--out", str(tmp_path / "o")]
        )
        assert code == 2

    def test_missing_required_flag_is_usage_error(self):
        assert main(["eval", "--run", "whatever"]) == 1

    def test_empty_run_is_data_error(self, tmp_path, capsys):
        run = tmp_path / "run.trec"
        run.write_text("\n")
        qrels = tmp_path / "qrels.txt"
        qrels.write_text("q1 0 dA 1\n")
        out = tmp_path / "o"
        code = main(["eval", "--run", str(run), "--qrels", str(qrels), "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"error: run file {str(run)!r} contains no queries\n"
        assert not out.exists()

    def test_queries_of_the_qrels_are_averaged(self, tmp_path, capsys):
        """As `trec_eval -c`: a qrels query the run lacks scores 0, and a run
        query without judgments is left out; both are counted."""
        argv = eval_argv(tmp_path, "q1 Q0 d1 1 1.0 t\nq3 Q0 d3 1 1.0 t\n", "q1 0 d1 1\nq2 0 d2 1\n")
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 0
        flags = {"run": argv[2], "qrels": argv[4], "k": 10, "out": str(out)}
        resolved = json.dumps({"flags": flags}, indent=2, sort_keys=True)
        assert capsys.readouterr().out == (
            f"[eval] resolved config:\n{resolved}\neval: mean nDCG@10 over 2 queries = 0.5000\n"
        )
        assert sorted(p.name for p in out.iterdir()) == ["eval_summary.json", "per_query.tsv"]
        assert read(out / "per_query.tsv") == "q1\tnDCG@10\t1.0\nq2\tnDCG@10\t0.0\n"
        assert read(out / "eval_summary.json") == (
            '{\n  "extra_queries": 1,\n  "mean": 0.5,\n  "metric": "nDCG@10",\n'
            '  "missing_queries": 1,\n  "num_queries": 2\n}\n'
        )

    def test_empty_qrels_is_data_error(self, tmp_path, capsys):
        out = tmp_path / "o"
        argv = eval_argv(tmp_path, "q1 Q0 d1 1 1.0 t\n", "\n")
        assert main(argv + ["--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: qrels file {argv[4]!r} contains no queries\n"
        assert not out.exists()

    def test_qrels_checked_before_a_malformed_run(self, tmp_path, capsys):
        out = tmp_path / "o"
        argv = eval_argv(tmp_path, "garbage line\n", "\n")
        assert main(argv + ["--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: qrels file {argv[4]!r} contains no queries\n"
        assert not out.exists()


    RUN = (
        "q3 Q0 x 1 1.0 t\nq1 Q0 d10 1 2.0 t\nq1 Q0 d2 2 2.0 t\nq1 Q0 d1 3 -0.0 t\n"
        "q2 Q0 a 1 1.5 t\nq1 Q0 d3 4 0.0 t\nq4 Q0 b 1 3 t\nq4 Q0 c 2 1 t\nq4 Q0 a 3 2 t\n"
    )
    QRELS = (
        "q1 0 d2 2\nq1 0 d1 1\nq1 0 d3 3\nq2 0 a 0\n"
        "q4 0 a 1\nq4 0 b 2\nq4 0 z 3\nq4 0 y 1\n"
    )

    @pytest.mark.parametrize("k", [1, 2, 3, 10])
    def test_outputs_equal_per_query_ndcg_at_k(self, tmp_path, k):
        self.assert_eval_is_ndcg_at_k(tmp_path, self.RUN, self.QRELS, k)

    def test_world_run_equals_per_query_ndcg_at_k(self, tmp_path, config_path):
        world = tmp_path / "world"
        assert main(["world", "--config", str(config_path), "--out", str(world)]) == 0
        run, qrels = read(world / "run_weak.trec"), read(world / "qrels.txt")
        self.assert_eval_is_ndcg_at_k(tmp_path, run, qrels, 10)

    @staticmethod
    def assert_eval_is_ndcg_at_k(tmp_path, run_text, qrels_text, k):
        out = tmp_path / "out"
        argv = eval_argv(tmp_path, run_text, qrels_text)
        assert main(argv + ["--k", str(k), "--out", str(out)]) == 0
        qrels, run = core.parse_qrels(qrels_text), parse_run_oracle(run_text)
        # Every qrels query: the judged queries of the run in run order, then the missing at 0.
        judged = qrels.query_ids()
        expected = {q: ndcg_at_k(r, qrels, k) for q, r in run.items() if q in judged}
        expected.update((q, 0.0) for q in judged if q not in run)
        assert read(out / "per_query.tsv") == per_query_scores_text(expected, f"nDCG@{k}")
        assert json.loads(read(out / "eval_summary.json")) == {
            "metric": f"nDCG@{k}",
            "num_queries": len(judged),
            "mean": sum(expected.values()) / len(expected),
            "missing_queries": len(set(judged) - set(run)),
            "extra_queries": len(set(run) - set(judged)),
        }

    def test_zero_cutoff_is_data_error(self, tmp_path, capsys):
        argv = eval_argv(tmp_path, self.RUN, self.QRELS)
        assert main(argv + ["--k", "0", "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == "error: cutoff k must be >= 1\n"


class TestAtomicWrite:
    def test_failed_write_leaves_no_temp_file_and_keeps_the_target(self, tmp_path):
        target = tmp_path / "run.trec"
        target.write_text("old\n", encoding="utf-8")

        def chunks():
            yield "q1 Q0 d1 1 1.000000 t\n"
            raise ValueError("bad list")

        with pytest.raises(ValueError, match="bad list"):
            _atomic_write({target: chunks()})
        assert read(target) == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["run.trec"]

    def test_failed_world_pass_keeps_every_file(self, tmp_path, config_path, monkeypatch):
        out = tmp_path / "world"
        assert main(["world", "--config", str(config_path), "--out", str(out)]) == 0
        before = {p.name: read(p) for p in out.iterdir()}
        write_run = core.write_run

        def fail_on_weak(rows, tag):
            if tag == "weak":
                raise ValueError("disk full")
            return write_run(rows, tag)

        monkeypatch.setattr(core, "write_run", fail_on_weak)
        assert main(["world", "--config", str(config_path), "--seed", "5", "--out", str(out)]) == 2
        after = {p.name: read(p) for p in out.iterdir() if p.name != "world_config.json"}
        assert after == {k: v for k, v in before.items() if k != "world_config.json"}

    def test_dataset_write_holds_no_whole_file(self, tmp_path):
        # A dataset of ids is about 3 KB a query: 300 queries make the file
        # large against the writer's one record at a time.
        world = generate_world(WorldConfig(num_queries=300, docs_per_query=50, seed=3))
        dataset = build_teacher_dataset(world.first_stage_run("strong"), depth=50)
        path = tmp_path / "distill_dataset.jsonl"
        tracemalloc.start()
        try:
            _atomic_write({path: core.write_distill_dataset(dataset)})
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert "".join(core.write_distill_dataset(dataset)) == read(path)
        assert peak < path.stat().st_size / 4

    def test_world_run_write_holds_no_whole_file(self, tmp_path):
        world = generate_world(WorldConfig(num_queries=60, docs_per_query=200, seed=3))
        run = world.first_stage_run("strong")
        path = tmp_path / "run_strong.trec"
        tracemalloc.start()
        try:
            _atomic_write({path: core.write_run(run.ranked(), "strong")})
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert "".join(core.write_run(run.ranked(), "strong")) == read(path)
        assert peak < path.stat().st_size / 4


# A world of 2048 queries x 64 docs x 16 features holds 16 MiB of features,
# 8 world slices. The commands read few of them: distillation depth 5,
# hard-negative groups of 8, eval depth 10.
RANGES_CONFIG = dict(
    SMOKE_CONFIG,
    world=dict(SMOKE_CONFIG["world"], num_queries=2048, docs_per_query=64, feature_dim=16),
    sampling={"pool_depth": 50, "num_negatives": 7, "seed": 4},
    distill={"retriever": "strong", "depth": 5},
    stage1=dict(SMOKE_CONFIG["stage1"], max_steps=5),
    stage2=dict(SMOKE_CONFIG["stage2"], max_steps=10),
    eval={"retriever": "strong", "depth": 10, "k": 10},
)


class TestQueryRanges:
    def test_commands_hold_less_than_half_the_world_features(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(RANGES_CONFIG), encoding="utf-8")
        world = RANGES_CONFIG["world"]
        features = world["num_queries"] * world["docs_per_query"] * world["feature_dim"] * 8
        assert features >= 8 * distill_data._SLICE_BYTES
        bound = features / 2
        peaks = {}
        tracemalloc.start()
        try:
            for command in (["world"], ["distill"], ["train", "--stage", "two"]):
                tracemalloc.reset_peak()
                out = tmp_path / command[0]
                assert main([*command, "--config", str(path), "--out", str(out)]) == 0
                peaks[command[0]] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(peak < bound for peak in peaks.values()), (peaks, bound)


def square_unless_negative(x: int) -> int:
    """x squared; a negative x fails with its own line, and -1 fails last."""
    if x == -1:
        time.sleep(0.3)
    if x < 0:
        raise core.ParseError(f"bad item {x}", -x)
    return x * x


def tree(directory: Path) -> dict[str, bytes | None]:
    """The bytes of each file under `directory`, by relative path; None for a directory."""
    return {
        str(path.relative_to(directory)): path.read_bytes() if path.is_file() else None
        for path in sorted(directory.rglob("*"))
    }


class TestWorkerProcesses:
    """Every world-slice consumer and `significance` run their parts with
    `pipeline.map_processes`: one consecutive run of parts per CPU that
    `pipeline.cpu_count` gives, never more runs than parts, and a forked
    worker for each run but the first, which the calling process runs
    itself unless the call says otherwise. One run is never forked. So
    `train` and `ablate` start min(CPUs, parts) - 1 processes a call, and
    `world`, `distill` and `significance`, whose calls leave the first run
    to a worker too, min(CPUs, parts) unless that is 1. A part holds at
    least two full slices (`distill_data.part_ranges`): 20 queries a slice
    cut the smoke world's 200 queries into 5 parts at most and its 120
    train queries into 3."""

    @pytest.fixture()
    def started(self, monkeypatch) -> list[int]:
        """The count of processes started so far, and the smoke world at 20
        queries a slice."""
        count, start = [0], multiprocessing.process.BaseProcess.start

        def counting(process):
            count[0] += 1
            start(process)

        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", counting)
        world = WorldConfig(**SMOKE_CONFIG["world"])
        monkeypatch.setattr(distill_data, "_SLICE_BYTES", slice_bytes(world, 20))
        return count

    def test_results_in_item_order_and_first_failure_raised(self, monkeypatch, started):
        monkeypatch.setattr(pipeline, "cpu_count", lambda: 2)
        assert pipeline.map_processes(square_unless_negative, [3, 1, 2, 5]) == [9, 1, 4, 25]
        assert started == [1]
        # Three runs: -2's worker fails first, but -1 is the first failing item.
        monkeypatch.setattr(pipeline, "cpu_count", lambda: 3)
        with pytest.raises(core.ParseError, match=r"^line 1: bad item -1$") as caught:
            pipeline.map_processes(square_unless_negative, [4, -1, -2])
        assert caught.value.line == 1
        assert started == [3] and multiprocessing.active_children() == []
        # This process's own run fails first: the workers are stopped.
        with pytest.raises(core.ParseError, match=r"^line 3: bad item -3$"):
            pipeline.map_processes(square_unless_negative, [-3, -1, 2])
        assert started == [5] and multiprocessing.active_children() == []
        # Every run in a worker.
        assert pipeline.map_processes(square_unless_negative, [3, 1, 2], here=False) == [9, 1, 4]
        assert started == [8]
        with pytest.raises(core.ParseError, match=r"^line 1: bad item -1$"):
            pipeline.map_processes(square_unless_negative, [4, -1, -2], here=False)
        assert started == [11] and multiprocessing.active_children() == []
        monkeypatch.setattr(pipeline, "cpu_count", lambda: 1)
        assert pipeline.map_processes(square_unless_negative, [3, 1]) == [9, 1]
        assert pipeline.map_processes(square_unless_negative, [3, 1], here=False) == [9, 1]
        assert started == [11]

    def test_closures_and_a_worker_that_dies(self, monkeypatch, started):
        monkeypatch.setattr(pipeline, "cpu_count", lambda: 2)
        offset = 10
        assert pipeline.map_processes(lambda x: x + offset, [1, 2, 3]) == [11, 12, 13]

        def exit_on_two(x):
            if x == 2:
                os._exit(3)
            return x

        with pytest.raises(RuntimeError, match=r"^worker process \d+ ended with exit code 3$"):
            pipeline.map_processes(exit_on_two, [1, 2])
        assert started == [2] and multiprocessing.active_children() == []

    def test_shared_blocks_carry_worker_rows(self, monkeypatch, started):
        monkeypatch.setattr(pipeline, "cpu_count", lambda: 4)
        block = pipeline.shared_empty((5, 3), np.intp)
        assert block.shape == (5, 3) and not block.any()

        def fill(row: int) -> None:
            block[row] = [row, os.getpid(), 7]

        pipeline.map_processes(fill, range(5))
        assert started == [3]
        assert block[:, 0].tolist() == [0, 1, 2, 3, 4] and (block[:, 2] == 7).all()
        # Row 0 is this process's run, rows 1 and 2 one worker's each, and 3 and 4 one.
        pids = block[:, 1].tolist()
        assert pids[0] == os.getpid() and pids[3] == pids[4] and len(set(pids)) == 4
        for shape in ((0,), (0, 4), (3, 0, 2)):
            empty = pipeline.shared_empty(shape)
            assert empty.shape == shape and empty.dtype == np.float64
        pipeline.map_processes(lambda _: None, [])
        assert started == [3]

    def test_without_fork_every_item_runs_here(self, monkeypatch, started):
        monkeypatch.setattr(pipeline, "cpu_count", lambda: 4)
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        private = np.zeros(4)

        def fill(row: int) -> int:
            private[row] = os.getpid()
            return row

        assert pipeline.map_processes(fill, range(4)) == [0, 1, 2, 3]
        assert (private == os.getpid()).all() and started == [0]

    def test_outputs_byte_equal_at_any_cpu_count(self, tmp_path, config_path, monkeypatch, started):
        outputs = {}
        for cpus in (1, 2, 8):
            monkeypatch.setattr(pipeline, "cpu_count", lambda: cpus)
            out = tmp_path / f"cpus{cpus}"
            world, config = out / "world", ["--config", str(config_path)]
            strong, weak = (str(world / f"run_{name}.trec") for name in ("strong", "weak"))
            runs = ["--baseline", weak, "--candidate", strong]
            runs += ["--candidate", str(out / "copy.trec")]
            commands = [  # each with its most parts: full world slices, or run files
                (["world", *config], 5),
                (["distill", *config], 3),
                (["significance", "--qrels", str(world / "qrels.txt"), *runs], 3),
            ]
            for argv, parts in commands:
                if argv[0] == "significance":
                    shutil.copy(strong, out / "copy.trec")
                before = started[0]
                assert main([*argv, "--out", str(out / argv[0])]) == 0
                workers = min(cpus, parts)
                assert started[0] - before == (workers if workers > 1 else 0), (argv[0], cpus)
                assert multiprocessing.active_children() == []
            outputs[cpus] = tree(out)
        assert sorted(outputs[1]) == [
            "copy.trec", "distill", "distill/distill_dataset.jsonl", "significance",
            "significance/significance.jsonl", "significance/significance.txt", "world",
            "world/qrels.txt", "world/run_strong.trec", "world/run_weak.trec",
            "world/world_config.json",
        ]
        assert outputs[1] == outputs[2] == outputs[8]

    @pytest.fixture()
    def ragged_dataset(self, tmp_path, config_path) -> Path:
        """A dataset of the smoke world's train queries in reverse order, its
        lists cut to 20, 7, 1 or 13 docs."""
        assert main(["distill", "--config", str(config_path), "--out", str(tmp_path)]) == 0
        lines = []
        for i, line in enumerate(reversed(read(tmp_path / "distill_dataset.jsonl").splitlines())):
            record = json.loads(line)
            keep = record["passages"][: [20, 7, 1, 13][i % 4]]
            for rank, passage in enumerate(keep, start=1):
                passage["teacher_rank"] = rank
            lines.append(json.dumps(dict(record, passages=keep)))
        path = tmp_path / "ragged.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    def test_train_and_ablate_byte_equal_at_any_cpu_count(
        self, tmp_path, config_path, monkeypatch, started, ragged_dataset
    ):
        """At 10 queries a slice the 120 train queries are 6 parts at most,
        and the 40 validation and 40 test queries 2 each: the training
        lists, then the validation pools and, but for `ablate`, the test
        pools each make one `map_processes` call."""
        world = WorldConfig(**SMOKE_CONFIG["world"])
        monkeypatch.setattr(distill_data, "_SLICE_BYTES", slice_bytes(world, 10))
        config = ["--config", str(config_path)]
        dataset = ["--dataset", str(ragged_dataset)]
        commands = {  # each with the most parts of each of its calls
            "two": ([*TRAIN_TWO, *config], (6, 2, 2)),
            "two-dataset": ([*TRAIN_TWO, *config, *dataset], (6, 2, 2)),
            "single-dataset": (["train", *config, *dataset], (6, 2, 2)),
            "ablate": (["ablate", *config], (6, 2)),
        }
        outputs = {}
        for cpus in (1, 2, 8):
            monkeypatch.setattr(pipeline, "cpu_count", lambda: cpus)
            out = tmp_path / f"cpus{cpus}"
            for name, (argv, calls) in commands.items():
                before = started[0]
                assert main([*argv, "--out", str(out / name)]) == 0
                workers = sum(min(cpus, parts) - 1 for parts in calls)
                assert started[0] - before == workers, (name, cpus)
                assert multiprocessing.active_children() == []
            outputs[cpus] = tree(out)
        assert sorted(outputs[1]) == sorted([
            *commands, "ablate/ablation.jsonl", "ablate/ablation.tsv",
            *(f"{name}/{file}" for name in ("two", "two-dataset") for file in (
                "report_stage1.json", "metrics_stage1.jsonl",
            )),
            *(f"{name}/{file}" for name in ("two", "two-dataset", "single-dataset") for file in (
                "checkpoint.txt", "metrics_distill.jsonl", "report_distill.json",
                "summary.json", "test_per_query.tsv", "test_run.trec",
            )),
        ])
        assert outputs[1] == outputs[2] == outputs[8]
        # The lists of the ragged file are its own, not the world teacher's.
        assert outputs[1]["two/checkpoint.txt"] != outputs[1]["two-dataset/checkpoint.txt"]
        # Without fork, every slice runs here, with the same bytes.
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        before = started[0]
        for name, (argv, _) in commands.items():
            assert main([*argv, "--out", str(tmp_path / "inline" / name)]) == 0
        assert started[0] == before and tree(tmp_path / "inline") == outputs[1]

    @pytest.mark.parametrize("failing", [0, 60, 100])
    def test_failing_slice_surfaces_its_error(
        self, tmp_path, config_path, capsys, monkeypatch, started, ragged_dataset, failing
    ):
        """A slice of this process's run, the first of a worker's, or a later
        one fails: its error is the command's, every worker is joined and
        `--out` is not made."""
        world = WorldConfig(**SMOKE_CONFIG["world"])
        monkeypatch.setattr(distill_data, "_SLICE_BYTES", slice_bytes(world, 10))
        monkeypatch.setattr(pipeline, "cpu_count", lambda: 2)
        generate = distill_data.generate_world

        def fail_on_one(config, queries=None):
            if queries is not None and queries.start == failing:
                raise ArithmeticError(f"no world for {queries}")
            return generate(config, queries)

        monkeypatch.setattr(distill_data, "generate_world", fail_on_one)
        config = ["--config", str(config_path)]
        for argv in ([*TRAIN_TWO, *config], ["train", *config, "--dataset", str(ragged_dataset)]):
            out = tmp_path / "t"
            with pytest.raises(ArithmeticError, match=rf"^no world for range\({failing}, "):
                main([*argv, "--out", str(out)])
            assert not out.exists() and multiprocessing.active_children() == []
        monkeypatch.setattr(pipeline, "cpu_count", lambda: 8)
        with pytest.raises(ArithmeticError, match=rf"^no world for range\({failing}, "):
            main(["ablate", *config, "--out", str(tmp_path / "a")])
        assert not (tmp_path / "a").exists() and multiprocessing.active_children() == []

    def test_malformed_baseline_named_before_a_malformed_candidate(
        self, tmp_path, capsys, monkeypatch, started
    ):
        """The candidate's line 1 is bad too: whichever run fails first,
        the baseline's line is named."""
        monkeypatch.setattr(pipeline, "cpu_count", lambda: 2)
        files = {"base.trec": BAD_RUN, "cand.trec": "garbage\n", "qrels.txt": GOOD_QRELS}
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        base, cand, qrels = (str(tmp_path / name) for name in files)
        out = tmp_path / "out"
        argv = ["significance", "--qrels", qrels, "--baseline", base, "--candidate", cand]
        assert main([*argv, "--out", str(out)]) == 2
        message = "line 2: rank field 'x' is not an integer"
        assert capsys.readouterr().err == f"error: run file {base!r}, {message}\n"
        assert not out.exists()
        assert started == [2] and multiprocessing.active_children() == []

    def test_no_worker_or_part_file_outlives_a_command(
        self, tmp_path, config_path, monkeypatch, started
    ):
        """After a success, a failing worker, a parse error and an unwritable
        `--out`, no worker is alive and `--out` holds no part or temp file."""
        monkeypatch.setattr(pipeline, "cpu_count", lambda: 2)
        out, config = tmp_path / "world", ["--config", str(config_path)]

        def assert_left(directory: Path, names: list[str]) -> None:
            assert sorted(p.name for p in directory.iterdir()) == names
            assert multiprocessing.active_children() == []

        assert main(["world", *config, "--out", str(out)]) == 0
        files = ["qrels.txt", "run_strong.trec", "run_weak.trec", "world_config.json"]
        assert_left(out, files)
        before = {name: read(out / name) for name in files}
        write_run = core.write_run

        def fail_on_weak(rows, tag):
            if tag == "weak":
                raise ValueError("disk full")
            return write_run(rows, tag)

        monkeypatch.setattr(core, "write_run", fail_on_weak)
        assert main(["world", *config, "--seed", "5", "--out", str(out)]) == 2
        assert_left(out, files)
        assert {name: read(out / name) for name in files} == before
        monkeypatch.setattr(core, "write_run", write_run)
        # A directory where the first file goes: the rename fails after the workers.
        blocked = tmp_path / "blocked"
        (blocked / "world_config.json").mkdir(parents=True)
        assert main(["world", *config, "--out", str(blocked)]) == 2
        assert_left(blocked, ["world_config.json"])
        significance = ["significance", "--qrels", str(out / "qrels.txt")]
        significance += ["--baseline", str(out / "run_weak.trec")]
        significance += ["--candidate", str(out / "run_strong.trec")]
        (blocked / "significance.txt").mkdir()
        assert main([*significance, "--out", str(blocked)]) == 2
        assert_left(blocked, ["significance.txt", "world_config.json"])
        (tmp_path / "bad.trec").write_text(BAD_RUN)
        bad = [*significance[:-1], str(tmp_path / "bad.trec")]
        assert main([*bad, "--out", str(tmp_path / "sig")]) == 2
        assert not (tmp_path / "sig").exists()
        assert multiprocessing.active_children() == []
        assert started[0] == 10  # two workers for each of five commands

    def test_failed_rename_puts_back_every_renamed_file(self, tmp_path, config_path, capsys):
        """The last file's rename fails: the files renamed before it get their
        old bytes back, and a file that was not there is removed."""
        out, config = tmp_path / "out", ["--config", str(config_path)]
        assert main(["world", *config, "--seed", "5", "--out", str(out)]) == 0
        (out / "qrels.txt").unlink()
        (out / "run_weak.trec").unlink()
        (out / "run_weak.trec").mkdir()
        before = tree(out)
        assert main(["world", *config, "--out", str(out)]) == 2
        assert "error: [Errno 21] Is a directory" in capsys.readouterr().err
        assert tree(out) == before


class TestModuleEntry:
    def test_python_m_ltrlab_help(self):
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        done = subprocess.run(
            [sys.executable, "-m", "ltrlab", "--help"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("usage: ltrlab")

    def test_no_command_imports_scipy(self, tmp_path, config_path):
        """`train`, `eval` and `significance` run on numpy alone: after each,
        one process holds no `scipy*` module."""
        src = Path(__file__).resolve().parent.parent / "src"
        world = tmp_path / "world"
        strong, weak = (str(world / f"run_{name}.trec") for name in ("strong", "weak"))
        qrels = ["--qrels", str(world / "qrels.txt")]
        commands = [
            ["world", "--config", str(config_path), "--out", str(world)],
            [*TRAIN_TWO, "--config", str(config_path), "--out", str(tmp_path / "train")],
            ["eval", "--run", strong, *qrels, "--out", str(tmp_path / "eval")],
            ["significance", *qrels, "--baseline", weak, "--candidate", strong,
             "--out", str(tmp_path / "significance")],
        ]
        script = (
            "import json, sys\n"
            "import ltrlab.cli\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    assert ltrlab.cli.main(argv) == 0, argv\n"
            "    loaded = sorted(m for m in sys.modules if m.startswith('scipy'))\n"
            "    assert not loaded, (argv[0], loaded)\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", script, json.dumps(commands)],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(src)), timeout=300,
        )
        assert done.returncode == 0, done.stderr
        assert (tmp_path / "significance" / "significance.jsonl").is_file()


class TestSignificanceCommand:
    def test_identical_runs_no_rejections(self, tmp_path, capsys):
        run_text = "q1 Q0 dA 1 3.0 t\nq2 Q0 dB 1 2.0 t\nq3 Q0 dC 1 2.0 t\n"
        base = tmp_path / "base.trec"
        cand = tmp_path / "cand.trec"
        base.write_text(run_text)
        cand.write_text(run_text)
        qrels = tmp_path / "qrels.txt"
        qrels.write_text("q1 0 dA 1\nq2 0 dB 1\nq3 0 dC 1\n")
        out = tmp_path / "out"
        code = main(
            [
                "significance",
                "--qrels",
                str(qrels),
                "--baseline",
                str(base),
                "--candidate",
                str(cand),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        record = json.loads(read(out / "significance.jsonl").splitlines()[0])
        assert record["reject"] is False
        assert "retain" in read(out / "significance.txt")

    def test_pairs_on_the_queries_of_the_qrels(self, tmp_path, capsys):
        """The candidate lacks q2, which it scores 0 on: the pair is (1, 1), (1, 0)."""
        base, cand, qrels = (tmp_path / name for name in ("base.trec", "cand.trec", "qrels.txt"))
        base.write_text("q1 Q0 d1 1 1.0 t\nq2 Q0 d2 1 1.0 t\n")
        cand.write_text("q1 Q0 d1 1 1.0 t\n")
        qrels.write_text("q1 0 d1 1\nq2 0 d2 1\n")
        out = tmp_path / "out"
        argv = ["significance", "--qrels", str(qrels), "--baseline", str(base)]
        assert main(argv + ["--candidate", str(cand), "--out", str(out)]) == 0
        text = (
            "baseline: base  alpha: 0.05\n"
            "system  queries          t          p  decision\n"
            "cand          2    -1.0000     0.5000  retain\n"
        )
        assert capsys.readouterr().out.endswith(f"}}\n{text}")
        assert sorted(p.name for p in out.iterdir()) == ["significance.jsonl", "significance.txt"]
        assert read(out / "significance.txt") == text
        assert read(out / "significance.jsonl") == (
            '{"baseline":"base","system":"cand","num_queries":2,"t_stat":-1.0,'
            '"p_value":0.5000000000000004,"alpha":0.05,"reject":false}\n'
        )

    def refused(self, tmp_path, capsys, base_text, cand_text, qrels_text) -> tuple[str, Path]:
        """stderr of a `significance` run on these files, which must exit 2
        without writing `--out`; and the tmp_path the files are in."""
        base, cand, qrels = (tmp_path / name for name in ("base.trec", "cand.trec", "qrels.txt"))
        base.write_text(base_text)
        cand.write_text(cand_text)
        qrels.write_text(qrels_text)
        out = tmp_path / "out"
        argv = ["significance", "--qrels", str(qrels), "--baseline", str(base)]
        assert main(argv + ["--candidate", str(cand), "--out", str(out)]) == 2
        assert not out.exists()
        return capsys.readouterr().err, tmp_path

    def test_empty_runs_are_data_error(self, tmp_path, capsys):
        err, d = self.refused(tmp_path, capsys, "", "", "q1 0 dA 1\nq2 0 dB 1\n")
        assert err == f"error: run file {str(d / 'base.trec')!r} contains no queries\n"

    def test_empty_candidate_is_data_error(self, tmp_path, capsys):
        run = "q1 Q0 dA 1 1.0 t\nq2 Q0 dB 1 1.0 t\n"
        err, d = self.refused(tmp_path, capsys, run, "\n \n", "q1 0 dA 1\nq2 0 dB 1\n")
        assert err == f"error: run file {str(d / 'cand.trec')!r} contains no queries\n"

    @pytest.mark.parametrize("qrels_text", ["", "q1 0 dA 1\n", "q1 0 dA 1\nq1 0 dB 0\n"])
    def test_qrels_of_fewer_than_two_queries_is_data_error(self, tmp_path, capsys, qrels_text):
        run = "q1 Q0 dA 1 1.0 t\nq2 Q0 dB 1 1.0 t\n"
        err, d = self.refused(tmp_path, capsys, run, run, qrels_text)
        assert err == (
            f"error: qrels file {str(d / 'qrels.txt')!r} contains fewer than 2 queries\n"
        )

    def test_qrels_checked_before_a_malformed_run(self, tmp_path, capsys):
        err, d = self.refused(tmp_path, capsys, "garbage line\n", "", "q1 0 dA 1\n")
        assert err == (
            f"error: qrels file {str(d / 'qrels.txt')!r} contains fewer than 2 queries\n"
        )

    def test_duplicate_system_name_refused_before_any_file_is_read(self, tmp_path, capsys):
        """Runs with the same file stem in two directories: no file exists."""
        out = tmp_path / "out"
        argv = ["significance", "--qrels", str(tmp_path / "nope.txt")]
        argv += ["--baseline", str(tmp_path / "a" / "run.trec")]
        argv += ["--candidate", str(tmp_path / "b.trec"), "--candidate", str(tmp_path / "run.txt")]
        assert main(argv + ["--out", str(out)]) == 2
        message = "duplicate system name 'run'; rename the run files"
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_no_candidate_is_usage_error(self, tmp_path, capsys):
        """Refused before any file is read: neither the qrels nor the baseline exists."""
        out = tmp_path / "out"
        argv = ["significance", "--qrels", str(tmp_path / "nope.txt")]
        argv += ["--baseline", str(tmp_path / "base.trec"), "--out", str(out)]
        assert main(argv) == 1
        assert capsys.readouterr().err == "usage error: at least one --candidate is required\n"
        assert not out.exists()


MISSING = "<missing file>"
EVAL = ["eval", "--run", MISSING, "--qrels", MISSING]
SIGNIFICANCE = ["significance", "--qrels", MISSING, "--baseline", MISSING, "--candidate", MISSING]


@pytest.mark.parametrize(
    "argv, message",
    [
        (EVAL + ["--k", "0"], "cutoff k must be >= 1"),
        (EVAL + ["--k", "-3"], "cutoff k must be >= 1"),
        (SIGNIFICANCE + ["--k", "0"], "cutoff k must be >= 1"),
        (SIGNIFICANCE + ["--alpha", "0"], "alpha must lie in (0, 1)"),
        (SIGNIFICANCE + ["--alpha", "1"], "alpha must lie in (0, 1)"),
        (SIGNIFICANCE + ["--alpha", "nan"], "alpha must lie in (0, 1)"),
        (SIGNIFICANCE[:5] + ["--alpha", "-0.5"], "alpha must lie in (0, 1)"),  # no candidate
    ],
)
def test_bad_flag_is_named_before_any_file_is_read(tmp_path, capsys, argv, message):
    """The run and qrels files do not exist: the flag is still the error,
    and `--out` is left as it was."""
    out = tmp_path / "out"
    out.mkdir()
    (out / "keep.txt").write_text("old\n")
    argv = [str(tmp_path / "nope.trec") if a == MISSING else a for a in argv]
    assert main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert [p.name for p in out.iterdir()] == ["keep.txt"]
    assert read(out / "keep.txt") == "old\n"


GOOD_RUN, BAD_RUN = "q1 Q0 a 1 1.0 t\nq2 Q0 b 1 1.0 t\n", "q1 Q0 a 1 1.0 t\nq1 Q0 b x 1.0 t\n"
GOOD_QRELS, BAD_QRELS = "q1 0 a 1\nq2 0 b 1\n", "q1 0 a 1\nq2 0 b\n"


@pytest.mark.parametrize(
    "command, bad, message",
    [
        ("eval", "cand.trec", "rank field 'x' is not an integer"),
        ("eval", "qrels.txt", "expected 4 fields, got 3"),
        ("significance", "cand.trec", "rank field 'x' is not an integer"),
        ("significance", "base.trec", "rank field 'x' is not an integer"),
        ("significance", "qrels.txt", "expected 4 fields, got 3"),
    ],
)
def test_parse_error_names_the_file(tmp_path, capsys, command, bad, message):
    """A malformed line of any input file is named with the file's kind and
    path; the exit status stays 2 and `--out` is not written."""
    bad_text = BAD_QRELS if bad == "qrels.txt" else BAD_RUN
    assert refused_on_line_2(tmp_path, capsys, command, bad, bad_text.encode()) == message


@pytest.mark.parametrize(
    "command, bad", [("eval", "cand.trec"), ("eval", "qrels.txt"), ("significance", "cand.trec")]
)
def test_non_utf8_line_names_the_file(tmp_path, capsys, command, bad):
    """A 0xff byte in the doc id of line 2 is named as a malformed line is."""
    good = GOOD_QRELS if bad == "qrels.txt" else GOOD_RUN
    bad_bytes = good.encode().replace(b" b ", b" b\xff ")
    assert refused_on_line_2(tmp_path, capsys, command, bad, bad_bytes) == "not UTF-8 text"


def refused_on_line_2(tmp_path, capsys, command, bad, bad_bytes) -> str:
    """`command` on good files but for file `bad`, which holds `bad_bytes`:
    it exits 2, writes no `--out`, and the error names the file's kind, its
    path and line 2. Returns the rest of the error."""
    files = {"base.trec": GOOD_RUN, "cand.trec": GOOD_RUN, "qrels.txt": GOOD_QRELS}
    for name, text in files.items():
        (tmp_path / name).write_bytes(bad_bytes if name == bad else text.encode())
    path = {name: str(tmp_path / name) for name in files}
    argv = [command, "--qrels", path["qrels.txt"], "--out", str(tmp_path / "out")]
    if command == "eval":
        argv += ["--run", path["cand.trec"]]
    else:
        argv += ["--baseline", path["base.trec"], "--candidate", path["cand.trec"]]
    assert main(argv) == 2
    assert not (tmp_path / "out").exists()
    kind = "qrels file" if bad == "qrels.txt" else "run file"
    err = capsys.readouterr().err
    prefix = f"error: {kind} {path[bad]!r}, line 2: "
    assert err.startswith(prefix) and err.endswith("\n") and err.count("\n") == 1
    return err[len(prefix) : -1]


def ltrlab_process(argv: list[str], cwd: Path) -> subprocess.CompletedProcess:
    """`python -m ltrlab` with `argv`, run in `cwd`."""
    src = Path(__file__).resolve().parent.parent / "src"
    return subprocess.run(
        [sys.executable, "-m", "ltrlab", *argv], cwd=cwd, capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(src)), timeout=120,
    )


RUN = "q1 Q0 a 1 3.0 t\nq1 Q0 b 2 2.0 t\nq1 Q0 c 3 1.0 t\nq2 Q0 a 1 1.0 t\n"
EVAL_FILES = ["eval", "--run", "run.trec", "--qrels", "qrels.txt"]
SIGNIFICANCE_FILES = ["significance", "--qrels", "qrels.txt", "--baseline", "run.trec",
                      "--candidate", "cand.trec"]
TRAIN_EMPTY = ["train", "--config", "smoke.json", "--loss", "ranknet", "--dataset", "empty.jsonl"]
JSON_ERROR = "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"
UTF8_ERROR = "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"


@pytest.mark.parametrize(
    "files, argv, status, message",
    [
        ({"qrels.txt": "q1 0 a 1\nq1 0 b 5000\n"}, EVAL_FILES, 2,
         "error: qrels file 'qrels.txt', line 2: grade 5000 exceeds 512"),
        ({"qrels.txt": "q1 0 a 1023\nq1 0 b 1023\nq1 0 c 1023\n"}, EVAL_FILES, 2,
         "error: qrels file 'qrels.txt', line 1: grade 1023 exceeds 512"),
        ({"qrels.txt": "q1 0 a 1\nq2 0 a 5000\n"}, SIGNIFICANCE_FILES, 2,
         "error: qrels file 'qrels.txt', line 2: grade 5000 exceeds 512"),
        ({"qrels.txt": "q1 0 a 1\nq1 0 b 1_0\n"}, EVAL_FILES, 2,
         "error: qrels file 'qrels.txt', line 2: grade field '1_0' is not an integer"),
        ({"qrels.txt": "q1 0 a 1\nq2 0 a 1\n", "cand.trec": RUN.replace("2.0", "1_5.5")},
         SIGNIFICANCE_FILES, 2,
         "error: run file 'cand.trec', line 2: score field '1_5.5' is not a number"),
        ({"config.json": "{x}"}, ["world", "--config", "config.json"], 2,
         f"error: config file 'config.json' is not UTF-8 JSON: {JSON_ERROR}"),
        ({"config.json": b"\xff{}"}, ["distill", "--config", "config.json"], 2,
         f"error: config file 'config.json' is not UTF-8 JSON: {UTF8_ERROR}"),
        ({"config.json": "[]"}, ["world", "--config", "config.json"], 2,
         "error: config file 'config.json' must contain a JSON object"),
        ({"empty.jsonl": ""}, TRAIN_EMPTY + ["--stage", "two"], 2,
         "error: dataset 'empty.jsonl' contains no lists"),
        ({"empty.jsonl": "\n\n"}, TRAIN_EMPTY + ["--stage", "single"], 2,
         "error: dataset 'empty.jsonl' contains no lists"),
        ({}, ["bench", "--system", "x,pointwise"], 1, "usage error: --system needs "
         "name,kind,per_call_latency,memory_gb[,window,stride]; got 'x,pointwise'"),
    ],
    ids=["grade-5000", "grades-1023", "significance-grade", "grade-underscore",
         "score-underscore", "config-not-json",
         "config-not-utf8", "config-not-object", "empty-dataset-two", "empty-dataset-single",
         "bad-system"],
)
def test_bad_input_is_one_line_naming_it(tmp_path, files, argv, status, message):
    """Each bad input exits with its documented status and one line on
    stderr that names it, never a traceback, and writes nothing."""
    files = {"run.trec": RUN, "cand.trec": RUN, "smoke.json": json.dumps(SMOKE_CONFIG), **files}
    for name, content in files.items():
        (tmp_path / name).write_bytes(content if isinstance(content, bytes) else content.encode())
    done = ltrlab_process(argv + ["--out", "out"], tmp_path)
    assert (done.returncode, done.stderr) == (status, message + "\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("k", [2**63, 2**64])
def test_cutoff_past_int64_is_no_cut(tmp_path, k):
    """A --k that no int64 holds scores every entry, as a --k of their count does."""
    (tmp_path / "run.trec").write_text(RUN)
    (tmp_path / "qrels.txt").write_text("q1 0 c 2\nq2 0 a 1\n")
    (tmp_path / "cand.trec").write_text(RUN.replace("3.0", "0.5"))
    summaries = []
    for cutoff in (k, 4):
        done = ltrlab_process(EVAL_FILES + ["--k", str(cutoff), "--out", f"eval{cutoff}"], tmp_path)
        assert (done.returncode, done.stderr) == (0, "")
        summary = json.loads(read(tmp_path / f"eval{cutoff}" / "eval_summary.json"))
        summaries.append(summary.pop("mean"))
        assert summary["metric"] == f"nDCG@{cutoff}"
        argv = SIGNIFICANCE_FILES + ["--k", str(cutoff), "--out", f"sig{cutoff}"]
        done = ltrlab_process(argv, tmp_path)
        assert (done.returncode, done.stderr) == (0, "")
        summaries.append(read(tmp_path / f"sig{cutoff}" / "significance.jsonl"))
    assert summaries[:2] == summaries[2:]


def run_columns(run: core.ParsedRun) -> list[list[tuple[str, str]]]:
    """Each query's (doc, score bits) entries, from a ParsedRun's columns."""
    bounds = run.offsets.tolist()
    return [
        list(zip(run.docs[lo:hi], map(float.hex, run.scores[lo:hi].tolist())))
        for lo, hi in zip(bounds, bounds[1:])
    ]


class TestRunsParsedToK:
    """`eval` and `significance` parse each run to their --k, and score it
    as they would the full parse."""

    # A run in the shape ltrlab writes, whose ties cross the 1st and 2nd
    # entries: only the doc-id order of q1's three docs at 1 puts its judged
    # b in the top 2, and q2's four zeros, -0.0 among them, tie.
    TIED = (
        "q1 Q0 a 1 3 t\nq1 Q0 z 2 1 t\nq1 Q0 y 3 1 t\nq1 Q0 b 4 1 t\nq1 Q0 c 5 0.5 t\n"
        "q2 Q0 d 1 -0.0 t\nq2 Q0 c 2 0.0 t\nq2 Q0 b 3 0 t\nq2 Q0 a 4 -0 t\n"
        "q3 Q0 x 1 2 t\nq3 Q0 w 2 2 t\n"
    )
    # q1's lines in two groups, and scores that rise.
    UNGROUPED = "q1 Q0 z 1 1 t\nq2 Q0 a 1 5 t\nq1 Q0 b 2 1 t\nq1 Q0 a 3 4 t\nq2 Q0 b 2 6 t\n"
    QRELS = "q1 0 b 1\nq2 0 b 2\nq2 0 a 1\nq3 0 w 1\n"

    def run_both(self, tmp_path, k) -> tuple[Path, Path]:
        """`eval` of TIED, `significance` of UNGROUPED against TIED, at --k k;
        their output directories."""
        files = {"base.trec": self.UNGROUPED, "cand.trec": self.TIED, "qrels.txt": self.QRELS}
        for name, text in files.items():
            (tmp_path / name).write_text(text, encoding="utf-8")
        base, cand, qrels = (str(tmp_path / name) for name in files)
        outs = tmp_path / "eval", tmp_path / "significance"
        argv = ["eval", "--run", cand, "--qrels", qrels, "--k", str(k), "--out", str(outs[0])]
        assert main(argv) == 0
        argv = ["significance", "--qrels", qrels, "--baseline", base, "--candidate", cand]
        assert main(argv + ["--k", str(k), "--out", str(outs[1])]) == 0
        return outs

    @pytest.mark.parametrize("k", [1, 2, 3, 10])
    def test_each_query_holds_its_first_k_entries(self, tmp_path, monkeypatch, k):
        """The spy logs each parse to a file, which the worker processes of
        `significance` inherit: the run file's name, the depth and the columns."""
        parse, log = core.parse_run, tmp_path / "parsed.jsonl"

        def spy(source, depth=None):
            run = parse(source, depth)
            entry = [Path(source.name).name, depth, run.queries, run_columns(run)]
            with open(log, "a", encoding="utf-8") as f:
                f.write(json.dumps(entry) + "\n")
            return run

        monkeypatch.setattr(core, "parse_run", spy)
        self.run_both(tmp_path, k)
        # eval's parse, then significance's, which its workers may log in any order.
        first, *rest = (json.loads(line) for line in read(log).splitlines())
        parsed = [first, *sorted(rest)]
        names = ["cand.trec", "base.trec", "cand.trec"]
        assert [(name, depth) for name, depth, _, _ in parsed] == [(name, k) for name in names]
        for (_, _, queries, columns), text in zip(parsed, (self.TIED, self.UNGROUPED, self.TIED)):
            full = parse(text)
            assert queries == list(full.queries)
            assert columns == [[list(e) for e in entries[:k]] for entries in run_columns(full)]

    @pytest.mark.parametrize("k", [1, 2, 3, 10])
    def test_outputs_equal_a_full_parse(self, tmp_path, k):
        out_eval, out_significance = self.run_both(tmp_path, k)
        qrels = core.parse_qrels(self.QRELS)
        scores = {
            name: cli._ndcg_by_query(core.parse_run(text), qrels, k)
            for name, text in (("base", self.UNGROUPED), ("cand", self.TIED))
        }
        if k == 2:  # the tie at the cut decides q1's score
            assert scores["cand"]["q1"] > 0
        metric = f"nDCG@{k}"
        assert read(out_eval / "per_query.tsv") == per_query_scores_text(scores["cand"], metric)
        report = significance_report(scores, "base", 0.05)
        assert read(out_significance / "significance.jsonl") == report.to_jsonl()

    def test_duplicate_past_the_cut_names_its_line(self, tmp_path, capsys):
        """q1's second group repeats its doc a, below the top 1."""
        run = "q1 Q0 a 1 3 t\nq2 Q0 a 1 3 t\nq1 Q0 b 2 2 t\nq1 Q0 c 3 1 t\n\nq1 Q0 a 4 0.5 t\n"
        out = tmp_path / "out"
        argv = eval_argv(tmp_path, run, self.QRELS)
        assert main(argv + ["--k", "1", "--out", str(out)]) == 2
        message = "line 6: duplicate entry for query 'q1' doc 'a'"
        assert capsys.readouterr().err == f"error: run file {argv[2]!r}, {message}\n"
        assert not out.exists()


class TestBenchCommand:
    def test_window_arithmetic_and_ratios(self, tmp_path, capsys):
        out = tmp_path / "bench"
        code = main(
            [
                "bench",
                "--depth",
                "100",
                "--system",
                "point,pointwise,0.215,2.69",
                "--system",
                "windowed,window,2.6719,15.48,20,10",
                "--baseline",
                "point",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        rows = [json.loads(line) for line in read(out / "bench.jsonl").splitlines()]
        windowed = next(r for r in rows if r["strategy"] == "windowed")
        assert windowed["calls"] == 9
        assert windowed["scorings"] == 180

    def test_requires_a_system(self):
        assert main(["bench", "--depth", "100"]) == 1

    @pytest.mark.parametrize(
        "spec, message",
        [
            (
                "broken",
                "--system needs name,kind,per_call_latency,memory_gb[,window,stride]; "
                "got 'broken'",
            ),
            ("a,window,x,1", "bad numbers in --system 'a,window,x,1'"),
            ("a,window,1,1,x,y", "bad numbers in --system 'a,window,1,1,x,y'"),
            ("a,pointwise,nan,1", "bad numbers in --system 'a,pointwise,nan,1'"),
            ("a,pointwise,1,NaN", "bad numbers in --system 'a,pointwise,1,NaN'"),
            ("a,pointwise,Infinity,1", "bad numbers in --system 'a,pointwise,Infinity,1'"),
            ("a,window,1,-inf,20,10", "bad numbers in --system 'a,window,1,-inf,20,10'"),
            ("a,pointwise,-1,1", "bad numbers in --system 'a,pointwise,-1,1'"),
        ],
    )
    def test_bad_system_spec_is_usage_error(self, capsys, spec, message):
        assert main(["bench", "--system", spec]) == 1
        assert capsys.readouterr().err == f"usage error: {message}\n"


class TestPipelineSmoke:
    def test_world_then_distill_then_train_then_eval(self, tmp_path, config_path):
        start = time.time()
        world_dir = tmp_path / "world"
        assert main(["world", "--config", str(config_path), "--out", str(world_dir)]) == 0
        assert (world_dir / "qrels.txt").exists()
        assert (world_dir / "run_strong.trec").exists()
        assert (world_dir / "run_weak.trec").exists()
        world_cfg = json.loads(read(world_dir / "world_config.json"))
        assert world_cfg["num_queries"] == 200

        distill_dir = tmp_path / "distill"
        assert main(["distill", "--config", str(config_path), "--out", str(distill_dir)]) == 0
        dataset_lines = read(distill_dir / "distill_dataset.jsonl").splitlines()
        assert len(dataset_lines) == 120  # train split of 200 queries
        first = json.loads(dataset_lines[0])
        assert len(first["passages"]) == 20

        train_dir = tmp_path / "train"
        assert (
            main(
                [
                    "train",
                    "--config",
                    str(config_path),
                    "--stage",
                    "two",
                    "--dataset",
                    str(distill_dir / "distill_dataset.jsonl"),
                    "--out",
                    str(train_dir),
                ]
            )
            == 0
        )
        assert (train_dir / "checkpoint.txt").exists()
        assert (train_dir / "report_stage1.json").exists()
        assert (train_dir / "report_distill.json").exists()
        summary = json.loads(read(train_dir / "summary.json"))
        assert summary["mean_test_ndcg10"] > 0.5  # separable world, near-oracle teacher

        # eval averages over the queries of its qrels: here those of the test split.
        test_run = read(train_dir / "test_run.trec")
        test_queries = {line.split()[0] for line in test_run.splitlines()}
        qrels = read(world_dir / "qrels.txt").splitlines()
        qrels = [line for line in qrels if line.split()[0] in test_queries]
        eval_dir = tmp_path / "eval"
        assert main(eval_argv(tmp_path, test_run, "\n".join(qrels)) + ["--out", str(eval_dir)]) == 0
        eval_summary = json.loads(read(eval_dir / "eval_summary.json"))
        assert eval_summary["mean"] == pytest.approx(summary["mean_test_ndcg10"], abs=1e-9)
        assert eval_summary["num_queries"] == len(test_queries) == 40
        assert eval_summary["missing_queries"] == eval_summary["extra_queries"] == 0
        assert time.time() - start < 300  # end-to-end budget on one core

    def test_single_stage_infonce(self, tmp_path, config_path):
        out = tmp_path / "t"
        code = main(
            [
                "train",
                "--config",
                str(config_path),
                "--stage",
                "single",
                "--loss",
                "infonce",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert (out / "report_stage1.json").exists()
        assert not (out / "report_distill.json").exists()

    def test_reports_hold_four_keys_and_metrics_the_curves(self, tmp_path, config_path):
        out = tmp_path / "t"
        argv = ["train", "--config", str(config_path), "--stage", "two", "--out", str(out)]
        assert main(argv) == 0
        keys = {"steps_executed", "stop_reason", "best_validation_ndcg10", "step_of_best"}
        tags = ("stage1", "distill")
        reports = {tag: json.loads(read(out / f"report_{tag}.json")) for tag in tags}
        assert {tag: set(report) for tag, report in reports.items()} == dict.fromkeys(reports, keys)
        metrics = [json.loads(line) for line in read(out / "metrics_stage1.jsonl").splitlines()]
        max_steps = SMOKE_CONFIG["stage1"]["max_steps"]
        assert reports["stage1"]["steps_executed"] == max_steps
        assert [sorted(m) for m in metrics] == [["loss", "step"]] * max_steps
        assert [m["step"] for m in metrics] == list(range(1, max_steps + 1))

    def test_single_stage_infonce_builds_no_validation_set(
        self, tmp_path, config_path, monkeypatch
    ):
        argv = ["train", "--config", str(config_path), "--stage", "single", "--loss", "infonce"]
        assert main(argv + ["--out", str(tmp_path / "a")]) == 0

        built, real = [], pipeline.range_pools

        def recording(config, retriever, queries, depth):
            built.append(queries)
            return real(config, retriever, queries, depth)

        monkeypatch.setattr(pipeline, "range_pools", recording)
        assert main(argv + ["--out", str(tmp_path / "b")]) == 0
        cfg = load_experiment_config(str(config_path), argparse.Namespace())
        assert built == [pipeline.query_ranges(cfg.world.num_queries, cfg.split)["test"]]
        names = sorted(p.name for p in (tmp_path / "a").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
        for name in names:
            assert read(tmp_path / "a" / name) == read(tmp_path / "b" / name), name

    def test_two_stage_with_infonce_is_usage_error(self, config_path, tmp_path):
        code = main(
            [
                "train",
                "--config",
                str(config_path),
                "--stage",
                "two",
                "--loss",
                "infonce",
                "--out",
                str(tmp_path / "x"),
            ]
        )
        assert code == 1

    @pytest.mark.parametrize("where", ["flag", "config"])
    def test_dataset_with_infonce_is_usage_error(self, tmp_path, capsys, monkeypatch, where):
        """Loss infonce, from `--loss` or from `stage2.loss`, distils nothing:
        `--dataset` is refused before the dataset or any world slice is read."""
        dataset, out = tmp_path / "dataset.jsonl", tmp_path / "o"
        dataset.write_text("not json\n")
        argv = ["train", "--dataset", str(dataset), "--out", str(out)]
        if where == "flag":
            config = SMOKE_CONFIG
            argv += ["--loss", "infonce"]
        else:
            config = dict(SMOKE_CONFIG, stage2=dict(SMOKE_CONFIG["stage2"], loss="infonce"))
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        monkeypatch.setattr(distill_data, "generate_world", no_world)
        assert main(argv + ["--config", str(path)]) == 1
        message = "--dataset needs a distillation loss; loss 'infonce' trains stage 1 only"
        assert capsys.readouterr().err == f"usage error: {message}\n"
        assert not out.exists()

    def test_ranks_the_test_block_once(self, tmp_path, config_path, monkeypatch):
        """One ranking of the test pools gives both test_run.trec and the nDCG."""
        ranked = []
        rank = trainer.PoolBlock.rank

        def counting_rank(block, model):
            ranked.append(block.queries)
            return rank(block, model)

        monkeypatch.setattr(trainer.PoolBlock, "rank", counting_rank)
        argv = ["train", "--config", str(config_path), "--stage", "two"]
        assert main(argv + ["--out", str(tmp_path / "o")]) == 0
        test_queries = tuple(f"q{i}" for i in range(160, 200))
        assert ranked.count(test_queries) == 1
        assert len(ranked) > 1  # the validation passes rank their own block

    def test_commands_build_no_scored_list(self, tmp_path, config_path, monkeypatch):
        """Runs are written from and read into columns, never as ScoredLists."""

        def refuse(ranking):
            raise AssertionError(f"a ScoredList was built for query {ranking.query!r}")

        monkeypatch.setattr(core.ScoredList, "__post_init__", refuse)
        world, train = tmp_path / "world", tmp_path / "train"
        common = ["--config", str(config_path)]
        assert main(["world", *common, "--out", str(world)]) == 0
        assert main(["train", *common, "--stage", "two", "--out", str(train)]) == 0
        qrels, test_run = str(world / "qrels.txt"), str(train / "test_run.trec")
        argv = ["eval", "--run", test_run, "--qrels", qrels, "--out", str(tmp_path / "e")]
        assert main(argv) == 0
        runs = ["--baseline", str(world / "run_weak.trec"), "--candidate", test_run]
        argv = ["significance", "--qrels", qrels, *runs, "--out", str(tmp_path / "s")]
        assert main(argv) == 0

    def test_reproducible_byte_identical(self, tmp_path, config_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert (
                main(
                    [
                        "train",
                        "--config",
                        str(config_path),
                        "--stage",
                        "single",
                        "--loss",
                        "adr-mse",
                        "--out",
                        str(out),
                    ]
                )
                == 0
            )
        files_a = sorted(p.name for p in out_a.iterdir())
        files_b = sorted(p.name for p in out_b.iterdir())
        assert files_a == files_b
        for name in files_a:
            assert read(out_a / name) == read(out_b / name), name

    def test_resolved_config_printed(self, capsys, tmp_path, config_path):
        main(["world", "--config", str(config_path), "--out", str(tmp_path / "w")])
        out = capsys.readouterr().out
        assert "resolved config" in out
        assert '"num_queries": 200' in out


TRAIN_TWO = ["train", "--stage", "two"]
UNKNOWN_RETRIEVER = "bad config section %r: unknown retriever 'nope'; have ('strong', 'weak')"
DEPTH_EXCEEDS_POOL = "bad config section 'distill': depth 50 exceeds world.docs_per_query 40"
EVAL_DEPTH_EXCEEDS_POOL = "bad config section 'eval': depth 500 exceeds world.docs_per_query 40"

# How the type rule names the kind of each scalar type hint, alone and in a
# list or object, and JSON values of another kind for each.
KIND_NAMES = {
    int: ("an integer", "integers"),
    float: ("a number", "numbers"),
    str: ("a string", "strings"),
}
WRONG_SCALARS = {int: [True, "1", 2.5], float: [True, "1"], str: [5, True]}


def wrong_kinds() -> list[tuple[str, str, object, str]]:
    """(section, key, wrong JSON value, kind named) for every field of every
    config section, from the type hints of ExperimentConfig."""
    cases = []
    for section, cls in typing.get_type_hints(ExperimentConfig).items():
        if dataclasses.is_dataclass(cls):
            fields = typing.get_type_hints(cls)
        else:  # the split: one number per split name
            fields = dict.fromkeys(SMOKE_CONFIG[section], typing.get_args(cls)[1])
        for key, hint in fields.items():
            origin, args = typing.get_origin(hint), typing.get_args(hint)
            if origin is tuple:
                kind, values = f"a list of {KIND_NAMES[args[0]][1]}", [5, [1, "1"], [True]]
            elif origin is not None:
                kind = f"an object of {KIND_NAMES[args[1]][1]}"
                values = [5, [0.5], {"strong": "1"}, {"strong": 0.5, "weak": True}]
            else:
                kind, values = KIND_NAMES[hint][0], WRONG_SCALARS[hint]
            cases += [(section, key, value, kind) for value in values]
    return cases


def no_world(*args, **kwargs):
    raise AssertionError("world generated before the config was checked")


class TestConfigHandling:
    def test_unknown_top_level_key_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"wornd": {}}))
        assert main(["world", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2

    def test_unknown_section_key_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"world": {"num_queries": 10, "pool": 5}}))
        assert main(["world", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2

    def test_seed_flag_overrides_all_seeds(self, tmp_path, config_path, capsys):
        main(
            [
                "world",
                "--config",
                str(config_path),
                "--seed",
                "99",
                "--out",
                str(tmp_path / "w"),
            ]
        )
        out = capsys.readouterr().out
        assert '"seed": 99' in out

    def test_split_key_order_moves_no_query(self, tmp_path):
        """The splits are laid out train, validation, test whatever the key
        order of the file, so both orders train and test on the same queries."""
        world = generate_world(WorldConfig(**SMOKE_CONFIG["world"]))
        canonical = SMOKE_CONFIG["split"]
        reordered = {name: canonical[name] for name in ("test", "train", "validation")}
        splits, outs = [], []
        for name, split in [("canonical", canonical), ("reordered", reordered)]:
            path, out = tmp_path / f"{name}.json", tmp_path / name
            path.write_text(json.dumps(dict(SMOKE_CONFIG, split=split)), encoding="utf-8")
            cfg = load_experiment_config(str(path), argparse.Namespace())
            splits.append(pipeline.split_query_ids(world.query_ids, cfg.split))
            argv = ["train", "--config", str(path), "--stage", "single", "--out", str(out)]
            assert main(argv) == 0
            outs.append(out)
        assert splits[0] == splits[1]
        assert splits[0]["train"] == world.query_ids[:120]
        names = sorted(p.name for p in outs[0].iterdir())
        assert names == sorted(p.name for p in outs[1].iterdir())
        for name in names:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name

    def test_invalid_json_config(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert main(["world", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize(
        "split, message",
        [
            ({"train": 0.8, "test": 0.2}, "config section 'split' has no 'validation' split"),
            ({"train": 0.6, "validation": 0.2}, "config section 'split' has no 'test' split"),
            (
                {"train": 0.6, "validation": 0.2, "test": 0.1, "dev": 0.1},
                "unknown split names in config section 'split': ['dev']",
            ),
            (
                {"train": 0.9, "validation": 0.001, "test": 0.099},
                "split 'validation' is empty: fraction 0.001 of 200 queries",
            ),
            ({"train": 0.9, "validation": 0.2, "test": 0.1}, "split fractions sum to"),
            ({"train": 0.6, "validation": -0.2, "test": 0.2}, "must be positive"),
            ([0.6, 0.2, 0.2], "config section 'split' must be a JSON object"),
        ],
    )
    def test_bad_split_named_at_load(self, tmp_path, capsys, split, message):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(dict(SMOKE_CONFIG, split=split)))
        code = main(["train", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert message in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "section, message",
        [
            ({"k": 0}, "bad config section 'eval': cutoff k must be >= 1"),
            ({"depth": 0}, "bad config section 'eval': depth must be >= 1"),
            (
                {"significance_level": 0.05},
                "unknown keys in config section 'eval': ['significance_level']",
            ),
        ],
    )
    def test_bad_eval_section_named_at_load(self, tmp_path, capsys, section, message):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(dict(SMOKE_CONFIG, eval=dict(SMOKE_CONFIG["eval"], **section))))
        out = tmp_path / "o"
        code = main(["train", "--config", str(bad), "--stage", "two", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert message in err
        assert not (out / "checkpoint.txt").exists()

    @pytest.mark.parametrize(
        "command, section, values, message",
        [
            (
                TRAIN_TWO,
                "stage2",
                {"loss": "adr-mse", "alpha": -1},
                "bad config section 'stage2': alpha must be a positive finite number, got -1",
            ),
            (
                TRAIN_TWO,
                "stage2",
                {"loss": "adr-mse", "alpha": 0.0},
                "bad config section 'stage2': alpha must be a positive finite number, got 0.0",
            ),
            (TRAIN_TWO, "distill", {"retriever": "nope"}, UNKNOWN_RETRIEVER % "distill"),
            (TRAIN_TWO, "eval", {"retriever": "nope"}, UNKNOWN_RETRIEVER % "eval"),
            (TRAIN_TWO, "distill", {"depth": 50}, DEPTH_EXCEEDS_POOL),
            (TRAIN_TWO, "distill", {"depth": 0}, "bad config section 'distill': depth must be >= 1"),
            (["distill"], "distill", {"retriever": "nope"}, UNKNOWN_RETRIEVER % "distill"),
            (["distill"], "distill", {"depth": 50}, DEPTH_EXCEEDS_POOL),
            (["ablate"], "distill", {"retriever": "nope"}, UNKNOWN_RETRIEVER % "distill"),
            (["ablate"], "eval", {"retriever": "nope"}, UNKNOWN_RETRIEVER % "eval"),
            (
                ["distill"],
                "world",
                {"teacher_noise": math.nan},
                "bad config section 'world': teacher_noise must be a number, got nan",
            ),
            (
                ["world"],
                "world",
                {"first_stage_noise": {"strong": math.inf, "weak": 3.0}},
                "bad config section 'world': first_stage_noise must be an object of numbers, "
                "got {'strong': inf, 'weak': 3.0}",
            ),
            (
                TRAIN_TWO,
                "stage2",
                {"learning_rate": math.nan},
                "bad config section 'stage2': learning_rate must be a number, got nan",
            ),
            (
                TRAIN_TWO,
                "stage1",
                {"weight_decay": math.inf},
                "bad config section 'stage1': weight_decay must be a number, got inf",
            ),
            (
                TRAIN_TWO,
                "split",
                {"train": math.nan},
                "bad config section 'split': train must be a number, got nan",
            ),
            (
                ["world"],
                "world",
                {"num_queries": 2},
                "split 'validation' is empty: fraction 0.2 of 2 queries",
            ),
            (
                ["train", "--loss", "infonce"],
                "world",
                {"num_queries": 3},
                "split 'test' is empty: fraction 0.2 of 3 queries",
            ),
            (
                ["ablate"],
                "ablation",
                {"depths": []},
                "bad config section 'ablation': depths must not be empty",
            ),
            (
                ["ablate"],
                "ablation",
                {"depths": [5, 50]},
                "bad config section 'ablation': depth 50 exceeds world.docs_per_query 40",
            ),
            (
                ["ablate"],
                "ablation",
                {"depths": [0, 10]},
                "bad config section 'ablation': depth 0 must be >= 1",
            ),
            (
                ["ablate"],
                "ablation",
                {"fractions": [0.0, 1.0]},
                "bad config section 'ablation': query fraction must lie in (0, 1], got 0.0",
            ),
            (
                ["ablate"],
                "ablation",
                {"fractions": []},
                "bad config section 'ablation': fractions must not be empty",
            ),
            (
                ["ablate"],
                "ablation",
                {"depths": [10, 10, 20]},
                "bad config section 'ablation': depth 10 repeats",
            ),
            (
                ["ablate"],
                "ablation",
                {"fractions": [0.5, 1.0, 0.5]},
                "bad config section 'ablation': query fraction 0.5 repeats",
            ),
            (
                ["ablate"],
                "ablation",
                {"fractions": [1, 1.0]},
                "bad config section 'ablation': query fraction 1.0 repeats",
            ),
            (
                ["distill"],
                "distill",
                {"depth": 2.5},
                "bad config section 'distill': depth must be an integer, got 2.5",
            ),
            (
                ["ablate"],
                "ablation",
                {"depths": [2.5, 10]},
                "bad config section 'ablation': depths must be a list of integers, got [2.5, 10]",
            ),
            (
                TRAIN_TWO,
                "stage1",
                {"max_steps": True},
                "bad config section 'stage1': max_steps must be an integer, got True",
            ),
            (
                ["world"],
                "world",
                {"num_queries": 200.0},
                "bad config section 'world': num_queries must be an integer, got 200.0",
            ),
            (
                ["ablate"],
                "ablation",
                {"depths": 5},
                "bad config section 'ablation': depths must be a list of integers, got 5",
            ),
            (["world"], "world", 5, "config section 'world' must be a JSON object"),
            (
                ["world"],
                "world",
                [["num_queries", 50], ["docs_per_query", 40]],
                "config section 'world' must be a JSON object",
            ),
            (TRAIN_TWO, "stage2", "x", "config section 'stage2' must be a JSON object"),
            (
                TRAIN_TWO,
                "stage2",
                {"alpha": True},
                "bad config section 'stage2': alpha must be a number, got True",
            ),
            (
                ["world"],
                "world",
                {"teacher_noise": True},
                "bad config section 'world': teacher_noise must be a number, got True",
            ),
            (
                ["ablate"],
                "ablation",
                {"fractions": [True]},
                "bad config section 'ablation': fractions must be a list of numbers, got [True]",
            ),
            (
                TRAIN_TWO,
                "stage1",
                {"learning_rate": "0.1"},
                "bad config section 'stage1': learning_rate must be a number, got '0.1'",
            ),
            (
                TRAIN_TWO,
                "scorer",
                {"architecture": "cnn"},
                "bad config section 'scorer': unknown architecture 'cnn'",
            ),
            (
                TRAIN_TWO,
                "scorer",
                {"architecture": "mlp", "hidden_width": 0},
                "bad config section 'scorer': mlp requires hidden_width >= 1",
            ),
            (
                TRAIN_TWO,
                "stage1",
                {"loss": "ranknet"},
                "bad config section 'stage1': loss must be 'infonce', got 'ranknet'",
            ),
            (
                ["ablate"],
                "stage2",
                {"loss": "infonce"},
                "bad config section 'stage2': "
                "loss must be 'ranknet' or 'adr-mse', got 'infonce'",
            ),
            (
                TRAIN_TWO,
                "sampling",
                {"pool_depth": 200},
                "bad config section 'sampling': pool_depth 200 exceeds world.docs_per_query 40",
            ),
            (
                ["train", "--loss", "infonce"],
                "sampling",
                {"pool_depth": 200},
                "bad config section 'sampling': pool_depth 200 exceeds world.docs_per_query 40",
            ),
            (TRAIN_TWO, "eval", {"depth": 500}, EVAL_DEPTH_EXCEEDS_POOL),
            (["train", "--loss", "infonce"], "eval", {"depth": 500}, EVAL_DEPTH_EXCEEDS_POOL),
            (["ablate"], "eval", {"depth": 500}, EVAL_DEPTH_EXCEEDS_POOL),
            (
                ["world"],
                "world",
                {"seed": -5},
                "bad config section 'world': seed must be >= 0, got -5",
            ),
            (
                TRAIN_TWO,
                "sampling",
                {"seed": -1},
                "bad config section 'sampling': seed must be >= 0, got -1",
            ),
            (
                TRAIN_TWO,
                "scorer",
                {"init_seed": -1},
                "bad config section 'scorer': init_seed must be >= 0, got -1",
            ),
            (
                ["train", "--loss", "infonce"],
                "stage1",
                {"seed": -1},
                "bad config section 'stage1': seed must be >= 0, got -1",
            ),
            (
                ["ablate"],
                "stage2",
                {"seed": -2},
                "bad config section 'stage2': seed must be >= 0, got -2",
            ),
            (
                TRAIN_TWO,
                "stage2",
                {"learning_rate": -0.5},
                "bad config section 'stage2': "
                "learning_rate must be a finite number >= 0, got -0.5",
            ),
        ],
    )
    def test_bad_section_named_before_work(
        self, tmp_path, capsys, monkeypatch, command, section, values, message
    ):
        """A dict of values goes into the smoke section; any other value replaces it."""
        if isinstance(values, dict):
            values = dict(SMOKE_CONFIG[section], **values)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(dict(SMOKE_CONFIG, **{section: values})))
        monkeypatch.setattr(distill_data, "generate_world", no_world)
        out = tmp_path / "o"
        assert main(command + ["--config", str(bad), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.filterwarnings("error")
    def test_diverging_training_exits_2(self, tmp_path, capsys):
        """Stage 2 diverges after stage 1 has finished: no numpy warning, and
        not even stage 1's report reaches `--out`."""
        path, out = tmp_path / "config.json", tmp_path / "o"
        stage2 = dict(SMOKE_CONFIG["stage2"], learning_rate=1e308)
        path.write_text(json.dumps(dict(SMOKE_CONFIG, stage2=stage2)), encoding="utf-8")
        assert main(TRAIN_TWO + ["--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: parameters must be finite\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", [["world"], ["distill"], TRAIN_TWO, ["ablate"]])
    def test_negative_seed_flag_named_before_work(
        self, tmp_path, capsys, monkeypatch, config_path, command
    ):
        """--seed -1 is refused at load, in the first section that has a seed,
        and the output directory keeps what it held."""
        monkeypatch.setattr(distill_data, "generate_world", no_world)
        out = tmp_path / "o"
        out.mkdir()
        (out / "world_config.json").write_text("old\n", encoding="utf-8")
        argv = command + ["--config", str(config_path), "--seed", "-1", "--out", str(out)]
        assert main(argv) == 2
        message = "bad config section 'world': seed must be >= 0, got -1"
        assert capsys.readouterr().err == f"error: {message}\n"
        assert [p.name for p in out.iterdir()] == ["world_config.json"]
        assert read(out / "world_config.json") == "old\n"

    @pytest.mark.parametrize("section, key, value, kind", wrong_kinds())
    def test_every_field_type_checked_at_load(
        self, tmp_path, capsys, monkeypatch, section, key, value, kind
    ):
        config = dict(SMOKE_CONFIG, **{section: dict(SMOKE_CONFIG[section], **{key: value})})
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config))
        monkeypatch.setattr(distill_data, "generate_world", no_world)
        out = tmp_path / "o"
        assert main(["world", "--config", str(path), "--out", str(out)]) == 2
        message = f"bad config section {section!r}: {key} must be {kind}, got {value!r}"
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_stage2_infonce_trains_on_labels_only(self, tmp_path):
        path = tmp_path / "config.json"
        stage2 = dict(SMOKE_CONFIG["stage2"], loss="infonce")
        path.write_text(json.dumps(dict(SMOKE_CONFIG, stage2=stage2)))
        out = tmp_path / "o"
        assert main(["train", "--config", str(path), "--out", str(out)]) == 0
        assert (out / "report_stage1.json").exists()
        assert not (out / "report_distill.json").exists()
        assert json.loads(read(out / "summary.json"))["loss"] == "infonce"

    @pytest.mark.parametrize(
        "argv", [["distill", "--depth", "5"], ["train", "--depth", "5"], ["train", "--alpha", "2"]]
    )
    def test_flags_that_duplicate_config_keys_removed(self, tmp_path, config_path, capsys, argv):
        out = tmp_path / "o"
        assert main(argv + ["--config", str(config_path), "--out", str(out)]) == 1
        assert argv[1] in capsys.readouterr().err
        assert not out.exists()

    def test_world_ignores_sections_it_never_reads(self, tmp_path):
        """The default distill depth of 100 and retriever 'strong' do not fit this world."""
        config = {k: v for k, v in SMOKE_CONFIG.items() if k not in ("distill", "eval")}
        world = dict(SMOKE_CONFIG["world"], docs_per_query=60, first_stage_noise={"bm25": 0.5})
        path = tmp_path / "config.json"
        path.write_text(json.dumps(dict(config, world=world)))
        out = tmp_path / "o"
        assert main(["world", "--config", str(path), "--out", str(out)]) == 0
        assert len(read(out / "run_bm25.trec").splitlines()) == 200 * 60

    def test_distill_ignores_eval_section(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(dict(SMOKE_CONFIG, eval={"retriever": "nope"})))
        out = tmp_path / "o"
        assert main(["distill", "--config", str(path), "--out", str(out)]) == 0
        assert (out / "distill_dataset.jsonl").exists()

    def test_jobs_flag_removed(self, tmp_path, config_path, capsys):
        argv = ["world", "--config", str(config_path), "--jobs", "2", "--out", str(tmp_path)]
        assert main(argv) == 1
        assert "--jobs" in capsys.readouterr().err


class TestAblateCommand:
    def test_distill_depth_unused(self, tmp_path):
        """The grid takes its depths from `ablation.depths`, never `distill.depth`."""
        path = tmp_path / "config.json"
        config = dict(SMOKE_CONFIG, distill=dict(SMOKE_CONFIG["distill"], depth=100))
        config["ablation"] = {"depths": [5], "fractions": [1.0]}
        path.write_text(json.dumps(config))
        assert main(["ablate", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
        assert len(read(tmp_path / "o" / "ablation.tsv").splitlines()) == 2

    def test_grid_emitted(self, tmp_path, config_path):
        out = tmp_path / "ablate"
        code = main(["ablate", "--config", str(config_path), "--out", str(out)])
        assert code == 0
        lines = read(out / "ablation.tsv").splitlines()
        assert lines[0].split("\t") == [
            "depth",
            "query_fraction",
            "num_queries",
            "mean_ndcg10",
            "steps",
        ]
        # 3 depths x 2 fractions
        assert len(lines) == 1 + 6
        cells = [json.loads(line) for line in read(out / "ablation.jsonl").splitlines()]
        assert {c["depth"] for c in cells} == {5, 10, 20}
        assert all(0.0 <= c["mean_ndcg10"] <= 1.0 for c in cells)


class TestTrainDatasetFaults:
    """`train --dataset` on damaged and on ragged JSONL datasets."""

    @pytest.fixture(scope="class")
    def dataset_lines(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("distill")
        path = out / "config.json"
        path.write_text(json.dumps(SMOKE_CONFIG), encoding="utf-8")
        assert main(["distill", "--config", str(path), "--out", str(out)]) == 0
        return read(out / "distill_dataset.jsonl").splitlines()

    def train(self, tmp_path, config_path, lines):
        dataset = tmp_path / "dataset.jsonl"
        dataset.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "t"
        argv = ["train", "--config", str(config_path), "--dataset", str(dataset)]
        return main(argv + ["--stage", "single", "--loss", "ranknet", "--out", str(out)]), out

    def test_truncated_line_names_the_line(self, tmp_path, config_path, capsys, dataset_lines):
        lines = list(dataset_lines)
        lines[2] = lines[2][: len(lines[2]) // 2]
        code, out = self.train(tmp_path, config_path, lines)
        assert code == 2
        err, dataset = capsys.readouterr().err, str(tmp_path / "dataset.jsonl")
        assert err.startswith(f"error: dataset file {dataset!r}, line 3: invalid JSON")
        assert not (out / "checkpoint.txt").exists()

    def test_non_utf8_line_names_the_line(self, tmp_path, config_path, capsys, dataset_lines):
        """A 0xff byte in the first doc id of line 2."""
        lines = [line.encode() for line in dataset_lines]
        lines[1] = lines[1].replace(b'"doc_id":"', b'"doc_id":"\xff', 1)
        dataset, out = tmp_path / "dataset.jsonl", tmp_path / "t"
        dataset.write_bytes(b"\n".join(lines) + b"\n")
        argv = ["train", "--config", str(config_path), "--dataset", str(dataset)]
        assert main(argv + ["--stage", "single", "--loss", "ranknet", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: dataset file {str(dataset)!r}, line 2: not UTF-8 text\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("stage", ["single", "two"])
    def test_dataset_of_no_lists_refused_before_any_world_slice(
        self, tmp_path, config_path, capsys, monkeypatch, stage
    ):
        dataset = tmp_path / "dataset.jsonl"
        dataset.write_text("\n", encoding="utf-8")
        monkeypatch.setattr(distill_data, "generate_world", no_world)
        argv = ["train", "--config", str(config_path), "--dataset", str(dataset), "--stage", stage]
        assert main(argv + ["--loss", "ranknet", "--out", str(tmp_path / "t")]) == 2
        assert capsys.readouterr().err == f"error: dataset {str(dataset)!r} contains no lists\n"
        assert not (tmp_path / "t").exists()

    @pytest.mark.parametrize("stage", ["single", "two"])
    def test_dataset_of_another_world_refused(
        self, tmp_path, config_path, capsys, dataset_lines, stage
    ):
        """The world seed changed: the ids are still valid, their features not."""
        dataset = tmp_path / "dataset.jsonl"
        dataset.write_text("\n".join(dataset_lines) + "\n", encoding="utf-8")
        world = dict(SMOKE_CONFIG["world"], seed=12)
        path, out = tmp_path / "config.json", tmp_path / "t"
        path.write_text(json.dumps(dict(SMOKE_CONFIG, world=world)), encoding="utf-8")
        argv = ["train", "--config", str(path), "--dataset", str(dataset), "--stage", stage]
        assert main(argv + ["--loss", "ranknet", "--out", str(out)]) == 2
        made, now = (WorldConfig(**w).fingerprint() for w in (SMOKE_CONFIG["world"], world))
        assert capsys.readouterr().err == (
            f"error: dataset {str(dataset)!r} was made from world {made}, "
            f"but the config's world is {now}\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("line", [0, -1])
    @pytest.mark.parametrize(
        "doc",
        [
            "q060_p03",  # a doc of another query
            "{query}_p40",  # pool index 40 of a pool of 40
            "{query}_p3",  # pool index 3 in another width
        ],
    )
    def test_doc_outside_its_pool_refused(
        self, tmp_path, config_path, capsys, monkeypatch, dataset_lines, line, doc
    ):
        """Every doc id is decoded as the file is read, before any world slice."""
        lines = list(dataset_lines)
        record = json.loads(lines[line])
        doc = doc.format(query=record["query_id"])
        record["passages"][5]["doc_id"] = doc
        lines[line] = json.dumps(record)
        worlds, generate = [], distill_data.generate_world
        monkeypatch.setattr(
            distill_data, "generate_world", lambda *a: worlds.append(a) or generate(*a)
        )
        code, out = self.train(tmp_path, config_path, lines)
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: doc {doc!r} is not one of the 40 docs of query {record['query_id']!r}\n"
        )
        assert not out.exists() and worlds == []

    def test_foreign_query_named_before_a_bad_doc(
        self, tmp_path, config_path, capsys, dataset_lines
    ):
        """Every list's query is checked before any list's docs."""
        lines = list(dataset_lines)
        record = json.loads(lines[0])
        record["passages"][5]["doc_id"] = "q000_p40"
        lines[0] = json.dumps(record)
        lines[-1] = json.dumps(dict(json.loads(lines[-1]), query_id="q160"))
        code, out = self.train(tmp_path, config_path, lines)
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: dataset {str(tmp_path / 'dataset.jsonl')!r} has query 'q160', "
            "which is not one of the 120 train queries of the world\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("query", ["q200", "q9999", "q160", "x"])
    def test_query_outside_the_train_split_refused(
        self, tmp_path, config_path, capsys, dataset_lines, query
    ):
        """q200 and q9999 are no queries of the world of 200; q160 is a test query."""
        lines = list(dataset_lines)
        record = json.loads(lines[4])
        lines[4] = json.dumps(dict(record, query_id=query))
        code, out = self.train(tmp_path, config_path, lines)
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: dataset {str(tmp_path / 'dataset.jsonl')!r} has query {query!r}, "
            "which is not one of the 120 train queries of the world\n"
        )
        assert not out.exists()

    def test_distill_section_unused_with_dataset(self, tmp_path, config_path, dataset_lines):
        """Single-stage distillation from a file builds no run and no dataset."""
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        code, expected = self.train(tmp_path / "a", config_path, dataset_lines)
        assert code == 0
        path = tmp_path / "config.json"
        path.write_text(json.dumps(dict(SMOKE_CONFIG, distill={"retriever": "nope", "depth": 100})))
        code, out = self.train(tmp_path / "b", path, dataset_lines)
        assert code == 0
        names = sorted(p.name for p in expected.iterdir())
        assert names == sorted(p.name for p in out.iterdir())
        for name in names:
            assert read(out / name) == read(expected / name), name

    def test_records_of_different_lengths_train(self, tmp_path, config_path, dataset_lines):
        lines = []
        for i, line in enumerate(dataset_lines):
            record = json.loads(line)
            keep = record["passages"][: [20, 20, 7, 1, 13][i % 5]]
            for rank, passage in enumerate(keep, start=1):
                passage["teacher_rank"] = rank
            lines.append(json.dumps(dict(record, passages=keep)))
        code, out = self.train(tmp_path, config_path, lines)
        assert code == 0
        report = json.loads(read(out / "report_distill.json"))
        assert report["steps_executed"] > 0
        metrics = [json.loads(line) for line in read(out / "metrics_distill.jsonl").splitlines()]
        losses = [m["loss"] for m in metrics if "loss" in m]
        assert len(losses) == report["steps_executed"]
        assert all(math.isfinite(loss) for loss in losses)
