import argparse
import dataclasses
import json
import logging
import math
import os
import subprocess
import sys
import time
import tracemalloc
import typing
from pathlib import Path

import pytest

from ltrlab import core, distill_data, pipeline, trainer
from ltrlab.cli import ExperimentConfig, _atomic_write, load_experiment_config, main
from ltrlab.distill_data import WorldConfig, build_teacher_dataset, generate_world
from ltrlab.evaluation import ndcg_at_k, per_query_scores_text

from _oracles import parse_run_oracle, restrict_run

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
        qrels = core.parse_qrels(qrels_text)
        expected = {q: ndcg_at_k(r, qrels, k) for q, r in parse_run_oracle(run_text).items()}
        assert read(out / "per_query.tsv") == per_query_scores_text(expected, f"nDCG@{k}")
        assert json.loads(read(out / "eval_summary.json")) == {
            "metric": f"nDCG@{k}",
            "num_queries": len(expected),
            "mean": sum(expected.values()) / len(expected),
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


# A world of 2048 queries fills 8 ranges of 256. The commands read few of its
# features: distillation depth 5, hard-negative groups of 8, eval depth 10.
RANGES_CONFIG = dict(
    SMOKE_CONFIG,
    world=dict(SMOKE_CONFIG["world"], num_queries=2048, docs_per_query=50, feature_dim=16),
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
        bound = world["num_queries"] * world["docs_per_query"] * world["feature_dim"] * 8 / 2
        assert world["num_queries"] >= 8 * distill_data._QUERIES_PER_RANGE
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

    def test_one_sampling_summary_per_command(self, config_path, tmp_path, monkeypatch, caplog):
        """Queries q..0 and q..5 lose their judgments (no positive), and
        queries q..1 and q..6 have their whole pool judged (too few
        negatives). The skips of every world slice add up to one log line."""
        judged = distill_data.SyntheticWorld.qrels

        def qrels(world):
            grades = {}
            for qi, query in enumerate(world.query_ids):
                if int(query[1:]) % 5 == 1:
                    pool = world._doc_ids(qi, range(world.config.docs_per_query))
                    grades[query] = dict.fromkeys(pool, 1)
                elif int(query[1:]) % 5:
                    grades[query] = judged(world).judged(query)
            return core.Qrels(grades)

        monkeypatch.setattr(distill_data.SyntheticWorld, "qrels", qrels)
        world = generate_world(WorldConfig(**SMOKE_CONFIG["world"]))
        train = pipeline.split_query_ids(world.query_ids, SMOKE_CONFIG["split"])["train"]
        run = restrict_run(world.first_stage_run(SMOKE_CONFIG["distill"]["retriever"]), train)
        sampling = distill_data.SamplingConfig(**SMOKE_CONFIG["sampling"])
        with caplog.at_level(logging.INFO, logger="ltrlab.distill_data"):
            distill_data.build_hard_negative_groups(run, world.qrels(), sampling)
        (expected,) = [r.args for r in caplog.records if r.msg.startswith("hard-negative")]
        assert expected[2:] == (24, 0, 24)

        monkeypatch.setattr(distill_data, "_QUERIES_PER_RANGE", 7)
        for command in (["train", "--stage", "two"], ["train", "--loss", "infonce"]):
            caplog.clear()
            with caplog.at_level(logging.INFO, logger="ltrlab.distill_data"):
                out = tmp_path / command[-1]
                assert main([*command, "--config", str(config_path), "--out", str(out)]) == 0
            summaries = [r.args for r in caplog.records if r.msg.startswith("hard-negative")]
            assert summaries == [expected]


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

    def test_training_never_imports_scipy(self, tmp_path, config_path):
        """Only `significance` needs scipy; a training process never loads it."""
        src = Path(__file__).resolve().parent.parent / "src"
        script = (
            "import sys\n"
            "import ltrlab.cli\n"
            "code = ltrlab.cli.main(sys.argv[1:])\n"
            "assert code == 0, code\n"
            "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if 'scipy' in m)\n"
        )
        argv = [*TRAIN_TWO, "--config", str(config_path), "--out", str(tmp_path / "o")]
        done = subprocess.run(
            [sys.executable, "-c", script, *argv],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(src)), timeout=300,
        )
        assert done.returncode == 0, done.stderr


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

    def test_empty_runs_are_data_error(self, tmp_path, capsys):
        base = tmp_path / "base.trec"
        cand = tmp_path / "cand.trec"
        base.write_text("")
        cand.write_text("")
        qrels = tmp_path / "qrels.txt"
        qrels.write_text("q1 0 dA 1\n")
        out = tmp_path / "out"
        argv = ["significance", "--qrels", str(qrels), "--baseline", str(base)]
        code = main(argv + ["--candidate", str(cand), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err == "error: system 'cand' shares fewer than 2 queries with the baseline\n"
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

        eval_dir = tmp_path / "eval"
        assert (
            main(
                [
                    "eval",
                    "--run",
                    str(train_dir / "test_run.trec"),
                    "--qrels",
                    str(world_dir / "qrels.txt"),
                    "--out",
                    str(eval_dir),
                ]
            )
            == 0
        )
        eval_summary = json.loads(read(eval_dir / "eval_summary.json"))
        assert eval_summary["mean"] == pytest.approx(summary["mean_test_ndcg10"], abs=1e-9)
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

    def test_single_stage_infonce_builds_no_validation_set(
        self, tmp_path, config_path, monkeypatch
    ):
        argv = ["train", "--config", str(config_path), "--stage", "single", "--loss", "infonce"]
        assert main(argv + ["--out", str(tmp_path / "a")]) == 0

        def fail(*args, **kwargs):
            raise AssertionError("validation set built without distillation")

        monkeypatch.setattr(pipeline, "make_validation", fail)
        assert main(argv + ["--out", str(tmp_path / "b")]) == 0
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
        err = capsys.readouterr().err
        assert err.startswith("error: line 3: invalid JSON")
        assert not (out / "checkpoint.txt").exists()

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

    @pytest.mark.parametrize(
        "doc",
        [
            "q001_p03",  # a doc of another query
            "q000_p40",  # pool index 40 of a pool of 40
            "q000_p3",  # pool index 3 in another width
        ],
    )
    def test_doc_outside_its_pool_refused(self, tmp_path, config_path, capsys, dataset_lines, doc):
        lines = list(dataset_lines)
        record = json.loads(lines[0])
        record["passages"][5]["doc_id"] = doc
        lines[0] = json.dumps(record)
        code, out = self.train(tmp_path, config_path, lines)
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: doc {doc!r} is not one of the 40 docs of query 'q000'\n"
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
        assert all(math.isfinite(loss) for _, loss in report["loss_curve"])
