"""Command-line surface: world generation through evaluation and cost simulation.

One experiment is described by one JSON config file; only --seed and
train --loss override config values. Every command prints its flags, and
the resolved configuration if it reads one, before running and writes
outputs to a temp file followed by an atomic rename, so a crash never leaves
a partial artifact. Exit status: 0 success, 1 usage error, 2 data or
validation error.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import logging
import math
import os
import re
import shutil
import sys
import typing
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, Sequence, TypeVar

import numpy as np

from . import core, distill_data, evaluation, pipeline, rerank_sim, scorer, trainer

T = TypeVar("T")
R = TypeVar("R")


class UsageError(Exception):
    """Bad flags or flag combinations (exit status 1)."""


class ConfigError(ValueError):
    """Invalid or unknown configuration content (exit status 2)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); we map usage errors to 1
        raise UsageError(message)


# ---------------------------------------------------------------------------
# Experiment configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScorerSpec:
    architecture: str = scorer.LINEAR
    hidden_width: int = 8
    init_seed: int = 0

    def __post_init__(self):  # the scorer's own checks; any feature count will do
        scorer.param_count(self.architecture, 1, self.hidden_width)
        if self.init_seed < 0:
            raise ValueError(f"init_seed must be >= 0, got {self.init_seed}")


@dataclass(frozen=True)
class DistillSpec:
    retriever: str = "strong"
    depth: int = 100

    def __post_init__(self):
        if self.depth < 1:
            raise ValueError("depth must be >= 1")


@dataclass(frozen=True)
class EvalSpec:
    """The run re-ranked for validation and test, its depth, and the nDCG cutoff."""

    retriever: str = "strong"
    depth: int = 100
    k: int = 10

    def __post_init__(self):
        if self.depth < 1:
            raise ValueError("depth must be >= 1")
        if self.k < 1:
            raise ValueError("cutoff k must be >= 1")


@dataclass(frozen=True)
class AblationSpec:
    depths: tuple[int, ...] = (10, 25, 50, 100)
    fractions: tuple[float, ...] = (0.1, 0.25, 0.5, 1.0)

    def __post_init__(self):
        if not self.depths:
            raise ValueError("depths must not be empty")
        if not self.fractions:
            raise ValueError("fractions must not be empty")
        for i, depth in enumerate(self.depths):
            if depth < 1:
                raise ValueError(f"depth {depth} must be >= 1")
            if depth in self.depths[:i]:  # each depth and fraction names one set of cells
                raise ValueError(f"depth {depth} repeats")
        for i, fraction in enumerate(self.fractions):
            if not 0.0 < fraction <= 1.0:
                raise ValueError(f"query fraction must lie in (0, 1], got {fraction}")
            if fraction in self.fractions[:i]:
                raise ValueError(f"query fraction {fraction} repeats")


@dataclass(frozen=True)
class ExperimentConfig:
    world: distill_data.WorldConfig
    split: dict[str, float]
    sampling: distill_data.SamplingConfig
    scorer: ScorerSpec
    distill: DistillSpec
    stage1: trainer.TrainConfig
    stage2: trainer.TrainConfig
    eval: EvalSpec
    ablation: AblationSpec


# Defaults that the section classes do not carry. A split in the file replaces
# this one; the keys of any other section in the file merge over these.
_DEFAULTS = {
    "split": {"train": 0.7, "validation": 0.15, "test": 0.15},
    "stage1": {"loss": trainer.LOSS_INFONCE, "max_steps": 2000},
    "stage2": {"loss": trainer.LOSS_RANKNET, "max_steps": 2000},
}
# The JSON types of a scalar type hint, and its name alone and in a list or object.
_KINDS = {
    int: (int, "an integer", "integers"),
    float: ((int, float), "a number", "numbers"),
    str: (str, "a string", "strings"),
}


def _check_field(where: str, key: str, hint, value) -> None:
    """The JSON value of a config key has the kind its type hint names."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)

    def fits(v, scalar) -> bool:  # JSON true, false, NaN and Infinity are never numbers
        finite = not isinstance(v, float) or math.isfinite(v)
        return finite and isinstance(v, _KINDS[scalar][0]) and not isinstance(v, bool)

    if origin is tuple:  # tuple[int, ...] or tuple[float, ...]
        kind = f"a list of {_KINDS[args[0]][2]}"
        ok = isinstance(value, list) and all(fits(v, args[0]) for v in value)
    elif origin is not None:  # dict[str, float] or Mapping[str, float]
        kind = f"an object of {_KINDS[args[1]][2]}"
        ok = isinstance(value, dict) and all(fits(v, args[1]) for v in value.values())
    else:
        kind, ok = _KINDS[hint][1], fits(value, hint)
    if not ok:
        raise ConfigError(f"bad config section {where!r}: {key} must be {kind}, got {value!r}")


def _build_split(split: dict, num_queries: int) -> dict[str, float]:
    """Check the split: exactly the three named splits, each given queries."""
    unknown = sorted(set(split) - set(_DEFAULTS["split"]))
    if unknown:
        raise ConfigError(f"unknown split names in config section 'split': {unknown}")
    for name in _DEFAULTS["split"]:
        if name not in split:
            raise ConfigError(f"config section 'split' has no {name!r} split")
        _check_field("split", name, float, split[name])
    # Ranges are laid out train, validation, test, whatever the file's key order.
    split = {name: split[name] for name in _DEFAULTS["split"]}
    try:
        ranges = pipeline.query_ranges(num_queries, split)
    except ValueError as exc:
        raise ConfigError(f"bad config section 'split': {exc}") from None
    for name, queries in ranges.items():
        if not queries:
            raise ConfigError(
                f"split {name!r} is empty: fraction {split[name]} of {num_queries} queries"
            )
    return split


def _build_section(where: str, cls, data: dict, seed: int | None):
    """One dataclass section: defaults, then the file's keys, then the seed flag."""
    hints = typing.get_type_hints(cls)
    unknown = sorted(set(data) - set(hints))
    if unknown:
        raise ConfigError(f"unknown keys in config section {where!r}: {unknown}")
    values = {**_DEFAULTS.get(where, {}), **data}
    if seed is not None:
        values.update({key: seed for key in ("seed", "init_seed") if key in hints})
    for key, value in values.items():
        _check_field(where, key, hints[key], value)
    try:
        return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in values.items()})
    except ValueError as exc:
        raise ConfigError(f"bad config section {where!r}: {exc}") from None


def load_experiment_config(path: str | None, overrides: argparse.Namespace) -> ExperimentConfig:
    """Read the config file (or defaults) and apply the --seed and --loss flags."""
    raw: dict = {}
    if path is not None:
        try:
            raw = json.loads(Path(path).read_text(encoding="utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ConfigError(f"config file {path!r} is not UTF-8 JSON: {exc}") from None
        if not isinstance(raw, dict):
            raise ConfigError(f"config file {path!r} must contain a JSON object")
    hints = typing.get_type_hints(ExperimentConfig)
    unknown = sorted(set(raw) - set(hints))
    if unknown:
        raise ConfigError(f"unknown top-level config keys: {unknown}")
    seed, loss = getattr(overrides, "seed", None), getattr(overrides, "loss", None)
    sections: dict = {}
    for name, cls in hints.items():  # world comes first: the split needs its size
        data = raw.get(name, _DEFAULTS["split"] if name == "split" else {})
        if not isinstance(data, dict):
            raise ConfigError(f"config section {name!r} must be a JSON object")
        if name == "split":
            sections[name] = _build_split(data, sections["world"].num_queries)
            continue
        if name == "stage2" and loss is not None:
            data = {**data, "loss": loss}
        sections[name] = _build_section(name, cls, data, seed)
    cfg = ExperimentConfig(**sections)
    _check_loss(cfg, "stage1", (trainer.LOSS_INFONCE,))
    return cfg


# The checks below compare one section with the world. A command runs each
# one it needs before any work, and only those: a section it never reads may
# keep defaults that do not fit the world.


def _check_retriever(cfg: ExperimentConfig, where: str) -> None:
    """The retriever that config section `where` names is one the world has."""
    name = getattr(cfg, where).retriever
    have = tuple(sorted(cfg.world.first_stage_noise))
    if name not in have:
        raise ConfigError(f"bad config section {where!r}: unknown retriever {name!r}; have {have}")


def _check_depth(cfg: ExperimentConfig, where: str, key: str, depth: int) -> None:
    """The depth that `key` of config section `where` asks for fits the world's pool."""
    if depth > cfg.world.docs_per_query:
        limit = f"world.docs_per_query {cfg.world.docs_per_query}"
        raise ConfigError(f"bad config section {where!r}: {key} {depth} exceeds {limit}")


def _check_loss(cfg: ExperimentConfig, where: str, allowed: tuple[str, ...]) -> None:
    """The loss of training section `where` is one its stage trains with."""
    loss = getattr(cfg, where).loss
    if loss not in allowed:
        kind = " or ".join(map(repr, allowed))
        raise ConfigError(f"bad config section {where!r}: loss must be {kind}, got {loss!r}")


def _print_resolved(command: str, args: argparse.Namespace, config: ExperimentConfig | None = None):
    resolved = {"flags": {k: v for k, v in vars(args).items() if k not in ("func", "command")}}
    if config is not None:
        resolved["config"] = dataclasses.asdict(config)
    print(f"[{command}] resolved config:")
    print(json.dumps(resolved, indent=2, sort_keys=True, default=str))


@contextlib.contextmanager
def _atomic_files(*paths: Path) -> Iterator[list[IO[str]]]:
    """Open a temp file for each path and, when the block ends, rename each
    onto its path. If anything fails, every temp file is removed and every
    path is left as it was."""
    tmps = [path.with_name(path.name + f".tmp-{os.getpid()}") for path in paths]
    files: list[IO[str]] = []
    try:
        for path, tmp in zip(paths, tmps):
            path.parent.mkdir(parents=True, exist_ok=True)
            files.append(open(tmp, "w", encoding="utf-8"))
        yield files
        for f in files:
            f.close()
        for path, tmp in zip(paths, tmps):
            os.replace(tmp, path)
    except BaseException:
        for f in files:
            f.close()
        for tmp in tmps:
            tmp.unlink(missing_ok=True)
        raise


def _atomic_write(files: dict[Path, str | Iterable[str]]) -> None:
    """Write each file's text, or its chunks as they come, as one
    `_atomic_files` group: if writing fails, every path is left as it was."""
    with _atomic_files(*files) as handles:
        for f, text in zip(handles, files.values()):
            f.writelines((text,) if isinstance(text, str) else text)


def _cpu_count() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _map_processes(fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
    """`fn` of each item, in item order, in worker processes: one per CPU
    this process may use, never more than there are items, and none for one
    item or one CPU, which run here. `fn` is a module-level function, and it,
    each item and each result must pickle. Every worker is joined before this
    returns or raises; the first failing item's exception is raised, with its
    type and message."""
    workers = min(len(items), _cpu_count())
    if workers < 2:
        return [fn(item) for item in items]
    import concurrent.futures
    import multiprocessing

    # A forked worker starts with this process's modules and needs no import.
    # With fork the pool starts every worker before its own thread, and the
    # commands start no thread, so no lock is held across a fork.
    context = multiprocessing.get_context("fork" if sys.platform == "linux" else None)
    pool = concurrent.futures.ProcessPoolExecutor(workers, mp_context=context)
    try:
        futures = [pool.submit(fn, item) for item in items]
        return [future.result() for future in futures]
    finally:
        pool.shutdown(cancel_futures=True)


def _write_part(
    texts: Callable[[distill_data.SyntheticWorld], list[Iterable[str]]],
    config: distill_data.WorldConfig,
    part: tuple[range, list[str]],
) -> None:
    """Write the files of one part, a query range and a path per file, slice
    by slice: `texts(world)` gives the text of each file for a world slice."""
    queries, paths = part
    with contextlib.ExitStack() as stack:
        files = [stack.enter_context(open(path, "w", encoding="utf-8")) for path in paths]
        for chunks in distill_data.map_ranges(texts, config, queries):
            for f, chunk in zip(files, chunks):
                f.writelines(chunk)


def _write_parts(
    files: list[IO[str]],
    texts: Callable[[distill_data.SyntheticWorld], list[Iterable[str]]],
    config: distill_data.WorldConfig,
    queries: range,
) -> None:
    """Fill the open `_atomic_files` temp `files` with the `texts` of the
    world's `queries`, cut into one part of whole slices per worker process
    (`_map_processes`). The first part's worker writes the temp files
    themselves, and each later one its own part files beside them, which
    are appended in order and removed. Unless the parts run here
    (`_map_processes` with one worker), no world slice and no slice text
    reaches this process."""
    parts = distill_data.part_ranges(config, queries, _cpu_count())
    paths = [[f.name if i == 0 else f"{f.name}.part{i}" for f in files] for i in range(len(parts))]
    try:
        _map_processes(functools.partial(_write_part, texts, config), list(zip(parts, paths)))
        for j, f in enumerate(files):
            f.seek(0, os.SEEK_END)  # past the first part
            for later in paths[1:]:
                with open(later[j], "rb") as part:
                    shutil.copyfileobj(part, f.buffer)
    finally:
        for later in paths[1:]:
            for path in later:
                Path(path).unlink(missing_ok=True)


def _parse_file(kind: str, path: str, parse, **options):
    """`parse` of the text file at `path`; a ParseError it raises, or the
    first line that is not UTF-8, is named with the file's kind and path."""
    with open(path, encoding="utf-8") as f:
        try:
            return parse(f, **options)
        except core.ParseError as exc:
            cause = exc
        except UnicodeDecodeError:
            # Read again with each bad byte escaped to a lone surrogate, which
            # no UTF-8 text decodes to, and with the parser's line breaks.
            with open(path, encoding="utf-8", errors="surrogateescape") as raw:
                bad = (n for n, line in enumerate(raw, 1) if re.search("[\udc80-\udcff]", line))
                cause = core.ParseError("not UTF-8 text", next(bad))
    error = type(cause)(f"{kind} {path!r}, {cause}")
    error.line = cause.line
    raise error from None


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _init_scorer(spec: ScorerSpec, feature_dim: int) -> scorer.ScorerModel:
    return scorer.init_model(spec.architecture, feature_dim, spec.hidden_width, spec.init_seed)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _world_texts(world: distill_data.SyntheticWorld) -> list[Iterable[str]]:
    """The qrels text of a world slice, then its run text of each retriever,
    in name order."""
    names = sorted(world.config.first_stage_noise)
    runs = [core.write_run(world.first_stage_run(name).ranked(), tag=name) for name in names]
    return [(core.write_qrels(world.qrels()),), *runs]


def _distill_texts(spec: DistillSpec, world: distill_data.SyntheticWorld) -> list[Iterable[str]]:
    """The teacher records of a world slice, as `distill` writes them."""
    run = world.first_stage_run(spec.retriever)
    return [core.write_distill_dataset(distill_data.build_teacher_dataset(run, spec.depth))]


def cmd_world(args) -> int:
    cfg = load_experiment_config(args.config, args)
    _print_resolved("world", args, cfg)
    names = sorted(cfg.world.first_stage_noise)
    out = Path(args.out)
    paths = [out / "world_config.json", out / "qrels.txt", *(out / f"run_{n}.trec" for n in names)]
    with _atomic_files(*paths) as (world_config, *files):
        world_config.write(cfg.world.canonical_text())
        _write_parts(files, _world_texts, cfg.world, range(cfg.world.num_queries))
    print(
        f"world: {cfg.world.num_queries} queries, pool {cfg.world.docs_per_query}, "
        f"retrievers {names} -> {out}"
    )
    return 0


def cmd_distill(args) -> int:
    cfg = load_experiment_config(args.config, args)
    _print_resolved("distill", args, cfg)
    _check_retriever(cfg, "distill")
    _check_depth(cfg, "distill", "depth", cfg.distill.depth)
    train = pipeline.query_ranges(cfg.world.num_queries, cfg.split)["train"]
    path = Path(args.out) / "distill_dataset.jsonl"
    with _atomic_files(path) as files:
        _write_parts(files, functools.partial(_distill_texts, cfg.distill), cfg.world, train)
    print(
        f"distill: {len(train)} queries at depth {cfg.distill.depth} "
        f"from retriever {cfg.distill.retriever!r} -> {path}"
    )
    return 0


def _read_dataset(
    path: str, cfg: ExperimentConfig, train: range
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The lists of the dataset file at `path`, which must come from the
    config's world and hold lists of train queries only, decoded in file
    order: each list's world query index, the (L + 1,) offsets of its docs
    and one column of their pool indices."""
    dataset = _parse_file("dataset file", path, core.parse_distill_dataset)
    if not len(dataset):
        raise ConfigError(f"dataset {path!r} contains no lists")
    world = cfg.world.fingerprint()
    if dataset.world != world:
        raise ConfigError(
            f"dataset {path!r} was made from world {dataset.world}, "
            f"but the config's world is {world}"
        )
    queries = dict(zip(distill_data.query_ids(cfg.world, train), train))
    for query in dataset.queries:
        if query not in queries:
            raise ConfigError(
                f"dataset {path!r} has query {query!r}, which is not one of the "
                f"{len(train)} train queries of the world"
            )
    index, bounds = np.empty(len(dataset.docs), dtype=np.intp), dataset.offsets.tolist()
    for query, lo, hi in zip(dataset.queries, bounds, bounds[1:]):
        index[lo:hi] = distill_data.pool_index(cfg.world, query, dataset.docs[lo:hi])
    qindex = np.array([queries[query] for query in dataset.queries], dtype=np.intp)
    return qindex, dataset.offsets, index


def _train_lists(
    cfg: ExperimentConfig, train: range, groups: bool, depth: int | None, dataset: tuple | None
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """The hard-negative groups (if `groups`) and the teacher lists of the
    train queries, built one world slice at a time: the world teacher's lists
    at `depth`, or those of `dataset` (`_read_dataset`) in its order, whose
    features each slice gathers by pool index."""
    group_lists, teacher_lists = [], [None] * (0 if dataset is None else len(dataset[0]))

    def build(world: distill_data.SyntheticWorld) -> tuple[list, list]:
        some_groups = some_lists = []
        if groups or depth is not None:
            run = world.first_stage_run(cfg.distill.retriever)
        if groups:
            some_groups = list(distill_data.build_hard_negative_groups(run, cfg.sampling))
        if depth is not None:
            some_lists = list(run.features(distill_data.teacher_ranking(run, depth)[0]))
        if dataset is not None:  # the lists of this slice's queries, at their list numbers
            qindex, offsets, index = dataset
            mine = (qindex >= world.queries.start) & (qindex < world.queries.stop)
            numbers, lengths = np.flatnonzero(mine), np.diff(offsets)
            rows = np.repeat(qindex[numbers] - world.queries.start, lengths[numbers])
            block = world._features[rows, index[np.repeat(mine, lengths)]]
            for i, features in zip(numbers.tolist(), np.split(block, np.cumsum(lengths[numbers]))):
                teacher_lists[i] = features
        return some_groups, some_lists

    for some_groups, some_lists in distill_data.map_ranges(build, cfg.world, train):
        group_lists += some_groups
        teacher_lists += some_lists
    return group_lists, teacher_lists


def _train(
    args, cfg: ExperimentConfig, stage1: bool, distill: bool, splits: dict[str, range]
) -> tuple[scorer.ScorerModel, dict[str, trainer.TrainReport]]:
    """Train as the flags say; return the model and each stage's report."""
    train = splits["train"]
    dataset = _read_dataset(args.dataset, cfg, train) if distill and args.dataset else None
    model = _init_scorer(cfg.scorer, cfg.world.feature_dim)
    teacher_depth = cfg.distill.depth if distill and not args.dataset else None
    groups, lists = _train_lists(cfg, train, stage1, teacher_depth, dataset)
    del dataset  # freed before the validation pools, which set the peak RSS, are built
    if distill:
        validation = pipeline.range_pools(
            cfg.world, cfg.eval.retriever, splits["validation"], cfg.eval.depth
        )
    reports = {}
    if stage1:
        model, reports["stage1"] = trainer.train_stage1(model, groups, cfg.stage1)
    if distill:
        model, reports["distill"] = trainer.train_distill(model, lists, validation, cfg.stage2)
    return model, reports


def cmd_train(args) -> int:
    cfg = load_experiment_config(args.config, args)
    _print_resolved("train", args, cfg)
    loss = cfg.stage2.loss
    if args.stage == "two" and loss == trainer.LOSS_INFONCE:
        raise UsageError("--stage two requires a distillation loss (ranknet or adr-mse)")
    if args.dataset and loss == trainer.LOSS_INFONCE:
        raise UsageError(f"--dataset needs a distillation loss; loss {loss!r} trains stage 1 only")
    stage1 = args.stage == "two" or loss == trainer.LOSS_INFONCE
    distill = loss != trainer.LOSS_INFONCE
    if stage1 or not args.dataset:
        _check_retriever(cfg, "distill")
    if stage1:
        _check_depth(cfg, "sampling", "pool_depth", cfg.sampling.pool_depth)
    if distill and not args.dataset:
        _check_depth(cfg, "distill", "depth", cfg.distill.depth)
    _check_retriever(cfg, "eval")
    _check_depth(cfg, "eval", "depth", cfg.eval.depth)
    splits = pipeline.query_ranges(cfg.world.num_queries, cfg.split)
    # The training data goes out of scope with _train, before the test pools
    # are built, so the two never take memory at the same time.
    model, reports = _train(args, cfg, stage1, distill, splits)
    test_pools = pipeline.range_pools(
        cfg.world, cfg.eval.retriever, splits["test"], cfg.eval.depth
    )
    k = cfg.eval.k
    test_scores, test_run = pipeline.evaluate_model(model, test_pools, k)
    mean_test = sum(test_scores.values()) / len(test_scores)
    summary = {"stage": args.stage, "loss": loss, "num_test_queries": len(test_scores)}
    summary[f"mean_test_ndcg{k}"] = mean_test
    out = Path(args.out)
    files: dict[Path, str | Iterable[str]] = {
        out / "checkpoint.txt": scorer.checkpoint_text(model),
        out / "test_run.trec": core.write_run(test_run, tag="ltrlab"),
        out / "test_per_query.tsv": evaluation.per_query_scores_text(test_scores, f"nDCG@{k}"),
        out / "summary.json": _json_text(summary),
    }
    # The report keeps the outcome; the loss and validation curves go to the metrics file only.
    keys = ("steps_executed", "stop_reason", "best_validation_ndcg10", "step_of_best")
    for tag, report in reports.items():
        files[out / f"report_{tag}.json"] = _json_text({k: getattr(report, k) for k in keys})
        files[out / f"metrics_{tag}.jsonl"] = "\n".join(report.metrics_lines()) + "\n"
    _atomic_write(files)
    print(f"train: stage={args.stage} loss={loss} test nDCG@{k}={mean_test:.4f} -> {out}")
    return 0


def _read_qrels(path: str) -> core.Qrels:
    return _parse_file("qrels file", path, core.parse_qrels)


def _read_run(path: str, k: int) -> core.ParsedRun:
    """The run file at `path`, each query cut to its top k: all that nDCG@k reads."""
    run = _parse_file("run file", path, core.parse_run, depth=k)
    if not run:
        raise ConfigError(f"run file {path!r} contains no queries")
    return run


def _run_scores(qrels: core.Qrels, k: int, path: str) -> dict[str, float]:
    """`_ndcg_by_query` of the run file at `path`, read to its top k."""
    return _ndcg_by_query(_read_run(path, k), qrels, k)


def _check_cutoff(k: int) -> None:
    """Refuse a bad --k before any file is read."""
    if k < 1:
        raise ConfigError("cutoff k must be >= 1")


def _ndcg_by_query(run: core.ParsedRun, qrels: core.Qrels, k: int) -> dict[str, float]:
    """nDCG@k of every query of the qrels, as `trec_eval -c` scores them: the
    run's judged queries in run order, then each query the run lacks, at 0.
    Run queries without judgments are left out."""
    judged = set(qrels.query_ids())
    keep = [i for i, query in enumerate(run.queries) if query in judged]
    queries, bounds = [run.queries[i] for i in keep], run.offsets.tolist()
    ranked = [run.docs[bounds[i] : bounds[i + 1]][:k] for i in keep]
    values = evaluation.ndcg_rows(*evaluation.grade_rows(qrels, queries, ranked), k)
    scores = dict(zip(queries, values.tolist()))
    scores.update((query, 0.0) for query in sorted(judged - scores.keys()))
    return scores


def cmd_eval(args) -> int:
    _print_resolved("eval", args)
    _check_cutoff(args.k)
    qrels = _read_qrels(args.qrels)
    if not qrels.query_ids():
        raise ConfigError(f"qrels file {args.qrels!r} contains no queries")
    run = _read_run(args.run, args.k)
    scores = _ndcg_by_query(run, qrels, args.k)
    out = Path(args.out)
    mean = sum(scores.values()) / len(scores)
    summary = {"metric": f"nDCG@{args.k}", "num_queries": len(scores), "mean": mean}
    summary["missing_queries"] = len(scores.keys() - set(run.queries))
    summary["extra_queries"] = len(set(run.queries) - scores.keys())
    _atomic_write({
        out / "per_query.tsv": evaluation.per_query_scores_text(scores, f"nDCG@{args.k}"),
        out / "eval_summary.json": _json_text(summary),
    })
    print(f"eval: mean nDCG@{args.k} over {len(scores)} queries = {mean:.4f}")
    return 0


def cmd_significance(args) -> int:
    _print_resolved("significance", args)
    _check_cutoff(args.k)
    if not 0.0 < args.alpha < 1.0:
        raise ConfigError("alpha must lie in (0, 1)")
    if not args.candidate:
        raise UsageError("at least one --candidate is required")
    paths = (args.baseline, *args.candidate)
    names = [Path(path).stem for path in paths]
    for i, name in enumerate(names):
        if name in names[:i]:
            raise ConfigError(f"duplicate system name {name!r}; rename the run files")
    qrels = _read_qrels(args.qrels)
    if len(qrels.query_ids()) < 2:  # every system is scored on the qrels' queries
        raise ConfigError(f"qrels file {args.qrels!r} contains fewer than 2 queries")
    # Each run is read and scored in a worker process; only its scores come back.
    scores = _map_processes(functools.partial(_run_scores, qrels, args.k), paths)
    per_system = dict(zip(names, scores))
    report = evaluation.significance_report(per_system, names[0], args.alpha)
    out, text = Path(args.out), report.to_text()
    _atomic_write({out / "significance.txt": text, out / "significance.jsonl": report.to_jsonl()})
    print(text, end="")
    return 0


def cmd_ablate(args) -> int:
    cfg = load_experiment_config(args.config, args)
    _print_resolved("ablate", args, cfg)
    _check_retriever(cfg, "distill")
    _check_retriever(cfg, "eval")
    _check_depth(cfg, "eval", "depth", cfg.eval.depth)
    _check_loss(cfg, "stage2", trainer.DISTILL_LOSSES)
    depths = sorted(cfg.ablation.depths)
    max_depth = depths[-1]
    _check_depth(cfg, "ablation", "depth", max_depth)
    splits = pipeline.query_ranges(cfg.world.num_queries, cfg.split)

    def build(world: distill_data.SyntheticWorld) -> list[np.ndarray]:
        run = world.first_stage_run(cfg.distill.retriever)
        ranked, ranks = distill_data.teacher_ranking(run, max_depth)
        cuts = (ranked[distill_data.first_stage_top(ranks, d)].reshape(len(run), d) for d in depths)
        return [run.features(index) for index in cuts]

    lists: dict[int, list[np.ndarray]] = {d: [] for d in depths}
    for blocks in distill_data.map_ranges(build, cfg.world, splits["train"]):
        for d, block in zip(depths, blocks):
            lists[d] += list(block)
    validation = pipeline.range_pools(
        cfg.world, cfg.eval.retriever, splits["validation"], cfg.eval.depth
    )
    base_model = _init_scorer(cfg.scorer, cfg.world.feature_dim)
    cells = pipeline.ablation_grid(lists, cfg.ablation.fractions, base_model, validation, cfg.stage2)
    out = Path(args.out)
    tsv_lines = ["depth\tquery_fraction\tnum_queries\tmean_ndcg10\tsteps"] + [
        f"{c.depth}\t{c.query_fraction}\t{c.num_queries}\t{c.mean_ndcg10!r}\t{c.steps_executed}"
        for c in cells
    ]
    jsonl = (json.dumps(dataclasses.asdict(c), separators=(",", ":")) for c in cells)
    _atomic_write({
        out / "ablation.tsv": "\n".join(tsv_lines) + "\n",
        out / "ablation.jsonl": "\n".join(jsonl) + "\n",
    })
    print("\n".join(tsv_lines))
    return 0


def _parse_system(text: str) -> tuple[str, rerank_sim.StrategySpec, rerank_sim.CostModel]:
    parts = text.split(",")
    if len(parts) not in (4, 6):
        raise UsageError(
            f"--system needs name,kind,per_call_latency,memory_gb[,window,stride]; got {text!r}"
        )
    name, kind = parts[0], parts[1]
    try:
        cost = rerank_sim.CostModel(float(parts[2]), float(parts[3]))
        window, stride = (int(parts[4]), int(parts[5])) if len(parts) == 6 else (20, 10)
    except ValueError:
        raise UsageError(f"bad numbers in --system {text!r}") from None
    if kind == "pointwise":
        spec = rerank_sim.pointwise()
    elif kind == "window":
        spec = rerank_sim.sliding_window(window, stride)
    else:
        raise UsageError(f"unknown strategy kind {kind!r} in --system {text!r}")
    return name, spec, cost


def cmd_bench(args) -> int:
    _print_resolved("bench", args)
    if not args.system:
        raise UsageError("at least one --system is required")
    systems = [_parse_system(s) for s in args.system]
    names = [name for name, _, _ in systems]
    if len(set(names)) != len(names):
        raise UsageError("duplicate system names in --system")
    baseline_name = args.baseline or names[0]
    if baseline_name not in names:
        raise UsageError(f"--baseline {baseline_name!r} is not among the given systems")
    by_name = {name: (spec, cost) for name, spec, cost in systems}
    base_spec, base_cost = by_name[baseline_name]
    baseline_est = rerank_sim.estimate(args.depth, base_spec, base_cost)
    rows = []
    for name, spec, cost in systems:
        rows.append((name, rerank_sim.estimate(args.depth, spec, cost, baseline=baseline_est)))
    text = rerank_sim.cost_report(rows)
    print(text, end="")
    if args.out:
        out = Path(args.out)
        jsonl = rerank_sim.cost_report_jsonl(rows)
        _atomic_write({out / "bench.txt": text, out / "bench.jsonl": jsonl})
    return 0


# ---------------------------------------------------------------------------
# Argument parsing and entry point
# ---------------------------------------------------------------------------


def _add_common(p: _Parser, config: bool = True) -> None:
    if config:
        p.add_argument("--config", help="JSON experiment config file")
        p.add_argument("--seed", type=int, help="master seed override for all stages")
    p.add_argument("--out", default=".", help="output directory")


def build_parser() -> _Parser:
    parser = _Parser(prog="ltrlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("world", help="generate a synthetic world and write qrels/runs")
    _add_common(p)
    p.set_defaults(func=cmd_world)

    p = sub.add_parser("distill", help="build the teacher-ranked distillation dataset")
    _add_common(p)
    p.set_defaults(func=cmd_distill)

    p = sub.add_parser("train", help="train the scorer (single- or two-stage)")
    _add_common(p)
    p.add_argument("--stage", choices=["single", "two"], default="single")
    p.add_argument(
        "--loss",
        choices=[trainer.LOSS_INFONCE, trainer.LOSS_RANKNET, trainer.LOSS_ADR_MSE],
        help="training loss; infonce with --stage single trains on labels only",
    )
    p.add_argument("--dataset", help="pre-built distillation dataset (jsonl)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a run file against qrels")
    p.add_argument("--run", required=True)
    p.add_argument("--qrels", required=True)
    p.add_argument("--k", type=int, default=10)
    _add_common(p, config=False)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("significance", help="paired t-tests with Holm correction")
    p.add_argument("--qrels", required=True)
    p.add_argument("--baseline", required=True, help="baseline run file")
    p.add_argument("--candidate", action="append", default=[], help="candidate run file")
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--alpha", type=float, default=0.05)
    _add_common(p, config=False)
    p.set_defaults(func=cmd_significance)

    p = sub.add_parser("ablate", help="depth x query-count ablation grid")
    _add_common(p)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("bench", help="re-ranking cost simulation")
    p.add_argument("--depth", type=int, default=100)
    p.add_argument(
        "--system",
        action="append",
        default=[],
        help="name,kind,per_call_latency,memory_gb[,window,stride]; kind is pointwise or window",
    )
    p.add_argument("--baseline", help="system name to compute ratios against")
    p.add_argument("--out", default=None, help="optional output directory")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, OSError, trainer.TrainingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
