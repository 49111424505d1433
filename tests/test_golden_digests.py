"""Every output file of the smoke-config commands keeps its committed bytes.

`golden_digests.json` holds the sha256 of each file that the CLI writes on
the smoke config at two seeds, and the versions of the numeric stack that
made them. The test runs the same commands again and compares every digest.

The file also records numpy's SIMD targets: the bits of `np.exp`, `np.log1p`
and `np.tanh` depend on which kernel numpy dispatches to on the CPU at hand.
They are for information only: a failure prints the recorded and the current
targets, but a different CPU is no failure by itself.

To re-baseline after a deliberate change of the outputs, run from the
repository root:

    PYTHONPATH=src python tests/test_golden_digests.py

and name every file whose digest changed in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import platform
import sys
from pathlib import Path

import numpy as np

from ltrlab import distill_data
from ltrlab.cli import main
from ltrlab.distill_data import WorldConfig

from _oracles import slice_bytes
from test_cli import SMOKE_CONFIG

GOLDEN = Path(__file__).resolve().parent / "golden_digests.json"
SEEDS = (0, 4242)


def environment() -> dict[str, str]:
    """The versions whose change may change the bits of the outputs."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas.get('version', 'unknown')}",
    }


def simd_targets() -> dict[str, list[str]]:
    """numpy's baseline SIMD targets and the dispatch targets this CPU enables."""
    from numpy._core._multiarray_umath import (
        __cpu_baseline__,
        __cpu_dispatch__,
        __cpu_features__,
    )

    return {
        "baseline": list(__cpu_baseline__),
        "dispatch": [target for target in __cpu_dispatch__ if __cpu_features__.get(target)],
    }


def commands(root: Path, seed: int) -> dict[str, list[str]]:
    """Every command of the digest set at one seed, without its `--out`,
    keyed by its output directory below `root / f"seed{seed}"`, in run order."""
    base = root / f"seed{seed}"
    world = base / "world"
    config = ["--config", str(root / "config.json"), "--seed", str(seed)]
    qrels = str(world / "qrels.txt")
    strong, weak = (str(world / f"run_{name}.trec") for name in ("strong", "weak"))
    dataset = str(base / "distill" / "distill_dataset.jsonl")
    return {
        "world": ["world", *config],
        "distill": ["distill", *config],
        "ablate": ["ablate", *config],
        "train-ranknet": ["train", *config],
        "train-adr-mse": ["train", *config, "--loss", "adr-mse"],
        "train-infonce": ["train", *config, "--loss", "infonce"],
        "train-two": ["train", *config, "--stage", "two"],
        "train-dataset": ["train", *config, "--dataset", dataset],
        "eval": ["eval", "--run", strong, "--qrels", qrels],
        "significance": [
            "significance", "--qrels", qrels, "--baseline", weak, "--candidate", strong,
        ],
        "bench": [
            "bench", "--system", "point,pointwise,0.215,2.69",
            "--system", "windowed,window,2.6719,15.48,20,10",
        ],
    }


def run_commands(root: Path, seed: int) -> None:
    """Write the smoke config into `root` and run every command at one seed on it."""
    (root / "config.json").write_text(json.dumps(SMOKE_CONFIG), encoding="utf-8")
    for name, argv in commands(root, seed).items():
        if main([*argv, "--out", str(root / f"seed{seed}" / name)]) != 0:
            raise RuntimeError(f"ltrlab {' '.join(argv)} failed")


def digests(root: Path) -> dict[str, str]:
    """sha256 of every output file under `root`, keyed by its path below it."""
    for seed in SEEDS:
        run_commands(root, seed)
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for seed in SEEDS
        for path in sorted((root / f"seed{seed}").rglob("*"))
        if path.is_file()
    }


def assert_golden(root: Path) -> None:
    """Every command's outputs under `root` have the committed digests."""
    golden, now = json.loads(GOLDEN.read_text(encoding="utf-8")), environment()
    simd = f"SIMD targets (golden, now): {(golden['simd'], simd_targets())}"
    differ = {k: (v, now.get(k)) for k, v in golden["environment"].items() if now.get(k) != v}
    assert not differ, (
        f"digests were made on another numeric stack, (golden, now): {differ}; {simd}"
    )
    actual = digests(root)
    expected = golden["files"]
    assert sorted(actual) == sorted(expected), f"the set of output files changed; {simd}"
    changed = sorted(name for name in expected if actual[name] != expected[name])
    assert not changed, f"output files whose bytes changed: {changed}; {simd}"


def test_outputs_match_golden_digests(tmp_path):
    assert_golden(tmp_path)


def test_outputs_match_golden_digests_across_range_edges(tmp_path, monkeypatch):
    """The smoke world's 200 queries fit in one world slice. At 7 queries a
    slice, which divides neither 200 nor the split boundaries 120 and 160,
    every command crosses slice edges and must still write the same bytes."""
    monkeypatch.setattr(distill_data, "_SLICE_BYTES", slice_bytes(WorldConfig(**SMOKE_CONFIG["world"]), 7))
    assert_golden(tmp_path)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        files = digests(Path(tmp))
    record = {"environment": environment(), "files": files, "simd": simd_targets()}
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(files)} digests to {GOLDEN}", file=sys.stderr)
