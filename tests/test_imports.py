"""Every module of the package, `__init__` aside, uses each name it
imports, and importing the package loads no worker-process machinery."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ltrlab"
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """`line N: name` for each imported name that no expression of the module reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_finds_unused_imports():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from typing import Any, Sequence\n"
        "from . import core as c, trainer\n"
        "def f(x: Sequence) -> int:\n"
        "    return np.size(x) + c.n\n"
    )
    assert unused_imports(source) == ["line 2: os", "line 4: Any", "line 5: trainer"]


def test_import_loads_no_worker_machinery():
    """`multiprocessing` and `concurrent.futures` are imported only by a
    command that starts worker processes, so an import does not pay for them."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    for module in ("ltrlab", "ltrlab.cli", "ltrlab.pipeline", "ltrlab.distill_data"):
        script = (
            "import sys\n"
            f"import {module}\n"
            "workers = ('multiprocessing', 'concurrent')\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] in workers))\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60
        )
        assert (done.returncode, done.stdout) == (0, "[]\n"), (module, done.stderr)
