"""Every top-level function and class of the package is used or exported."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ltrlab"
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def defined(tree: ast.Module) -> dict[str, int]:
    """Each top-level function and class of a module, with its line."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return {node.name: node.lineno for node in tree.body if isinstance(node, kinds)}


def named(tree: ast.AST) -> set[str]:
    """Every name that an expression reads, as a variable or as an attribute."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }


def exported(tree: ast.Module) -> set[str]:
    """The names that a package `__init__` imports."""
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def unused(modules: dict[str, str], used: set[str]) -> list[str]:
    """`module:line name` of each definition that no name in `used` refers to."""
    return [
        f"{module}:{line} {name}"
        for module, source in modules.items()
        for name, line in defined(ast.parse(source)).items()
        if name not in used
    ]


def test_every_definition_is_used_or_exported():
    sources = [*PACKAGE.glob("*.py"), *(ROOT / "bench").glob("*.py")]
    used = set().union(*(named(ast.parse(path.read_text(encoding="utf-8"))) for path in sources))
    used |= exported(ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8")))
    modules = {path.name: path.read_text(encoding="utf-8") for path in MODULES}
    assert unused(modules, used) == []


def test_finds_unused_definitions():
    source = "def f():\n    return g()\n\n\ndef g():\n    pass\n\n\nclass C:\n    pass\n"
    used = named(ast.parse(source))
    assert unused({"m.py": source}, used) == ["m.py:1 f", "m.py:9 C"]
    assert unused({"m.py": source}, used | named(ast.parse("m.C.attr(f)"))) == []
    assert exported(ast.parse("from .m import f as h, C\nimport os")) == {"h", "C"}
