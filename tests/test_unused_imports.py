"""Every module-level import is used by its module.

The repo has no linter; this is the lint step for unused imports.  It
covers ``src/repro``, ``tests``, ``examples`` and the top-level
``benchmarks/*.py`` (not ``benchmarks/perf``).  Package ``__init__``
modules are skipped: they import to re-export.  A name counts as used
when the module reads it anywhere (code, annotations, decorators) or
names it in a string annotation.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
MODULES = sorted(
    p for p in [*SRC.rglob("*.py"), *(ROOT / "tests").rglob("*.py"),
                *(ROOT / "examples").rglob("*.py"),
                *(ROOT / "benchmarks").glob("*.py")]
    if p.name != "__init__.py"
)


def _module_id(path: Path) -> str:
    """``src/repro`` modules by their package path, the rest by repo path."""
    return str(path.relative_to(SRC if SRC in path.parents else ROOT))


def _imported_names(tree: ast.Module):
    """(bound name, line) of each import statement at module level."""
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                yield name, node.lineno


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            annotation = node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotation = node.returns
        else:
            continue
        if annotation is not None:
            yield annotation


def _used_names(tree: ast.Module):
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                expression = ast.parse(node.value, mode="eval")
                used.update(n.id for n in ast.walk(expression)
                            if isinstance(n, ast.Name))
    return used


@pytest.mark.parametrize("path", MODULES, ids=[_module_id(p) for p in MODULES])
def test_module_uses_every_import(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used_names(tree)
    unused = [f"{name} (line {line})"
              for name, line in _imported_names(tree) if name not in used]
    assert not unused, f"unused imports in {path.relative_to(ROOT)}: {unused}"
