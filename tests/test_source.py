"""Source-level contracts of the package itself."""

import ast
from pathlib import Path

import adapterfuse


def parsed_sources():
    """(file name, ast) for every module of the package."""
    sources = sorted(Path(adapterfuse.__file__).parent.glob("*.py"))
    assert sources
    return [
        (path.name, ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        for path in sources
    ]


def test_no_runtime_assert():
    # bad input raises a typed ValueError; an assert is control flow that
    # python -O strips and that turns a bad input into exit 1
    found = [
        f"{name}:{node.lineno}"
        for name, tree in parsed_sources()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_only_cp_decomposition_calls_cp_als():
    # every CP model of a layer is fitted by cp_als_factored, which picks
    # the compressed core or the dense stack; no module fits a stack itself
    found = [
        f"{name}:{node.lineno}"
        for name, tree in parsed_sources()
        if name != "cp_decomposition.py"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and "cp_als" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]
    assert found == []


def test_only_blas_imports_threads():
    # the thread policy (BLAS threads, the worker pool) lives in one module
    def imported(node):
        if isinstance(node, ast.Import):
            return [alias.name for alias in node.names]
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            return [node.module]
        return []

    found = [
        f"{name}:{node.lineno}"
        for name, tree in parsed_sources()
        if name != "blas.py"
        for node in ast.walk(tree)
        for module in imported(node)
        if module.split(".")[0] in ("threading", "concurrent", "_thread")
    ]
    assert found == []
