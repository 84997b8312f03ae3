"""Source-level contracts of the package itself."""

import ast
from pathlib import Path

import adapterfuse


def parsed_sources(*dirs):
    """(file name, ast) for every module of the package, then of dirs."""
    sources = sorted(Path(adapterfuse.__file__).parent.glob("*.py"))
    assert sources
    sources += [path for d in dirs for path in sorted(d.glob("*.py"))]
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


def test_containers_are_mapped_never_read():
    # one read path: containers maps every container file (mmap) and reads
    # none into a copy, and no other module maps a file
    found = []
    for name, tree in parsed_sources():
        for node in ast.walk(tree):
            if name == "containers.py" and isinstance(node, ast.Attribute) and node.attr == "read":
                found.append(f"{name}:{node.lineno} .read")
            if name != "containers.py" and isinstance(node, (ast.Import, ast.ImportFrom)):
                modules = [a.name for a in node.names] if isinstance(node, ast.Import) \
                    else [node.module]
                found += [f"{name}:{node.lineno} mmap" for m in modules if m == "mmap"]
    assert found == []


def test_only_containers_lays_out_payloads():
    # containers places every array of a payload: the header-line formats
    # get theirs from read_framed, and only the offset-addressed ALIB index
    # makes adapter_io read its tensors one by one
    allowed = {"frombuffer": {"containers.py"}, "read_array": {"containers.py", "adapter_io.py"}}
    found = [
        f"{name}:{node.lineno} {callee}"
        for name, tree in parsed_sources()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        for callee in [getattr(node.func, "id", None) or getattr(node.func, "attr", None)]
        if callee in allowed and name not in allowed[callee]
    ]
    assert found == []


def test_no_unused_imports():
    # an import that no name of its module uses is dead; the package's
    # __init__ imports to re-export, and a __future__ import binds nothing
    found = []
    for name, tree in parsed_sources(Path(__file__).parent):
        if name == "__init__.py":
            continue
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        found += [
            f"{name}:{node.lineno} {bound}"
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
            for bound in [alias.asname or alias.name.split(".")[0]]
            if bound not in used
        ]
    assert found == []
