"""Source-level contracts of the package itself."""

import ast
from pathlib import Path

import adapterfuse


def test_no_runtime_assert():
    # bad input raises a typed ValueError; an assert is control flow that
    # python -O strips and that turns a bad input into exit 1
    sources = sorted(Path(adapterfuse.__file__).parent.glob("*.py"))
    assert sources
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
