"""Library runtime checks raise; an `assert` would vanish under `python -O`."""

import ast
from pathlib import Path

import arborist


def test_library_has_no_assert_statements():
    found = []
    for path in sorted(Path(arborist.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == []
