"""Every exported name is reached from the library itself, not only from tests."""

import ast
from pathlib import Path

import arborist


def names_used_outside_init():
    used = set()
    for path in Path(arborist.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def test_every_export_is_reached():
    used = names_used_outside_init()
    assert [n for n in arborist.__all__ if n not in used] == []


def test_no_export_shadows_a_module():
    # `import arborist.<module>` must bind the module, which an exported
    # function of the same name would replace on the package
    modules = {path.stem for path in Path(arborist.__file__).parent.glob("*.py")}
    assert modules & set(arborist.__all__) == set()
