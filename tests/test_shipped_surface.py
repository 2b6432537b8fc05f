"""Every module-level function and class of ``src/fbranch``, public or
private, is used by the package itself: a reference or helper that only the
tests call lives in the tests."""

import ast
from collections import defaultdict
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "fbranch"


def unreferenced_definitions(src: Path = SRC) -> list[str]:
    """``module.name`` for each top-level def or class of ``src`` that no
    other top-level statement of any module there names, as a bare name,
    an attribute or an imported name."""
    defined = []
    users = defaultdict(set)  # name -> {(module, top-level statement index)}
    for path in sorted(src.glob("*.py")):
        for i, node in enumerate(ast.parse(path.read_text()).body):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((path.stem, i, node.name))
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    users[sub.id].add((path.stem, i))
                elif isinstance(sub, ast.Attribute):
                    users[sub.attr].add((path.stem, i))
                elif isinstance(sub, ast.alias):
                    users[sub.name].add((path.stem, i))
    return [f"{module}.{name}" for module, i, name in defined
            if not users[name] - {(module, i)}]


def test_every_definition_has_a_caller_in_the_package():
    assert unreferenced_definitions() == []
