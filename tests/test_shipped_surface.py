"""Every module-level function and class of ``src/fbranch``, public or
private, is used by the package itself: a reference or helper that only the
tests call lives in the tests.  The text-input grammar lives in one place,
the reader in ``errors.py``: no other module splits text, and no document
parser converts a token itself."""

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


def text_splitters(src: Path = SRC) -> list[str]:
    """``module:line`` of each use of ``split``, ``rsplit`` or
    ``splitlines`` outside ``errors.py``."""
    return [f"{path.stem}:{node.lineno}" for path in sorted(src.glob("*.py"))
            if path.name != "errors.py"
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and node.attr in ("split", "rsplit", "splitlines")]


def test_only_the_reader_splits_text():
    assert text_splitters() == []


def document_parsers(src: Path = SRC) -> dict[str, list[int]]:
    """The lines of the ``int`` calls in each document parser, a function
    outside ``errors.py`` that calls ``read_document``."""
    out = {}
    for path in sorted(src.glob("*.py")):
        if path.name == "errors.py":
            continue
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, ast.FunctionDef):
                calls = [n for n in ast.walk(fn) if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)]
                if any(n.func.id == "read_document" for n in calls):
                    out[fn.name] = [n.lineno for n in calls if n.func.id == "int"]
    return out


def test_document_parsers_convert_no_token():
    assert document_parsers() == {"parse_graph": [], "parse_decomposition": [],
                                  "parse_ordered_bipartite": []}
