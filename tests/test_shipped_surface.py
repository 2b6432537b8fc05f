"""Every module-level function and class of ``src/fbranch``, public or
private, and every non-dunder method and property of its classes, is used
by the package itself: a reference or helper that only the tests call
lives in the tests.  The text-input grammar lives in one place, the reader
in ``errors.py``: no other module splits text, and no document parser
converts a token itself.  JSON output has one writer, ``cli._json``: no
other code calls ``json.dumps``."""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "fbranch"


def _names(node: ast.AST) -> Counter:
    """How often each name occurs in ``node``, as a bare name, an attribute
    or an imported name."""
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            out[sub.name] += 1
    return out


def unreferenced_definitions(src: Path = SRC) -> list[str]:
    """``module.name`` for each top-level def or class of ``src``, and
    ``module.Class.name`` for each non-dunder method or property of a
    top-level class, whose name no code of any module there names outside
    the definition itself."""
    defined = []  # (qualified name, definition)
    uses = Counter()
    for path in sorted(src.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            uses += _names(node)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((f"{path.stem}.{node.name}", node))
            if isinstance(node, ast.ClassDef):
                defined += [(f"{path.stem}.{node.name}.{m.name}", m) for m in node.body
                            if isinstance(m, ast.FunctionDef)
                            and not (m.name.startswith("__") and m.name.endswith("__"))]
    return [name for name, node in defined if uses[node.name] == _names(node)[node.name]]


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


def json_writers(src: Path = SRC) -> list[str]:
    """``module:line`` of each call of ``json.dumps`` outside ``cli._json``,
    the one JSON writer."""
    out = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        writer = [fn for fn in tree.body if path.name == "cli.py"
                  and isinstance(fn, ast.FunctionDef) and fn.name == "_json"]
        inside = {id(n) for fn in writer for n in ast.walk(fn)}
        out += [f"{path.stem}:{node.lineno}" for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and node.attr == "dumps"
                and id(node) not in inside]
    return out


def test_only_the_cli_json_writer_calls_json_dumps():
    assert json_writers() == []


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
