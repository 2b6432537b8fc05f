import argparse
import json
import os
import random
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import fbranch.cli
import fbranch.cutfn
from fbranch.cli import COMMANDS, _json, build_parser, main
from fbranch.decomp import (
    ENUM_MAX_N,
    GREEDY_MAX_N,
    decomposition_width,
    parse_decomposition,
)
from fbranch.cutfn import FamilySelector
from fbranch.errors import InternalInvariantError
from fbranch.graph import GRAPH_MAX_N, parse_graph

C6 = "6 6\n0 1\n1 2\n2 3\n3 4\n4 5\n5 0\n"
P4 = "4 3\n0 1\n1 2\n2 3\n"
DISCONNECTED = "6 5\n0 1\n1 2\n0 2\n3 4\n4 5\n"


@pytest.fixture
def c6(tmp_path):
    p = tmp_path / "c6.txt"
    p.write_text(C6)
    return p


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_solve_p4(tmp_path, capsys):
    p = tmp_path / "p4.txt"
    p.write_text(P4)
    code, out, _ = run(capsys, "solve", "--graph", str(p), "--families", "match")
    assert code == 0 and out.startswith("width 1")


def test_solve_c6_enum(c6, capsys):
    code, out, _ = run(capsys, "solve", "--graph", str(c6),
                       "--families", "match", "--solver", "enum")
    assert code == 0 and out.startswith("width 2")


def test_solve_disconnected_and_emitted_decomposition_revalidates(tmp_path, capsys):
    p = tmp_path / "g.txt"
    p.write_text(DISCONNECTED)
    dec = tmp_path / "out.tree"
    code, out, _ = run(capsys, "solve", "--graph", str(p), "--families", "match",
                       "--out-decomp", str(dec), "--report", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "fbranch/1"
    g = parse_graph(DISCONNECTED)
    bd = parse_decomposition(dec.read_text())
    assert len(bd.leaf_map) == g.n
    sel = FamilySelector.parse("match")
    assert decomposition_width(bd, g, sel).width == doc["width"]


def test_width_command(c6, tmp_path, capsys):
    code, out, _ = run(capsys, "solve", "--graph", str(c6), "--families", "match",
                       "--out-decomp", str(tmp_path / "c6.tree"))
    assert code == 0
    code, out, _ = run(capsys, "width", "--graph", str(c6),
                       "--decomp", str(tmp_path / "c6.tree"), "--families", "match")
    assert code == 0 and out.startswith("width 2")


def test_width_ntc(c6, tmp_path, capsys):
    run(capsys, "solve", "--graph", str(c6), "--families", "match",
        "--out-decomp", str(tmp_path / "c6.tree"))
    code, out, _ = run(capsys, "width", "--graph", str(c6),
                       "--decomp", str(tmp_path / "c6.tree"), "--families", "ntc")
    assert code == 0 and out.startswith("width")


def test_width_invalid_decomposition(c6, tmp_path, capsys):
    bad = tmp_path / "bad.tree"
    bad.write_text("tree 2\nt 0 1\nleaf 0 0\nleaf 1 0\n")
    code, _, err = run(capsys, "width", "--graph", str(c6),
                       "--decomp", str(bad), "--families", "match")
    assert code != 0 and "error" in err


def test_json_report_deterministic(c6, tmp_path, capsys):
    outs = []
    for _ in range(2):
        code, out, _ = run(capsys, "solve", "--graph", str(c6),
                           "--families", "primal", "--report", "json")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_kernelize_cli(tmp_path, capsys):
    g = tmp_path / "c12.txt"
    g.write_text("12 12\n" + "\n".join(f"{i} {(i + 1) % 12}" for i in range(12)) + "\n")
    out_file = tmp_path / "kernel.txt"
    trace_file = tmp_path / "trace.json"
    code, out, _ = run(capsys, "kernelize", "--in", str(g),
                       "--out", str(out_file), "--trace", str(trace_file))
    assert code == 0 and "12 vertices -> 10" in out
    kernel = parse_graph(out_file.read_text())
    assert kernel.n == 10
    trace = json.loads(trace_file.read_text())
    assert trace["schema"] == "fbranch/1" and trace["k"] == 1


def write_graph(path, n, edges):
    path.write_text(f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges))
    return path


def json_text(doc):
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_width_json_report_bytes(tmp_path, capsys):
    """The exact reports for C4 on a tree that splits {0, 1} from {2, 3}:
    under match that cut's witness is a two-pair induced matching; under
    ntc every cut has value 2 and an empty witness of value 0."""
    g = write_graph(tmp_path / "c4.txt", 4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    tree = tmp_path / "c4.tree"
    tree.write_text("tree 6\nt 0 4\nt 1 4\nt 2 5\nt 3 5\nt 4 5\n"
                    "leaf 0 0\nleaf 1 1\nleaf 2 2\nleaf 3 3\n")

    def report(families):
        code, out, err = run(capsys, "width", "--graph", str(g), "--decomp", str(tree),
                             "--families", families, "--report", "json")
        assert (code, err) == (0, "")
        return out

    def entry(edge, value, family, pairs, witness_value):
        return {"edge": edge, "value": value, "witness": {
            "family": family, "pairs": pairs, "value": witness_value}}

    assert report("match") == json_text({
        "argmax_edge": [4, 5], "command": "width", "families": "match",
        "schema": "fbranch/1", "width": 2,
        "edges": [entry([0, 4], 1, "match", [[0, 1]], 1),
                  entry([1, 4], 1, "match", [[1, 0]], 1),
                  entry([2, 5], 1, "match", [[2, 1]], 1),
                  entry([3, 5], 1, "match", [[0, 3]], 1),
                  entry([4, 5], 2, "match", [[0, 3], [1, 2]], 2)]})
    assert report("ntc") == json_text({
        "argmax_edge": [0, 4], "command": "width", "families": "ntc",
        "schema": "fbranch/1", "width": 2,
        "edges": [entry(e, 2, None, [], 0) for e in ([0, 4], [1, 4], [2, 5], [3, 5], [4, 5])]})


def kernelize_outputs(capsys, tmp_path, n, edges):
    g = write_graph(tmp_path / "g.txt", n, edges)
    trace = tmp_path / "trace.json"
    code, out, err = run(capsys, "kernelize", "--in", str(g), "--trace", str(trace))
    assert (code, err) == (0, "")
    return out, trace.read_text()


def test_kernelize_forest_trace_bytes(tmp_path, capsys):
    for n, edges, width in ((3, [(0, 1), (1, 2)], 1), (2, [], 0)):
        m = len(edges)
        assert kernelize_outputs(capsys, tmp_path, n, edges) == (
            f"forest input: width {width}, kernel unchanged (n={n})\n",
            json_text({"command": "kernelize", "schema": "fbranch/1", "k": 0,
                       "forest_shortcircuit": True, "forest_width": width,
                       "input": {"n": n, "m": m}, "final": {"n": n, "m": m},
                       "steps": []}))


def test_kernelize_contraction_trace_bytes(tmp_path, capsys):
    """A theta graph (hubs 0 and 1 joined by an edge and by runs of 20 and
    10 vertices) with a pendant vertex at hub 1, relabelled by v -> 7v mod
    33: the bridge goes, then four contractions inside the long run."""
    edges = [(0, 1)]
    for arc in (range(2, 22), range(22, 32)):
        chain = [0, *arc, 1]
        edges += zip(chain, chain[1:])
    edges.append((1, 32))
    edges = [(7 * u % 33, 7 * v % 33) for u, v in edges]

    def contract(path, edge):
        return {"rule": "contract", "path": path, "edge": edge}

    assert kernelize_outputs(capsys, tmp_path, 33, edges) == (
        "k=2: 33 vertices -> 28 (5 reduction steps)\n",
        json_text({
            "command": "kernelize", "schema": "fbranch/1", "k": 2,
            "forest_shortcircuit": False, "forest_width": None,
            "input": {"n": 33, "m": 34}, "final": {"n": 28, "m": 29},
            "steps": [
                {"rule": "bridges+isolated", "removed_bridges": [[7, 26]],
                 "removed_vertices": [26]},
                contract([14, 21, 27, 2, 9, 16, 23, 29, 4], [9, 16]),
                contract([14, 20, 26, 2, 9, 22, 28, 4, 11], [9, 22]),
                contract([14, 20, 25, 2, 9, 27, 4, 11, 17], [9, 27]),
                contract([14, 20, 25, 2, 9, 4, 11, 17, 23], [9, 4])]}))


def test_prune_cli(tmp_path, capsys):
    g = tmp_path / "star.txt"
    g.write_text("10 9\n" + "\n".join(f"0 {i}" for i in range(1, 10)) + "\n")
    out_file = tmp_path / "pruned.txt"
    code, out, _ = run(capsys, "prune", "--in", str(g), "--threshold", "2",
                       "--out", str(out_file))
    assert code == 0
    assert parse_graph(out_file.read_text()).n == 3


def test_classify_cli(tmp_path, capsys):
    h = tmp_path / "h.txt"
    h.write_text("2\n1 1\n1 2\n2 2\n")
    code, out, _ = run(capsys, "classify", "--in", str(h))
    assert code == 0 and out.strip() == "chain"
    h.write_text("2\n1 1\n")
    code, out, _ = run(capsys, "classify", "--in", str(h))
    assert code == 0 and out.strip() == "none"


def test_typical_cli(capsys):
    code, out, _ = run(capsys, "typical", "--seq", "1,2,3")
    assert code == 0 and out.strip() == "1,3"
    code, out, _ = run(capsys, "typical", "--seq", "0,2", "--interleave", "1")
    assert code == 0 and out.strip() == "1,3"
    code, out, _ = run(capsys, "typical", "--enumerate", "1")
    assert code == 0 and len(out.strip().splitlines()) == 6


def test_verify_lemmas_cli_quick_subset(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, "verify-lemmas", "--only", "chain-swap",
                       "--only", "classification", "--quick")
    assert code == 0
    assert out.count("[PASS]") == 2


def test_verify_lemmas_detects_injected_fault(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    search, complemented = fbranch.cutfn._SEARCHES[fbranch.cutfn.Family.MATCH]

    def broken(cut, cap):
        pairs = search(cut, cap)
        return pairs + pairs[:1]  # one pair too many whenever a pair exists

    # family_value dispatches through the search table; patch there
    monkeypatch.setitem(fbranch.cutfn._SEARCHES, fbranch.cutfn.Family.MATCH,
                        (broken, complemented))
    code, out, _ = run(capsys, "verify-lemmas", "--only", "cutfn-oracle", "--quick")
    assert code == 1
    assert "[FAIL]" in out
    dumps = list((tmp_path / "counterexamples").glob("*.json"))
    assert dumps and json.loads(dumps[0].read_text())["violations"]
    text = dumps[0].read_text()
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("2 1\n1 1\n")
    code, _, err = run(capsys, "solve", "--graph", str(bad))
    assert code == 2 and "error" in err


def test_unknown_family_exit_code(c6, capsys):
    for families in ("matchh", "match,bogus", ","):
        code, _, err = run(capsys, "solve", "--graph", str(c6), "--families", families)
        assert code == 2
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), err


def assert_one_error_line(code, err):
    assert code == 2
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), err


K2 = "2 1\n0 1\n"
K2_LEAF_TWICE = "tree 2\nt 0 1\nleaf 0 1\nleaf 0 0\nleaf 1 1\n"


@pytest.mark.parametrize("argv", [
    # an empty entry in a family list is malformed, not skipped
    ("solve", "--graph", "{k2}", "--families", "match,,chain"),
    ("solve", "--graph", "{k2}", "--families", ",match"),
    ("solve", "--graph", "{k2}", "--families", "match, ,chain"),
    # a later leaf line must not overwrite an earlier one for the same node
    ("width", "--graph", "{k2}", "--decomp", "{leaf_twice}"),
    # --enumerate lists sequences; it cannot also take one
    ("typical", "--enumerate", "2", "--seq", "1"),
    ("typical", "--enumerate", "2", "--interleave", "1"),
])
def test_bad_input_exit_code(tmp_path, capsys, argv):
    (tmp_path / "k2.txt").write_text(K2)
    (tmp_path / "leaf_twice.tree").write_text(K2_LEAF_TWICE)
    paths = {"k2": tmp_path / "k2.txt", "leaf_twice": tmp_path / "leaf_twice.tree"}
    code, out, err = run(capsys, *(a.format(**paths) for a in argv))
    assert_one_error_line(code, err)
    assert out == ""


# one good document per input kind, as lines, and the command that reads it
DOCUMENTS = {
    "graph": (("2 1", "0 1"), ("solve", "--graph", "{doc}")),
    "decomp": (("tree 2", "t 0 1", "leaf 0 0", "leaf 1 1"),
               ("width", "--graph", "{k2}", "--decomp", "{doc}")),
    "pattern": (("2", "1 1", "1 2", "2 2"), ("classify", "--in", "{doc}")),
}


@pytest.mark.parametrize("kind, index, bad", [
    # a wrong word, a wrong token count and a non-integer token, each in the
    # header (line 0) and in a body line
    ("graph", 0, "graph 2 1"), ("graph", 0, "2 1 1"), ("graph", 0, "2 one"),
    ("graph", 1, "e 0 1"), ("graph", 1, "0 1 1"), ("graph", 1, "0 x"),
    ("decomp", 0, "trees 2"), ("decomp", 0, "tree 2 2"), ("decomp", 0, "tree two"),
    ("decomp", 1, "edge 0 1"), ("decomp", 1, "t 0 1 1"), ("decomp", 3, "leaf 1 x"),
    ("pattern", 0, "q 2"), ("pattern", 0, "2 2"), ("pattern", 0, "two"),
    ("pattern", 1, "e 1 1"), ("pattern", 1, "1 1 1"), ("pattern", 2, "1 x"),
])
def test_bad_line_exit_code_quotes_the_line(tmp_path, capsys, kind, index, bad):
    lines, argv = DOCUMENTS[kind]
    doc = tmp_path / "doc.txt"
    doc.write_text("\n".join(lines[:index] + (bad,) + lines[index + 1:]) + "\n")
    (tmp_path / "k2.txt").write_text(K2)
    paths = {"doc": doc, "k2": tmp_path / "k2.txt"}
    code, out, err = run(capsys, *(a.format(**paths) for a in argv))
    assert_one_error_line(code, err)
    assert repr(bad) in err and out == ""


def test_typical_bad_sequence_entry_exit_code(capsys):
    code, _, err = run(capsys, "typical", "--seq", "1,a")
    assert_one_error_line(code, err)


@pytest.mark.parametrize("argv", [("--seq", "1,,2"), ("--seq", "1,2,"), ("--seq", ",1"),
                                  ("--seq", "1, ,2"), ("--seq", "0", "--interleave", "1,,2")])
def test_typical_empty_entry_exit_code(capsys, argv):
    # an empty entry is malformed, not skipped
    code, out, err = run(capsys, "typical", *argv)
    assert_one_error_line(code, err)
    assert "empty entry" in err and out == ""


@pytest.mark.parametrize("argv", [("--seq", "1,2", "--interleave", ""), ("--seq", "")])
def test_typical_empty_sequence_exit_code(capsys, argv):
    # an empty value is given, not missing: it must not be dropped or
    # reported as absent
    code, out, err = run(capsys, "typical", *argv)
    assert_one_error_line(code, err)
    assert "sequences must be nonempty" in err and out == ""


def test_typical_enumerate_over_limit_exit_code(capsys):
    code, _, err = run(capsys, "typical", "--enumerate", "9")
    assert_one_error_line(code, err)


def test_typical_interleave_over_limit_exit_code(capsys):
    # 9 + 9 entries: walking them took 45 s
    code, out, err = run(capsys, "typical", "--seq", "0,40,1,39,2,38,3,37,4",
                         "--interleave", "0,41,1,40,2,39,3,38,4")
    assert_one_error_line(code, err)
    assert out == ""


def test_solve_greedy_over_limit_exit_code(tmp_path, capsys):
    n = GREEDY_MAX_N + 1
    big = tmp_path / "path.txt"
    big.write_text(f"{n} {n - 1}\n" + "".join(f"{i} {i + 1}\n" for i in range(n - 1)))
    code, out, err = run(capsys, "solve", "--graph", str(big), "--solver", "greedy")
    assert_one_error_line(code, err)
    assert out == "" and str(GREEDY_MAX_N) in err


def test_solve_width_that_does_not_reevaluate_exit_code(c6, capsys, monkeypatch):
    """A solver whose reported width its own tree does not reach is an
    internal fault: InternalInvariantError, exit 2, one error line."""
    real = fbranch.cli.exact_branchwidth_dp

    def one_too_many(g, sel):
        width, bd = real(g, sel)
        return width + 1, bd

    monkeypatch.setattr(fbranch.cli, "exact_branchwidth_dp", one_too_many)
    argv = ["solve", "--graph", str(c6), "--families", "match"]
    args = build_parser().parse_args(argv)
    with pytest.raises(InternalInvariantError,
                       match="^internal: reported width does not re-evaluate$"):
        args.fn(args)
    code, out, err = run(capsys, *argv)
    assert_one_error_line(code, err)
    assert out == "" and err == "error: internal: reported width does not re-evaluate\n"


def test_solve_enum_over_limit_exit_code(tmp_path, capsys):
    n = ENUM_MAX_N + 1
    big = tmp_path / "path.txt"
    big.write_text(f"{n} {n - 1}\n" + "".join(f"{i} {i + 1}\n" for i in range(n - 1)))
    code, out, err = run(capsys, "solve", "--graph", str(big), "--solver", "enum")
    assert_one_error_line(code, err)
    assert out == "" and str(ENUM_MAX_N) in err


def caterpillar(n):
    """Decomposition text of the caterpillar on n >= 3 leaves: internal node
    n + i holds leaf i + 1; leaf 0 hangs on the first, leaf n - 1 on the last."""
    spine = list(range(n, 2 * n - 2))
    edges = list(zip(spine, spine[1:])) + [(spine[0], 0), (spine[-1], n - 1)]
    edges += [(spine[i - 1], i) for i in range(1, n - 1)]
    return "\n".join([f"tree {2 * n - 2}"] + [f"t {u} {v}" for u, v in edges]
                     + [f"leaf {v} {v}" for v in range(n)]) + "\n"


def paths(count, length):
    """``count`` disjoint paths of ``length`` vertices, as graph text."""
    edges = [(p * length + i, p * length + i + 1)
             for p in range(count) for i in range(length - 1)]
    return f"{count * length} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)


def test_width_over_limit_exit_code(tmp_path, capsys, monkeypatch):
    def no_cuts(*args):
        raise AssertionError("a cut was evaluated")

    monkeypatch.setattr(fbranch.cutfn.CutEvaluator, "value_of_mask", no_cuts)
    n = GREEDY_MAX_N + 1
    tree = tmp_path / "cat.tree"
    tree.write_text(caterpillar(n))
    big = tmp_path / "path.txt"
    big.write_text(paths(1, n))
    # a connected graph past the limit, under a primal union and under all
    for families in ("match", "all"):
        code, out, err = run(capsys, "width", "--graph", str(big), "--decomp", str(tree),
                             "--families", families)
        assert_one_error_line(code, err)
        assert out == "" and str(GREEDY_MAX_N) in err
    # components count only for a primal union: isolated vertices under empty
    split = tmp_path / "isolated.txt"
    split.write_text(paths(n, 1))
    code, out, err = run(capsys, "width", "--graph", str(split), "--decomp", str(tree),
                         "--families", "empty")
    assert_one_error_line(code, err)
    assert out == "" and str(n) in err


def test_width_within_limit_reevaluates_solver_trees(tmp_path, capsys):
    # a connected graph at the limit under all families
    at = tmp_path / "path.txt"
    at.write_text(paths(1, GREEDY_MAX_N))
    cat = tmp_path / "cat.tree"
    cat.write_text(caterpillar(GREEDY_MAX_N))
    code, out, _ = run(capsys, "width", "--graph", str(at), "--decomp", str(cat),
                       "--families", "all")
    assert code == 0 and out.startswith("width ")
    # past the limit in all, within it per component: the dp solver's tree
    # of a primal union re-evaluates, under all it is refused
    big = tmp_path / "paths.txt"
    big.write_text(paths(9, 5))
    tree = tmp_path / "paths.tree"
    code, out, _ = run(capsys, "solve", "--graph", str(big), "--families", "primal",
                       "--out-decomp", str(tree))
    assert code == 0 and out.startswith("width 1 ")
    code, out, _ = run(capsys, "width", "--graph", str(big), "--decomp", str(tree),
                       "--families", "primal")
    assert code == 0 and out.startswith("width 1 ")
    code, out, err = run(capsys, "width", "--graph", str(big), "--decomp", str(tree),
                         "--families", "all")
    assert_one_error_line(code, err)


def test_width_non_integer_tree_line_exit_code(c6, tmp_path, capsys):
    bad = tmp_path / "bad.tree"
    bad.write_text("tree 2\nt 0 x\nleaf 0 0\nleaf 1 1\n")
    code, _, err = run(capsys, "width", "--graph", str(c6), "--decomp", str(bad))
    assert_one_error_line(code, err)


def test_prune_threshold_below_one_exit_code(tmp_path, capsys):
    p3 = tmp_path / "p3.txt"
    p3.write_text("3 2\n0 1\n1 2\n")
    for threshold in ("0", "-1"):
        code, out, err = run(capsys, "prune", "--in", str(p3), "--threshold", threshold)
        assert_one_error_line(code, err)
        assert out == ""


def test_input_directory_exit_code(tmp_path, capsys):
    code, out, err = run(capsys, "kernelize", "--in", str(tmp_path))
    assert_one_error_line(code, err)
    assert out == ""


def test_undecodable_input_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\xfe\x00")
    code, out, err = run(capsys, "kernelize", "--in", str(bad))
    assert_one_error_line(code, err)
    assert out == ""


def test_output_directory_exit_code(c6, tmp_path, capsys):
    code, _, err = run(capsys, "solve", "--graph", str(c6), "--out", str(tmp_path))
    assert_one_error_line(code, err)


def test_classify_pair_count_below_one_exit_code(tmp_path, capsys):
    h = tmp_path / "h.txt"
    for q in ("0", "-1"):
        h.write_text(q + "\n")
        code, out, err = run(capsys, "classify", "--in", str(h))
        assert_one_error_line(code, err)
        assert out == ""


def test_solve_has_no_limit_option(c6, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--help"])
    assert exc.value.code == 0 and "--limit" not in capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--graph", str(c6), "--limit", "30"])
    assert exc.value.code == 2


def test_graph_header_over_vertex_limit_exit_code(tmp_path, capsys):
    # rejected before any per-vertex allocation; the limit itself parses
    big = tmp_path / "big.txt"
    big.write_text(f"{GRAPH_MAX_N + 1} 0\n")
    code, out, err = run(capsys, "kernelize", "--in", str(big))
    assert_one_error_line(code, err)
    assert out == "" and str(GRAPH_MAX_N) in err
    assert parse_graph(f"{GRAPH_MAX_N} 0\n").n == GRAPH_MAX_N


@pytest.mark.parametrize("module", ["fbranch.cli", "fbranch"])
def test_python_dash_m_entry_points(module, c6, tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}

    def run_module(*argv):
        return subprocess.run([sys.executable, "-m", module, *argv], env=env,
                              capture_output=True, text=True, timeout=60)

    done = run_module("solve", "--graph", str(c6), "--families", "match")
    assert done.returncode == 0 and done.stdout.startswith("width 2"), done
    bad = tmp_path / "bad.txt"
    bad.write_text("2 1\n1 1\n")
    done = run_module("solve", "--graph", str(bad))
    assert done.returncode == 2 and done.stderr.startswith("error:"), done


def test_typical_interleave_of_eight_and_eight_runs_in_seconds():
    # 501 compressions over the Delannoy walks of an 8 + 8 grid; a
    # compressor that rescans from the start at every leaf takes several
    # seconds here, the online one a small fraction of a second
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-m", "fbranch", "typical", "--seq", "0,9,1,8,2,7,3,6",
         "--interleave", "9,0,8,1,7,2,6,3"],
        env=env, capture_output=True, text=True, timeout=3)
    assert done.returncode == 0, done
    assert len(done.stdout.splitlines()) == 501


def test_readme_cli_lines_parse():
    """Every command line of the README's CLI block names only existing
    commands and options (parsed, not run)."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line.split("#", 1)[0] for line in block.splitlines()
             if line.startswith("fbranch ")]
    assert len(lines) >= 10
    for line in lines:
        argv = shlex.split(line)[1:]
        assert argv[0] in COMMANDS, line
        build_parser(argv[0]).parse_args(argv)


PARSE_EXITS = [
    *([command, "--help"] for command in COMMANDS),
    ["--help"], ["--version"], [], ["-h", "solve"],
    ["bogus"], ["Solve", "--graph", "g"],
    ["solve"], ["width", "--graph", "g"], ["kernelize"], ["prune"], ["classify"],
    ["solve", "--graph", "g", "--solver", "fast"],
    ["width", "--graph", "g", "--decomp", "d", "--report", "xml"],
    ["verify-lemmas", "--only", "no-such-suite"],
    ["prune", "--in", "g", "--threshold", "x"],
    ["solve", "--gra"],
    ["width", "--graph", "g", "--decomp", "d", "--bogus"],
    ["solve", "--graph", "g", "extra"],
    ["kernelize", "--in", "g", "--bogus"],
    ["prune", "--in", "g", "--bogus"],
    ["classify", "--in", "g", "--bogus"],
    ["typical", "--seq", "1,2", "--bogus"],
    ["verify-lemmas", "--quick", "--bogus"],
    ["typical", "--version"],
]


def parse_exit(capsys, parse, argv):
    try:
        code = parse(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize("argv", PARSE_EXITS, ids=" ".join)
def test_per_command_parser_exits_like_the_full_parser(capsys, argv):
    """main builds only the named command's parser; its help, usage and
    error output, and its exit code, are those of the full parser."""
    full = parse_exit(capsys, build_parser().parse_args, list(argv))
    assert full[0] in (0, 2), full
    assert parse_exit(capsys, main, list(argv)) == full


def test_main_builds_only_the_named_commands_parser(capsys, monkeypatch):
    built = []
    add_parser = argparse._SubParsersAction.add_parser

    def counting(self, name, **kwargs):
        built.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counting)
    assert main(["typical", "--seq", "1"]) == 0
    assert built == ["typical"]
    built.clear()
    build_parser()
    assert tuple(built) == COMMANDS


JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-10**20, 10**20),
    st.text(st.characters(codec="utf-8"), max_size=8) | st.sampled_from(
        ["", '"', "\\", "\n\t\x00\x1f", "é", "\u2028", "\U0001f600"]))
JSON_DOCS = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=5)
    | st.lists(st.integers(-5, 10**6), max_size=6)
    | st.dictionaries(st.text(max_size=6), inner, max_size=5),
    max_leaves=30)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(JSON_DOCS)
@example({"steps": [  # a kernel trace's steps: str and all-int list leaves
    {"rule": "bridges+isolated", "removed_bridges": [[0, 1]], "removed_vertices": []},
    {"rule": "contract", "path": [3, 4, 5, 6, 7, 8, 9, 10, 11], "edge": [7, 8]}]})
def test_json_writer_matches_json_dumps(doc):
    assert _json(doc) == json.dumps(doc, indent=2, sort_keys=True)


def test_json_writer_writes_tuples_as_lists():
    # counterexample dumps carry tuples (a classification violation's
    # sorted edge list) and may hold empty containers
    doc = {"edges": [(0, 1), (1, 0)], "pair": (2, "a", (3,)), "empty": [(), [], {}],
           "nested": {"t": ((),), "d": {}}}
    assert _json(doc) == json.dumps(doc, indent=2, sort_keys=True)


def assert_written_by_json_dumps(text):
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("seed", range(4))
def test_cli_json_documents_match_json_dumps(tmp_path, capsys, seed):
    """Every JSON document the CLI writes has the bytes of
    json.dumps(indent=2, sort_keys=True): solve and width reports with
    witness pairs and kernelize traces with and without removed bridges."""
    rng = random.Random(seed)
    n = 8
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = rng.sample(pairs, 5 + seed * 3)
    g = tmp_path / "g.txt"
    g.write_text(f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges))
    tree = tmp_path / "g.tree"
    for families in ("match", "all"):
        code, out, _ = run(capsys, "solve", "--graph", str(g), "--families", families,
                           "--out-decomp", str(tree), "--report", "json")
        assert code == 0
        assert_written_by_json_dumps(out)
        code, out, _ = run(capsys, "width", "--graph", str(g), "--decomp", str(tree),
                           "--families", families, "--report", "json")
        assert code == 0 and json.loads(out)["edges"][0]["witness"]["pairs"]
        assert_written_by_json_dumps(out)
    # a cycle with a pendant path, then that path alone (a forest)
    k = 10 + seed
    cycle = [(i, (i + 1) % k) for i in range(k)] + [(0, k), (k, k + 1)]
    for text in (f"{k + 2} {len(cycle)}\n" + "".join(f"{u} {v}\n" for u, v in cycle),
                 f"{k + 2} 2\n0 {k}\n{k} {k + 1}\n", C6):
        g.write_text(text)
        trace = tmp_path / "trace.json"
        assert run(capsys, "kernelize", "--in", str(g), "--trace", str(trace))[0] == 0
        assert_written_by_json_dumps(trace.read_text())


def test_cli_json_documents_of_edgeless_graphs_match_json_dumps(tmp_path, capsys):
    for text in ("1 0\n", "3 0\n"):
        g = tmp_path / "g.txt"
        g.write_text(text)
        tree = tmp_path / "g.tree"
        code, out, _ = run(capsys, "solve", "--graph", str(g), "--families", "match",
                           "--out-decomp", str(tree), "--report", "json")
        assert code == 0
        assert_written_by_json_dumps(out)
        code, out, _ = run(capsys, "width", "--graph", str(g), "--decomp", str(tree),
                           "--families", "match", "--report", "json")
        assert code == 0
        assert (json.loads(out)["argmax_edge"] is None) == (text == "1 0\n")
        assert_written_by_json_dumps(out)
