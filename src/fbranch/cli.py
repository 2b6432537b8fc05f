"""Command-line front end.

Commands: width, solve, kernelize, prune, classify, typical, verify-lemmas.
Reports are plain text or JSON (schema "fbranch/1"); with a fixed seed and
configuration the emitted documents are byte-identical across runs.
"""

from __future__ import annotations

import argparse
import json
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path

from . import __version__
from .cutfn import FamilySelector
from .decomp import (
    decomposition_to_json_dict,
    decomposition_to_text,
    decomposition_width,
    exact_branchwidth_dp,
    exact_branchwidth_enum,
    greedy_branchwidth,
    parse_decomposition,
)
from .errors import FBranchError
from .families import classify_si, parse_ordered_bipartite
from .graph import graph_to_json_dict, graph_to_text, parse_graph
from .kernel import kernelize_fes
from .treedepth import prune_by_treedepth
from .typseq import (
    enumerate_typical,
    format_sequence,
    interleave,
    parse_sequence,
    typical_of,
)
from .verify import SUITES, run_suites

SCHEMA = "fbranch/1"
COMMANDS = ("width", "solve", "kernelize", "prune", "classify", "typical",
            "verify-lemmas")


def _read(path: str) -> str:
    return Path(path).read_text()


def _json(obj, indent: str = "\n") -> str:
    """The text of ``json.dumps(obj, indent=2, sort_keys=True, default=str)``
    for str-keyed dicts, lists and tuples, without the stdlib's pure-Python
    encoder (its C encoder has no indent).  The CLI's one JSON writer."""
    if obj and isinstance(obj, dict):
        inner = indent + "  "
        deeper = inner + "  "
        items = []
        # str values and nonempty all-int lists, the leaves of a kernel
        # trace's steps, are written here; anything else recurses
        for k, v in sorted(obj.items()):
            if type(v) is str:
                text = encode_basestring_ascii(v)
            elif v and type(v) in (list, tuple) and all(type(x) is int for x in v):
                text = "[" + deeper + ("," + deeper).join(map(str, v)) + inner + "]"
            else:
                text = _json(v, inner)
            items.append(encode_basestring_ascii(k) + ": " + text)
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if obj and isinstance(obj, (list, tuple)):
        inner = indent + "  "
        if all(type(x) is int for x in obj):
            return "[" + inner + ("," + inner).join(map(str, obj)) + indent + "]"
        return "[" + inner + ("," + inner).join(
            [_json(x, inner) for x in obj]) + indent + "]"
    if type(obj) is int:
        return str(obj)
    if type(obj) is str:
        return encode_basestring_ascii(obj)
    return json.dumps(obj, default=str)


def _emit(doc: dict, text: str, fmt: str, out: str | None) -> None:
    payload = _json(doc) + "\n" if fmt == "json" else text
    if out:
        Path(out).write_text(payload)
    else:
        sys.stdout.write(payload)


def cmd_width(args) -> int:
    g = parse_graph(_read(args.graph))
    bd = parse_decomposition(_read(args.decomp))
    sel = FamilySelector.parse(args.families)
    report = decomposition_width(bd, g, sel)
    doc = {"schema": SCHEMA, "command": "width", **report.to_json_dict()}
    lines = [f"width {report.width} (families {sel.name()})"]
    for e, (v, _) in sorted(report.per_edge.items()):
        lines.append(f"edge {e[0]}-{e[1]}: {v}")
    _emit(doc, "\n".join(lines) + "\n", args.report, args.out)
    return 0


def cmd_solve(args) -> int:
    g = parse_graph(_read(args.graph))
    sel = FamilySelector.parse(args.families)
    if args.solver == "dp":
        width, bd = exact_branchwidth_dp(g, sel)
    elif args.solver == "enum":
        width, bd = exact_branchwidth_enum(g, sel)
    else:
        width, bd = greedy_branchwidth(g, sel)
    if decomposition_width(bd, g, sel).width != width:
        raise FBranchError("internal: reported width does not re-evaluate")
    doc = {
        "schema": SCHEMA, "command": "solve", "solver": args.solver,
        "families": sel.name(), "width": width,
        "graph": graph_to_json_dict(g),
        "decomposition": decomposition_to_json_dict(bd),
    }
    text = f"width {width} (solver {args.solver}, families {sel.name()})\n"
    text += decomposition_to_text(bd)
    if args.out_decomp:
        Path(args.out_decomp).write_text(decomposition_to_text(bd))
    _emit(doc, text, args.report, args.out)
    return 0


def cmd_kernelize(args) -> int:
    g = parse_graph(_read(args.infile))
    trace = kernelize_fes(g)
    final = trace.final_graph
    if args.out:
        Path(args.out).write_text(graph_to_text(final))
    if args.trace:
        doc = {"schema": SCHEMA, "command": "kernelize", **trace.to_json_dict()}
        Path(args.trace).write_text(_json(doc) + "\n")
    if trace.forest_shortcircuit:
        sys.stdout.write(
            f"forest input: width {trace.forest_width}, kernel unchanged "
            f"(n={final.n})\n")
    else:
        sys.stdout.write(
            f"k={trace.k}: {g.n} vertices -> {final.n} "
            f"({len(trace.steps)} reduction steps)\n")
    return 0


def cmd_prune(args) -> int:
    g = parse_graph(_read(args.infile))
    pruned, removed = prune_by_treedepth(g, threshold=args.threshold)
    if args.out:
        Path(args.out).write_text(graph_to_text(pruned))
    sys.stdout.write(
        f"{g.n} vertices -> {pruned.n} "
        f"({sum(map(len, removed))} vertices pruned in {len(removed)} subtrees)\n")
    return 0


def cmd_classify(args) -> int:
    h = parse_ordered_bipartite(_read(args.infile))
    tags = classify_si(h)
    if tags:
        sys.stdout.write(",".join(t.value for t in tags) + "\n")
        return 0
    sys.stdout.write("none\n")
    return 0


def cmd_typical(args) -> int:
    if args.enumerate is not None:
        if args.seq is not None or args.interleave is not None:
            raise FBranchError("typical --enumerate takes no --seq or --interleave")
        sys.stdout.write("".join(
            format_sequence(s) + "\n" for s in enumerate_typical(args.enumerate)))
        return 0
    if args.seq is None:
        raise FBranchError("typical needs --seq or --enumerate")
    s = parse_sequence(args.seq)
    if args.interleave is not None:
        t = parse_sequence(args.interleave)
        sys.stdout.write("".join(
            format_sequence(r) + "\n"
            for r in sorted(interleave(typical_of(s), typical_of(t)))))
        return 0
    sys.stdout.write(format_sequence(typical_of(s)) + "\n")
    return 0


def cmd_verify_lemmas(args) -> int:
    names = args.only if args.only else None
    results = run_suites(names, seed=args.seed, quick=args.quick)
    failures = []
    for r in results:
        sys.stdout.write(r.line() + "\n")
        if not r.ok:
            failures.append(r)
    if failures:
        out_dir = Path(args.counterexamples)
        out_dir.mkdir(parents=True, exist_ok=True)
        for r in failures:
            path = out_dir / f"counterexample-{r.name}.json"
            path.write_text(_json(
                {"schema": SCHEMA, "suite": r.name, "violations": r.violations}) + "\n")
            sys.stdout.write(f"counterexamples written to {path}\n")
        return 1
    return 0


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The full parser, or with ``command`` one that knows only that
    command.  Its usage line still lists every command through the
    metavar; the full parser keeps argparse's own list, which its
    "invalid choice" errors print."""
    p = argparse.ArgumentParser(
        prog="fbranch",
        description="branchwidth under obstruction-pattern cut functions")
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(
        dest="command", required=True,
        metavar=None if command is None else "{" + ",".join(COMMANDS) + "}")

    if command in (None, "width"):
        w = sub.add_parser("width", help="evaluate a decomposition's width")
        w.add_argument("--graph", required=True)
        w.add_argument("--decomp", required=True)
        w.add_argument("--families", default="primal")
        w.add_argument("--report", choices=("text", "json"), default="text")
        w.add_argument("--out")
        w.set_defaults(fn=cmd_width)

    if command in (None, "solve"):
        s = sub.add_parser("solve", help="compute an optimal (or greedy) decomposition")
        s.add_argument("--graph", required=True)
        s.add_argument("--families", default="primal")
        s.add_argument("--solver", choices=("dp", "enum", "greedy"), default="dp")
        s.add_argument("--out-decomp")
        s.add_argument("--report", choices=("text", "json"), default="text")
        s.add_argument("--out")
        s.set_defaults(fn=cmd_solve)

    if command in (None, "kernelize"):
        k = sub.add_parser("kernelize", help="feedback-edge-set kernelization")
        k.add_argument("--in", dest="infile", required=True)
        k.add_argument("--out")
        k.add_argument("--trace")
        k.set_defaults(fn=cmd_kernelize)

    if command in (None, "prune"):
        pr = sub.add_parser("prune", help="treedepth-based duplicate pruning")
        pr.add_argument("--in", dest="infile", required=True)
        pr.add_argument("--threshold", type=int, default=None,
                        help="fixed duplicate-class bound (default: surrogate)")
        pr.add_argument("--out")
        pr.set_defaults(fn=cmd_prune)

    if command in (None, "classify"):
        c = sub.add_parser("classify", help="recognize an ordered bipartite pattern")
        c.add_argument("--in", dest="infile", required=True)
        c.set_defaults(fn=cmd_classify)

    if command in (None, "typical"):
        t = sub.add_parser("typical", help="sequence compression utilities")
        t.add_argument("--seq", help="comma-separated entries, _|_ for bottom")
        t.add_argument("--interleave", help="second sequence")
        t.add_argument("--enumerate", type=int, default=None, metavar="K",
                       help="list all compressed sequences with entries up to K")
        t.set_defaults(fn=cmd_typical)

    if command in (None, "verify-lemmas"):
        v = sub.add_parser("verify-lemmas", help="run the structural-law suites")
        v.add_argument("--only", action="append", choices=sorted(SUITES),
                       help="run only this suite (repeatable)")
        v.add_argument("--seed", type=int, default=0)
        v.add_argument("--quick", action="store_true",
                       help="reduced budgets for a fast pass")
        v.add_argument("--counterexamples", default="counterexamples",
                       help="directory for violation dumps")
        v.set_defaults(fn=cmd_verify_lemmas)
    return p


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    command = argv[0] if argv and argv[0] in COMMANDS else None
    args = build_parser(command).parse_args(argv)
    try:
        return args.fn(args)
    except (FBranchError, OSError, UnicodeDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
