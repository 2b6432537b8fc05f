"""Answer checks for every benchmark op, written from the definitions.

Nothing here imports fbranch: each check re-reads the op's input and output
files and re-derives what it can on its own (pattern witnesses, twin-class
values, cycle rank, induced embeddings, typical-sequence bounds).  A check
returns the op's answer, the value compared against the answers recorded
at the parent commit, and a list of errors; an empty list means the op
passed.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from pathlib import Path

FAMILY_ORDER = ("empty", "match", "chain", "chainstrict", "antimatch", "complete")
PRESETS = {"primal": ("match", "chain", "antimatch"), "all": FAMILY_ORDER}

# pattern definitions: pair i's x-vertex is adjacent to pair j's y-vertex iff
PATTERN = {
    "empty": lambda i, j: False,
    "match": lambda i, j: i == j,
    "chain": lambda i, j: i <= j,
    "chainstrict": lambda i, j: i < j,
    "antimatch": lambda i, j: i != j,
    "complete": lambda i, j: True,
}


def kernel_vertex_bound(k: int) -> int:
    return 18 * k - 8


def parse_graph(text: str) -> tuple[int, list[set[int]]]:
    lines = [ln.split() for ln in text.splitlines() if ln.strip()]
    n, m = int(lines[0][0]), int(lines[0][1])
    if len(lines) - 1 != m:
        raise ValueError(f"header promises {m} edges, file has {len(lines) - 1}")
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in ((int(a), int(b)) for a, b in lines[1:]):
        if u == v or not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"bad edge {u} {v}")
        adj[u].add(v)
        adj[v].add(u)
    return n, adj


def read_graph(path: str) -> tuple[int, list[set[int]]]:
    return parse_graph(Path(path).read_text())


def edge_count(adj: list[set[int]]) -> int:
    return sum(len(s) for s in adj) // 2


def component_count(n: int, adj: list[set[int]]) -> int:
    seen = [False] * n
    count = 0
    for s in range(n):
        if seen[s]:
            continue
        count += 1
        seen[s] = True
        stack = [s]
        while stack:
            for w in adj[stack.pop()]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
    return count


def cycle_rank(n: int, adj: list[set[int]]) -> int:
    """Feedback edge set number: m - n + #components."""
    return edge_count(adj) - n + component_count(n, adj)


def selected_families(text: str) -> tuple[str, ...]:
    text = text.strip().lower()
    if text in PRESETS:
        return PRESETS[text]
    return tuple(f for f in FAMILY_ORDER if f in text.split(","))


# ---------------------------------------------------------------------------
# branch decompositions


def parse_tree(text: str) -> tuple[int, list[tuple[int, int]], dict[int, int]]:
    lines = [ln.split() for ln in text.splitlines() if ln.strip()]
    nodes = int(lines[0][1])
    edges = [(int(a), int(b)) for kind, a, b in lines[1:] if kind == "t"]
    leaves = {int(a): int(b) for kind, a, b in lines[1:] if kind == "leaf"}
    return nodes, edges, leaves


def tree_errors(nodes: int, edges: list[tuple[int, int]], leaves: dict[int, int],
                n: int) -> list[str]:
    """A branch decomposition of an n-vertex graph: a subcubic tree whose
    leaves map one-to-one onto the vertices."""
    adj: dict[int, set[int]] = {v: set() for v in range(nodes)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    errors = []
    if len(edges) != max(nodes - 1, 0):
        errors.append("tree edge count is not nodes - 1")
    seen, stack = {0}, [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    if nodes and len(seen) != nodes:
        errors.append("tree is not connected")
    if any(len(s) > 3 for s in adj.values()):
        errors.append("tree node of degree above 3")
    if set(leaves) != {v for v in adj if len(adj[v]) <= 1}:
        errors.append("leaf map does not cover exactly the leaves")
    if sorted(leaves.values()) != list(range(n)):
        errors.append("leaf map is not a bijection onto the vertices")
    return errors


def cut_side(edges: list[tuple[int, int]], leaves: dict[int, int],
             e: tuple[int, int]) -> set[int]:
    """Graph vertices whose leaves lie on e[0]'s side of tree edge e."""
    adj: dict[int, set[int]] = {}
    for u, v in edges:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    side, seen, stack = set(), {e[0], e[1]}, [e[0]]
    while stack:
        x = stack.pop()
        if x in leaves:
            side.add(leaves[x])
        for w in adj.get(x, ()):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return side


def witness_errors(adj: list[set[int]], side: set[int], family: str,
                   pairs: list[list[int]]) -> list[str]:
    """The pairs realise ``family`` across the cut: all x-vertices on one
    side, all y-vertices on the other (either orientation), and x_i ~ y_j
    exactly when the pattern says so."""
    xs = [x for x, _ in pairs]
    ys = [y for _, y in pairs]
    if len(set(xs)) != len(xs) or len(set(ys)) != len(ys):
        return ["witness repeats a vertex"]
    x_in = {x in side for x in xs}
    y_in = {y in side for y in ys}
    if pairs and (len(x_in) != 1 or len(y_in) != 1 or x_in == y_in):
        return ["witness pairs do not cross the cut"]
    rule = PATTERN[family]
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            if (y in adj[x]) != rule(i, j):
                return [f"witness is not a {family} pattern at pair ({i}, {j})"]
    return []


def ntc_cut_value(n: int, adj: list[set[int]], side: set[int]) -> int:
    """Twin classes of the cut: for each side, the number of distinct
    neighbourhoods its vertices have on the other side; the larger count."""
    other = set(range(n)) - side
    left = {frozenset(adj[v] & other) for v in side}
    right = {frozenset(adj[v] & side) for v in other}
    return max(len(left), len(right))


# ---------------------------------------------------------------------------
# per-op checks: (answer, errors).  ``ctx`` is shared by the ops of one
# batch: a solve leaves its width for the width op that re-evaluates it,
# and ``ctx["counts"]`` sums work counts read from the ops' outputs.


def count(ctx: dict, name: str, value: int) -> None:
    counts = ctx.setdefault("counts", {})
    counts[name] = counts.get(name, 0) + value


def check_solve(op: dict, out: str, ctx: dict) -> tuple[object, list[str]]:
    doc = json.loads(out)
    n, _ = read_graph(op["check"]["graph"])
    dec = doc["decomposition"]
    leaves = {int(k): v for k, v in dec["leaves"].items()}
    errors = tree_errors(dec["nodes"], [tuple(e) for e in dec["edges"]], leaves, n)
    tree_path = op["argv"][op["argv"].index("--out-decomp") + 1]
    if parse_tree(Path(tree_path).read_text()) != (
            dec["nodes"], [tuple(e) for e in dec["edges"]], leaves):
        errors.append("emitted tree file differs from the reported decomposition")
    ctx[op["slot"]] = doc["width"]
    return doc["width"], errors


def check_width(op: dict, out: str, ctx: dict) -> tuple[object, list[str]]:
    doc = json.loads(out)
    chk = op["check"]
    n, adj = read_graph(chk["graph"])
    nodes, edges, leaves = parse_tree(Path(chk["tree"]).read_text())
    errors = tree_errors(nodes, edges, leaves, n)
    ntc = chk["families"] == "ntc"
    allowed = set(selected_families(chk["families"]))
    reported = {tuple(item["edge"]): item for item in doc["edges"]}
    if set(reported) != {(min(e), max(e)) for e in edges}:
        errors.append("reported edges differ from the tree's edges")
    for e, item in sorted(reported.items()):
        side = cut_side(edges, leaves, e)
        w = item["witness"]
        if ntc:
            if item["value"] != ntc_cut_value(n, adj, side):
                errors.append(f"edge {e}: twin-class value {item['value']} is wrong")
            continue
        if w["value"] != item["value"] or len(w["pairs"]) != item["value"]:
            errors.append(f"edge {e}: witness size differs from the edge value")
        elif item["value"]:
            if w["family"] not in allowed:
                errors.append(f"edge {e}: witness family {w['family']} not selected")
            else:
                errors += [f"edge {e}: {msg}" for msg in
                           witness_errors(adj, side, w["family"], w["pairs"])]
    if doc["width"] != max((item["value"] for item in doc["edges"]), default=0):
        errors.append("width is not the largest edge value")
    if ctx.get(chk["solve_slot"]) != doc["width"]:
        errors.append(f"solve reported width {ctx.get(chk['solve_slot'])}, "
                      f"re-evaluation gives {doc['width']}")
    ctx[op["slot"]] = {e: item["value"] for e, item in reported.items()}
    return doc["width"], errors


WIDTH_HEAD = re.compile(r"width (\d+) \(families ([\w,]+)\)")
WIDTH_EDGE = re.compile(r"edge (\d+)-(\d+): (\d+)")


def check_width_text(op: dict, out: str, ctx: dict) -> tuple[object, list[str]]:
    """The text report agrees with the solve and, edge by edge, with the
    JSON report of the same tree."""
    chk = op["check"]
    head = WIDTH_HEAD.match(out)
    if head is None:
        return None, [f"unexpected width output {out[:80]!r}"]
    width = int(head.group(1))
    values = {(int(u), int(v)): int(x) for u, v, x in WIDTH_EDGE.findall(out)}
    errors = []
    if ctx.get(chk["solve_slot"]) != width:
        errors.append(f"solve reported width {ctx.get(chk['solve_slot'])}, "
                      f"text report gives {width}")
    if values != ctx.get(chk["solve_slot"] + ".width"):
        errors.append("text and JSON reports disagree on the edge values")
    return width, errors


KERNEL_LINE = re.compile(r"k=(\d+): (\d+) vertices -> (\d+) \((\d+) reduction steps\)")


def check_kernelize(op: dict, out: str, ctx: dict) -> tuple[object, list[str]]:
    chk = op["check"]
    m = KERNEL_LINE.search(out)
    if m is None:
        return None, [f"unexpected kernelize output {out.strip()!r}"]
    k, n_in, n_out, steps = map(int, m.groups())
    n, adj = read_graph(chk["graph"])
    kn, kadj = read_graph(chk["out"])
    trace = json.loads(Path(chk["trace"]).read_text())
    errors = []
    if k != cycle_rank(n, adj) or n_in != n:
        errors.append(f"k={k}, n={n_in} reported; the input has k={cycle_rank(n, adj)}, n={n}")
    if kn != n_out or kn > kernel_vertex_bound(k):
        errors.append(f"kernel has {kn} vertices; reported {n_out}, bound {kernel_vertex_bound(k)}")
    if cycle_rank(kn, kadj) != k:
        errors.append("the kernel's feedback edge set number differs from the input's")
    if len(trace["steps"]) != steps or trace["k"] != k:
        errors.append("trace disagrees with the reported k or step count")
    count(ctx, "kernel.steps", steps)
    return [n_out, k, steps], errors


PRUNE_LINE = re.compile(r"(\d+) vertices -> (\d+) \((\d+) vertices pruned in (\d+) subtrees\)")


def induced_embedding(hn: int, hadj: list[set[int]], gn: int, gadj: list[set[int]]
                      ) -> list[int] | None:
    """An injective map of H into G preserving adjacency and non-adjacency
    (H is an induced subgraph of G), or None.  Plain backtracking in
    ascending order of H's vertices; inputs have at most a dozen vertices."""
    phi: list[int] = []
    used: set[int] = set()

    def extend() -> bool:
        v = len(phi)
        if v == hn:
            return True
        for c in range(gn):
            if c in used or len(gadj[c]) < len(hadj[v]):
                continue
            if all((phi[u] in gadj[c]) == (u in hadj[v]) for u in range(v)):
                phi.append(c)
                used.add(c)
                if extend():
                    return True
                phi.pop()
                used.discard(c)
        return False

    return phi if hn <= gn and extend() else None


def check_prune(op: dict, out: str, ctx: dict) -> tuple[object, list[str]]:
    chk = op["check"]
    m = PRUNE_LINE.search(out)
    if m is None:
        return None, [f"unexpected prune output {out.strip()!r}"]
    n_in, n_out, removed, _ = map(int, m.groups())
    n, adj = read_graph(chk["graph"])
    pn, padj = read_graph(chk["out"])
    errors = []
    if n_in != n or n_out != pn or removed != n - pn:
        errors.append(f"reported {n_in} -> {n_out} ({removed} pruned); files have {n} -> {pn}")
    if induced_embedding(pn, padj, n, adj) is None:
        errors.append("pruned graph is not an induced subgraph of the input")
    count(ctx, "treedepth.removed_vertices", removed)
    return n_out, errors


SUITE_LINE = re.compile(r"\[(PASS|FAIL)\] ([\w-]+): (\d+) instances, (\d+) violations")


def check_verify(op: dict, out: str, ctx: dict) -> tuple[object, list[str]]:
    found = {name: (status, int(tested), int(bad))
             for status, name, tested, bad in SUITE_LINE.findall(out)}
    errors = []
    expected = set(op["check"]["suites"])
    if set(found) != expected:
        errors.append(f"suites run {sorted(found)} differ from {sorted(expected)}")
    for name, (status, _, bad) in sorted(found.items()):
        if status != "PASS" or bad:
            errors.append(f"suite {name}: {status} with {bad} violations")
    tested = {name: t for name, (_, t, _) in found.items()}
    for name, t in tested.items():
        count(ctx, f"verify.{name}.tested", t)
    return [[name, found[name][0], tested[name]] for name in sorted(found)], errors


def check_typical(op: dict, out: str, ctx: dict) -> tuple[object, list[str]]:
    chk = op["check"]
    seqs = [tuple(ln.split(",")) for ln in out.split()]
    errors = []
    if not seqs:
        errors.append("no sequences printed")
    if len(set(seqs)) != len(seqs):
        errors.append("a sequence is printed twice")
    if chk["mode"] == "enumerate":
        k = chk["size"]
        if len(seqs) > math.ceil(8 / 3 * 4 ** k):
            errors.append(f"{len(seqs)} typical sequences exceed the bound for k={k}")
        if any(len(s) > 2 * k + 1 or any(not e.isdigit() or int(e) > k for e in s)
               for s in seqs):
            errors.append("a sequence breaks the length or entry bound")
        if any(s[i] == s[i + 1] for s in seqs for i in range(len(s) - 1)):
            errors.append("a typical sequence repeats an entry consecutively")
    return hashlib.sha256(out.encode()).hexdigest()[:16], errors


CHECKS = {
    "solve": check_solve,
    "width": check_width,
    "width-text": check_width_text,
    "kernelize": check_kernelize,
    "prune": check_prune,
    "verify": check_verify,
    "typical": check_typical,
}


def check_op(op: dict, code: int, out: str, ctx: dict,
             recorded: object = None) -> tuple[object, list[str]]:
    """Run the op's check; ``recorded`` is the parent commit's answer, or
    None when the seed has none (then only the checks above apply)."""
    if code != 0:
        return None, [f"exit code {code}"]
    try:
        answer, errors = CHECKS[op["check"]["kind"]](op, out, ctx)
    except (ValueError, KeyError, IndexError, TypeError, OSError) as exc:
        return None, [f"output could not be checked: {exc!r}"]
    if recorded is not None and answer != recorded:
        errors.append(f"answer {answer!r} differs from the recorded {recorded!r}")
    return answer, errors
