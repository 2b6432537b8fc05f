import importlib.util
import itertools
import random
from dataclasses import dataclass
from pathlib import Path

import pytest

from fbranch.cutfn import FamilySelector
from fbranch.decomp import exact_branchwidth_dp
from fbranch.families import Family
from fbranch.graph import Graph, bridges, connected_components
from fbranch.kernel import (
    MIN_PATH_LENGTH,
    ContractionStep,
    KernelTrace,
    RuleOneStep,
    _degree_two_runs,
    apply_step,
    kernel_vertex_bound,
    kernelize_fes,
    reduce_bridges_isolated,
)

MATCH = FamilySelector.of(Family.MATCH)

PRIMAL_UNIONS = [FamilySelector(families=frozenset(fams))
                 for r in (1, 2, 3)
                 for fams in itertools.combinations(
                     (Family.MATCH, Family.CHAIN, Family.ANTIMATCH), r)]


def cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def path(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def spanning_forest_complement(g):
    """Minimum feedback edge set by union-find: the edges left out of the
    lexicographically first spanning forest (Kruskal order).  The
    independent reference for the kernel's k = m - n + c."""
    parent = list(range(g.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    out = []
    for u, v in g.edges():
        ru, rv = find(u), find(v)
        if ru == rv:
            out.append((u, v))
        else:
            parent[ru] = rv
    return out


@dataclass(frozen=True)
class UnimportantPath:
    """A path whose vertices all have degree exactly two in the host graph."""

    vertices: tuple[int, ...]

    def validate(self, g):
        vs = self.vertices
        if len(set(vs)) != len(vs):
            raise ValueError("path vertices must be distinct")
        for v in vs:
            if g.degree(v) != 2:
                raise ValueError(f"vertex {v} has degree {g.degree(v)} != 2")
        for a, b in zip(vs, vs[1:]):
            if not g.has_edge(a, b):
                raise ValueError(f"vertices {a}, {b} not adjacent")


def find_unimportant_path(g, min_len):
    """A degree-two path of length exactly ``min_len`` carved from the
    first maximal degree-two run (see ``_degree_two_runs``) that is long
    enough, or None: the stepwise reference for the kernel sweep."""
    if min_len < 1:
        raise ValueError("min_len must be positive")
    for walk in _degree_two_runs(g):
        if len(walk) - 1 >= min_len:
            return UnimportantPath(tuple(walk[: min_len + 1]))
    return None


def contract_path_edge(g, p):
    """Contract the middle edge of the path (any interior edge is safe; the
    middle keeps both remnant halves long)."""
    length = len(p.vertices) - 1
    if length < MIN_PATH_LENGTH:
        raise ValueError(f"path too short: length {length} < {MIN_PATH_LENGTH}")
    p.validate(g)
    mid = length // 2
    step = ContractionStep(p.vertices, (p.vertices[mid], p.vertices[mid + 1]))
    return apply_step(g, step), step


def replay(trace):
    """Re-apply every recorded step to the input; must reproduce the
    final graph exactly.  One adjacency keyed by input vertex ids is
    edited in place, live[i] is the input id of label i, and the graph
    is built once, at the end (folding ``apply_step`` is quadratic)."""
    g = trace.input_graph
    adj = [set(s) for s in g.adj]
    live = list(range(g.n))
    for step in trace.steps:
        if isinstance(step, RuleOneStep):
            for u, v in step.removed_bridges:
                adj[live[u]].discard(live[v])
                adj[live[v]].discard(live[u])
            removed = set(step.removed_vertices)
            live = [v for i, v in enumerate(live) if i not in removed]
        else:
            a, b = step.contracted_edge
            keep, drop = live[min(a, b)], live[max(a, b)]
            for w in adj[drop]:
                adj[w].discard(drop)
                if w != keep:
                    adj[w].add(keep)
                    adj[keep].add(w)
            del live[max(a, b)]
    index = {v: i for i, v in enumerate(live)}
    return Graph(len(live), [(index[u], index[w]) for u in live for w in adj[u]
                             if index[u] < index[w]])


def test_feedback_edge_set_examples():
    assert kernelize_fes(path(6)).k == 0
    assert kernelize_fes(cycle(5)).k == 1
    two_triangles = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert kernelize_fes(two_triangles).k == 2


def test_feedback_edge_set_minimum():
    """k is the size of the union-find reference, and removing that edge
    set leaves an acyclic remainder."""
    rng = random.Random(3)
    forests = disconnected = 0
    for _ in range(30):
        n = rng.randint(2, 8)
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.4]
        g = Graph(n, edges)
        fes = spanning_forest_complement(g)
        c = len(connected_components(g))
        assert kernelize_fes(g).k == len(fes) == g.num_edges() - (g.n - c)
        rest = Graph(n, [e for e in g.edges() if e not in set(fes)])
        assert spanning_forest_complement(rest) == []  # acyclic remainder
        assert kernelize_fes(rest).k == 0
        forests += not fes
        disconnected += c > 1
    assert forests and disconnected


def test_reduce_bridges_isolated_examples():
    out, _ = reduce_bridges_isolated(path(5))
    assert out.n == 0

    c4_pendant = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4)])
    out, step = reduce_bridges_isolated(c4_pendant)
    assert out == cycle(4)
    assert step.removed_bridges == ((0, 4),) and step.removed_vertices == (4,)

    out, _ = reduce_bridges_isolated(cycle(6))
    assert out == cycle(6)


def test_reduce_leaves_bridgeless_without_isolated():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(2, 10)
        g = Graph(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.3])
        out, _ = reduce_bridges_isolated(g)
        assert bridges(out) == []
        assert all(out.degree(v) > 0 for v in range(out.n))


def test_find_unimportant_path():
    p = find_unimportant_path(cycle(12), 8)
    assert p is not None and p.vertices == tuple(range(9))
    p.validate(cycle(12))

    k4 = Graph(4, list(itertools.combinations(range(4), 2)))
    assert find_unimportant_path(k4, 1) is None

    # theta graph: hubs 0 and 1, one long subdivided arc
    theta = Graph(9, [(0, 1), (0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 1), (0, 7), (7, 8), (8, 1)])
    p = find_unimportant_path(theta, 3)
    assert p is not None
    assert set(p.vertices) <= {2, 3, 4, 5, 6, 7, 8}
    p.validate(theta)


def test_degree_two_runs_are_unimportant_paths():
    """Every run the kernel sweep shortens is a walk of distinct degree-two
    vertices, adjacent in sequence, and the runs cover each degree-two
    vertex once."""
    rng = random.Random(19)
    graphs = [reduce_bridges_isolated(g)[0] for g in _oracle_inputs()]
    for _ in range(40):
        n = rng.randint(3, 30)
        graphs.append(Graph(n, [e for e in itertools.combinations(range(n), 2)
                                if rng.random() < 0.12]))
    for g in graphs:
        runs = _degree_two_runs(g)
        for walk in runs:
            UnimportantPath(tuple(walk)).validate(g)
        covered = sorted(v for walk in runs for v in walk)
        assert covered == [v for v in range(g.n) if g.degree(v) == 2]


def test_contract_path_edge():
    c12 = cycle(12)
    p = find_unimportant_path(c12, 8)
    out, step = contract_path_edge(c12, p)
    assert out.n == 11
    # still a single cycle
    assert all(out.degree(v) == 2 for v in range(out.n))
    assert len(connected_components(out)) == 1

    with pytest.raises(ValueError):
        contract_path_edge(c12, UnimportantPath(tuple(range(5))))


def test_contraction_preserves_interior_degrees():
    c12 = cycle(12)
    p = find_unimportant_path(c12, 8)
    out, _ = contract_path_edge(c12, p)
    # all remaining vertices keep degree two on a cycle
    assert all(out.degree(v) == 2 for v in range(out.n))


def test_kernelize_c12():
    trace = kernelize_fes(cycle(12))
    assert trace.k == 1
    assert trace.final_graph.n == 10  # 12 > 10 -> contract twice, stop at 10
    assert all(trace.final_graph.degree(v) == 2 for v in range(10))
    contractions = [s for s in trace.steps if isinstance(s, ContractionStep)]
    assert len(contractions) == 2


def test_kernelize_c9_unchanged():
    trace = kernelize_fes(cycle(9))
    assert trace.k == 1 and trace.final_graph.n == 9
    assert not [s for s in trace.steps if isinstance(s, ContractionStep)]


def test_kernelize_forest_shortcircuit():
    trace = kernelize_fes(path(7))
    assert trace.forest_shortcircuit and trace.forest_width == 1
    trace = kernelize_fes(Graph(4))
    assert trace.forest_shortcircuit and trace.forest_width == 0


def test_kernel_trace_replay():
    rng = random.Random(7)
    for _ in range(20):
        cyc_len = rng.randint(9, 12)
        g = _cycle_with_pendants(rng, cyc_len)
        trace = kernelize_fes(g)
        if trace.forest_shortcircuit:
            continue
        assert replay(trace) == trace.final_graph
        assert trace.final_graph.n <= max(kernel_vertex_bound(trace.k), cyc_len)


def _cycle_with_pendants(rng, cyc_len, extra_max=4):
    edges = [(i, (i + 1) % cyc_len) for i in range(cyc_len)]
    n = cyc_len
    for _ in range(rng.randint(0, extra_max)):
        anchor = rng.randrange(n)
        edges.append((anchor, n))
        n += 1
    return Graph(n, edges)


def test_kernel_bound_and_edge_count():
    rng = random.Random(11)
    for _ in range(25):
        g = _cycle_with_pendants(rng, rng.randint(9, 12))
        trace = kernelize_fes(g)
        k = trace.k
        assert k == 1
        final = trace.final_graph
        assert final.n <= kernel_vertex_bound(k)
        assert final.num_edges() <= (kernel_vertex_bound(k) - 1) + k


def rule_one_expected_width(g, w_out, sel):
    """Exact width of the input in terms of the cleaned graph's width.

    Bridge and isolated-vertex removal can only lose width-1 cuts: a
    crossing edge (when a matching or chain family is selected and the
    input has any edge) or a non-adjacent cross pair (when the
    anti-matching family is selected and the input is not complete).
    """
    floor = 0
    if sel.families & {Family.MATCH, Family.CHAIN} and g.num_edges():
        floor = 1
    if (Family.ANTIMATCH in sel.families and g.n >= 2
            and g.num_edges() < g.n * (g.n - 1) // 2):
        floor = 1
    return max(w_out, floor)


def test_rule_one_safety_small():
    rng = random.Random(13)
    for _ in range(12):
        n = rng.randint(2, 8)
        g = Graph(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.35])
        out, _ = reduce_bridges_isolated(g)
        for sel in PRIMAL_UNIONS:
            w_in = exact_branchwidth_dp(g, sel)[0]
            w_out = exact_branchwidth_dp(out, sel)[0] if out.n else 0
            assert w_in == rule_one_expected_width(g, w_out, sel), (g, sel.name())


def test_rule_two_safety_cycles():
    """One contraction preserves every primal-union width on the graphs in
    scope at this size (cycles of length 9 to 12)."""
    for m in (9, 10, 11, 12):
        g = cycle(m)
        p = find_unimportant_path(g, 8)
        out, _ = contract_path_edge(g, p)
        for sel in PRIMAL_UNIONS:
            assert exact_branchwidth_dp(g, sel)[0] == exact_branchwidth_dp(out, sel)[0], \
                (m, sel.name())


def test_bridgeless_with_induced_c6_has_match_width_2():
    c6 = cycle(6)
    assert exact_branchwidth_dp(c6, MATCH)[0] == 2
    # small bridgeless supergraphs keeping an induced six-cycle
    g7 = Graph(7, list(c6.edges()) + [(0, 6), (1, 6)])
    assert exact_branchwidth_dp(g7, MATCH)[0] >= 2


def _stepwise_kernel(g):
    """The kernel loop one contraction at a time: re-find the first long
    degree-two run on the contracted graph before every step, until the
    target size is met or no run is long enough."""
    k = len(spanning_forest_complement(g))
    cur, step = reduce_bridges_isolated(g)
    trace = KernelTrace(input_graph=g, k=k, steps=[step])
    while cur.n > kernel_vertex_bound(k):
        p = find_unimportant_path(cur, MIN_PATH_LENGTH)
        if p is None:
            break
        cur, step = contract_path_edge(cur, p)
        trace.steps.append(step)
    trace.final_graph = cur
    return trace


def _subdivided(rng, hubs, core_edges, n):
    """Replace each core edge (loops and repeats allowed) by a path with at
    least two interior vertices, spreading n - hubs interior vertices over
    the paths, then relabel at random."""
    counts = [2] * len(core_edges)
    for _ in range(n - hubs - 2 * len(core_edges)):
        counts[rng.randrange(len(core_edges))] += 1
    edges, nxt = [], hubs
    for (u, v), c in zip(core_edges, counts):
        prev = u
        for _ in range(c):
            edges.append((prev, nxt))
            prev, nxt = nxt, nxt + 1
        edges.append((prev, v))
    perm = list(range(n))
    rng.shuffle(perm)
    return Graph(n, [(perm[u], perm[v]) for u, v in edges])


def _oracle_inputs():
    rng = random.Random(17)
    for _ in range(8):  # theta graphs: two hubs, k + 1 paths
        k = rng.randint(1, 4)
        yield _subdivided(rng, 2, [(0, 1)] * (k + 1), rng.randint(50, 300))
    for _ in range(8):  # k cycles through one vertex plus pendant trees
        k = rng.randint(1, 4)
        n = rng.randint(50, 300)
        core = _subdivided(rng, 1, [(0, 0)] * k, n - n // 5)
        edges = list(core.edges()) + [(rng.randrange(v), v) for v in range(core.n, n)]
        yield Graph(n, edges)
    for _ in range(8):  # random multigraph cores on 3-5 hubs
        hubs = rng.randint(3, 5)
        core = [(rng.randrange(hubs), rng.randrange(hubs))
                for _ in range(rng.randint(hubs, 2 * hubs))]
        yield _subdivided(rng, hubs, core, rng.randint(max(50, hubs + 2 * len(core)), 300))


def test_kernel_sweep_matches_stepwise_loop():
    for g in _oracle_inputs():
        expected = _stepwise_kernel(g)
        trace = kernelize_fes(g)
        assert len(trace.steps) > 1  # every input needs contractions
        assert trace.steps == expected.steps
        assert trace.final_graph == expected.final_graph
        assert trace.to_json_dict() == expected.to_json_dict()
        assert replay(trace) == trace.final_graph


def _timing_input():
    """The seeded 2,000-vertex theta graph of tests/kernel_timing.py, from
    the benchmark's generators (loaded by path: perfbench is no package)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    rng = random.Random(0)
    return Graph(2000, workloads.relabel(rng, 2000, workloads.theta_graph(rng, 2000, 2)))


def test_replay_equals_folding_apply_step():
    for g in [_timing_input(), *_oracle_inputs()]:
        trace = kernelize_fes(g)
        folded = g
        for step in trace.steps:
            folded = apply_step(folded, step)
        assert replay(trace) == folded == trace.final_graph


def _subdivide_evenly(hubs, core_edges, t):
    """Every core edge replaced by a path with t interior vertices."""
    edges, nxt = [], hubs
    for u, v in core_edges:
        chain = [u, *range(nxt, nxt + t), v]
        nxt += t
        edges += zip(chain, chain[1:])
    return Graph(nxt, edges)


def _check_component_bounds(final):
    """Once every degree-two run is down to eight vertices, a component with
    feedback number k >= 2 keeps at most 2(k - 1) branch vertices and
    3(k - 1) runs, so 26(k - 1) vertices; a cycle keeps 8."""
    for comp in connected_components(final):
        k = sum(len(final.adj[v]) for v in comp) // 2 - len(comp) + 1
        assert len(comp) <= (26 * (k - 1) if k >= 2 else 8)


def test_kernel_past_the_target_meets_component_bounds():
    k4 = list(itertools.combinations(range(4), 2))
    k33 = [(i, 3 + j) for i in range(3) for j in range(3)]
    for g, k, final_n in ((_subdivide_evenly(4, k4, 20), 3, 52),
                          (_subdivide_evenly(6, k33, 20), 4, 78)):
        trace = kernelize_fes(g)
        assert trace.k == k and trace.final_graph.n == final_n > kernel_vertex_bound(k)
        _check_component_bounds(trace.final_graph)
        assert replay(trace) == trace.final_graph
        assert not bridges(trace.final_graph)


def test_kernel_subdivided_k4_sweep_matches_stepwise_loop():
    k4 = list(itertools.combinations(range(4), 2))
    g = _subdivided(random.Random(2), 4, k4, 58)  # k = 3, target 46
    expected = _stepwise_kernel(g)
    trace = kernelize_fes(g)
    assert trace.steps == expected.steps
    assert trace.final_graph == expected.final_graph == replay(trace)
    assert trace.final_graph.n > kernel_vertex_bound(3)
    _check_component_bounds(trace.final_graph)
