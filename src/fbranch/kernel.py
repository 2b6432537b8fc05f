"""Linear kernel driven by the feedback edge set number.

The pipeline: compute k once, as m - n + c with c from one component walk,
clean the graph by deleting all bridges and then all isolated vertices, and
while more than 18k - 8 vertices remain, contract an interior edge of a
degree-two path of length at least eight.  Forests short-circuit: their
width is 1 when any edge exists, 0 otherwise, so no kernelization is needed.

18k - 8 is the target, not a guarantee: the rule stops once every
degree-two run is down to eight vertices.  A cleaned component with
feedback number k_i >= 2 has at most 2(k_i - 1) vertices of degree three or
more and 3(k_i - 1) runs, so it keeps at most 26(k_i - 1) vertices, and a
cycle keeps eight.  That is above 18k - 8 for some inputs (every edge of K4
subdivided many times stops at 52 > 46 vertices), and it is the bound the
result is checked against when the runs run out first.

The contraction phase is one sweep over the degree-two runs of the cleaned
graph.  A contraction keeps the smaller endpoint and shifts every higher
label down by one, so the order of the runs, their start vertices and walk
directions never change, and earlier runs stay too short: shortening each
run in turn takes exactly the steps that re-finding the first long run
after every contraction would take.

Every reduction is recorded in a trace; folding ``apply_step`` over the
trace from the input reproduces the kernel bit for bit.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass, field

from .errors import InternalInvariantError
from .graph import Graph, bridges, connected_components

MIN_PATH_LENGTH = 8


def kernel_vertex_bound(k: int) -> int:
    """The sweep's target size."""
    return 18 * k - 8


def _component_vertex_bound(k: int) -> int:
    """Most vertices a cleaned connected component with feedback number k
    keeps once each of its degree-two runs is down to MIN_PATH_LENGTH
    vertices (see the module docstring)."""
    if k == 1:
        return MIN_PATH_LENGTH
    return (2 + 3 * MIN_PATH_LENGTH) * (k - 1)


@dataclass(frozen=True)
class RuleOneStep:
    """Delete the bridges, then the vertices; the survivors keep their
    order and are renumbered from 0."""

    removed_bridges: tuple[tuple[int, int], ...]
    removed_vertices: tuple[int, ...]


@dataclass(frozen=True)
class ContractionStep:
    path: tuple[int, ...]
    contracted_edge: tuple[int, int]  # the larger endpoint merges into the smaller


@dataclass
class KernelTrace:
    input_graph: Graph
    k: int
    steps: list = field(default_factory=list)
    final_graph: Graph | None = None
    forest_shortcircuit: bool = False
    forest_width: int | None = None

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "forest_shortcircuit": self.forest_shortcircuit,
            "forest_width": self.forest_width,
            "input": {"n": self.input_graph.n, "m": self.input_graph.num_edges()},
            "final": {"n": self.final_graph.n, "m": self.final_graph.num_edges()}
            if self.final_graph is not None else None,
            "steps": [
                {
                    "rule": "bridges+isolated",
                    "removed_bridges": [list(e) for e in step.removed_bridges],
                    "removed_vertices": list(step.removed_vertices),
                }
                if isinstance(step, RuleOneStep)
                else {
                    "rule": "contract",
                    "path": list(step.path),
                    "edge": list(step.contracted_edge),
                }
                for step in self.steps
            ],
        }


def apply_step(g: Graph, step) -> Graph:
    """Apply one recorded reduction step to a graph."""
    if isinstance(step, RuleOneStep):
        return _apply_rule_one(g, step)
    return _apply_contraction(g, step)


def _apply_rule_one(g: Graph, step: RuleOneStep) -> Graph:
    removed_bridges = set(step.removed_bridges)
    removed = set(step.removed_vertices)
    index = {old: new for new, old in
             enumerate(v for v in range(g.n) if v not in removed)}
    return Graph(len(index), [(index[u], index[v]) for u, v in g.edges()
                              if (u, v) not in removed_bridges])


def _apply_contraction(g: Graph, step: ContractionStep) -> Graph:
    a, b = step.contracted_edge
    keep, drop = min(a, b), max(a, b)

    def new(v: int) -> int:
        if v == drop:
            return keep
        return v - 1 if v > drop else v

    edges = ((new(u), new(v)) for u, v in g.edges())
    return Graph(g.n - 1, [(u, v) for u, v in edges if u != v])


def reduce_bridges_isolated(g: Graph) -> tuple[Graph, RuleOneStep]:
    """Delete all bridges of g, then all isolated vertices; the survivors
    are renumbered in ascending original order."""
    removed_bridges = tuple(bridges(g))
    degrees = [len(a) for a in g.adj]
    for u, v in removed_bridges:
        degrees[u] -= 1
        degrees[v] -= 1
    step = RuleOneStep(removed_bridges, tuple(v for v in range(g.n) if degrees[v] == 0))
    return _apply_rule_one(g, step), step


def _degree_two_runs(g: Graph) -> list[list[int]]:
    """Every maximal degree-two run of g as a walk.

    Runs come in order of their smallest vertex; a walk starts at the
    run's smallest endpoint (for runs that close into a cycle: at the
    smallest vertex, toward its smaller neighbor), so the result is
    deterministic.
    """
    runs: list[list[int]] = []
    for comp in connected_components(g, (v for v in range(g.n) if g.degree(v) == 2)):
        endpoints = sorted(u for u in comp
                           if len(g.adj[u] & comp) <= 1)
        if endpoints:
            start = endpoints[0]
        else:
            start = min(comp)  # the run closes into a cycle
        walk = [start]
        prev = None
        cur = start
        while True:
            nxt = sorted(w for w in g.adj[cur] if w in comp and w != prev)
            if not nxt:
                break
            step = nxt[0]
            if step == start:
                break  # closed the cycle
            walk.append(step)
            prev, cur = cur, step
        runs.append(walk)
    return runs


def kernelize_fes(g: Graph) -> KernelTrace:
    """Run the kernelization: contract until at most 18k - 8 vertices
    remain (k >= 1) or every degree-two run is down to MIN_PATH_LENGTH
    vertices, whichever comes first; in the second case each component
    meets its own bound (see the module docstring).  Forests short-circuit
    with their known width."""
    k = g.num_edges() - g.n + len(connected_components(g))
    trace = KernelTrace(input_graph=g, k=k)
    if k == 0:
        trace.forest_shortcircuit = True
        trace.forest_width = 1 if g.num_edges() > 0 else 0
        trace.final_graph = g
        return trace
    cleaned, step = reduce_bridges_isolated(g)
    trace.steps.append(step)
    excess = cleaned.n - kernel_vertex_bound(k)
    if excess <= 0:
        trace.final_graph = cleaned
        return trace
    # Labels below are those of the cleaned graph.  A contraction drops the
    # larger endpoint; a vertex's label at any later moment is its cleaned
    # label minus the number of dropped vertices below it.
    dropped: list[int] = []
    rep = list(range(cleaned.n))  # vertex -> the vertex it merged into
    mid = MIN_PATH_LENGTH // 2
    for walk in _degree_two_runs(cleaned):
        count = min(len(walk) - MIN_PATH_LENGTH, excess)
        if count <= 0:
            continue
        # Contracting the middle edge of the run's first path again and again
        # merges walk[mid : mid + 1 + count] into its smallest vertex; the
        # path of the j-th contraction is walk[:mid], the vertex merged so
        # far and walk[mid + 1 + j : MIN_PATH_LENGTH + 1 + j].
        merged = walk[mid]
        for j in range(count):
            # the contracted edge joins path[mid] (merged) and path[mid + 1]
            path = tuple([v - bisect_left(dropped, v) for v in
                          walk[:mid] + [merged] + walk[mid + 1 + j: MIN_PATH_LENGTH + 1 + j]])
            trace.steps.append(ContractionStep(path, path[mid: mid + 2]))
            nxt = walk[mid + 1 + j]
            insort(dropped, max(merged, nxt))
            merged = min(merged, nxt)
        for v in walk[mid: mid + 1 + count]:
            rep[v] = merged
        excess -= count
        if excess == 0:
            break
    # each cleaned vertex's label in the kernel: that of its representative,
    # which is never dropped, so labels differ exactly where reps do
    label = [r - bisect_left(dropped, r) for r in rep]
    final = Graph(cleaned.n - len(dropped),
                  [(label[u], label[v]) for u, v in cleaned.edges()
                   if label[u] != label[v]])
    if bridges(final):
        raise InternalInvariantError("contractions inside cycles created a bridge")
    if excess > 0:  # the runs ran out before the target was reached
        for comp in connected_components(final):
            k_comp = sum(len(final.adj[v]) for v in comp) // 2 - len(comp) + 1
            if len(comp) > _component_vertex_bound(k_comp):
                raise InternalInvariantError(
                    f"a component with feedback number {k_comp} kept {len(comp)} "
                    f"vertices, above {_component_vertex_bound(k_comp)}")
    trace.final_graph = final
    return trace
