"""Tests of the benchmark itself: inputs, metric names, checks, span maths.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import hostspeed  # noqa: E402
import metrics  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _files(d: Path) -> dict[str, str]:
    return {str(p.relative_to(d)): p.read_text() for p in sorted(d.rglob("*")) if p.is_file()}


def _shape(ops: list[dict]) -> list[tuple]:
    return [(op["role"], op["slot"], op["argv"][0], op["check"]["kind"]) for op in ops]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_are_deterministic_per_seed(tmp_path, workload):
    a = workloads.batch_ops(workload, 3, 0, tmp_path / "a")
    b = workloads.batch_ops(workload, 3, 0, tmp_path / "b")
    assert _shape(a) == _shape(b)
    assert _files(tmp_path / "a") == _files(tmp_path / "b")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_other_seed_gives_same_shaped_workload(tmp_path, workload):
    a = workloads.batch_ops(workload, 3, 0, tmp_path / "a")
    b = workloads.batch_ops(workload, 4, 0, tmp_path / "b")
    assert _shape(a) == _shape(b)
    fa, fb = _files(tmp_path / "a"), _files(tmp_path / "b")
    assert fa.keys() == fb.keys()
    for name in fa:
        # same vertex count in every slot's input (and the same edge count
        # where the slot fixes it), other graphs
        head_a, head_b = fa[name].split()[:2], fb[name].split()[:2]
        assert head_a[0] == head_b[0], name
        if workload.startswith("solve"):
            assert head_a == head_b, name
    if fa:
        assert fa != fb
    else:  # verify: the suites' seed and the typical sequences change
        assert [op["argv"] for op in a] != [op["argv"] for op in b]


def test_generated_graphs_have_the_stated_properties():
    rng = workloads.rng_for("t", 0, 0, "x")
    for n, p in ((12, 0.55), (11, 0.2), (15, 0.2)):
        edges = workloads.connected_gnm(rng, n, p)
        adj = [set() for _ in range(n)]
        for u, v in edges:
            adj[u].add(v)
            adj[v].add(u)
        assert len(edges) == round(p * n * (n - 1) / 2)
        assert checks.component_count(n, adj) == 1
    for gen, k in ((workloads.theta_graph, 3), (workloads.pendant_graph, 4)):
        edges = gen(rng, 600, k)
        adj = [set() for _ in range(600)]
        for u, v in edges:
            adj[u].add(v)
            adj[v].add(u)
        assert len(set(edges)) == len(edges)
        assert checks.cycle_rank(600, adj) == k


def test_metric_names_match_benchmark_json():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]] == \
        list(metrics.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == \
        metrics.per_layer_specs()
    e2e = metrics.end_to_end(0.5, {"a": [1.0], "b": [2.0, 3.0], "c": [0.1]},
                             {"a": "main", "b": "main", "c": "aux"}, 30.0)
    assert e2e["batch_s"] == 3.6
    assert e2e["main_gm_s"] == pytest.approx(2.5 ** 0.5)
    assert list(e2e) == [m["name"] for m in bench["end_to_end"]]
    layer = metrics.per_layer([], {}, 1, {}, 0.1, 1.0)
    assert list(layer) == [m["name"] for m in bench["per_layer"]]
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


def _prune_op(tmp_path: Path) -> tuple[dict, str]:
    g = tmp_path / "g.txt"
    g.write_text("4 3\n0 1\n0 2\n0 3\n")
    out = tmp_path / "g.pruned"
    out.write_text("3 2\n0 1\n0 2\n")
    op = {"role": "aux", "slot": "prune0", "argv": ["prune"],
          "check": {"kind": "prune", "graph": str(g), "out": str(out)}}
    return op, "4 vertices -> 3 (1 vertices pruned in 1 subtrees)\n"


def test_corrupted_recorded_answer_counts_as_failure(tmp_path):
    op, stdout = _prune_op(tmp_path)
    answer, errors = checks.check_op(op, 0, stdout, {}, recorded=3)
    assert answer == 3 and errors == []
    _, errors = checks.check_op(op, 0, stdout, {}, recorded=2)
    assert errors and "recorded" in errors[0]


def test_structural_checks_catch_wrong_outputs(tmp_path):
    op, stdout = _prune_op(tmp_path)
    Path(op["check"]["out"]).write_text("3 3\n0 1\n1 2\n0 2\n")  # a triangle
    _, errors = checks.check_op(op, 0, stdout, {})
    assert any("induced subgraph" in e for e in errors)
    assert checks.check_op(op, 2, stdout, {})[1] == ["exit code 2"]
    # two disjoint edges 0-1 and 2-3 form an induced matching across {0, 2}
    adj = [{1}, {0}, {3}, {2}]
    assert checks.witness_errors(adj, {0, 2}, "match", [[0, 1], [2, 3]]) == []
    assert checks.witness_errors(adj, {1, 3}, "match", [[0, 1], [2, 3]]) == []
    assert checks.witness_errors(adj, {0, 1}, "match", [[0, 1], [2, 3]])
    assert checks.witness_errors(adj, {0, 2}, "antimatch", [[0, 1], [2, 3]])


def test_self_time_on_a_synthetic_span_tree():
    # root 0-10 with child spans 1-4 and 3-6 (overlap counted once), a
    # direct aggregated call of 1 s, and a span entered from inside that
    # aggregated call (already covered by it)
    span_list = [
        (1, None, "op", "op.x", 0.0, 10.0, False, True),
        (2, 1, "op", "m.a", 1.0, 4.0, False, True),
        (3, 1, "op", "m.b", 3.0, 6.0, False, True),
        (4, 1, "op", "m.c", 7.0, 7.5, False, False),
        (5, 2, "op", "m.a", 2.0, 3.0, True, True),
    ]
    agg = {(1, "op.x", True, "m.hot"): [4, 1.0, 0.5, 1.0],
           (1, "m.hot", False, "m.hot2"): [2, 0.5, 0.5, 0.5]}
    self_times = spans.span_self_times(span_list, agg)
    assert self_times[1] == pytest.approx(10 - 5 - 1)
    assert self_times[2] == pytest.approx(3 - 1)
    assert self_times[3] == pytest.approx(3)
    stats = spans.function_stats(span_list, agg)
    assert stats["m.a"] == pytest.approx([2, 3.0, 3.0])  # nested call not re-added
    assert stats["m.hot"] == pytest.approx([4, 1.0, 0.5])


def test_tracer_live_accounting(monkeypatch):
    clock = iter(range(100))
    monkeypatch.setattr(spans, "perf_counter", lambda: float(next(clock)))
    tracer = spans.Tracer()
    monkeypatch.setattr(spans, "SPAN_FUNCTIONS", {"m.outer"})

    def leaf():
        return 1

    def outer():
        return tracer.call("m.leaf", leaf, (), {}) + tracer.call("m.leaf", leaf, (), {})

    tracer.begin_op("op1", "op.test")  # t=0
    tracer.call("m.outer", outer, (), {})  # t=1..6, leaves 2-3 and 4-5
    tracer.end_op()  # t=7
    stats = spans.function_stats(tracer.spans, tracer.agg)
    assert stats["m.outer"] == pytest.approx([1, 5.0, 3.0])
    assert stats["m.leaf"] == pytest.approx([2, 2.0, 2.0])
    assert stats["op.test"] == pytest.approx([1, 7.0, 2.0])


def test_every_slot_moves_the_role_figure():
    # a cheap slot outside the middle of the cost range: doubling it moves
    # the geometric mean by 2 ** (1 / slots), as doubling the dearest would
    lat = {"cheap": [0.1, 0.1], "mid": [1.0, 1.0, 1.0], "dear": [3.0]}
    roles = dict.fromkeys(lat, "main")
    base = metrics.geomean_of_slots(lat, roles, "main")
    for slot in lat:
        slower = dict(lat, **{slot: [2 * x for x in lat[slot]]})
        assert metrics.geomean_of_slots(slower, roles, "main") == \
            pytest.approx(base * 2 ** (1 / 3))


def test_scaling_cancels_the_host_speed():
    # the same run on a host at the reference speed and on one half as fast
    wall = {"setup_s": 0.2, "batch_s": 3.0, "main_gm_s": 1.0, "aux_gm_s": 0.01,
            "peak_rss_mb": 30.0}
    ref = hostspeed.REF_LOOP_S
    fast = metrics.scale_times(wall, hostspeed.speed_factor([ref]),
                               hostspeed.speed_factor([ref, ref]))
    slow = metrics.scale_times({k: v * 2 for k, v in wall.items()},
                               hostspeed.speed_factor([2 * ref]),
                               hostspeed.speed_factor([1.5 * ref, 2.5 * ref]))
    assert fast == pytest.approx(wall)
    assert {k: v for k, v in slow.items() if k != "peak_rss_mb"} == \
        pytest.approx({k: v for k, v in wall.items() if k != "peak_rss_mb"})
    assert hostspeed.loop_time() > 0


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "verify",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


def test_tracing_leaves_fbranch_behaviour_unchanged():
    sys.path.insert(0, str(ROOT / "src"))
    from fbranch import verify

    untraced = verify.run_suites(["fes-safety"], seed=3, quick=True)[0]
    tracer = spans.Tracer()
    uninstall = spans.install(tracer)
    try:
        suite = verify.SUITES["fes-safety"]
        assert suite.__code__.co_varnames[:suite.__code__.co_argcount] == ("seed", "count")
        tracer.begin_op("op1", "op.verify")
        traced = verify.run_suites(["fes-safety"], seed=3, quick=True)[0]
        tracer.end_op()
    finally:
        uninstall()
    assert (traced.tested, traced.violations) == (untraced.tested, untraced.violations)
    assert verify.SUITES["fes-safety"] is verify.suite_fes_safety
    stats = spans.function_stats(tracer.spans, tracer.agg)
    assert stats["verify.fes-safety"][0] == 1
    assert stats["kernel.kernelize_fes"][0] >= 20
