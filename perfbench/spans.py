"""Outside-in tracing of fbranch's public functions.

``install`` wraps every public module-level function of the fbranch
modules (plus the two ``CutEvaluator`` lookups) and rebinds each wrapper at
every name where callers look the function up: the defining module, every
module that imported it by name (``cutfn`` binds ``cut_graph``, ``kernel``
binds ``bridges``, ``treedepth`` and ``atlas`` bind ``canonical_form``,
``verify`` and ``cli`` import by name) and the ``verify.SUITES`` table.
Nothing inside fbranch changes; ``uninstall`` restores every binding.

Calls of the entry points in ``SPAN_FUNCTIONS`` are kept as spans (id,
parent span, op id, name, start, end).  Every other call is hot, so it is
aggregated per (nearest span, immediate caller, name) into a call count,
an inclusive time and a self time, which bounds memory by the number of
spans.  Self time of a span is its duration minus what its child spans and
directly nested aggregated calls cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from collections import defaultdict
from time import perf_counter

MODULES = ("graph", "families", "cutfn", "decomp", "typseq", "kernel",
           "treedepth", "canonical", "atlas", "verify", "cli")
# layers whose per-module self time is reported (cli is cli.main.self_s)
LAYERS = MODULES[:-1]
# helpers evaluated once per search node: a wrapper there would cost more
# than the work it measures, so their time stays with their caller
UNWRAPPED = {"families.pattern_has_edge", "graph.mask_of", "graph.set_of"}
# cli: only the entry point, so cli.main's self time is the whole front end
# (argument parsing, file I/O, emitting reports)
CLI_WRAPPED = {"main"}
EVALUATOR_METHODS = ("value_of_mask", "family_value_of_mask")
SPAN_FUNCTIONS = {
    "cli.main", "verify.run_suites", "decomp.exact_branchwidth_dp",
    "decomp.exact_branchwidth_enum", "decomp.greedy_branchwidth",
    "kernel.kernelize_fes", "treedepth.prune_by_treedepth",
    "treedepth.treedepth_decomposition", "atlas.all_graph_classes",
    "atlas.connected_graph_classes", "atlas.tree_classes",
}


class Tracer:
    """Span store plus the live call stack; single-threaded by design (the
    benchmark issues one op at a time and fbranch starts no threads)."""

    def __init__(self):
        # (sid, parent span, op, name, t0, t1, nested, direct); direct is
        # False when the span was entered from inside an aggregated call
        self.spans: list[tuple] = []
        # (anchor span, caller name, caller is the anchor, name) ->
        # [calls, inclusive s of outermost calls, self s, duration of all calls]
        self.agg: dict[tuple, list[float]] = defaultdict(lambda: [0, 0.0, 0.0, 0.0])
        self.op = None
        self._stack: list[list] = []  # [name, sid or None, anchor, t0, child time]
        self._active: dict[str, int] = defaultdict(int)
        self._next = 1

    def begin_op(self, op_id, name: str) -> None:
        """Open the span of one benchmark op (the root of its span tree)."""
        self.op = op_id
        self._stack.append([name, self._new_id(), None, perf_counter(), 0.0])

    def end_op(self) -> None:
        name, sid, _, t0, _ = self._stack.pop()
        self.spans.append((sid, None, self.op, name, t0, perf_counter(), False, True))
        self.op = None

    def _new_id(self) -> int:
        self._next += 1
        return self._next - 1

    def call(self, name: str, fn, args, kwargs):
        stack = self._stack
        parent = stack[-1] if stack else None
        anchor = None if parent is None else (parent[1] if parent[1] is not None else parent[2])
        sid = self._new_id() if name in SPAN_FUNCTIONS or parent is None else None
        nested = self._active[name] > 0
        self._active[name] += 1
        frame = [name, sid, anchor, perf_counter(), 0.0]
        stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            stack.pop()
            self._active[name] -= 1
            dur = t1 - frame[3]
            if parent is not None:
                parent[4] += dur
            if sid is not None:
                direct = parent is not None and parent[1] is not None
                self.spans.append((sid, anchor, self.op, name, frame[3], t1, nested, direct))
            else:
                entry = self.agg[(anchor, parent[0], parent[1] is not None, name)]
                entry[0] += 1
                if not nested:
                    entry[1] += dur
                entry[2] += dur - frame[4]
                entry[3] += dur


def span_self_times(spans: list[tuple], agg: dict) -> dict[int, float]:
    """Self time of every span: its duration minus the part of its interval
    covered by its direct child spans (merged, clipped to the parent) and
    minus the aggregated calls made directly from it.  A span entered from
    inside an aggregated call is already covered by that call."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for sid, parent, _, _, t0, t1, _, direct in spans:
        if parent is not None and direct:
            children[parent].append((t0, t1))
    direct = defaultdict(float)
    for (anchor, _, caller_is_anchor, _), entry in agg.items():
        if caller_is_anchor:
            direct[anchor] += entry[3]
    out = {}
    for sid, _, _, _, t0, t1, _, _ in spans:
        covered, end = 0.0, t0
        for c0, c1 in sorted(children.get(sid, ())):
            c0, c1 = max(c0, end), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                end = c1
        out[sid] = (t1 - t0) - covered - direct.get(sid, 0.0)
    return out


def function_stats(spans: list[tuple], agg: dict) -> dict[str, list[float]]:
    """Per function name: [calls, inclusive s (outermost calls only), self s]."""
    self_times = span_self_times(spans, agg)
    stats: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
    for sid, _, _, name, t0, t1, nested, _ in spans:
        st = stats[name]
        st[0] += 1
        if not nested:
            st[1] += t1 - t0
        st[2] += self_times[sid]
    for (_, _, _, name), (calls, incl, self_s, _) in agg.items():
        st = stats[name]
        st[0] += calls
        st[1] += incl
        st[2] += self_s
    return stats


def cache_misses(agg: dict) -> int:
    """family_value calls made by family_value_of_mask (the cache misses)."""
    return sum(entry[0] for (_, caller, _, name), entry in agg.items()
               if caller == "cutfn.family_value_of_mask"
               and name.startswith("cutfn.family_value."))


# ---------------------------------------------------------------------------
# wrapping


def _family_key(args) -> str:
    family = args[1] if len(args) > 1 else None
    return f"cutfn.family_value.{getattr(family, 'value', family)}"


def _wrap(tracer: Tracer, name: str, fn, key=None):
    """A wrapper with the wrapped function's own parameter list, so code
    that inspects it (``verify.run_suites`` reads ``__code__`` to decide
    whether a suite takes a seed) sees no difference."""
    try:
        params = list(inspect.signature(fn).parameters.values())
    except (TypeError, ValueError):
        params = None
    if params is None or any(p.kind is not p.POSITIONAL_OR_KEYWORD for p in params):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer.call(key(args) if key else name, fn, args, kwargs)
        return wrapper
    names = ", ".join(p.name for p in params)
    args = f"({names},)" if params else "()"
    label = f"_key({args})" if key else "_name"
    namespace = {"_call": tracer.call, "_key": key, "_name": name, "_fn": fn, "_kw": {}}
    exec(f"def wrapper({names}):\n    return _call({label}, _fn, {args}, _kw)\n", namespace)
    wrapper = functools.update_wrapper(namespace["wrapper"], fn)
    wrapper.__defaults__ = tuple(p.default for p in params if p.default is not p.empty) or None
    return wrapper


def install(tracer: Tracer):
    """Wrap and rebind; returns a function that restores every binding."""
    mods = {m: importlib.import_module(f"fbranch.{m}") for m in MODULES}
    wrappers: dict[int, tuple[object, object]] = {}
    for short, mod in mods.items():
        for attr, obj in vars(mod).items():
            name = f"{short}.{attr}"
            if (attr.startswith("_") or name in UNWRAPPED
                    or getattr(obj, "__module__", None) != mod.__name__
                    or not (inspect.isfunction(obj) or hasattr(obj, "cache_clear"))
                    or inspect.isgeneratorfunction(obj)
                    or (short == "cli" and attr not in CLI_WRAPPED)):
                continue
            key = _family_key if name == "cutfn.family_value" else None
            wrappers[id(obj)] = (obj, _wrap(tracer, name, obj, key))
    suites = mods["verify"].SUITES
    for suite, fn in suites.items():
        wrappers[id(fn)] = (fn, _wrap(tracer, f"verify.{suite}", fn))
    restore: list[tuple[object, str, object]] = []
    for mod in mods.values():
        for attr, obj in list(vars(mod).items()):
            hit = wrappers.get(id(obj))
            if hit is not None and hit[0] is obj:
                restore.append((mod, attr, obj))
                setattr(mod, attr, hit[1])
    saved_suites = dict(suites)
    for suite, fn in saved_suites.items():
        suites[suite] = wrappers[id(fn)][1]
    evaluator = mods["cutfn"].CutEvaluator
    saved_methods = {m: evaluator.__dict__[m] for m in EVALUATOR_METHODS}
    for m, fn in saved_methods.items():
        setattr(evaluator, m, _wrap(tracer, f"cutfn.{m}", fn))

    def uninstall() -> None:
        for mod, attr, obj in restore:
            setattr(mod, attr, obj)
        suites.update(saved_suites)
        for m, fn in saved_methods.items():
            setattr(evaluator, m, fn)

    return uninstall
