"""Spans around every public treeca call the benchmark makes.

make_api(None) returns the library functions themselves, so an untraced run
pays nothing.  make_api(tracer) returns wrappers that record one span per
call, named after the module the function lives in, with counts taken from
the call's arguments and result.  The counts are only computed while
tracing.  Spans stay in memory and are summed into per-layer metrics when
the run ends.
"""

from __future__ import annotations

import statistics
import time
from types import SimpleNamespace

import treeca

from reference import count_contexts, count_trees


def _rules(a) -> int:
    return sum(len(v) for v in a.delta.values())


def _nodes(t) -> int:
    count, stack = 0, [t]
    while stack:
        node = stack.pop()
        count += 1
        stack.extend(node.children)
    return count


def _plugs(args, kwargs, result) -> dict:
    a, h1, h2 = args[:3]
    entries = a.alphabet.entries
    return {"plugs": count_trees(entries, h1) * count_contexts(entries, h2)}


# treeca function -> (span name, counts taken from (args, kwargs, result))
SPANS = {
    "parse_automaton": ("fileformat.parse", lambda a, k, r: {"kb": len(a[0]) / 1024}),
    "serialize_automaton": ("fileformat.serialize", lambda a, k, r: {"kb": len(r) / 1024}),
    "enumerate_trees": ("trees.enumerate", lambda a, k, r: {"items": len(r)}),
    "enumerate_contexts": ("trees.enumerate", lambda a, k, r: {"items": len(r)}),
    "parse_term": ("trees.term", lambda a, k, r: {"nodes": _nodes(r)}),
    "parse_context": ("trees.term", lambda a, k, r: {"nodes": _nodes(r)}),
    "format_term": ("trees.term", lambda a, k, r: {"nodes": _nodes(a[0])}),
    "accepts": ("automata.eval", None),
    "post_tree": ("automata.eval", None),
    "wpre": ("automata.eval", None),
    "trim_unreachable": ("automata.trim", None),
    "determinize": ("transforms.determinize",
                    lambda a, k, r: {"states": len(r.states), "rules": _rules(r)}),
    "codeterminize": ("transforms.codeterminize", lambda a, k, r: {"states": len(r.states)}),
    "tta_determinize": ("transforms.tdeterminize", None),
    "complete": ("transforms.complete", lambda a, k, r: {"added": _rules(r) - _rules(a[0])}),
    "minimize_dbta": ("minimize.refine",
                      lambda a, k, r: {"states_in": len(a[0].states), "states": len(r.states)}),
    "minimize_bta": ("minimize.minimize", lambda a, k, r: {"states": len(r.states)}),
    "canonical_form": ("minimize.canonical", None),
    "equivalent": ("minimize.equivalent", None),
    "isomorphic": ("minimize.isomorphic", None),
    "separating_tree": ("minimize.separating",
                        lambda a, k, r: {"found": r is not None, "height": r.height if r else 0}),
    "brzozowski": ("minimize.brzozowski", None),
    "min_codbta": ("minimize.min_codet", None),
    "is_path_closed": ("analysis.path_closed", None),
    "check_gen_det_u": ("analysis.check_brz_u", None),
    "gen_det_u_witness": ("analysis.witness", None),
    "check_gen_det_d": ("analysis.check_brz_d", None),
    "pre_context": ("analysis.pre", None),
    "root_to_pivot_equiv": ("analysis.rtp", None),
    "bta_congruence_up": ("analysis.congruence",
                          lambda a, k, r: {"items": sum(len(v) for v in r.values())}),
    "bta_congruence_down": ("analysis.congruence",
                            lambda a, k, r: {"items": sum(len(v) for v in r.values())}),
    "language_upto": ("oracle.language", None),
    "nerode_classes_up": ("oracle.nerode", _plugs),
    "nerode_classes_down": ("oracle.nerode", _plugs),
}


class Tracer:
    """Spans of one run: (job id, name, start, end, counts), kept in memory.
    The job id is (pass number, job index) in the run, and the spans of one
    job share it."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.job: tuple | None = None

    def wrap(self, fname: str, fn):
        name, counts = SPANS[fname]
        spans = self.spans
        clock = time.perf_counter

        def traced(*args, **kwargs):
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans.append((self.job, name, t0, clock(), None))
                raise
            t1 = clock()
            spans.append((self.job, name, t0, t1,
                           counts(args, kwargs, result) if counts else None))
            return result

        return traced


def make_api(tracer: Tracer | None) -> SimpleNamespace:
    """The treeca functions the jobs call, wrapped in spans when tracing."""
    funcs = {f: getattr(treeca, f) for f in SPANS}
    if tracer is not None:
        funcs = {f: tracer.wrap(f, fn) for f, fn in funcs.items()}
    return SimpleNamespace(**funcs)


def install_in_cli(tracer: Tracer) -> None:
    """Wrap the names treeca.cli imported, so a traced CLI child records the
    same spans as an in-process job.  pre_context is looked up in
    treeca.analysis at call time, so it is wrapped there."""
    import treeca.analysis
    import treeca.cli

    for f, fn in vars(make_api(tracer)).items():
        if hasattr(treeca.cli, f):
            setattr(treeca.cli, f, fn)
    treeca.analysis.pre_context = tracer.wrap("pre_context", treeca.pre_context)


# === per-layer metrics ===========================================================

PER_LAYER = [
    # (metric, unit)
    ("fileformat.parse_s", "s"), ("fileformat.parse_kb", "KB"),
    ("fileformat.serialize_s", "s"), ("fileformat.serialize_kb", "KB"),
    ("trees.enumerate_s", "s"), ("trees.enumerated_items", "count"),
    ("trees.term_s", "s"), ("trees.term_nodes", "count"),
    ("automata.eval_s", "s"), ("automata.eval_calls", "count"), ("automata.trim_s", "s"),
    ("transforms.determinize_s", "s"), ("transforms.determinize_calls", "count"),
    ("transforms.det_states_out", "count"), ("transforms.det_rules_out", "count"),
    ("transforms.us_per_det_rule", "us"),
    ("transforms.codeterminize_s", "s"), ("transforms.codet_states_out", "count"),
    ("transforms.tdeterminize_s", "s"), ("transforms.complete_s", "s"),
    ("transforms.complete_rules_added", "count"),
    ("minimize.refine_s", "s"), ("minimize.minimize_s", "s"),
    ("minimize.min_states_out", "count"), ("minimize.merge_ratio", "ratio"),
    ("minimize.canonical_s", "s"),
    ("minimize.equivalent_s", "s"), ("minimize.equivalent_calls", "count"),
    ("minimize.isomorphic_s", "s"), ("minimize.separating_s", "s"),
    ("minimize.witness_height", "levels"), ("minimize.brzozowski_s", "s"),
    ("minimize.min_codet_s", "s"),
    ("analysis.path_closed_s", "s"), ("analysis.check_brz_u_s", "s"),
    ("analysis.witness_s", "s"), ("analysis.check_brz_d_s", "s"),
    ("analysis.pre_s", "s"), ("analysis.rtp_s", "s"),
    ("analysis.congruence_s", "s"), ("analysis.congruence_items", "count"),
    ("oracle.language_s", "s"), ("oracle.nerode_s", "s"),
    ("oracle.plug_evals", "count"), ("oracle.plug_evals_per_s", "1/s"),
    ("cli.startup_ms", "ms"), ("cli.invocations", "count"), ("cli.tracebacks", "count"),
    ("trace.overhead_ratio", "ratio"),
]


def _sum(spans, name: str, field: str | None = None) -> float:
    if field is None:
        return sum(d for n, d, _c in spans if n == name)
    return sum(c[field] for n, _d, c in spans if n == name and c)


def _calls(spans, name: str) -> int:
    return sum(1 for s in spans if s[0] == name)


def layer_metrics(spans, factors: dict, passes: int, cli: dict, overhead: float) -> dict:
    """Per-pass layer metrics from the spans of `passes` traced passes.

    Each span's duration is divided by factors[job id], the machine's
    slowdown when its job ran.  cli holds the numbers measured around child
    processes: "startup" (the latencies in seconds, at the reference speed,
    of invocations whose library work is trivial), and "invocations" and
    "tracebacks" per pass."""
    spans = [(n, (t1 - t0) / factors[job], c) for job, n, t0, t1, c in spans]
    per = 1 / passes
    out: dict[str, float] = {}
    for mod, field, unit_field in [
        ("fileformat", "parse", "kb"), ("fileformat", "serialize", "kb"),
    ]:
        out[f"{mod}.{field}_s"] = _sum(spans, f"{mod}.{field}") * per
        out[f"{mod}.{field}_kb"] = _sum(spans, f"{mod}.{field}", unit_field) * per
    out["trees.enumerate_s"] = _sum(spans, "trees.enumerate") * per
    out["trees.enumerated_items"] = _sum(spans, "trees.enumerate", "items") * per
    out["trees.term_s"] = _sum(spans, "trees.term") * per
    out["trees.term_nodes"] = _sum(spans, "trees.term", "nodes") * per
    out["automata.eval_s"] = _sum(spans, "automata.eval") * per
    out["automata.eval_calls"] = _calls(spans, "automata.eval") * per
    out["automata.trim_s"] = _sum(spans, "automata.trim") * per
    det_s = _sum(spans, "transforms.determinize")
    det_rules = _sum(spans, "transforms.determinize", "rules")
    out["transforms.determinize_s"] = det_s * per
    out["transforms.determinize_calls"] = _calls(spans, "transforms.determinize") * per
    out["transforms.det_states_out"] = _sum(spans, "transforms.determinize", "states") * per
    out["transforms.det_rules_out"] = det_rules * per
    out["transforms.us_per_det_rule"] = 1e6 * det_s / det_rules if det_rules else 0.0
    out["transforms.codeterminize_s"] = _sum(spans, "transforms.codeterminize") * per
    out["transforms.codet_states_out"] = _sum(spans, "transforms.codeterminize", "states") * per
    out["transforms.tdeterminize_s"] = _sum(spans, "transforms.tdeterminize") * per
    out["transforms.complete_s"] = _sum(spans, "transforms.complete") * per
    out["transforms.complete_rules_added"] = _sum(spans, "transforms.complete", "added") * per
    refined_in = _sum(spans, "minimize.refine", "states_in")
    out["minimize.refine_s"] = _sum(spans, "minimize.refine") * per
    out["minimize.minimize_s"] = _sum(spans, "minimize.minimize") * per
    out["minimize.min_states_out"] = _sum(spans, "minimize.minimize", "states") * per
    out["minimize.merge_ratio"] = (
        _sum(spans, "minimize.refine", "states") / refined_in if refined_in else 0.0
    )
    out["minimize.canonical_s"] = _sum(spans, "minimize.canonical") * per
    out["minimize.equivalent_s"] = _sum(spans, "minimize.equivalent") * per
    out["minimize.equivalent_calls"] = _calls(spans, "minimize.equivalent") * per
    out["minimize.isomorphic_s"] = _sum(spans, "minimize.isomorphic") * per
    out["minimize.separating_s"] = _sum(spans, "minimize.separating") * per
    found = _sum(spans, "minimize.separating", "found")
    out["minimize.witness_height"] = (
        _sum(spans, "minimize.separating", "height") / found if found else 0.0
    )
    out["minimize.brzozowski_s"] = _sum(spans, "minimize.brzozowski") * per
    out["minimize.min_codet_s"] = _sum(spans, "minimize.min_codet") * per
    for metric, span in [
        ("path_closed_s", "path_closed"), ("check_brz_u_s", "check_brz_u"),
        ("witness_s", "witness"), ("check_brz_d_s", "check_brz_d"),
        ("pre_s", "pre"), ("rtp_s", "rtp"), ("congruence_s", "congruence"),
    ]:
        out[f"analysis.{metric}"] = _sum(spans, f"analysis.{span}") * per
    out["analysis.congruence_items"] = _sum(spans, "analysis.congruence", "items") * per
    out["oracle.language_s"] = _sum(spans, "oracle.language") * per
    nerode_s = _sum(spans, "oracle.nerode")
    plugs = _sum(spans, "oracle.nerode", "plugs")
    out["oracle.nerode_s"] = nerode_s * per
    out["oracle.plug_evals"] = plugs * per
    out["oracle.plug_evals_per_s"] = plugs / nerode_s if nerode_s else 0.0
    startup = cli.get("startup", [])
    out["cli.startup_ms"] = 1000 * statistics.median(startup) if startup else 0.0
    out["cli.invocations"] = cli.get("invocations", 0)
    out["cli.tracebacks"] = cli.get("tracebacks", 0)
    out["trace.overhead_ratio"] = overhead
    return out
