"""Checks of job results against the references in reference.py.

check() returns None for a correct result and a short reason otherwise.  A
verb whose answer is known by construction (a path-closed draw, an
equivalent partner, a renamed copy, an error input) is checked against that
answer; other answers are checked by bounded languages, state sets and
preimages computed by the benchmark's own bottom-up runs.  Only the
canonical-form and minimality-check references call treeca, and never the
function under test.
"""

from __future__ import annotations

import re

import treeca as lib

import reference as ref
from corpus import format_tree, subsets

_WITNESS = re.compile(
    r"witness: state (\S+) separates subsets (\{[^}]*\}) and (\{[^}]*\}) merged into (\S+)$"
)


class Context:
    """The own-parsed inputs of a pass, with languages cached per input."""

    def __init__(self, texts: dict):
        self.texts = texts
        self.autos: dict = {}
        self.langs: dict = {}

    def auto(self, name: str) -> ref.Auto:
        if name not in self.autos:
            self.autos[name] = ref.read_automaton(self.texts[name])[1]
        return self.autos[name]

    def language(self, name: str, h: int) -> set:
        if (name, h) not in self.langs:
            self.langs[(name, h)] = ref.language(self.auto(name), h)
        return self.langs[(name, h)]


def check(job, res, ctx: Context) -> str | None:
    if res.exc:
        return f"raised {res.exc}"
    if "Traceback" in res.err:
        return "printed a traceback"
    name, params = job.expect
    if name != "error" and res.code == 2:
        return "failed: " + res.err.strip()
    try:
        return CHECKS[name](job, res, ctx, **params)
    except (ValueError, KeyError, IndexError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"


def _error(job, res, ctx) -> str | None:
    lines = res.err.strip().splitlines()
    if res.code != 2:
        return f"exit {res.code}, expected 2"
    if len(lines) != 1 or not lines[0].startswith("error: "):
        return "expected one 'error:' line"
    return None


def _automaton(job, res, ctx, h, rel="eq", det=False, codet=False, total=False,
               shrink=False, canonical=False) -> str | None:
    if res.code != 0:
        return f"exit {res.code}"
    _, out = ref.read_automaton(res.out)
    src = job.files[0]
    got, want = ref.language(out, h), ctx.language(src, h)
    if rel == "eq" and got != want:
        return f"language up to height {h} differs"
    if rel == "sup" and not want <= got:
        return f"language up to height {h} lost trees"
    if det and not ref.is_deterministic(out):
        return "not deterministic"
    if codet and out.states and not ref.is_codeterministic(out):
        return "not co-deterministic"
    if total and not ref.is_total(out):
        return "not complete"
    if shrink and len(out.states) > len(ctx.auto(src).states):
        return "more states than the input"
    if canonical:
        again = lib.serialize_automaton(lib.canonical_form(lib.parse_automaton(res.out)))
        if again != res.out:
            return "canonical form is not idempotent"
    return None


def _verdict(job, res, ctx, yes, line) -> str | None:
    if res.code != (0 if yes else 1) or res.out != line + "\n":
        return f"expected {line!r}, got {res.out.strip()!r} (exit {res.code})"
    return None


def _brz_u(job, res, ctx) -> str | None:
    a = ctx.auto(job.files[0])
    reachable = subsets(a, 1 << 30)
    minimal = len(lib.minimize_bta(lib.parse_automaton(ctx.texts[job.files[0]])).states)
    if res.code == 0:
        ok = res.out == "determinization is minimal\n" and len(reachable) == minimal
        return None if ok else "verdict 'minimal' disagrees with the state counts"
    lines = res.out.splitlines()
    if res.code != 1 or lines[0] != "determinization is not minimal" or len(reachable) == minimal:
        return "verdict 'not minimal' disagrees with the state counts"
    m = _WITNESS.match(lines[1]) if len(lines) == 2 else None
    if not m:
        return "missing witness"
    q, s1, s2 = m.group(1), m.group(2), m.group(3)
    sets = {ref.subset_name(s): s for s in reachable}
    if s1 == s2 or s1 not in sets or s2 not in sets or q not in sets[s1] ^ sets[s2]:
        return f"bad witness {lines[1]!r}"
    return None


def _brz_d(job, res, ctx) -> str | None:
    a = lib.parse_automaton(ctx.texts[job.files[0]])
    minimal = len(lib.codeterminize(lib.trim_unreachable(a)).states) == len(
        lib.min_codbta(a).states)
    want = "co-determinization is minimal" if minimal else "co-determinization is not minimal"
    return _verdict(job, res, ctx, minimal, want)


def _equiv(job, res, ctx, h, known=False) -> str | None:
    if known:
        return _verdict(job, res, ctx, True, "equivalent")
    left, right = ctx.auto(job.files[0]), ctx.auto(job.files[1])
    if res.code == 0:
        if res.out != "equivalent\n" or ctx.language(job.files[0], h) != ctx.language(job.files[1], h):
            return f"'equivalent' but the languages up to height {h} differ"
        return None
    lines = res.out.splitlines()
    if res.code != 1 or lines[0] != "not equivalent" or len(lines) != 2:
        return "malformed 'not equivalent' answer"
    t = ref.read_term(lines[1].removeprefix("separating tree: "))
    if ref.Runs(left).accepts(t) == ref.Runs(right).accepts(t):
        return f"witness {lines[1]!r} is accepted by both or neither"
    return None


def _enumerate(job, res, ctx, h, contexts=False) -> str | None:
    alphabet = ctx.auto(job.files[0]).alphabet
    lines = res.out.splitlines()
    want = ref.count_contexts(alphabet, h) if contexts else ref.count_trees(alphabet, h)
    if res.code != 0 or len(lines) != want or len(set(lines)) != want:
        return f"expected {want} distinct items, got {len(lines)}"
    if any(ref.holes(ref.read_term(line)) != contexts for line in lines):
        return "wrong number of holes"
    return None


def _language(job, res, ctx, h) -> str | None:
    lines = res.out.splitlines()
    if res.code != 0 or len(set(lines)) != len(lines) or set(lines) != ctx.language(job.files[0], h):
        return f"accepted trees up to height {h} differ"
    return None


def _keyed(res, items, key_of) -> str | None:
    """Every item is listed once, under the key of its own state set."""
    seen = []
    for line in res.out.splitlines():
        key, _, members = line.partition(": ")
        for m in members.split(" "):
            seen.append(m)
            if ref.subset_name(key_of(ref.read_term(m))) != key:
                return f"{m} is filed under {key}"
    names = {format_tree(t) for t in items}
    if res.code != 0 or len(seen) != len(names) or set(seen) != names:
        return "classes do not partition the items"
    return None


def _classes_up(job, res, ctx, h) -> str | None:
    a = ctx.auto(job.files[0])
    runs = ref.Runs(a)
    return _keyed(res, ref.trees_upto(a.alphabet, h), runs.states)


def _classes_down(job, res, ctx, h) -> str | None:
    a = ctx.auto(job.files[0])
    return _keyed(res, ref.contexts_upto(a.alphabet, h), lambda x: ref.pre(a, x, a.final))


def _nerode(res, items, vector) -> str | None:
    """The classes are exactly the groups of items with equal acceptance vectors."""
    got = [frozenset(line.split(" ")) for line in res.out.splitlines()]
    want: dict = {}
    for t in items:
        want.setdefault(vector(t), set()).add(format_tree(t))
    if res.code != 0 or len(got) != len(want) or set(got) != {frozenset(g) for g in want.values()}:
        return "classes differ from the groups of equal acceptance vectors"
    return None


def _good_states(a: ref.Auto, runs: ref.Runs, x: tuple) -> frozenset:
    """States q such that x, with q at its hole, can reach a final state: x
    carries a tree in iff one of the tree's states is among them."""
    return frozenset(q for q in a.states if runs.states(x, frozenset({q})) & a.final)


def _oracle_up(job, res, ctx, h, ch) -> str | None:
    a = ctx.auto(job.files[0])
    runs = ref.Runs(a)
    good = [_good_states(a, runs, x) for x in ref.contexts_upto(a.alphabet, ch)]
    return _nerode(res, ref.trees_upto(a.alphabet, h),
                   lambda t: tuple(bool(runs.states(t) & g) for g in good))


def _oracle_down(job, res, ctx, h, th) -> str | None:
    a = ctx.auto(job.files[0])
    runs = ref.Runs(a)
    sets = [runs.states(t) for t in ref.trees_upto(a.alphabet, th)]
    return _nerode(res, ref.contexts_upto(a.alphabet, h),
                   lambda x: tuple(bool(s & _good_states(a, runs, x)) for s in sets))


def _member(job, res, ctx) -> str | None:
    a = ctx.auto(job.files[0])
    yes = ref.Runs(a).accepts(ref.read_term(job.opts["term"]))
    return _verdict(job, res, ctx, yes, "member" if yes else "not a member")


def _states(job, res, ctx, want) -> str | None:
    line = " ".join(sorted(want)) + "\n"
    return None if res.code == 0 and res.out == line else f"expected {line.strip()!r}"


def _post(job, res, ctx) -> str | None:
    a = ctx.auto(job.files[0])
    return _states(job, res, ctx, ref.Runs(a).states(ref.read_term(job.opts["term"])))


def _wpre(job, res, ctx) -> str | None:
    a = ctx.auto(job.files[0])
    return _states(job, res, ctx, ref.wpre(a, ref.read_term(job.opts["context"]), a.final))


def _pre(job, res, ctx) -> str | None:
    a = ctx.auto(job.files[0])
    return _states(job, res, ctx, ref.pre(a, ref.read_term(job.opts["context"]), a.final))


def _rtp(job, res, ctx) -> str | None:
    a = ctx.auto(job.files[0])
    x, y = (ref.read_term(c) for c in job.opts["context"])
    yes = ref.spine(x) == ref.spine(y) and bool(ref.wpre(a, x, a.final)) == bool(
        ref.wpre(a, y, a.final))
    return _verdict(job, res, ctx, yes,
                    "root-to-pivot equivalent" if yes else "not root-to-pivot equivalent")


CHECKS = {
    "error": _error,
    "automaton": _automaton,
    "verdict": _verdict,
    "brz_u": _brz_u,
    "brz_d": _brz_d,
    "equiv": _equiv,
    "enumerate": _enumerate,
    "language": _language,
    "classes_up": _classes_up,
    "classes_down": _classes_down,
    "oracle_up": _oracle_up,
    "oracle_down": _oracle_down,
    "member": _member,
    "post": _post,
    "wpre": _wpre,
    "pre": _pre,
    "rtp": _rtp,
}
