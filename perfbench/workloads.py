"""The four workloads: seeded input texts and the jobs of one pass.

build(name, seed, fixtures) returns (texts, jobs).  texts maps input names
to file contents; jobs run in list order, once per pass.  Every draw is
stratified by its subset-construction size (see corpus.stratified), so all
seeds share one size profile.
"""

from __future__ import annotations

import itertools
import random

import reference as ref
from corpus import (
    AB, ABG, BOOL, MONO, TERN, Auto, chain, drop_one_rule, format_tree,
    puncture_random_leaf, random_dtta_reversed, random_nbta, random_small_bta,
    random_term, rename, resample_off_spine, split_state, stratified, subsets,
    top_down_subsets,
)
from jobs import Job

WORKLOADS = ("det-min", "path-closed", "bounded", "cli-batch")


def _size(a: Auto) -> int:
    return len(subsets(a, 64))


def _bands(lo: int, hi: int, width: int) -> list:
    return [(b, b + width - 1) for b in range(lo, hi + 1, width)]


# === det-min =====================================================================

def _det_min_jobs(name: str, h: int) -> list:
    d = name + "d"
    return [
        Job("determinize", [name], expect=("automaton", {"h": h, "det": True}), save_as=d),
        Job("minimize", [name], expect=("automaton", {"h": h, "det": True})),
        Job("codeterminize", [name], expect=("automaton", {"h": h, "rel": "sup", "codet": True})),
        Job("tdeterminize", [name + "r"],
            expect=("automaton", {"h": h, "rel": "sup", "codet": True})),
        Job("canonical", [d], expect=("automaton", {"h": h, "det": True, "canonical": True})),
        Job("complete", [d], expect=("automaton", {"h": h, "det": True, "total": True})),
        Job("minimize-dbta", [d],
            expect=("automaton", {"h": h, "det": True, "total": True, "shrink": True})),
    ]


def det_min(rng: random.Random, fixtures: dict) -> tuple[dict, list]:
    """Random nondeterministic automata (the roadmap generator at n=6 over
    a/0 b/0 g/1 f/2, and n=3 over a/0 b/0 h/3) through determinize, minimize,
    codeterminize and tdeterminize; the determinized text is parsed again for
    canonical, complete and minimize-dbta."""
    draws = stratified(rng, lambda r: random_nbta(r, ABG, 6), _size, _bands(8, 31, 4) * 6)
    draws += stratified(rng, lambda r: random_nbta(r, TERN, 3), _size, [(5, 6), (7, 8)] * 4)
    texts, jobs = {}, []
    for i, a in enumerate(draws):
        name = f"nbta{i}"
        texts[name] = a.text()
        texts[name + "r"] = a.reversed_text()
        jobs += _det_min_jobs(name, 3)
    return texts, jobs


# === path-closed =================================================================

def _swapped_pair(rng: random.Random, base: Auto) -> Auto | None:
    """base plus the two trees f(x,y) and f(y,x) for random distinct x, y and a
    binary f.  The path closure then holds f(x,x) and f(y,y); the draw is kept
    only if one of them is rejected, so it is not path-closed by construction."""
    al = base.alphabet
    f = rng.choice(sorted(s for s, k in al.items() if k == 2))
    x, y = (random_term(rng, al, rng.randint(2, 5)) for _ in range(2))
    if x == y:
        return None
    rules = {key: set(ts) for key, ts in base.rules.items()}
    names: dict = {}
    for t in (x, y):
        stack = [(t, False)]
        while stack:
            node, done = stack.pop()
            if node in names:
                continue
            if done:
                names[node] = f"s{len(names)}"
                rules.setdefault((node[0], tuple(names[c] for c in node[1])), set()).add(names[node])
            else:
                stack.append((node, True))
                stack.extend((c, False) for c in node[1])
    rules.setdefault((f, (names[x], names[y])), set()).add("top")
    rules.setdefault((f, (names[y], names[x])), set()).add("top")
    a = Auto(al, base.states + sorted(names.values()) + ["top"], rules, base.final | {"top"})
    runs = ref.Runs(a)
    if runs.accepts((f, (x, x))) and runs.accepts((f, (y, y))):
        return None
    return a


def _not_path_closed(alphabet: dict, n: int):
    def make(rng: random.Random) -> Auto:
        while True:
            a = _swapped_pair(rng, random_dtta_reversed(rng, alphabet, n))
            if a is not None:
                return a
    return make


def _path_closed_jobs(name: str, closed: bool, h: int) -> list:
    err = ("error", {})
    return [
        Job("is-path-closed", [name], expect=("verdict", {
            "yes": closed, "line": "path-closed" if closed else "not path-closed"})),
        Job("brzozowski", [name], expect=("automaton", {"h": h, "det": True}) if closed else err),
        Job("min-codet", [name], expect=("automaton", {"h": h, "codet": True}) if closed else err),
        Job("check-brz-d", [name], expect=("brz_d", {}) if closed else err),
        Job("check-brz-u", [name], {"witness": True}, expect=("brz_u", {})),
        Job("equiv", [name, name + "s"], expect=("equiv", {"h": h, "known": True})),
        Job("equiv", [name, name + "x"], expect=("equiv", {"h": h})),
        Job("isomorphic", [name, name + "i"],
            expect=("verdict", {"yes": True, "line": "isomorphic"})),
    ]


def _both_sizes(a: Auto) -> tuple[int, int]:
    return _size(a), len(top_down_subsets(a, 64))


def _exact(lo: int, hi: int, top_down: tuple[int, int] | None = None) -> list:
    """One band per subset-construction size from lo to hi, each a single size;
    with top_down, the top-down subset count is bounded too."""
    if top_down is None:
        return [(b, b) for b in range(lo, hi + 1)]
    return [((b, top_down[0]), (b, top_down[1])) for b in range(lo, hi + 1)]


def path_closed(rng: random.Random, fixtures: dict) -> tuple[dict, list]:
    """Path-closed draws (reversed deterministic top-down automata over BOOL
    at n=4 and ABG at n=5) and draws made not path-closed by construction,
    through the path-closedness verbs and two equivalence checks each.

    The tail of this workload is a handful of the largest draws, so every
    size is drawn exactly, twice: each seed has the same size profile.  The
    not-path-closed draws are bounded in their top-down subset count as well,
    which drives the cost of the path-closedness check on them."""
    draws = []
    for alphabet, n, bands, pc in [
        (BOOL, 4, _exact(4, 13) * 2, True),
        (ABG, 5, _exact(4, 15) * 2, True),
        (BOOL, 3, _exact(8, 13, (7, 9)) * 2, False),
        (ABG, 4, _exact(9, 14, (6, 9)) * 2, False),
    ]:
        make = (lambda r, al=alphabet, n=n: random_dtta_reversed(r, al, n)) if pc \
            else _not_path_closed(alphabet, n)
        draws += [(a, pc) for a in stratified(rng, make, _size if pc else _both_sizes, bands)]
    texts, jobs = {}, []
    for i, (a, closed) in enumerate(draws):
        name = f"pc{i}"
        texts[name] = a.text()
        texts[name + "s"] = split_state(rng, a).text()
        texts[name + "x"] = drop_one_rule(rng, a).text()
        texts[name + "i"] = rename(a, "r").text()
        jobs += _path_closed_jobs(name, closed, 3)
    return texts, jobs


# === bounded =====================================================================

def heights(alphabet: dict) -> tuple[int, int, int, int]:
    """Tree height, context height, and the oracle's tree and context heights
    for an alphabet, the largest that keep each enumeration small."""
    def largest(ok) -> int:
        return max(h for h in range(1, 7) if ok(h))
    ht = largest(lambda h: ref.count_trees(alphabet, h) <= 1500)
    hc = largest(lambda h: ref.count_contexts(alphabet, h) <= 400)
    to = max(ht - 1, 1)
    co = largest(lambda h: ref.count_trees(alphabet, to) * ref.count_contexts(alphabet, h) <= 2500)
    return ht, hc, to, co


def _bounded_jobs(rng: random.Random, name: str, alphabet: dict) -> list:
    ht, hc, to, co = heights(alphabet)
    unary_only = all(k <= 1 for k in alphabet.values())
    size = 300 if unary_only else 2000
    term = lambda n: format_tree(random_term(rng, alphabet, n))  # noqa: E731
    x = puncture_random_leaf(rng, random_term(rng, alphabet, size // 2))
    y = resample_off_spine(rng, x, alphabet, size // 2)
    return [
        Job("enumerate", [name], {"height": ht}, ("enumerate", {"h": ht})),
        Job("enumerate", [name], {"height": hc, "contexts": True},
            ("enumerate", {"h": hc, "contexts": True})),
        Job("language-upto", [name], {"height": ht}, ("language", {"h": ht})),
        Job("classes-up", [name], {"height": ht}, ("classes_up", {"h": ht})),
        Job("classes-down", [name], {"height": hc}, ("classes_down", {"h": hc})),
        Job("oracle-classes-up", [name], {"height": to, "context_height": co},
            ("oracle_up", {"h": to, "ch": co})),
        Job("oracle-classes-down", [name], {"height": co, "tree_height": to},
            ("oracle_down", {"h": co, "th": to})),
        Job("member", [name], {"term": term(size)}, ("member", {})),
        Job("post", [name], {"term": term(size)}, ("post", {})),
        Job("pre", [name], {"context": format_tree(x)}, ("pre", {})),
        Job("wpre", [name], {"context": format_tree(y)}, ("wpre", {})),
        Job("rtp-equiv", [name], {"context": [format_tree(x), format_tree(y)]}, ("rtp", {})),
    ]


def bounded(rng: random.Random, fixtures: dict) -> tuple[dict, list]:
    """The bta fixtures and small random automata over AB, ABG, BOOL and MONO
    through enumeration, bounded languages, congruence and oracle classes, and
    evaluation, preimages and root-to-pivot checks on large seeded terms."""
    texts = {n: t for n, t in fixtures.items() if n.endswith(".bta")}
    jobs = []
    for name in sorted(texts):
        jobs += _bounded_jobs(rng, name, ref.read_automaton(texts[name])[1].alphabet)
    for i, n in enumerate((1, 2, 3, 4, 3)):
        for tag, alphabet in [("ab", AB), ("abg", ABG), ("bool", BOOL), ("mono", MONO)]:
            name = f"{tag}{i}"
            texts[name] = random_small_bta(rng, alphabet, n).text()
            jobs += _bounded_jobs(rng, name, alphabet)
    # Known defects: each is expected to fail until the library is fixed.
    deep = format_tree(chain(["g", "h"], "a", 950, rng))
    jobs.append(Job("member", ["mono0"], {"term": deep}, ("member", {}),
                    defect="accepts recurses: RecursionError on a unary chain 950 deep"))
    jobs.append(Job("enumerate", ["ab0"], {"height": 3, "contexts": True, "budget": 5},
                    ("error", {}), defect="a warm context cache skips the budget check"))
    return texts, jobs


# === cli-batch ===================================================================

MALFORMED = {
    "bad_header.bta": "automaton\nalphabet a/0\nstates q\nfinal q\na -> q\n",
    "unknown_symbol.bta": "bta\nalphabet a/0 f/2\nstates q\nfinal q\na -> q\nz(q,q) -> q\n",
    "bad_arity.bta": "bta\nalphabet a/0 f/2\nstates q\nfinal q\na -> q\nf(q) -> q\n",
    "undeclared.bta": "bta\nalphabet a/0 f/2\nstates q\nfinal q\na -> q\nf(q,r) -> q\n",
    "no_final.bta": "bta\nalphabet a/0 f/2\nstates q\na -> q\nf(q,q) -> q\n",
}
NON_UTF8 = b"bta\nalphabet a/0\nstates q\nfinal q\n# caf\xe9 \xff\xfe\na -> q\n"


def _random_dbta(rng: random.Random, alphabet: dict, n: int) -> Auto:
    """A partial deterministic automaton: each cell present with p=0.7, one target."""
    states = [f"d{i}" for i in range(n)]
    rules = {}
    for sym, k in sorted(alphabet.items()):
        for args in itertools.product(states, repeat=k):
            if not k or rng.random() < 0.7:
                rules[(sym, args)] = {rng.choice(states)}
    return Auto(alphabet, states, rules, {states[-1]})


def cli_batch(rng: random.Random, fixtures: dict) -> tuple[dict, list]:
    """The same verbs run through `python -m treeca`, one child at a time, on
    the fixtures, small generated files and malformed inputs."""
    texts = dict(fixtures)
    texts.update(MALFORMED)
    texts["non_utf8.bta"] = NON_UTF8
    texts["nbta.bta"] = stratified(rng, lambda r: random_nbta(r, ABG, 4), _size, [(6, 9)])[0].text()
    pc = stratified(rng, lambda r: random_dtta_reversed(r, BOOL, 3), _size, [(4, 6)])[0]
    texts["pc.bta"] = pc.text()
    texts["pc_split.bta"] = split_state(rng, pc).text()
    texts["pc_drop.bta"] = drop_one_rule(rng, pc).text()
    texts["pc_renamed.bta"] = rename(pc, "r").text()
    texts["npc.bta"] = stratified(rng, _not_path_closed(ABG, 3), _size, [(3, 8)])[0].text()
    texts["dbta.bta"] = _random_dbta(rng, AB, 4).text()
    bool_term = format_tree(random_term(rng, BOOL, 200))
    bool_x = puncture_random_leaf(rng, random_term(rng, BOOL, 200))
    bool_y = resample_off_spine(rng, bool_x, BOOL, 200)
    abc_x = format_tree(puncture_random_leaf(rng, random_term(rng, {"a": 0, "b": 0, "c": 0, "f": 2}, 100)))
    err = ("error", {})
    auto = lambda h, **kw: ("automaton", dict(h=h, **kw))  # noqa: E731
    J = Job
    return texts, [
        J("member", ["bool2.bta"], {"term": "and(T,or(F,T))"}, ("member", {}), trivial=True),
        J("member", ["and1.bta"], {"term": "and(T,T)"}, ("member", {}), trivial=True),
        J("member", ["abc.bta"], {"term": "f(a,b)"}, ("member", {}), trivial=True),
        J("member", ["star.bta"], {"term": "and(T,F)"}, ("member", {}), trivial=True),
        J("determinize", ["nbta.bta"], {"budget": 4096}, auto(3, det=True)),
        J("minimize", ["nbta.bta"], {"budget": 4096}, auto(3, det=True)),
        J("codeterminize", ["nbta.bta"], {"budget": 4096}, auto(3, rel="sup", codet=True)),
        J("tdeterminize", ["bool2r.tta"], {"budget": 4096}, auto(3, rel="sup", codet=True)),
        J("complete", ["dbta.bta"], {}, auto(3, det=True, total=True)),
        J("canonical", ["dbta.bta"], {}, auto(3, det=True, canonical=True)),
        J("is-path-closed", ["pc.bta"], {"budget": 4096},
          ("verdict", {"yes": True, "line": "path-closed"})),
        J("is-path-closed", ["npc.bta"], {"budget": 4096},
          ("verdict", {"yes": False, "line": "not path-closed"})),
        J("brzozowski", ["pc.bta"], {"budget": 4096}, auto(3, det=True)),
        J("min-codet", ["pc.bta"], {"budget": 4096}, auto(3, codet=True)),
        J("check-brz-d", ["pc.bta"], {"budget": 4096}, ("brz_d", {})),
        J("check-brz-u", ["nbta.bta"], {"witness": True, "budget": 4096}, ("brz_u", {})),
        J("equiv", ["pc.bta", "pc_split.bta"], {"budget": 4096},
          ("equiv", {"h": 3, "known": True})),
        J("equiv", ["pc.bta", "pc_drop.bta"], {"budget": 4096}, ("equiv", {"h": 3})),
        J("isomorphic", ["pc.bta", "pc_renamed.bta"], {},
          ("verdict", {"yes": True, "line": "isomorphic"})),
        J("post", ["bool2.bta"], {"term": bool_term}, ("post", {})),
        J("pre", ["bool2.bta"], {"context": format_tree(bool_x)}, ("pre", {})),
        J("wpre", ["abc.bta"], {"context": abc_x}, ("wpre", {})),
        J("rtp-equiv", ["bool2.bta"], {"context": [format_tree(bool_x), format_tree(bool_y)]},
          ("rtp", {})),
        J("enumerate", ["abc_codet.bta"], {"height": 3}, ("enumerate", {"h": 3})),
        J("enumerate", ["and1.bta"], {"height": 3, "contexts": True},
          ("enumerate", {"h": 3, "contexts": True})),
        J("language-upto", ["and1.bta"], {"height": 4}, ("language", {"h": 4})),
        J("classes-up", ["bool2.bta"], {"height": 3}, ("classes_up", {"h": 3})),
        J("classes-down", ["bool2.bta"], {"height": 2}, ("classes_down", {"h": 2})),
        J("oracle-classes-up", ["abc.bta"], {"height": 2, "context_height": 2},
          ("oracle_up", {"h": 2, "ch": 2})),
        J("oracle-classes-down", ["and1.bta"], {"height": 2, "tree_height": 3},
          ("oracle_down", {"h": 2, "th": 3})),
        J("determinize", ["bad_header.bta"], {}, err),
        J("minimize", ["unknown_symbol.bta"], {}, err),
        J("member", ["bad_arity.bta"], {"term": "a"}, err),
        J("codeterminize", ["undeclared.bta"], {}, err),
        J("is-path-closed", ["no_final.bta"], {}, err),
        J("member", ["bool2.bta"], {"term": "and(T)"}, err),
        J("brzozowski", ["npc.bta"], {"budget": 4096}, err),
        J("determinize", ["missing.bta"], {}, err),
        J("minimize", ["bool2r.tta"], {}, err),
        # Known defects: each is expected to fail until the CLI is fixed.
        J("member", ["non_utf8.bta"], {"term": "a"}, err,
          defect="a non-UTF-8 file prints a UnicodeDecodeError traceback"),
        J("enumerate", ["bool2.bta"], {"height": 0}, err,
          defect="enumerate --height 0 prints a ValueError traceback"),
    ]


CORPORA = {"det-min": det_min, "path-closed": path_closed, "bounded": bounded,
            "cli-batch": cli_batch}


def build(workload: str, seed: int, fixtures: dict) -> tuple[dict, list]:
    return CORPORA[workload](random.Random(f"{workload}/{seed}"), fixtures)
