"""Shared builders, random generators, independent oracles, and the one
reference per construction that the tests compare the library against.

Everything random takes an explicit random.Random so the suites are
reproducible; everything oracle-like is written directly against the
definitions (runs, paths, enumeration) rather than through the library
pipelines it is meant to check.
"""

from __future__ import annotations

import importlib.util
import itertools
import random
import re
from collections import Counter, namedtuple
from collections.abc import Mapping
from pathlib import Path

from treeca import (
    DEFAULT_ENUM_BUDGET,
    DEFAULT_STATE_BUDGET,
    HOLE,
    Bta,
    BudgetError,
    NotDeterministicError,
    NotPathClosedError,
    NotWellRankedError,
    ParseError,
    RankedAlphabet,
    Tree,
    TreecaError,
    Tta,
    accepts,
    check_well_ranked,
    codeterminize,
    determinize,
    enumerate_contexts,
    enumerate_trees,
    equivalent,
    is_deterministic,
    isomorphic,
    iter_nodes,
    minimize_bta,
    minimize_dbta,
    parse_automaton,
    pivot,
    puncture,
    reverse_bta,
    reverse_tta,
    spine_of,
    subset_construction,
    subset_name,
    substitute,
    trim_empty,
    trim_unreachable,
)
from treeca.automata import EMPTY, _Subsets

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

BOOL = RankedAlphabet({"F": 0, "T": 0, "and": 2, "or": 2})
AB = RankedAlphabet({"a": 0, "b": 0, "f": 2})
ABG = RankedAlphabet({"a": 0, "b": 0, "f": 2, "g": 1})
MONO = RankedAlphabet({"a": 0, "b": 0, "g": 1, "h": 1})
TERN = RankedAlphabet({"a": 0, "b": 0, "g": 1, "h": 3})


def load_fixture(name: str) -> Bta | Tta:
    return parse_automaton((FIXTURES / name).read_text())


def rename_states(a: Bta, new: Mapping[str, str]) -> Bta:
    """A structurally identical copy with each state q renamed new[q]."""
    delta = {
        (sym, tuple(new[q] for q in args)): {new[t] for t in targets}
        for (sym, args), targets in a.delta.items()
    }
    return Bta(a.alphabet, new.values(), delta, {new[q] for q in a.final})


def prefixed_names(a: Bta) -> dict[str, str]:
    """Each state prefixed with "s_", its braces and commas spelt as letters."""
    return {q: "s_" + q.replace("{", "L").replace("}", "R").replace(",", "_") for q in a.states}


def shuffled_names(a: Bta, rng: random.Random) -> dict[str, str]:
    """The states renamed "p0".."p{n-1}" in a random order, so that sorting
    no longer lines them up."""
    names = [f"p{i}" for i in range(len(a.states))]
    rng.shuffle(names)
    return dict(zip(sorted(a.states), names))


# === Comparing a route with its reference ========================================

# The type, message, line and column of a TreecaError; line and column are
# None for errors that carry no position.
Raised = namedtuple("Raised", "type message line column")


def outcome(f, *args, **kwargs):
    """What f returns on the arguments, or the Raised of its TreecaError."""
    try:
        return f(*args, **kwargs)
    except TreecaError as e:
        return Raised(type(e), str(e), getattr(e, "line", None), getattr(e, "column", None))


def assert_routes_agree(route, reference, inputs) -> list:
    """route and reference return equal results, or raise the same error with
    the same message and position, on every tuple of arguments in inputs;
    route's outcomes in input order."""
    got = []
    for args in inputs:
        out = outcome(route, *args)
        assert out == outcome(reference, *args), (route.__name__, args)
        got.append(out)
    return got


# === Random automata =============================================================

def random_bta(rng: random.Random, alphabet: RankedAlphabet = AB, max_states: int = 4) -> Bta:
    """A random BTA: every cell of delta gets an independent random target set."""
    n = rng.randint(1, max_states)
    states = [f"q{i}" for i in range(n)]
    delta: dict[tuple[str, tuple[str, ...]], set[str]] = {}
    for sym in alphabet.symbols:
        k = alphabet.arity(sym)
        for args in itertools.product(states, repeat=k):
            targets = {q for q in states if rng.random() < 0.35}
            if targets:
                delta[(sym, args)] = targets
    final = {q for q in states if rng.random() < 0.4}
    return Bta(alphabet, states, delta, final)


def random_dtta(rng: random.Random, alphabet: RankedAlphabet = AB, max_states: int = 4) -> Tta:
    """A random deterministic TTA: one initial state, at most one production
    per state and symbol."""
    return Tta(*random_dtta_parts(rng, alphabet, max_states))


def random_dtta_parts(
    rng: random.Random, alphabet: RankedAlphabet = AB, max_states: int = 4
) -> tuple[RankedAlphabet, list[str], dict[str, set[tuple[str, tuple[str, ...]]]], set[str]]:
    """The arguments random_dtta passes to Tta: alphabet, states, productions
    by state, and initial states."""
    n = rng.randint(1, max_states)
    states = [f"p{i}" for i in range(n)]
    delta: dict[str, set[tuple[str, tuple[str, ...]]]] = {}
    for q in states:
        prods = set()
        for sym in alphabet.symbols:
            if rng.random() < 0.55:
                k = alphabet.arity(sym)
                prods.add((sym, tuple(rng.choice(states) for _ in range(k))))
        if prods:
            delta[q] = prods
    return alphabet, states, delta, {rng.choice(states)}


def random_path_closed_bta(rng: random.Random, alphabet: RankedAlphabet = AB, max_states: int = 4) -> Bta:
    """A random trimmed BTA with a path-closed language: the reverse of a
    deterministic TTA, with unreachable states dropped."""
    return trim_unreachable(reverse_tta(random_dtta(rng, alphabet, max_states)))


def random_codbta(rng: random.Random, alphabet: RankedAlphabet = AB, max_states: int = 4) -> Bta:
    """A random co-deterministic BTA without empty states: the reverse of a
    deterministic TTA, with empty states dropped."""
    return trim_empty(reverse_tta(random_dtta(rng, alphabet, max_states)))


def random_monadic_bta(rng: random.Random, max_states: int = 4) -> Bta:
    return random_bta(rng, MONO, max_states)


def seeded_draws(count: int) -> list[Bta]:
    """count seeded automata, cycling over AB, ABG, BOOL, MONO and the
    arity-3 TERN: dense random BTAs, alternating with reversed random DTTAs,
    which are sparse and often have unreachable states."""
    draws = []
    for seed in range(count):
        rng = random.Random(seed)
        alphabet = (AB, ABG, BOOL, MONO, TERN)[seed % 5]
        max_states = 3 if alphabet is TERN else 4
        if seed % 2:
            draws.append(reverse_tta(random_dtta(rng, alphabet, max_states + 1)))
        else:
            draws.append(random_bta(rng, alphabet, max_states))
    return draws


def corpus_draw(alphabet: str, n: int, seed: int) -> Bta:
    """The benchmark corpus's random_nbta draw with n states over its
    alphabet of that name, from random.Random(seed).  perfbench/corpus.py
    imports nothing of treeca, so it is loaded from its file."""
    path = FIXTURES.parent / "perfbench" / "corpus.py"
    spec = importlib.util.spec_from_file_location("corpus", path)
    corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    draw = corpus.random_nbta(random.Random(seed), getattr(corpus, alphabet), n)
    return parse_automaton(draw.text())


def random_tree(rng: random.Random, alphabet: RankedAlphabet, max_height: int) -> Tree:
    """A random well-ranked tree of height <= max_height."""
    if max_height <= 1:
        return Tree(rng.choice(alphabet.nullary))
    sym = rng.choice(alphabet.symbols)
    kids = [random_tree(rng, alphabet, max_height - 1) for _ in range(alphabet.arity(sym))]
    return Tree(sym, kids)


def random_context(rng: random.Random, alphabet: RankedAlphabet, max_height: int) -> Tree:
    """A random tree of height <= max_height with one random node punctured."""
    t = random_tree(rng, alphabet, max_height)
    addr, _ = rng.choice(list(iter_nodes(t)))
    return puncture(t, addr)


def random_sized_tree(rng: random.Random, alphabet: RankedAlphabet, size: int) -> Tree:
    """A random well-ranked tree of about size nodes, built without recursion.

    Each inner node splits the rest of its share among its children at
    random cuts, and a branching symbol is drawn while a share exceeds 2, so
    over a branching alphabet the depth grows with the log of size.  The
    labels are drawn in preorder and the tree is built from the last one.
    """
    inner = [s for s in alphabet.symbols if alphabet.arity(s)]
    branching = [s for s in inner if alphabet.arity(s) > 1] or inner
    labels: list[str] = []
    shares = [size]
    while shares:
        share = shares.pop()
        if share <= 1:
            labels.append(rng.choice(alphabet.nullary))
            continue
        sym = rng.choice(branching if share > 2 else inner)
        k, rest = alphabet.arity(sym), share - 1
        cuts = sorted(rng.randint(0, rest) for _ in range(k - 1))
        shares += reversed([max(b - a, 1) for a, b in zip([0, *cuts], [*cuts, rest])])
        labels.append(sym)
    built: list[Tree] = []  # the subtrees after the current label, the next one last
    for sym in reversed(labels):
        built.append(Tree(sym, [built.pop() for _ in range(alphabet.arity(sym))]))
    return built[0]


# === Hand-built automata and variations used by several suites ===================

def split_state_bta() -> Bta:
    """A boolean evaluator with the true state split in two: T() lands in q1a,
    every true compound lands in q1b.  Language-equivalent to bool2, but the
    downward language of q1a ({T}) is not a union of minimal-DBTA classes."""
    states = ("q0", "q1a", "q1b")
    delta: dict[tuple[str, tuple[str, ...]], set[str]] = {
        ("T", ()): {"q1a"},
        ("F", ()): {"q0"},
    }
    for sym in ("and", "or"):
        for left, right in itertools.product(states, repeat=2):
            lv, rv = left != "q0", right != "q0"
            value = (lv and rv) if sym == "and" else (lv or rv)
            delta[(sym, (left, right))] = {"q1b" if value else "q0"}
    return Bta(BOOL, states, delta, {"q1a", "q1b"})


def representative_trap_bta() -> Bta:
    """A 6-state DBTA on which block splitting that probes only block
    representatives reaches the wrong fixpoint.

    The only cell separating s1 from s2 is the second argument qb, which is
    never the lexicographically least member of its block, so a
    representative-only refinement would merge s1 and s2 and change the
    language.  f(f(a,a),b) is accepted, f(f(a,b),b) is not.
    """
    states = ("dead", "qa", "qb", "qt", "s1", "s2")
    delta: dict[tuple[str, tuple[str, ...]], set[str]] = {
        ("a", ()): {"qa"},
        ("b", ()): {"qb"},
        ("f", ("qa", "qa")): {"s1"},
        ("f", ("qa", "qb")): {"s2"},
        ("f", ("s1", "qb")): {"qt"},
    }
    for left, right in itertools.product(states, repeat=2):
        delta.setdefault(("f", (left, right)), {"dead"})
    return Bta(AB, states, delta, {"qt"})


def accept_all_bta(alphabet: RankedAlphabet = AB) -> Bta:
    """One state, every rule present, final: accepts every well-ranked tree."""
    delta = {
        (sym, ("u",) * alphabet.arity(sym)): {"u"} for sym in alphabet.symbols
    }
    return Bta(alphabet, {"u"}, delta, {"u"})


def drop_one_rule(a: Bta) -> Bta:
    """a without its least rule; a itself when it has none."""
    if not a.delta:
        return a
    dropped = min(a.delta)
    delta = {key: targets for key, targets in a.delta.items() if key != dropped}
    return Bta(a.alphabet, a.states, delta, a.final)


def drop_every_fifth_rule(a: Bta) -> Bta:
    """a without every fifth of its rules in sorted order."""
    kept = {key: a.delta[key] for i, key in enumerate(sorted(a.delta)) if i % 5 != 2}
    return Bta(a.alphabet, a.states, kept, a.final)


def add_unreachable_state(d: Bta) -> Bta:
    """d, total, with one more state that only the rules taking it as an
    argument reach: still total, no longer fully reachable."""
    u = "unreached"
    states = sorted(d.states | {u})
    delta = dict(d.delta)
    for sym in d.alphabet.symbols:
        for args in itertools.product(states, repeat=d.alphabet.arity(sym)):
            if u in args:
                delta[(sym, args)] = {u}
    return Bta(d.alphabet, states, delta, d.final)


def view_inputs() -> list[Bta]:
    """seeded_draws(250), their determinizations and minimizations (whose
    names nest braces), copies with rules dropped so completion adds a sink,
    total copies with an unreachable state holding their view, and the
    zero-state and rule-free automata."""
    out = [Bta(AB, [], {}, []), Bta(ABG, ["p", "q"], {}, ["q"]), Bta(TERN, ["p"], {}, [])]
    for a in seeded_draws(250):
        d, m = determinize(a), minimize_bta(a)
        unreached = add_unreachable_state(d)
        assert unreached.numbered.total
        out += [a, d, drop_one_rule(d), drop_every_fifth_rule(d), m, drop_every_fifth_rule(m),
                unreached]
    return out


def regular_bta(rng: random.Random, n: int) -> Bta:
    """n states over a/0 g/1: a reaches every state, g takes each state to
    two states, and each state is the target of two g rules.  Every state has
    the same finality, argument occurrences and productions per symbol, and
    no rule has a single target, so an isomorphism search must branch on
    every state and often backtrack."""
    states = [f"q{i}" for i in range(n)]
    first, second = rng.sample(range(n), n), rng.sample(range(n), n)
    while any(i == j for i, j in zip(first, second)):
        second = rng.sample(range(n), n)
    delta = {("a", ()): set(states)}
    for q, i, j in zip(states, first, second):
        delta[("g", (q,))] = {states[i], states[j]}
    return Bta(RankedAlphabet({"a": 0, "g": 1}), states, delta, ())


def cycles_bta(lengths: list[int]) -> Bta:
    """Disjoint g-cycles of the given lengths over a/0 g/1, with no a rule and
    no final state: every state has the same profile, every rule a single
    target, and a cycle maps onto any cycle whose length divides its own."""
    states, delta = [], {}
    for n in lengths:
        cycle = [f"c{len(states) + i}" for i in range(n)]
        states += cycle
        for i, q in enumerate(cycle):
            delta[("g", (q,))] = {cycle[(i + 1) % n]}
    return Bta(RankedAlphabet({"a": 0, "g": 1}), states, delta, ())


def counter_pair(n: int) -> tuple[Bta, Bta]:
    """Two total deterministic automata over ABG that both accept every
    tree: the first counts a-leaves mod n, the second g-nodes mod n.  The
    product walk meets all n*n pairs of their states before it can tell
    they agree."""
    c = [f"c{i}" for i in range(n)]
    by_leaves = {("a", ()): {c[1 % n]}, ("b", ()): {c[0]}, **{("g", (q,)): {q} for q in c}}
    by_nodes = {("a", ()): {c[0]}, ("b", ()): {c[0]}, **{("g", (c[i],)): {c[(i + 1) % n]} for i in range(n)}}
    for delta in (by_leaves, by_nodes):
        delta.update({("f", (c[i], c[j])): {c[(i + j) % n]} for i in range(n) for j in range(n)})
    return Bta(ABG, c, by_leaves, c), Bta(ABG, c, by_nodes, c)


def swap_two_targets(a: Bta) -> Bta:
    """a with the target sets of its two least rules of one symbol that differ
    swapped; a itself when no symbol has two such rules.  Every state keeps
    its finality, argument occurrences and number of productions per symbol."""
    for k1, k2 in itertools.combinations(sorted(a.delta), 2):
        if k1[0] == k2[0] and a.delta[k1] != a.delta[k2]:
            delta = {**a.delta, k1: a.delta[k2], k2: a.delta[k1]}
            return Bta(a.alphabet, a.states, delta, a.final)
    return a


# === Independent oracles ==========================================================

def post_by_products(
    a: Bta, t: Tree, s: frozenset[str] | None = None, hole: str | None = None
) -> frozenset[str]:
    """The states a run of a reaches at the root of t, every node evaluated
    by the full product of its children's sets: no step table, no memo.

    Leaves take their nullary targets inside s (all states if None); the hole
    is pinned to {hole} when hole is given.  The nodes are evaluated in
    postorder off an explicit stack.  A misranked input raises the library's
    NotWellRankedError for the first misranked node in reverse breadth-first
    order, the order the library's run reaches them.
    """
    keep = a.states if s is None else s
    leaves = {sym: a.delta.get((sym, ()), EMPTY) & keep for sym in a.alphabet.nullary}
    if hole is not None:
        leaves[HOLE] = frozenset({hole})
    arities = a.alphabet.entries
    level = [t]
    for u in level:
        level += u.children
    for u in reversed(level):
        k = len(u.children)
        if (arities.get(u.label) != k) if k else (u.label not in leaves):
            what = "context" if hole is not None else "tree"
            raise NotWellRankedError(f"{what} is not well ranked at symbol {u.label!r}")
    done: list[frozenset[str]] = []  # the sets of finished subtrees, the latest last
    stack: list[tuple[Tree, bool]] = [(t, False)]
    while stack:
        u, expanded = stack.pop()
        k = len(u.children)
        if not k:
            done.append(leaves[u.label])
        elif not expanded:
            stack.append((u, True))
            stack += ((c, False) for c in reversed(u.children))
        else:
            args = done[-k:]
            del done[-k:]
            acc: set[str] = set()
            for combo in itertools.product(*args):
                acc |= a.delta.get((u.label, combo), EMPTY)
            done.append(frozenset(acc))
    return done[0]


def pre_by_definition(a: Bta, x: Tree, s: frozenset[str]) -> frozenset[str]:
    """pre written out from its definition over the named rules: trim, give
    up when no run of x with its hole seeded to one state reaches s
    (post_by_products), else fold the spine keeping the argument at the
    spine position of every rule whose targets meet the running set."""
    a = trim_unreachable(a)
    s &= a.states
    if not any(post_by_products(a, x, hole=q) & s for q in a.states):
        return frozenset()
    r = s
    for sym, i in spine_of(x):
        r = frozenset(
            args[i - 1] for (f, args), targets in a.delta.items() if f == sym and targets & r
        )
    return r


def holes_by_preorder(t: Tree) -> tuple[int, Tree | None, tuple[int, ...]]:
    """How many hole nodes iter_nodes meets in t, and the last of them with
    its address (None and () when there is none)."""
    holes = [(addr, node) for addr, node in iter_nodes(t) if node.label == HOLE]
    addr, node = holes[-1] if holes else ((), None)
    return len(holes), node, addr


def run_tta_directly(t: Tta, tree: Tree) -> bool:
    """Top-down acceptance decided by the textbook run, without reversing:
    guess a state for every node starting from an initial state, such that
    every node's production is in delta."""

    def derives(q: str, node: Tree) -> bool:
        prods = t.delta.get(q, frozenset())
        if not node.children:
            return (node.label, ()) in prods
        return any(
            all(derives(p, child) for p, child in zip(args, node.children))
            for sym, args in prods
            if sym == node.label and len(args) == len(node.children)
        )

    return any(derives(q0, tree) for q0 in t.initial)


def path_language_upto(a: Bta, max_height: int) -> frozenset[tuple]:
    """All root-to-leaf paths of trees of height <= max_height accepted by a,
    computed by dynamic programming on (state, height) instead of tree
    enumeration.

    paths[q][h] collects the paths of trees of height <= h that can evaluate
    to q; a path survives a rule only if every sibling position is realizable
    within the height bound.
    """
    realizable: dict[int, set[str]] = {0: set()}
    paths: dict[int, dict[str, set[tuple]]] = {0: {q: set() for q in a.states}}
    for h in range(1, max_height + 1):
        real_h = set(realizable[h - 1])
        paths_h = {q: set(ps) for q, ps in paths[h - 1].items()}
        for (sym, args), targets in a.delta.items():
            if not args:
                real_h |= targets
                for q in targets:
                    paths_h[q].add((sym,))
                continue
            if all(p in realizable[h - 1] for p in args):
                real_h |= targets
            for i, p in enumerate(args, start=1):
                if all(r in realizable[h - 1] for j, r in enumerate(args, start=1) if j != i):
                    ext = {(sym, i) + tail for tail in paths[h - 1][p]}
                    for q in targets:
                        paths_h[q] |= ext
        realizable[h] = real_h
        paths[h] = paths_h
    out: set[tuple] = set()
    for q in a.final:
        out |= paths[max_height][q]
    return frozenset(out)


# === Literal definitions ==========================================================
# One reference per construction, written from its definition and not through
# the library route it checks; the README's Testing section names the test
# that compares each route with its reference.

def productions_by_copy(a: Bta) -> dict[str, frozenset[tuple[str, tuple[str, ...]]]]:
    """The rules of a read top-down, copied rule by rule: each state with
    productions maps to the (symbol, arguments) pairs of the rules that
    target it."""
    delta: dict[str, set[tuple[str, tuple[str, ...]]]] = {}
    for (sym, args), targets in a.delta.items():
        for q in targets:
            delta.setdefault(q, set()).add((sym, args))
    return {q: frozenset(prods) for q, prods in delta.items()}


def reverse_bta_by_copy(a: Bta) -> Tta:
    """Reversal as a copy: a new Tta built from the copied productions."""
    return Tta(a.alphabet, a.states, productions_by_copy(a), a.final)


def rules_by_copy(
    alphabet: RankedAlphabet,
    states,
    delta: dict[str, set[tuple[str, tuple[str, ...]]]],
    initial,
) -> Bta:
    """Productions read bottom-up, copied one by one into a new Bta whose
    final states are the initial states."""
    rules: dict[tuple[str, tuple[str, ...]], set[str]] = {}
    for q, prods in delta.items():
        for sym, args in prods:
            rules.setdefault((sym, tuple(args)), set()).add(q)
    return Bta(alphabet, states, rules, initial)


def reverse_tta_by_copy(t: Tta) -> Bta:
    """Reversal as a copy: a new Bta built from the productions of t."""
    return rules_by_copy(t.alphabet, t.states, t.delta, t.initial)


def useful_by_fixpoint(a: Bta) -> frozenset[str]:
    """Useful states as the least fixpoint: rescan every rule until no rule
    with a useful target makes an argument useful whose siblings are all
    reachable."""
    reach = reachable_by_fixpoint(a)
    useful: set[str] = set(a.final)
    changed = True
    while changed:
        changed = False
        for (sym, args), targets in a.delta.items():
            if not targets & useful:
                continue
            for i, q in enumerate(args):
                if q in useful:
                    continue
                if all(p in reach for j, p in enumerate(args) if j != i):
                    useful.add(q)
                    changed = True
    return frozenset(useful)


def reachable_by_fixpoint(a: Bta) -> frozenset[str]:
    """Reachable states as the least fixpoint: rescan every rule until no
    rule whose arguments are all reachable adds a target."""
    reach: set[str] = set()
    changed = True
    while changed:
        changed = False
        for (sym, args), targets in a.delta.items():
            if all(q in reach for q in args) and not targets <= reach:
                reach |= targets
                changed = True
    return frozenset(reach)


def restrict_by_rebuild(a: Bta, keep: frozenset[str]) -> Bta:
    """A new automaton over the states of keep, with the rules and final
    states among them."""
    delta = {
        (sym, args): targets & keep
        for (sym, args), targets in a.delta.items()
        if keep.issuperset(args)
    }
    return Bta(a.alphabet, keep, delta, a.final & keep)


def is_total_by_product(a: Bta) -> bool:
    """Totality as defined: every symbol has a rule for every argument tuple
    over the states."""
    return all(
        (sym, args) in a.delta
        for sym in a.alphabet.symbols
        for args in itertools.product(sorted(a.states), repeat=a.alphabet.arity(sym))
    )


def gen_det_u_by_isomorphism(a: Bta) -> bool:
    """The generalized upward condition as defined: the determinization is
    isomorphic to its minimization."""
    det = determinize(a)
    return isomorphic(det, minimize_dbta(det))


def gen_det_d_by_isomorphism(a: Bta) -> bool:
    """The generalized downward condition as defined: the co-determinization
    of the trimmed automaton is isomorphic to the co-determinization of its
    determinization.  Only defined for path-closed languages, i.e. when the
    co-determinization accepts the same language."""
    a1 = trim_unreachable(a)
    c = codeterminize(a1, pretrim=False)
    if not equivalent(a1, c):
        raise NotPathClosedError(
            "the downward determinization check requires a path-closed language"
        )
    return isomorphic(c, codeterminize(determinize(a1), pretrim=False))


def fresh_tuples_by_filter(lo: int, hi: int, k: int) -> list[tuple[int, ...]]:
    """The k-tuples over range(hi) with an entry >= lo, in lexicographic
    order, by definition: the argument tuples a breadth-first construction
    has not combined before when its items lo..hi-1 are the new ones.  Empty
    for k = 0."""
    return [c for c in itertools.product(range(hi), repeat=k) if k and max(c) >= lo]


def separating_tree_by_determinization(
    a: Bta, b: Bta, budget: int = DEFAULT_STATE_BUDGET
) -> Tree | None:
    """The product walk over named tables: determinize a and b in full, then
    walk the pairs of their states breadth-first, one height at a time, and
    return the tree that first reaches a pair disagreeing on acceptance."""
    da, db = determinize(a, budget=budget), determinize(b, budget=budget)

    def target(d: Bta, sym: str, args: tuple[str, ...]) -> str:
        return next(iter(d.delta[(sym, args)]))

    explored: list[tuple[str, str, Tree]] = []
    seen: set[tuple[str, str]] = set()
    fresh: list[tuple[str, str, Tree]] = []
    for sym in da.alphabet.nullary:
        pa, pb = target(da, sym, ()), target(db, sym, ())
        if (pa, pb) not in seen:
            seen.add((pa, pb))
            fresh.append((pa, pb, Tree(sym)))
    while fresh:
        for pa, pb, wit in fresh:
            if (pa in da.final) != (pb in db.final):
                return wit
        lo = len(explored)
        explored.extend(fresh)
        nxt: list[tuple[str, str, Tree]] = []
        for sym in da.alphabet.symbols:
            for combo in fresh_tuples_by_filter(lo, len(explored), da.alphabet.arity(sym)):
                entries = [explored[i] for i in combo]
                pa = target(da, sym, tuple(e[0] for e in entries))
                pb = target(db, sym, tuple(e[1] for e in entries))
                if (pa, pb) not in seen:
                    seen.add((pa, pb))
                    nxt.append((pa, pb, Tree(sym, tuple(e[2] for e in entries))))
        fresh = nxt
    return None


def _step_by_members(s: _Subsets, sym: str, combo: tuple[int, ...]) -> int:
    """The subset a non-nullary sym reaches in s from the subsets of combo:
    the targets of sym's named rules over every tuple of their members,
    interned into s."""
    targets: set[str] = set()
    for args in itertools.product(*(sorted(s.subset(i)) for i in combo)):
        targets |= s.a.delta.get((sym, args), EMPTY)
    return s.pool.intern(sum(1 << s.states.index(q) for q in targets))


def product_walk_by_steps(sa: _Subsets, sb: _Subsets) -> Tree | None:
    """The product walk one transition at a time: the pairs of subsets that
    trees reach in both sides, breadth-first over fresh_tuples_by_filter, each
    pair holding the tree that first reached it; the first pair whose
    subsets disagree on meeting the final states gives the tree.  Each
    argument tuple steps both sides once (_step_by_members), so each side
    interns its subsets in the order the tuples are listed."""
    alphabet = sa.a.alphabet
    explored: list[tuple[int, int, Tree]] = []
    seen: set[tuple[int, int]] = set()
    fresh: list[tuple[int, int, Tree]] = []
    for sym in alphabet.nullary:
        pa, pb = sa.leaves[sym], sb.leaves[sym]
        if (pa, pb) not in seen:
            seen.add((pa, pb))
            fresh.append((pa, pb, Tree(sym)))
    while fresh:
        for pa, pb, wit in fresh:
            if sa.subset(pa).isdisjoint(sa.a.final) != sb.subset(pb).isdisjoint(sb.a.final):
                return wit
        lo = len(explored)
        explored.extend(fresh)
        nxt: list[tuple[int, int, Tree]] = []
        for sym in alphabet.symbols:
            for combo in fresh_tuples_by_filter(lo, len(explored), alphabet.arity(sym)):
                entries = [explored[i] for i in combo]
                pa = _step_by_members(sa, sym, tuple(e[0] for e in entries))
                pb = _step_by_members(sb, sym, tuple(e[1] for e in entries))
                if (pa, pb) not in seen:
                    seen.add((pa, pb))
                    nxt.append((pa, pb, Tree(sym, tuple(e[2] for e in entries))))
        fresh = nxt
    return None


def path_closed_by_determinization(a: Bta, budget: int = DEFAULT_STATE_BUDGET) -> bool:
    """Path-closedness over named tables: the trimmed automaton and its
    co-determinization, both determinized in full, have no separating tree."""
    a1 = trim_unreachable(a)
    c = codeterminize(a1, pretrim=False, budget=budget)
    return separating_tree_by_determinization(a1, c, budget) is None


def _signatures_by_occurrence(a: Bta) -> dict[str, tuple]:
    occ: dict[str, Counter] = {q: Counter() for q in a.states}
    for (sym, args), targets in a.delta.items():
        for i, q in enumerate(args):
            occ[q][("arg", sym, i, len(targets))] += 1
        for q in targets:
            occ[q][("target", sym)] += 1
    return {
        q: (q in a.final, tuple(sorted(occ[q].items()))) for q in a.states
    }


def _mapped_rules_consistent(a: Bta, b: Bta, mapping: dict[str, str]) -> bool:
    for (sym, args), targets in a.delta.items():
        if not all(q in mapping for q in args):
            continue
        image = b.delta.get((sym, tuple(mapping[q] for q in args)))
        if image is None or len(image) != len(targets):
            return False
        if any(mapping[q] not in image for q in targets if q in mapping):
            return False
    return True


def isomorphic_by_search(a: Bta, b: Bta) -> bool:
    """Isomorphism as defined: some one-to-one renaming of the states of a
    turns it into b, over the same alphabet.  A recursive backtracking search
    maps the states in sorted order, each onto an unused state of b with the
    same local signature, and prunes a mapping as soon as a rule whose
    arguments are all mapped has no image of the same size in b."""
    if a.alphabet != b.alphabet or len(a.states) != len(b.states) or len(a.delta) != len(b.delta):
        return False
    siga = _signatures_by_occurrence(a)
    sigb = _signatures_by_occurrence(b)
    if Counter(siga.values()) != Counter(sigb.values()):
        return False
    order = sorted(a.states)
    candidates = {
        q: sorted(p for p in b.states if sigb[p] == siga[q]) for q in order
    }
    mapping: dict[str, str] = {}
    used: set[str] = set()

    def extend(idx: int) -> bool:
        if idx == len(order):
            renamed = {
                (sym, tuple(mapping[q] for q in args)): frozenset(
                    mapping[q] for q in targets
                )
                for (sym, args), targets in a.delta.items()
            }
            return renamed == b.delta
        q = order[idx]
        for p in candidates[q]:
            if p in used:
                continue
            mapping[q] = p
            used.add(p)
            if _mapped_rules_consistent(a, b, mapping) and extend(idx + 1):
                return True
            del mapping[q]
            used.discard(p)
        return False

    return extend(0)


class NamedSubsetPool:
    """Subsets of state names in discovery order, keyed by their frozensets
    and capped by a budget, with the library pool's two BudgetError
    messages: the reference interner for the subset constructions here."""

    def __init__(self, budget: int):
        if budget < 1:
            raise BudgetError("budget must be positive")
        self.order: list[frozenset[str]] = []
        self.index: dict[frozenset[str], int] = {}
        self.budget = budget

    def intern(self, members: frozenset[str]) -> int:
        if members not in self.index:
            if len(self.order) >= self.budget:
                raise BudgetError(
                    f"subset construction exceeded the budget of {self.budget} states")
            self.index[members] = len(self.order)
            self.order.append(members)
        return self.index[members]


def subset_construction_by_product(
    a: Bta, budget: int
) -> tuple[Bta, dict[str, frozenset[str]]]:
    """The subset construction as defined: the image of an argument tuple of
    subsets is the union of delta over every tuple of their members.  Subsets
    are numbered in discovery order (nullary images, then level by level:
    per symbol, the argument tuples over the subsets so far that hold one
    numbered on the level before, in lexicographic order) and the budget
    caps how many may be numbered."""
    pool = NamedSubsetPool(budget)
    order, intern = pool.order, pool.intern

    raw: dict[tuple[str, tuple[int, ...]], int] = {}
    for sym in a.alphabet.nullary:
        raw[(sym, ())] = intern(frozenset(a.delta.get((sym, ()), ())))
    lo = 0
    while lo < len(order):
        hi = len(order)
        for sym in a.alphabet.symbols:
            k = a.alphabet.arity(sym)
            for combo in itertools.product(range(hi), repeat=k):
                if not k or max(combo) < lo:
                    continue
                acc: set[str] = set()
                for members in itertools.product(*(sorted(order[i]) for i in combo)):
                    acc |= a.delta.get((sym, members), set())
                raw[(sym, combo)] = intern(frozenset(acc))
        lo = hi
    names = [subset_name(s) for s in order]
    delta = {
        (sym, tuple(names[i] for i in combo)): {names[target]}
        for (sym, combo), target in raw.items()
    }
    final = {names[i] for i, s in enumerate(order) if s & a.final}
    return Bta(a.alphabet, names, delta, final), dict(zip(names, order))


def refine_by_products(c: Bta) -> tuple[frozenset[str], ...]:
    """Moore refinement of a complete deterministic automaton as defined: a
    state's signature is its block and, for every symbol, position and
    combination of states at the other positions, the block of the target."""
    states = sorted(c.states)
    block = {q: int(q in c.final) for q in states}
    nblocks = len(set(block.values()))
    while True:
        sigs = {}
        for q in states:
            sig = [block[q]]
            for sym in c.alphabet.symbols:
                k = c.alphabet.arity(sym)
                for i in range(k):
                    for others in itertools.product(states, repeat=k - 1):
                        args = others[:i] + (q,) + others[i:]
                        sig.append(block[next(iter(c.delta[(sym, args)]))])
            sigs[q] = tuple(sig)
        fresh: dict[tuple, int] = {}
        block = {q: fresh.setdefault(sigs[q], len(fresh)) for q in states}
        if len(fresh) == nblocks:
            break
        nblocks = len(fresh)
    members: dict[int, set[str]] = {}
    for q, b in block.items():
        members.setdefault(b, set()).add(q)
    return tuple(sorted((frozenset(m) for m in members.values()), key=sorted))


def tta_determinize_direct(t: Tta, *, budget: int = DEFAULT_STATE_BUDGET) -> Tta:
    """Determinize a top-down automaton by a direct downward subset construction.

    Subsets are discovered from the set of initial states; for a subset R and
    symbol f, position i collects the i-th argument of every f-production of a
    member of R.  States whose downward language is empty are removed first,
    and states whose upward language is empty are removed afterwards, matching
    the cleanup done by the reversal route.
    """
    t0 = reverse_bta(trim_unreachable(reverse_tta(t)))
    pool = NamedSubsetPool(budget)
    pool.intern(t0.initial)
    prods_out: list[tuple[int, str, tuple[int, ...]]] = []
    i = 0
    while i < len(pool.order):
        for sym in t0.alphabet.symbols:
            tuples = {
                args for q in pool.order[i] for f, args in t0.delta.get(q, EMPTY) if f == sym
            }
            if tuples:
                combo = tuple(
                    pool.intern(frozenset(t2[j] for t2 in tuples))
                    for j in range(t0.alphabet.arity(sym))
                )
                prods_out.append((i, sym, combo))
        i += 1
    names = [subset_name(s) for s in pool.order]
    delta: dict[str, set[tuple[str, tuple[str, ...]]]] = {}
    for src, sym, combo in prods_out:
        delta.setdefault(names[src], set()).add(
            (sym, tuple(names[j] for j in combo))
        )
    built = Tta(t0.alphabet, names, delta, {names[0]})
    return reverse_bta(trim_empty(reverse_tta(built)))


def _classes_by_key(items, key) -> tuple[tuple[Tree, ...], ...]:
    """items grouped by equal key, members in item order, the groups ordered
    by their first member."""
    groups: dict = {}
    for item in items:
        groups.setdefault(key(item), []).append(item)
    return tuple(sorted((tuple(g) for g in groups.values()), key=lambda g: g[0]))


def nerode_classes_up_by_plugging(
    a: Bta, tree_height: int, context_height: int, *, budget: int = DEFAULT_ENUM_BUDGET
) -> tuple[tuple[Tree, ...], ...]:
    """Trees grouped by their accept vector over the contexts: each tree is
    plugged into each context and the result run."""
    trees = enumerate_trees(a.alphabet, tree_height, budget)
    contexts = enumerate_contexts(a.alphabet, context_height, budget)
    pivots = [(x, pivot(x)) for x in contexts]
    return _classes_by_key(
        trees, lambda t: tuple(accepts(a, substitute(x, at, t)) for x, at in pivots))


def nerode_classes_down_by_plugging(
    a: Bta, context_height: int, tree_height: int, *, budget: int = DEFAULT_ENUM_BUDGET
) -> tuple[tuple[Tree, ...], ...]:
    """Contexts grouped by their accept vector over the trees: each tree is
    plugged into each context and the result run."""
    contexts = enumerate_contexts(a.alphabet, context_height, budget)
    trees = enumerate_trees(a.alphabet, tree_height, budget)

    def bits(x: Tree) -> tuple[bool, ...]:
        at = pivot(x)
        return tuple(accepts(a, substitute(x, at, t)) for t in trees)

    return _classes_by_key(contexts, bits)


# === The file writer ============================================================

def serialize_by_sorting(a: Bta | Tta) -> str:
    """The canonical file text of a, written by listing every named rule and
    sorting the list: the reference for serialize_automaton, which writes a
    total numbered view in order without a sort."""
    bottom_up = isinstance(a, Bta)
    b = a if bottom_up else reverse_tta(a)
    out = [
        "bta" if bottom_up else "tta",
        "alphabet " + " ".join(f"{n}/{b.alphabet.arity(n)}" for n in b.alphabet.symbols),
        ("states " + " ".join(sorted(b.states))).rstrip(),
        (("final " if bottom_up else "initial ") + " ".join(sorted(b.final))).rstrip(),
    ]
    rules = [(sym, args, q) for (sym, args), targets in b.delta.items() for q in targets]
    if bottom_up:
        out += [f"{sym}({','.join(args)}) -> {q}" for sym, args, q in sorted(rules)]
    else:
        rules.sort(key=lambda r: (r[2], r[0], r[1]))
        out += [f"{q} -> {sym}({','.join(args)})" for sym, args, q in rules]
    return "\n".join(out) + "\n"


# === Merging and canonical renaming on state names ================================
# The merge along refine_by_products and the canonical renaming, written on
# state names: the references for the routes that read Bta.numbered and the
# subset construction's numbered tables.

def merge_classes_by_names(c: Bta) -> Bta:
    """c merged along its coarsest congruence, classes named after their
    members.  c must be deterministic, total and fully reachable, as every
    determinization is."""
    name_of = {q: subset_name(block) for block in refine_by_products(c) for q in block}
    named = {q: frozenset((name,)) for q, name in name_of.items()}
    # Rules whose arguments merge blockwise have targets in one block.
    delta = {
        (sym, tuple(map(name_of.__getitem__, args))): named[next(iter(targets))]
        for (sym, args), targets in c.delta.items()
    }
    final = frozenset(name_of[q] for q in c.final)
    return Bta._of(c.alphabet, frozenset(name_of.values()), delta, final)


def canonical_form_by_names(d: Bta) -> Bta:
    """Rename the reachable part of a deterministic automaton to "0".."n-1".

    States are numbered by a breadth-first walk that takes nullary symbols in
    sorted order and then, layer by layer, every symbol in sorted order with
    argument tuples in lexicographic index order; a repeat keeps its first
    number.  The walk only sees reachable states, so unreachable ones are
    dropped.  Two deterministic, fully reachable automata are isomorphic iff
    their canonical forms are equal.
    """
    if not is_deterministic(d):
        raise NotDeterministicError("canonical_form requires a deterministic automaton")
    delta = d.delta
    arities = [(sym, d.alphabet.arity(sym)) for sym in d.alphabet.symbols]
    found = [q for sym in d.alphabet.nullary for q in delta.get((sym, ()), ())]
    order: list[str] = []
    names: dict[str, str] = {}
    m = 0
    while True:
        for q in found:
            if q not in names:
                names[q] = str(len(order))
                order.append(q)
        if m == len(order):
            break
        # The rules with the m-th state as an argument and only earlier ones besides.
        found = [
            q
            for sym, k in arities
            for combo in fresh_tuples_by_filter(m, m + 1, k)
            for q in delta.get((sym, tuple(map(order.__getitem__, combo))), ())
        ]
        m += 1
    renamed = {
        (sym, tuple(map(names.__getitem__, args))): frozenset(map(names.__getitem__, targets))
        for (sym, args), targets in delta.items()
        if all(q in names for q in args)
    }
    final = frozenset(names[q] for q in d.final if q in names)
    return Bta._of(d.alphabet, frozenset(names.values()), renamed, final)


def complete_by_name(a: Bta) -> Bta:
    """Completion as defined, on state names: a itself when it is total, by
    counting its keys; otherwise a with a sink "__dead" (or the first free
    "__dead_<i>") that every missing symbol and argument tuple goes to."""
    if not all(len(targets) <= 1 for targets in a.delta.values()):
        raise NotDeterministicError("complete requires a deterministic automaton")
    n = len(a.states)
    if len(a.delta) == sum(n ** a.alphabet.arity(sym) for sym in a.alphabet.symbols):
        return a
    name, i = "__dead", 0
    while name in a.states:
        i += 1
        name = f"__dead_{i}"
    sink = frozenset((name,))
    extended = a.states | sink
    delta = dict(a.delta)
    for sym in a.alphabet.symbols:
        for args in itertools.product(sorted(extended), repeat=a.alphabet.arity(sym)):
            delta.setdefault((sym, args), sink)
    return Bta._of(a.alphabet, extended, delta, a.final)


def minimize_dbta_by_names(d: Bta) -> Bta:
    if not is_deterministic(d):
        raise NotDeterministicError("minimize_dbta requires a deterministic automaton")
    return merge_classes_by_names(trim_unreachable(complete_by_name(d)))


def minimize_bta_by_names(a: Bta, budget: int = DEFAULT_STATE_BUDGET) -> Bta:
    return merge_classes_by_names(determinize(a, budget=budget))


def gen_det_u_witness_by_names(
    a: Bta, budget: int = DEFAULT_STATE_BUDGET
) -> tuple[str, str, frozenset[str], frozenset[str]] | None:
    det, members = subset_construction(a, budget=budget)
    merged = [block for block in refine_by_products(det) if len(block) > 1]
    if not merged:
        return None
    block = min(merged, key=subset_name)
    s1_name, s2_name = sorted(block)[:2]
    s1, s2 = members[s1_name], members[s2_name]
    return (min(s1 ^ s2), subset_name(block), s1, s2)


# === The term reader on a token list =============================================
# A reader over a list of tagged tokens with an end sentinel, written apart
# from trees._parse_term, which splits the text at its punctuation and scans
# tokens only to word a fault: the reference for that reader and the
# parse_term and parse_context wrappers, whose rank check it makes by a
# separate check_well_ranked walk.

_TOKEN_RE = re.compile(
    rf"(?P<hole>{re.escape(HOLE)})|(?P<punct>[(),])|(?P<ident>[A-Za-z0-9_]+)"
    r"|(?P<space>\s+)|(?P<bad>.)",
    re.DOTALL,
)


def tokenize_term_to_list(text: str) -> list[tuple[str, str, int]]:
    """(kind, text, offset) triples; the kind of punctuation is itself."""
    tokens: list[tuple[str, str, int]] = []
    for m in _TOKEN_RE.finditer(text):
        kind, value = m.lastgroup, m.group()
        if kind == "bad":
            raise ParseError(f"unexpected character {value!r}", line=1, column=m.start() + 1)
        if kind != "space":
            tokens.append((value if kind == "punct" else kind, value, m.start()))
    return tokens


def read_term_from_token_list(text: str) -> tuple[Tree, int]:
    """The term that text spells out, and the number of holes in it."""
    tokens = tokenize_term_to_list(text) + [("end", "", len(text))]
    pos = holes = 0
    open_terms: list[tuple[str, list[Tree]]] = []  # each '(' still open: symbol, children
    while True:
        kind, value, at = tokens[pos]
        pos += 1
        if kind not in ("ident", "hole"):
            msg = "unexpected end of term" if kind == "end" else f"expected a symbol, got {value!r}"
            raise ParseError(msg, line=1, column=at + 1)
        holes += kind == "hole"
        if kind == "ident" and tokens[pos][0] == "(":
            pos += 1
            if tokens[pos][0] != ")":
                open_terms.append((value, []))
                continue
            pos += 1
        done = Tree(value)  # a hole token's value is the hole symbol
        while open_terms:  # hand the finished term to its parent, closing it on ')'
            open_terms[-1][1].append(done)
            kind, value, at = tokens[pos]
            pos += 1
            if kind == ",":
                break
            if kind != ")":
                msg = "unclosed '('" if kind == "end" else f"expected ',' or ')', got {value!r}"
                raise ParseError(msg, line=1, column=at + 1)
            label, children = open_terms.pop()
            done = Tree(label, children)
        else:
            if tokens[pos][0] != "end":
                raise ParseError("trailing input after term", line=1, column=tokens[pos][2] + 1)
            return done, holes


def read_every_way_from_token_list(text: str, alphabet: RankedAlphabet) -> tuple:
    """The outcomes of _parse_term(text, {}) (its term and hole count),
    parse_term(text), parse_term(text, alphabet), parse_context(text) and
    parse_context(text, alphabet), from one read of the token list."""
    read = outcome(read_term_from_token_list, text)
    if isinstance(read, Raised):
        return (read,) * 5
    t, holes = read

    def term(ranked: bool) -> Tree:
        if holes:
            raise ParseError("holes are not allowed in a plain term", line=1, column=1)
        if ranked:
            check_well_ranked(t, alphabet)
        return t

    def context(ranked: bool) -> Tree:
        if holes != 1:
            raise ParseError(f"a context needs exactly one hole, found {holes}", line=1, column=1)
        if ranked:
            check_well_ranked(t, alphabet, allow_hole=True)
        return t

    return read, *(outcome(f, ranked) for f in (term, context) for ranked in (False, True))


def write_term_by_tokens(t: Tree) -> str:
    """The term syntax of t, written one token at a time: a label, and after
    an inner node's label '(', its children separated by ',' and ')'.  An
    explicit stack holds (node, children written so far) pairs, so a chain
    of any depth is written.  The reference for format_term."""
    tokens = [t.label]
    stack = [(t, 0)]
    while stack:
        node, done = stack.pop()
        kids = node.children
        if done == len(kids):
            if kids:
                tokens.append(")")
            continue
        tokens.append("," if done else "(")
        stack.append((node, done + 1))
        tokens.append(kids[done].label)
        stack.append((kids[done], 0))
    return "".join(tokens)


def height_by_levels(t: Tree) -> int:
    """The number of levels of t, one breadth-first level at a time.  The
    reference for Tree.height."""
    level, height = [t], 0
    while level:
        level, height = [c for u in level for c in u.children], height + 1
    return height
