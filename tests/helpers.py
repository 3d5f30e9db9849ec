"""Shared builders, random generators, and independent oracles for the tests.

Everything random takes an explicit random.Random so the suites are
reproducible; everything oracle-like is written directly against the
definitions (runs, paths, enumeration) rather than through the library
pipelines it is meant to check.
"""

from __future__ import annotations

import itertools
import random
from pathlib import Path

from treeca import (
    Bta,
    RankedAlphabet,
    Tree,
    Tta,
    iter_nodes,
    parse_automaton,
    puncture,
    reverse_tta,
    trim_empty,
    trim_unreachable,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

BOOL = RankedAlphabet({"F": 0, "T": 0, "and": 2, "or": 2})
AB = RankedAlphabet({"a": 0, "b": 0, "f": 2})
ABG = RankedAlphabet({"a": 0, "b": 0, "f": 2, "g": 1})
MONO = RankedAlphabet({"a": 0, "b": 0, "g": 1, "h": 1})


def load_fixture(name: str) -> Bta | Tta:
    return parse_automaton((FIXTURES / name).read_text())


def rename_states(a: Bta, prefix: str = "s_") -> Bta:
    """A structurally identical copy with every state renamed."""
    new = {q: prefix + q.replace("{", "L").replace("}", "R").replace(",", "_") for q in a.states}
    delta = {
        (sym, tuple(new[q] for q in args)): {new[t] for t in targets}
        for (sym, args), targets in a.delta.items()
    }
    return Bta(a.alphabet, new.values(), delta, {new[q] for q in a.final})


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
    return Tta(alphabet, states, delta, {rng.choice(states)})


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


def nonempty(a: Bta) -> bool:
    return bool(trim_unreachable(a).final)


# === Hand-built automata used by several suites ==================================

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


# === Independent oracles ==========================================================

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
