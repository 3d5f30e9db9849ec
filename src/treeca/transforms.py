"""Determinization, co-determinization, reversal, and completion.

Synthesized states are named after the subset of original states they stand
for, "{q0,q1}" with members sorted, so the constructions are reproducible and
their outputs readable.  All constructions are capped by a state budget and
raise BudgetError when the cap is hit.
"""

from __future__ import annotations

import itertools

from .automata import (
    EMPTY,
    Bta,
    Tta,
    accepts,
    is_deterministic,
    trim_empty,
    trim_unreachable,
)
from .errors import BudgetError, NotDeterministicError
from .trees import Tree, fresh_tuples

DEFAULT_STATE_BUDGET = 2**16


def subset_name(members: frozenset[str]) -> str:
    """Canonical printable name for a set of states."""
    return "{" + ",".join(sorted(members)) + "}"


class _SubsetPool:
    """Interned subsets in discovery order, guarded by a budget."""

    def __init__(self, budget: int):
        self.order: list[frozenset[str]] = []
        self.index: dict[frozenset[str], int] = {}
        self.budget = budget

    def intern(self, members: frozenset[str]) -> int:
        got = self.index.get(members)
        if got is not None:
            return got
        if len(self.order) >= self.budget:
            raise BudgetError(
                f"subset construction exceeded the budget of {self.budget} states"
            )
        self.index[members] = len(self.order)
        self.order.append(members)
        return self.index[members]


def subset_construction(
    a: Bta, *, budget: int = DEFAULT_STATE_BUDGET
) -> tuple[Bta, dict[str, frozenset[str]]]:
    """Determinize a and also return the map from new names to state subsets.

    Subsets are discovered from the nullary images upward; the empty subset is
    a state whenever some tree has no run.  The result is deterministic and
    total over its states, and accepts exactly the language of a.
    """
    pool = _SubsetPool(budget)
    raw_delta: dict[tuple[str, tuple[int, ...]], int] = {}
    for sym in a.alphabet.nullary:
        image = frozenset(a.delta.get((sym, ()), EMPTY))
        raw_delta[(sym, ())] = pool.intern(image)
    m = 0
    while m < len(pool.order):
        for sym in a.alphabet.symbols:
            for combo in fresh_tuples(m, m + 1, a.alphabet.arity(sym)):
                args = tuple(pool.order[i] for i in combo)
                acc: set[str] = set()
                for members in itertools.product(*(sorted(s) for s in args)):
                    acc |= a.delta.get((sym, members), EMPTY)
                raw_delta[(sym, combo)] = pool.intern(frozenset(acc))
        m += 1
    names = [subset_name(s) for s in pool.order]
    delta: dict[tuple[str, tuple[str, ...]], set[str]] = {}
    for (sym, combo), target in raw_delta.items():
        delta[(sym, tuple(names[i] for i in combo))] = {names[target]}
    final = {names[i] for i, s in enumerate(pool.order) if s & a.final}
    det = Bta(a.alphabet, names, delta, final)
    return det, {names[i]: s for i, s in enumerate(pool.order)}


def determinize(a: Bta, *, budget: int = DEFAULT_STATE_BUDGET) -> Bta:
    """The deterministic automaton of reachable state subsets."""
    return subset_construction(a, budget=budget)[0]


def codeterminize(
    a: Bta, *, pretrim: bool = True, budget: int = DEFAULT_STATE_BUDGET
) -> Bta:
    """Co-determinize a: one final state, one argument tuple per state and symbol.

    Subsets are discovered downward from the final set.  For a discovered
    subset R and symbol f, the argument tuple collects, position by position,
    the argument states of all f-rules that target a member of R; no f-rule is
    emitted for R when no such rule exists.  A final pass adds the nullary
    rules, and states with an empty upward language are removed.  The result
    accepts a superset of the language of a, with equality exactly on the
    path-closed languages; unreachable states are removed first by default
    since they would otherwise distort the argument tuples.
    """
    a0 = trim_unreachable(a) if pretrim else a
    by_target: dict[tuple[str, str], set[tuple[str, ...]]] = {}
    for (sym, args), targets in a0.delta.items():
        if not args:
            continue
        for q in targets:
            by_target.setdefault((q, sym), set()).add(args)
    pool = _SubsetPool(budget)
    pool.intern(a0.final)
    rules: list[tuple[str, tuple[int, ...], int]] = []
    i = 0
    while i < len(pool.order):
        r = pool.order[i]
        for sym in a0.alphabet.symbols:
            k = a0.alphabet.arity(sym)
            if k == 0:
                continue
            tuples: set[tuple[str, ...]] = set()
            for q in r:
                tuples |= by_target.get((q, sym), set())
            if not tuples:
                continue
            combo = tuple(
                pool.intern(frozenset(t[j] for t in tuples)) for j in range(k)
            )
            rules.append((sym, combo, i))
        i += 1
    names = [subset_name(s) for s in pool.order]
    delta: dict[tuple[str, tuple[str, ...]], set[str]] = {}
    for sym, combo, target in rules:
        key = (sym, tuple(names[j] for j in combo))
        delta.setdefault(key, set()).add(names[target])
    for sym in a0.alphabet.nullary:
        image = a0.delta.get((sym, ()), EMPTY)
        targets = {names[j] for j, s in enumerate(pool.order) if s & image}
        if targets:
            delta[(sym, ())] = targets
    built = Bta(a0.alphabet, names, delta, {names[0]})
    return trim_empty(built)


def reverse_bta(a: Bta) -> Tta:
    """Read the rules of a top-down; final states become initial states."""
    delta: dict[str, set[tuple[str, tuple[str, ...]]]] = {}
    for (sym, args), targets in a.delta.items():
        for q in targets:
            delta.setdefault(q, set()).add((sym, args))
    return Tta(a.alphabet, a.states, delta, a.final)


def reverse_tta(t: Tta) -> Bta:
    """Read the productions of t bottom-up; initial states become final states."""
    delta: dict[tuple[str, tuple[str, ...]], set[str]] = {}
    for q, prods in t.delta.items():
        for sym, args in prods:
            delta.setdefault((sym, args), set()).add(q)
    return Bta(t.alphabet, t.states, delta, t.initial)


def tta_accepts(t: Tta, tree: Tree) -> bool:
    """Top-down acceptance, evaluated on the reversed bottom-up automaton."""
    return accepts(reverse_tta(t), tree)


def _fresh_name(base: str, taken: frozenset[str]) -> str:
    if base not in taken:
        return base
    n = 1
    while f"{base}_{n}" in taken:
        n += 1
    return f"{base}_{n}"


def complete(a: Bta, *, sink: str = "__dead") -> Bta:
    """Add a rejecting sink so every symbol and argument tuple has a rule.

    The input must be deterministic; the automaton is returned unchanged when
    it is already total.
    """
    if not is_deterministic(a):
        raise NotDeterministicError("complete requires a deterministic automaton")
    states = sorted(a.states)
    if all(
        (sym, args) in a.delta
        for sym in a.alphabet.symbols
        for args in itertools.product(states, repeat=a.alphabet.arity(sym))
    ):
        return a
    name = _fresh_name(sink, a.states)
    extended = sorted(a.states | {name})
    delta: dict[tuple[str, tuple[str, ...]], frozenset[str] | set[str]] = dict(a.delta)
    for sym in a.alphabet.symbols:
        k = a.alphabet.arity(sym)
        for args in itertools.product(extended, repeat=k):
            if (sym, args) not in delta:
                delta[(sym, args)] = {name}
    return Bta(a.alphabet, extended, delta, a.final)


def tta_determinize(t: Tta, *, budget: int = DEFAULT_STATE_BUDGET) -> Tta:
    """Determinize a top-down automaton by co-determinizing its reversal."""
    return reverse_bta(codeterminize(reverse_tta(t), budget=budget))


def tta_determinize_direct(t: Tta, *, budget: int = DEFAULT_STATE_BUDGET) -> Tta:
    """Determinize a top-down automaton by a direct downward subset construction.

    Subsets are discovered from the set of initial states; for a subset R and
    symbol f, position i collects the i-th argument of every f-production of a
    member of R.  States whose downward language is empty are removed first,
    and states whose upward language is empty are removed afterwards, matching
    the cleanup done by the reversal route.
    """
    t0 = reverse_bta(trim_unreachable(reverse_tta(t)))
    by_sym: dict[tuple[str, str], set[tuple[str, ...]]] = {}
    for q, prods in t0.delta.items():
        for sym, args in prods:
            if args:
                by_sym.setdefault((q, sym), set()).add(args)
    pool = _SubsetPool(budget)
    pool.intern(t0.initial)
    prods_out: list[tuple[int, str, tuple[int, ...]]] = []
    i = 0
    while i < len(pool.order):
        r = pool.order[i]
        for sym in t0.alphabet.symbols:
            k = t0.alphabet.arity(sym)
            if k == 0:
                if any((sym, ()) in t0.delta.get(q, EMPTY) for q in r):
                    prods_out.append((i, sym, ()))
                continue
            tuples: set[tuple[str, ...]] = set()
            for q in r:
                tuples |= by_sym.get((q, sym), set())
            if not tuples:
                continue
            combo = tuple(
                pool.intern(frozenset(t2[j] for t2 in tuples)) for j in range(k)
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
