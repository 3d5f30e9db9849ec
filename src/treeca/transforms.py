"""Determinization, co-determinization, and completion.

Synthesized states are named after the subset of original states they stand
for, "{q0,q1}" with members sorted (automata.subset_name), so the
constructions are reproducible and their outputs readable.  All constructions
are capped by a state budget and raise BudgetError when the cap is hit.
"""

from __future__ import annotations

import itertools
from functools import reduce
from operator import and_, getitem

from .automata import (
    EMPTY,
    Bta,
    Numbered,
    Tta,
    accepts,
    is_deterministic,
    reverse_bta,
    reverse_tta,
    subset_name,
    trim_empty,
    trim_unreachable,
)
from .errors import DEFAULT_STATE_BUDGET, BudgetError, NotDeterministicError
from .trees import Tree, fresh_tuples

_SINK = "__dead"  # the state complete adds, renamed on a clash


class _SubsetPool:
    """Interned subsets in discovery order, guarded by a budget."""

    def __init__(self, budget: int):
        if budget < 1:
            raise BudgetError("budget must be positive")
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


class _Subsets:
    """The subset construction of a, computed on demand.

    Subsets are interned in a budgeted pool, starting with the nullary
    images; the empty subset is a state whenever some tree has no run.  The
    rules are indexed once.  The rules of each non-nullary symbol are
    numbered, and for each argument position and state the index holds the
    bitmask of the rules with that state at that position.  Each interned
    subset gets its mask per (symbol, position): the OR over its members.
    The rules that fire on an argument tuple of subsets are then the AND of
    k masks, and the union of their targets is interned once per (symbol,
    mask).  step computes one transition, so a walk builds only the subsets
    it reaches; close runs the discovery loop to the full determinization
    and returns it as a numbered view over subset ids, which refinement
    reads as it is and Numbered.named names for determinize.
    """

    def __init__(self, a: Bta, budget: int):
        self.a = a
        self.pool = _SubsetPool(budget)
        by_sym: dict[str, list[tuple[tuple[str, ...], frozenset[str]]]] = {}
        for (sym, args), targets in a.delta.items():
            if args:
                by_sym.setdefault(sym, []).append((args, targets))
        # Per non-nullary symbol: masks by position and state, rule targets by
        # rule id, subset masks by position and subset id, target by mask.
        self.index: dict[str, tuple[list[dict[str, int]], list, list[list[int]], dict]] = {}
        for sym in a.alphabet.symbols:
            k = a.alphabet.arity(sym)
            if k:
                at: list[dict[str, int]] = [{} for _ in range(k)]
                rules = by_sym.get(sym, [])
                for r, (args, _) in enumerate(rules):
                    for i, q in enumerate(args):
                        at[i][q] = at[i].get(q, 0) | 1 << r
                self.index[sym] = (at, [t for _, t in rules], [[] for _ in range(k)], {})
        self.leaves = {
            sym: self._intern(frozenset(a.delta.get((sym, ()), EMPTY)))
            for sym in a.alphabet.nullary
        }

    def _intern(self, members: frozenset[str]) -> int:
        fresh = len(self.pool.order)
        got = self.pool.intern(members)
        if got == fresh:
            for at, _, cols, _ in self.index.values():
                for by_state, col in zip(at, cols):
                    mask = 0
                    for q in members:
                        mask |= by_state.get(q, 0)
                    col.append(mask)
        return got

    def step(self, sym: str, combo: tuple[int, ...]) -> int:
        """The subset a non-nullary sym reaches from the subsets of combo."""
        _, targets, cols, memo = self.index[sym]
        fired = reduce(and_, map(getitem, cols, combo))
        target = memo.get(fired)
        if target is None:
            acc: set[str] = set()
            bits = fired
            while bits:
                low = bits & -bits
                acc |= targets[low.bit_length() - 1]
                bits ^= low
            target = memo[fired] = self._intern(frozenset(acc))
        return target

    def close(self) -> Numbered:
        """The determinization as a numbered view, states in discovery order
        and named after their subsets: each subset m in turn is combined with
        the ones before, then the tables are read off in argument order."""
        order = self.pool.order
        raw: dict[str, dict[tuple[int, ...], int]] = {sym: {} for sym in self.index}
        step = self.step
        m = 0
        while m < len(order):
            for sym, (_, _, cols, _) in self.index.items():
                got = raw[sym]
                for combo in fresh_tuples(m, m + 1, len(cols)):
                    got[combo] = step(sym, combo)
            m += 1
        n = len(order)
        tables: dict[str, list[int] | dict[int, int]] = {
            sym: [target] for sym, target in self.leaves.items()
        }
        for sym, got in raw.items():
            combos = itertools.product(range(n), repeat=self.a.alphabet.arity(sym))
            tables[sym] = list(map(got.__getitem__, combos))
        names = [subset_name(s) for s in order]
        final = frozenset(i for i, s in enumerate(order) if s & self.a.final)
        return Numbered(self.a.alphabet, names, tables, final, True)


def subset_construction(
    a: Bta, *, budget: int = DEFAULT_STATE_BUDGET
) -> tuple[Bta, dict[str, frozenset[str]]]:
    """Determinize a and also return the map from new names to state subsets.

    The result is deterministic and total over its states, and accepts
    exactly the language of a; see _Subsets for how it is computed.
    """
    subsets = _Subsets(a, budget)
    view = subsets.close()
    return view.named(), dict(zip(view.names, subsets.pool.order))


def determinize(a: Bta, *, budget: int = DEFAULT_STATE_BUDGET) -> Bta:
    """The deterministic automaton of reachable state subsets."""
    return _Subsets(a, budget).close().named()


def codeterminize(
    a: Bta, *, pretrim: bool = True, budget: int = DEFAULT_STATE_BUDGET
) -> Bta:
    """Co-determinize a: one final state, one argument tuple per state and symbol.

    The result accepts a superset of the language of a, with equality
    exactly on the path-closed languages.  Unreachable states would distort
    the argument tuples, so they are removed first by default, which leaves
    no state with an empty upward language (see _codeterminize); with
    pretrim=False such states are removed from the result instead.
    """
    if pretrim:
        return _codeterminize(trim_unreachable(a), budget)
    return trim_empty(_codeterminize(a, budget))


def _codeterminize(a0: Bta, budget: int) -> Bta:
    """The co-determinization of a0, untrimmed.

    Subsets are discovered downward from the final set.  For a discovered
    subset R and symbol f, the argument tuple collects, position by position,
    the argument states of all f-rules that target a member of R; no f-rule is
    emitted for R when no such rule exists, and a nullary f-rule targets R
    when it targets a member.  When every state of a0 is reachable, so is
    every subset but an empty final one (by induction on height, a tree that
    reaches a member reaches the subset), and each was found from the final
    subset: nothing is left for trim_empty to remove.
    """
    down = reverse_bta(a0).delta
    pool = _SubsetPool(budget)
    pool.intern(a0.final)
    rules: list[tuple[str, tuple[int, ...], int]] = []
    i = 0
    while i < len(pool.order):
        by_sym: dict[str, set[tuple[str, ...]]] = {}
        for q in pool.order[i]:
            for sym, args in down.get(q, EMPTY):
                by_sym.setdefault(sym, set()).add(args)
        for sym in a0.alphabet.symbols:
            tuples = by_sym.get(sym)
            if tuples is None:
                continue
            combo = tuple(
                pool.intern(frozenset(t[j] for t in tuples))
                for j in range(a0.alphabet.arity(sym))
            )
            rules.append((sym, combo, i))
        i += 1
    names = [subset_name(s) for s in pool.order]
    delta: dict[tuple[str, tuple[str, ...]], set[str]] = {}
    for sym, combo, target in rules:
        key = (sym, tuple(names[j] for j in combo))
        delta.setdefault(key, set()).add(names[target])
    frozen = {key: frozenset(targets) for key, targets in delta.items()}
    return Bta._of(a0.alphabet, frozenset(names), frozen, frozenset({names[0]}))


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


def complete(a: Bta) -> Bta:
    """Add a rejecting sink so every symbol and argument tuple has a rule.

    The input must be deterministic; the automaton is returned unchanged when
    it is already total.  Totality is decided by counting: a Bta keeps only
    well-ranked keys over its states with nonempty targets, so a is total iff
    each symbol of arity k has |Q|^k keys.
    """
    if not is_deterministic(a):
        raise NotDeterministicError("complete requires a deterministic automaton")
    n = len(a.states)
    if len(a.delta) == sum(n ** a.alphabet.arity(sym) for sym in a.alphabet.symbols):
        return a
    name = _fresh_name(_SINK, a.states)
    sink = frozenset((name,))
    extended = a.states | sink
    order = sorted(extended)
    delta = dict(a.delta)
    for sym in a.alphabet.symbols:
        for args in itertools.product(order, repeat=a.alphabet.arity(sym)):
            delta.setdefault((sym, args), sink)
    return Bta._of(a.alphabet, extended, delta, a.final)


def tta_determinize(t: Tta, *, budget: int = DEFAULT_STATE_BUDGET) -> Tta:
    """Determinize a top-down automaton by co-determinizing its reversal."""
    return reverse_bta(codeterminize(reverse_tta(t), budget=budget))
