"""Determinization, co-determinization, and completion.

Synthesized states are named after the subset of original states they stand
for, "{q0,q1}" with members sorted (automata.subset_name), so the
constructions are reproducible and their outputs readable.  All constructions
are capped by a state budget and raise BudgetError when the cap is hit.

The subset construction (_Subsets) reads residual rows over numbered
subsets, so a transition costs what its subsets hold, not what its symbol's
rules number.  It is advanced one line at a time: the residual of one
argument prefix mapped over a sequence of last arguments.  Product walks
take the lines of the prefixes they reach, and determinization closes it
into a numbered table.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable

from .automata import (
    EMPTY,
    Bta,
    Numbered,
    Tta,
    accepts,
    reverse_bta,
    reverse_tta,
    subset_name,
    trim_empty,
    trim_unreachable,
)
from .errors import DEFAULT_STATE_BUDGET, BudgetError, NotDeterministicError
from .trees import Tree

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
    """The subset construction of a, computed on demand, over residual rows.

    The states of a are numbered in sorted-name order and a subset is the
    bitmask of its members' numbers, interned once in a budgeted pool,
    starting with the nullary images; the empty subset is a state whenever
    some tree has no run.  Each subset's finality, whether its mask meets
    the final states', is recorded when it is interned.  The rules of each
    symbol of arity k >= 1 are indexed by their first k-1 argument numbers:
    each entry is a row mapping a last-argument number to the bitmask of
    the targets.  The residual of a prefix of k-1 subsets is the OR of the
    rows over the product of their members, computed once per prefix; line
    maps it over a sequence of last subsets, ORing its entries over each
    one's members, so a transition costs what its subsets hold, not the
    number of rules.  A product walk calls line for the prefixes it
    reaches, so it builds only the subsets it reaches; close runs the
    discovery loop to the full determinization over the same lines and
    returns it as a numbered view over subset ids, which refinement reads
    as it is and Numbered.named names for determinize.
    """

    def __init__(self, a: Bta, budget: int):
        self.a = a
        self.pool = _SubsetPool(budget)
        self.states = sorted(a.states)
        bit = {q: 1 << i for i, q in enumerate(self.states)}
        num = {q: i for i, q in enumerate(self.states)}
        self.final_mask = sum(1 << num[q] for q in a.final)
        self.ids: dict[int, int] = {}  # subset id by member bitmask
        self.members: list[list[int]] = []  # member numbers by subset id
        self.finality: list[bool] = []  # by subset id
        # The rows of each non-nullary symbol by the names of their argument
        # prefix; each distinct target set is turned into a bitmask once.
        named: dict[str, dict[tuple[str, ...], dict[int, int]]] = {
            sym: {} for sym in a.alphabet.symbols if a.alphabet.arity(sym)
        }
        masks: dict[frozenset[str], int] = {}
        for (sym, args), targets in a.delta.items():
            if args:
                mask = masks.get(targets)
                if mask is None:
                    mask = masks[targets] = sum(map(bit.__getitem__, targets))
                named[sym].setdefault(args[:-1], {})[num[args[-1]]] = mask
        # Per non-nullary symbol: its rows by argument prefix numbers, and
        # the residuals by prefix of subset ids.
        self.index: dict[str, tuple[dict[tuple[int, ...], dict[int, int]], dict]] = {
            sym: ({tuple(map(num.__getitem__, p)): row for p, row in rows.items()}, {})
            for sym, rows in named.items()
        }
        self.leaves = {
            sym: self._intern(sum(map(bit.__getitem__, a.delta.get((sym, ()), EMPTY))))
            for sym in a.alphabet.nullary
        }

    def _intern(self, mask: int) -> int:
        """The number of the subset with the given member bitmask."""
        got = self.ids.get(mask)
        if got is not None:
            return got
        members = []
        bits = mask
        while bits:
            low = bits & -bits
            members.append(low.bit_length() - 1)
            bits ^= low
        got = self.pool.intern(frozenset(map(self.states.__getitem__, members)))
        self.ids[mask] = got
        self.members.append(members)
        self.finality.append(bool(mask & self.final_mask))
        return got

    def _residual(self, rows: dict[tuple[int, ...], dict[int, int]],
                  prefix: tuple[int, ...]) -> dict[int, int]:
        """The OR of rows over every tuple of members of the prefix's subsets;
        a single row is shared, not copied."""
        found = [
            row
            for args in itertools.product(*map(self.members.__getitem__, prefix))
            if (row := rows.get(args)) is not None
        ]
        if len(found) == 1:
            return found[0]
        res: dict[int, int] = {}
        for row in found:
            for q, mask in row.items():
                res[q] = res.get(q, 0) | mask
        return res

    def line(self, sym: str, prefix: tuple[int, ...], lasts: Iterable[int]) -> list[int]:
        """The subsets a non-nullary sym reaches from the subsets of prefix
        followed by each subset of lasts in turn, interned in that order."""
        rows, cache = self.index[sym]
        res = cache.get(prefix)
        if res is None:
            res = cache[prefix] = self._residual(rows, prefix)
        members, ids = self.members, self.ids
        got = []
        for last in lasts:
            mask = 0
            for q in members[last]:
                mask |= res.get(q, 0)
            target = ids.get(mask)
            got.append(self._intern(mask) if target is None else target)
        return got

    def close(self) -> Numbered:
        """The determinization as a numbered view, states in discovery order
        and named after their subsets.  Each subset m in turn is combined
        with the ones before, in the order trees.fresh_tuples lists: each prefix
        over 0..m in lexicographic order, where an old prefix appends its
        target at m to its line and a new one gets a full line over 0..m.
        A symbol's table is its lines joined in the product order of the
        prefixes."""
        order = self.pool.order
        lines: dict[str, dict[tuple[int, ...], list[int]]] = {sym: {} for sym in self.index}
        m = 0
        while m < len(order):
            for sym, got in lines.items():
                k = self.a.alphabet.arity(sym)
                for prefix in itertools.product(range(m + 1), repeat=k - 1):
                    line = got.get(prefix)
                    if line is None:
                        got[prefix] = self.line(sym, prefix, range(m + 1))
                    else:
                        line += self.line(sym, prefix, (m,))
            m += 1
        n = len(order)
        tables: dict[str, list[int] | dict[int, int]] = {
            sym: [target] for sym, target in self.leaves.items()
        }
        for sym, got in lines.items():
            prefixes = itertools.product(range(n), repeat=self.a.alphabet.arity(sym) - 1)
            tables[sym] = list(itertools.chain.from_iterable(map(got.__getitem__, prefixes)))
        names = [subset_name(s) for s in order]
        final = frozenset(i for i, f in enumerate(self.finality) if f)
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
    it is already total.  Both are read off its numbered view.  A partial
    view gets the sink as its next number, and each table is padded to a
    total one whose missing rules target the sink (Numbered.padded), so the
    result holds a total view and its rules are named only when read.
    """
    v = a.numbered
    if v is None:
        raise NotDeterministicError("complete requires a deterministic automaton")
    if v.total:
        return a
    tables: dict[str, list[int] | dict[int, int]] = {sym: v.padded(sym) for sym in v.tables}
    names = [*v.names, _fresh_name(_SINK, a.states)]
    return Numbered(v.alphabet, names, tables, v.final, True).named()


def tta_determinize(t: Tta, *, budget: int = DEFAULT_STATE_BUDGET) -> Tta:
    """Determinize a top-down automaton by co-determinizing its reversal."""
    return reverse_bta(codeterminize(reverse_tta(t), budget=budget))
