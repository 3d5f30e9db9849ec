"""Determinization, co-determinization, and completion.

Both are subset constructions over the input's states numbered in sorted-name
order.  A subset is the bitmask of its members' numbers, interned once per
construction in a pool capped by a state budget (_SubsetPool, BudgetError),
and named after its members, "{q0,q1}" (automata.subset_name), only where an
automaton is returned, so outputs are reproducible and readable.

Determinization (_Subsets) reads residual rows over numbered subsets, so a
transition costs what its subsets hold, not what its symbol's rules number.
It is advanced one line at a time: the residual of one argument prefix
mapped over a sequence of last arguments.  Product walks take the lines of
the prefixes they reach, and determinization closes it into a numbered table.
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
    """The member bitmasks of one construction's subsets in discovery order
    (order), each mask's id (index) and each subset's member numbers in
    increasing order (members), guarded by a budget."""

    def __init__(self, budget: int):
        if budget < 1:
            raise BudgetError("budget must be positive")
        self.order: list[int] = []
        self.index: dict[int, int] = {}
        self.members: list[list[int]] = []
        self.budget = budget

    def intern(self, mask: int) -> int:
        got = self.index.get(mask)
        if got is not None:
            return got
        if len(self.order) >= self.budget:
            raise BudgetError(
                f"subset construction exceeded the budget of {self.budget} states"
            )
        members = []
        bits = mask
        while bits:
            low = bits & -bits
            members.append(low.bit_length() - 1)
            bits ^= low
        got = self.index[mask] = len(self.order)
        self.order.append(mask)
        self.members.append(members)
        return got


class _Subsets:
    """The subset construction of a, computed on demand, over residual rows.

    Subsets are interned in the pool by member bitmask, starting with the
    nullary images; the empty subset is a state whenever some tree has no
    run, and a subset is final when its mask meets final_mask.  The rules of
    each symbol of arity k >= 1 are indexed by their first k-1 argument
    numbers: each entry is a row mapping a last-argument number to the
    bitmask of the targets.  The residual of a prefix of k-1 subsets is the
    OR of the rows over the product of their members, computed once per
    prefix; line maps it over a sequence of last subsets, ORing its entries
    over each one's members, so a transition costs what its subsets hold,
    not the number of rules.  A product walk calls line for the prefixes it
    reaches, so it builds only the subsets it reaches; close runs the
    discovery loop to the full determinization over the same lines and
    returns it as a numbered view over subset ids, the only place subsets
    are named; subset gives one's states.
    """

    def __init__(self, a: Bta, budget: int):
        self.a = a
        self.pool = _SubsetPool(budget)
        self.states = sorted(a.states)
        bit = {q: 1 << i for i, q in enumerate(self.states)}
        num = {q: i for i, q in enumerate(self.states)}
        self.final_mask = sum(map(bit.__getitem__, a.final))
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
            sym: self.pool.intern(sum(map(bit.__getitem__, a.delta.get((sym, ()), EMPTY))))
            for sym in a.alphabet.nullary
        }

    def subset(self, i: int) -> frozenset[str]:
        """The states of a in subset i."""
        return frozenset(map(self.states.__getitem__, self.pool.members[i]))

    def _residual(self, rows: dict[tuple[int, ...], dict[int, int]],
                  prefix: tuple[int, ...]) -> dict[int, int]:
        """The OR of rows over every tuple of members of the prefix's subsets;
        a single row is shared, not copied."""
        found = [
            row
            for args in itertools.product(*map(self.pool.members.__getitem__, prefix))
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
        pool, members, ids = self.pool, self.pool.members, self.pool.index
        got = []
        for last in lasts:
            mask = 0
            for q in members[last]:
                mask |= res.get(q, 0)
            target = ids.get(mask)
            got.append(pool.intern(mask) if target is None else target)
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
        names = [subset_name(map(self.states.__getitem__, ms)) for ms in self.pool.members]
        final = frozenset(i for i, mask in enumerate(order) if mask & self.final_mask)
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
    return view.named(), {name: subsets.subset(i) for i, name in enumerate(view.names)}


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

    Each state of a0 holds, per symbol, the OR position by position of the
    argument bits of the rules that target it.  Subsets are member bitmasks
    discovered downward from the final set: for a discovered subset R and
    symbol f, the argument tuple ORs those of R's members, and its subsets
    are interned in position order; no f-rule is emitted for R when no
    member has one, and a nullary f-rule targets R when it targets a member.
    When every state of a0 is reachable, so is every subset but an empty
    final one (by induction on height, a tree that reaches a member reaches
    the subset), and each was found from the final subset: nothing is left
    for trim_empty to remove.  Subsets are named only in the result.
    """
    states = sorted(a0.states)
    bit = {q: 1 << i for i, q in enumerate(states)}
    prods: dict[str, dict[str, list[tuple[str, ...]]]] = {q: {} for q in states}
    for (sym, args), targets in a0.delta.items():
        for t in targets:
            prods[t].setdefault(sym, []).append(args)
    down = [
        {sym: tuple(sum(map(bit.__getitem__, set(col))) for col in zip(*tuples))
         for sym, tuples in prods[q].items()}
        for q in states
    ]
    pool = _SubsetPool(budget)
    pool.intern(sum(map(bit.__getitem__, a0.final)))
    rules: list[tuple[str, tuple[int, ...], int]] = []
    i = 0
    while i < len(pool.order):
        by_sym: dict[str, tuple[int, ...]] = {}
        for q in pool.members[i]:
            for sym, bits in down[q].items():
                masks = by_sym.get(sym)
                by_sym[sym] = bits if masks is None else tuple(map(int.__or__, masks, bits))
        for sym in a0.alphabet.symbols:
            if sym in by_sym:
                rules.append((sym, tuple(map(pool.intern, by_sym[sym])), i))
        i += 1
    names = [subset_name(map(states.__getitem__, ms)) for ms in pool.members]
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
