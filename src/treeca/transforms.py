"""Determinization, co-determinization, and completion.

Both are subset constructions over the input's rule index
(automata.RuleIndex), states numbered in sorted-name order.  A subset is the
bitmask of its members' numbers, interned once per construction in a pool
capped by a state budget (automata._SubsetPool, BudgetError), and named
after its members, "{q0,q1}" (automata.subset_name), only where an automaton
is returned, so outputs are reproducible and readable.

Determinization reads the index's upward rows through automata._Subsets,
which runs step through too, so a transition costs what its subsets hold,
not what its symbol's rules number.  It is advanced one line at a time: the
residual of one argument prefix mapped over a sequence of last arguments.
Product walks take the lines of the prefixes they reach, and determinization
closes it into a numbered table; co-determinization folds the index's
downward argument masks.
"""

from __future__ import annotations

from .automata import (
    Bta,
    Numbered,
    Tta,
    _SubsetPool,
    _Subsets,
    accepts,
    reverse_bta,
    reverse_tta,
    subset_name,
    trim_empty,
    trim_unreachable,
)
from .errors import DEFAULT_STATE_BUDGET, NotDeterministicError
from .trees import Tree

_SINK = "__dead"  # the state complete adds, renamed on a clash


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

    The downward rule index holds, per state of a0 and symbol, the OR
    position by position of the argument bits of the rules that target the
    state (RuleIndex.down).  Subsets are member bitmasks
    discovered downward from the final set: for a discovered subset R and
    symbol f, the argument tuple ORs those of R's members, and its subsets
    are interned in position order; no f-rule is emitted for R when no
    member has one, and a nullary f-rule targets R when it targets a member.
    When every state of a0 is reachable, so is every subset but an empty
    final one (by induction on height, a tree that reaches a member reaches
    the subset), and each was found from the final subset: nothing is left
    for trim_empty to remove.  Subsets are named only in the result.
    """
    ix = a0.rule_index
    down, pool = ix.down, _SubsetPool(budget)
    pool.intern(ix.final)
    rules: list[tuple[str, tuple[int, ...], int]] = []
    i = 0
    while i < len(pool.order):
        by_sym: dict[str, tuple[int, ...]] = {}
        for q in pool.members[i]:
            for sym, (_, bits) in down[q].items():
                masks = by_sym.get(sym)
                by_sym[sym] = bits if masks is None else tuple(map(int.__or__, masks, bits))
        for sym in a0.alphabet.symbols:
            if sym in by_sym:
                rules.append((sym, tuple(map(pool.intern, by_sym[sym])), i))
        i += 1
    names = [subset_name(map(ix.states.__getitem__, ms)) for ms in pool.members]
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
