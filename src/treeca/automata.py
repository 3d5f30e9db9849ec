"""Bottom-up and top-down tree automata and their basic semantics.

A Bta stores its transition map as a total function defaulting to the empty
set: only keys with nonempty target sets are kept.  A Tta maps each state to
the set of productions it can expand to.  Both are treated as immutable.
Every run is one iterative bottom-up evaluator (_run); wpre folds the spine.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Mapping

from .errors import NotWellRankedError, TreecaError
from .trees import HOLE, RankedAlphabet, Tree, pivot

EMPTY: frozenset[str] = frozenset()

BtaKey = tuple[str, tuple[str, ...]]


class Bta:
    """A bottom-up tree automaton (alphabet, states, delta, final states)."""

    __slots__ = ("alphabet", "states", "delta", "final", "_initial")

    def __init__(
        self,
        alphabet: RankedAlphabet,
        states: Iterable[str],
        delta: Mapping[BtaKey, Iterable[str]],
        final: Iterable[str],
    ):
        self.alphabet = alphabet
        self.states = frozenset(states)
        self.final = frozenset(final)
        if not self.final <= self.states:
            raise TreecaError(f"final states {sorted(self.final - self.states)} are not declared")
        norm: dict[BtaKey, frozenset[str]] = {}
        for (sym, args), targets in delta.items():
            args = tuple(args)
            targets = frozenset(targets)
            if not targets:
                continue
            if sym not in alphabet:
                raise TreecaError(f"transition uses unknown symbol {sym!r}")
            if alphabet.arity(sym) != len(args):
                raise TreecaError(
                    f"transition {sym}({','.join(args)}) has arity {len(args)}, "
                    f"expected {alphabet.arity(sym)}"
                )
            bad = (set(args) | targets) - self.states
            if bad:
                raise TreecaError(f"transition mentions undeclared states {sorted(bad)}")
            norm[(sym, args)] = targets
        self.delta = norm
        self._initial: frozenset[str] | None = None

    @property
    def initial_states(self) -> frozenset[str]:
        """Union of the targets of all nullary rules."""
        if self._initial is None:
            acc: set[str] = set()
            for sym in self.alphabet.nullary:
                acc |= self.delta.get((sym, ()), EMPTY)
            self._initial = frozenset(acc)
        return self._initial

    def rules(self) -> Iterator[tuple[str, tuple[str, ...], str]]:
        """Yield one (symbol, args, target) triple per single-target rule."""
        for (sym, args), targets in self.delta.items():
            for q in targets:
                yield sym, args, q

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Bta):
            return NotImplemented
        return (
            self.alphabet == other.alphabet
            and self.states == other.states
            and self.delta == other.delta
            and self.final == other.final
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return (
            f"Bta(states={len(self.states)}, rules={sum(len(v) for v in self.delta.values())}, "
            f"final={len(self.final)})"
        )


class Tta:
    """A top-down tree automaton (alphabet, states, productions, initial states)."""

    __slots__ = ("alphabet", "states", "delta", "initial")

    def __init__(
        self,
        alphabet: RankedAlphabet,
        states: Iterable[str],
        delta: Mapping[str, Iterable[tuple[str, tuple[str, ...]]]],
        initial: Iterable[str],
    ):
        self.alphabet = alphabet
        self.states = frozenset(states)
        self.initial = frozenset(initial)
        if not self.initial <= self.states:
            raise TreecaError(f"initial states {sorted(self.initial - self.states)} are not declared")
        norm: dict[str, frozenset[tuple[str, tuple[str, ...]]]] = {}
        for q, prods in delta.items():
            if q not in self.states:
                raise TreecaError(f"production for undeclared state {q!r}")
            fixed = frozenset((sym, tuple(args)) for sym, args in prods)
            if not fixed:
                continue
            for sym, args in fixed:
                if sym not in alphabet:
                    raise TreecaError(f"production uses unknown symbol {sym!r}")
                if alphabet.arity(sym) != len(args):
                    raise TreecaError(f"production {sym} has arity {len(args)}, expected {alphabet.arity(sym)}")
                bad = set(args) - self.states
                if bad:
                    raise TreecaError(f"production mentions undeclared states {sorted(bad)}")
            norm[q] = fixed
        self.delta = norm

    @property
    def final_states(self) -> frozenset[str]:
        """States that can produce some nullary symbol."""
        return frozenset(
            q for q, prods in self.delta.items() if any(not args for _, args in prods)
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Tta):
            return NotImplemented
        return (
            self.alphabet == other.alphabet
            and self.states == other.states
            and self.delta == other.delta
            and self.initial == other.initial
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return (
            f"Tta(states={len(self.states)}, prods={sum(len(v) for v in self.delta.values())}, "
            f"initial={len(self.initial)})"
        )


def _check_states(a: Bta, s: Iterable[str]) -> frozenset[str]:
    s = frozenset(s)
    bad = s - a.states
    if bad:
        raise TreecaError(f"unknown states {sorted(bad)}")
    return s


def _leaves(a: Bta, s: frozenset[str] | None = None) -> dict[str, frozenset[str]]:
    """A run's leaf table: each nullary symbol's targets, inside s if given."""
    keep = a.states if s is None else s
    return {sym: a.delta.get((sym, ()), EMPTY) & keep for sym in a.alphabet.nullary}


def _run(
    a: Bta, t: Tree, leaves: Mapping[str, frozenset[str]], memo: dict | None = None
) -> frozenset[str]:
    """The states a bottom-up run of a reaches at the root of t.

    Leaves take their states from the table (a seeded run adds the hole).  Nodes
    are listed breadth-first, each node's children together after it; the list
    is overwritten with state sets from the back.  Memo hits are listed as sets.
    """
    known = None if memo is None else memo.get(t)
    if known is not None:
        return known
    delta = a.delta
    nodes: list = [t]
    if memo is None:
        for u in nodes:
            nodes += u.children
    else:
        for i, u in enumerate(nodes):
            known = memo.get(u)
            if known is None:
                nodes += u.children
            else:
                nodes[i] = known
    end = len(nodes)  # nodes[end:] hold state sets already used by a parent
    for i in range(end - 1, -1, -1):
        u = nodes[i]
        if u.__class__ is frozenset:
            continue
        label, k = u.label, len(u.children)
        if k:
            end -= k
            acc: set[str] = set()
            for combo in itertools.product(*nodes[end : end + k]):
                acc |= delta.get((label, combo), EMPTY)
            out = frozenset(acc)
            # A rule that fires proves the arity; check it only when none does.
            ranked = bool(acc) or (label in a.alphabet and a.alphabet.arity(label) == k)
        else:
            out = leaves.get(label)
            ranked = out is not None
        if not ranked:
            what = "context" if HOLE in leaves else "tree"
            raise NotWellRankedError(f"{what} is not well ranked at symbol {label!r}")
        if memo is not None:
            memo[u] = out
        nodes[i] = out
    return nodes[0]


def post_tree(a: Bta, t: Tree, s: Iterable[str]) -> frozenset[str]:
    """States reachable at the root of t when every run leaf stays inside s.

    The recursion is post(f[t1..tn], S) = delta(f[post(t1,S) x ... x post(tn,S)])
    with post(a[], S) = delta(a[]) intersect S.
    """
    return _run(a, t, _leaves(a, _check_states(a, s)))


def accepts(a: Bta, t: Tree) -> bool:
    """True iff some run of a on t ends in a final state."""
    return bool(_run(a, t, _leaves(a)) & a.final)


def seeded_post(a: Bta, x: Tree, q: str) -> frozenset[str]:
    """Root states of runs on context x whose hole is seeded with state q.

    Ordinary leaves evaluate freely through the nullary rules; only the hole
    is pinned to q.
    """
    _check_states(a, [q])
    pivot(x)  # validates there is exactly one hole
    return _run(a, x, {**_leaves(a), HOLE: frozenset({q})})


def _spine_fold(a: Bta, x: Tree, s: frozenset[str]) -> tuple[frozenset[str], frozenset[str]]:
    """Fold the root-to-pivot spine of context x downward from the root set s.

    Each step (f, i) keeps argument i of every f-rule whose targets meet the
    running set.  Requiring the other arguments to lie in the states of the
    actual siblings gives wpre(a, x, s), the first result.  Dropping that
    check gives pre, exact on a trimmed a, the second (empty if the first is).
    """
    leaves = _leaves(a)
    weak = strong = s
    node = x
    for i in pivot(x):
        kids = node.children
        if node.label not in a.alphabet or a.alphabet.arity(node.label) != len(kids):
            raise NotWellRankedError(f"context is not well ranked at symbol {node.label!r}")
        sibs = [a.states if j == i else _run(a, c, leaves) for j, c in enumerate(kids, 1)]
        rules = [(args, targets) for (f, args), targets in a.delta.items() if f == node.label]
        weak = frozenset(
            args[i - 1]
            for args, targets in rules
            if targets & weak and all(map(frozenset.__contains__, sibs, args))
        )
        strong = frozenset(args[i - 1] for args, targets in rules if targets & strong)
        node = kids[i - 1]
    return weak, strong if weak else EMPTY


def wpre(a: Bta, x: Tree, s: Iterable[str]) -> frozenset[str]:
    """States q whose seeded run on x can reach a root state inside s."""
    return _spine_fold(a, x, _check_states(a, s))[0]


def reachable_states(a: Bta) -> frozenset[str]:
    """States with a nonempty downward language (some tree evaluates to them)."""
    reach: set[str] = set()
    changed = True
    while changed:
        changed = False
        for (sym, args), targets in a.delta.items():
            if all(q in reach for q in args) and not targets <= reach:
                reach |= targets
                changed = True
    return frozenset(reach)


def useful_states(a: Bta) -> frozenset[str]:
    """States with a nonempty upward language (some context climbs to a final root).

    A state climbs through a rule only if every sibling position is realizable
    by an actual tree, so sibling arguments must be reachable.
    """
    reach = reachable_states(a)
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


def _restrict(a: Bta, keep: frozenset[str]) -> Bta:
    delta = {
        key: targets & keep
        for key, targets in a.delta.items()
        if all(q in keep for q in key[1]) and targets & keep
    }
    return Bta(a.alphabet, keep, delta, a.final & keep)


def trim_unreachable(a: Bta) -> Bta:
    """Drop states with empty downward language and all rules mentioning them."""
    return _restrict(a, reachable_states(a))


def trim_empty(a: Bta) -> Bta:
    """Drop states with empty upward language and all rules mentioning them."""
    return _restrict(a, useful_states(a))


def is_deterministic(a: Bta) -> bool:
    """True iff every image of delta is a singleton or empty."""
    return all(len(targets) <= 1 for targets in a.delta.values())


def is_codeterministic(a: Bta) -> bool:
    """True iff the final set is a singleton and, per state and non-nullary
    symbol, at most one argument tuple produces it."""
    if len(a.final) != 1:
        return False
    seen: dict[tuple[str, str], tuple[str, ...]] = {}
    for (sym, args), targets in a.delta.items():
        if not args:
            continue
        for q in targets:
            prev = seen.setdefault((q, sym), args)
            if prev != args:
                return False
    return True

