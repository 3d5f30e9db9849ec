"""Bottom-up and top-down tree automata and their basic semantics.

A Bta stores its transition map as a total function defaulting to the empty
set: only keys with nonempty target sets are kept.  A Tta holds a Bta and
reads the same rules top-down: each state maps to the productions it can
expand to, its initial states are the Bta's final states.  Reversal only
switches the reading and copies nothing.  Both are treated as immutable.
The public constructors check every rule and state name (is_state_name); the
library builds automata from checked ones through the unchecked Bta._of, and
names each synthesized state after the states it stands for (subset_name).
A deterministic Bta also has a numbered view (Numbered), built at most once:
states as numbers and each symbol's rule targets in one table, which
minimization, canonical renaming and the writer read instead of the named
rules.  A view comes from the construction that made the automaton (the
subset construction, the merge, canonical renaming, completion), from the
file reader when the file holds the rule table the writer gives a total
view, or else from numbering the named rules (_number).  An automaton made
from a view (Numbered.named) names its rules only when its delta is first
read.
Every run is one iterative bottom-up evaluator (_run); wpre folds the spine.
"""

from __future__ import annotations

import itertools
import re
from typing import Iterable, Iterator, Mapping

from .errors import NotWellRankedError, TreecaError
from .trees import HOLE, Address, RankedAlphabet, Tree, pivot

EMPTY: frozenset[str] = frozenset()

BtaKey = tuple[str, tuple[str, ...]]

_UNREADABLE_RE = re.compile(r"[\s#]|->")
_BRACED_RE = re.compile(r"\{[^{}]*\}")


def is_state_name(q: str) -> bool:
    """Whether an automaton file can hold q as a state name: nonempty, no
    whitespace, '#' or '->', balanced braces, and commas only inside braces."""
    if not q or _UNREADABLE_RE.search(q):
        return False
    n = 1
    while n:
        q, n = _BRACED_RE.subn("", q)
    return not ("{" in q or "}" in q or "," in q)


def subset_name(members: Iterable[str]) -> str:
    """Canonical printable name for a set of states."""
    return "{" + ",".join(sorted(members)) + "}"


class Bta:
    """A bottom-up tree automaton (alphabet, states, delta, final states)."""

    __slots__ = ("alphabet", "states", "_delta", "final", "_down", "_view")

    def __init__(
        self,
        alphabet: RankedAlphabet,
        states: Iterable[str],
        delta: Mapping[BtaKey, Iterable[str]],
        final: Iterable[str],
    ):
        states = frozenset(states)
        final = frozenset(final)
        bad = sorted(q for q in states if not is_state_name(q))
        if bad:
            raise TreecaError(f"illegal state names {bad}")
        if not final <= states:
            raise TreecaError(f"final states {sorted(final - states)} are not declared")
        arities = alphabet.entries
        norm: dict[BtaKey, frozenset[str]] = {}
        for (sym, args), targets in delta.items():
            args = tuple(args)
            targets = frozenset(targets)
            if not targets:
                continue
            if arities.get(sym) != len(args):
                if sym not in arities:
                    raise TreecaError(f"transition uses unknown symbol {sym!r}")
                raise TreecaError(
                    f"transition {sym}({','.join(args)}) has arity {len(args)}, "
                    f"expected {arities[sym]}"
                )
            if not (targets <= states and states.issuperset(args)):
                bad = (set(args) | targets) - states
                raise TreecaError(f"transition mentions undeclared states {sorted(bad)}")
            norm[(sym, args)] = targets
        self.alphabet, self.states, self._delta, self.final = alphabet, states, norm, final
        self._down = self._view = None

    @classmethod
    def _of(cls, alphabet: RankedAlphabet, states: frozenset[str],
            delta: dict[BtaKey, frozenset[str]] | None, final: frozenset[str]) -> Bta:
        """An automaton from fields already in normal form, unchecked: frozenset
        states and final, tuple argument keys over declared states, and
        nonempty frozenset targets.  delta is None only for an automaton that
        Numbered.named backs with a view."""
        a = object.__new__(cls)
        a.alphabet, a.states, a._delta, a.final = alphabet, states, delta, final
        a._down = a._view = None
        return a

    @property
    def delta(self) -> dict[BtaKey, frozenset[str]]:
        """The rules: each (symbol, argument states) key with a nonempty
        target set.  An automaton named from a numbered view builds them
        from the view the first time they are read (_named_rules)."""
        if self._delta is None:
            self._delta = _named_rules(self._view)
        return self._delta

    @property
    def numbered(self) -> Numbered | None:
        """The numbered view of a deterministic automaton; None when some rule
        has two targets.  Built at most once, states numbered in sorted order,
        unless the construction that made the automaton handed its own view
        over (Numbered.named)."""
        if self._view is None:
            self._view = _number(self) or False
        return self._view or None

    @property
    def initial_states(self) -> frozenset[str]:
        """Union of the targets of all nullary rules."""
        acc: set[str] = set()
        for sym in self.alphabet.nullary:
            acc |= self.delta.get((sym, ()), EMPTY)
        return frozenset(acc)

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


class Numbered:
    """A deterministic automaton over state numbers 0..n-1.

    names[i] is the name of state i and final holds the numbers of the final
    states.  tables maps each symbol of arity k to its rules' targets: the
    rule with argument numbers i1..ik sits at index i1*n^(k-1) + ... + ik.
    A total automaton's tables are lists of n^k targets, the size of its
    delta; a partial one's are dicts holding only the rules it has.
    """

    __slots__ = ("alphabet", "names", "tables", "final", "total")

    def __init__(self, alphabet: RankedAlphabet, names: list[str],
                 tables: dict[str, list[int] | dict[int, int]],
                 final: frozenset[int], total: bool):
        self.alphabet, self.names, self.tables = alphabet, names, tables
        self.final, self.total = final, total

    def targets(self, sym: str, ids: list[int]) -> Iterator[int]:
        """The targets of sym's rules whose arguments all lie in ids, in the
        product order of ids: each rule's table index is the sum of one
        offset per argument position."""
        n, k = len(self.names), self.alphabet.arity(sym)
        offsets = [[q * n ** (k - 1 - i) for q in ids] for i in range(k)]
        return map(self.tables[sym].__getitem__, map(sum, itertools.product(*offsets)))

    def rules(self, sym: str) -> Iterator[tuple[tuple[int, ...], int]]:
        """The rules of sym in a partial view as (argument numbers, target)
        pairs, in table order: each index is read back as k base-n digits."""
        n, k = len(self.names), self.alphabet.arity(sym)
        for j, t in self.tables[sym].items():
            args = [0] * k
            for i in range(k - 1, -1, -1):
                j, args[i] = divmod(j, n)
            yield tuple(args), t

    def padded(self, sym: str) -> list[int]:
        """sym's table in a partial view, padded to the states and one more,
        number n: a list of (n+1)^k targets in which n stands for every
        argument tuple that holds n or has no rule.  The indices are summed
        as in targets, the new state's share being -n^k, so that an index
        holding it is negative."""
        n, k = len(self.names), self.alphabet.arity(sym)
        offsets = [[q * n ** (k - 1 - i) for q in range(n)] + [-(n**k)] for i in range(k)]
        indices = map(sum, itertools.product(*offsets))
        return list(map(self.tables[sym].get, indices, itertools.repeat(n)))

    def named(self) -> Bta:
        """The automaton of a total view under its state names, keeping the
        view.  Its rules are named only when something reads its delta, so
        a construction whose result is only refined, renamed or written
        never names them."""
        final = frozenset(map(self.names.__getitem__, self.final))
        a = Bta._of(self.alphabet, frozenset(self.names), None, final)
        a._view = self
        return a


def _named_rules(v: Numbered) -> dict[BtaKey, frozenset[str]]:
    """The rules of a total view under its state names: the table entries
    come in the order of the argument tuples."""
    names = v.names
    one = [frozenset((q,)) for q in names]
    delta: dict[BtaKey, frozenset[str]] = {}
    for sym, table in v.tables.items():
        args = itertools.product(names, repeat=v.alphabet.arity(sym))
        delta.update(zip(zip(itertools.repeat(sym), args), map(one.__getitem__, table)))
    return delta


def _number(a: Bta) -> Numbered | None:
    """The view that Bta.numbered caches, or None when a is not deterministic."""
    names = sorted(a.states)
    index = {q: i for i, q in enumerate(names)}
    n = len(names)
    arities = a.alphabet.entries
    total = len(a.delta) == sum(n**k for k in arities.values())
    tables: dict[str, list[int] | dict[int, int]] = {
        sym: [0] * n**k if total else {} for sym, k in arities.items()
    }
    for (sym, args), targets in a.delta.items():
        if len(targets) > 1:
            return None
        j = 0
        for q in args:
            j = j * n + index[q]
        for t in targets:
            tables[sym][j] = index[t]
    return Numbered(a.alphabet, names, tables, frozenset(map(index.__getitem__, a.final)), total)


class Tta:
    """A top-down tree automaton (alphabet, states, productions, initial states).

    It holds the Bta whose rules it reads top-down: its initial states are
    that Bta's final states, and its productions are built from the rules
    once per Bta.
    """

    __slots__ = ("_bta",)

    def __init__(
        self,
        alphabet: RankedAlphabet,
        states: Iterable[str],
        delta: Mapping[str, Iterable[tuple[str, tuple[str, ...]]]],
        initial: Iterable[str],
    ):
        states = frozenset(states)
        initial = frozenset(initial)
        if not initial <= states:
            raise TreecaError(f"initial states {sorted(initial - states)} are not declared")
        rules: dict[BtaKey, set[str]] = {}
        for q, prods in delta.items():
            if q not in states:
                raise TreecaError(f"production for undeclared state {q!r}")
            for sym, args in prods:
                rules.setdefault((sym, tuple(args)), set()).add(q)
        self._bta = Bta(alphabet, states, rules, initial)

    alphabet = property(lambda self: self._bta.alphabet)
    states = property(lambda self: self._bta.states)
    initial = property(lambda self: self._bta.final)
    final_states = property(
        lambda self: self._bta.initial_states,
        doc="States that can produce some nullary symbol.",
    )

    @property
    def delta(self) -> dict[str, frozenset[BtaKey]]:
        """Each state that has productions, mapped to the (symbol, arguments)
        keys of the rules that target it; built once per Bta."""
        a = self._bta
        if a._down is None:
            down: dict[str, set[BtaKey]] = {}
            for key, targets in a.delta.items():
                for q in targets:
                    down.setdefault(q, set()).add(key)
            a._down = {q: frozenset(prods) for q, prods in down.items()}
        return a._down

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Tta):
            return NotImplemented
        return self._bta == other._bta

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        a = self._bta
        return (
            f"Tta(states={len(a.states)}, prods={sum(len(v) for v in a.delta.values())}, "
            f"initial={len(a.final)})"
        )


def reverse_bta(a: Bta) -> Tta:
    """The rules of a read top-down; final states become initial states.
    Nothing is copied."""
    t = object.__new__(Tta)
    t._bta = a
    return t


def reverse_tta(t: Tta) -> Bta:
    """The Bta whose rules t reads top-down; initial states become final."""
    return t._bta


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
    a: Bta, t: Tree, leaves: Mapping[str, frozenset[str]], memo: dict | None = None,
    steps: dict | None = None,
) -> frozenset[str]:
    """The states a bottom-up run of a reaches at the root of t.

    Leaves take their states from the table (a seeded run adds the hole).  Nodes
    are listed breadth-first, each node's children together after it; the list
    is overwritten with state sets from the back.  An inner node's set is the
    subset step delta(f, S1 x ... x Sk) of its label and its children's sets,
    which the step table steps holds once computed (_step), since a term of
    thousands of nodes meets only a few.  A sweep passes a memo of subtree
    sets and its one step table; a run without them gets a step table of
    its own.  A node whose children are all in the memo is one step.
    """
    if steps is None:
        steps = {}
    if memo is not None:
        known = memo.get(t)
        if known is not None:
            return known
        key = (t.label, *map(memo.get, t.children))
        if len(key) > 1 and None not in key:
            out = steps.get(key)
            if out is None:
                out = _step(a, steps, key, leaves)
            memo[t] = out
            return out
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
            key = (label, *nodes[end : end + k])
            out = steps.get(key)
            if out is None:
                out = _step(a, steps, key, leaves)
        else:
            out = leaves.get(label)
            if out is None:
                raise _misranked(leaves, label)
        if memo is not None:
            memo[u] = out
        nodes[i] = out
    return nodes[0]


def _step(a: Bta, steps: dict, key: tuple, leaves: Mapping) -> frozenset[str]:
    """The subset step of key = (f, S1, ..., Sk), stored in steps.  Only
    ranked steps are stored, so every misranked node is checked and raises."""
    label, delta = key[0], a.delta
    acc: set[str] = set()
    for combo in itertools.product(*key[1:]):
        acc |= delta.get((label, combo), EMPTY)
    # A rule that fires proves the arity; check it only when none does.
    if not acc and not (label in a.alphabet and a.alphabet.arity(label) == len(key) - 1):
        raise _misranked(leaves, label)
    out = steps[key] = frozenset(acc)
    return out


def _misranked(leaves: Mapping, label: str) -> NotWellRankedError:
    what = "context" if HOLE in leaves else "tree"
    return NotWellRankedError(f"{what} is not well ranked at symbol {label!r}")


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


def _spine_fold(
    a: Bta, x: Tree, s: frozenset[str], at: Address, leaves: Mapping[str, frozenset[str]],
    memo: dict | None = None, steps: dict | None = None,
) -> tuple[frozenset, frozenset]:
    """Fold the spine of context x down to its hole at address at from the root set s.

    Each step (f, i) keeps argument i of every f-production of a state in the
    running set.  Requiring the other arguments to lie in the states of the
    actual siblings gives wpre(a, x, s), the first result.  Dropping that
    check gives pre, exact on a trimmed a, the second (empty if the first is).
    The siblings run with the leaf table leaves (_leaves(a)).  They hold no
    hole, so a sweep of folds may share one leaf table, memo and step table
    for their runs (_run).
    """
    down = reverse_bta(a).delta
    weak = strong = s
    node = x
    for i in at:
        kids = node.children
        if node.label not in a.alphabet or a.alphabet.arity(node.label) != len(kids):
            raise NotWellRankedError(f"context is not well ranked at symbol {node.label!r}")
        sibs = [
            a.states if j == i else _run(a, c, leaves, memo, steps)
            for j, c in enumerate(kids, 1)
        ]
        label = node.label
        weak = frozenset(
            args[i - 1]
            for q in weak
            for f, args in down.get(q, EMPTY)
            if f == label and all(map(frozenset.__contains__, sibs, args))
        )
        strong = frozenset(
            args[i - 1] for q in strong for f, args in down.get(q, EMPTY) if f == label
        )
        node = kids[i - 1]
    return weak, strong if weak else EMPTY


def wpre(a: Bta, x: Tree, s: Iterable[str]) -> frozenset[str]:
    """States q whose seeded run on x can reach a root state inside s."""
    return _spine_fold(a, x, _check_states(a, s), pivot(x), _leaves(a))[0]


def reachable_states(a: Bta) -> frozenset[str]:
    """States with a nonempty downward language (some tree evaluates to them).

    A worklist: each rule waits on its argument positions and fires once,
    when the state at the last of them becomes reachable.
    """
    by_arg: dict[str, list[int]] = {q: [] for q in a.states}
    waiting: list[int] = []  # per non-nullary rule, its positions not yet reached
    fires: list[frozenset[str]] = []
    todo: list[str] = []
    for (_, args), targets in a.delta.items():
        if not args:
            todo += targets
            continue
        for q in args:
            by_arg[q].append(len(fires))
        waiting.append(len(args))
        fires.append(targets)
    reach: set[str] = set()
    while todo:
        q = todo.pop()
        if q in reach:
            continue
        reach.add(q)
        for r in by_arg[q]:
            waiting[r] -= 1
            if not waiting[r]:
                todo += fires[r]
    return frozenset(reach)


def useful_states(a: Bta) -> frozenset[str]:
    """States with a nonempty upward language (some context climbs to a final root)."""
    return _climb(a, reachable_states(a))


def _climb(a: Bta, reach: frozenset[str]) -> frozenset[str]:
    """The states with a nonempty upward language, given the reachable ones.

    A state climbs through a rule only if every sibling position is realizable
    by an actual tree, so sibling arguments must be reachable.  A worklist
    down the productions from the final states.
    """
    down = reverse_bta(a).delta
    useful: set[str] = set()
    todo = list(a.final)
    while todo:
        p = todo.pop()
        if p in useful:
            continue
        useful.add(p)
        for _, args in down.get(p, EMPTY):
            missing = [q for q in args if q not in reach]
            if not missing:
                todo += args
            elif len(missing) == 1:
                todo += missing
    return frozenset(useful)


def _restrict(a: Bta, keep: frozenset[str]) -> Bta:
    """a over the states of keep; a itself when keep drops nothing."""
    if keep == a.states:
        return a
    delta = {
        key: targets & keep
        for key, targets in a.delta.items()
        if keep.issuperset(key[1]) and targets & keep
    }
    return Bta._of(a.alphabet, keep, delta, a.final & keep)


def trim_unreachable(a: Bta) -> Bta:
    """Drop states with empty downward language and all rules mentioning them."""
    return _restrict(a, reachable_states(a))


def trim_empty(a: Bta) -> Bta:
    """Drop states with empty upward language and all rules mentioning them."""
    return _restrict(a, useful_states(a))


def is_deterministic(a: Bta) -> bool:
    """True iff every image of delta is a singleton or empty; an automaton
    that holds a numbered view is, and its rules are not read."""
    return bool(a._view) or all(len(targets) <= 1 for targets in a.delta.values())


def is_codeterministic(a: Bta) -> bool:
    """True iff the final set is a singleton and, per state and non-nullary
    symbol, at most one argument tuple produces it."""
    by_state = ([sym for sym, args in prods if args] for prods in reverse_bta(a).delta.values())
    return len(a.final) == 1 and all(len(syms) == len(set(syms)) for syms in by_state)

