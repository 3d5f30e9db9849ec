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
Every Bta also has a rule index over its state numbers (RuleIndex), built at
most once and each direction when first read.  The subset constructions
(_Subsets) read its upward rows.  A run is a lazy determinization: one
iterative bottom-up evaluator (_run) steps through a subset construction,
one subset id per node, and wpre and pre fold the downward index along the
spine (_spine_fold).
"""

from __future__ import annotations

import functools
import itertools
import re
from operator import contains
from typing import Iterable, Iterator, Mapping

from .errors import BudgetError, NotWellRankedError, TreecaError
from .trees import HOLE, Address, RankedAlphabet, Tree, fresh_lines, pivot

EMPTY: frozenset[str] = frozenset()
_bit = (1).__lshift__  # a state number's bit in the masks of sets of states

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

    __slots__ = ("alphabet", "states", "_delta", "final", "_down", "_view", "_index")

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
        self._down = self._view = self._index = None

    @classmethod
    def _of(cls, alphabet: RankedAlphabet, states: frozenset[str],
            delta: dict[BtaKey, frozenset[str]] | None, final: frozenset[str]) -> Bta:
        """An automaton from fields already in normal form, unchecked: frozenset
        states and final, tuple argument keys over declared states, and
        nonempty frozenset targets.  delta is None only for an automaton that
        Numbered.named backs with a view."""
        a = object.__new__(cls)
        a.alphabet, a.states, a._delta, a.final = alphabet, states, delta, final
        a._down = a._view = a._index = None
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
    def rule_index(self) -> RuleIndex:
        """The rules over state numbers, built at most once (RuleIndex)."""
        if self._index is None:
            self._index = RuleIndex(self)
        return self._index

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


class RuleIndex:
    """The rules of an automaton over its states numbered in sorted-name order.

    A set of states is the bitmask of its members' numbers (mask): final of
    the final states, leaves of each nullary symbol's targets.  up holds
    per symbol of arity k >= 1 a row per argument prefix of k-1 numbers,
    from the last argument's number to the targets' mask; the subset
    constructions read it (_Subsets).  down holds per state number and
    symbol the argument tuples of the rules that target the state and the
    masks of their arguments position by position; co-determinization and
    the spine fold read it.  Built once per automaton (Bta.rule_index),
    each direction from the named rules when it is first read.
    """

    __slots__ = ("alphabet", "delta", "states", "number", "final", "leaves", "_up", "_down")

    def __init__(self, a: Bta):
        # The rules, not a itself: a holds the index, and a cycle would
        # keep both alive until the collector runs.
        self.alphabet, self.delta, self.states = a.alphabet, a.delta, sorted(a.states)
        self.number = {q: i for i, q in enumerate(self.states)}
        self.final = self.mask(a.final)
        self.leaves = {sym: self.mask(a.delta.get((sym, ()), EMPTY)) for sym in a.alphabet.nullary}
        self._up = self._down = None

    def mask(self, names: Iterable[str]) -> int:
        return sum(map(_bit, map(self.number.__getitem__, names)))

    @property
    def up(self) -> dict[str, dict[tuple[int, ...], dict[int, int]]]:
        if self._up is None:
            # The rows are gathered by the names of their argument prefix,
            # which are numbered once per prefix, and each distinct target
            # set is turned into a mask once.
            alphabet, num = self.alphabet, self.number
            named: dict[str, dict[tuple[str, ...], dict[int, int]]] = {
                sym: {} for sym in alphabet.symbols if alphabet.arity(sym)
            }
            masks: dict[frozenset[str], int] = {}
            for (sym, args), targets in self.delta.items():
                if args:
                    mask = masks.get(targets)
                    if mask is None:
                        mask = masks[targets] = self.mask(targets)
                    named[sym].setdefault(args[:-1], {})[num[args[-1]]] = mask
            self._up = {
                sym: {tuple(map(num.__getitem__, p)): row for p, row in rows.items()}
                for sym, rows in named.items()
            }
        return self._up

    @property
    def down(self) -> list[dict[str, tuple[list[tuple[str, ...]], tuple[int, ...]]]]:
        if self._down is None:
            # The argument tuples stay the rules' own: numbering each would
            # make a container per rule, and the collector's passes over
            # them cost more than the fold saves.
            prods: dict[str, dict[str, list[tuple[str, ...]]]] = {q: {} for q in self.states}
            for (sym, args), targets in self.delta.items():
                for t in targets:
                    prods[t].setdefault(sym, []).append(args)
            self._down = [
                {sym: (tuples, tuple(map(self.mask, map(set, zip(*tuples)))))
                 for sym, tuples in prods[q].items()}
                for q in self.states
            ]
        return self._down


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
    run, and a subset is final when its mask meets final_mask.  The rows
    are a's upward rule index (RuleIndex.up).  The residual of a prefix of
    k-1 subsets is the OR of the rows over the product of their members,
    computed once per prefix; line maps it over a sequence of last subsets,
    ORing its entries over each one's members, so a transition costs what
    its subsets hold, not the number of rules.  A run steps one node at a
    time, one line of one last subset, and keeps each step in steps; a
    product walk calls line for the prefixes it reaches, so either builds
    only the subsets it reaches; close runs the discovery loop to the full
    determinization over the same lines and returns it as a numbered view
    over subset ids, the only place subsets are named; subset gives one's
    states.
    """

    def __init__(self, a: Bta, budget: int):
        ix = a.rule_index
        self.a, self.states, self.final_mask = a, ix.states, ix.final
        self.arity = a.alphabet.entries
        self.pool = _SubsetPool(budget)
        # Per non-nullary symbol: its rows, and the residuals by prefix of subset ids.
        self.index = {sym: (rows, {}) for sym, rows in ix.up.items()}
        self.leaves = {sym: self.pool.intern(mask) for sym, mask in ix.leaves.items()}
        self.steps: dict[tuple, int] = {}
        self.named: dict[int, frozenset[str]] = {}

    def subset(self, i: int) -> frozenset[str]:
        """The states of a in subset i, named once per subset: a fold asks
        for its siblings' subsets at every step."""
        got = self.named.get(i)
        if got is None:
            got = self.named[i] = frozenset(map(self.states.__getitem__, self.pool.members[i]))
        return got

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
        and named after their subsets.  Subsets are discovered one level at a
        time, as the product walk discovers pairs: when subsets lo..hi-1 are
        new, each line that trees.fresh_lines lists extends its prefix's line
        over the last subsets first..hi-1, so every prefix's line ends up
        over all subsets in order.  A symbol's table is its lines joined in
        the product order of the prefixes."""
        order = self.pool.order
        lines: dict[str, dict[tuple[int, ...], list[int]]] = {sym: {} for sym in self.index}
        lo = 0
        while lo < len(order):
            hi = len(order)
            for sym, prefix, first in fresh_lines(self.arity, lo, hi):
                lines[sym].setdefault(prefix, []).extend(self.line(sym, prefix, range(first, hi)))
            lo = hi
        n = len(order)
        tables: dict[str, list[int] | dict[int, int]] = {
            sym: [target] for sym, target in self.leaves.items()
        }
        for sym, got in lines.items():
            prefixes = itertools.product(range(n), repeat=self.arity[sym] - 1)
            tables[sym] = list(itertools.chain.from_iterable(map(got.__getitem__, prefixes)))
        names = [subset_name(map(self.states.__getitem__, ms)) for ms in self.pool.members]
        final = frozenset(i for i, mask in enumerate(order) if mask & self.final_mask)
        return Numbered(self.a.alphabet, names, tables, final, True)


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


def _run_subsets(a: Bta) -> _Subsets:
    """The subset construction that runs of a step through, built lazily;
    its pool is bounded only by the 2^n subsets of a's n states, so no run
    exceeds a budget."""
    return _Subsets(a, 1 << len(a.states))


def _run(s: _Subsets, t: Tree, leaves: Mapping[str, int], memo: dict | None = None) -> int:
    """The id in s of the subset of states a bottom-up run reaches at the root of t.

    Leaves take their subset ids from the table (a seeded run adds the hole).
    Nodes are listed breadth-first, each node's children together after it;
    the list is overwritten with subset ids from the back.  An inner node's
    id is the subset step of its label over its children's ids, one line of
    one last argument (_Subsets.line), which s's step table holds once
    computed (_add_step), since a term of thousands of nodes meets only a
    few.  A sweep runs every tree through one s and passes a memo of subtree
    ids; a node whose children are all in the memo is one step.
    """
    steps = s.steps
    if memo is not None:
        known = memo.get(t)
        if known is not None:
            return known
        key = (t.label, *map(memo.get, t.children))
        if len(key) > 1 and None not in key:
            out = steps.get(key)
            if out is None:
                out = _add_step(s, key, leaves)
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
    end = len(nodes)  # nodes[end:] hold subset ids already used by a parent
    for i in range(end - 1, -1, -1):
        u = nodes[i]
        if u.__class__ is int:
            continue
        label, k = u.label, len(u.children)
        if k:
            end -= k
            key = (label, *nodes[end : end + k])
            out = steps.get(key)
            if out is None:
                out = _add_step(s, key, leaves)
        else:
            out = leaves.get(label)
            if out is None:
                raise _misranked(leaves, label)
        if memo is not None:
            memo[u] = out
        nodes[i] = out
    return nodes[0]


def _add_step(s: _Subsets, key: tuple, leaves: Mapping) -> int:
    """The step of key = (f, id1, ..., idk), stored in s's step table once f
    is checked to take k arguments: a misranked node has no row to read."""
    label = key[0]
    if s.arity.get(label) != len(key) - 1:
        raise _misranked(leaves, label)
    out = s.steps[key] = s.line(label, key[1:-1], key[-1:])[0]
    return out


def _misranked(leaves: Mapping, label: str) -> NotWellRankedError:
    what = "context" if HOLE in leaves else "tree"
    return NotWellRankedError(f"{what} is not well ranked at symbol {label!r}")


def post_tree(a: Bta, t: Tree, s: Iterable[str]) -> frozenset[str]:
    """States reachable at the root of t when every run leaf stays inside s.

    The recursion is post(f[t1..tn], S) = delta(f[post(t1,S) x ... x post(tn,S)])
    with post(a[], S) = delta(a[]) intersect S.
    """
    keep = a.rule_index.mask(_check_states(a, s))
    sub = _run_subsets(a)
    leaves = {sym: sub.pool.intern(mask & keep) for sym, mask in a.rule_index.leaves.items()}
    return sub.subset(_run(sub, t, leaves))


def accepts(a: Bta, t: Tree) -> bool:
    """True iff some run of a on t ends in a final state."""
    sub = _run_subsets(a)
    return bool(sub.pool.order[_run(sub, t, sub.leaves)] & sub.final_mask)


def seeded_post(a: Bta, x: Tree, q: str) -> frozenset[str]:
    """Root states of runs on context x whose hole is seeded with state q.

    Ordinary leaves evaluate freely through the nullary rules; only the hole
    is pinned to q.
    """
    hole = a.rule_index.mask(_check_states(a, [q]))
    pivot(x)  # validates there is exactly one hole
    sub = _run_subsets(a)
    return sub.subset(_run(sub, x, {**sub.leaves, HOLE: sub.pool.intern(hole)}))


def _spine_fold(
    s: _Subsets, x: Tree, seed: int, at: Address, memo: dict | None = None
) -> tuple[int, int]:
    """Fold the spine of context x down to its hole at address at from the
    root subset mask seed, giving two subset ids in s.

    Each step (f, i) reads the f-rules that target the running set's members
    downward (RuleIndex.down); the members are read off the pool by
    interning the running mask.  The strong set ORs their argument masks at
    position i: pre, exact on a trimmed automaton, the second result (empty
    if the first is).  The weak set keeps argument i of the argument tuples
    whose other arguments are states of the actual siblings' subsets: wpre,
    the first result.  The siblings run through s with its leaf table;
    they hold no hole, so a sweep of folds may share one s and memo for
    their runs (_run).
    """
    ix, pool = s.a.rule_index, s.pool
    down = ix.down
    weak = strong = seed
    node = x
    for i in at:
        label, kids = node.label, node.children
        if s.arity.get(label) != len(kids):
            raise NotWellRankedError(f"context is not well ranked at symbol {label!r}")
        sibs = [
            s.a.states if j == i else s.subset(_run(s, c, s.leaves, memo))
            for j, c in enumerate(kids, 1)
        ]
        rules = [down[q][label] for q in pool.members[pool.intern(weak)] if label in down[q]]
        weak = ix.mask({
            args[i - 1] for tuples, _ in rules for args in tuples if all(map(contains, sibs, args))
        })
        rules = [down[q][label] for q in pool.members[pool.intern(strong)] if label in down[q]]
        strong = functools.reduce(int.__or__, (masks[i - 1] for _, masks in rules), 0)
        node = kids[i - 1]
    return pool.intern(weak), pool.intern(strong if weak else 0)


def wpre(a: Bta, x: Tree, s: Iterable[str]) -> frozenset[str]:
    """States q whose seeded run on x can reach a root state inside s."""
    sub = _run_subsets(a)
    return sub.subset(_spine_fold(sub, x, a.rule_index.mask(_check_states(a, s)), pivot(x))[0])


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

