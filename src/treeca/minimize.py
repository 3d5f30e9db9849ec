"""Minimization and comparison of tree automata.

Deterministic automata are minimized by Moore-style partition refinement over
indexed transitions: each state's row lists, once, the targets of the rules
with the state at each argument position, and two states stay merged only
while their rows map to the same blocks.
Language equivalence is one breadth-first product walk over the pairs of
state subsets that trees reach in the two automata, which also finds a
separating tree of minimal height.  Each side steps through its own subset
construction (transforms._Subsets) on demand, so a walk that finds a tree
early builds only what it reached.  Path-closedness is the same walk between
an automaton and its co-determinization; the co-deterministic and
double-reversal minimizers close those subset constructions into the full
determinizations.  A canonical renaming serves the isomorphism checks.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property

from .automata import (
    Bta,
    is_codeterministic,
    is_deterministic,
    reachable_states,
    reverse_bta,
    trim_empty,
    trim_unreachable,
)
from .errors import NotDeterministicError, NotPathClosedError, TreecaError
from .transforms import (
    DEFAULT_STATE_BUDGET,
    _Subsets,
    codeterminize,
    complete,
    determinize,
    subset_name,
)
from .trees import Tree, fresh_tuples


@dataclass(frozen=True)
class Partition:
    """A partition of a state set into disjoint nonempty blocks."""

    blocks: tuple[frozenset[str], ...]

    @cached_property
    def block_of(self) -> dict[str, int]:
        """Map each state to the index of its block."""
        return {q: i for i, block in enumerate(self.blocks) for q in block}

    def __len__(self) -> int:
        return len(self.blocks)


def _refine(c: Bta) -> Partition:
    """Coarsest congruence of a complete deterministic automaton that
    separates final from non-final states.

    States are numbered in sorted order and each gets a row, built once: its
    own number, then for every symbol, argument position i and combination of
    the other arguments in lexicographic order, the target of that rule.  A
    Moore round maps every row through the current block numbers and numbers
    the distinct results in state order; the rounds stop when the block
    count stops growing.  The rows hold k ints per rule of arity k.
    """
    states = sorted(c.states)
    n = len(states)
    index = {q: i for i, q in enumerate(states)}
    # tables[sym][j] is the target index of the rule whose argument indices
    # spell j in base n, most significant first.
    tables = {
        sym: [0] * n ** c.alphabet.arity(sym)
        for sym in c.alphabet.symbols
        if c.alphabet.arity(sym) > 0
    }
    for (sym, args), targets in c.delta.items():
        if args:
            j = 0
            for q in args:
                j = j * n + index[q]
            tables[sym][j] = index[next(iter(targets))]
    # With q at position i, each prefix of arguments before i selects one
    # contiguous slice of the table: the targets over every suffix after i.
    rows = [[q] for q in range(n)]
    for sym, table in tables.items():
        k = c.alphabet.arity(sym)
        for i in range(k):
            step = n ** (k - 1 - i)
            for q, row in enumerate(rows):
                for base in range(q * step, len(table), n * step):
                    row += table[base : base + step]
    block = [1 if q in c.final else 0 for q in states]
    nblocks = len(set(block))
    while True:
        fresh: dict[tuple[int, ...], int] = {}
        block = [
            fresh.setdefault(tuple(map(block.__getitem__, row)), len(fresh))
            for row in rows
        ]
        if len(fresh) == nblocks:
            break
        nblocks = len(fresh)
    members: dict[int, set[str]] = {}
    for q, b in zip(states, block):
        members.setdefault(b, set()).add(q)
    blocks = sorted((frozenset(m) for m in members.values()), key=sorted)
    return Partition(tuple(blocks))


def minimize_dbta(d: Bta) -> Bta:
    """The minimal complete deterministic automaton for the language of d.

    The input is completed and stripped of unreachable states, then merged
    along the coarsest congruence.  The result is total over its states; a
    rejecting sink class is kept when some tree has no accepting context.
    """
    if not is_deterministic(d):
        raise NotDeterministicError("minimize_dbta requires a deterministic automaton")
    return _merge_classes(trim_unreachable(complete(d)))


def _merge_classes(c: Bta) -> Bta:
    """c merged along its coarsest congruence, classes named after their
    members.  c must be deterministic, total and fully reachable, as every
    determinization is."""
    if not c.states:
        return c
    part = _refine(c)
    name_of = {q: subset_name(block) for block in part.blocks for q in block}
    named = {q: frozenset((name,)) for q, name in name_of.items()}
    # Rules whose arguments merge blockwise have targets in one block.
    delta = {
        (sym, tuple(map(name_of.__getitem__, args))): named[next(iter(targets))]
        for (sym, args), targets in c.delta.items()
    }
    final = frozenset(name_of[q] for q in c.final)
    return Bta._of(c.alphabet, frozenset(name_of.values()), delta, final)


def minimize_bta(
    a: Bta, *, strip_dead: bool = False, budget: int = DEFAULT_STATE_BUDGET
) -> Bta:
    """Determinize and minimize.  With strip_dead the rejecting sink class is
    removed, giving a partial automaton for the same language."""
    m = _merge_classes(determinize(a, budget=budget))
    return trim_empty(m) if strip_dead else m


def _path_closed_constructions(a: Bta, budget: int) -> tuple[Bta, _Subsets, _Subsets] | None:
    """(c, sa, sc) when the language of a is path-closed, else None.

    c co-determinizes the trimmed automaton a1, and sa and sc are the subset
    constructions of a1 and c, as far as the product walk built them.
    Co-determinization always accepts a superset of the language, with
    equality exactly for path-closed languages, so the walk decides; when it
    finds no tree, every reachable subset of each side has appeared in some
    pair.
    """
    a1 = trim_unreachable(a)
    c = codeterminize(a1, pretrim=False, budget=budget)
    sa, sc = _Subsets(a1, budget), _Subsets(c, budget)
    if _product_walk(sa, sc) is not None:
        return None
    return c, sa, sc


def _require_path_closed(a: Bta, budget: int, task: str) -> tuple[Bta, _Subsets, _Subsets]:
    """The constructions of a path-closed a; NotPathClosedError naming the
    task otherwise."""
    found = _path_closed_constructions(a, budget)
    if found is None:
        raise NotPathClosedError(f"{task} requires a path-closed language")
    return found


def is_path_closed(a: Bta, *, budget: int = DEFAULT_STATE_BUDGET) -> bool:
    """True iff the language of a is closed under recombining accepted paths."""
    return _path_closed_constructions(a, budget) is not None


def min_codbta(a: Bta, *, budget: int = DEFAULT_STATE_BUDGET) -> Bta:
    """The minimal co-deterministic automaton, defined for path-closed
    languages only: co-determinize the minimal deterministic automaton."""
    sa = _require_path_closed(a, budget, "co-deterministic minimization")[1]
    return codeterminize(sa.close()[0], pretrim=False, budget=budget)


def brzozowski(a: Bta, *, budget: int = DEFAULT_STATE_BUDGET) -> Bta:
    """Minimize by double reversal: reverse, determinize top-down, reverse,
    determinize.  Sound exactly for path-closed languages, so anything else
    is rejected.

    Top-down determinization of the reversed trimmed automaton, read
    bottom-up again, is its co-determinization, so the result is the
    determinized co-determinization the path-closedness check walked.
    """
    return _require_path_closed(a, budget, "double-reversal minimization")[2].close()[0]


def _discovery_order(
    first: list[str], expand: Callable[[int, list[str]], list[str]]
) -> list[str]:
    """States numbered in discovery order: those of first, then, for each
    numbered state m in turn, those expand(m, order) lists; a repeat keeps
    its first number."""
    order: list[str] = []
    seen: set[str] = set()
    found, m = first, 0
    while True:
        for q in found:
            if q not in seen:
                seen.add(q)
                order.append(q)
        if m == len(order):
            return order
        found = expand(m, order)
        m += 1


def _renamed(a: Bta, order: list[str]) -> Bta:
    """The states of order renamed "0".."n-1" in that order, with the rules
    whose arguments are all among them; their targets must be too."""
    names = {q: str(i) for i, q in enumerate(order)}
    delta = {
        (sym, tuple(map(names.__getitem__, args))): frozenset(map(names.__getitem__, targets))
        for (sym, args), targets in a.delta.items()
        if all(q in names for q in args)
    }
    final = frozenset(names[q] for q in a.final if q in names)
    return Bta._of(a.alphabet, frozenset(names.values()), delta, final)


def canonical_form(d: Bta) -> Bta:
    """Rename the reachable part of a deterministic automaton to "0".."n-1".

    States are numbered by a breadth-first walk that takes nullary symbols in
    sorted order and then, layer by layer, every symbol in sorted order with
    argument tuples in lexicographic index order.  The walk only sees
    reachable states, so unreachable ones are dropped.  Two deterministic,
    fully reachable automata are isomorphic iff their canonical forms are
    equal.
    """
    if not is_deterministic(d):
        raise NotDeterministicError("canonical_form requires a deterministic automaton")
    delta = d.delta
    arities = [(sym, d.alphabet.arity(sym)) for sym in d.alphabet.symbols]

    def expand(m: int, order: list[str]) -> list[str]:
        found: list[str] = []
        for sym, k in arities:
            for combo in fresh_tuples(m, m + 1, k):
                found += delta.get((sym, tuple(map(order.__getitem__, combo))), ())
        return found

    first = [q for sym in d.alphabet.nullary for q in delta.get((sym, ()), ())]
    return _renamed(d, _discovery_order(first, expand))


def _codet_canonical(a: Bta) -> Bta | None:
    """Canonical renaming by a downward walk from the single final state;
    None when the walk does not cover every state."""
    down = reverse_bta(a).delta

    def expand(m: int, order: list[str]) -> list[str]:
        # Codeterministic: one argument tuple per symbol, so sorting orders by symbol.
        return [q for _, args in sorted(down.get(order[m], ())) for q in args]

    order = _discovery_order(list(a.final), expand)
    return _renamed(a, order) if len(order) == len(a.states) else None


def _signatures(a: Bta) -> dict[str, tuple]:
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


def _backtracking_iso(a: Bta, b: Bta) -> bool:
    siga = _signatures(a)
    sigb = _signatures(b)
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


def isomorphic(a: Bta, b: Bta) -> bool:
    """True iff some renaming of states turns a into b.

    Deterministic fully reachable automata and co-deterministic fully covered
    ones are compared through canonical renamings; everything else falls back
    to a backtracking search pruned by local state signatures.
    """
    if a.alphabet != b.alphabet:
        return False
    if (
        len(a.states) != len(b.states)
        or len(a.final) != len(b.final)
        or len(a.delta) != len(b.delta)
        or sum(len(v) for v in a.delta.values()) != sum(len(v) for v in b.delta.values())
    ):
        return False
    if (
        is_deterministic(a)
        and is_deterministic(b)
        and reachable_states(a) == a.states
        and reachable_states(b) == b.states
    ):
        return canonical_form(a) == canonical_form(b)
    if is_codeterministic(a) and is_codeterministic(b):
        ca = _codet_canonical(a)
        cb = _codet_canonical(b)
        if ca is not None and cb is not None:
            return ca == cb
    return _backtracking_iso(a, b)


def _product_walk(sa: _Subsets, sb: _Subsets) -> Tree | None:
    """A tree of minimal height accepted by exactly one of the automata that
    sa and sb determinize, or None: a breadth-first walk over the pairs of
    subsets that trees reach in both, one height at a time.  Each side steps
    through its own subset construction, so only the subsets the walk
    reaches are built."""
    ma, fa = sa.pool.order, sa.a.final
    mb, fb = sb.pool.order, sb.a.final
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
            if ma[pa].isdisjoint(fa) != mb[pb].isdisjoint(fb):
                return wit
        lo = len(explored)
        explored.extend(fresh)
        nxt: list[tuple[int, int, Tree]] = []
        for sym in alphabet.symbols:
            for combo in fresh_tuples(lo, len(explored), alphabet.arity(sym)):
                entries = [explored[i] for i in combo]
                pa = sa.step(sym, tuple(e[0] for e in entries))
                pb = sb.step(sym, tuple(e[1] for e in entries))
                if (pa, pb) not in seen:
                    seen.add((pa, pb))
                    nxt.append(
                        (pa, pb, Tree(sym, tuple(e[2] for e in entries)))
                    )
        fresh = nxt
    return None


def separating_tree(
    a: Bta, b: Bta, *, budget: int = DEFAULT_STATE_BUDGET
) -> Tree | None:
    """A tree of minimal height accepted by exactly one of a and b, or None.

    Runs a breadth-first product walk over the subset constructions of a and
    b, built only as far as the walk reaches, so the witness height is
    bounded by the number of reachable subset pairs.
    """
    if a.alphabet != b.alphabet:
        raise TreecaError("separating_tree requires automata over the same alphabet")
    return _product_walk(_Subsets(a, budget), _Subsets(b, budget))


def equivalent(a: Bta, b: Bta, *, budget: int = DEFAULT_STATE_BUDGET) -> bool:
    """True iff a and b accept the same language.

    Automata over different alphabets are never considered equivalent.
    Otherwise the product walk of separating_tree decides: the languages are
    equal iff it finds no separating tree.
    """
    return a.alphabet == b.alphabet and separating_tree(a, b, budget=budget) is None
