"""Minimization and comparison of tree automata.

Deterministic automata are minimized, merged and canonically renamed on
their numbered view (automata.Numbered): states are numbers and each
symbol's rule targets sit in one table, so names are built only for the
automaton returned.  The subset construction hands its view over directly.
Refinement is Moore-style over indexed transitions: each state's row lists,
once, the targets of the rules with the state at each argument position,
and two states stay merged only while their rows map to the same blocks.
Language equivalence is one breadth-first product walk over the pairs of
state subsets that trees reach in the two automata, which also finds a
separating tree of minimal height.  Each side steps through its own subset
construction (transforms._Subsets) on demand, so a walk that finds a tree
early builds only what it reached.  Path-closedness is the same walk between
an automaton and its co-determinization; the co-deterministic and
double-reversal minimizers close those subset constructions into the full
determinizations.  The minimality checks read the same pieces: direct
determinization is minimal iff refining its subset construction merges
nothing, and co-determinization iff no two of its states lie in exactly the
same subsets the path-closedness walk met.  Isomorphism is one search that
maps states pair by pair, adding every pair the rules force before it branches.
"""

from __future__ import annotations

import itertools
from collections import Counter
from collections.abc import Iterator

from .automata import (
    EMPTY,
    Bta,
    BtaKey,
    Numbered,
    _climb,
    _restrict,
    is_deterministic,
    reverse_bta,
    subset_name,
    trim_unreachable,
)
from .errors import (
    DEFAULT_STATE_BUDGET,
    NotDeterministicError,
    NotPathClosedError,
    TreecaError,
)
from .transforms import _Subsets, _codeterminize, complete
from .trees import Tree, fresh_tuples


def _refine(v: Numbered) -> list[int]:
    """The block of each state of a total deterministic automaton under its
    coarsest congruence that separates final from non-final states; blocks
    are numbered in the order of their least state number.

    Each state gets a row, built once from the view's tables: its own
    number, then for every symbol, argument position i and combination of
    the other arguments in lexicographic order, the target of that rule.  A
    Moore round maps every row through the current block numbers and numbers
    the distinct results in state order; the rounds stop when the block
    count stops growing.  The rows hold k ints per rule of arity k.
    """
    n = len(v.names)
    # With q at position i, each prefix of arguments before i selects one
    # contiguous slice of the table: the targets over every suffix after i.
    rows = [[q] for q in range(n)]
    for sym, table in v.tables.items():
        k = v.alphabet.arity(sym)
        for i in range(k):
            step = n ** (k - 1 - i)
            for q, row in enumerate(rows):
                for base in range(q * step, len(table), n * step):
                    row += table[base : base + step]
    block = [1 if q in v.final else 0 for q in range(n)]
    nblocks = len(set(block))
    while True:
        fresh: dict[tuple[int, ...], int] = {}
        block = [
            fresh.setdefault(tuple(map(block.__getitem__, row)), len(fresh))
            for row in rows
        ]
        if len(fresh) == nblocks:
            return block
        nblocks = len(fresh)


def _blocks(block: list[int]) -> list[list[int]]:
    """The members of each block of a refinement, in state order."""
    members: list[list[int]] = [[] for _ in range(max(block, default=-1) + 1)]
    for q, b in enumerate(block):
        members[b].append(q)
    return members


def minimize_dbta(d: Bta) -> Bta:
    """The minimal complete deterministic automaton for the language of d.

    The input is completed and stripped of unreachable states, then merged
    along the coarsest congruence.  The result is total over its states; a
    rejecting sink class is kept when some tree has no accepting context.
    """
    if not is_deterministic(d):
        raise NotDeterministicError("minimize_dbta requires a deterministic automaton")
    return _merge_classes(trim_unreachable(complete(d)).numbered)


def _merge_classes(v: Numbered) -> Bta:
    """The automaton of view v merged along its coarsest congruence, classes
    named after their members.  v must be total and fully reachable, as
    every determinization is.  Rules whose arguments merge blockwise have
    targets in one block, so each merged rule is read off the rule between
    the least members of its argument blocks."""
    block = _refine(v)
    members = _blocks(block)
    n, first = len(v.names), [m[0] for m in members]
    tables: dict[str, list[int] | dict[int, int]] = {}
    for sym, table in v.tables.items():
        k = v.alphabet.arity(sym)
        offsets = [[q * n ** (k - 1 - i) for q in first] for i in range(k)]
        tables[sym] = [block[table[sum(at)]] for at in itertools.product(*offsets)]
    names = [subset_name(map(v.names.__getitem__, m)) for m in members]
    final = frozenset(block[q] for q in v.final)
    return Numbered(v.alphabet, names, tables, final, True).named()


def minimize_bta(
    a: Bta, *, strip_dead: bool = False, budget: int = DEFAULT_STATE_BUDGET
) -> Bta:
    """Determinize and minimize.  With strip_dead the rejecting sink class is
    removed, giving a partial automaton for the same language; every state
    of a determinization is reachable, so only the climb from the final
    states runs.  The subset construction hands its numbered table straight
    to the merge, so only the minimal automaton gets names."""
    m = _merge_classes(_Subsets(a, budget).close())
    return _restrict(m, _climb(m, m.states)) if strip_dead else m


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
    c = _codeterminize(a1, budget)
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
    languages only: co-determinize the determinization of the trimmed
    automaton, unminimized, whose subset construction the path-closedness
    check has already begun."""
    sa = _require_path_closed(a, budget, "co-deterministic minimization")[1]
    return _codeterminize(sa.close().named(), budget)


def brzozowski(a: Bta, *, budget: int = DEFAULT_STATE_BUDGET) -> Bta:
    """Minimize by double reversal: reverse, determinize top-down, reverse,
    determinize.  Sound exactly for path-closed languages, so anything else
    is rejected.

    Top-down determinization of the reversed trimmed automaton, read
    bottom-up again, is its co-determinization, so the result is the
    determinized co-determinization the path-closedness check walked.
    """
    return _require_path_closed(a, budget, "double-reversal minimization")[2].close().named()


def check_gen_det_u(a: Bta, *, budget: int = DEFAULT_STATE_BUDGET) -> bool:
    """True iff determinizing a directly yields the minimal deterministic
    automaton, i.e. distinct reachable state subsets are never language
    equivalent.

    The determinization is total and fully reachable, so it is minimal iff
    its refinement merges no two subsets: the check is gen_det_u_witness
    finding no witness.
    """
    return gen_det_u_witness(a, budget=budget) is None


def gen_det_u_witness(
    a: Bta, *, budget: int = DEFAULT_STATE_BUDGET
) -> tuple[str, str, frozenset[str], frozenset[str]] | None:
    """None when determinization is already minimal; otherwise a witness
    (q, m, s1, s2): two distinct reachable subsets s1 and s2 that merge into
    the same minimal state m, with q a state in their symmetric difference.

    m is the least merged minimal state by name, and s1 and s2 are the two
    least determinized states by name in its block.  The refinement reads
    the subset construction's numbered tables, so no rule of the
    determinization is named.
    """
    subsets = _Subsets(a, budget)
    view = subsets.close()
    names = view.names
    merged = [block for block in _blocks(_refine(view)) if len(block) > 1]
    if not merged:
        return None
    by_name = {subset_name(map(names.__getitem__, block)): block for block in merged}
    m = min(by_name)
    i, j = sorted(by_name[m], key=names.__getitem__)[:2]
    s1, s2 = subsets.pool.order[i], subsets.pool.order[j]
    return (min(s1 ^ s2), m, s1, s2)


def check_gen_det_d(a: Bta, *, budget: int = DEFAULT_STATE_BUDGET) -> bool:
    """True iff co-determinizing the trimmed automaton directly yields the
    minimal co-deterministic automaton.  Only defined for path-closed
    languages; anything else is rejected.

    The co-determinization c is reduced, so it is minimal iff no two of its
    states accept the same trees, i.e. iff no two lie in exactly the same
    reachable subsets of its determinization (the state sets trees reach).
    The path-closedness walk that finds no separating tree has met every
    one of them.
    """
    return _check_gen_det_d(a, budget)[0]


def _check_gen_det_d(a: Bta, budget: int) -> tuple[bool, bool]:
    """The verdict of check_gen_det_d, and whether its trim removed states of a."""
    c, sa, sc = _require_path_closed(a, budget, "the downward determinization check")
    subsets = sc.pool.order
    vectors = {frozenset(i for i, s in enumerate(subsets) if q in s) for q in c.states}
    return len(vectors) == len(c.states), sa.a is not a


def canonical_form(d: Bta) -> Bta:
    """Rename the reachable part of a deterministic automaton to "0".."n-1".

    States are numbered by a breadth-first walk that takes nullary symbols in
    sorted order and then, layer by layer, every symbol in sorted order with
    argument tuples in lexicographic index order; a repeat keeps its first
    number.  Each rule is renamed as the walk meets it, so unreachable states
    and their rules are dropped.  The walk reads the numbered view: a total
    one by looking every fresh tuple up in its tables, a partial one by
    listing the rules each state is an argument of, so memory stays linear
    in the rules.  Two deterministic, fully reachable automata are
    isomorphic iff their canonical forms are equal.
    """
    v = d.numbered
    if v is None:
        raise NotDeterministicError("canonical_form requires a deterministic automaton")
    n, tables, total = len(v.names), v.tables, v.total
    symbols = v.alphabet.symbols
    arities = [(s, v.alphabet.arity(sym), tables[sym]) for s, sym in enumerate(symbols)]
    number = [-1] * n  # each state's canonical number, -1 until the walk meets it
    order: list[int] = []  # the states by canonical number

    # fresh(m): the rules with the m-th state as an argument and only earlier
    # ones besides, as (symbol rank, canonical arguments, target), in walk order.
    if total:
        def fresh(m: int) -> list[tuple[int, tuple[int, ...], int]]:
            found = []
            for s, k, table in arities:
                for combo in fresh_tuples(m, m + 1, k):
                    j = 0
                    for c in combo:
                        j = j * n + order[c]
                    found.append((s, combo, table[j]))
            return found
    else:
        # Per state, the rules it is an argument of, decoded from the tables.
        uses: list[list[tuple[int, tuple[int, ...], int]]] = [[] for _ in range(n)]
        for s, k, table in arities:
            for j, t in table.items() if k else ():
                digits = []
                for _ in range(k):
                    j, q = divmod(j, n)
                    digits.append(q)
                args = tuple(reversed(digits))
                for q in set(args):
                    uses[q].append((s, args, t))

        def fresh(m: int) -> list[tuple[int, tuple[int, ...], int]]:
            found = []
            for s, args, t in uses[order[m]]:
                combo = tuple(map(number.__getitem__, args))
                if min(combo) >= 0 and max(combo) == m:
                    found.append((s, combo, t))
            return sorted(found)

    found = [
        (s, (), table[0] if total else table.get(0)) for s, k, table in arities if not k
    ]
    names: list[str] = []
    one: list[frozenset[str]] = []
    delta: dict[BtaKey, frozenset[str]] = {}
    m = 0
    while True:
        for s, combo, t in found:
            if t is None:
                continue
            c = number[t]
            if c < 0:
                c = number[t] = len(order)
                order.append(t)
                names.append(str(c))
                one.append(frozenset(names[-1:]))
            delta[(symbols[s], tuple(map(names.__getitem__, combo)))] = one[c]
        if m == len(order):
            break
        found = fresh(m)
        m += 1
    final = frozenset(names[number[q]] for q in v.final if number[q] >= 0)
    return Bta._of(v.alphabet, frozenset(names), delta, final)


def _profiles(a: Bta) -> tuple[dict[str, dict[str, list[tuple[str, ...]]]], dict[str, tuple]]:
    """The argument tuples that produce each state, by symbol, and each
    state's profile, which every renaming keeps: its finality, its number of
    argument occurrences and its number of productions per symbol."""
    occurrences = Counter(q for _, args in a.delta for q in args)
    prods: dict[str, dict[str, list[tuple[str, ...]]]] = {q: {} for q in a.states}
    for q, keys in reverse_bta(a).delta.items():
        for sym, args in keys:
            prods[q].setdefault(sym, []).append(args)
    return prods, {
        q: (q in a.final, occurrences[q], tuple(sorted((s, len(t)) for s, t in prods[q].items())))
        for q in a.states
    }


def isomorphic(a: Bta, b: Bta) -> bool:
    """True iff some renaming of states turns a into b.

    One search maps the states of a to states of b, adding every pair the
    mapping so far forces: the single target of a rule whose arguments are
    all mapped (nullary rules first), the single final state, and the
    arguments of a mapped state's only production for a symbol.  When
    nothing more is forced it branches on the first unmapped state in sorted
    order, over the unused states of b with the same profile, and a conflict
    backtracks to the last branch.  A complete mapping is a renaming: force
    checks each rule once the last of its argument and target states is
    mapped, so every rule of a goes into a rule of b, and the equal counts
    of rule keys and transitions make each image exact (the target-count
    test in force only prunes the search).  Deterministic, fully reachable
    automata and co-deterministic ones are mapped without branching.
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
    (prods_a, profile_a), (prods_b, profile_b) = _profiles(a), _profiles(b)
    if Counter(profile_a.values()) != Counter(profile_b.values()):
        return False
    candidates: dict[tuple, list[str]] = {}
    for p in sorted(b.states):
        candidates.setdefault(profile_b[p], []).append(p)
    touching: dict[str, list[BtaKey]] = {q: [] for q in a.states}
    for key, targets in a.delta.items():
        for q in {*key[1], *targets}:
            touching[q].append(key)
    mapping: dict[str, str] = {}
    used: set[str] = set()
    trail: list[str] = []

    def image(sym: str, args: tuple[str, ...]) -> frozenset[str]:
        return b.delta.get((sym, tuple(map(mapping.__getitem__, args))), EMPTY)

    def force(pairs: list[tuple[str, str]]) -> bool:
        """Map the pairs and everything they force; False on a conflict.  A
        rule of a is checked whenever a state it mentions is mapped and its
        arguments all are: its image in b must have as many targets and hold
        every mapped one."""
        while pairs:
            q, p = pairs.pop()
            if q in mapping:
                if mapping[q] != p:
                    return False
                continue
            if p in used or profile_a[q] != profile_b[p]:
                return False
            mapping[q] = p
            used.add(p)
            trail.append(q)
            for sym, tuples in prods_a[q].items():
                if len(tuples) == 1:
                    pairs.extend(zip(tuples[0], prods_b[p][sym][0]))
            for sym, args in touching[q]:
                if mapping.keys() >= set(args):
                    targets, found = a.delta[(sym, args)], image(sym, args)
                    if len(found) != len(targets) or any(
                        mapping[t] not in found for t in targets if t in mapping
                    ):
                        return False
                    if len(targets) == 1:
                        pairs.append((next(iter(targets)), next(iter(found))))
        return True

    # Equal profiles give each nullary symbol as many targets in b as in a.
    seeds = [
        (next(iter(a.delta[(sym, ())])), next(iter(b.delta[(sym, ())])))
        for sym in a.alphabet.nullary
        if len(a.delta.get((sym, ()), ())) == 1
    ]
    if len(a.final) == 1:
        seeds.append((next(iter(a.final)), next(iter(b.final))))
    order = sorted(a.states)
    # Each branch: the trail length before it, the index in order of the
    # state it maps, and the candidates left to try.
    branches: list[tuple[int, int, Iterator[str]]] = []
    ok = force(seeds)
    while True:
        if ok and len(trail) < len(order):
            i = branches[-1][1] + 1 if branches else 0
            while order[i] in mapping:
                i += 1
            branches.append((len(trail), i, iter(candidates[profile_a[order[i]]])))
        elif ok:
            return True
        if not branches:
            return False
        mark, i, rest = branches[-1]
        while len(trail) > mark:
            used.discard(mapping.pop(trail.pop()))
        p = next((p for p in rest if p not in used), None)
        if p is None:
            branches.pop()
        ok = p is not None and force([(order[i], p)])


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
