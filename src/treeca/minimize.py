"""Minimization and comparison of tree automata.

Deterministic automata are minimized, merged and canonically renamed on
their numbered view (automata.Numbered): states are numbers and each
symbol's rule targets sit in one table, so names are built only for the
automaton returned.  The subset construction hands its view over directly,
and so does the file reader for a file holding a total automaton's table;
a partial input is completed on its view (transforms.complete).
Refinement is Moore-style over indexed transitions: each state's row lists,
once, the targets of the rules with the state at each argument position,
and two states stay merged only while their rows map to the same blocks.
Language equivalence is one breadth-first product walk over the pairs of
state subsets that trees reach in the two automata, which also finds a
separating tree of minimal height.  The walk takes one argument prefix of
pairs at a time, and each side maps its residual for that prefix over a
line of last arguments in its own subset construction (automata._Subsets),
so a walk that finds a tree early builds only what it reached.  Pairs are
held as subset ids with a back-pointer each; a side accepts where its
subset's member bitmask meets its final states' mask, and only the pair that
disagrees is turned into a tree.  Path-closedness is the same walk between
an automaton and its co-determinization; the co-deterministic and
double-reversal minimizers close those subset constructions into the full
determinizations.  The minimality checks read the same pieces: direct
determinization is minimal iff refining its subset construction merges
nothing, and co-determinization iff no two of its states have the same bit
in every subset mask the path-closedness walk met.  Isomorphism is one
search that maps states pair by pair, adding every pair the rules force
before it branches.  Only the functions that co-determinize or complete
import transforms; the subset construction is automata's, so minimizing,
comparing and renaming load no construction module.
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
    _Subsets,
    _climb,
    _restrict,
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
from .trees import Tree, fresh_lines


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

    The input is completed on its numbered view (transforms.complete) and
    walked as canonical_form walks it; when the walk misses states, the
    tables are refilled over the reached ones in walk order, keeping their
    names.  The view is then merged along the coarsest congruence, so no
    rule is named.  The result is total over its states; a rejecting sink
    class is kept when some tree has no accepting context.
    """
    if d.numbered is None:
        raise NotDeterministicError("minimize_dbta requires a deterministic automaton")
    from .transforms import complete
    v = complete(d).numbered
    number, order, _ = _walk(v)
    if len(order) < len(v.names):
        v = _refill(v, number, order, list(map(v.names.__getitem__, order)))
    return _merge_classes(v)


def _merge_classes(v: Numbered) -> Bta:
    """The automaton of view v merged along its coarsest congruence, classes
    named after their members.  v must be total and fully reachable, as
    every determinization is.  Rules whose arguments merge blockwise have
    targets in one block, so each merged rule is read off the rule between
    the least members of its argument blocks."""
    block = _refine(v)
    members = _blocks(block)
    names = [subset_name(map(v.names.__getitem__, m)) for m in members]
    return _refill(v, block, [m[0] for m in members], names).named()


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


def _require_path_closed(a: Bta, budget: int, task: str) -> tuple[Bta, _Subsets, _Subsets]:
    """(c, sa, sc) when the language of a is path-closed; NotPathClosedError
    naming the task otherwise.

    c co-determinizes the trimmed automaton a1, and sa and sc are the subset
    constructions of a1 and c, as far as the product walk built them.
    Co-determinization always accepts a superset of the language, with
    equality exactly for path-closed languages, so the walk decides; when it
    finds no tree, every reachable subset of each side has appeared in some
    pair.
    """
    from .transforms import _codeterminize
    a1 = trim_unreachable(a)
    c = _codeterminize(a1, budget)
    sa, sc = _Subsets(a1, budget), _Subsets(c, budget)
    if _product_walk(sa, sc) is not None:
        raise NotPathClosedError(f"{task} requires a path-closed language")
    return c, sa, sc


def is_path_closed(a: Bta, *, budget: int = DEFAULT_STATE_BUDGET) -> bool:
    """True iff the language of a is closed under recombining accepted paths."""
    try:
        _require_path_closed(a, budget, "is_path_closed")
    except NotPathClosedError:
        return False
    return True


def min_codbta(a: Bta, *, budget: int = DEFAULT_STATE_BUDGET) -> Bta:
    """The minimal co-deterministic automaton, defined for path-closed
    languages only: co-determinize the determinization of the trimmed
    automaton, unminimized, whose subset construction the path-closedness
    check has already begun."""
    from .transforms import _codeterminize
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
    s1, s2 = subsets.subset(i), subsets.subset(j)
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
    vectors = {tuple(s >> q & 1 for s in sc.pool.order) for q in range(len(sc.states))}
    return len(vectors) == len(c.states), sa.a is not a


def _walk(v: Numbered) -> tuple[list[int], list[int], list[tuple[int, tuple[int, ...], int]]]:
    """The breadth-first walk that numbers the reachable states of view v:
    each state's number (-1 if unreached), the reached states by number,
    and, on a partial view, the rules met as (symbol rank, numbered
    arguments, target), in walk order.

    The walk takes nullary symbols in sorted order and then, layer by layer,
    every symbol in sorted order with argument tuples in lexicographic index
    order; a repeat keeps its first number.  Unlike close and the product
    walk, which step one level at a time, it combines one state at a time
    with the ones before, since its numbering is the canonical form.  On a
    total view it looks those fresh tuples up in the tables, their indices
    summed in bulk (_fresh_indices).  On a partial one it lists the rules
    each state is an argument of, so memory stays linear in the rules.
    """
    n, total = len(v.names), v.total
    symbols = v.alphabet.symbols
    arities = [(s, v.alphabet.arity(sym), v.tables[sym]) for s, sym in enumerate(symbols)]
    number = [-1] * n
    order: list[int] = []
    met: list[tuple[int, tuple[int, ...], int]] = []

    # fresh(m): the targets of the rules with the m-th state as an argument
    # and only earlier ones besides, in walk order.
    if total:
        # Per arity k and argument position i, each numbered state's share of
        # a table index: its place in the tables times n^(k-1-i).
        offsets = {k: [[] for _ in range(k)] for _, k, _ in arities}

        def fresh(m: int) -> list[int]:
            for k, offs in offsets.items():
                for i, o in enumerate(offs):
                    o.append(order[m] * n ** (k - 1 - i))
            found: list[int] = []
            for _, k, table in arities:
                if k:
                    found += map(table.__getitem__, _fresh_indices(m, offsets[k]))
            return found

        found = [table[0] for _, k, table in arities if not k]
    else:
        # Per state, the rules it is an argument of, decoded from the tables.
        uses: list[list[tuple[int, tuple[int, ...], int]]] = [[] for _ in range(n)]
        for s, k, _ in arities:
            for args, t in v.rules(symbols[s]) if k else ():
                for q in set(args):
                    uses[q].append((s, args, t))

        def fresh(m: int) -> list[int]:
            rules = []
            for s, args, t in uses[order[m]]:
                combo = tuple(map(number.__getitem__, args))
                if min(combo) >= 0 and max(combo) == m:
                    rules.append((s, combo, t))
            rules.sort()
            met.extend(rules)
            return [t for _, _, t in rules]

        met += [(s, (), table[0]) for s, k, table in arities if not k and 0 in table]
        found = [t for _, _, t in met]
    m = 0
    while True:
        for t in found:
            if number[t] < 0:
                number[t] = len(order)
                order.append(t)
        if m == len(order):
            return number, order, met
        found = fresh(m)
        m += 1


def _fresh_indices(m: int, offsets: list[list[int]]) -> list[int]:
    """The table indices of the k-tuples on the lines of
    trees.fresh_lines(..., m, m + 1), in their order, where offsets[i] holds
    the shares of states 0..m at argument position i; the walk sums them in
    bulk rather than line by line.  Built from the last position back, where
    m alone is fresh: the fresh tuples from position i on are those whose
    entry at i is below m, each before every fresh tuple from i + 1 on, then
    those with m at i before every tuple of states 0..m from i + 1 on."""
    fresh, every = offsets[-1][m:], offsets[-1]
    for i in range(len(offsets) - 2, -1, -1):
        o = offsets[i]
        fresh = [*map(sum, itertools.product(o[:m], fresh)),
                 *map(sum, itertools.product(o[m:], every))]
        if i:
            every = list(map(sum, itertools.product(o, every)))
    return fresh


def canonical_form(d: Bta) -> Bta:
    """Rename the reachable part of a deterministic automaton to "0".."n-1".

    States are numbered by _walk over the numbered view; unreachable states
    and their rules are dropped.  A total view is refilled in canonical
    numbers (_refill), which the result keeps, so its rules are named only
    when read; a partial one has each rule renamed as the walk met it.  Two
    deterministic, fully reachable automata are isomorphic iff their
    canonical forms are equal.
    """
    v = d.numbered
    if v is None:
        raise NotDeterministicError("canonical_form requires a deterministic automaton")
    number, order, met = _walk(v)
    names = [str(c) for c in range(len(order))]
    if v.total:
        return _refill(v, number, order, names).named()
    one = [frozenset((q,)) for q in names]
    symbols = v.alphabet.symbols
    delta: dict[BtaKey, frozenset[str]] = {
        (symbols[s], tuple(map(names.__getitem__, combo))): one[number[t]] for s, combo, t in met
    }
    final = frozenset(names[number[q]] for q in v.final if number[q] >= 0)
    return Bta._of(v.alphabet, frozenset(names), delta, final)


def _refill(v: Numbered, number: list[int], order: list[int], names: list[str]) -> Numbered:
    """The total view v over the states of order, renumbered by number and
    named by names: the states _walk reached, numbered as it numbered them,
    or the least member of each block of a congruence, numbered by block.
    Each new table reads the rules between the states of order in turn and
    renumbers their targets, so every target has a number (>= 0); a final
    state numbered -1 is left out."""
    tables: dict[str, list[int] | dict[int, int]] = {
        sym: list(map(number.__getitem__, v.targets(sym, order))) for sym in v.tables
    }
    final = frozenset(number[q] for q in v.final if number[q] >= 0)
    return Numbered(v.alphabet, names, tables, final, True)


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
    subsets that trees reach in both, one height at a time.

    A pair is its two subset ids and a back-pointer: the symbol and the
    pair indices of the argument tuple that first reached it.  When pairs
    lo..hi-1 are new, the walk steps through the lines trees.fresh_lines
    lists, and each side maps its residual for its own projection of the
    line's prefix over the subsets of pairs first..hi-1 in one call
    (_Subsets.line).  These are the argument tuples not combined before, in
    lexicographic order, so each side interns its subsets in that order and
    builds only the subsets the walk reaches.  Only the pair that disagrees
    on acceptance gets a tree (_witness).
    """
    oa, ob, fa, fb = sa.pool.order, sb.pool.order, sa.final_mask, sb.final_mask
    xs: list[int] = []  # side a's subset id by pair index
    ys: list[int] = []  # side b's
    back: list[tuple[str, tuple[int, ...]]] = []
    seen: set[tuple[int, int]] = set()
    for sym in sa.a.alphabet.nullary:
        pair = (sa.leaves[sym], sb.leaves[sym])
        if pair not in seen:
            seen.add(pair)
            xs.append(pair[0])
            ys.append(pair[1])
            back.append((sym, ()))
    lo = 0
    while lo < len(xs):
        hi = len(xs)
        for i in range(lo, hi):
            if bool(oa[xs[i]] & fa) != bool(ob[ys[i]] & fb):
                return _witness(back, i)
        # A line starts at lo or 0: slice each side's last subsets once per level.
        lasts = {lo: (xs[lo:hi], ys[lo:hi]), 0: (xs[:hi], ys[:hi])}
        for sym, prefix, first in fresh_lines(sa.arity, lo, hi):
            lasts_a, lasts_b = lasts[first]
            got_a = sa.line(sym, tuple(map(xs.__getitem__, prefix)), lasts_a)
            got_b = sb.line(sym, tuple(map(ys.__getitem__, prefix)), lasts_b)
            for j, pair in enumerate(zip(got_a, got_b), first):
                if pair not in seen:
                    seen.add(pair)
                    xs.append(pair[0])
                    ys.append(pair[1])
                    back.append((sym, (*prefix, j)))
        lo = hi
    return None


def _witness(back: list[tuple[str, tuple[int, ...]]], i: int) -> Tree:
    """The tree that first reached pair i, built from the back-pointers of
    the pairs below it; a pair's arguments precede it, so building them in
    index order makes each distinct subtree once."""
    need = {i}
    todo = [i]
    while todo:
        for j in back[todo.pop()][1]:
            if j not in need:
                need.add(j)
                todo.append(j)
    built: dict[int, Tree] = {}
    for j in sorted(need):
        sym, args = back[j]
        built[j] = Tree(sym, tuple(map(built.__getitem__, args)))
    return built[i]


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
