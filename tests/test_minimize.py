"""Minimization, the double-reversal pipeline, canonical forms, isomorphism,
and language equivalence."""

from __future__ import annotations

import random
import time
from unittest import mock

import pytest

from treeca import (
    DEFAULT_STATE_BUDGET,
    Bta,
    BudgetError,
    NotDeterministicError,
    NotPathClosedError,
    RankedAlphabet,
    TreecaError,
    accepts,
    brzozowski,
    canonical_form,
    check_gen_det_d,
    codeterminize,
    complete,
    determinize,
    enumerate_trees,
    equivalent,
    gen_det_u_witness,
    is_codeterministic,
    is_deterministic,
    is_path_closed,
    isomorphic,
    language_upto,
    min_codbta,
    minimize_bta,
    minimize_dbta,
    parse_term,
    reverse_bta,
    reverse_tta,
    separating_tree,
    serialize_automaton,
    subset_construction,
    subset_name,
    trim_unreachable,
    tta_determinize,
)

from treeca import automata, minimize
from treeca.minimize import _blocks, _product_walk, _refine, _require_path_closed
from treeca.transforms import _Subsets
from treeca.trees import Tree, iter_nodes

import helpers
from helpers import (
    AB,
    ABG,
    BOOL,
    MONO,
    TERN,
    Raised,
    accept_all_bta,
    assert_routes_agree,
    canonical_form_by_names,
    counter_pair,
    cycles_bta,
    drop_every_fifth_rule,
    drop_one_rule,
    gen_det_u_witness_by_names,
    isomorphic_by_search,
    minimize_bta_by_names,
    minimize_dbta_by_names,
    outcome,
    path_closed_by_determinization,
    product_walk_by_steps,
    prefixed_names,
    random_bta,
    random_path_closed_bta,
    refine_by_products,
    regular_bta,
    rename_states,
    representative_trap_bta,
    seeded_draws,
    separating_tree_by_determinization,
    shuffled_names,
    swap_two_targets,
    view_inputs,
)


def downward_languages(d: Bta, height: int) -> dict[str, frozenset]:
    """The bounded downward language of every state of a deterministic d."""
    memo: dict = {}

    def run(t):
        got = memo.get(t)
        if got is None:
            kids = [run(c) for c in t.children]
            if any(k is None for k in kids):
                got = frozenset()
            else:
                got = d.delta.get((t.label, tuple(next(iter(k)) for k in kids)), frozenset())
            memo[t] = got
        return got or None

    out: dict[str, set] = {q: set() for q in d.states}
    for t in enumerate_trees(d.alphabet, height):
        s = run(t)
        if s:
            out[next(iter(s))].add(t)
    return {q: frozenset(ts) for q, ts in out.items()}


# === Refinement ===================================================================

def named_blocks(v) -> tuple[frozenset[str], ...]:
    """The blocks _refine finds on view v, as sets of state names sorted by
    their members."""
    blocks = (frozenset(map(v.names.__getitem__, m)) for m in _blocks(_refine(v)))
    return tuple(sorted(blocks, key=sorted))


def test_row_refinement_matches_the_product_signatures():
    """The same blocks on the numbered views of 250 seeded draws up to arity
    3: the subset construction's own view of the determinization, the view
    a fresh copy of it numbers in sorted order, and the view of a completed,
    trimmed copy missing one rule."""
    merged = reordered = 0
    for a in seeded_draws(250):
        d = determinize(a)
        reordered += d.numbered.names != sorted(d.states)
        copy = Bta(d.alphabet, d.states, d.delta, d.final)
        for c in (d, copy, trim_unreachable(complete(drop_one_rule(d)))):
            blocks = named_blocks(c.numbered)
            assert blocks == refine_by_products(c)
            merged += len(blocks) < len(c.states)
    assert merged > 300 and reordered > 100


# === minimize_dbta / minimize_bta =================================================

def test_minimize_reproduces_the_two_state_boolean_evaluator(bool2):
    m = minimize_dbta(bool2)
    assert serialize_automaton(m) == serialize_automaton(bool2).replace("q0", "{q0}").replace("q1", "{q1}")
    # bool2 is already minimal, so minimization only renames blockwise.
    assert isomorphic(m, bool2)


def test_minimize_bta_requires_no_determinism_and_merges_abc(abc):
    m = minimize_bta(abc)
    assert is_deterministic(m)
    assert m.states == {"{{q_a,q_dot},{q_b,q_dot},{q_c,q_dot}}", "{{q_f}}", "{{}}"}
    assert minimize_bta(abc, strip_dead=True).states == {
        "{{q_a,q_dot},{q_b,q_dot},{q_c,q_dot}}",
        "{{q_f}}",
    }
    assert language_upto(m, 3) == language_upto(abc, 3)


def test_minimize_dbta_rejects_nondeterministic_input(abc):
    with pytest.raises(NotDeterministicError):
        minimize_dbta(abc)


def test_minimize_keeps_a_reachable_dead_class_and_is_total(and1):
    m = minimize_bta(and1)
    # The false class is reachable and dead (it never climbs to q1), so it stays.
    assert len(m.states) == 2
    n = len(m.states)
    assert len(m.delta) == 2 + n * n
    assert len(minimize_bta(and1, strip_dead=True).states) == 1


def test_minimize_of_an_empty_language_is_one_dead_state():
    empty = Bta(AB, {"q"}, {("a", ()): {"q"}, ("f", ("q", "q")): {"q"}}, set())
    m = minimize_bta(empty)
    assert len(m.states) == 1
    assert not m.final


def test_minimize_is_idempotent_up_to_isomorphism(bool2, abc, and1):
    rng = random.Random(601)
    cases = [bool2, abc, and1] + [random_bta(rng) for _ in range(25)]
    for a in cases:
        m = minimize_bta(a)
        assert isomorphic(minimize_bta(m), m)


def test_minimized_states_have_distinct_downward_languages(bool2, abc, and1):
    rng = random.Random(602)
    cases = [(bool2, 4), (abc, 4), (and1, 4)] + [(random_bta(rng), 4) for _ in range(10)]
    for a, height in cases:
        m = minimize_bta(a)
        langs = downward_languages(m, height)
        values = list(langs.values())
        assert len(set(values)) == len(values), "two states share a bounded downward language"


def test_minimize_is_insensitive_to_state_naming():
    rng = random.Random(603)
    for _ in range(20):
        a = random_bta(rng)
        assert isomorphic(minimize_bta(rename_states(a, prefixed_names(a))), minimize_bta(a))


def test_representative_only_splitting_would_merge_these_states():
    """Regression: the only separating cell pairs s1 with the non-least block
    member qb, so probing block representatives alone would equate s1 and s2
    and accept f(f(a,b),b)."""
    trap = representative_trap_bta()
    good = parse_term("f(f(a,a),b)")
    bad = parse_term("f(f(a,b),b)")
    assert accepts(trap, good) and not accepts(trap, bad)
    m = minimize_bta(trap)
    assert accepts(m, good) and not accepts(m, bad)
    assert equivalent(m, trap)
    assert language_upto(m, 4) == language_upto(trap, 4)


# === min_codbta ===================================================================

def test_min_codbta_and1_is_the_single_state_acceptor(and1):
    m = min_codbta(and1)
    assert len(m.states) == 1
    assert is_codeterministic(m)
    assert len(m.final) == 1
    assert language_upto(m, 4) == language_upto(and1, 4)


def test_min_codbta_abc_is_the_two_state_acceptor(abc, abc_codet):
    m = min_codbta(abc)
    assert isomorphic(m, abc_codet)
    assert is_codeterministic(m)


def test_min_codbta_rejects_non_path_closed_inputs(bool2):
    with pytest.raises(NotPathClosedError):
        min_codbta(bool2)


def test_min_codbta_output_shape_on_random_path_closed_inputs():
    rng = random.Random(604)
    done = 0
    while done < 25:
        a = random_path_closed_bta(rng)
        if not a.final:
            continue
        m = min_codbta(a)
        assert is_codeterministic(m)
        assert len(m.final) == 1
        done += 1


# === brzozowski ===================================================================

def test_brzozowski_equals_minimization_on_the_fixtures(and1, abc):
    assert isomorphic(brzozowski(and1), minimize_bta(and1))
    assert isomorphic(brzozowski(abc), minimize_bta(abc))


def test_brzozowski_rejects_non_path_closed_inputs(bool2):
    with pytest.raises(NotPathClosedError):
        brzozowski(bool2)


def test_brzozowski_is_a_fixpoint_on_minimal_acceptors(and1, abc):
    for a in (and1, abc):
        m = minimize_bta(a)
        assert isomorphic(brzozowski(m), m)


def test_brzozowski_is_the_literal_double_reversal(and1, abc):
    rng = random.Random(2021)
    draws = [random_path_closed_bta(rng, rng.choice([AB, ABG])) for _ in range(50)]
    for a in [and1, abc] + draws:
        t = tta_determinize(reverse_bta(trim_unreachable(a)))
        assert brzozowski(a) == determinize(reverse_tta(t))


def test_path_closed_constructions_are_built_once(subset_pools, and1):
    for build, constructions in [(brzozowski, 3), (min_codbta, 4), (check_gen_det_d, 3)]:
        subset_pools.clear()
        build(and1)
        assert len(subset_pools) == constructions, build.__name__


# === The numbered view against the named routes ==================================

def test_numbered_routes_give_the_named_routes_results():
    """The named minimizations and witness of a draw all refine the same
    determinization, so the reference refinement runs once per distinct
    automaton."""
    refined: dict[frozenset[str], list] = {}  # per state set, (automaton, blocks) pairs

    def refine_once(c: Bta) -> tuple[frozenset[str], ...]:
        for seen, blocks in refined.get(c.states, ()):
            if seen == c:
                return blocks
        blocks = refine_by_products(c)
        refined.setdefault(c.states, []).append((c, blocks))
        return blocks

    inputs = [(a,) for a in view_inputs()]
    deterministic_only = [
        (canonical_form, canonical_form_by_names),
        (minimize_dbta, minimize_dbta_by_names),
    ]
    with mock.patch.object(helpers, "refine_by_products", refine_once):
        raised = [
            got.type
            for new, old in deterministic_only
            for got in assert_routes_agree(new, old, inputs)
            if isinstance(got, Raised)
        ]
        assert_routes_agree(minimize_bta, minimize_bta_by_names, inputs)
        witnesses = assert_routes_agree(gen_det_u_witness, gen_det_u_witness_by_names, inputs)
    assert len(raised) > 200 and set(raised) == {NotDeterministicError}
    assert sum(w is not None for w in witnesses) > 200


def test_numbered_routes_build_the_same_subsets_under_a_budget(subset_pools):
    """The same BudgetError or result for every budget up to the subset
    count, and the same subsets in the same order."""
    routes = [
        (minimize_bta, minimize_bta_by_names),
        (gen_det_u_witness, gen_det_u_witness_by_names),
    ]
    for a in seeded_draws(40):
        for budget in range(1, len(determinize(a).states) + 2):
            for new, old in routes:
                subset_pools.clear()
                got = outcome(new, a, budget=budget)
                built = [pool.order for pool in subset_pools]
                subset_pools.clear()
                assert got == outcome(old, a, budget=budget)
                assert built == [pool.order for pool in subset_pools]


def test_the_view_is_built_once_and_decides_determinism(abc, bool2):
    copies = [Bta(a.alphabet, a.states, a.delta, a.final) for a in (abc, bool2)]
    with mock.patch.object(automata, "_number", wraps=automata._number) as spy:
        for a in copies * 2:
            a.numbered
    assert spy.call_count == 2
    nondet, det = copies
    assert nondet.numbered is None
    assert det.numbered.total and det.numbered.names == sorted(det.states)
    # A determinization keeps the subset construction's view, in discovery order.
    d = determinize(abc)
    assert d.numbered.names == [subset_name(s) for s in subset_construction(abc)[1].values()]


def test_a_partial_view_holds_only_the_rules():
    d = drop_every_fifth_rule(determinize(seeded_draws(10)[9]))
    view = d.numbered
    assert not view.total
    assert sum(map(len, view.tables.values())) == len(d.delta)


# === canonical_form ===============================================================

def test_canonical_form_is_renaming_invariant(bool2):
    assert canonical_form(bool2) == canonical_form(rename_states(bool2, prefixed_names(bool2)))


def test_canonical_form_of_minimal_bool2_has_two_states(bool2):
    c = canonical_form(minimize_bta(bool2))
    assert c.states == {"0", "1"}
    assert c.final == {"1"}
    assert c.delta[("or", ("0", "1"))] == {"1"}


def test_canonical_form_coincides_for_and1_and_its_determinization(and1):
    assert canonical_form(determinize(and1)) == canonical_form(and1)


def test_canonical_form_rejects_nondeterministic_input(abc):
    with pytest.raises(NotDeterministicError):
        canonical_form(abc)


def test_canonical_form_drops_unreachable_states(bool2):
    bigger = Bta(
        bool2.alphabet,
        bool2.states | {"limbo"},
        {**{k: set(v) for k, v in bool2.delta.items()}, ("and", ("limbo", "limbo")): {"limbo"}},
        bool2.final,
    )
    assert canonical_form(bigger) == canonical_form(bool2)


def test_canonical_forms_decide_isomorphism_for_deterministic_pairs():
    rng = random.Random(605)
    for _ in range(25):
        d = determinize(random_bta(rng))
        assert canonical_form(d) == canonical_form(rename_states(d, prefixed_names(d)))
        assert isomorphic(d, rename_states(d, prefixed_names(d)))


# === isomorphic ===================================================================

def test_isomorphic_on_renamings_and_counterexamples(bool2, abc, abc_codet):
    assert isomorphic(bool2, rename_states(bool2, prefixed_names(bool2)))
    assert isomorphic(abc, rename_states(abc, prefixed_names(abc)))  # nondeterministic
    assert isomorphic(codeterminize(abc), abc_codet)  # co-deterministic
    assert not isomorphic(bool2, minimize_bta(abc))  # different alphabets
    assert not isomorphic(bool2, accept_all_bta(BOOL))  # different state counts


def test_isomorphic_sees_through_structure_not_language(bool2):
    from helpers import split_state_bta

    split = split_state_bta()
    assert equivalent(split, bool2)
    assert not isomorphic(split, bool2)  # same language, different shape


def test_isomorphic_distinguishes_near_identical_automata(abc):
    tweaked = Bta(
        abc.alphabet,
        abc.states,
        {k: set(v) for k, v in abc.delta.items() if k != ("f", ("q_c", "q_c"))},
        abc.final,
    )
    assert not isomorphic(abc, tweaked)


def one_rule_over(alphabet: RankedAlphabet) -> Bta:
    """The automaton whose one state q is final and reached by b()."""
    return Bta(alphabet, ["q"], {("b", ()): ["q"]}, ["q"])


def test_isomorphic_gives_the_verdicts_of_the_search():
    """Two one-rule automata that only their alphabets tell apart; each draw
    against a copy with one rule dropped and against the next draw; its
    determinization against its minimization; and the draw, its
    determinization, co-determinization and minimization each against a copy
    with the states renamed in random order, and against such a copy with
    two targets swapped (same counts and state profiles, often not
    isomorphic)."""
    alphabets_apart = (one_rule_over(TERN), one_rule_over(AB))
    assert not isomorphic_by_search(*alphabets_apart)
    verdicts = assert_routes_agree(isomorphic, isomorphic_by_search, [alphabets_apart])
    draws = seeded_draws(250)
    for i, a in enumerate(draws):
        rng = random.Random(i)
        d, c, m = determinize(a), codeterminize(a), minimize_bta(a)
        pairs = [(a, drop_one_rule(a)), (d, m)]
        for x in (a, d, c, m):
            for y in (x, swap_two_targets(x)):
                pairs.append((x, rename_states(y, shuffled_names(y, rng))))
        if i + 1 < len(draws):
            pairs.append((a, draws[i + 1]))
        verdicts += assert_routes_agree(isomorphic, isomorphic_by_search, pairs)
    assert len(verdicts) == 2750
    assert 0 < sum(verdicts) < len(verdicts)


def test_isomorphic_backtracks_to_the_verdicts_of_the_search():
    """Automata whose states all look alike, so that only branching and
    backtracking find a renaming: each against a shuffled copy and against
    another such automaton."""
    rng = random.Random(11)
    pairs = []
    for _ in range(50):
        a = regular_bta(rng, 6)
        pairs += [(a, rename_states(a, shuffled_names(a, rng))), (a, regular_bta(rng, 6))]
    verdicts = assert_routes_agree(isomorphic, isomorphic_by_search, pairs)
    assert 0 < sum(verdicts) < len(verdicts)


def test_a_forced_pair_never_lands_on_a_used_state():
    """A 6-cycle maps onto shorter cycles whose lengths divide 6 by a renaming
    that is not one-to-one: going round the cycle, the forced pairs come back
    to a state of b that is already used, and only that check stops them."""
    six = cycles_bta([6])
    for lengths in ([3, 3], [2, 2, 2], [2, 4], [1, 2, 3]):
        other = cycles_bta(lengths)
        assert not isomorphic(six, other)
        assert not isomorphic(other, six)
    assert isomorphic(six, rename_states(six, shuffled_names(six, random.Random(5))))
    assert isomorphic(cycles_bta([2, 4]), cycles_bta([4, 2]))


# === equivalent and separating_tree ===============================================

def test_equivalent_worked_examples(bool2, and1):
    assert equivalent(bool2, minimize_bta(bool2))
    assert equivalent(and1, codeterminize(and1))  # path-closed, so codet is exact
    assert not equivalent(bool2, codeterminize(trim_unreachable(bool2)))
    assert not equivalent(bool2, and1)  # different alphabets


def test_separating_tree_finds_the_smallest_boolean_witness(bool2):
    cd = codeterminize(trim_unreachable(bool2))
    w = separating_tree(bool2, cd)
    assert w == parse_term("or(F,F)")
    assert not accepts(bool2, w) and accepts(cd, w)


def test_separating_tree_is_none_exactly_when_equivalent():
    rng = random.Random(606)
    for _ in range(60):
        a, b = random_bta(rng), random_bta(rng)
        w = separating_tree(a, b)
        if w is None:
            assert equivalent(a, b)
        else:
            assert accepts(a, w) != accepts(b, w)


def test_separating_tree_height_is_bounded_by_the_state_product():
    rng = random.Random(607)
    for _ in range(40):
        a = complete(minimize_bta(random_bta(rng)))
        b = complete(minimize_bta(random_bta(rng)))
        w = separating_tree(a, b)
        if w is not None:
            assert w.height <= len(a.states) * len(b.states)


def test_separating_tree_is_minimal_in_height(bool2):
    cd = codeterminize(trim_unreachable(bool2))
    w = separating_tree(bool2, cd)
    for t in enumerate_trees(BOOL, w.height - 1):
        assert accepts(bool2, t) == accepts(cd, t)


def test_separating_tree_rejects_alphabet_mismatch(bool2, abc):
    with pytest.raises(TreecaError):
        separating_tree(bool2, abc)


def test_equivalent_matches_bounded_language_equality():
    rng = random.Random(608)
    for _ in range(60):
        a, b = random_bta(rng, max_states=3), random_bta(rng, max_states=3)
        same = language_upto(a, 4) == language_upto(b, 4)
        assert equivalent(a, b) == same


# === the lazy product walk ========================================================

def test_walk_matches_the_walk_over_full_determinizations(subset_pools):
    """Same verdicts and witnesses as determinizing both sides first, on 250
    seeded draws against themselves, their co-determinizations and a copy
    with one rule dropped, building no more subsets than the two
    determinizations.  Under small budgets the walk may answer where the
    full determinizations overflow, never the other way round."""
    for a in seeded_draws(250):
        for b in (a, codeterminize(a), drop_one_rule(a)):
            subset_pools.clear()
            w = separating_tree(a, b)
            built = sum(len(pool.order) for pool in subset_pools)
            assert w == separating_tree_by_determinization(a, b)
            assert built <= len(determinize(a).states) + len(determinize(b).states)
            for budget in (2, 3, 5, 8):
                want = outcome(separating_tree_by_determinization, a, b, budget=budget)
                if not isinstance(want, Raised):
                    assert separating_tree(a, b, budget=budget) == want


def _walked(walk, a, b, budget, pools):
    """walk's outcome on fresh subset constructions of a and b under budget,
    and the subsets each side interned, in order."""
    pools.clear()
    got = outcome(lambda: walk(_Subsets(a, budget), _Subsets(b, budget)))
    return got, [pool.order for pool in pools]


def test_the_walk_matches_the_walk_one_transition_at_a_time(subset_pools):
    """Same witness, same subsets in the same order on both sides, and the
    same BudgetError or result as stepping both sides once per argument
    tuple: on 250 seeded draws against themselves, their
    co-determinizations and a copy with one rule dropped, under five
    budgets, and on 100 path-closed draws against their
    co-determinizations.  A walk that overflows drops its pools, and each
    side may then hold one line more or less than a side stepped in turn
    with the other, so only the error is compared."""
    pairs = [(a, b) for a in seeded_draws(250) for b in (a, codeterminize(a), drop_one_rule(a))]
    rng = random.Random(911)
    closed = [random_path_closed_bta(rng, rng.choice([AB, ABG, BOOL, MONO, TERN])) for _ in range(100)]
    pairs += [(a, codeterminize(a)) for a in closed]
    raised = 0
    for a, b in pairs:
        for budget in (2, 3, 5, 8, 4096):
            got, pools = _walked(_product_walk, a, b, budget, subset_pools)
            want, want_pools = _walked(product_walk_by_steps, a, b, budget, subset_pools)
            assert got == want
            if isinstance(got, Raised):
                raised += 1
            else:
                assert pools == want_pools
    assert raised > 500


def test_a_walk_builds_trees_only_for_its_witness():
    """One Tree per distinct subtree of the witness, and none when the
    languages agree."""
    made = []

    class CountingTree(Tree):
        __slots__ = ()

        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    sizes = []
    with mock.patch.object(minimize, "Tree", CountingTree):
        for a in seeded_draws(100):
            for b in (a, codeterminize(a), drop_one_rule(a)):
                made.clear()
                w = separating_tree(a, b)
                nodes = [t for _, t in iter_nodes(w)] if w else []
                assert len(made) == len(set(nodes))
                sizes.append((len(set(nodes)), len(nodes)))
        made.clear()
        assert equivalent(*counter_pair(5)) and not made
    assert sum(n > 0 for n, _ in sizes) > 50
    assert sum(n < total for n, total in sizes) > 10  # witnesses that repeat a subtree


def test_the_walk_over_equal_counters_takes_seconds():
    """All 1600 pairs of the two 40-state counters are met before the walk
    knows they agree.  Its time is measured against the reference walk over
    the 20-state counters, timed back to back on the same host, so the bound
    holds on a slow runner too: the walk takes about as long (1.3 against
    1.0-1.4 s on a 2-core host), and stepping one argument tuple at a time
    took 4-6 times as long.  A load spike can slow either timing, so a pair
    is timed up to three times."""
    small, large = counter_pair(20), counter_pair(40)

    def seconds(walk, a, b):
        start = time.perf_counter()
        got = walk(a, b)
        return time.perf_counter() - start, got

    for _ in range(3):
        yardstick, _ = seconds(
            lambda a, b: product_walk_by_steps(
                _Subsets(a, DEFAULT_STATE_BUDGET), _Subsets(b, DEFAULT_STATE_BUDGET)),
            *small)
        took, agree = seconds(equivalent, *large)
        assert agree
        if took < 3 * yardstick:
            break
    assert took < 3 * yardstick


def test_path_closedness_matches_the_walk_over_full_determinizations():
    rng = random.Random(909)
    closed = [
        random_path_closed_bta(rng, alphabet)
        for alphabet in (AB, ABG, BOOL, MONO, TERN)
        for _ in range(20)
    ]
    assert all(is_path_closed(a) for a in closed)
    for a in seeded_draws(250) + closed:
        assert is_path_closed(a) == path_closed_by_determinization(a)


def test_a_walk_that_finds_no_tree_meets_every_reachable_subset():
    rng = random.Random(910)
    for _ in range(100):
        a = random_path_closed_bta(rng, rng.choice([AB, ABG, BOOL, MONO, TERN]))
        c, sa, sc = _require_path_closed(a, DEFAULT_STATE_BUDGET, "a test")
        assert set(sc.pool.order) == set(subset_construction(c)[1].values())
        assert set(sa.pool.order) == set(subset_construction(trim_unreachable(a))[1].values())


def test_the_path_closedness_verdict_lets_a_budget_error_through(bool2, and1):
    for a in (bool2, and1):
        with pytest.raises(BudgetError):
            is_path_closed(a, budget=1)
    assert not is_path_closed(bool2, budget=2) and is_path_closed(and1, budget=2)


def test_a_short_witness_builds_less_than_both_determinizations(subset_pools):
    a = seeded_draws(158)[157]
    b = drop_one_rule(a)
    subset_pools.clear()
    assert separating_tree(a, b) == parse_term("F")
    built = sum(len(pool.order) for pool in subset_pools)
    assert built == 4
    assert len(determinize(a).states) + len(determinize(b).states) == 34


def test_a_walk_can_answer_within_a_budget_the_determinizations_exceed():
    """Behaviour change: the walk interns subsets only as it reaches them, so
    it finds f(a,a) with two, where determinizing the draw first needs more
    and overflows."""
    a = seeded_draws(1)[0]
    b = codeterminize(a)
    with pytest.raises(BudgetError):
        separating_tree_by_determinization(a, b, budget=2)
    assert separating_tree(a, b, budget=2) == parse_term("f(a,a)")
