"""Determinization, co-determinization, reversal, completion, and the
top-down determinizations."""

from __future__ import annotations

import random
import time

import pytest

from treeca import (
    DEFAULT_STATE_BUDGET,
    Bta,
    BudgetError,
    NotDeterministicError,
    RankedAlphabet,
    accepts,
    codeterminize,
    check_gen_det_d,
    complete,
    determinize,
    enumerate_trees,
    equivalent,
    is_codeterministic,
    is_deterministic,
    is_path_closed,
    language_upto,
    parse_automaton,
    parse_term,
    reverse_bta,
    reverse_tta,
    serialize_automaton,
    subset_construction,
    subset_name,
    trim_empty,
    trim_unreachable,
    tta_accepts,
    tta_determinize,
)

from treeca.transforms import _codeterminize

import helpers
from helpers import (
    AB,
    ABG,
    BOOL,
    MONO,
    Raised,
    assert_routes_agree,
    complete_by_name,
    drop_every_fifth_rule,
    is_total_by_product,
    load_fixture,
    outcome,
    productions_by_copy,
    random_bta,
    random_dtta,
    random_path_closed_bta,
    reverse_bta_by_copy,
    reverse_tta_by_copy,
    run_tta_directly,
    seeded_draws,
    subset_construction_by_product,
    tta_determinize_direct,
    view_inputs,
)


# === Subset names =================================================================

def test_subset_names_are_sorted_and_brace_wrapped():
    assert subset_name(["q1", "q0"]) == "{q0,q1}"
    assert subset_name([]) == "{}"
    assert subset_name(["{q0}", "{q1}"]) == "{{q0},{q1}}"


# === determinize ==================================================================

def test_determinize_abc_reaches_five_subsets(abc):
    d = determinize(abc)
    assert d.states == {
        "{q_a,q_dot}",
        "{q_b,q_dot}",
        "{q_c,q_dot}",
        "{q_f}",
        "{}",
    }
    assert d.final == {"{q_f}"}
    assert is_deterministic(d)
    # Complete over the discovered subsets: every cell of delta is filled.
    n = len(d.states)
    assert len(d.delta) == 3 + n * n  # three nullary rules plus every f cell
    assert d.delta[("f", ("{q_a,q_dot}", "{q_b,q_dot}"))] == {"{q_f}"}
    assert d.delta[("f", ("{q_f}", "{q_f}"))] == {"{}"}


def test_determinize_fixes_deterministic_inputs_up_to_naming(bool2):
    d = determinize(bool2)
    assert d.states == {"{q0}", "{q1}"}
    assert d.delta[("or", ("{q0}", "{q1}"))] == {"{q1}"}


def test_determinize_preserves_the_language(abc, bool2):
    rng = random.Random(501)
    cases = [abc, bool2] + [random_bta(rng) for _ in range(30)]
    for a in cases:
        d = determinize(a)
        assert is_deterministic(d)
        for t in enumerate_trees(a.alphabet, 3):
            assert accepts(d, t) == accepts(a, t)


def test_subset_construction_exposes_the_naming():
    a = load_fixture("abc.bta")
    d, names = subset_construction(a)
    assert set(names) == d.states
    for name, members in names.items():
        assert subset_name(members) == name


def test_determinize_budget_is_enforced(bool2):
    with pytest.raises(BudgetError):
        determinize(bool2, budget=1)


def test_rule_index_matches_the_member_product(subset_pools):
    """Same automaton, same subset map in the same discovery order, and the
    budget runs out at the same subset, on 250 seeded draws up to arity 3
    and on their determinizations fed back in, where each residual row holds
    one target per last argument."""
    draws = seeded_draws(250)
    for a in draws + list(map(determinize, draws)):
        ref, ref_members = subset_construction_by_product(a, DEFAULT_STATE_BUDGET)
        d, members = subset_construction(a)
        assert d == ref
        assert list(members.items()) == list(ref_members.items())
        n = len(ref_members)
        assert subset_construction(a, budget=n)[0] == ref
        subset_pools.clear()
        with pytest.raises(BudgetError) as caught:
            subset_construction(a, budget=n - 1)
        with pytest.raises(BudgetError):
            subset_construction_by_product(a, n - 1)
        if n == 1:
            # A budget below 1 is rejected before a pool is made.
            assert str(caught.value) == "budget must be positive"
            assert not subset_pools
        else:
            states = sorted(a.states)
            built = [frozenset(map(states.__getitem__, m)) for m in subset_pools[0].members]
            assert built == list(ref_members.values())[: n - 1]


def test_every_subset_construction_keys_its_subsets_by_member_bitmask(subset_pools):
    """Upward and downward, a pool holds each subset once, as the bitmask of
    its members' numbers, with its id and its members in increasing order;
    no pool holds a set of state names."""
    routes = [determinize, codeterminize, lambda a: equivalent(a, codeterminize(a)),
              is_path_closed, check_gen_det_d]
    for name in ("abc.bta", "abc_codet.bta", "and1.bta", "bool2.bta", "star.bta"):
        a = load_fixture(name)
        for route in routes:
            subset_pools.clear()
            outcome(route, a)
            assert subset_pools
            for pool in subset_pools:
                assert all(type(mask) is int for mask in [*pool.order, *pool.index])
                assert len(pool.index) == len(pool.order) == len(pool.members)
                assert [pool.index[mask] for mask in pool.order] == list(range(len(pool.order)))
                assert [sum(1 << q for q in m) for m in pool.members] == pool.order
                assert all(m == sorted(m) for m in pool.members)


def test_determinizing_a_deterministic_counter_costs_what_its_subsets_hold():
    """A 300-state counter of f-sums mod 300 has 90,302 rules.  Each of its
    subsets is one state, so a step ORs one entry of one residual row; ANDing
    a mask over all of f's rules per step would take time and memory
    quadratic in the rules."""
    n = 300
    alphabet = RankedAlphabet({"a": 0, "b": 0, "g": 1, "f": 2})
    states = [f"c{i}" for i in range(n)]
    rules = {("a", ()): {"c1"}, ("b", ()): {"c0"}}
    rules |= {("g", (q,)): {q} for q in states}
    rules |= {("f", (p, q)): {states[(i + j) % n]}
              for i, p in enumerate(states) for j, q in enumerate(states)}
    a = Bta(alphabet, states, rules, ["c0"])
    start = time.perf_counter()
    d = determinize(a)
    assert time.perf_counter() - start < 5
    assert len(d.states) == n and d.final == {"{c0}"}


# === codeterminize ================================================================

def test_codeterminize_and1_is_the_one_state_acceptor(and1):
    cd = codeterminize(and1)
    assert cd.states == {"{q1}"}
    assert cd.final == {"{q1}"}
    assert cd.delta == {
        ("T", ()): frozenset({"{q1}"}),
        ("and", ("{q1}", "{q1}")): frozenset({"{q1}"}),
    }


def test_codeterminize_abc_has_two_states(abc, abc_codet):
    cd = codeterminize(abc)
    assert cd.states == {"{q_a,q_b,q_c,q_dot}", "{q_f}"}
    assert is_codeterministic(cd)
    from treeca import isomorphic

    assert isomorphic(cd, abc_codet)


def test_codeterminize_output_is_always_codeterministic():
    rng = random.Random(502)
    for _ in range(40):
        a = random_bta(rng)
        cd = codeterminize(a)
        assert is_codeterministic(cd)


def test_codeterminize_never_shrinks_a_trimmed_language():
    rng = random.Random(503)
    for _ in range(40):
        a = trim_unreachable(random_bta(rng))
        cd = codeterminize(a)
        for t in enumerate_trees(AB, 3):
            if accepts(a, t):
                assert accepts(cd, t)


def test_codeterminize_is_exact_exactly_on_path_closed_languages():
    rng = random.Random(504)
    seen_equal = seen_proper = 0
    for _ in range(60):
        a = trim_unreachable(random_bta(rng))
        cd = codeterminize(a)
        same = language_upto(cd, 4) == language_upto(a, 4)
        if is_path_closed(a):
            assert same
            seen_equal += 1
        elif not same:
            seen_proper += 1
    assert seen_equal and seen_proper  # both regimes actually exercised


def test_codeterminize_grows_bool2(bool2):
    cd = codeterminize(trim_unreachable(bool2))
    assert not accepts(bool2, parse_term("or(F,F)"))
    assert accepts(cd, parse_term("or(F,F)"))


def test_pretrim_flag_reproduces_the_star_automaton_gap(star):
    t = parse_term("star(T,T)", star.alphabet)
    assert not accepts(star, t)
    lazy = codeterminize(star, pretrim=False)
    assert accepts(lazy, t)  # the unreachable q2 leaks into the construction
    assert sorted(lazy.states) == ["{q1,q2}", "{q1}"]
    strict = codeterminize(star)
    assert not accepts(strict, t)
    assert language_upto(strict, 3) == language_upto(star, 3)


def test_the_closing_trim_removes_nothing_after_a_trim():
    """Co-determinizing a trimmed automaton, or a determinization, leaves no
    state for trim_empty to drop, so neither the pretrimming codeterminize
    nor the path-closed constructions run it."""
    rng = random.Random(505)
    draws = seeded_draws(250) + [
        draw(rng, alphabet)
        for alphabet in (AB, ABG, BOOL, MONO)
        for draw in (random_bta, random_path_closed_bta) * 25
    ]
    untrimmed_drops = 0
    for a in draws:
        for x in (trim_unreachable(a), determinize(a)):
            c = _codeterminize(x, DEFAULT_STATE_BUDGET)
            assert trim_empty(c) is c
        c = _codeterminize(a, DEFAULT_STATE_BUDGET)
        untrimmed_drops += trim_empty(c) is not c
    assert untrimmed_drops  # on an untrimmed input the trim does drop states


# === reverse ======================================================================

def test_reverse_bta_matches_the_tta_fixture(bool2, bool2r):
    assert reverse_bta(bool2) == bool2r


def test_reverse_is_an_involution(bool2, abc, bool2r):
    assert reverse_tta(reverse_bta(bool2)) == bool2
    assert reverse_tta(reverse_bta(abc)) == abc
    assert reverse_bta(reverse_tta(bool2r)) == bool2r


def test_reverse_swaps_final_and_initial(abc):
    r = reverse_bta(abc)
    assert r.initial == abc.final
    assert r.final_states == abc.initial_states


def test_reverse_copies_nothing(bool2r):
    for a in seeded_draws(250):
        t = reverse_bta(a)
        assert reverse_tta(t) is a
        assert reverse_bta(a).delta is t.delta  # the reading is built once per Bta
    assert reverse_tta(reverse_bta(reverse_tta(bool2r))) is reverse_tta(bool2r)


def test_reversal_reads_what_the_copies_build(bool2r):
    rng = random.Random(507)
    ttas = [bool2r] + [random_dtta(rng, alphabet) for alphabet in (AB, BOOL) * 30]
    for a in seeded_draws(250):
        t = reverse_bta(a)
        assert t.delta == productions_by_copy(a)
        assert t == reverse_bta_by_copy(a)
        ttas.append(t)
    for t in ttas:
        assert reverse_tta(t) == reverse_tta_by_copy(t)


# === complete =====================================================================

def test_complete_adds_one_absorbing_sink(and1):
    bigger = RankedAlphabet({"F": 0, "T": 0, "and": 2, "g": 1})
    a = Bta(bigger, and1.states, and1.delta, and1.final)
    c = complete(a)
    assert c.states == {"q0", "q1", "__dead"}
    assert c.delta[("g", ("q1",))] == {"__dead"}
    assert c.delta[("g", ("__dead",))] == {"__dead"}
    assert c.delta[("and", ("q1", "__dead"))] == {"__dead"}
    # Totality: one target for every symbol and argument combination.
    n = len(c.states)
    assert len(c.delta) == 2 + n + n * n
    assert language_upto(c, 3) == language_upto(a, 3)


def test_complete_requires_determinism(abc):
    with pytest.raises(NotDeterministicError):
        complete(abc)


def test_complete_is_idempotent_and_avoids_name_clashes(bool2):
    assert complete(bool2) == bool2  # already total: no sink is added
    partial = Bta(AB, {"q"}, {("a", ()): {"q"}}, {"q"})
    c = complete(partial)
    assert len(c.delta) == 2 + 4  # b plus every f cell now filled
    assert complete(c) == c
    clash = Bta(AB, {"__dead"}, {("a", ()): {"__dead"}}, {"__dead"})
    cc = complete(clash)
    assert len(cc.states) == 2  # a fresh sink, not a collision
    assert "__dead" in cc.states


def test_complete_returns_exactly_the_total_inputs_unchanged():
    """complete gives complete_by_name's result or error on the view inputs
    (the zero-state automaton among them), on trimmed determinizations, on
    partial texts read line by line, which hold no view, and on partial
    automata declaring the sink's name.  It returns the total inputs
    themselves, and a partial one's completion holds a total view whose
    last name is the sink."""
    texts = [serialize_automaton(drop_every_fifth_rule(determinize(a))) for a in seeded_draws(60)]
    read = [parse_automaton(text) for text in texts]
    assert not any(a._view for a in read)
    clashes = [
        Bta(AB, names, {("a", ()): {names[-1]}, ("f", (names[0],) * 2): {names[0]}}, names[:1])
        for names in (["__dead"], ["__dead", "__dead_1"])
    ]
    inputs = [*view_inputs(), *(trim_empty(determinize(a)) for a in seeded_draws(250)), *read,
              *clashes]
    got = assert_routes_agree(complete, complete_by_name, [(a,) for a in inputs])
    partial = [(a, c) for a, c in zip(inputs, got) if isinstance(c, Bta) and c is not a]
    assert all(is_total_by_product(c) for c in got if isinstance(c, Bta))
    for a, c in partial:
        assert not is_total_by_product(a) and c._view.total
        assert c._view.names[-1] == min(c.states - a.states)
    assert len(partial) > 600
    assert [min(c.states - a.states) for a, c in partial[-2:]] == ["__dead_1", "__dead_2"]


# === top-down determinization =====================================================

def all_tta_fixtures():
    ttas = [load_fixture("bool2r.tta")]
    for name in ("bool2.bta", "and1.bta", "abc.bta", "star.bta"):
        ttas.append(reverse_bta(load_fixture(name)))
    return ttas


def test_both_topdown_determinizations_agree_structurally():
    rng = random.Random(505)
    ttas = all_tta_fixtures() + [random_dtta(rng) for _ in range(40)]
    ttas += [reverse_bta(random_bta(rng)) for _ in range(25)]
    assert_routes_agree(tta_determinize, tta_determinize_direct, [(t,) for t in ttas])


def test_both_topdown_determinizations_agree_under_every_budget(subset_pools, monkeypatch):
    """The same result, or the same BudgetError with the same message, for
    every budget from 0 to one past the result's state count, on the
    reversed seeded draws; and the same subsets interned in the same order
    up to the one that overflows, the co-determinization's masks read as
    the trimmed states' names."""
    direct_pools = []

    class RecordingPool(helpers.NamedSubsetPool):
        def __init__(self, budget: int):
            super().__init__(budget)
            direct_pools.append(self)

    monkeypatch.setattr(helpers, "NamedSubsetPool", RecordingPool)
    raised = []
    for t in map(reverse_bta, seeded_draws(250)):
        states = sorted(trim_unreachable(reverse_tta(t)).states)
        for budget in range(len(tta_determinize(t).states) + 2):
            subset_pools.clear()
            direct_pools.clear()
            got = outcome(tta_determinize, t, budget=budget)
            assert got == outcome(tta_determinize_direct, t, budget=budget)
            built = [frozenset(map(states.__getitem__, m)) for p in subset_pools for m in p.members]
            assert built == [s for p in direct_pools for s in p.order]
            if isinstance(got, Raised):
                raised.append(got.message)
    assert len(raised) > 400
    assert {m.split(" of ")[0] for m in raised} == {
        "budget must be positive", "subset construction exceeded the budget"}


def test_topdown_determinization_output_is_deterministic():
    for t in all_tta_fixtures():
        d = tta_determinize(t)
        assert len(d.initial) <= 1
        for prods in d.delta.values():
            by_symbol = [sym for sym, _ in prods]
            assert len(by_symbol) == len(set(by_symbol))


def test_topdown_determinization_preserves_path_closed_languages(and1):
    t = reverse_bta(and1)  # the and-only language is path-closed
    d = tta_determinize(t)
    for tree in enumerate_trees(and1.alphabet, 4):
        assert tta_accepts(d, tree) == tta_accepts(t, tree)


def test_topdown_determinization_can_grow_the_language(bool2r):
    d = tta_determinize(bool2r)
    t = parse_term("or(F,F)")
    assert not tta_accepts(bool2r, t)
    assert tta_accepts(d, t)  # bool2's language is not path-closed


def test_tta_accepts_matches_a_direct_run():
    rng = random.Random(506)
    cases = all_tta_fixtures() + [random_dtta(rng) for _ in range(20)]
    for t in cases:
        for tree in enumerate_trees(t.alphabet, 3):
            assert tta_accepts(t, tree) == run_tta_directly(t, tree)
