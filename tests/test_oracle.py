"""The brute-force ground-truth layer: bounded languages, language-based
congruence classes, and quotient membership."""

from __future__ import annotations

import random

import pytest

from treeca import oracle
from treeca import (
    Bta,
    BudgetError,
    accepts,
    enumerate_contexts,
    enumerate_trees,
    language_upto,
    minimize_bta,
    nerode_classes_down,
    nerode_classes_up,
    parse_context,
    parse_term,
    plug,
    post_tree,
    quotient_member_down,
    quotient_member_up,
    reachable_states,
)

from helpers import (
    AB,
    ABG,
    BOOL,
    MONO,
    TERN,
    Raised,
    accept_all_bta,
    assert_routes_agree,
    nerode_classes_down_by_plugging,
    nerode_classes_up_by_plugging,
    random_bta,
    seeded_draws,
)


# === language_upto ================================================================

def test_language_upto_and1(and1):
    assert language_upto(and1, 2) == {parse_term("T"), parse_term("and(T,T)")}


def test_language_upto_bool2_height_one(bool2):
    assert language_upto(bool2, 1) == {parse_term("T")}


def test_language_upto_empty_final_is_empty():
    a = Bta(AB, {"q"}, {("a", ()): {"q"}}, set())
    assert language_upto(a, 3) == frozenset()


def test_language_upto_agrees_with_accepts(bool2):
    lang = language_upto(bool2, 3)
    for t in enumerate_trees(BOOL, 3):
        assert (t in lang) == accepts(bool2, t)


def test_language_upto_survives_minimization(bool2, and1, abc):
    for a in (bool2, and1, abc):
        assert language_upto(minimize_bta(a), 4) == language_upto(a, 4)


def test_language_upto_budget_propagates(bool2):
    with pytest.raises(BudgetError):
        language_upto(bool2, 4, budget=50)


# === nerode_classes_up ============================================================

def test_nerode_up_bool2_has_two_classes(bool2):
    classes = nerode_classes_up(bool2, 2, 3)
    assert len(classes) == 2
    assert sorted(len(c) for c in classes) == [5, 5]
    in_lang = next(c for c in classes if parse_term("T") in c)
    assert parse_term("or(F,T)") in in_lang
    assert parse_term("F") not in in_lang


def test_nerode_up_bool2_matches_the_minimal_state_count(bool2):
    # At these bounds the classes are exact: one per minimal-automaton state
    # inhabited at this height.
    assert len(nerode_classes_up(bool2, 2, 3)) == len(minimize_bta(bool2).states)


def test_nerode_up_abc_groups_leaves_against_f_trees(abc):
    classes = nerode_classes_up(abc, 2, 2)
    assert len(classes) == 2
    leaves = next(c for c in classes if parse_term("a") in c)
    assert set(leaves) == {parse_term("a"), parse_term("b"), parse_term("c")}
    others = next(c for c in classes if c is not leaves)
    assert len(others) == 9 and all(t.label == "f" for t in others)


def test_nerode_up_accept_all_is_one_class():
    assert len(nerode_classes_up(accept_all_bta(), 2, 2)) == 1


def test_nerode_up_classes_are_upward_congruent_in_the_exact_regime(bool2):
    """Example-style check: plugging equals members into the same context
    lands them in the same class again."""
    classes = nerode_classes_up(bool2, 2, 3)
    contexts = enumerate_contexts(BOOL, 3)

    def bits(t):
        return tuple(accepts(bool2, plug(x, t)) for x in contexts)

    for cls in classes:
        t0 = cls[0]
        for t in cls[1:]:
            for c in enumerate_contexts(BOOL, 2):
                assert bits(plug(c, t0)) == bits(plug(c, t))


def test_nerode_up_approximate_bounds_only_over_merge(bool2):
    """With a too-small context bound classes may merge but never split:
    every exact class sits inside one approximate class."""
    exact = nerode_classes_up(bool2, 2, 3)
    approx = nerode_classes_up(bool2, 2, 1)
    for cls in exact:
        homes = {id(a) for a in approx for t in cls if t in a}
        assert len(homes) == 1


# === nerode_classes_down ==========================================================

def test_nerode_down_and1_reproduces_the_two_blocks(and1):
    classes = nerode_classes_down(and1, 2, 2)
    assert len(classes) == 2
    live = next(c for c in classes if parse_context("<>") in c)
    assert set(live) == {
        parse_context("<>"),
        parse_context("and(<>,T)"),
        parse_context("and(T,<>)"),
    }
    dead = next(c for c in classes if c is not live)
    assert set(dead) == {parse_context("and(<>,F)"), parse_context("and(F,<>)")}


def test_nerode_down_bool2_has_three_classes(bool2):
    classes = nerode_classes_down(bool2, 2, 2)
    assert sorted(len(c) for c in classes) == [2, 2, 5]


def test_nerode_down_hole_only_is_one_class(bool2):
    assert len(nerode_classes_down(bool2, 1, 2)) == 1


# === Both sweeps against plugging =================================================

SWEEP_BUDGET = 100  # small enough that the largest enumerations raise


def _budgeted(sweep):
    def route(a, first_height, second_height):
        return sweep(a, first_height, second_height, budget=SWEEP_BUDGET)

    route.__name__ = sweep.__name__
    return route


def test_sweeps_give_the_classes_of_plugging_every_tree():
    """The sweeps through reached state sets against plugging every tree into
    every context, at every pair of heights up to 3: the same classes in the
    same order, or the same BudgetError."""
    rng = random.Random(20)
    draws = seeded_draws(250)
    for i in range(200):
        a = random_bta(rng, (AB, ABG, BOOL, MONO, TERN)[i % 5], 3)
        draws.append(a if i % 4 else Bta(a.alphabet, a.states, a.delta, set()))
    # The draws hold what a sweep through state sets must get right: empty
    # final sets, unreachable states, and partial rules, so trees reaching
    # no state at all.
    assert sum(not a.final for a in draws) > 50
    assert sum(reachable_states(a) != a.states for a in draws) > 50
    assert sum(
        any(not post_tree(a, t, a.states) for t in enumerate_trees(a.alphabet, 2)) for a in draws
    ) > 100
    inputs = [(a, h1, h2) for a in draws for h1 in (1, 2, 3) for h2 in (1, 2, 3)]
    got = [
        out
        for sweep, reference in (
            (nerode_classes_up, nerode_classes_up_by_plugging),
            (nerode_classes_down, nerode_classes_down_by_plugging),
        )
        for out in assert_routes_agree(_budgeted(sweep), _budgeted(reference), inputs)
    ]
    raised = [out.type for out in got if isinstance(out, Raised)]
    assert len(got) == 8100 and len(raised) == 2880 and set(raised) == {BudgetError}


def test_sweeps_run_each_tree_once_and_each_context_once_per_reached_set(bool2, monkeypatch):
    """|trees| + k * |contexts| runs, for the k distinct sets the trees reach,
    where plugging would run |trees| * |contexts| trees."""
    run, runs = oracle._run, []
    monkeypatch.setattr(oracle, "_run", lambda *args: runs.append(args[1]) or run(*args))

    def runs_of(sweep, *heights):
        runs.clear()
        sweep(bool2, *heights)
        return len(runs)

    trees = enumerate_trees(BOOL, 2)
    k = len({post_tree(bool2, t, bool2.states) for t in trees})
    assert k == 2
    assert runs_of(nerode_classes_up, 2, 3) == len(trees) + k * len(enumerate_contexts(BOOL, 3))
    assert runs_of(nerode_classes_down, 2, 2) == len(trees) + k * len(enumerate_contexts(BOOL, 2))


# === Quotient membership ==========================================================

def test_quotient_member_examples(and1):
    assert quotient_member_up(and1, parse_context("and(T,<>)"), parse_term("T"))
    for t in enumerate_trees(and1.alphabet, 2):
        assert not quotient_member_up(and1, parse_context("and(F,<>)"), t)
    t = parse_term("and(T,T)")
    assert quotient_member_up(and1, parse_context("<>"), t) == accepts(and1, t)


def test_quotient_membership_is_self_dual():
    rng = random.Random(801)
    for _ in range(10):
        a = random_bta(rng)
        for x in enumerate_contexts(AB, 2):
            for t in enumerate_trees(AB, 2):
                assert quotient_member_up(a, x, t) == quotient_member_down(a, t, x)
