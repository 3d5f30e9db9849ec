"""Spines, root-to-pivot equivalence, the pre operator, path-closedness,
the generalized double-reversal conditions, and the automaton congruences."""

from __future__ import annotations

import itertools
import random
import warnings
from unittest import mock

import pytest

from treeca import (
    Bta,
    NotPathClosedError,
    NotWellRankedError,
    RankedAlphabet,
    TreecaError,
    accepts,
    bta_congruence_down,
    bta_congruence_up,
    check_gen_det_d,
    check_gen_det_u,
    codeterminize,
    enumerate_contexts,
    enumerate_trees,
    gen_det_u_witness,
    is_path_closed,
    language_upto,
    minimize_bta,
    nerode_classes_down,
    nerode_classes_up,
    parse_context,
    parse_term,
    path_language,
    pivot,
    pre_context,
    root_to_pivot_equiv,
    seeded_post,
    spine_of,
    trim_unreachable,
    wpre,
)
from treeca import trees
from treeca.automata import _spine_fold
from treeca.trees import _group

from helpers import (
    AB,
    ABG,
    BOOL,
    MONO,
    TERN,
    accept_all_bta,
    assert_routes_agree,
    gen_det_d_by_isomorphism,
    gen_det_u_by_isomorphism,
    nerode_classes_down_by_plugging,
    nerode_classes_up_by_plugging,
    path_language_upto,
    post_by_products,
    random_bta,
    random_context,
    random_codbta,
    random_monadic_bta,
    random_path_closed_bta,
    seeded_draws,
    split_state_bta,
)


# === Spines =======================================================================

def test_spine_examples():
    assert spine_of(parse_context("<>")) == ()
    assert spine_of(parse_context("or(or(T,F),<>)")) == (("or", 2),)
    wide = RankedAlphabet({"a": 0, "b": 0, "c": 0, "f": 3, "g": 2})
    x = parse_context("f(a,g(<>,c),b)", wide)
    assert spine_of(x) == (("f", 2), ("g", 1))


def test_spine_ignores_sibling_subtrees():
    assert spine_of(parse_context("or(or(T,F),<>)")) == spine_of(parse_context("or(and(F,F),<>)"))


# === Root-to-pivot equivalence ====================================================

def test_root_to_pivot_worked_examples(bool2):
    x = parse_context("or(or(T,F),<>)")
    y = parse_context("or(or(T,T),<>)")
    assert root_to_pivot_equiv(bool2, x, y, bool2.final)
    xp = parse_context("and(and(T,T),<>)")
    yp = parse_context("and(and(T,F),<>)")
    assert not root_to_pivot_equiv(bool2, xp, yp, bool2.final)
    assert root_to_pivot_equiv(bool2, xp, xp, bool2.final)  # reflexivity


def test_root_to_pivot_needs_equal_spines(bool2):
    x = parse_context("or(T,<>)")
    y = parse_context("or(<>,T)")
    assert not root_to_pivot_equiv(bool2, x, y, bool2.final)


def test_root_to_pivot_walks_each_context_to_its_hole_once(bool2):
    """The spines are read off one hole search per context, and both folds
    follow the hole address the equal spines share."""
    x = parse_context("or(or(T,F),<>)")
    y = parse_context("or(or(T,T),<>)")
    with mock.patch.object(trees, "_holes", wraps=trees._holes) as holes:
        assert root_to_pivot_equiv(bool2, x, y)
    assert holes.call_count == 2


def test_root_to_pivot_matches_spines_and_weak_preimages():
    """Verdicts and errors equal those of comparing the spines and then each
    context's weak preimage, on random draws whose contexts often share a
    spine and are sometimes ranked over a wider alphabet."""
    rng = random.Random(7)
    wide = RankedAlphabet({**ABG.entries, "h": 3})

    def outcome(check, *args):
        try:
            return check(*args)
        except TreecaError as exc:
            return type(exc), str(exc)

    def by_spines_and_wpre(a, x, y, s):
        seed = a.final if s is None else frozenset(s)
        if spine_of(x) != spine_of(y):
            return False
        return bool(wpre(a, x, seed)) == bool(wpre(a, y, seed))

    verdicts = set()
    for a in seeded_draws(40):
        for _ in range(10):
            x = random_context(rng, rng.choice((a.alphabet, wide)), 3)
            y = x if rng.random() < 0.3 else random_context(rng, a.alphabet, 3)
            s = None if rng.random() < 0.5 else {q for q in a.states if rng.random() < 0.5}
            got = outcome(root_to_pivot_equiv, a, x, y, s)
            assert got == outcome(by_spines_and_wpre, a, x, y, s)
            verdicts.add(got if isinstance(got, bool) else got[0])
    assert verdicts == {True, False, NotWellRankedError}


# === pre ==========================================================================

def test_pre_worked_examples(bool2, abc):
    assert pre_context(bool2, parse_context("or(and(T,F),<>)")) == {"q0", "q1"}
    assert pre_context(bool2, parse_context("and(or(F,F),<>)")) == frozenset()
    assert pre_context(abc, parse_context("f(<>,a)")) == {"q_a", "q_b", "q_c", "q_dot"}
    assert pre_context(abc, parse_context("<>")) == {"q_f"}


def test_pre_is_empty_exactly_when_wpre_is(bool2, abc, and1):
    for a in (bool2, abc, and1):
        for x in enumerate_contexts(a.alphabet, 2):
            assert (pre_context(a, x) == frozenset()) == (wpre(a, x, a.final) == frozenset())


def test_wpre_is_contained_in_pre(bool2, abc, and1):
    rng = random.Random(701)
    cases = [bool2, abc, and1] + [trim_unreachable(random_bta(rng)) for _ in range(15)]
    for a in cases:
        for x in enumerate_contexts(a.alphabet, 2):
            assert wpre(a, x, a.final) <= pre_context(a, x)


def _pre_by_definition(a: Bta, x, s: frozenset[str]) -> frozenset[str]:
    """pre written out from the seeded runs: trim, give up when no seeded
    run reaches s, else fold the spine keeping every rule whose targets meet
    the running set."""
    a = trim_unreachable(a)
    s &= a.states
    if not any(seeded_post(a, x, q) & s for q in a.states):
        return frozenset()
    r = s
    for sym, i in spine_of(x):
        r = frozenset(
            args[i - 1] for (f, args), targets in a.delta.items() if f == sym and targets & r
        )
    return r


def test_wpre_and_pre_match_their_seeded_definitions():
    """The shared spine fold against the definitions: wpre keeps the states
    whose seeded run meets s, and pre is unchanged from its seeded form."""
    rng = random.Random(705)
    for alphabet in (AB, ABG, BOOL, MONO):
        for _ in range(60):
            a = random_bta(rng, alphabet)
            x = random_context(rng, alphabet, rng.randint(1, 5))
            s = frozenset(q for q in a.states if rng.random() < 0.5)
            assert wpre(a, x, s) == {q for q in a.states if seeded_post(a, x, q) & s}
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                got = pre_context(a, x, s)
            assert got == _pre_by_definition(a, x, s)


def test_pre_warns_and_trims_on_unreachable_states(star):
    with pytest.warns(UserWarning, match="unreachable"):
        got = pre_context(star, parse_context("and(<>,T)"))
    assert got == {"q1"}


def test_pre_validates_the_seed(bool2):
    with pytest.raises(TreecaError):
        pre_context(bool2, parse_context("<>"), {"nope"})
    assert pre_context(bool2, parse_context("<>"), {"q0"}) == {"q0"}


def test_pre_composes_along_context_plugging(and1, abc):
    """pre over x[[y]] equals pre over y seeded with pre over x (trimmed,
    path-closed inputs)."""
    for a in (and1, abc):
        xs = enumerate_contexts(a.alphabet, 2)
        for x, y in itertools.product(xs, repeat=2):
            from treeca import plug

            assert pre_context(a, plug(x, y)) == pre_context(a, y, pre_context(a, x))


# === is_path_closed ===============================================================

def test_path_closed_verdicts(bool2, and1, abc, star):
    assert not is_path_closed(bool2)
    assert is_path_closed(and1)
    assert is_path_closed(abc)
    assert is_path_closed(star)


def test_monadic_automata_are_always_path_closed():
    rng = random.Random(702)
    for _ in range(25):
        assert is_path_closed(random_monadic_bta(rng))


def test_empty_language_is_path_closed():
    empty = Bta(AB, {"q"}, {("a", ()): {"q"}}, set())
    assert is_path_closed(empty)


def test_bool2_failure_has_a_path_witness(bool2):
    """or(F,F) is not accepted although all of its paths occur in the language."""
    t = parse_term("or(F,F)")
    assert not accepts(bool2, t)
    assert path_language(t) <= path_language_upto(bool2, 2)


def test_path_closed_verdicts_match_the_path_oracle(bool2, and1, abc, star):
    """Cross-validation at desk scale: no tree of height <= 3 may have all its
    paths inside the padded path language yet lie outside a language that was
    judged path-closed."""
    rng = random.Random(703)
    cases = [bool2, and1, abc, star] + [random_path_closed_bta(rng) for _ in range(10)]
    for a in cases:
        if not is_path_closed(a):
            continue
        paths = path_language_upto(a, 5)
        lang = language_upto(a, 3)
        for t in enumerate_trees(a.alphabet, 3):
            if path_language(t) <= paths:
                assert t in lang, f"path-closure counterexample {t}"


# === Generalized double-reversal conditions =======================================

def test_gen_det_u_true_cases(bool2, and1):
    assert check_gen_det_u(codeterminize(and1))
    assert check_gen_det_u(minimize_bta(bool2))
    assert check_gen_det_u(bool2)
    assert gen_det_u_witness(bool2) is None


def test_gen_det_u_split_state_fails_with_a_witness(bool2):
    split = split_state_bta()
    assert not check_gen_det_u(split)
    q, m, s1, s2 = gen_det_u_witness(split)
    assert q in ("q1a", "q1b")
    assert s1 != s2 and (q in s1) != (q in s2)
    # The witness exhibits two determinization subsets merged into the same
    # minimal state on which membership of q disagrees.
    assert {s1, s2} == {frozenset({"q1a"}), frozenset({"q1b"})}


def test_gen_det_u_isomorphism_and_product_checks_agree():
    # The draws of acceptance criterion 3 (seeds 31 and 32) are among these,
    # so its agreement check keeps an independent reference.
    rng704, rng31, rng32 = random.Random(704), random.Random(31), random.Random(32)
    draws = [
        *(random_bta(rng704) for _ in range(60)),
        *seeded_draws(250),
        *(random_bta(rng31) for _ in range(500)),
        *(random_codbta(rng32) for _ in range(150)),
    ]
    verdicts = set()
    for a in draws:
        expected = gen_det_u_by_isomorphism(a)
        assert check_gen_det_u(a) == expected
        assert (gen_det_u_witness(a) is None) == expected
        verdicts.add(expected)
    assert verdicts == {False, True}


def test_gen_det_u_holds_for_codbtas_without_empty_states():
    rng = random.Random(705)
    done = 0
    while done < 25:
        a = random_codbta(rng)
        if not a.states:
            continue
        assert check_gen_det_u(a)
        done += 1


def test_gen_det_d_true_cases(and1, abc):
    assert check_gen_det_d(and1)
    assert check_gen_det_d(abc)
    assert check_gen_det_d(minimize_bta(and1))


def test_gen_det_d_rejects_non_path_closed_input(bool2):
    with pytest.raises(NotPathClosedError):
        check_gen_det_d(bool2)


def test_gen_det_d_membership_and_isomorphism_checks_agree():
    # The draws of acceptance criterion 3 (seeds 31 and 32) are among these.
    rng706, rng31, rng32 = random.Random(706), random.Random(31), random.Random(32)
    draws = [
        *seeded_draws(250),
        *(
            random_path_closed_bta(rng706, alphabet)
            for alphabet in (AB, ABG, BOOL, MONO, TERN)
            for _ in range(100)
        ),
        *(random_bta(rng31) for _ in range(500)),
        *(random_codbta(rng32) for _ in range(150)),
    ]
    outcomes = assert_routes_agree(check_gen_det_d, gen_det_d_by_isomorphism, [(a,) for a in draws])
    kinds = {got if isinstance(got, bool) else got.type for got in outcomes}
    assert kinds == {False, True, NotPathClosedError}


# === Automaton congruences ========================================================

def test_congruence_up_bool2_has_the_two_evaluation_classes(bool2):
    classes = bta_congruence_up(bool2, 2)
    assert set(classes) == {frozenset({"q0"}), frozenset({"q1"})}
    assert [len(v) for _, v in sorted(classes.items())] == [5, 5]
    assert parse_term("T") in classes[frozenset({"q1"})]
    assert parse_term("and(T,F)") in classes[frozenset({"q0"})]


def test_congruence_up_abc_keys(abc):
    classes = bta_congruence_up(abc, 2)
    assert set(classes) == {
        frozenset({"q_a", "q_dot"}),
        frozenset({"q_b", "q_dot"}),
        frozenset({"q_c", "q_dot"}),
        frozenset({"q_f"}),
    }
    assert len(classes[frozenset({"q_f"})]) == 9


def test_congruence_up_accept_all_is_one_class():
    assert len(bta_congruence_up(accept_all_bta(), 2)) == 1


def test_congruence_down_abc_classes(abc):
    at2 = bta_congruence_down(abc, 2)
    assert set(at2) == {frozenset({"q_f"}), frozenset({"q_a", "q_b", "q_c", "q_dot"})}
    assert at2[frozenset({"q_f"})] == (parse_context("<>"),)
    assert len(at2[frozenset({"q_a", "q_b", "q_c", "q_dot"})]) == 6
    at3 = bta_congruence_down(abc, 3)
    assert frozenset() in at3  # deeper pivots can no longer reach the final root
    assert parse_context("f(<>,f(a,a))") in at3[frozenset()]


def test_congruence_down_and1_classes(and1):
    classes = bta_congruence_down(and1, 2)
    assert set(classes) == {frozenset(), frozenset({"q1"})}
    assert classes[frozenset({"q1"})] == (
        parse_context("<>"),
        parse_context("and(<>,T)"),
        parse_context("and(T,<>)"),
    )
    assert classes[frozenset()] == (
        parse_context("and(<>,F)"),
        parse_context("and(F,<>)"),
    )


def test_sweeps_agree_with_runs_and_folds_of_their_own():
    """bta_congruence_up groups trees as the full-product run of each does,
    and bta_congruence_down groups contexts as a spine fold of each with no
    shared memo does: the same keys and members in the same order.  The
    draws run back to back, with both oracle sweeps against plugging, so a
    memo or step table leaking across automata or across the seeds of one
    sweep would show."""
    for a in [a for a in seeded_draws(100) if a.alphabet in (AB, ABG, BOOL)]:
        a1 = trim_unreachable(a)
        for h in (2, 3):
            trees = enumerate_trees(a.alphabet, h)
            want = _group(trees, lambda t: post_by_products(a, t))
            assert list(bta_congruence_up(a, h).items()) == list(want.items())
            contexts = enumerate_contexts(a.alphabet, h)
            want = _group(contexts, lambda x: _spine_fold(a1, x, a1.final, pivot(x))[1])
            assert list(bta_congruence_down(a, h).items()) == list(want.items())
        assert nerode_classes_up(a, 2, 2) == nerode_classes_up_by_plugging(a, 2, 2)
        assert nerode_classes_down(a, 2, 2) == nerode_classes_down_by_plugging(a, 2, 2)


def test_congruence_up_refines_the_language_classes(bool2):
    """Every automaton congruence class sits inside one Myhill-Nerode class."""
    auto = bta_congruence_up(bool2, 2)
    lang = nerode_classes_up(bool2, 2, 3)
    for members in auto.values():
        holders = {i for i, cls in enumerate(lang) if members[0] in cls}
        assert all({i for i, cls in enumerate(lang) if t in cls} == holders for t in members)
