"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Criteria 1a-1g pin worked examples exactly (tolerance: exact set or structure
equality, isomorphism where stated).  Criteria 2-7 are property suites over
seeded random automata at desk-scale bounds (trees up to height 4, contexts
up to height 3, at most 4 states) with zero violations allowed; every count
below is a hard minimum from the criterion, not a sample that may shrink.
"""

import itertools
import random

from helpers import (
    AB,
    MONO,
    gen_det_u_by_isomorphism,
    load_fixture,
    random_bta,
    random_codbta,
    random_monadic_bta,
    random_path_closed_bta,
    run_tta_directly,
    split_state_bta,
    tta_determinize_direct,
)

from treeca import (
    Bta,
    Tree,
    accepts,
    brzozowski,
    bta_congruence_up,
    canonical_form,
    check_gen_det_u,
    codeterminize,
    enumerate_contexts,
    enumerate_trees,
    equivalent,
    gen_det_u_witness,
    is_codeterministic,
    is_path_closed,
    isomorphic,
    language_upto,
    min_codbta,
    minimize_bta,
    parse_context,
    parse_term,
    plug,
    post_tree,
    pre_context,
    puncture,
    reverse_bta,
    reverse_tta,
    separating_tree,
    serialize_automaton,
    trim_empty,
    trim_unreachable,
    tta_accepts,
    tta_determinize,
    wpre,
)
from treeca.cli import main as cli_main

TREES3 = enumerate_trees(AB, 3)
TREES4 = enumerate_trees(AB, 4)
CTXS3 = enumerate_contexts(AB, 3)


def report(label: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {label}: {detail}")
    assert ok, f"{label}: {detail}"


def memo_posts(a: Bta, trees) -> dict[Tree, frozenset[str]]:
    """Reachable-state sets for a height-layered tree enumeration, computed
    bottom-up from the rule table alone (children precede parents)."""
    posts: dict[Tree, frozenset[str]] = {}
    for t in trees:
        if not t.children:
            posts[t] = frozenset(a.delta.get((t.label, ()), frozenset()))
        else:
            acc: set[str] = set()
            for args in itertools.product(*(posts[c] for c in t.children)):
                acc |= a.delta.get((t.label, args), frozenset())
            posts[t] = frozenset(acc)
    return posts


def one_state_conjunction_acceptor(template: Bta) -> Bta:
    """The single-state co-deterministic acceptor of all-true conjunctions:
    T and and-of-true land in the lone final state; F has no rule."""
    return Bta(
        template.alphabet,
        {"s"},
        {("T", ()): {"s"}, ("and", ("s", "s")): {"s"}},
        {"s"},
    )


# === Criterion 1: golden worked examples =========================================


def test_criterion_1a_post_worked_example(bool2):
    t = parse_term("and(or(T,F),and(T,T))", bool2.alphabet)
    ok = (
        post_tree(bool2, t, {"q0", "q1"}) == {"q1"}
        and post_tree(bool2, t, {"q0"}) == frozenset()
    )
    report(
        "criterion 1a",
        ok,
        "post of and(or(T,F),and(T,T)) is {q1} from {q0,q1} and {} from {q0} "
        "(tolerance: exact set equality)",
    )


def test_criterion_1b_pre_worked_examples(bool2, abc):
    checks = [
        pre_context(bool2, parse_context("or(and(T,F),<>)", bool2.alphabet))
        == {"q0", "q1"},
        pre_context(bool2, parse_context("and(or(F,F),<>)", bool2.alphabet))
        == frozenset(),
    ]
    one_leaf_contexts = [
        f"f(<>,{leaf})" for leaf in "abc"
    ] + [f"f({leaf},<>)" for leaf in "abc"]
    for text in one_leaf_contexts:
        x = parse_context(text, abc.alphabet)
        checks.append(pre_context(abc, x) == {"q_a", "q_b", "q_c", "q_dot"})
    checks.append(pre_context(abc, parse_context("<>", abc.alphabet)) == {"q_f"})
    report(
        "criterion 1b",
        all(checks),
        "pre reproduces {q0,q1} and {} on the boolean evaluator, "
        "{q_a,q_b,q_c,q_dot} on all six one-leaf contexts and {q_f} on the "
        "hole (tolerance: exact set equality)",
    )


def test_criterion_1c_codeterminize_goldens(and1, abc, abc_codet):
    e = codeterminize(and1)
    h = codeterminize(abc)
    ok = (
        isomorphic(e, one_state_conjunction_acceptor(and1))
        and is_codeterministic(e)
        and trim_empty(e) == e
        and len(h.states) == 2
        and isomorphic(h, abc_codet)
    )
    report(
        "criterion 1c",
        ok,
        "co-determinization yields the 1-state conjunction acceptor with no "
        "empty states and the 2-state leaf/top acceptor (tolerance: "
        "isomorphism)",
    )


def test_criterion_1d_minimize_golden(bool2):
    table: dict[tuple[str, tuple[str, ...]], set[str]] = {
        ("F", ()): {"0"},
        ("T", ()): {"1"},
    }
    for sym in ("and", "or"):
        for left, right in itertools.product("01", repeat=2):
            lv, rv = left == "1", right == "1"
            value = (lv and rv) if sym == "and" else (lv or rv)
            table[(sym, (left, right))] = {"1" if value else "0"}
    expected = Bta(bool2.alphabet, {"0", "1"}, table, {"1"})
    m = minimize_bta(bool2)
    ok = isomorphic(m, expected) and canonical_form(m) == expected
    report(
        "criterion 1d",
        ok,
        "minimization of the boolean evaluator is the 2-state machine with "
        "the full 10-rule truth table (tolerance: isomorphism plus exact "
        "canonical table)",
    )


def test_criterion_1e_min_codbta_golden(and1):
    m = min_codbta(and1)
    ok = isomorphic(m, one_state_conjunction_acceptor(and1)) and is_codeterministic(m)
    report(
        "criterion 1e",
        ok,
        "minimal co-deterministic acceptor of the conjunction language has "
        "exactly one state (tolerance: isomorphism)",
    )


def test_criterion_1f_unreachable_states_grow_codeterminization(star):
    lazy = codeterminize(star, pretrim=False)
    t = parse_term("star(T,T)", star.alphabet)
    ok = accepts(lazy, t) and not accepts(star, t)
    report(
        "criterion 1f",
        ok,
        "without pre-trimming, co-determinization of the star automaton "
        "accepts star(T,T) which the input rejects (tolerance: exact "
        "membership)",
    )


def test_criterion_1g_path_closedness_verdicts(bool2, and1):
    rng = random.Random(17)
    monadic_ok = all(
        is_path_closed(random_monadic_bta(rng)) for _ in range(50)
    )
    ok = not is_path_closed(bool2) and is_path_closed(and1) and monadic_ok
    report(
        "criterion 1g",
        ok,
        "boolean evaluator not path-closed, conjunction language path-closed, "
        "50/50 random all-arities<=1 automata path-closed (tolerance: exact "
        "verdicts)",
    )


# === Criterion 2: double reversal equals minimization ============================


def test_criterion_2_double_reversal_minimizes(and1, abc):
    rng = random.Random(21)
    cases = [and1, abc] + [random_path_closed_bta(rng) for _ in range(200)]
    violations = [
        i
        for i, a in enumerate(cases)
        if not isomorphic(brzozowski(a), minimize_bta(a))
    ]
    report(
        "criterion 2",
        not violations,
        f"double-reversal output isomorphic to the minimal machine on "
        f"{len(cases) - len(violations)}/{len(cases)} trimmed path-closed "
        f"automata (tolerance: isomorphism in 100% of cases)",
    )


# === Criterion 3: generalized minimality condition ===============================


def test_criterion_3_generalized_condition(capsys, tmp_path):
    rng = random.Random(31)
    draws = [random_bta(rng) for _ in range(500)]
    verdicts = [check_gen_det_u(a) for a in draws]
    disagreements = sum(
        verdict != gen_det_u_by_isomorphism(a) for a, verdict in zip(draws, verdicts)
    )
    minimal = sum(verdicts)
    rng = random.Random(32)
    codet_failures = sum(
        not check_gen_det_u(a) for a in (random_codbta(rng) for _ in range(150))
    )

    split = split_state_bta()
    witness = gen_det_u_witness(split)
    split_ok = (
        not check_gen_det_u(split)
        and witness is not None
        and witness[0] == "q1a"
        and witness[1] == "{{q1a},{q1b}}"
        and {witness[2], witness[3]} == {frozenset({"q1a"}), frozenset({"q1b"})}
    )
    path = tmp_path / "split.bta"
    path.write_text(serialize_automaton(split))
    code = cli_main(["check-brz-u", str(path), "--witness"])
    out = capsys.readouterr().out
    witness_line = (
        "witness: state q1a separates subsets {q1a} and {q1b} "
        "merged into {{q1a},{q1b}}"
    )
    printed_ok = code == 1 and out.splitlines() == [
        "determinization is not minimal",
        witness_line,
    ]
    print(witness_line)
    report(
        "criterion 3",
        disagreements == 0 and codet_failures == 0 and split_ok and printed_ok,
        f"check_gen_det_u agrees with the definition (the determinization is "
        f"isomorphic to its minimization) on 500 random automata ({minimal} "
        f"minimal, {len(draws) - minimal} not, {disagreements} disagreements), "
        f"150/150 co-deterministic "
        f"machines without empty states pass, and the split-state automaton "
        f"fails with the printed (q1a, {{{{q1a}},{{q1b}}}}) witness "
        f"(tolerance: exact agreement)",
    )


# === Criterion 4: law suite at desk-scale bounds ==================================


def test_criterion_4_downward_languages_unfold_through_rules():
    """A tree reaches q exactly when some rule for its root symbol targets q
    and every child reaches the matching argument state."""
    rng = random.Random(45)
    violations = 0
    for _ in range(100):
        a = random_bta(rng)
        t = rng.choice(TREES4)
        lhs = post_tree(a, t, a.states)
        if not t.children:
            rhs = frozenset(a.delta.get((t.label, ()), frozenset()))
        else:
            kid_posts = [post_tree(a, c, a.states) for c in t.children]
            rhs = frozenset(
                q
                for (sym, args), targets in a.delta.items()
                if sym == t.label
                and len(args) == len(t.children)
                and all(p in kp for p, kp in zip(args, kid_posts))
                for q in targets
            )
        violations += lhs != rhs
    report(
        "criterion 4 [rule unfolding of downward languages]",
        violations == 0,
        f"{violations} violations over 100 random (automaton, tree<=h4) "
        f"instances (tolerance: exact set equality)",
    )


def test_criterion_4_post_and_pre_determine_quotients():
    """Upward: a context accepts a plugged tree iff its weak preimage meets
    the tree's post set.  Downward (trimmed, path-closed): a tree completes a
    context iff its post set meets the context's pre set."""
    rng = random.Random(41)
    up_violations = 0
    for _ in range(100):
        a = random_bta(rng)
        t = rng.choice(TREES4)
        pt = post_tree(a, t, a.initial_states)
        for y in CTXS3:
            lhs = bool(wpre(a, y, a.final) & pt)
            up_violations += lhs != accepts(a, plug(y, t))
    rng = random.Random(42)
    down_violations = 0
    for _ in range(100):
        a = random_path_closed_bta(rng)
        x = rng.choice(CTXS3)
        px = pre_context(a, x)
        for t in list(TREES3) + rng.sample(TREES4, 100):
            lhs = bool(px & post_tree(a, t, a.initial_states))
            down_violations += lhs != accepts(a, plug(x, t))
    report(
        "criterion 4 [post/pre quotient laws]",
        up_violations == 0 and down_violations == 0,
        f"{up_violations} upward violations over 100 instances x 61 contexts, "
        f"{down_violations} downward violations over 100 path-closed "
        f"instances x 138 trees (tolerance: exact membership agreement)",
    )


def test_criterion_4_post_recursion_over_symbols():
    """post of f(t1,t2) from any seed equals the rule-table image of the
    children's posts."""
    rng = random.Random(46)
    violations = 0
    for _ in range(100):
        a = random_bta(rng)
        s = frozenset(q for q in a.states if rng.random() < 0.5)
        kids = (rng.choice(TREES3), rng.choice(TREES3))
        lhs = post_tree(a, Tree("f", kids), s)
        kid_posts = [post_tree(a, c, s) for c in kids]
        rhs: set[str] = set()
        for args in itertools.product(*kid_posts):
            rhs |= a.delta.get(("f", args), frozenset())
        violations += lhs != frozenset(rhs)
    report(
        "criterion 4 [post recursion]",
        violations == 0,
        f"{violations} violations over 100 random (automaton, seed, children) "
        f"instances (tolerance: exact set equality)",
    )


def test_criterion_4_pre_composes_along_context_nesting():
    """On trimmed path-closed automata, pre of a composed context equals pre
    of the inner context seeded with pre of the outer one."""
    rng = random.Random(43)
    violations = 0
    for _ in range(100):
        a = random_path_closed_bta(rng)
        x, y = rng.choice(CTXS3), rng.choice(CTXS3)
        composed = pre_context(a, plug(x, y))
        violations += composed != pre_context(a, y, pre_context(a, x))
    report(
        "criterion 4 [pre composition]",
        violations == 0,
        f"{violations} violations over 100 random path-closed (automaton, "
        f"context, context) instances (tolerance: exact set equality)",
    )


def test_criterion_4_post_equality_is_an_upward_congruence():
    """Trees with equal post sets stay equal-post under any shared parent and
    are indistinguishable by any bounded context."""
    rng = random.Random(47)
    violations = 0
    for _ in range(100):
        a = random_bta(rng)
        groups: dict[frozenset[str], list[Tree]] = {}
        for t in TREES3:
            groups.setdefault(post_tree(a, t, a.initial_states), []).append(t)
        t, r = rng.sample(max(groups.values(), key=len), 2)
        s = rng.choice(TREES3)
        for left, right in ((Tree("f", (t, s)), Tree("f", (r, s))),
                            (Tree("f", (s, t)), Tree("f", (s, r)))):
            violations += post_tree(a, left, a.initial_states) != post_tree(
                a, right, a.initial_states
            )
        for y in CTXS3:
            violations += accepts(a, plug(y, t)) != accepts(a, plug(y, r))
    report(
        "criterion 4 [upward congruence and refinement]",
        violations == 0,
        f"{violations} violations over 100 random equal-post tree pairs, "
        f"each probed by 61 contexts (tolerance: exact agreement)",
    )


def test_criterion_4_pre_equality_is_a_strongly_downward_congruence():
    """On trimmed path-closed automata, contexts with equal pre sets stay
    equal-pre under composition, under puncturing accepted plug-ins at
    matching positions, and accept the same bounded trees."""
    rng = random.Random(44)
    done = attempts = violations = 0
    while done < 100 and attempts < 3000:
        attempts += 1
        a = random_path_closed_bta(rng)
        if not a.final:
            continue
        by_pre: dict[frozenset[str], list[Tree]] = {}
        for z in CTXS3:
            by_pre.setdefault(pre_context(a, z), []).append(z)
        group = next((g for g in by_pre.values() if len(g) >= 2), None)
        if group is None:
            continue
        x, y = rng.sample(group, 2)
        tx = next((t for t in TREES3 if t.children and accepts(a, plug(x, t))), None)
        ty = next((t for t in TREES3 if t.children and accepts(a, plug(y, t))), None)
        if tx is None or ty is None:
            continue
        done += 1
        c = rng.choice(CTXS3)
        violations += pre_context(a, plug(x, c)) != pre_context(a, plug(y, c))
        for i in (1, 2):
            violations += pre_context(a, plug(x, puncture(tx, (i,)))) != pre_context(
                a, plug(y, puncture(ty, (i,)))
            )
        for t in TREES3:
            violations += accepts(a, plug(x, t)) != accepts(a, plug(y, t))
    report(
        "criterion 4 [strongly downward congruence and refinement]",
        violations == 0 and done == 100,
        f"{violations} violations over {done} random equal-pre context pairs "
        f"with accepted binary plug-ins (tolerance: exact agreement)",
    )


def test_criterion_4_blocks_are_intersections_of_state_languages():
    """The block of a tree under post-set equality is the intersection of the
    downward languages of its post states with the complements of the rest;
    dually, any bounded witness certifying q for an equal-pre context already
    lies in that context's pre set."""
    rng = random.Random(48)
    violations = 0
    for _ in range(100):
        a = trim_unreachable(random_bta(rng))
        posts = memo_posts(a, TREES4)
        universe = set(TREES3)
        members = {q: {t for t in TREES3 if q in posts[t]} for q in a.states}
        blocks = bta_congruence_up(a, 3)
        t = rng.choice(TREES3)
        block = set(blocks[post_tree(a, t, a.initial_states)])
        rhs = set(universe)
        for q in a.states:
            rhs &= members[q] if q in posts[t] else universe - members[q]
        violations += block != rhs
        for r in rng.sample(TREES4, 50):
            violations += (posts[r] == posts[t]) != all(
                (q in posts[r]) == (q in posts[t]) for q in a.states
            )
        z = rng.choice(CTXS3)
        pz = pre_context(a, z)
        certified = {
            q
            for y in CTXS3
            if pre_context(a, y) == pz
            for q in wpre(a, y, a.final)
        }
        violations += not certified <= pz
    report(
        "criterion 4 [block intersections]",
        violations == 0,
        f"{violations} violations over 100 random trimmed instances: upward "
        f"blocks match state-language intersections exactly on 38 trees<=h3 "
        f"plus 50 sampled trees<=h4, downward witnesses stay inside pre "
        f"(tolerance: exact equality; the downward direction asserts "
        f"containment because its witness height is unbounded)",
    )


# === Criterion 5: decision procedure vs bounded-language oracle ===================


def test_criterion_5_equivalence_matches_bounded_languages():
    rng = random.Random(51)
    mismatches = resolved = 0
    seen_equivalent = seen_inequivalent = False
    for _ in range(500):
        a, b = random_bta(rng, max_states=3), random_bta(rng, max_states=3)
        verdict = equivalent(a, b)
        bounded_equal = language_upto(a, 4) == language_upto(b, 4)
        if verdict:
            seen_equivalent = True
            mismatches += not bounded_equal
        else:
            seen_inequivalent = True
            w = separating_tree(a, b)
            if w is None or accepts(a, w) == accepts(b, w):
                mismatches += 1
            elif bounded_equal:
                resolved += 1
                print(f"resolved by printed separating tree of height {w.height}")
                assert w.height > 4
    report(
        "criterion 5",
        mismatches == 0 and seen_equivalent and seen_inequivalent,
        f"equivalence verdicts agree with height-4 language equality on "
        f"500/500 random pairs ({mismatches} unresolved mismatches, "
        f"{resolved} taller-than-bound disagreements resolved by the "
        f"printed separating tree; tolerance: exact agreement)",
    )


# === Criterion 6: arity-one collapse ==============================================


def test_criterion_6_monadic_collapse():
    rng = random.Random(61)
    contexts = enumerate_contexts(MONO, 3)
    pre_violations = rejections = 0
    for _ in range(50):
        a = random_monadic_bta(rng)
        trimmed = trim_unreachable(a)
        for x in contexts:
            pre_violations += pre_context(trimmed, x) != wpre(
                trimmed, x, trimmed.final
            )
        try:
            ok = isomorphic(brzozowski(a), minimize_bta(a))
        except Exception:
            rejections += 1
            ok = False
        pre_violations += not ok
    report(
        "criterion 6",
        pre_violations == 0 and rejections == 0,
        f"on 50 random all-arities<=1 automata, pre equals the weak preimage "
        f"on every context up to height 3 and double reversal runs without a "
        f"path-closedness rejection ({rejections} rejections, "
        f"{pre_violations} violations; tolerance: exact set equality)",
    )


# === Criterion 7: top-down/bottom-up duality ======================================


def test_criterion_7_duality(bool2r):
    fixtures = [bool2r] + [
        reverse_bta(load_fixture(name))
        for name in ("and1.bta", "bool2.bta", "abc.bta", "star.bta", "abc_codet.bta")
    ]
    route_mismatches = acceptance_mismatches = trees_checked = 0
    for t in fixtures:
        via_reversal = tta_determinize(t)
        direct = tta_determinize_direct(t)
        route_mismatches += not isomorphic(
            reverse_tta(via_reversal), reverse_tta(direct)
        )
        back = reverse_tta(t)
        for tree in enumerate_trees(t.alphabet, 3):
            trees_checked += 1
            direct_run = run_tta_directly(t, tree)
            acceptance_mismatches += (
                tta_accepts(t, tree) != direct_run or accepts(back, tree) != direct_run
            )
    report(
        "criterion 7",
        route_mismatches == 0 and acceptance_mismatches == 0,
        f"direct top-down determinization isomorphic to the "
        f"reverse/co-determinize/reverse route on all {len(fixtures)} "
        f"top-down fixtures, and both acceptance notions agree with the "
        f"textbook run on {trees_checked} enumerated trees "
        f"({acceptance_mismatches} mismatches; tolerance: isomorphism and "
        f"exact membership)",
    )
