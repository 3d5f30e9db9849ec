"""Automaton values and their run semantics: post, accepts, seeded runs,
weak pre, trims, and the determinism predicates."""

from __future__ import annotations

import itertools
import random

import pytest

from treeca import (
    HOLE,
    Bta,
    NotWellRankedError,
    RankedAlphabet,
    Tree,
    TreecaError,
    Tta,
    accepts,
    bta_congruence_up,
    determinize,
    enumerate_contexts,
    enumerate_trees,
    is_codeterministic,
    is_deterministic,
    is_path_closed,
    iter_nodes,
    language_upto,
    minimize_bta,
    parse_context,
    parse_term,
    plug,
    post_tree,
    pre_context,
    puncture,
    reachable_states,
    reverse_bta,
    reverse_tta,
    seeded_post,
    substitute,
    subtree,
    trim_empty,
    trim_unreachable,
    tta_accepts,
    useful_states,
    wpre,
)
from treeca import analysis, automata
from treeca.automata import RuleIndex
from treeca.trees import _group

from helpers import (
    AB,
    ABG,
    BOOL,
    MONO,
    TERN,
    Raised,
    assert_routes_agree,
    post_by_products,
    random_bta,
    random_context,
    random_dtta_parts,
    random_sized_tree,
    reachable_by_fixpoint,
    restrict_by_rebuild,
    rules_by_copy,
    seeded_draws,
    useful_by_fixpoint,
)


# === Construction =================================================================

def test_bta_validates_states_and_arities():
    with pytest.raises(TreecaError):
        Bta(BOOL, {"q0"}, {}, {"q1"})  # undeclared final state
    with pytest.raises(TreecaError):
        Bta(BOOL, {"q0"}, {("and", ("q0",)): {"q0"}}, set())  # arity mismatch
    with pytest.raises(TreecaError):
        Bta(BOOL, {"q0"}, {("xor", ("q0", "q0")): {"q0"}}, set())  # unknown symbol
    with pytest.raises(TreecaError):
        Bta(BOOL, {"q0"}, {("and", ("q0", "q1")): {"q0"}}, set())  # undeclared state


def test_initial_states_are_the_nullary_targets(bool2, abc):
    assert bool2.initial_states == {"q0", "q1"}
    assert abc.initial_states == {"q_a", "q_b", "q_c", "q_dot"}


def test_tta_validates_productions():
    with pytest.raises(TreecaError):
        Tta(BOOL, {"p"}, {}, {"q"})
    with pytest.raises(TreecaError):
        Tta(BOOL, {"p"}, {"p": {("and", ("p",))}}, {"p"})
    with pytest.raises(TreecaError):
        Tta(BOOL, {"p"}, {"q": set()}, {"p"})  # productions for an undeclared state


def test_tta_reads_the_rules_of_its_productions():
    for seed in range(200):
        rng = random.Random(seed)
        alphabet = (AB, ABG, BOOL, MONO, TERN)[seed % 5]
        alphabet, states, delta, initial = random_dtta_parts(rng, alphabet, 5)
        t = Tta(alphabet, states, delta, initial)
        assert t.delta == {q: frozenset(prods) for q, prods in delta.items() if prods}
        assert (t.states, t.initial) == (frozenset(states), frozenset(initial))
        assert reverse_tta(t) == rules_by_copy(alphabet, states, delta, initial)


# === post and accepts =============================================================

def test_post_reproduces_the_worked_example(bool2):
    t = parse_term("and(or(T,F),and(T,T))")
    assert post_tree(bool2, t, {"q0", "q1"}) == {"q1"}
    assert post_tree(bool2, t, {"q0"}) == frozenset()


def test_post_rejects_foreign_trees_and_states(bool2):
    with pytest.raises(NotWellRankedError):
        post_tree(bool2, parse_term("f(a,b)"), bool2.states)
    with pytest.raises(TreecaError):
        post_tree(bool2, parse_term("T"), {"nope"})


def test_accepts_evaluates_booleans(bool2):
    assert accepts(bool2, parse_term("or(F,T)"))
    assert not accepts(bool2, parse_term("and(T,F)"))
    assert accepts(bool2, parse_term("or(and(T,T),F)"))


def test_accepts_on_the_nondeterministic_fixture(abc):
    assert accepts(abc, parse_term("f(a,a)"))
    assert accepts(abc, parse_term("f(a,b)"))  # both leaves can move to q_dot
    assert not accepts(abc, parse_term("a"))
    assert not accepts(abc, parse_term("f(f(a,a),a)"))


def test_inductive_characterization_of_post(bool2, abc, and1):
    """q is in post(f[t1..tk]) exactly when some rule f(q1..qk) -> q has
    qi in post(ti) for every i."""
    for a in (bool2, abc, and1):
        full = a.states
        for t in enumerate_trees(a.alphabet, 3):
            got = post_tree(a, t, full)
            if not t.children:
                assert got == a.delta.get((t.label, ()), frozenset())
                continue
            kid_posts = [post_tree(a, c, full) for c in t.children]
            expected = set()
            for (sym, args), targets in a.delta.items():
                if sym == t.label and all(q in s for q, s in zip(args, kid_posts)):
                    expected |= targets
            assert got == frozenset(expected)


def test_post_recursion_over_every_seed_set(and1):
    """post(f[t1..tk], S) = delta(f[post(t1,S) x .. x post(tk,S)]) for every S."""
    states = sorted(and1.states)
    for r in range(len(states) + 1):
        for s in itertools.combinations(states, r):
            for t in enumerate_trees(and1.alphabet, 3):
                if not t.children:
                    continue
                kid_posts = [post_tree(and1, c, s) for c in t.children]
                expected = set()
                for combo in itertools.product(*kid_posts):
                    expected |= and1.delta.get((t.label, combo), frozenset())
                assert post_tree(and1, t, s) == frozenset(expected)


def with_faults(rng: random.Random, t: Tree, alphabet: RankedAlphabet) -> Tree:
    """t with two of its nodes other than the hole made misranked, one
    relabeled with an unknown symbol and one given an extra child, so the
    fault a run reports tells which one it reached first."""
    spots = [addr for addr, node in iter_nodes(t) if node.label != HOLE]
    unknown, extra = rng.sample(spots, 2)
    node = subtree(t, unknown)
    t = substitute(t, unknown, Tree("zz", node.children))
    node = subtree(t, extra)
    return substitute(t, extra, Tree(node.label, (*node.children, Tree(alphabet.nullary[0]))))


def test_runs_agree_with_the_full_product_at_every_node():
    """post_tree, accepts, seeded_post and bta_congruence_up's memo route give
    what evaluating every node by the full product of its children's sets
    gives, on terms and contexts of the bounded workload's sizes, and
    misranked inputs raise the same error, for the same node."""
    rng = random.Random(29)
    accepted = lambda a, t: bool(post_by_products(a, t) & a.final)  # noqa: E731
    seeded = lambda a, x, q: post_by_products(a, x, hole=q)  # noqa: E731
    for a in seeded_draws(15):
        t = random_sized_tree(rng, a.alphabet, 2000)
        base = random_sized_tree(rng, a.alphabet, 1000)
        leaf = rng.choice([addr for addr, node in iter_nodes(base) if not node.children])
        x = puncture(base, leaf)
        s = frozenset(q for q in sorted(a.states) if rng.random() < 0.6)
        terms = [t, with_faults(rng, t, a.alphabet), x]
        contexts = [x, with_faults(rng, x, a.alphabet), random_context(rng, a.alphabet, 6)]
        got = assert_routes_agree(post_tree, post_by_products, [(a, u, s) for u in terms])
        assert isinstance(got[1], Raised)
        assert_routes_agree(accepts, accepted, [(a, u) for u in terms])
        inputs = [(a, u, q) for u in contexts for q in sorted(a.states)]
        assert_routes_agree(seeded_post, seeded, inputs)
        trees = enumerate_trees(a.alphabet, 3)
        assert list(bta_congruence_up(a, 3).items()) == list(
            _group(trees, lambda u: post_by_products(a, u)).items()
        )


def test_misranked_inputs_raise_the_same_error_on_every_route(bool2, monkeypatch):
    """A nullary symbol given a child, an unknown symbol with and without
    children, and an inner symbol with one child too many raise
    NotWellRankedError naming the symbol, never a KeyError or an empty set:
    in runs over trees and seeded contexts, in the sibling runs and the
    spine of the folds, and in the memo route of a congruence sweep, where
    the children are known and the node is one step."""
    T, F, hole = Tree("T"), Tree("F"), Tree(HOLE)
    shapes = [Tree("T", (F,)), Tree("zz"), Tree("zz", (T, F)), Tree("and", (T, F, T))]

    def raises(what: str, label: str, route, *args) -> None:
        with pytest.raises(NotWellRankedError) as caught:
            route(*args)
        assert type(caught.value) is NotWellRankedError
        assert str(caught.value) == f"{what} is not well ranked at symbol {label!r}"

    for bad in shapes:
        label = bad.label
        raises("tree", label, accepts, bool2, bad)
        raises("tree", label, post_tree, bool2, bad, bool2.states)
        beside = Tree("or", (hole, bad))
        raises("context", label, seeded_post, bool2, beside, "q0")
        raises("tree", label, wpre, bool2, beside, bool2.final)
        raises("tree", label, pre_context, bool2, beside)
        if bad.children:
            above = Tree(label, (hole, *bad.children[1:]))
            raises("context", label, seeded_post, bool2, above, "q0")
            raises("context", label, wpre, bool2, above, bool2.final)
            raises("context", label, pre_context, bool2, above)
        monkeypatch.setattr(analysis, "enumerate_trees", lambda *args, bad=bad: (T, F, bad))
        raises("tree", label, bta_congruence_up, bool2, 2)


def test_the_rule_index_is_built_once_per_automaton_and_direction(bool2, and1, monkeypatch):
    """Two runs read one upward index and two folds one downward index;
    the path-closedness check co-determinizes a1 and starts a1's subset
    construction from one index of a1."""
    made: list[Bta] = []
    builds: list[str] = []

    class CountingIndex(RuleIndex):
        def __init__(self, a: Bta):
            super().__init__(a)
            made.append(a)

    for name in ("up", "down"):
        def counted(ix, read=getattr(RuleIndex, name).fget, name=name):
            if getattr(ix, "_" + name) is None:
                builds.append(name)
            return read(ix)
        setattr(CountingIndex, name, property(counted))
    monkeypatch.setattr(automata, "RuleIndex", CountingIndex)
    a = Bta(bool2.alphabet, bool2.states, bool2.delta, bool2.final)
    for _ in range(2):
        assert accepts(a, parse_term("and(T,or(F,T))"))
    assert (len(made), builds) == (1, ["up"])
    for _ in range(2):
        assert wpre(a, parse_context("or(<>,F)"), a.final) == {"q1"}
    assert (len(made), builds) == (1, ["up", "down"])
    a1 = Bta(and1.alphabet, and1.states, and1.delta, and1.final)
    assert trim_unreachable(a1) is a1
    made.clear()
    builds.clear()
    assert is_path_closed(a1)
    assert made[0] is a1 and len(made) == 2  # a1's, then its co-determinization's
    assert builds == ["down", "up", "up"]


def counting_lines(monkeypatch) -> list[tuple]:
    """Every call of the one subset step, _Subsets.line, while the test runs:
    its symbol, prefix and last subsets."""
    calls: list[tuple] = []
    line = automata._Subsets.line

    def spy(self, sym, prefix, lasts):
        lasts = tuple(lasts)
        calls.append((sym, prefix, lasts))
        return line(self, sym, prefix, lasts)

    monkeypatch.setattr(automata._Subsets, "line", spy)
    return calls


def test_a_run_evaluates_each_distinct_step_once(monkeypatch):
    """A run steps each distinct (symbol, child state sets) key once, one
    line of one last subset: a 3000-node term over a draw of at most four
    states meets far fewer steps than inner nodes, and an empty step is a
    hit like any other."""
    rng = random.Random(5)
    lines = counting_lines(monkeypatch)
    empty_steps = all_steps = inner_nodes = 0
    for a in [a for a in seeded_draws(20) if len(a.states) <= 4]:
        t = random_sized_tree(rng, a.alphabet, 3000)
        sets: dict[int, frozenset[str]] = {}  # by node id, read off an independent pass
        steps: dict[tuple, frozenset[str]] = {}
        nodes = [t]
        for u in nodes:
            nodes += u.children
        for u in reversed(nodes):
            if not u.children:
                sets[id(u)] = a.delta.get((u.label, ()), frozenset())
                continue
            key = (u.label, *(sets[id(c)] for c in u.children))
            acc = set()
            for combo in itertools.product(*key[1:]):
                acc |= a.delta.get((u.label, combo), frozenset())
            sets[id(u)] = steps[key] = frozenset(acc)
            inner_nodes += 1
        lines.clear()
        assert accepts(a, t) == bool(sets[id(t)] & a.final)
        assert len(lines) == len(steps)
        assert all(len(lasts) == 1 for _, _, lasts in lines)
        all_steps += len(steps)
        empty_steps += sum(not out for out in steps.values())
    assert empty_steps and all_steps * 10 < inner_nodes


def test_a_congruence_sweep_evaluates_each_distinct_step_once(monkeypatch):
    """One bta_congruence_up sweep over ABG at height 3 steps each distinct
    (symbol, child state sets) key once over all the trees it enumerates,
    not once per tree."""
    trees = enumerate_trees(ABG, 3)
    lines = counting_lines(monkeypatch)
    all_steps = inner_trees = 0
    for a in [a for a in seeded_draws(50) if a.alphabet is ABG]:
        lines.clear()
        got = bta_congruence_up(a, 3)
        keys = [(t.label, *(post_by_products(a, c) for c in t.children)) for t in trees]
        steps = {key for key in keys if len(key) > 1}
        assert len(lines) == len(steps)
        assert list(got) == list(_group(trees, lambda t: post_by_products(a, t)))
        all_steps += len(steps)
        inner_trees += sum(len(key) > 1 for key in keys)
    assert all_steps * 3 < inner_trees


# === Seeded runs and wpre =========================================================

def test_seeded_post_pins_only_the_hole(bool2):
    x = parse_context("or(<>,F)")
    assert seeded_post(bool2, x, "q1") == {"q1"}
    assert seeded_post(bool2, x, "q0") == {"q0"}
    y = parse_context("or(<>,T)")
    assert seeded_post(bool2, y, "q0") == {"q1"}


def test_seeded_post_composes_along_context_nesting(bool2):
    """Seeding x[[y]] equals seeding y first, then climbing x from each result."""
    xs = enumerate_contexts(BOOL, 2)
    for x, y in itertools.product(xs, repeat=2):
        for q in sorted(bool2.states):
            via = set()
            for p in seeded_post(bool2, y, q):
                via |= seeded_post(bool2, x, p)
            assert seeded_post(bool2, plug(x, y), q) == frozenset(via)


def test_wpre_worked_examples(bool2):
    assert wpre(bool2, parse_context("or(and(T,F),<>)"), bool2.final) == {"q1"}
    assert wpre(bool2, parse_context("and(or(F,F),<>)"), bool2.final) == frozenset()
    assert wpre(bool2, parse_context("<>"), bool2.final) == {"q1"}


def test_wpre_membership_is_seeded_acceptance(bool2):
    for x in enumerate_contexts(BOOL, 2):
        got = wpre(bool2, x, bool2.final)
        for q in sorted(bool2.states):
            assert (q in got) == bool(seeded_post(bool2, x, q) & bool2.final)


# === Trims ========================================================================

def test_reachable_and_useful_states(star):
    # q2 only occurs in star rules whose other argument needs q2 already, and
    # q0 can never climb out of the false and-rules.
    assert reachable_states(star) == {"q0", "q1"}
    assert useful_states(star) == {"q1", "q2"}
    trimmed = trim_unreachable(star)
    assert trimmed.states == {"q0", "q1"}
    assert all(sym != "star" for (sym, _), _ in trimmed.delta.items())


def test_reachable_states_is_the_rescan_fixpoint():
    for a in seeded_draws(250):
        assert reachable_states(a) == reachable_by_fixpoint(a)


def test_useful_states_is_the_rescan_fixpoint(star):
    for a in [star] + seeded_draws(250):
        assert useful_states(a) == useful_by_fixpoint(a)


def test_trim_empty_keeps_unreachable_but_useful_states(star):
    # Upward usefulness does not require reachability: q2 climbs to the final
    # q2 through star rules whose sibling q1 is reachable.
    kept = trim_empty(star)
    assert kept.states == {"q1", "q2"}
    assert "q2" not in reachable_states(star)


def test_sibling_realizability_blocks_usefulness():
    # f(q_dead, q) -> final: the unreachable q_dead still has an upward
    # language (plug the hole there, fill the sibling with a), but q does not,
    # because its sibling position q_dead can never be filled by a real tree.
    a = Bta(
        AB,
        {"q", "q_dead", "q_fin"},
        {("a", ()): {"q"}, ("f", ("q_dead", "q")): {"q_fin"}},
        {"q_fin"},
    )
    assert useful_states(a) == {"q_dead", "q_fin"}
    assert trim_empty(a).states == {"q_dead", "q_fin"}


def test_trims_preserve_the_language():
    rng = random.Random(401)
    for _ in range(40):
        a = random_bta(rng)
        for t in enumerate_trees(AB, 3):
            expect = accepts(a, t)
            assert accepts(trim_unreachable(a), t) == expect
            assert accepts(trim_empty(a), t) == expect


def test_trims_return_their_input_exactly_when_nothing_is_dropped():
    kept = dropped = 0
    for a in seeded_draws(250):
        d, m = determinize(a), minimize_bta(a)
        # a determinization is fully reachable, merged or not, so stripping
        # the dead class needs no reachability pass
        assert trim_unreachable(d) is d and trim_unreachable(m) is m
        assert minimize_bta(a, strip_dead=True) == trim_empty(m)
        for x in (a, d, trim_empty(d)):
            for trim, keep in (
                (trim_unreachable, reachable_states(x)),
                (trim_empty, useful_states(x)),
            ):
                got = trim(x)
                if keep == x.states:
                    assert got is x
                    kept += 1
                else:
                    assert got is not x and got == restrict_by_rebuild(x, keep)
                    dropped += 1
    assert kept > 100 and dropped > 100


def test_trim_language_preservation_at_height_four(and1, bool2):
    for a in (and1, bool2):
        assert language_upto(trim_unreachable(a), 4) == language_upto(a, 4)
        assert language_upto(trim_empty(a), 4) == language_upto(a, 4)


# === Determinism predicates =======================================================

def test_determinism_predicates_on_fixtures(bool2, abc, and1):
    assert is_deterministic(bool2)
    assert is_deterministic(and1)
    assert not is_deterministic(abc)  # a() -> q_a and a() -> q_dot
    assert not is_codeterministic(bool2)  # or(q0,q1) and or(q1,q0) both give q1
    assert not is_codeterministic(abc)  # |F| = 1 but four tuples feed q_f


def test_codeterminism_requires_singleton_final_and_injective_tuples():
    one = Bta(AB, {"q"}, {("a", ()): {"q"}, ("f", ("q", "q")): {"q"}}, {"q"})
    assert is_codeterministic(one)
    two_final = Bta(AB, {"q", "r"}, {("a", ()): {"q"}}, {"q", "r"})
    assert not is_codeterministic(two_final)


# === Top-down acceptance through reverse ==========================================

def test_tta_accepts_agrees_with_the_reverse_bta(bool2r, bool2):
    for t in enumerate_trees(BOOL, 3):
        assert tta_accepts(bool2r, t) == accepts(bool2, t)


def test_accepts_round_trips_through_reverse():
    rng = random.Random(402)
    for _ in range(25):
        a = random_bta(rng)
        r = reverse_bta(a)
        for t in enumerate_trees(AB, 3):
            assert tta_accepts(r, t) == accepts(a, t)
