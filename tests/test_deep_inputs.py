"""Inputs far deeper than the interpreter's recursion limit: a unary chain
5000 deep through the command line and through the tree and run code, and
automata whose states form a 5000-long chain through isomorphism and
canonical renaming."""

from __future__ import annotations

import sys
import time
from collections.abc import Callable

import pytest

from treeca import (
    HOLE,
    Bta,
    NotWellRankedError,
    Tree,
    accepts,
    canonical_form,
    check_well_ranked,
    format_term,
    is_context,
    parse_automaton,
    parse_context,
    parse_term,
    path_language,
    pivot,
    plug,
    puncture,
)
from treeca.cli import main
from treeca.trees import _holes

from helpers import holes_by_preorder, write_term_by_tokens

DEPTH = 5000

# Counts the g's modulo 2 from an a leaf (q0) or a b leaf (q1); f adds.
PARITY = """\
bta
alphabet a/0 b/0 f/2 g/1
states q0 q1
final q1
a() -> q0
b() -> q1
g(q0) -> q1
g(q1) -> q0
f(q0,q0) -> q0
f(q0,q1) -> q1
f(q1,q0) -> q1
f(q1,q1) -> q0
"""


def chain(bottom: Tree, depth: int = DEPTH) -> Tree:
    """g applied depth times to bottom, built bottom-up without recursion."""
    for _ in range(depth):
        bottom = Tree("g", [bottom])
    return bottom


def chain_text(bottom: str, depth: int = DEPTH) -> str:
    return "g(" * depth + bottom + ")" * depth


def test_the_chain_is_deeper_than_the_recursion_limit():
    assert sys.getrecursionlimit() < DEPTH


# === Through the command line =====================================================

@pytest.fixture
def parity(tmp_path) -> str:
    path = tmp_path / "parity.bta"
    path.write_text(PARITY)
    return str(path)


@pytest.mark.parametrize(
    "argv, code, out",
    [
        (["member", "-t", chain_text("a")], 1, "not a member"),
        (["member", "-t", chain_text("a", DEPTH - 1)], 0, "member"),
        (["post", "-t", chain_text("a")], 0, "q0"),
        (["post", "-t", chain_text("b"), "--states", "q0"], 0, ""),
        (["pre", "-c", chain_text(HOLE)], 0, "q1"),
        (["wpre", "-c", chain_text(HOLE)], 0, "q1"),
        (["wpre", "-c", chain_text(f"f(a,{HOLE})", DEPTH - 1), "--states", "q0"], 0, "q1"),
        (["rtp-equiv", "-c", chain_text(HOLE), "-c", chain_text(HOLE)], 0,
         "root-to-pivot equivalent"),
        (["rtp-equiv", "-c", chain_text(f"f(a,{HOLE})"), "-c", chain_text(f"f({HOLE},a)")], 1,
         "not root-to-pivot equivalent"),
    ],
    ids=["member-no", "member-yes", "post", "post-seeded", "pre", "wpre", "wpre-sibling",
         "rtp-equiv-yes", "rtp-equiv-no"],
)
def test_deep_terms_and_contexts_get_a_verdict(capsys, parity, argv, code, out):
    got = main([argv[0], parity, *argv[1:]])
    captured = capsys.readouterr()
    assert got == code
    assert captured.out == out + "\n"
    assert captured.err == ""


def state_chain(name: Callable[[int], str], drop: bool = False) -> str:
    """DEPTH states strung by g, two a leaves at the bottom and two final
    states at the top: neither deterministic nor co-deterministic.  name(i)
    names the i-th state from the bottom; drop leaves out the top g rule."""
    states = [name(i) for i in range(DEPTH)]
    rules = [f"a() -> {states[0]}", f"a() -> {states[1]}"]
    rules += [f"g({q}) -> {r}" for q, r in zip(states, states[1:])]
    if drop:
        rules.pop()
    return "\n".join([
        "bta", "alphabet a/0 g/1", "states " + " ".join(states),
        f"final {states[-2]} {states[-1]}", *rules, "",
    ])


@pytest.mark.parametrize(
    "name, drop, code, out",
    [
        (lambda i: f"r{i}", False, 0, "isomorphic"),
        (lambda i: f"r{DEPTH - 1 - i}", False, 0, "isomorphic"),
        (lambda i: f"r{i}", True, 1, "not isomorphic"),
    ],
    ids=["same-order", "reversed-order", "rule-dropped"],
)
def test_long_state_chains_get_an_isomorphism_verdict(capsys, tmp_path, name, drop, code, out):
    left, right = tmp_path / "left.bta", tmp_path / "right.bta"
    left.write_text(state_chain(lambda i: f"q{i}"))
    right.write_text(state_chain(name, drop))
    got = main(["isomorphic", str(left), str(right)])
    captured = capsys.readouterr()
    assert got == code
    assert captured.out == out + "\n"
    assert captured.err == ""


# === Through the library ==========================================================

def test_separately_built_chains_compare_and_hash_equal():
    c1, c2 = chain(Tree("a")), chain(Tree("a"))
    assert c1 is not c2
    assert c1 == c2
    assert not c1 < c2 and not c2 < c1
    assert c1 <= c2 <= c1
    assert {c1: "found"}[c2] == "found"


def test_chains_differing_at_the_bottom_order_by_their_leaf():
    ca, cb = chain(Tree("a")), chain(Tree("b"))
    assert ca != cb
    assert ca < cb and not cb < ca
    assert sorted([cb, ca]) == [ca, cb]


def test_accepts_runs_two_deep_chains_under_one_root():
    a = parse_automaton(PARITY)
    c = chain(Tree("a"))
    assert not accepts(a, Tree("f", [c, c]))
    assert accepts(a, Tree("f", [c, Tree("g", [c])]))


def test_format_and_parse_round_trip():
    c = chain(Tree("a"))
    text = format_term(c)
    assert text == chain_text("a")
    assert parse_term(text) == c
    x = parse_context(chain_text(HOLE))
    assert format_term(x) == chain_text(HOLE)


def test_format_term_writes_deep_chains_as_the_token_writer_does():
    """Chains 5000 and 100,000 deep, under a unary and under a binary spine,
    are written without deep recursion."""
    assert sys.getrecursionlimit() < DEPTH
    for depth in (DEPTH, 100_000):
        t = chain(Tree("a"), depth)
        assert format_term(t) == write_term_by_tokens(t)
        for _ in range(depth):
            t = Tree("f", [Tree("b"), t])
        x = Tree("f", [t, chain(Tree(HOLE), 40)])
        assert format_term(x) == write_term_by_tokens(x)


def test_plug_and_puncture_undo_each_other():
    c = chain(Tree("a"))
    x = chain(Tree(HOLE))
    assert plug(x, Tree("a")) == c
    assert puncture(c, (1,) * DEPTH) == x


def test_walks_address_only_what_they_report():
    """The bottom of the chain is reported at its full address; a walk that
    built every node's address would be quadratic in the depth."""
    alphabet = parse_automaton(PARITY).alphabet
    deep = "1." * DEPTH + "1"
    with pytest.raises(NotWellRankedError, match=f"^unknown symbol 'z' at {deep}$"):
        check_well_ranked(chain(Tree("g", [Tree("z")])), alphabet)
    x = chain(Tree(HOLE))
    assert pivot(x) == (1,) * DEPTH
    assert is_context(x)
    assert not is_context(Tree("f", [x, x]))


def test_the_hole_search_finds_the_bottom_of_a_chain():
    """_holes walks a chain deeper than the recursion limit and returns what
    the addressed preorder finds, also under a hole that has children."""
    for t in (chain(Tree(HOLE)), Tree(HOLE, [chain(Tree(HOLE))])):
        count, hole, addr = _holes(t)
        want = holes_by_preorder(t)
        assert (count, addr) == (want[0], want[2]) and hole is want[1]
    assert _holes(chain(Tree(HOLE)))[2] == (1,) * DEPTH
    assert _holes(chain(Tree("a"))) == (0, None, ())


def test_path_language_of_a_chain_is_its_one_path():
    assert path_language(chain(Tree("a"))) == {("g", 1) * DEPTH + ("a",)}


def test_canonical_form_of_a_long_partial_chain_reads_only_its_rules():
    """DEPTH states strung by f(q,q), named against the walk order.  Looking
    up every fresh argument pair would take DEPTH^2 lookups; the walk over
    the rules each state is an argument of takes DEPTH, and the view holds
    only those rules."""
    alphabet = parse_automaton(PARITY).alphabet
    states = [f"q{DEPTH - i}" for i in range(DEPTH)]
    rules = {("a", ()): {states[0]}} | {("f", (q, q)): {r} for q, r in zip(states, states[1:])}
    a = Bta(alphabet, states, rules, [states[-1]])
    start = time.perf_counter()
    c = canonical_form(a)
    assert time.perf_counter() - start < 5
    assert len(c.states) == len(c.delta) == DEPTH
    assert c.delta[("f", ("0", "0"))] == {"1"} and c.final == {str(DEPTH - 1)}
    assert not a.numbered.total and len(a.numbered.tables["f"]) == DEPTH - 1
