"""Inputs far deeper than the interpreter's recursion limit: a unary chain
5000 deep through the command line and through the tree and run code."""

from __future__ import annotations

import sys

import pytest

from treeca import (
    HOLE,
    Tree,
    accepts,
    format_term,
    parse_automaton,
    parse_context,
    parse_term,
    path_language,
    plug,
    puncture,
)
from treeca.cli import main

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


def test_plug_and_puncture_undo_each_other():
    c = chain(Tree("a"))
    x = chain(Tree(HOLE))
    assert plug(x, Tree("a")) == c
    assert puncture(c, (1,) * DEPTH) == x


def test_path_language_of_a_chain_is_its_one_path():
    assert path_language(chain(Tree("a"))) == {("g", 1) * DEPTH + ("a",)}
