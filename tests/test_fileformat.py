"""The line-oriented automaton file format: parsing, diagnostics, and the
canonical serialization."""

from __future__ import annotations

from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from treeca import (
    Bta,
    ParseError,
    Tta,
    codeterminize,
    determinize,
    minimize_bta,
    parse_automaton,
    reverse_bta,
    serialize_automaton,
)

from treeca import fileformat
from treeca.fileformat import _split_args

from helpers import FIXTURES, split_args_by_scanner


# === Round trips ==================================================================

def test_every_fixture_round_trips():
    for path in sorted(FIXTURES.iterdir()):
        text = path.read_text()
        a = parse_automaton(text)
        canon = serialize_automaton(a)
        assert parse_automaton(canon) == a
        assert serialize_automaton(parse_automaton(canon)) == canon  # fixpoint


def test_transformation_outputs_round_trip(bool2, abc):
    for out in (determinize(abc), codeterminize(abc), minimize_bta(bool2), reverse_bta(bool2)):
        text = serialize_automaton(out)
        back = parse_automaton(text)
        assert back == out
        assert serialize_automaton(back) == text


def test_synthesized_subset_names_survive_the_format():
    a = parse_automaton(
        "bta\n"
        "alphabet a/0 f/2\n"
        "states {q0,q1} {q2}\n"
        "final {q0,q1}\n"
        "a() -> {q2}\n"
        "f({q2},{q2}) -> {q0,q1}\n"
    )
    assert a.states == {"{q0,q1}", "{q2}"}
    assert a.delta[("f", ("{q2}", "{q2}"))] == {"{q0,q1}"}
    assert parse_automaton(serialize_automaton(a)) == a


def test_duplicate_left_hand_sides_merge(bool2):
    text = (
        "bta\nalphabet a/0\nstates x y\nfinal y\n"
        "a() -> x\na() -> y\na() -> x\n"
    )
    a = parse_automaton(text)
    assert a.delta[("a", ())] == {"x", "y"}


def test_comments_and_blank_lines_are_ignored():
    text = "# header\nbta\n\nalphabet a/0  # trailing\nstates q\nfinal q\na() -> q\n"
    a = parse_automaton(text)
    assert isinstance(a, Bta)
    assert a.states == {"q"}


def test_tta_files_parse_to_ttas(bool2r):
    assert isinstance(bool2r, Tta)
    assert bool2r.initial == {"q1"}
    assert ("and", ("q1", "q1")) in bool2r.delta["q1"]


# === Diagnostics ==================================================================

def expect_error(text: str, fragment: str, line: int | None = None):
    with pytest.raises(ParseError) as exc:
        parse_automaton(text)
    assert fragment in str(exc.value)
    if line is not None:
        assert exc.value.line == line


def test_missing_header():
    expect_error("alphabet a/0\n", "missing header", line=1)


def test_unknown_symbol_is_positioned():
    expect_error(
        "bta\nalphabet a/0\nstates q\nfinal q\nb() -> q\n",
        "unknown symbol",
        line=5,
    )


def test_arity_mismatch_is_positioned():
    expect_error(
        "bta\nalphabet a/0 and/2\nstates q0 q1\nfinal q1\nand(q0) -> q1\n",
        "arity 2, got 1",
        line=5,
    )


def test_undeclared_state():
    expect_error(
        "bta\nalphabet a/0\nstates q\nfinal q\na() -> r\n",
        "undeclared state",
        line=5,
    )
    expect_error(
        "bta\nalphabet a/0\nstates q\nfinal r\na() -> q\n",
        "undeclared state",
    )


def test_duplicate_alphabet_entry():
    expect_error("bta\nalphabet a/0 a/1\nstates q\nfinal q\n", "duplicate alphabet entry", line=2)
    expect_error("bta\nalphabet a/0\nalphabet b/0\nstates q\nfinal q\n", "duplicate alphabet line", line=3)


def test_wrong_marker_for_kind():
    expect_error("bta\nalphabet a/0\nstates q\ninitial q\n", "declares 'final'")
    expect_error("tta\nalphabet a/0\nstates q\nfinal q\n", "declares 'initial'")


def test_missing_sections_are_reported():
    expect_error("bta\n", "missing alphabet")
    expect_error("bta\nalphabet a/0\n", "missing states")
    expect_error("bta\nalphabet a/0\nstates q\n", "missing final")


def test_unbalanced_braces_in_state_names():
    expect_error(
        "bta\nalphabet a/0 f/2\nstates {q0 q1\nfinal {q0\nf({q0,q1) -> {q0\n",
        "unbalanced",
        line=5,
    )


def test_error_messages_render_line_and_column():
    try:
        parse_automaton("bta\nalphabet a/0\nstates q\nfinal q\nb() -> q\n")
    except ParseError as e:
        assert "line 5" in str(e)
        assert e.column is not None
    else:
        pytest.fail("expected a ParseError")


# === Argument splitting against the scanner =======================================

STATES = ["q0", "a", "{q0}", "{a}", "{q0,a}", "{{q0}}", "{{q0},{a}}"]
DECLS = f"alphabet a/0 f/1 g/2 h/3\nstates {' '.join(STATES)}\n"
# Brace-flat, nested, unbalanced and empty arguments over a few tokens, and
# lists of declared or empty arguments, which often parse.
BODIES = st.one_of(
    st.lists(st.sampled_from(["{", "}", ",", "q0", "a", " "]), max_size=14).map("".join),
    st.lists(st.sampled_from(STATES + [" q0 ", ""]), min_size=1, max_size=4).map(",".join),
)


def outcome(fn, *args):
    """fn's result, or the message, line and column of its ParseError."""
    try:
        return fn(*args)
    except ParseError as e:
        return ("ParseError", str(e), e.line, e.column)


@settings(max_examples=600, deadline=None, derandomize=True)
@given(body=BODIES, sym=st.sampled_from(["f", "g", "h"]), col0=st.integers(1, 9))
def test_split_args_and_parse_match_the_scanner(body, sym, col0):
    assert outcome(_split_args, body, 5, col0) == outcome(split_args_by_scanner, body, 5, col0)
    for text in (
        f"bta\n{DECLS}final q0\n {sym}( {body}) -> q0\n",
        f"tta\n{DECLS}initial q0\nq0 -> {sym}({body} )\n",
    ):
        got = outcome(parse_automaton, text)
        with mock.patch.object(fileformat, "_split_args", split_args_by_scanner):
            assert got == outcome(parse_automaton, text)
