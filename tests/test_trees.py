"""Trees, contexts, addresses, paths, enumeration, and the term syntax."""

from __future__ import annotations

import gc
import itertools
import random
import re
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from treeca import (
    BudgetError,
    HOLE,
    AddressError,
    MalformedContextError,
    NotWellRankedError,
    ParseError,
    RankedAlphabet,
    Tree,
    check_well_ranked,
    enumerate_contexts,
    enumerate_trees,
    format_address,
    format_term,
    hole_height,
    is_context,
    is_well_ranked,
    iter_nodes,
    parse_context,
    parse_term,
    path_language,
    pivot,
    plug,
    puncture,
    subtree,
    substitute,
)
from treeca.trees import _enumerate_raw, _holes, _memo, _parse_term, fresh_tuples

from helpers import (
    AB,
    ABG,
    BOOL,
    TERN,
    Raised,
    assert_routes_agree,
    holes_by_preorder,
    outcome,
    random_context,
    random_sized_tree,
    read_every_way_from_token_list,
    read_term_from_token_list,
    random_tree,
    write_term_by_tokens,
)


# === Strategies ===================================================================

def trees(alphabet: RankedAlphabet, max_height: int = 4):
    nullary = [Tree(n) for n in alphabet.nullary]
    base = st.sampled_from(nullary)

    def extend(children):
        inner = [
            st.builds(Tree, st.just(sym), st.tuples(*[children] * alphabet.arity(sym)))
            for sym in alphabet.symbols
            if alphabet.arity(sym) > 0
        ]
        return st.one_of(inner)

    return st.recursive(base, extend, max_leaves=2 ** (max_height - 1))


def addresses_of(t: Tree):
    return st.sampled_from([addr for addr, _ in iter_nodes(t)])


# === Alphabets ====================================================================

def test_alphabet_is_sorted_and_validates():
    a = RankedAlphabet({"or": 2, "F": 0, "and": 2, "T": 0})
    assert a.symbols == ("F", "T", "and", "or")
    assert a.nullary == ("F", "T")
    assert a.arity("and") == 2
    with pytest.raises(KeyError):
        a.arity("xor")
    with pytest.raises(ValueError):
        RankedAlphabet({"f": 2})  # no nullary symbol
    with pytest.raises(ValueError):
        RankedAlphabet({HOLE: 0})
    with pytest.raises(ValueError):
        RankedAlphabet({"bad name": 0})


# === Basic tree structure =========================================================

def test_height_and_equality():
    t = parse_term("and(or(T,F),T)")
    assert t.height == 3
    assert t == parse_term("and(or(T,F),T)")
    assert t != parse_term("and(or(T,T),T)")
    assert len({t, parse_term("and(or(T,F),T)")}) == 1


def test_canonical_order_is_height_then_symbol_then_children():
    t1, t2 = parse_term("T"), parse_term("and(T,T)")
    assert t1 < t2  # height first
    assert parse_term("F") < parse_term("T")  # then symbol
    assert parse_term("and(F,T)") < parse_term("and(T,F)")  # then children
    assert parse_term("and(T,T)") < parse_term("or(F,F)")


def test_iter_nodes_preorder_one_based():
    t = parse_term("and(or(T,F),T)")
    addrs = [addr for addr, _ in iter_nodes(t)]
    assert addrs == [(), (1,), (1, 1), (1, 2), (2,)]
    assert subtree(t, (1, 2)) == parse_term("F")
    assert format_address(()) == "ε"
    assert format_address((1, 2)) == "1.2"


def test_subtree_and_substitute_addresses():
    t = parse_term("and(or(T,F),T)")
    assert substitute(t, (1,), parse_term("F")) == parse_term("and(F,T)")
    with pytest.raises(AddressError):
        subtree(t, (3,))
    with pytest.raises(AddressError):
        substitute(t, (1, 1, 1), parse_term("T"))


# === Contexts =====================================================================

def test_puncture_pivot_plug_roundtrip():
    t = parse_term("and(or(T,F),T)")
    x = puncture(t, (1, 2))
    assert is_context(x)
    assert pivot(x) == (1, 2)
    assert hole_height(x) == 3
    assert plug(x, parse_term("F")) == t


def test_plugging_a_context_composes():
    x = parse_context("and(<>,T)")
    y = parse_context("or(F,<>)")
    xy = plug(x, y)
    assert pivot(xy) == (1, 2)
    assert plug(xy, parse_term("T")) == plug(x, plug(y, parse_term("T")))


def test_malformed_contexts_are_rejected():
    with pytest.raises(MalformedContextError):
        pivot(parse_term("and(T,T)"))
    with pytest.raises(ParseError):
        parse_context("and(<>,<>)")
    with pytest.raises(ParseError):
        parse_context("and(T,T)")


def with_holes(rng: random.Random, t: Tree, count: int) -> Tree:
    """t with count distinct random nodes relabeled as holes, each keeping
    its children."""
    for addr, _ in rng.sample(list(iter_nodes(t)), count):
        t = substitute(t, addr, Tree(HOLE, subtree(t, addr).children))
    return t


def test_the_hole_search_finds_what_the_addressed_preorder_finds():
    """_holes counts the holes and returns the last in preorder, with its
    address, as iter_nodes finds them, on random trees with 0 to 3 holes,
    holes with children among them; is_context and pivot read it."""
    rng = random.Random(11)
    inputs = [Tree(HOLE), Tree(HOLE, [Tree(HOLE)]), Tree("g", [Tree(HOLE, [Tree("a")])])]
    for alphabet in (ABG, BOOL, TERN) * 10:
        t = random_sized_tree(rng, alphabet, rng.randint(3, 300))
        inputs += [with_holes(rng, t, count) for count in range(4)]
    for t in inputs:
        count, hole, addr = _holes(t)
        want = holes_by_preorder(t)
        assert (count, addr) == (want[0], want[2]) and hole is want[1]
        assert is_context(t) == (count == 1 and not hole.children)
        if count == 1:
            assert pivot(t) == addr
        else:
            with pytest.raises(MalformedContextError, match=f"found {count}$"):
                pivot(t)
    assert any(count == 1 and hole.children for count, hole, _ in map(_holes, inputs))


def test_well_rankedness():
    assert is_well_ranked(parse_term("and(T,F)"), BOOL)
    assert not is_well_ranked(parse_term("and(T,F)"), AB)
    assert is_well_ranked(parse_context("and(<>,T)"), BOOL, allow_hole=True)
    assert not is_well_ranked(parse_context("and(<>,T)"), BOOL)
    with pytest.raises(NotWellRankedError):
        check_well_ranked(Tree("and", (Tree("T"),)), BOOL)


# Trees with holes, unknown symbols and wrong arities anywhere.
ragged = st.recursive(
    st.sampled_from([Tree("T"), Tree("z"), Tree(HOLE)]),
    lambda kids: st.builds(
        Tree, st.sampled_from(["and", "or", "z", HOLE]), st.lists(kids, min_size=1, max_size=3)
    ),
    max_leaves=10,
)


def first_ill_ranked(t: Tree, alphabet: RankedAlphabet, allow_hole: bool) -> str | None:
    """The diagnosis of the first node in preorder that is not well ranked."""
    for addr, node in iter_nodes(t):
        where = format_address(addr)
        if node.label == HOLE:
            if not (allow_hole and not node.children):
                return f"hole at {where} is not allowed here"
        elif node.label not in alphabet:
            return f"unknown symbol {node.label!r} at {where}"
        elif alphabet.arity(node.label) != len(node.children):
            return (
                f"symbol {node.label!r} at {where} has {len(node.children)} children, "
                f"expected {alphabet.arity(node.label)}"
            )
    return None


@settings(deadline=None, max_examples=300, derandomize=True)
@given(t=ragged, allow_hole=st.booleans())
def test_walks_report_what_the_addressed_preorder_finds(t, allow_hole):
    try:
        check_well_ranked(t, BOOL, allow_hole)
        got = None
    except NotWellRankedError as e:
        got = str(e)
    assert got == first_ill_ranked(t, BOOL, allow_hole)
    holes = [addr for addr, node in iter_nodes(t) if node.label == HOLE]
    assert is_context(t) == (len(holes) == 1 and not subtree(t, holes[0]).children)
    if len(holes) == 1:
        assert pivot(t) == holes[0]
    else:
        with pytest.raises(MalformedContextError, match=f"found {len(holes)}$"):
            pivot(t)


# === Paths ========================================================================

def test_path_language_examples():
    assert path_language(parse_term("T")) == {("T",)}
    t = parse_term("or(F,and(T,F))")
    assert path_language(t) == {
        ("or", 1, "F"),
        ("or", 2, "and", 1, "T"),
        ("or", 2, "and", 2, "F"),
    }


@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_paths_factor_through_plug(data):
    """Every path of x[t] is a path of x, or the pivot prefix followed by a path of t."""
    t = data.draw(trees(BOOL, 3))
    host = data.draw(trees(BOOL, 3))
    addr = data.draw(addresses_of(host))
    x = puncture(host, addr)
    spine_prefix = tuple(
        tok
        for i in range(len(addr))
        for tok in (subtree(host, addr[:i]).label, addr[i])
    )
    expected = {p for p in path_language(x) if p[-1] != HOLE}
    expected |= {spine_prefix + p for p in path_language(t)}
    assert path_language(plug(x, t)) == expected


# === Enumeration ==================================================================

def test_enumerate_trees_bool_counts_and_order():
    ts = enumerate_trees(BOOL, 2)
    assert [format_term(t) for t in ts[:4]] == ["F", "T", "and(F,F)", "and(F,T)"]
    assert len(ts) == 2 + 2 * 4  # leaves, then the two binary symbols over them
    assert len(enumerate_trees(BOOL, 3)) == 10 + 2 * (10 * 10 - 4)
    heights = [t.height for t in enumerate_trees(BOOL, 3)]
    assert heights == sorted(heights)


def test_enumerate_trees_is_exact_on_heights():
    for t in enumerate_trees(AB, 4):
        assert t.height <= 4
        assert is_well_ranked(t, AB)
    assert len(set(enumerate_trees(AB, 4))) == len(enumerate_trees(AB, 4))


def test_enumerate_contexts_holds_one_hole_each():
    xs = enumerate_contexts(BOOL, 2)
    assert parse_context("<>") in xs
    assert all(is_context(x) for x in xs)
    assert len(xs) == 1 + 2 * 2 * 2  # hole, or each binary symbol around hole/leaf


def test_enumeration_budget_is_enforced():
    with pytest.raises(BudgetError):
        enumerate_trees(BOOL, 4, budget=100)


def test_context_budget_is_enforced_on_cold_and_warm_caches():
    alphabet = RankedAlphabet({"a": 0, "u": 1, "w": 2})  # cached by no other test
    with pytest.raises(BudgetError):
        enumerate_contexts(alphabet, 3, budget=5)
    assert len(enumerate_contexts(alphabet, 3)) > 5
    with pytest.raises(BudgetError):
        enumerate_contexts(alphabet, 3, budget=5)


def test_budgets_below_one_are_rejected_on_cold_and_warm_caches():
    alphabet = RankedAlphabet({"a": 0, "s": 1, "y": 2})  # cached by no other test
    for _ in range(2):  # the second round is served from the caches
        for enum in (enumerate_trees, enumerate_contexts):
            for budget in (0, -3):
                with pytest.raises(BudgetError, match="^budget must be positive$"):
                    enum(alphabet, 2, budget)
            assert enum(alphabet, 2)


def test_enumeration_memo_keeps_one_entry_per_height():
    """Heights asked in any order give the fresh enumeration; the memo keeps
    one entry per kind and height asked, a hit returns the stored tuple, and
    a hit is held to its budget."""
    alphabet = RankedAlphabet({"c": 0, "v": 1, "x": 2})  # cached by no other test
    with_hole = {**alphabet.entries, HOLE: 0}
    for h in (2, 4, 1, 3, 4, 2):
        assert enumerate_trees(alphabet, h) == _enumerate_raw(alphabet.entries, h, 10**6)
        raw = _enumerate_raw(with_hole, h, 10**6)
        assert enumerate_contexts(alphabet, h) == tuple(t for t in raw if is_context(t))
    assert sorted(key[1:] for key in _memo if key[0] == alphabet) == [
        (contexts, h) for contexts in (False, True) for h in (1, 2, 3, 4)
    ]
    for contexts, enum in ((False, enumerate_trees), (True, enumerate_contexts)):
        assert enum(alphabet, 3) is _memo[alphabet, contexts, 3][0]
    n = len(_enumerate_raw(alphabet.entries, 2, 10**6))
    raw_n = len(_enumerate_raw(with_hole, 2, 10**6))
    with pytest.raises(BudgetError):
        enumerate_trees(alphabet, 2, budget=n - 1)
    with pytest.raises(BudgetError):
        enumerate_contexts(alphabet, 2, budget=raw_n - 1)
    assert len(enumerate_trees(alphabet, 2, budget=n)) == n
    assert enumerate_contexts(alphabet, 2, budget=raw_n)
    for h in (0, -1):
        with pytest.raises(BudgetError):
            enumerate_trees(alphabet, h)
        with pytest.raises(BudgetError):
            enumerate_contexts(alphabet, h)


@settings(deadline=None, max_examples=100)
@given(data=st.data(), hi=st.integers(1, 6), k=st.integers(1, 3))
def test_fresh_tuples_are_the_filtered_product_in_order(data, hi, k):
    lo = data.draw(st.integers(0, hi - 1))
    filtered = [c for c in itertools.product(range(hi), repeat=k) if max(c) >= lo]
    assert list(fresh_tuples(lo, hi, k)) == filtered


# === Term syntax ==================================================================

def test_parse_format_examples():
    assert format_term(parse_term("and(  or(T, F),T )")) == "and(or(T,F),T)"
    assert format_term(parse_term("T")) == "T"
    assert format_term(parse_context("and(<>,T)")) == "and(<>,T)"


def _tall_tree(rng: random.Random, alphabet: RankedAlphabet, height: int) -> Tree:
    """A random tree of exactly the given height: a spine of random inner
    symbols, each beside random trees no higher than the spine below it."""
    inner = [s for s in alphabet.symbols if alphabet.arity(s)]
    t = random_tree(rng, alphabet, 1)
    for _ in range(height - 1):
        sym = rng.choice(inner)
        kids = [random_tree(rng, alphabet, min(t.height, 3)) for _ in range(alphabet.arity(sym))]
        kids[rng.randrange(len(kids))] = t
        t = Tree(sym, kids)
    return t


def test_format_term_writes_what_the_token_writer_writes():
    """Random trees and contexts of heights 1 to 40, on both sides of the
    height up to which format_term writes a subtree by recursion."""
    rng = random.Random(30)
    for height in range(1, 41):
        for alphabet in (AB, ABG, BOOL, TERN):
            t = _tall_tree(rng, alphabet, height)
            assert t.height == height
            x = puncture(t, rng.choice([addr for addr, _ in iter_nodes(t)]))
            for u in (t, x, *t.children):
                assert format_term(u) == write_term_by_tokens(u)


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError):
        parse_term("and(T,")
    with pytest.raises(ParseError):
        parse_term("and(T,F))")
    with pytest.raises(NotWellRankedError):
        parse_term("and(T,F)", AB)  # not well ranked for this alphabet
    with pytest.raises(NotWellRankedError):
        parse_term("and(T)", BOOL)


@pytest.mark.parametrize(
    "text, column, message",
    [
        # A character no token holds outranks the misplaced ',' before it.
        ("f(,x)$", 6, "unexpected character '$'"),
        ("f(a", 4, "unclosed '('"),
        ("", 1, "unexpected end of term"),
        # The reader's fault outranks the context's hole count.
        ("f(<>)(", 6, "trailing input after term"),
    ],
)
def test_reader_faults_come_in_a_fixed_order(text, column, message):
    for parse in (parse_term, parse_context):
        with pytest.raises(ParseError) as caught:
            parse(text)
        assert (caught.value.line, caught.value.column) == (1, column)
        assert str(caught.value) == f"line 1, column {column}: {message}"


def read_every_way(text: str, alphabet: RankedAlphabet) -> tuple:
    """The outcomes of the five reader routes: _parse_term with no arities
    (its term and hole count), and parse_term and parse_context each without
    and with the alphabet."""
    return (
        outcome(lambda s: _parse_term(s, {})[:2], text),
        outcome(parse_term, text),
        outcome(parse_term, text, alphabet),
        outcome(parse_context, text),
        outcome(parse_context, text, alphabet),
    )


# Characters a mutation inserts: every token character, ASCII and Unicode
# spaces (regex \s, which the reader strips around punctuation, and which
# the token scan skips between tokens), characters no token holds ('$', 'é',
# and the zero-width space, which is not whitespace), and symbols of the
# alphabets.
MUTATION_CHARS = (
    "(),<>  \t\nabfghT_9$é\u00a0"
    "\x0b\x0c\r\x1c\x85\u2028\u3000\u200b"
)


def _mutate(rng: random.Random, text: str) -> str:
    """text with up to three random edits: a character inserted or deleted,
    or a slice repeated in place."""
    choice, randrange = rng.choice, rng.randrange
    for _ in range(randrange(4)):
        i = randrange(len(text) + 1)
        edit = randrange(3)
        if edit == 0:
            text = text[:i] + choice(MUTATION_CHARS) + text[i:]
        elif edit == 1:
            text = text[:i] + text[i + 1 :]
        else:
            j = randrange(i, len(text) + 1)
            text = text[:j] + text[i:j] + text[j:]
    return text


def _mutated_terms(seed: int, count: int) -> dict[str, RankedAlphabet]:
    """count distinct texts, each a term or context of height <= 3 with up
    to three random edits, mapped to the alphabet it was drawn over."""
    rng = random.Random(seed)
    sources = [
        (list(map(format_term, enumerate_items(alphabet, h))), alphabet)
        for alphabet in (AB, ABG, BOOL, TERN)
        for enumerate_items in (enumerate_trees, enumerate_contexts)
        for h in (1, 2, 3)
    ]
    out: dict[str, RankedAlphabet] = {}
    while len(out) < count:
        texts, alphabet = rng.choice(sources)
        out.setdefault(_mutate(rng, rng.choice(texts)), alphabet)
    return out


def _large_mutated_terms(seed: int, count: int) -> list[tuple[str, RankedAlphabet]]:
    """count texts at the bounded benchmark's sizes, each a term of about
    2000 nodes or a context of about 1000 over ABG or BOOL, with up to
    three random edits, and the alphabet it was drawn over."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        alphabet = (ABG, BOOL)[i % 2]
        if i % 4 < 2:
            t = random_sized_tree(rng, alphabet, 2000)
        else:
            t = random_sized_tree(rng, alphabet, 1000)
            leaves = [addr for addr, node in iter_nodes(t) if not node.children]
            t = puncture(t, rng.choice(leaves))
        out.append((_mutate(rng, format_term(t)), alphabet))
    return out


def _term_test_inputs() -> list[str]:
    """Every string literal the test files hand to parse_term or parse_context."""
    literal = re.compile(r"parse_(?:term|context)\(\s*\"([^\"\\]*)\"")
    tests = Path(__file__).parent.glob("test_*.py")
    return sorted({m[1] for path in tests for m in literal.finditer(path.read_text())})


def test_reader_agrees_with_the_token_list_reader():
    """Same tree and hole count, or the same error type, message, line and
    column, on every route for 100k distinct seeded mutated terms, 200
    mutated terms and contexts of the bounded benchmark's sizes, and the
    term tests' own inputs."""
    fixed = _term_test_inputs()
    assert len(fixed) > 40
    inputs = [
        *_mutated_terms(15, 100_000).items(),
        *_large_mutated_terms(16, 200),
        *((text, BOOL) for text in fixed),
    ]
    messages = set()
    for args in inputs:  # one at a time, so that no text's trees outlive its check
        (routes,) = assert_routes_agree(read_every_way, read_every_way_from_token_list, [args])
        messages.update(got.message for got in routes if isinstance(got, Raised))
    faults = {re.sub(r"'[^']*'|at \S+|\d+", "_", m.split(": ", 1)[-1]) for m in messages}
    # The inputs reach every fault the reader and the rank check report.
    assert faults == {
        "unexpected character _",
        "expected a symbol, got _",
        "unexpected end of term",
        "unclosed _",
        "expected _ or _, got _",
        "trailing input after term",
        "holes are not allowed in a plain term",
        "a context needs exactly one hole, found _",
        "unknown symbol _ _",
        "symbol _ _ has _ children, expected _",
    }


@pytest.mark.parametrize(
    "parse, text, alphabet, message",
    [
        (parse_term, "and(T,or(F))", BOOL, "symbol 'or' at 2 has 1 children, expected 2"),
        (parse_term, "and(T,g(F))", BOOL, "unknown symbol 'g' at 2"),
        (parse_context, "and(<>,T(F))", BOOL, "symbol 'T' at 2 has 1 children, expected 0"),
        # The unknown leaf closes before its parent, but the parent comes
        # first in preorder.
        (parse_context, "f(f(a,b,x),<>)", ABG, "symbol 'f' at 1 has 3 children, expected 2"),
        (parse_term, "g()", ABG, "symbol 'g' at ε has 0 children, expected 1"),
    ],
)
def test_the_rank_walk_runs_only_on_a_rank_fault(parse, text, alphabet, message):
    """The reader compares each node's child count with its arity as it
    closes the node, so check_well_ranked walks a tree only to word a rank
    fault, once, in the words it gives the tree read without an alphabet;
    a well-ranked read walks nothing."""
    rng = random.Random(18)
    well_ranked = [
        (parse_term, format_term(random_sized_tree(rng, alphabet, 2000))),
        (parse_context, format_term(random_context(rng, alphabet, 6))),
    ]
    with mock.patch("treeca.trees.check_well_ranked", wraps=check_well_ranked) as spy:
        for read, good in well_ranked:
            assert read(good, alphabet) == read(good)
        assert spy.call_count == 0
        with pytest.raises(NotWellRankedError) as caught:
            parse(text, alphabet)
        assert spy.call_count == 1
    assert str(caught.value) == message
    with pytest.raises(NotWellRankedError) as unread:
        check_well_ranked(parse(text), alphabet, allow_hole=parse is parse_context)
    assert str(unread.value) == message


def test_a_large_term_is_read_in_well_under_the_time_of_the_token_list_and_rank_walk():
    """A seeded 100k-node term over ABG (253k characters) is read with its
    alphabet in well under the time the reference reader and a separate rank
    walk take on the same text, timed back to back in the same run: 0.3-0.5
    of it on a 2-core host, against 0.8-0.85 for a reader that scans one
    token at a time, builds every leaf and walks the tree again for the
    ranks.  The collector is off during each timing, so that a collection
    over the test process's heap cannot land in one timing only; a load
    spike can still slow either, so the pair is timed up to three times."""
    text = format_term(random_sized_tree(random.Random(17), ABG, 80_000))

    def seconds(read) -> float:
        gc.collect()
        gc.disable()
        try:
            start = time.perf_counter()
            read()
            return time.perf_counter() - start
        finally:
            gc.enable()

    for _ in range(3):
        yardstick = seconds(lambda: check_well_ranked(read_term_from_token_list(text)[0], ABG))
        took = seconds(lambda: parse_term(text, ABG))
        if took < 0.65 * yardstick:
            break
    assert took < 0.65 * yardstick


@settings(deadline=None, max_examples=80)
@given(data=st.data())
def test_parse_inverts_format(data):
    t = data.draw(trees(BOOL, 4))
    assert parse_term(format_term(t), BOOL) == t
