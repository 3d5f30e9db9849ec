"""The line-oriented automaton file format: parsing, diagnostics, and the
canonical serialization."""

from __future__ import annotations

import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from treeca import (
    Bta,
    ParseError,
    RankedAlphabet,
    TreecaError,
    Tta,
    canonical_form,
    codeterminize,
    complete,
    determinize,
    is_deterministic,
    minimize_bta,
    minimize_dbta,
    parse_automaton,
    reverse_bta,
    serialize_automaton,
    subset_name,
)

from treeca import automata, fileformat
from treeca.cli import main
from treeca.automata import Numbered, is_state_name

from helpers import (
    FIXTURES,
    TERN,
    Raised,
    assert_routes_agree,
    drop_one_rule,
    load_fixture,
    random_bta,
    seeded_draws,
    serialize_by_sorting,
)


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


# === The writer against the sorting reference ====================================

# State names whose string order is not the order of their numbers.
ODD_NAMES = ["2", "10", "{q0,a}", "x(y)", "final", "1", "{}", "{{q0},{a}}"]


def renamed_view(d: Bta) -> Bta:
    """d under odd state names, listed so that the view's order is neither
    the names' sorted order nor its reverse: the automaton named from d's
    view with every name replaced."""
    v = d.numbered
    n = len(v.names)
    pool = ODD_NAMES + [str(i) for i in range(11, n + 3)]
    names = pool[n // 2 : n] + pool[: n // 2]
    return Numbered(v.alphabet, names, v.tables, v.final, True).named()


# Its binary symbol sorts before its nullary ones, unlike the tests' other
# alphabets, where the subset construction's table order is the sorted one.
LATE_LEAVES = RankedAlphabet({"f": 2, "x": 0, "y": 0})


def writer_inputs() -> list[Bta | Tta]:
    """The fixtures; seeded_draws(250), TERN draws at up to 3 states, draws
    over LATE_LEAVES, and their determinizations, minimizations and
    canonical forms (total views handed over, some with more than ten states
    named "0".."n-1"); total automata rebuilt by the checked constructor,
    which hold no view, so the writer numbers them itself; partial
    automata with and without their view built, nondeterministic and tta
    automata; and views under state names that sort out of their order."""
    out: list[Bta | Tta] = [load_fixture(p.name) for p in sorted(FIXTURES.iterdir())]
    draws = seeded_draws(250) + [
        random_bta(random.Random(s), alphabet, 3)
        for alphabet in (TERN, LATE_LEAVES) for s in range(40)
    ]
    for a in draws:
        d = determinize(a)
        rebuilt = Bta(d.alphabet, d.states, d.delta, d.final)
        assert rebuilt._view is None
        partial, viewed_partial = drop_one_rule(d), drop_one_rule(d)
        assert not viewed_partial.numbered.total
        out += [a, d, minimize_bta(a), canonical_form(d), rebuilt, partial, viewed_partial,
                reverse_bta(a), reverse_bta(d), renamed_view(d)]
    return out


def test_the_writer_gives_the_sorted_text():
    """serialize_automaton writes the text of serialize_by_sorting, byte for
    byte; most determinized inputs take the view route."""
    inputs = [(a,) for a in writer_inputs()]
    with mock.patch.object(fileformat, "_view_rules", wraps=fileformat._view_rules) as spy:
        assert_routes_agree(serialize_automaton, serialize_by_sorting, inputs)
    assert spy.call_count > 1500
    assert any(len(a.states) > 10 and a.numbered.names != sorted(a.states)
               for a, in inputs if isinstance(a, Bta) and a._view)


def test_a_determinization_is_written_without_naming_its_rules():
    """determinize, minimize_bta and canonical_form hand a view over; writing
    their results never names a rule, the view compares equal to its parsed
    round trip, and numbered returns the view handed over."""
    a = seeded_draws(3)[2]
    with mock.patch.object(automata, "_named_rules", wraps=automata._named_rules) as spy:
        outs = [determinize(a), minimize_bta(a), canonical_form(determinize(a))]
        texts = [serialize_automaton(out) for out in outs]
    assert spy.call_count == 0
    view = outs[0]._view
    assert view is not None and outs[0].numbered is view
    for out, text in zip(outs, texts):
        assert parse_automaton(text) == out


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

def expect_error(text: str, fragment: str, line: int | None = None, column: int | None = None):
    with pytest.raises(ParseError) as exc:
        parse_automaton(text)
    assert fragment in str(exc.value)
    if line is not None:
        assert exc.value.line == line
    if column is not None:
        assert exc.value.column == column


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
        "undeclared state 'r' in final line",
        line=4,
        column=7,
    )


def test_an_undeclared_marked_state_points_at_it_whatever_the_order():
    expect_error("tta\nalphabet a/0\nstates q\ninitial q  r\nq -> a()\n",
                 "undeclared state 'r' in initial line", 4, 12)
    expect_error("bta\nfinal  q r # r is not declared\nalphabet a/0\nstates q\n",
                 "undeclared state 'r' in final line", 2, 10)
    # The declarations are checked before any rule line is read.
    expect_error("bta\nalphabet a/0\nstates q\nfinal r\nb() -> q\n",
                 "undeclared state 'r' in final line", 4, 7)


def test_duplicate_alphabet_entry():
    expect_error("bta\nalphabet a/0 a/1\nstates q\nfinal q\n", "duplicate alphabet entry", line=2)
    expect_error("bta\nalphabet a/0\nalphabet b/0\nstates q\nfinal q\n", "duplicate alphabet line", line=3)


def test_a_duplicate_declaration_before_the_rules_is_an_error_at_its_line():
    expect_error("bta\nstates q\nalphabet a/0\nstates p\nfinal q\n", "duplicate states line", 4, 1)
    expect_error("bta\nalphabet a/0\nfinal q\nfinal q\nstates q\n", "duplicate final line", 4, 1)
    expect_error("tta\nalphabet a/0\ninitial q\ninitial q\nstates q\n",
                 "duplicate initial line", 4, 1)


def test_a_line_before_the_last_declaration_is_an_error_at_its_line():
    expect_error("bta\nalphabet a/0\nstates q\na() -> q\nfinal q\n",
                 "transitions must come after the alphabet, states, and final lines", 4, 1)
    expect_error("tta\nalphabet a/0\nstates q\nq -> a()\ninitial q\n",
                 "transitions must come after the alphabet, states, and initial lines", 4, 1)
    expect_error("bta\nalphabet a/0\nfoo q\nstates q\nfinal q\n",
                 "expected a transition line, got 'foo q'", 3, 1)


def test_an_alphabet_without_a_nullary_symbol_is_an_error_at_its_line():
    expect_error("bta\nstates q\nalphabet f/1 g/2\nfinal q\n",
                 "alphabet needs at least one nullary symbol", 3, 1)


def test_wrong_marker_for_kind():
    expect_error("bta\nalphabet a/0\nstates q\ninitial q\n", "declares 'final'")
    expect_error("tta\nalphabet a/0\nstates q\nfinal q\n", "declares 'initial'")


def test_missing_sections_are_reported():
    expect_error("bta\n", "missing alphabet")
    expect_error("bta\nalphabet a/0\n", "missing states")
    expect_error("bta\nalphabet a/0\nstates q\n", "missing final")


def test_unbalanced_braces_in_state_names():
    expect_error(
        "bta\nalphabet a/0 f/2\nstates {q0,q1} q0\nfinal q0\nf({q0,q1) -> q0\n",
        "unbalanced '{'",
        line=5,
    )
    expect_error("bta\nalphabet a/0 f/2\nstates q1 {q0\nfinal q1\n", "illegal state name '{q0'", 3, 11)


def test_an_undeclared_target_points_at_it_not_into_the_comment():
    expect_error("bta\nalphabet a/0\nstates q\nfinal q\na() -> r  # the r state\n", "undeclared", 5, 8)


def test_a_bad_tta_pattern_points_at_it_not_into_the_comment():
    expect_error(
        "tta\nalphabet a/0 f/1\nstates q\ninitial q\nq -> f(q,q)  # f(q,q) twice\n", "arity 1", 5, 6
    )


def test_a_bad_alphabet_entry_points_at_it_not_into_the_keyword():
    expect_error("bta\nalphabet ab/0 b\nstates q\nfinal q\n", "bad alphabet entry 'b'", 2, 15)


def test_a_duplicate_alphabet_entry_points_at_the_duplicate():
    expect_error("bta\nalphabet a/0 b/0 a/0\nstates q\nfinal q\n", "duplicate alphabet entry", 2, 18)


def test_error_messages_render_line_and_column():
    try:
        parse_automaton("bta\nalphabet a/0\nstates q\nfinal q\nb() -> q\n")
    except ParseError as e:
        assert "line 5" in str(e)
        assert e.column is not None
    else:
        pytest.fail("expected a ParseError")


@pytest.mark.parametrize("decl", ["alphabet a/0", "states q", "final q", "initial q"])
def test_a_declaration_line_after_the_rules_is_an_error_at_its_line(decl, tmp_path, capsys):
    text = f"bta\nalphabet a/0\nstates q\nfinal q\na() -> q\n{decl}\n"
    expect_error(text, f"expected a transition line, got {decl!r}", 6, 1)
    path = tmp_path / "late.bta"
    path.write_text(text)
    assert main(["reverse", str(path)]) == 2
    assert "line 6, column 1" in capsys.readouterr().err


# === State names ==================================================================

@pytest.mark.parametrize("name", ["x,y", "x->y", "{a", "a}{", "{a}}"])
def test_unreadable_state_names_are_rejected_on_the_states_line(name):
    expect_error(f"bta\nalphabet a/0\nstates p {name}\nfinal p\n", f"illegal state name {name!r}", 3, 10)


@pytest.mark.parametrize("name", ["x,y", "x->y", "{a", "a}{", "a#b", "a b", ""])
def test_the_constructors_reject_unreadable_state_names(name):
    assert not is_state_name(name)
    ab = RankedAlphabet({"a": 0})
    with pytest.raises(TreecaError, match="illegal state names"):
        Bta(ab, ["p", name], {("a", ()): [name]}, [])
    with pytest.raises(TreecaError, match="illegal state names"):
        Tta(ab, ["p", name], {name: [("a", ())]}, [])


@pytest.mark.parametrize("name", ["final", "initial", "states", "alphabet"])
def test_states_and_symbols_may_be_named_after_keywords(name, tmp_path, capsys):
    """After the declarations every line is a rule, so a tta rule may start
    with a state, and a bta rule with a bare nullary symbol, named like a
    keyword; reverse reads back what it writes."""
    tta = parse_automaton(f"tta\nalphabet a/0 f/1\nstates {name} q\ninitial {name}\n{name} -> f(q)\nq -> a\n")
    assert tta.initial == {name}
    assert tta.delta[name] == {("f", ("q",))}
    bta = parse_automaton(f"bta\nalphabet {name}/0 f/1\nstates q\nfinal q\n{name} -> q\nf(q) -> q\n")
    assert bta.delta[(name, ())] == {"q"}
    text = serialize_automaton(
        parse_automaton(f"bta\nalphabet {name}/0 f/1\nstates {name}\nfinal {name}\n{name} -> {name}\nf({name}) -> {name}\n")
    )
    path = tmp_path / "in.bta"
    path.write_text(text)
    for _ in range(2):
        assert main(["reverse", str(path)]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        path.write_text(out)
    assert out == text


def test_every_name_the_library_makes_is_readable(abc):
    inner = subset_name(frozenset({"q1"}))
    names = {subset_name(frozenset({inner})), subset_name(frozenset({inner, subset_name(frozenset())}))}
    for a in seeded_draws(20) + [abc]:
        d = determinize(a)
        sunk = complete(drop_one_rule(d))
        for out in (d, determinize(d), sunk, complete(drop_one_rule(sunk)), codeterminize(a),
                    minimize_bta(a), canonical_form(d)):
            names |= out.states
    assert {"{{q1}}", "{{q1},{}}", "{{q0,q1}}", "{}", "__dead", "__dead_1"} <= names
    assert all(map(is_state_name, names))


# === The canonical-line fast path against the general route =====================

def parse_by_the_general_route(text: str) -> Bta | Tta:
    """parse_automaton with every rule line read by fileformat._rule."""
    lines = enumerate(text.splitlines(), start=1)
    kind, alphabet, states, marked, _ = fileformat._declarations(lines, text.count("\n") + 1)
    rules: dict = {}
    for lineno, raw in lines:
        line = raw.partition("#")[0].rstrip()
        if line:
            sym, args, q = fileformat._rule(line, lineno, kind == "bta", alphabet.entries, states)
            rules.setdefault((sym, args), set()).add(q)
    a = Bta(alphabet, states, rules, marked)
    return a if kind == "bta" else reverse_bta(a)


def test_routes_agree_on_fixtures_draws_and_determinizations():
    """Every line read by the fast path, where it applies, or by the general
    route alone gives the same automaton or the same error."""
    texts = [path.read_text() for path in sorted(FIXTURES.iterdir())]
    for a in seeded_draws(40):
        for b in (a, determinize(a)):
            texts += [serialize_automaton(b), serialize_automaton(reverse_bta(b))]
    assert_routes_agree(parse_automaton, parse_by_the_general_route, [(text,) for text in texts])


# === The table route against the general route ==================================

def table_texts() -> list[str]:
    """Texts the writer gives total views: the determinizations of
    seeded_draws(60) and of TERN and LATE_LEAVES draws, their own
    determinizations (names nesting braces), their canonical forms (some
    with more than ten states named "0".."n-1", which sort out of number
    order) and their views renamed to ODD_NAMES."""
    draws = seeded_draws(60) + [
        random_bta(random.Random(s), alphabet, 3)
        for alphabet in (TERN, LATE_LEAVES) for s in range(10)
    ]
    texts = []
    for a in draws:
        d = determinize(a)
        for out in (d, determinize(d), canonical_form(d), renamed_view(d)):
            texts.append(serialize_automaton(out))
    return texts


def mutations(text: str, rng: random.Random) -> dict[str, str]:
    """text with its rule lines changed, each in one way, at a random line i
    (and i + 1)."""
    lines = text.splitlines()
    head, rules = lines[:4], lines[4:]
    i = rng.randrange(len(rules) - 1)
    swapped = rules[:]
    swapped[i], swapped[i + 1] = rules[i + 1], rules[i]
    nullary = next(k for k, line in enumerate(rules) if "() -> " in line)

    def replaced(k: int, line: str) -> list[str]:
        return rules[:k] + [line] + rules[k + 1 :]

    def joined(body: list[str]) -> str:
        return "\n".join(head + body) + "\n"

    return {
        "dropped": joined(rules[:i] + rules[i + 1 :]),
        "last dropped": joined(rules[:-1]),
        "duplicated": joined(rules[: i + 1] + rules[i:]),
        "swapped": joined(swapped),
        "undeclared target": joined(replaced(i, rules[i].rpartition(" -> ")[0] + " -> zz")),
        "trailing comment": joined(replaced(i, rules[i] + "  # note")),
        "blank line": joined(rules[:i] + [""] + rules[i:]),
        "trailing whitespace": joined(replaced(i, rules[i] + " ")),
        "bare nullary": joined(replaced(nullary, rules[nullary].replace("() -> ", " -> ", 1))),
        "crlf": "\r\n".join(head + rules) + "\r\n",
        "no final newline": text[:-1],
    }


# The mutations whose rule lines are still the writer's.
SAME_LINES = {"crlf", "no final newline"}


def test_the_table_route_reads_what_the_general_route_reads():
    """The writer's texts and every mutation of them give the same automaton
    or the same error, line and column by both routes, and the automata
    read are written back alike.  The writer's texts and the mutations that
    keep its lines are read as tables, holding their view; every other
    mutation is declined and read line by line."""
    rng = random.Random(22)
    cases = []
    for text in table_texts():
        cases += [("unchanged", text), *mutations(text, rng).items()]
    got = assert_routes_agree(
        parse_automaton, parse_by_the_general_route, [(text,) for _, text in cases]
    )
    for (how, text), out in zip(cases, got):
        as_table = isinstance(out, Bta) and out._view is not None
        assert as_table == (how in SAME_LINES or how == "unchanged"), how
        if isinstance(out, Bta):
            assert serialize_automaton(out) == serialize_automaton(parse_by_the_general_route(text))
    read = [out for out in got if isinstance(out, Bta)]
    assert any(len(a.states) > 10 and a.numbered.names != sorted(a.states, key=int)
               for a in read if "0" in a.states)
    assert sum(isinstance(out, Raised) for out in got) == len(got) // 12


def test_a_determinization_read_back_is_run_and_written_without_naming_a_rule():
    """canonical_form, complete and minimize_dbta on a determinization read
    from its text, and writing their results, name no rule and number no
    state, and give what they give on the same text read line by line;
    complete writes the text back unchanged.  The same text with one rule
    line dropped is read line by line and numbered once; complete and
    minimize_dbta then run on that partial view, again naming no rule, and
    the completion holds a total view whose last name is the sink."""
    routes = (canonical_form, complete, minimize_dbta)
    for a in seeded_draws(20):
        text = serialize_automaton(determinize(a))
        lines = text.splitlines(keepends=True)
        partial = "".join(lines[:4] + lines[5:])
        written = {}
        for got, calls in ((text, 0), (partial, len(routes))):
            with (mock.patch.object(automata, "_named_rules", wraps=automata._named_rules) as named,
                  mock.patch.object(automata, "_number", wraps=automata._number) as numbered):
                results = []
                for f in routes:
                    read = parse_automaton(got)
                    assert is_deterministic(read)
                    results.append(f(read))
                outs = [serialize_automaton(r) for r in results]
            assert named.call_count == 0 and numbered.call_count == calls
            assert outs == [serialize_automaton(f(parse_by_the_general_route(got))) for f in routes]
            written[got] = outs, results[1]
        assert written[text][0][1] == text
        sunk = written[partial][1]._view
        assert sunk.total and sunk.names[-1] == "__dead"


# Declared names: plain, brace-flat, nested, empty braces, parentheses, and
# header keywords; symbols include nullary ones named after header keywords.
STATES = ["q0", "a", "{q0}", "{q0,a}", "{}", "{{q0},{a}}", "x(y)", "final", "states"]
DECLS = f"alphabet a/0 states/0 initial/0 f/1 g/2 h/3\nstates {' '.join(STATES)}\n"
ARITIES = {"a": 0, "states": 0, "initial": 0, "f": 1, "g": 2, "h": 3}
NOISE = [" ", "  ", "\t", "#", "{", "}", "(", ")", "()", ",", ",q0", "->", "-", ">", "states", "q0"]


@st.composite
def rule_lines(draw, kind: str) -> str:
    """A rule line in canonical form over declared or undeclared states, with
    any number of arguments, then a few characters deleted and a few noise
    tokens inserted."""
    sym = draw(st.sampled_from(sorted(ARITIES)))
    args = draw(st.lists(st.sampled_from(STATES + ["zz"]), max_size=3))
    pattern = sym if not args and draw(st.booleans()) else f"{sym}({','.join(args)})"
    q = draw(st.sampled_from(STATES + ["zz"]))
    line = f"{pattern} -> {q}" if kind == "bta" else f"{q} -> {pattern}"
    for at in draw(st.lists(st.integers(0, 60), max_size=1)):
        at %= len(line)
        line = line[:at] + line[at + 1 :]
    for at, noise in draw(st.lists(st.tuples(st.integers(0, 60), st.sampled_from(NOISE)), max_size=2)):
        at %= len(line) + 1
        line = line[:at] + noise + line[at:]
    return line


@settings(max_examples=800, deadline=None, derandomize=True)
@given(data=st.data(), kind=st.sampled_from(["bta", "tta"]))
def test_routes_agree_on_mutated_rule_lines(data, kind):
    lines = data.draw(st.lists(rule_lines(kind), min_size=1, max_size=4))
    marked = "final" if kind == "bta" else "initial"
    first = "a() -> q0" if kind == "bta" else "q0 -> a()"
    text = f"{kind}\n{DECLS}{marked} q0\n{first}\n" + "\n".join(lines) + "\n"
    assert_routes_agree(parse_automaton, parse_by_the_general_route, [(text,)])


def test_canonical_rule_lines_skip_the_general_route(abc):
    """Reading serialize_automaton's output sends no rule line through the
    general route's pattern parser."""
    for a in [*(load_fixture(p.name) for p in sorted(FIXTURES.iterdir())), determinize(abc)]:
        text = serialize_automaton(a)
        with mock.patch.object(fileformat, "_parse_pattern", wraps=fileformat._parse_pattern) as spy:
            assert parse_automaton(text) == a
        assert spy.call_count == 0


def test_an_open_parenthesis_without_a_close_takes_the_general_route():
    texts = ["bta\nalphabet a/0 f/1\nstates q\nfinal q\na( -> q\n",
             "tta\nalphabet a/0 f/1\nstates q\ninitial q\nq -> f(q\n"]
    assert_routes_agree(parse_automaton, parse_by_the_general_route, [(text,) for text in texts])
    expect_error("bta\nalphabet a/0 f/1\nstates q\nfinal q\na( -> q\n",
                 "expected ')' to close the argument list", 5, 3)


def test_nested_brace_names_read_the_same_by_both_routes(abc):
    """Minimized outputs name states after sets of subsets; a split inside
    their braces leaves a piece that is no declared state, so such lines
    fall through to the general route and read the same."""
    for a in [abc, *seeded_draws(30)]:
        for m in (minimize_bta(a), determinize(determinize(a))):
            text = serialize_automaton(m)
            assert_routes_agree(parse_automaton, parse_by_the_general_route, [(text,)])
            assert parse_automaton(text) == m
