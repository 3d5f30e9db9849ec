"""End-to-end exercises of the treeca command line.

Every verb is driven through cli.main with an argv list: exit codes follow
the 0-yes / 1-no / 2-error convention, verdicts and state-set queries print
the exact pinned lines, and transformation verbs emit canonical automaton
text that parses back to the same machine the library produces.
"""

import re
import shlex
import subprocess
import sys
import warnings
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from helpers import (
    BOOL,
    FIXTURES,
    load_fixture,
    random_context,
    random_tree,
    split_state_bta,
)

from treeca import (
    Bta,
    RankedAlphabet,
    TreecaError,
    Tta,
    codeterminize,
    determinize,
    format_term,
    minimize_bta,
    parse_automaton,
    reachable_states,
    serialize_automaton,
    trim_empty,
)
from treeca import analysis, automata, cli
from treeca.cli import main


def fx(name: str) -> str:
    return str(FIXTURES / name)


@pytest.fixture(autouse=True, scope="module")
def one_verb_parsers_agree_with_the_full_parser():
    """main builds the parser of its first argument's verb alone; every
    command these tests run through main must parse to the same namespace
    with the parser of every verb."""
    build, full = cli._build_parser, cli._build_parser()

    def checked(verb=None):
        parser = build(verb)
        parse = parser.parse_args

        def parse_args(argv):
            args = parse(argv)
            assert args == full.parse_args(argv), argv
            return args

        parser.parse_args = parse_args
        return parser

    with mock.patch.object(cli, "_build_parser", checked):
        yield


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# === Transformation verbs ===


def test_determinize_emits_canonical_parseable_text(capsys):
    """Stdout is serialized automaton text: it parses back to the expected
    machine and is a serialization fixpoint."""
    code, out, err = run(capsys, "determinize", fx("abc.bta"))
    assert code == 0
    assert err == ""
    result = parse_automaton(out)
    assert isinstance(result, Bta)
    assert result == determinize(load_fixture("abc.bta"))
    assert serialize_automaton(result) == out


def test_output_flag_writes_file_and_keeps_stdout_quiet(capsys, tmp_path):
    target = tmp_path / "out.bta"
    code, out, _ = run(capsys, "minimize", fx("bool2.bta"), "-o", str(target))
    assert code == 0
    assert out == ""
    assert len(parse_automaton(target.read_text()).states) == 2


def test_codeterminize_no_pretrim_keeps_the_junk_subset(capsys):
    code, out, _ = run(capsys, "codeterminize", fx("star.bta"), "--no-pretrim")
    assert code == 0
    assert parse_automaton(out).states == {"{q1,q2}", "{q1}"}


def test_reverse_flips_between_the_two_headers(capsys):
    code, out, _ = run(capsys, "reverse", fx("bool2.bta"))
    assert code == 0
    assert out.startswith("tta\n")
    assert out == serialize_automaton(load_fixture("bool2r.tta"))
    code, out, _ = run(capsys, "reverse", fx("bool2r.tta"))
    assert code == 0
    assert out.startswith("bta\n")
    assert parse_automaton(out) == load_fixture("bool2.bta")


def test_complete_emits_a_total_table(capsys, tmp_path):
    partial = tmp_path / "partial.bta"
    partial.write_text(
        "bta\nalphabet F/0 T/0 and/2\nstates q0 q1\nfinal q1\n"
        "F() -> q0\nT() -> q1\nand(q1,q1) -> q1\n"
    )
    code, out, _ = run(capsys, "complete", str(partial))
    assert code == 0
    result = parse_automaton(out)
    assert result.states == {"q0", "q1", "__dead"}
    assert len(result.delta) == 2 + 3 * 3


def test_tdeterminize_emits_a_deterministic_tta(capsys):
    code, out, _ = run(capsys, "tdeterminize", fx("bool2r.tta"))
    assert code == 0
    result = parse_automaton(out)
    assert isinstance(result, Tta)
    assert len(result.initial) == 1
    for productions in result.delta.values():
        symbols = [sym for sym, _ in productions]
        assert len(symbols) == len(set(symbols))


def test_minimize_strip_dead_drops_the_sink_class(capsys):
    code, out, _ = run(capsys, "minimize", fx("and1.bta"))
    assert code == 0
    assert len(parse_automaton(out).states) == 2
    code, out, _ = run(capsys, "minimize", fx("and1.bta"), "--strip-dead")
    assert code == 0
    assert len(parse_automaton(out).states) == 1


def test_minimize_strip_dead_makes_no_reachability_pass(capsys, abc):
    """Every state of a determinization is reachable, so stripping the sink
    class only climbs from the final states."""
    with mock.patch.object(automata, "reachable_states",
                           wraps=automata.reachable_states) as counted:
        got = run(capsys, "minimize", fx("abc.bta"), "--strip-dead")
    assert counted.call_count == 0
    assert got == (0, serialize_automaton(trim_empty(minimize_bta(abc))), "")


def test_min_codet_and_brzozowski_reject_non_path_closed_input(capsys):
    code, out, _ = run(capsys, "min-codet", fx("and1.bta"))
    assert code == 0
    assert len(parse_automaton(out).states) == 1
    for verb in ("min-codet", "brzozowski"):
        code, out, err = run(capsys, verb, fx("bool2.bta"))
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert "path-closed" in err


def test_brzozowski_agrees_with_minimize_on_a_path_closed_fixture(capsys, tmp_path):
    brz = tmp_path / "brz.bta"
    mini = tmp_path / "min.bta"
    assert run(capsys, "brzozowski", fx("and1.bta"), "-o", str(brz))[0] == 0
    assert run(capsys, "minimize", fx("and1.bta"), "-o", str(mini))[0] == 0
    code, out, _ = run(capsys, "isomorphic", str(brz), str(mini))
    assert (code, out) == (0, "isomorphic\n")


def test_canonical_golden_text_and_determinism_requirement(capsys):
    code, out, _ = run(capsys, "canonical", fx("bool2.bta"))
    assert code == 0
    assert out == (
        "bta\n"
        "alphabet F/0 T/0 and/2 or/2\n"
        "states 0 1\n"
        "final 1\n"
        "F() -> 0\n"
        "T() -> 1\n"
        "and(0,0) -> 0\n"
        "and(0,1) -> 0\n"
        "and(1,0) -> 0\n"
        "and(1,1) -> 1\n"
        "or(0,0) -> 0\n"
        "or(0,1) -> 1\n"
        "or(1,0) -> 1\n"
        "or(1,1) -> 1\n"
    )
    code, _, err = run(capsys, "canonical", fx("abc.bta"))
    assert code == 2
    assert "deterministic" in err


# === Comparison verbs ===


def test_equiv_prints_a_separating_tree_on_disagreement(capsys, tmp_path):
    grown = tmp_path / "codet.bta"
    grown.write_text(serialize_automaton(codeterminize(load_fixture("bool2.bta"))))
    code, out, _ = run(capsys, "equiv", fx("bool2.bta"), str(grown))
    assert code == 1
    assert out == "not equivalent\nseparating tree: or(F,F)\n"


def test_equiv_yes_case_and_alphabet_mismatch(capsys):
    code, out, _ = run(capsys, "equiv", fx("and1.bta"), fx("and1.bta"))
    assert code == 0
    assert out == "equivalent\n"
    code, out, _ = run(capsys, "equiv", fx("and1.bta"), fx("abc.bta"))
    assert code == 1
    assert out == "not equivalent\nalphabets differ\n"


def test_equiv_and_check_brz_u_witness_determinize_each_input_once(
    capsys, tmp_path, subset_pools
):
    grown = tmp_path / "codet.bta"
    grown.write_text(serialize_automaton(codeterminize(load_fixture("bool2.bta"))))
    split = tmp_path / "split.bta"
    split.write_text(serialize_automaton(split_state_bta()))
    for argv, pools in ((["equiv", fx("bool2.bta"), str(grown)], 2),
                        (["check-brz-u", str(split), "--witness"], 1)):
        subset_pools.clear()
        code, _, _ = run(capsys, *argv)
        assert code == 1
        assert len(subset_pools) == pools, argv[0]


def test_isomorphic_verdict_lines(capsys, tmp_path):
    renamed = tmp_path / "codet_abc.bta"
    renamed.write_text(serialize_automaton(codeterminize(load_fixture("abc.bta"))))
    code, out, _ = run(capsys, "isomorphic", fx("abc_codet.bta"), str(renamed))
    assert (code, out) == (0, "isomorphic\n")
    code, out, _ = run(capsys, "isomorphic", fx("and1.bta"), fx("abc.bta"))
    assert (code, out) == (1, "not isomorphic\n")


# === Query verbs ===


def test_member_verdicts_and_arity_error(capsys):
    code, out, _ = run(capsys, "member", fx("bool2.bta"), "-t", "or(and(T,F),T)")
    assert (code, out) == (0, "member\n")
    code, out, _ = run(capsys, "member", fx("bool2.bta"), "-t", "and(T,F)")
    assert (code, out) == (1, "not a member\n")
    code, _, err = run(capsys, "member", fx("bool2.bta"), "-t", "and(T)")
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("verb, flag", [("member", "-t"), ("pre", "-c")])
def test_term_faults_and_spaces_read_the_same_on_the_command_line(capsys, verb, flag):
    """A character no token holds is reported before the empty argument
    that comes first; a missing comma is reported at the label after it;
    and every space between tokens is free."""
    bad = run(capsys, verb, fx("bool2.bta"), flag, "and(T,,F$)")
    assert bad == (2, "", "error: line 1, column 9: unexpected character '$'\n")
    bad = run(capsys, verb, fx("bool2.bta"), flag, "and(T F)")
    assert bad == (2, "", "error: line 1, column 7: expected ',' or ')', got 'F'\n")
    text = " and ( T ,\tF ) " if verb == "member" else " and ( T ,\t<> ) "
    assert run(capsys, verb, fx("bool2.bta"), flag, text)[:2] == (
        (1, "not a member\n") if verb == "member" else (0, "q1\n"))


def test_post_defaults_to_initial_states_and_honors_the_flag(capsys):
    code, out, _ = run(capsys, "post", fx("bool2.bta"), "-t", "and(or(T,F),and(T,T))")
    assert (code, out) == (0, "q1\n")
    code, out, _ = run(
        capsys, "post", fx("bool2.bta"), "-t", "and(or(T,F),and(T,T))",
        "--states", "q0",
    )
    assert (code, out) == (0, "\n")


def test_pre_and_wpre_print_one_sorted_line(capsys):
    code, out, _ = run(capsys, "pre", fx("bool2.bta"), "-c", "or(and(T,F),<>)")
    assert (code, out) == (0, "q0 q1\n")
    code, out, _ = run(capsys, "pre", fx("bool2.bta"), "-c", "and(or(F,F),<>)")
    assert (code, out) == (0, "\n")
    code, out, _ = run(capsys, "wpre", fx("bool2.bta"), "-c", "or(and(T,F),<>)")
    assert (code, out) == (0, "q1\n")


PRE_NOTE = "note: unreachable states are removed before computing\n"


def with_unreachable_state(a: Bta) -> Bta:
    return Bta(a.alphabet, a.states | {"zz"}, a.delta, a.final)


def test_pre_notes_the_trim_in_one_line(capsys, tmp_path, bool2):
    """The library warns; the command line prints one note and no warning
    text, and still accepts the trimmed state as a seed."""
    path = tmp_path / "bool2z.bta"
    path.write_text(serialize_automaton(with_unreachable_state(bool2)))
    for states in ([], ["--states", "zz", "q1"]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "pre", str(path), "-c", "or(T,<>)", *states)
        assert (code, out, err) == (0, "q0 q1\n", PRE_NOTE)
    code, out, err = run(capsys, "pre", fx("bool2.bta"), "-c", "or(T,<>)")
    assert (code, out, err) == (0, "q0 q1\n", "")


def test_pre_finds_the_reachable_states_once(capsys, tmp_path, bool2):
    """The note comes from the library's warning; neither pre_context nor
    the command line computes the reachable states again."""
    path = tmp_path / "bool2z.bta"
    path.write_text(serialize_automaton(with_unreachable_state(bool2)))
    counted = mock.Mock(wraps=automata.reachable_states)
    with mock.patch.object(automata, "reachable_states", counted), \
            mock.patch.object(analysis, "reachable_states", counted):
        assert run(capsys, "pre", str(path), "-c", "or(T,<>)") == (0, "q0 q1\n", PRE_NOTE)
    assert counted.call_count == 1


def test_check_brz_d_notes_nothing_when_it_fails(capsys, tmp_path, bool2):
    path = tmp_path / "bool2z.bta"
    path.write_text(serialize_automaton(with_unreachable_state(bool2)))
    assert_one_error_line(*run(capsys, "check-brz-d", str(path)))
    assert_one_error_line(*run(capsys, "check-brz-d", fx("star.bta"), "--budget", "1"))


def test_pre_rejects_unknown_seed_states(capsys):
    code, _, err = run(
        capsys, "pre", fx("bool2.bta"), "-c", "or(T,<>)", "--states", "nope"
    )
    assert code == 2
    assert "unknown states" in err


def test_rtp_equiv_verdicts_and_context_count(capsys):
    code, out, _ = run(
        capsys, "rtp-equiv", fx("bool2.bta"),
        "-c", "or(and(T,F),<>)", "-c", "or(and(T,T),<>)",
    )
    assert (code, out) == (0, "root-to-pivot equivalent\n")
    code, out, _ = run(
        capsys, "rtp-equiv", fx("bool2.bta"),
        "-c", "or(and(T,F),<>)", "-c", "and(T,<>)",
    )
    assert (code, out) == (1, "not root-to-pivot equivalent\n")
    code, _, err = run(capsys, "rtp-equiv", fx("bool2.bta"), "-c", "<>")
    assert code == 2
    assert "exactly two" in err


# === Diagnostic verbs ===


def test_is_path_closed_verdicts(capsys):
    code, out, _ = run(capsys, "is-path-closed", fx("and1.bta"))
    assert (code, out) == (0, "path-closed\n")
    code, out, _ = run(capsys, "is-path-closed", fx("bool2.bta"))
    assert (code, out) == (1, "not path-closed\n")


def test_check_brz_u_passes_on_bool2(capsys):
    code, out, _ = run(capsys, "check-brz-u", fx("bool2.bta"))
    assert (code, out) == (0, "determinization is minimal\n")


def test_check_brz_u_witness_names_the_merged_subsets(capsys, tmp_path):
    split = tmp_path / "split.bta"
    split.write_text(serialize_automaton(split_state_bta()))
    code, out, _ = run(capsys, "check-brz-u", str(split), "--witness")
    assert code == 1
    assert out == (
        "determinization is not minimal\n"
        "witness: state q1a separates subsets {q1a} and {q1b} "
        "merged into {{q1a},{q1b}}\n"
    )


def test_check_brz_d_notes_the_trim_and_rejects_non_path_closed(capsys):
    """The note comes from the trim the check itself made, so the reachable
    states are computed once."""
    counted = mock.Mock(wraps=automata.reachable_states)
    with mock.patch.object(automata, "reachable_states", counted), \
            mock.patch.object(analysis, "reachable_states", counted):
        code, out, err = run(capsys, "check-brz-d", fx("star.bta"))
    assert (code, out) == (0, "co-determinization is minimal\n")
    assert err == "note: unreachable states are removed before checking\n"
    assert counted.call_count == 1
    code, _, err = run(capsys, "check-brz-d", fx("bool2.bta"))
    assert code == 2
    assert "path-closed" in err


@pytest.mark.parametrize("verb, name, calls", [
    ("codeterminize", "star.bta", 0),
    ("codeterminize --no-pretrim", "star.bta", 1),
    ("tdeterminize", "bool2r.tta", 0),
    ("is-path-closed", "star.bta", 0),
    ("brzozowski", "star.bta", 0),
    ("min-codet", "star.bta", 0),
    ("check-brz-d", "star.bta", 0),
])
def test_co_determinizing_verbs_trim_empty_states_only_without_pretrim(capsys, verb, name, calls):
    """A co-determinization of a trimmed automaton has no state to drop, so
    only --no-pretrim asks for the states with a nonempty upward language."""
    with mock.patch.object(automata, "useful_states", wraps=automata.useful_states) as counted:
        assert run(capsys, *verb.split(), fx(name))[0] == 0
    assert counted.call_count == calls


# === Class and enumeration verbs ===


def test_classes_down_prints_keyed_sorted_lines(capsys):
    code, out, _ = run(capsys, "classes-down", fx("and1.bta"), "--height", "2")
    assert code == 0
    assert out.splitlines() == [
        "{q1}: <> and(<>,T) and(T,<>)",
        "{}: and(<>,F) and(F,<>)",
    ]


def test_classes_up_groups_by_reached_state_set(capsys):
    code, out, _ = run(capsys, "classes-up", fx("bool2.bta"), "--height", "2")
    assert code == 0
    lines = out.splitlines()
    assert [line.split(":")[0] for line in lines] == ["{q0}", "{q1}"]
    assert all(len(line.split(": ")[1].split()) == 5 for line in lines)


def test_language_upto_lists_accepted_trees_in_canonical_order(capsys):
    code, out, _ = run(capsys, "language-upto", fx("and1.bta"), "--height", "2")
    assert code == 0
    assert out.splitlines() == ["T", "and(T,T)"]


def test_oracle_classes_print_one_line_per_class(capsys):
    code, out, _ = run(
        capsys, "oracle-classes-up", fx("bool2.bta"),
        "--height", "2", "--context-height", "3",
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 2
    assert all(len(line.split()) == 5 for line in lines)
    code, out, _ = run(
        capsys, "oracle-classes-down", fx("and1.bta"),
        "--height", "2", "--tree-height", "2",
    )
    assert code == 0
    assert out.splitlines() == [
        "<> and(<>,T) and(T,<>)",
        "and(<>,F) and(F,<>)",
    ]


def test_enumerate_counts_trees_and_contexts(capsys):
    code, out, _ = run(capsys, "enumerate", fx("bool2.bta"), "--height", "2")
    assert code == 0
    assert len(out.splitlines()) == 10
    code, out, _ = run(
        capsys, "enumerate", fx("bool2.bta"), "--height", "2", "--contexts"
    )
    assert code == 0
    assert len(out.splitlines()) == 9


def test_budget_flag_turns_into_a_clean_error(capsys):
    code, _, err = run(
        capsys, "enumerate", fx("bool2.bta"), "--height", "4", "--budget", "10"
    )
    assert code == 2
    assert err.startswith("error:")
    assert "budget" in err


# === Error handling and entry points ===


def test_parse_errors_and_missing_files_exit_with_2(capsys, tmp_path):
    broken = tmp_path / "broken.bta"
    broken.write_text("bta\nalphabet T/0\nstates q\nfinal q\nT() -> nosuch\n")
    code, _, err = run(capsys, "member", str(broken), "-t", "T")
    assert code == 2
    assert err.startswith("error:")
    assert "line 5" in err
    code, _, err = run(capsys, "minimize", str(tmp_path / "missing.bta"))
    assert code == 2
    assert err.startswith("error:")


def assert_one_error_line(code: int, out: str, err: str) -> None:
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_a_top_down_verb_on_a_bottom_up_file_exits_with_2_and_one_error_line(capsys):
    code, out, err = run(capsys, "tdeterminize", fx("bool2.bta"))
    assert_one_error_line(code, out, err)
    assert err == f"error: {fx('bool2.bta')}: expected a top-down automaton (header 'tta')\n"


@pytest.mark.parametrize("error", [MemoryError, RecursionError])
def test_memory_and_recursion_errors_exit_with_2_and_one_error_line(capsys, error):
    with mock.patch.object(cli, "determinize", side_effect=error):
        code, out, err = run(capsys, "determinize", fx("bool2.bta"))
    assert_one_error_line(code, out, err)
    assert err.strip() != "error:"


def test_an_interrupt_exits_with_130_and_one_error_line(capsys):
    with mock.patch.object(cli, "accepts", side_effect=KeyboardInterrupt):
        code, out, err = run(capsys, "member", fx("bool2.bta"), "-t", "and(T,T)")
    assert (code, out, err) == (130, "", "error: interrupted\n")


@pytest.mark.parametrize("name", ["x,y", "x->y"])
def test_state_names_a_file_cannot_hold_exit_with_2(capsys, tmp_path, name):
    """complete would write g(x,y) -> __dead for a state x,y, which reads back
    as a rule of arity 2, so the states line refuses the name."""
    path = tmp_path / "names.bta"
    path.write_text(f"bta\nalphabet a/0 g/1\nstates {name} p\nfinal p\na() -> {name}\n")
    code, out, err = run(capsys, "complete", str(path))
    assert_one_error_line(code, out, err)
    assert f"line 3, column 8: illegal state name {name!r}" in err


@pytest.mark.parametrize("verb", ["enumerate", "classes-up", "language-upto"])
def test_height_zero_exits_with_2(capsys, verb):
    assert_one_error_line(*run(capsys, verb, fx("bool2.bta"), "--height", "0"))


@pytest.mark.parametrize(
    "argv",
    [
        ["member", fx("bool2.bta")],
        ["enumerate", fx("bool2.bta"), "--height", "x"],
        ["frobnicate", fx("bool2.bta")],
    ],
    ids=["missing-term", "height-not-an-int", "unknown-verb"],
)
def test_usage_errors_exit_with_2_and_one_error_line(capsys, argv):
    assert_one_error_line(*run(capsys, *argv))


def test_every_verbs_help_is_the_full_parsers(capsys):
    full = cli._build_parser()
    for verb, *_ in cli._VERBS:
        helps = []
        for parser in (cli._build_parser(verb), full):
            with pytest.raises(SystemExit):
                parser.parse_args([verb, "-h"])
            helps.append(capsys.readouterr().out)
        assert helps[0] == helps[1], verb


@pytest.mark.parametrize(
    "argv", [[], ["bogus"], ["member", "f"], ["member", "f", "-t", "a", "--bogus"]]
)
def test_usage_errors_read_as_the_full_parsers(capsys, argv):
    with pytest.raises(TreecaError) as full:
        cli._build_parser().parse_args(argv)
    assert run(capsys, *argv) == (2, "", f"error: {full.value}\n")


@pytest.mark.parametrize("budget", ["0", "-3"])
@pytest.mark.parametrize(
    "verb", [["determinize"], ["classes-up", "--height", "2"]], ids=lambda v: v[0]
)
def test_budgets_below_one_are_rejected_alike(capsys, verb, budget):
    # determinize is capped by the subset pool, classes-up by the enumeration.
    got = run(capsys, *verb, fx("bool2.bta"), f"--budget={budget}")
    assert got == (2, "", "error: budget must be positive\n")


def test_non_utf8_file_exits_with_2_naming_the_path(capsys, tmp_path):
    garbled = tmp_path / "garbled.bta"
    garbled.write_bytes(b"\xff\xfe")
    code, out, err = run(capsys, "member", str(garbled), "-t", "a")
    assert_one_error_line(code, out, err)
    assert err == f"error: {garbled}: not UTF-8 text (invalid start byte at byte 0)\n"


def test_a_byte_order_mark_is_read_past(capsys, tmp_path):
    """Editors may save UTF-8 with a leading byte-order mark; the file reads
    as without it, and a bad byte after the mark is counted from the start
    of the file."""
    marked = tmp_path / "marked.bta"
    marked.write_bytes(b"\xef\xbb\xbf" + (FIXTURES / "bool2.bta").read_bytes())
    plain = run(capsys, "determinize", fx("bool2.bta"))
    assert run(capsys, "determinize", str(marked)) == plain
    assert plain[0] == 0
    marked.write_bytes(b"\xef\xbb\xbfbta\n\xff")
    code, out, err = run(capsys, "member", str(marked), "-t", "a")
    assert_one_error_line(code, out, err)
    assert err == f"error: {marked}: not UTF-8 text (invalid start byte at byte 7)\n"


FIXTURE_TEXTS = sorted(p.read_text() for p in FIXTURES.iterdir())

STATES = st.lists(st.sampled_from(["q0", "q1", "q_a", "q_f", "p0", "nope"]), min_size=1,
                  max_size=3)
RAW_TERMS = st.text(alphabet="abcTF and or f g <> (),", max_size=30) | st.text(max_size=12)


def _spliced(parts: tuple[str, int, int, str]) -> bytes:
    text, i, j, insert = parts
    return (text[:i] + insert + text[j:]).encode("utf-8", "surrogatepass")


# Fixtures come up twice as often as each kind of garbage, so that many
# draws get past the file parser.
AUTOMATON_BYTES = st.one_of(
    st.sampled_from(FIXTURE_TEXTS).map(str.encode),
    st.sampled_from(FIXTURE_TEXTS).map(str.encode),
    st.tuples(st.sampled_from(FIXTURE_TEXTS), st.integers(0, 300), st.integers(0, 300),
              st.text(max_size=8)).map(_spliced),
    st.binary(max_size=120),
)


def _fuzz_term(draw, alphabet: RankedAlphabet, hole: bool) -> str:
    """Raw text, or more often a random tree or context over the file's alphabet."""
    if draw(st.integers(0, 3)) == 0:
        return draw(RAW_TERMS)
    rng = draw(st.randoms(use_true_random=False))
    make = random_context if hole else random_tree
    return format_term(make(rng, alphabet, rng.randint(1, 4)))


def _fuzz_options(draw, verb: str, alphabet: RankedAlphabet) -> list[str]:
    """Options for one cheap verb; values go after '=' so none reads as a flag.
    Heights and budgets are mostly valid, sometimes zero or negative."""
    height = f"--height={draw(st.integers(1, 3) | st.integers(-1, 3))}"
    budget = f"--budget={draw(st.integers(5, 40) | st.integers(-1, 40))}"
    if verb in ("member", "post"):
        opts = [f"--term={_fuzz_term(draw, alphabet, False)}"]
    elif verb in ("pre", "wpre"):
        opts = [f"--context={_fuzz_term(draw, alphabet, True)}"]
    elif verb == "rtp-equiv":
        count = draw(st.integers(1, 3))
        opts = [f"--context={_fuzz_term(draw, alphabet, True)}" for _ in range(count)]
    elif verb == "isomorphic":
        opts = []
    elif verb in ("enumerate", "language-upto", "classes-up", "classes-down"):
        opts = [height, budget]
    elif verb in ("oracle-classes-up", "oracle-classes-down"):
        second = "--context-height" if verb.endswith("up") else "--tree-height"
        opts = [height, f"{second}={draw(st.integers(1, 2) | st.integers(-1, 2))}", budget]
    else:
        opts = [budget]
    if verb in ("post", "pre", "wpre", "rtp-equiv") and draw(st.booleans()):
        opts += ["--states", *draw(STATES)]
    return opts


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_fuzzed_calls_keep_the_exit_contract(capsys, tmp_path, data):
    """Random files, terms and small heights or budgets on cheap verbs, the
    two-file verbs comparing the file with itself or with bool2: a verdict
    exits 0 or 1, anything else exits 2 with one error line, and nothing
    escapes as a traceback."""
    raw = data.draw(AUTOMATON_BYTES)
    path = tmp_path / "fuzz.bta"
    path.write_bytes(raw)
    try:
        parsed = parse_automaton(raw.decode("utf-8").removeprefix("\ufeff"))
    except (TreecaError, UnicodeDecodeError):
        parsed = None
    alphabet = BOOL if parsed is None else parsed.alphabet
    verb = data.draw(st.sampled_from([
        "member", "post", "pre", "wpre", "rtp-equiv", "enumerate", "language-upto",
        "classes-up", "classes-down", "oracle-classes-up", "oracle-classes-down",
        "determinize", "minimize", "is-path-closed", "check-brz-u", "codeterminize",
        "isomorphic", "equiv",
    ]))
    files = [str(path)]
    if verb in ("isomorphic", "equiv"):
        files.append(data.draw(st.sampled_from([str(path), fx("bool2.bta")])))
    options = _fuzz_options(data.draw, verb, alphabet)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a Python warning would reach stderr unformatted
        code, out, err = run(capsys, verb, *files, *options)
    assert code in (0, 1, 2)
    if code == 2:
        assert_one_error_line(code, out, err)
    elif verb == "pre" and reachable_states(parsed) != parsed.states:
        assert err == PRE_NOTE
    else:
        assert err == ""


def test_bta_verbs_reject_tta_files(capsys):
    code, _, err = run(capsys, "minimize", fx("bool2r.tta"))
    assert code == 2
    assert "bottom-up" in err


def test_module_entry_point_runs_in_a_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "treeca", "member", fx("bool2.bta"), "-t", "or(T,F)"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "member\n"


# === The README ===


def _readme_blocks(lang: str) -> list[str]:
    """The fenced blocks of one language in the README, in order."""
    text = (FIXTURES.parent / "README.md").read_text(encoding="utf-8")
    return re.findall(rf"^```{lang}\n(.*?)^```", text, re.M | re.S)


def test_the_readme_examples_print_what_the_readme_shows(capsys, monkeypatch, tmp_path):
    """Each command of the README's console blocks, run through main from
    the checkout with /tmp/grown.bta moved under tmp_path, prints the lines
    shown under it and nothing on stderr; the Python quick start runs."""
    monkeypatch.chdir(FIXTURES.parent)
    runs: list[tuple[str, list[str]]] = []
    for block in _readme_blocks("console"):
        for line in block.splitlines():
            if line.startswith("$ "):
                runs.append((line[2:], []))
            else:
                runs[-1][1].append(line)
    assert len(runs) == 6
    for command, shown in runs:
        argv = shlex.split(command.replace("/tmp/grown.bta", str(tmp_path / "grown.bta")))
        assert argv[0] == "treeca"
        main(argv[1:])
        out, err = capsys.readouterr()
        assert (out, err) == ("".join(f"{line}\n" for line in shown), ""), command
    (quick_start,) = _readme_blocks("python")
    exec(compile(quick_start, "README.md", "exec"), {})
