"""Batch command line interface: one verb per operation.

Transformations read an automaton file and write the result to stdout or to
the file named by -o.  Predicates print a one-line verdict and exit with 0
when the answer is yes, 1 when it is no; any error exits with 2.  State set
queries print one sorted, space-separated line.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from pathlib import Path
from typing import Callable, Iterable, NoReturn

from .analysis import (
    _check_gen_det_d,
    bta_congruence_down,
    bta_congruence_up,
    gen_det_u_witness,
    pre_context,
    root_to_pivot_equiv,
)
from .automata import Bta, Tta, accepts, post_tree, wpre
from .errors import TreecaError
from .fileformat import parse_automaton, serialize_automaton
from .minimize import (
    brzozowski,
    canonical_form,
    is_path_closed,
    isomorphic,
    min_codbta,
    minimize_bta,
    separating_tree,
)
from .oracle import language_upto, nerode_classes_down, nerode_classes_up
from .transforms import (
    DEFAULT_STATE_BUDGET,
    codeterminize,
    complete,
    determinize,
    reverse_bta,
    reverse_tta,
    subset_name,
    tta_determinize,
)
from .trees import (
    DEFAULT_ENUM_BUDGET,
    enumerate_contexts,
    enumerate_trees,
    format_term,
    parse_context,
    parse_term,
)


def _load(path: str) -> Bta | Tta:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise TreecaError(
            f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})"
        ) from None
    return parse_automaton(text)


def _load_bta(path: str) -> Bta:
    a = _load(path)
    if not isinstance(a, Bta):
        raise TreecaError(f"{path}: expected a bottom-up automaton (header 'bta')")
    return a


def _load_tta(path: str) -> Tta:
    a = _load(path)
    if not isinstance(a, Tta):
        raise TreecaError(f"{path}: expected a top-down automaton (header 'tta')")
    return a


def _emit(a: Bta | Tta, out: str | None) -> int:
    text = serialize_automaton(a)
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")
    return 0


def _print_states(states: Iterable[str]) -> int:
    print(" ".join(sorted(states)))
    return 0


def _verdict(result: bool, yes: str, no: str) -> int:
    print(yes if result else no)
    return 0 if result else 1


def _cmd_determinize(args: argparse.Namespace) -> int:
    return _emit(determinize(_load_bta(args.automaton), budget=args.budget), args.output)


def _cmd_codeterminize(args: argparse.Namespace) -> int:
    result = codeterminize(
        _load_bta(args.automaton), pretrim=not args.no_pretrim, budget=args.budget
    )
    return _emit(result, args.output)


def _cmd_reverse(args: argparse.Namespace) -> int:
    a = _load(args.automaton)
    flipped = reverse_bta(a) if isinstance(a, Bta) else reverse_tta(a)
    return _emit(flipped, args.output)


def _cmd_complete(args: argparse.Namespace) -> int:
    return _emit(complete(_load_bta(args.automaton)), args.output)


def _cmd_tdeterminize(args: argparse.Namespace) -> int:
    return _emit(
        tta_determinize(_load_tta(args.automaton), budget=args.budget), args.output
    )


def _cmd_minimize(args: argparse.Namespace) -> int:
    result = minimize_bta(
        _load_bta(args.automaton), strip_dead=args.strip_dead, budget=args.budget
    )
    return _emit(result, args.output)


def _cmd_min_codet(args: argparse.Namespace) -> int:
    return _emit(min_codbta(_load_bta(args.automaton), budget=args.budget), args.output)


def _cmd_brzozowski(args: argparse.Namespace) -> int:
    return _emit(brzozowski(_load_bta(args.automaton), budget=args.budget), args.output)


def _cmd_canonical(args: argparse.Namespace) -> int:
    return _emit(canonical_form(_load_bta(args.automaton)), args.output)


def _cmd_equiv(args: argparse.Namespace) -> int:
    a = _load_bta(args.left)
    b = _load_bta(args.right)
    if a.alphabet != b.alphabet:
        print("not equivalent")
        print("alphabets differ")
        return 1
    witness = separating_tree(a, b, budget=args.budget)
    if witness is None:
        print("equivalent")
        return 0
    print("not equivalent")
    print(f"separating tree: {format_term(witness)}")
    return 1


def _cmd_isomorphic(args: argparse.Namespace) -> int:
    return _verdict(
        isomorphic(_load_bta(args.left), _load_bta(args.right)),
        "isomorphic",
        "not isomorphic",
    )


def _cmd_member(args: argparse.Namespace) -> int:
    a = _load_bta(args.automaton)
    t = parse_term(args.term, a.alphabet)
    return _verdict(accepts(a, t), "member", "not a member")


def _cmd_post(args: argparse.Namespace) -> int:
    a = _load_bta(args.automaton)
    t = parse_term(args.term, a.alphabet)
    return _print_states(post_tree(a, t, args.states or a.initial_states))


def _cmd_pre(args: argparse.Namespace) -> int:
    a = _load_bta(args.automaton)
    x = parse_context(args.context, a.alphabet)
    with warnings.catch_warnings(record=True) as caught:
        warnings.filterwarnings("always", "pre_context removes unreachable states")
        states = pre_context(a, x, args.states)
    if caught:
        print("note: unreachable states are removed before computing", file=sys.stderr)
    return _print_states(states)


def _cmd_wpre(args: argparse.Namespace) -> int:
    a = _load_bta(args.automaton)
    x = parse_context(args.context, a.alphabet)
    return _print_states(wpre(a, x, args.states or a.final))


def _cmd_rtp_equiv(args: argparse.Namespace) -> int:
    a = _load_bta(args.automaton)
    if len(args.context) != 2:
        raise TreecaError("rtp-equiv needs exactly two -c contexts")
    x = parse_context(args.context[0], a.alphabet)
    y = parse_context(args.context[1], a.alphabet)
    return _verdict(
        root_to_pivot_equiv(a, x, y, args.states),
        "root-to-pivot equivalent",
        "not root-to-pivot equivalent",
    )


def _cmd_is_path_closed(args: argparse.Namespace) -> int:
    return _verdict(
        is_path_closed(_load_bta(args.automaton), budget=args.budget),
        "path-closed",
        "not path-closed",
    )


def _cmd_check_brz_u(args: argparse.Namespace) -> int:
    found = gen_det_u_witness(_load_bta(args.automaton), budget=args.budget)
    if found is None:
        print("determinization is minimal")
        return 0
    print("determinization is not minimal")
    if args.witness:
        q, m, s1, s2 = found
        print(
            f"witness: state {q} separates subsets {subset_name(s1)} and "
            f"{subset_name(s2)} merged into {m}"
        )
    return 1


def _cmd_check_brz_d(args: argparse.Namespace) -> int:
    a = _load_bta(args.automaton)
    minimal, trimmed = _check_gen_det_d(a, args.budget)
    if trimmed:
        print("note: unreachable states are removed before checking", file=sys.stderr)
    return _verdict(
        minimal,
        "co-determinization is minimal",
        "co-determinization is not minimal",
    )


def _print_keyed_classes(groups: dict[frozenset[str], tuple]) -> int:
    lines = [
        subset_name(key) + ": " + " ".join(format_term(t) for t in members)
        for key, members in groups.items()
    ]
    for line in sorted(lines):
        print(line)
    return 0


def _cmd_classes(args: argparse.Namespace) -> int:
    congruence = bta_congruence_up if args.command == "classes-up" else bta_congruence_down
    return _print_keyed_classes(
        congruence(_load_bta(args.automaton), args.height, budget=args.budget)
    )


def _cmd_language_upto(args: argparse.Namespace) -> int:
    for t in sorted(language_upto(_load_bta(args.automaton), args.height, budget=args.budget)):
        print(format_term(t))
    return 0


def _cmd_oracle_classes(args: argparse.Namespace) -> int:
    a = _load_bta(args.automaton)
    if args.command == "oracle-classes-up":
        classes = nerode_classes_up(a, args.height, args.context_height, budget=args.budget)
    else:
        classes = nerode_classes_down(a, args.height, args.tree_height, budget=args.budget)
    for members in classes:
        print(" ".join(format_term(t) for t in members))
    return 0


def _cmd_enumerate(args: argparse.Namespace) -> int:
    alphabet = _load(args.automaton).alphabet
    items = (
        enumerate_contexts(alphabet, args.height, args.budget)
        if args.contexts
        else enumerate_trees(alphabet, args.height, args.budget)
    )
    for t in items:
        print(format_term(t))
    return 0


class _Parser(argparse.ArgumentParser):
    """Raises usage errors as TreecaError, so they exit like every other
    failure: status 2 and one error line."""

    def error(self, message: str) -> NoReturn:
        raise TreecaError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="treeca",
        description="Transform, minimize, compare, and probe ranked tree automata.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="verb")

    def add(
        name: str,
        func: Callable[[argparse.Namespace], int],
        help_text: str,
        *,
        files: int = 1,
        output: bool = False,
        budget: int | None = None,
    ) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        if files == 1:
            p.add_argument("automaton", help="automaton file")
        else:
            p.add_argument("left", help="first automaton file")
            p.add_argument("right", help="second automaton file")
        if output:
            p.add_argument("-o", "--output", help="write the result here instead of stdout")
        if budget is not None:
            p.add_argument(
                "--budget",
                type=int,
                default=budget,
                help=f"cap on constructed or enumerated items (default {budget})",
            )
        p.set_defaults(func=func)
        return p

    states_help = "restrict to these states (default depends on the verb)"

    add("determinize", _cmd_determinize, "subset-construct a deterministic automaton",
        output=True, budget=DEFAULT_STATE_BUDGET)
    p = add("codeterminize", _cmd_codeterminize, "build the co-deterministic automaton",
            output=True, budget=DEFAULT_STATE_BUDGET)
    p.add_argument("--no-pretrim", action="store_true",
                   help="keep unreachable states instead of removing them first")
    add("reverse", _cmd_reverse, "flip between bottom-up and top-down form", output=True)
    add("complete", _cmd_complete, "add a rejecting sink to a deterministic automaton",
        output=True)
    add("tdeterminize", _cmd_tdeterminize, "determinize a top-down automaton",
        output=True, budget=DEFAULT_STATE_BUDGET)
    p = add("minimize", _cmd_minimize, "minimal deterministic automaton",
            output=True, budget=DEFAULT_STATE_BUDGET)
    p.add_argument("--strip-dead", action="store_true",
                   help="drop the rejecting sink class from the result")
    add("min-codet", _cmd_min_codet, "minimal co-deterministic automaton (path-closed only)",
        output=True, budget=DEFAULT_STATE_BUDGET)
    add("brzozowski", _cmd_brzozowski, "double-reversal minimization (path-closed only)",
        output=True, budget=DEFAULT_STATE_BUDGET)
    add("canonical", _cmd_canonical, "canonical renaming of a deterministic automaton",
        output=True)
    add("equiv", _cmd_equiv, "decide language equivalence", files=2,
        budget=DEFAULT_STATE_BUDGET)
    add("isomorphic", _cmd_isomorphic, "decide isomorphism", files=2)
    p = add("member", _cmd_member, "decide membership of a tree")
    p.add_argument("-t", "--term", required=True, help="tree in term syntax")
    p = add("post", _cmd_post, "states a tree evaluates to")
    p.add_argument("-t", "--term", required=True, help="tree in term syntax")
    p.add_argument("--states", nargs="+", help=states_help)
    p = add("pre", _cmd_pre, "states a context pulls back from the target set")
    p.add_argument("-c", "--context", required=True, help="context in term syntax")
    p.add_argument("--states", nargs="+", help=states_help)
    p = add("wpre", _cmd_wpre, "weak preimage of a context")
    p.add_argument("-c", "--context", required=True, help="context in term syntax")
    p.add_argument("--states", nargs="+", help=states_help)
    p = add("rtp-equiv", _cmd_rtp_equiv, "decide root-to-pivot equivalence of two contexts")
    p.add_argument("-c", "--context", action="append", required=True,
                   help="context in term syntax (give twice)")
    p.add_argument("--states", nargs="+", help=states_help)
    add("is-path-closed", _cmd_is_path_closed, "decide path-closedness of the language",
        budget=DEFAULT_STATE_BUDGET)
    p = add("check-brz-u", _cmd_check_brz_u,
            "check that determinization is already minimal",
            budget=DEFAULT_STATE_BUDGET)
    p.add_argument("--witness", action="store_true",
                   help="on failure, print two merged state subsets")
    add("check-brz-d", _cmd_check_brz_d,
        "check that co-determinization is already minimal (path-closed only)",
        budget=DEFAULT_STATE_BUDGET)
    p = add("classes-up", _cmd_classes, "group bounded trees by their state set",
            budget=DEFAULT_ENUM_BUDGET)
    p.add_argument("--height", type=int, required=True, help="maximum tree height")
    p = add("classes-down", _cmd_classes, "group bounded contexts by their pre",
            budget=DEFAULT_ENUM_BUDGET)
    p.add_argument("--height", type=int, required=True, help="maximum context height")
    p = add("language-upto", _cmd_language_upto, "list accepted trees up to a height",
            budget=DEFAULT_ENUM_BUDGET)
    p.add_argument("--height", type=int, required=True, help="maximum tree height")
    p = add("oracle-classes-up", _cmd_oracle_classes,
            "group bounded trees by observable behavior", budget=DEFAULT_ENUM_BUDGET)
    p.add_argument("--height", type=int, required=True, help="maximum tree height")
    p.add_argument("--context-height", type=int, required=True,
                   help="maximum height of probing contexts")
    p = add("oracle-classes-down", _cmd_oracle_classes,
            "group bounded contexts by observable behavior", budget=DEFAULT_ENUM_BUDGET)
    p.add_argument("--height", type=int, required=True, help="maximum context height")
    p.add_argument("--tree-height", type=int, required=True,
                   help="maximum height of probing trees")
    p = add("enumerate", _cmd_enumerate, "list trees or contexts over the alphabet",
            budget=DEFAULT_ENUM_BUDGET)
    p.add_argument("--height", type=int, required=True, help="maximum height")
    p.add_argument("--contexts", action="store_true", help="list contexts instead of trees")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except (TreecaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
