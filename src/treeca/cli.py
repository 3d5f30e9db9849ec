"""Batch command line interface: one verb per operation.

Transformations read an automaton file and write the result to stdout or to
the file named by -o.  Predicates print a one-line verdict and exit with 0
when the answer is yes, 1 when it is no; any error, running out of memory
or the recursion limit included, exits with 2 and one 'error:' line on
stderr, and an interrupt (SIGINT) exits with 130 and the one line
'error: interrupted'.  State set queries print one sorted, space-separated
line.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from importlib import import_module
from pathlib import Path
from typing import Callable, Iterable, NoReturn

from .automata import Bta, Tta, accepts, post_tree, reverse_bta, reverse_tta, subset_name, wpre
from .errors import DEFAULT_STATE_BUDGET, TreecaError
from .fileformat import parse_automaton, serialize_automaton
from .trees import (
    DEFAULT_ENUM_BUDGET,
    enumerate_contexts,
    enumerate_trees,
    format_term,
    parse_context,
    parse_term,
)


def _later(module: str, name: str) -> Callable:
    """A stand-in for treeca.<module>.<name> that imports the module when it
    is first called, so a command loads only the modules its verb runs.
    Every verb needs the four modules imported above to read its file.  The
    stand-ins stay module-level names of treeca.cli, so a caller that
    rebinds one of them (a tracer, a test's mock) still sees every call."""

    def call(*args, **kwargs):
        return getattr(import_module(f"{__package__}.{module}"), name)(*args, **kwargs)

    return call


bta_congruence_down = _later("analysis", "bta_congruence_down")
bta_congruence_up = _later("analysis", "bta_congruence_up")
pre_context = _later("analysis", "pre_context")
root_to_pivot_equiv = _later("analysis", "root_to_pivot_equiv")
_check_gen_det_d = _later("minimize", "_check_gen_det_d")
brzozowski = _later("minimize", "brzozowski")
canonical_form = _later("minimize", "canonical_form")
gen_det_u_witness = _later("minimize", "gen_det_u_witness")
is_path_closed = _later("minimize", "is_path_closed")
isomorphic = _later("minimize", "isomorphic")
min_codbta = _later("minimize", "min_codbta")
minimize_bta = _later("minimize", "minimize_bta")
separating_tree = _later("minimize", "separating_tree")
language_upto = _later("oracle", "language_upto")
nerode_classes_down = _later("oracle", "nerode_classes_down")
nerode_classes_up = _later("oracle", "nerode_classes_up")
codeterminize = _later("transforms", "codeterminize")
complete = _later("transforms", "complete")
determinize = _later("transforms", "determinize")
tta_determinize = _later("transforms", "tta_determinize")


def _load(path: str) -> Bta | Tta:
    try:
        text = Path(path).read_text(encoding="utf-8").removeprefix("\ufeff")
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


# Arguments as (flags..., keyword arguments of add_argument).
_FILE = ("automaton", {"help": "automaton file"})
_FILES = (("left", {"help": "first automaton file"}),
          ("right", {"help": "second automaton file"}))
_OUTPUT = ("-o", "--output", {"help": "write the result here instead of stdout"})
_TERM = ("-t", "--term", {"required": True, "help": "tree in term syntax"})
_CONTEXT = ("-c", "--context", {"required": True, "help": "context in term syntax"})
_STATES = ("--states", {"nargs": "+",
                        "help": "restrict to these states (default depends on the verb)"})


def _budget(default: int) -> tuple:
    return ("--budget", {"type": int, "default": default,
                         "help": f"cap on constructed or enumerated items (default {default})"})


def _height(flag: str, help_text: str) -> tuple:
    return (flag, {"type": int, "required": True, "help": help_text})


def _switch(flag: str, help_text: str) -> tuple:
    return (flag, {"action": "store_true", "help": help_text})


_STATE_BUDGET = _budget(DEFAULT_STATE_BUDGET)
_ENUM_BUDGET = _budget(DEFAULT_ENUM_BUDGET)

# (verb, handler, help line, arguments in the order the verb's help lists them)
_VERBS = (
    ("determinize", _cmd_determinize, "subset-construct a deterministic automaton",
     (_FILE, _OUTPUT, _STATE_BUDGET)),
    ("codeterminize", _cmd_codeterminize, "build the co-deterministic automaton",
     (_FILE, _OUTPUT, _STATE_BUDGET,
      _switch("--no-pretrim", "keep unreachable states instead of removing them first"))),
    ("reverse", _cmd_reverse, "flip between bottom-up and top-down form", (_FILE, _OUTPUT)),
    ("complete", _cmd_complete, "add a rejecting sink to a deterministic automaton",
     (_FILE, _OUTPUT)),
    ("tdeterminize", _cmd_tdeterminize, "determinize a top-down automaton",
     (_FILE, _OUTPUT, _STATE_BUDGET)),
    ("minimize", _cmd_minimize, "minimal deterministic automaton",
     (_FILE, _OUTPUT, _STATE_BUDGET,
      _switch("--strip-dead", "drop the rejecting sink class from the result"))),
    ("min-codet", _cmd_min_codet, "minimal co-deterministic automaton (path-closed only)",
     (_FILE, _OUTPUT, _STATE_BUDGET)),
    ("brzozowski", _cmd_brzozowski, "double-reversal minimization (path-closed only)",
     (_FILE, _OUTPUT, _STATE_BUDGET)),
    ("canonical", _cmd_canonical, "canonical renaming of a deterministic automaton",
     (_FILE, _OUTPUT)),
    ("equiv", _cmd_equiv, "decide language equivalence", (*_FILES, _STATE_BUDGET)),
    ("isomorphic", _cmd_isomorphic, "decide isomorphism", _FILES),
    ("member", _cmd_member, "decide membership of a tree", (_FILE, _TERM)),
    ("post", _cmd_post, "states a tree evaluates to", (_FILE, _TERM, _STATES)),
    ("pre", _cmd_pre, "states a context pulls back from the target set",
     (_FILE, _CONTEXT, _STATES)),
    ("wpre", _cmd_wpre, "weak preimage of a context", (_FILE, _CONTEXT, _STATES)),
    ("rtp-equiv", _cmd_rtp_equiv, "decide root-to-pivot equivalence of two contexts",
     (_FILE, ("-c", "--context", {"action": "append", "required": True,
                                  "help": "context in term syntax (give twice)"}), _STATES)),
    ("is-path-closed", _cmd_is_path_closed, "decide path-closedness of the language",
     (_FILE, _STATE_BUDGET)),
    ("check-brz-u", _cmd_check_brz_u, "check that determinization is already minimal",
     (_FILE, _STATE_BUDGET,
      _switch("--witness", "on failure, print two merged state subsets"))),
    ("check-brz-d", _cmd_check_brz_d,
     "check that co-determinization is already minimal (path-closed only)",
     (_FILE, _STATE_BUDGET)),
    ("classes-up", _cmd_classes, "group bounded trees by their state set",
     (_FILE, _ENUM_BUDGET, _height("--height", "maximum tree height"))),
    ("classes-down", _cmd_classes, "group bounded contexts by their pre",
     (_FILE, _ENUM_BUDGET, _height("--height", "maximum context height"))),
    ("language-upto", _cmd_language_upto, "list accepted trees up to a height",
     (_FILE, _ENUM_BUDGET, _height("--height", "maximum tree height"))),
    ("oracle-classes-up", _cmd_oracle_classes, "group bounded trees by observable behavior",
     (_FILE, _ENUM_BUDGET, _height("--height", "maximum tree height"),
      _height("--context-height", "maximum height of probing contexts"))),
    ("oracle-classes-down", _cmd_oracle_classes,
     "group bounded contexts by observable behavior",
     (_FILE, _ENUM_BUDGET, _height("--height", "maximum context height"),
      _height("--tree-height", "maximum height of probing trees"))),
    ("enumerate", _cmd_enumerate, "list trees or contexts over the alphabet",
     (_FILE, _ENUM_BUDGET, _height("--height", "maximum height"),
      _switch("--contexts", "list contexts instead of trees"))),
)


def _build_parser(verb: str | None = None) -> argparse.ArgumentParser:
    """The parser with the subcommand of verb alone when verb names one, else
    with every subcommand.  A subcommand's help, usage errors and parse do
    not depend on its siblings, so a command builds only its own verb; the
    full parser serves -h, no verb and an unknown verb."""
    parser = _Parser(
        prog="treeca",
        description="Transform, minimize, compare, and probe ranked tree automata.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="verb")
    for name, func, help_text, arguments in [v for v in _VERBS if v[0] == verb] or _VERBS:
        p = sub.add_parser(name, help=help_text)
        for *flags, options in arguments:
            p.add_argument(*flags, **options)
        p.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    code = 2
    try:
        args = _build_parser(argv[0] if argv else None).parse_args(argv)
        return args.func(args)
    except (TreecaError, OSError) as exc:
        message = str(exc)
    except MemoryError:
        message = "out of memory"
    except RecursionError:
        message = "input nested too deeply for the recursion limit"
    except KeyboardInterrupt:
        message, code = "interrupted", 130
    # Printed after the handler, once the failed call's frames are freed.
    print(f"error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
