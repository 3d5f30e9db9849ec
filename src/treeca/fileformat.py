"""The line-oriented automaton file format.

    bta                          # or: tta
    alphabet and/2 or/2 T/0 F/0
    states q0 q1
    final q1                     # tta files use: initial q1
    T() -> q1
    and(q0,q1) -> q0             # tta lines are reversed: q0 -> and(q0,q1)

'#' starts a comment, blank lines are ignored, one transition per line, and
duplicate left-hand sides merge into the target set.  Synthesized state names
such as {q0,q1} are legal tokens: argument lists split on commas only at
brace depth zero.  serialize_automaton emits the canonical form (sorted
alphabet, states, and transitions), so serialize(parse(x)) is a fixpoint,
and the parser reads a rule line in exactly that form with one regex match.
"""

from __future__ import annotations

import re

from .errors import ParseError
from .automata import Bta, Tta, is_state_name, reverse_bta, reverse_tta
from .trees import RankedAlphabet

_ALPHA_ENTRY_RE = re.compile(r"([A-Za-z0-9_]+)/(\d+)$")
_WORD_RE = re.compile(r"\S+")

# A rule line as serialize_automaton writes it: no comment, no whitespace but
# one space each side of the arrow, a first word that is no header keyword,
# and brace-flat arguments.  The groups are the symbol, the argument body
# (None without parentheses) and the state, in line order.
_PATTERN = r"([A-Za-z0-9_]+)(?:\(([^\s#{}]*(?:\{[^\s#{}]*\}[^\s#{}]*)*)\))?"
_NOT_A_HEADER = r"(?!(?:alphabet|states|final|initial) )"
_RULE_RE = {
    "bta": re.compile(_NOT_A_HEADER + _PATTERN + r" -> ([^\s#]+)"),
    "tta": re.compile(_NOT_A_HEADER + r"([^\s#]+) -> " + _PATTERN),
}
_OUTER_COMMA_RE = re.compile(r",(?![^{]*\})")  # brace depth zero, in a brace-flat body


def _split_args(body: str, lineno: int, col0: int) -> list[str]:
    """Split a parenthesized argument body on brace-depth-zero commas,
    reporting unbalanced braces where the scan finds them."""
    args: list[str] = []
    depth = 0
    cur = ""
    for i, ch in enumerate(body):
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
            if depth < 0:
                raise ParseError("unbalanced '}' in state name", lineno, col0 + i + 1)
        if ch == "," and depth == 0:
            args.append(cur)
            cur = ""
        else:
            cur += ch
    if depth != 0:
        raise ParseError("unbalanced '{' in state name", lineno, col0 + len(body))
    if cur or args:
        args.append(cur)
    return [a.strip() for a in args]


def _parse_pattern(text: str, lineno: int, col0: int) -> tuple[str, tuple[str, ...]]:
    """Parse ``sym(arg,...)`` or a bare nullary ``sym``."""
    text = text.strip()
    open_at = text.find("(")
    if open_at < 0:
        return text, ()
    if not text.endswith(")"):
        raise ParseError("expected ')' to close the argument list", lineno, col0 + len(text))
    sym = text[:open_at].strip()
    body = text[open_at + 1 : -1]
    if not body.strip():
        return sym, ()
    return sym, tuple(_split_args(body, lineno, col0 + open_at + 1))


class _Decls:
    def __init__(self) -> None:
        self.alphabet: RankedAlphabet | None = None
        self.arities: dict[str, int] = {}
        self.states: set[str] | None = None
        self.marked: list[str] | None = None  # final (bta) or initial (tta)


def _check_symbol(sym: str, args: tuple[str, ...], d: _Decls, lineno: int, col: int) -> None:
    assert d.states is not None
    want = d.arities.get(sym)
    if want != len(args):
        if want is None:
            raise ParseError(f"unknown symbol {sym!r}", lineno, col)
        raise ParseError(
            f"symbol {sym!r} has arity {want}, got {len(args)} arguments", lineno, col
        )
    if not d.states.issuperset(args):
        q = next(q for q in args if q not in d.states)
        raise ParseError(f"undeclared state {q!r}", lineno, col)


def _words(line: str) -> list[tuple[int, str]]:
    """The words after a declaration line's keyword, with their columns."""
    return [(m.start() + 1, m[0]) for m in _WORD_RE.finditer(line)][1:]


def parse_automaton(text: str) -> Bta | Tta:
    """Parse an automaton file; raises ParseError with line/column on failure.

    Each rule is checked once, here.  A tta line is stored reversed, so both
    headers fill one rule dict and build the automaton unchecked.  After the
    first rule line, a line in canonical form is read by one regex match and
    a few lookups; any other line, or one that fails a check, takes the
    general route, which words every error.
    """
    kind: str | None = None
    d = _Decls()
    rules: dict[tuple[str, tuple[str, ...]], frozenset[str]] = {}
    rule_re = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        if rule_re is not None:
            m = rule_re.fullmatch(raw)
            if m is not None:
                sym, body, q = m.groups() if bottom_up else m.group(2, 3, 1)
                if not body:
                    args: tuple[str, ...] = ()
                elif "{" in body:
                    args = tuple(_OUTER_COMMA_RE.split(body))
                else:
                    args = tuple(body.split(","))
                if arities.get(sym) == len(args) and q in one and states.issuperset(args):
                    key = (sym, args)
                    got = rules.get(key)
                    rules[key] = one[q] if got is None else got | one[q]
                    continue
        line = raw.partition("#")[0].rstrip()
        if not line:
            continue
        words = line.split()
        head = words[0]

        if kind is None:
            if head not in ("bta", "tta") or len(words) != 1:
                raise ParseError("missing header: the first line must be 'bta' or 'tta'", lineno, 1)
            kind = head
            continue

        if head == "alphabet":
            if d.alphabet is not None:
                raise ParseError("duplicate alphabet line", lineno, 1)
            entries: dict[str, int] = {}
            for col, w in _words(line):
                m = _ALPHA_ENTRY_RE.fullmatch(w)
                if not m:
                    raise ParseError(f"bad alphabet entry {w!r}, expected name/arity", lineno, col)
                name, arity = m.group(1), int(m.group(2))
                if name in entries:
                    raise ParseError(f"duplicate alphabet entry {name!r}", lineno, col)
                entries[name] = arity
            try:
                d.alphabet = RankedAlphabet(entries)
                d.arities = entries
            except ValueError as e:
                raise ParseError(str(e), lineno, 1) from None
            continue

        if head == "states":
            if d.states is not None:
                raise ParseError("duplicate states line", lineno, 1)
            for col, q in _words(line):
                if not is_state_name(q):
                    raise ParseError(f"illegal state name {q!r}", lineno, col)
            d.states = set(words[1:])
            one = {q: frozenset((q,)) for q in d.states}  # shared one-target sets
            continue

        if head in ("final", "initial"):
            want = "final" if kind == "bta" else "initial"
            if head != want:
                raise ParseError(f"a {kind} file declares '{want}', not {head!r}", lineno, 1)
            if d.marked is not None:
                raise ParseError(f"duplicate {head} line", lineno, 1)
            d.marked = words[1:]
            continue

        # Anything else must be a transition line.
        if "->" not in line:
            raise ParseError(f"expected a transition line, got {line.strip()!r}", lineno, 1)
        if d.alphabet is None or d.states is None or d.marked is None:
            raise ParseError(
                "transitions must come after the alphabet, states, and "
                + ("final" if kind == "bta" else "initial")
                + " lines",
                lineno,
                1,
            )
        # The declarations are complete: later lines may take the fast path.
        rule_re, arities, states, bottom_up = _RULE_RE[kind], d.arities, d.states, kind == "bta"
        lhs, _, rhs = line.partition("->")
        lhs, rhs = lhs.strip(), rhs.strip()
        if not lhs or not rhs:
            raise ParseError("malformed transition, expected 'lhs -> rhs'", lineno, 1)
        lhs_col, rhs_col = len(line) - len(line.lstrip()) + 1, len(line) - len(rhs) + 1
        if kind == "bta":
            sym, args = _parse_pattern(lhs, lineno, lhs_col)
            _check_symbol(sym, args, d, lineno, lhs_col)
            if rhs not in d.states:
                raise ParseError(f"undeclared state {rhs!r}", lineno, rhs_col)
            q = rhs
        else:
            if lhs not in d.states:
                raise ParseError(f"undeclared state {lhs!r}", lineno, lhs_col)
            sym, args = _parse_pattern(rhs, lineno, rhs_col)
            _check_symbol(sym, args, d, lineno, rhs_col)
            q = lhs
        key = (sym, args)
        got = rules.get(key)
        rules[key] = one[q] if got is None else got | one[q]

    if kind is None:
        raise ParseError("missing header: the first line must be 'bta' or 'tta'", 1, 1)
    lastline = text.count("\n") + 1
    if d.alphabet is None:
        raise ParseError("missing alphabet line", lastline, 1)
    if d.states is None:
        raise ParseError("missing states line", lastline, 1)
    if d.marked is None:
        raise ParseError("missing final line" if kind == "bta" else "missing initial line", lastline, 1)
    for q in d.marked:
        if q not in d.states:
            raise ParseError(f"undeclared state {q!r} in {'final' if kind == 'bta' else 'initial'} line", lastline, 1)

    a = Bta._of(d.alphabet, frozenset(d.states), rules, frozenset(d.marked))
    return a if kind == "bta" else reverse_bta(a)


def serialize_automaton(a: Bta | Tta) -> str:
    """Render an automaton in canonical form: sorted alphabet, states, transitions.

    Both headers write the same (symbol, arguments, state) rules: a bta
    sorted by symbol, a tta by state.
    """
    bottom_up = isinstance(a, Bta)
    b = a if bottom_up else reverse_tta(a)
    out = [
        "bta" if bottom_up else "tta",
        "alphabet " + " ".join(f"{n}/{b.alphabet.arity(n)}" for n in b.alphabet.symbols),
        ("states " + " ".join(sorted(b.states))).rstrip(),
        (("final " if bottom_up else "initial ") + " ".join(sorted(b.final))).rstrip(),
    ]
    rules = [(sym, args, q) for (sym, args), targets in b.delta.items() for q in targets]
    if bottom_up:
        out += [f"{sym}({','.join(args)}) -> {q}" for sym, args, q in sorted(rules)]
    else:
        rules.sort(key=lambda r: (r[2], r[0], r[1]))
        out += [f"{q} -> {sym}({','.join(args)})" for sym, args, q in rules]
    return "\n".join(out) + "\n"
