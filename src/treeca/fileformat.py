"""The line-oriented automaton file format.

    bta                          # or: tta
    alphabet and/2 or/2 T/0 F/0
    states q0 q1
    final q1                     # tta files use: initial q1
    T() -> q1
    and(q0,q1) -> q0             # tta lines are reversed: q0 -> and(q0,q1)

The header comes first, then the alphabet, states and final (or initial)
lines in any order; every later line is a rule, so states and symbols may
share names with the keywords.  '#' starts a comment, blank lines are
ignored, one transition per line, and duplicate left-hand sides merge into
the target set.  Synthesized state names such as {q0,q1} are legal tokens:
argument lists split on commas only at brace depth zero.
serialize_automaton emits the canonical form (sorted alphabet, states, and
transitions), so serialize(parse(x)) is a fixpoint.  A bta with a total
numbered view (automata.Numbered), as every determinization and the total
results of minimization and canonical renaming have, is written straight
from the view: with the state names ranked once, each symbol's argument
tuples in sorted order are the product of the ranks, so no rule is named or
sorted.  The parser reads such a file back the same way: when a bta has
exactly the number of rule lines of a total automaton, each line is
checked against the head the writer gives its argument tuple
(_rule_lines) and its target looked up by name, filling the view's tables
with no rule named.  A file that differs anywhere (another order, a comment
or blank line among the rules, stray whitespace, a bare nullary symbol, a
missing or an extra line) is read line by line instead.  There the parser
splits a rule line at " -> " and "(" and accepts it when the lookups that
follow succeed: a declared symbol with that many arguments and declared
states, which no line with a comment or stray whitespace can pass.
"""

from __future__ import annotations

import itertools
import re
from collections.abc import Iterable, Iterator

from .errors import ParseError
from .automata import Bta, Numbered, Tta, is_state_name, reverse_bta, reverse_tta
from .trees import RankedAlphabet

_ALPHA_ENTRY_RE = re.compile(r"([A-Za-z0-9_]+)/(\d+)$")
_WORD_RE = re.compile(r"\S+")

# A comma at brace depth zero in a brace-flat body.  In a nested body it may
# split inside braces, but then some piece has unbalanced braces, so it is
# no declared state and the line goes to _rule.
_OUTER_COMMA_RE = re.compile(r",(?![^{]*\})")


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


def _words(line: str) -> list[tuple[int, str]]:
    """The words after a declaration line's keyword, with their columns."""
    return [(m.start() + 1, m[0]) for m in _WORD_RE.finditer(line)][1:]


def _declarations(
    lines: Iterator[tuple[int, str]], lastline: int
) -> tuple[str, RankedAlphabet, set[str], list[str], int]:
    """Read the header and the alphabet, states and final (or initial) lines,
    in any order, from lines, stopping after the last of the three, whose
    line number comes last in the result.  Each final (or initial) state
    must be declared; an undeclared one is reported where it stands."""
    kind: str | None = None
    alphabet: RankedAlphabet | None = None
    states: set[str] | None = None
    marked: list[tuple[int, str]] | None = None  # words of the final or initial line
    marked_at = 0
    for lineno, raw in lines:
        line = raw.partition("#")[0].rstrip()
        if not line:
            continue
        words = line.split()
        head = words[0]
        if kind is None:
            if head not in ("bta", "tta") or len(words) != 1:
                raise ParseError("missing header: the first line must be 'bta' or 'tta'", lineno, 1)
            kind, want = head, "final" if head == "bta" else "initial"
            continue
        if head == "alphabet":
            if alphabet is not None:
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
                alphabet = RankedAlphabet(entries)
            except ValueError as e:
                raise ParseError(str(e), lineno, 1) from None
        elif head == "states":
            if states is not None:
                raise ParseError("duplicate states line", lineno, 1)
            for col, q in _words(line):
                if not is_state_name(q):
                    raise ParseError(f"illegal state name {q!r}", lineno, col)
            states = set(words[1:])
        elif head in ("final", "initial"):
            if head != want:
                raise ParseError(f"a {kind} file declares '{want}', not {head!r}", lineno, 1)
            if marked is not None:
                raise ParseError(f"duplicate {head} line", lineno, 1)
            marked, marked_at = _words(line), lineno
        elif "->" not in line:
            raise ParseError(f"expected a transition line, got {line.strip()!r}", lineno, 1)
        else:
            raise ParseError(
                f"transitions must come after the alphabet, states, and {want} lines", lineno, 1
            )
        if alphabet is not None and states is not None and marked is not None:
            for col, q in marked:
                if q not in states:
                    raise ParseError(f"undeclared state {q!r} in {want} line", marked_at, col)
            return kind, alphabet, states, [q for _, q in marked], lineno
    if kind is None:
        raise ParseError("missing header: the first line must be 'bta' or 'tta'", 1, 1)
    missing = "alphabet" if alphabet is None else "states" if states is None else want
    raise ParseError(f"missing {missing} line", lastline, 1)


def _rule(
    line: str, lineno: int, bottom_up: bool, arities: dict[str, int], states: set[str]
) -> tuple[str, tuple[str, ...], str]:
    """Read a rule line in any layout into (symbol, arguments, state), or
    raise a worded ParseError about the first fault from the left."""
    if "->" not in line:
        raise ParseError(f"expected a transition line, got {line.strip()!r}", lineno, 1)
    lhs, _, rhs = line.partition("->")
    lhs, rhs = lhs.strip(), rhs.strip()
    if not lhs or not rhs:
        raise ParseError("malformed transition, expected 'lhs -> rhs'", lineno, 1)
    lhs_col, rhs_col = len(line) - len(line.lstrip()) + 1, len(line) - len(rhs) + 1
    if bottom_up:
        pattern, col, q, q_col = lhs, lhs_col, rhs, rhs_col
    elif lhs not in states:
        raise ParseError(f"undeclared state {lhs!r}", lineno, lhs_col)
    else:
        pattern, col, q, q_col = rhs, rhs_col, lhs, lhs_col
    sym, args = _parse_pattern(pattern, lineno, col)
    arity = arities.get(sym)
    if arity is None:
        raise ParseError(f"unknown symbol {sym!r}", lineno, col)
    if arity != len(args):
        raise ParseError(f"symbol {sym!r} has arity {arity}, got {len(args)} arguments", lineno, col)
    for name, at in [*((a, col) for a in args), (q, q_col)]:
        if name not in states:
            raise ParseError(f"undeclared state {name!r}", lineno, at)
    return sym, args, q


def parse_automaton(text: str) -> Bta | Tta:
    """Parse an automaton file; raises ParseError with line/column on failure.

    The header and the three declaration lines come first; every later line
    is a rule line, whatever its first word, so states and symbols may be
    named after the keywords.  A bta whose rule lines are exactly those the
    writer gives a total deterministic automaton is read as a table
    (_table_view) and returned backed by that view, its rules unnamed.  Any
    other file is read line by line, and each rule is checked once, here.
    A tta line is stored reversed, so both headers fill one rule dict and
    build the automaton unchecked.  A rule line in canonical form is read by
    two partitions, a split of the argument body and a few lookups; any
    other line, or one that fails a lookup, goes to _rule, which words every
    error.
    """
    rows = text.splitlines()
    kind, alphabet, states, marked, start = _declarations(
        enumerate(rows, start=1), text.count("\n") + 1
    )
    bottom_up, arities = kind == "bta", alphabet.entries
    if bottom_up:
        view = _table_view(rows, start, alphabet, states, marked)
        if view is not None:
            return view.named()
    one = {q: frozenset((q,)) for q in states}  # shared one-target sets
    rules: dict[tuple[str, tuple[str, ...]], frozenset[str]] = {}
    for lineno, raw in enumerate(itertools.islice(rows, start, None), start=start + 1):
        left, _, right = raw.partition(" -> ")
        pattern, q = (left, right) if bottom_up else (right, left)
        sym, paren, body = pattern.partition("(")
        if paren and not body.endswith(")"):
            args: tuple[str, ...] | None = None
        else:
            body = body[:-1]
            if not body:
                args = ()
            elif "{" in body:
                args = tuple(_OUTER_COMMA_RE.split(body))
            else:
                args = tuple(body.split(","))
        if (args is None or arities.get(sym) != len(args) or q not in one
                or not states.issuperset(args)):
            line = raw.partition("#")[0].rstrip()
            if not line:
                continue
            sym, args, q = _rule(line, lineno, bottom_up, arities, states)
        key = (sym, args)
        got = rules.get(key)
        rules[key] = one[q] if got is None else got | one[q]
    a = Bta._of(alphabet, frozenset(states), rules, frozenset(marked))
    return a if bottom_up else reverse_bta(a)


def _table_view(
    rows: list[str], start: int, alphabet: RankedAlphabet, states: set[str], marked: list[str]
) -> Numbered | None:
    """The total view that the bta rule lines rows[start:] spell, when they
    are the lines _view_rules writes: states numbered in sorted name order,
    as Bta.numbered numbers them, and per symbol one line for each argument
    tuple of sorted names, in product order, each line the expected head
    and a declared target.  None when the line count is not that of a total
    automaton, or at the first line that differs."""
    n = len(states)
    if len(rows) - start != sum(n**k for k in alphabet.entries.values()):
        return None
    names = sorted(states)
    index = {q: i for i, q in enumerate(names)}
    lines = itertools.islice(rows, start, None)
    tables: dict[str, list[int] | dict[int, int]] = {}
    for sym in alphabet.symbols:
        table = []
        heads = _rule_lines(sym, names, alphabet.arity(sym), itertools.repeat(""))
        for head, line in zip(heads, lines):
            q = index.get(line[len(head):]) if line.startswith(head) else None
            if q is None:
                return None
            table.append(q)
        tables[sym] = table
    return Numbered(alphabet, names, tables, frozenset(map(index.__getitem__, marked)), True)


def serialize_automaton(a: Bta | Tta) -> str:
    """Render an automaton in canonical form: sorted alphabet, states, transitions.

    Both headers write the same (symbol, arguments, state) rules: a bta
    sorted by symbol, a tta by state.  A bta with a total numbered view is
    written from the view (_view_rules), in that same order with no sort;
    any other automaton has its rules listed and sorted.
    """
    bottom_up = isinstance(a, Bta)
    b = a if bottom_up else reverse_tta(a)
    out = [
        "bta" if bottom_up else "tta",
        "alphabet " + " ".join(f"{n}/{b.alphabet.arity(n)}" for n in b.alphabet.symbols),
        ("states " + " ".join(sorted(b.states))).rstrip(),
        (("final " if bottom_up else "initial ") + " ".join(sorted(b.final))).rstrip(),
    ]
    view = _total_view(b) if bottom_up else None
    if view is not None:
        out += _view_rules(view)
    else:
        rules = [(sym, args, q) for (sym, args), targets in b.delta.items() for q in targets]
        if bottom_up:
            out += [f"{sym}({','.join(args)}) -> {q}" for sym, args, q in sorted(rules)]
        else:
            rules.sort(key=lambda r: (r[2], r[0], r[1]))
            out += [f"{q} -> {sym}({','.join(args)})" for sym, args, q in rules]
    return "\n".join(out) + "\n"


def _total_view(a: Bta) -> Numbered | None:
    """a's total numbered view: the one it holds, or, when it holds none and
    has a rule for every argument tuple, the one Bta.numbered builds (None
    if some rule has two targets)."""
    view = a._view
    if view is None:
        n = len(a.states)
        if len(a.delta) == sum(n**k for k in a.alphabet.entries.values()):
            view = a.numbered
    return view if view and view.total else None


def _view_rules(v: Numbered) -> Iterator[str]:
    """The rule lines of a total view in sorted order.  The state numbers
    are ranked by name once; per symbol, the argument tuples of names in
    sorted order are the product of the ranked numbers in order."""
    names = v.names
    ranked = sorted(range(len(names)), key=names.__getitem__)
    sorted_names = [names[i] for i in ranked]
    for sym in v.alphabet.symbols:
        targets = map(names.__getitem__, v.targets(sym, ranked))
        yield from _rule_lines(sym, sorted_names, v.alphabet.arity(sym), targets)


def _rule_lines(sym: str, names: list[str], k: int, targets: Iterable[str]) -> Iterator[str]:
    """The canonical rule lines of sym, one per argument tuple over names in
    product order, each with the next of targets: 'f(q0,q1) -> q2'.  With
    empty targets they are the heads the table route checks lines against."""
    args = map(",".join, itertools.product(names, repeat=k))
    return (f"{sym}({arg}) -> {q}" for arg, q in zip(args, targets))
