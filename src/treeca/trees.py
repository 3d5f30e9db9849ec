"""Ranked alphabets, trees, contexts, and the term syntax.

Trees are immutable values with structural equality and a total canonical
order: first by height, then by root symbol name, then by the child tuple
compared elementwise in the same order.  A context is an ordinary tree over
the alphabet extended with the reserved nullary hole symbol ``<>``, holding
exactly one hole; its address is the pivot.
"""

from __future__ import annotations

import itertools
import re
from functools import total_ordering
from typing import Iterator, Mapping, Sequence

from .errors import (
    AddressError,
    BudgetError,
    MalformedContextError,
    NotWellRankedError,
    ParseError,
)

HOLE = "<>"

DEFAULT_ENUM_BUDGET = 10**6

Address = tuple[int, ...]

_IDENT_RE = re.compile(r"[A-Za-z0-9_]+")
_TOKEN_RE = re.compile(rf"{re.escape(HOLE)}|[(),]|{_IDENT_RE.pattern}")
# A character that is neither whitespace nor in a token: none of the token
# characters, or a '<' or '>' that is not half of a hole.
_BAD_CHAR_RE = re.compile(r"[^A-Za-z0-9_(),<>\s]|<(?!>)|(?<!<)>")


class RankedAlphabet:
    """A finite map from symbol names to arities with at least one nullary symbol.

    Symbol names are nonempty strings of ASCII letters, digits, and
    underscores.  The hole name is reserved and never an entry.  Instances
    are immutable and hashable.
    """

    __slots__ = ("_entries", "_hash")

    def __init__(self, entries: Mapping[str, int]):
        checked: dict[str, int] = {}
        for name, arity in entries.items():
            if not isinstance(name, str) or not _IDENT_RE.fullmatch(name):
                raise ValueError(f"bad symbol name {name!r}: expected ASCII letters, digits, underscore")
            if not isinstance(arity, int) or arity < 0:
                raise ValueError(f"bad arity {arity!r} for symbol {name!r}")
            checked[name] = arity
        if HOLE in checked:
            raise ValueError(f"the hole symbol {HOLE!r} cannot be an alphabet entry")
        if not any(k == 0 for k in checked.values()):
            raise ValueError("alphabet needs at least one nullary symbol")
        self._entries = dict(sorted(checked.items()))
        self._hash = hash(tuple(self._entries.items()))

    def arity(self, name: str) -> int:
        try:
            return self._entries[name]
        except KeyError:
            raise KeyError(f"unknown symbol {name!r}") from None

    @property
    def symbols(self) -> tuple[str, ...]:
        return tuple(self._entries)

    @property
    def nullary(self) -> tuple[str, ...]:
        return tuple(n for n, k in self._entries.items() if k == 0)

    @property
    def entries(self) -> dict[str, int]:
        return dict(self._entries)

    def __contains__(self, name: object) -> bool:
        return name in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RankedAlphabet):
            return NotImplemented
        return self._entries == other._entries

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        inner = " ".join(f"{n}/{k}" for n, k in self._entries.items())
        return f"RankedAlphabet({inner})"


@total_ordering
class Tree:
    """An ordered, labeled finite tree.  Treat instances as immutable."""

    __slots__ = ("label", "children", "height", "_hash")

    def __init__(self, label: str, children: Sequence["Tree"] = ()):
        self.label = label
        self.children = tuple(children)
        self.height = 1 + max((c.height for c in self.children), default=0)
        self._hash = hash((label, self.children))

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Tree):
            return NotImplemented
        if self._hash != other._hash:  # settles almost every unequal pair at once
            return False
        pairs = [(self, other)]
        for u, v in pairs:
            if u is not v:
                if u._hash != v._hash or u.label != v.label or len(u.children) != len(v.children):
                    return False
                pairs += zip(u.children, v.children)
        return True

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "Tree") -> bool:
        # Canonical order: height, then root symbol name, then children,
        # decided by the first differing child pair.
        if not isinstance(other, Tree):
            return NotImplemented
        u, v = self, other
        while u is not v:
            ku, kv = (u.height, u.label, len(u.children)), (v.height, v.label, len(v.children))
            if ku != kv:
                return ku < kv
            for a, b in zip(u.children, v.children):
                if a is not b and (a._hash != b._hash or a != b):
                    u, v = a, b
                    break
            else:
                return False
        return False

    def __repr__(self) -> str:
        return format_term(self)


def _preorder(t: Tree) -> Iterator[tuple[Tree, tuple]]:
    """Yield each node of t in preorder with a link to its address.

    The root's link is (); a child's is (its 1-based index, its parent's
    link).  Links share their tails, so each step of the walk costs O(1);
    _address spells a link out.
    """
    stack: list[tuple[Tree, tuple]] = [(t, ())]
    while stack:
        node, link = stack.pop()
        yield node, link
        kids = node.children
        for i in range(len(kids), 0, -1):
            stack.append((kids[i - 1], (i, link)))


def _address(link: tuple) -> Address:
    steps: list[int] = []
    while link:
        i, link = link
        steps.append(i)
    return tuple(reversed(steps))


def iter_nodes(t: Tree) -> Iterator[tuple[Address, Tree]]:
    """Yield (address, subtree) pairs in preorder; addresses are 1-based."""
    for node, link in _preorder(t):
        yield _address(link), node


def format_address(addr: Address) -> str:
    """Render an address as dot-separated 1-based steps, the root as its own sign."""
    return "ε" if not addr else ".".join(str(i) for i in addr)


def is_well_ranked(t: Tree, alphabet: RankedAlphabet, allow_hole: bool = False) -> bool:
    """True iff every node uses an alphabet symbol with matching arity.

    With allow_hole the reserved hole counts as an extra nullary symbol, which
    is how contexts are checked.
    """
    try:
        check_well_ranked(t, alphabet, allow_hole)
    except NotWellRankedError:
        return False
    return True


def check_well_ranked(t: Tree, alphabet: RankedAlphabet, allow_hole: bool = False) -> None:
    """Raise NotWellRankedError with the offending node when the check fails."""
    arities = alphabet.entries
    if allow_hole:
        arities[HOLE] = 0
    for node, link in _preorder(t):
        want = arities.get(node.label)
        if want == len(node.children):
            continue
        where = format_address(_address(link))
        if node.label == HOLE:
            raise NotWellRankedError(f"hole at {where} is not allowed here")
        if want is None:
            raise NotWellRankedError(f"unknown symbol {node.label!r} at {where}")
        raise NotWellRankedError(
            f"symbol {node.label!r} at {where} has "
            f"{len(node.children)} children, expected {want}"
        )


def subtree(t: Tree, addr: Address) -> Tree:
    """The subtree rooted at addr."""
    node = t
    for depth, i in enumerate(addr):
        if not 1 <= i <= len(node.children):
            raise AddressError(
                f"address {format_address(addr)} leaves the tree at step {depth + 1}"
            )
        node = node.children[i - 1]
    return node


def substitute(t: Tree, addr: Address, s: Tree) -> Tree:
    """Replace the subtree of t at addr with s."""
    spine = []
    for i in addr:
        if not 1 <= i <= len(t.children):
            raise AddressError(f"address {format_address(addr)} leaves the tree")
        spine.append((t, i))
        t = t.children[i - 1]
    for node, i in reversed(spine):
        s = Tree(node.label, node.children[: i - 1] + (s,) + node.children[i:])
    return s


def puncture(t: Tree, addr: Address) -> Tree:
    """Replace the subtree at addr with a hole, turning t into a context."""
    return substitute(t, addr, Tree(HOLE))


def _holes(t: Tree) -> tuple[int, Tree | None, Address]:
    """How many hole nodes t has, and one of them with its address (None
    and () when there is none)."""
    count, hole, link = 0, None, ()
    for node, at in _preorder(t):
        if node.label == HOLE:
            count, hole, link = count + 1, node, at
    return count, hole, _address(link)


def is_context(t: Tree) -> bool:
    """True iff t contains exactly one hole node (with no children)."""
    count, hole, _ = _holes(t)
    return count == 1 and not hole.children


def pivot(x: Tree) -> Address:
    """The address of the unique hole of a context."""
    count, _, addr = _holes(x)
    if count != 1:
        raise MalformedContextError(f"expected exactly one hole, found {count}")
    return addr


def hole_height(x: Tree) -> int:
    """One plus the pivot depth: the height the hole node sits at."""
    return 1 + len(pivot(x))


def plug(x: Tree, t: Tree) -> Tree:
    """Substitute t for the hole of context x.

    When t is itself a context the result is the composed context.
    """
    return substitute(x, pivot(x), t)


Path = tuple  # alternating symbol, child index, symbol, ..., ending on a symbol


def path_language(t: Tree) -> frozenset[Path]:
    """All root-to-leaf paths of t as alternating (symbol, index, ...) tuples."""
    out = set()
    todo: list[tuple[Path, Tree]] = [((), t)]
    while todo:
        prefix, node = todo.pop()
        if not node.children:
            out.add(prefix + (node.label,))
        for i, child in enumerate(node.children, start=1):
            todo.append((prefix + (node.label, i), child))
    return frozenset(out)


def format_path(p: Path) -> str:
    return "".join(str(tok) for tok in p)


def fresh_tuples(lo: int, hi: int, k: int) -> Iterator[tuple[int, ...]]:
    """The k-tuples over range(hi) with at least one entry >= lo, in
    lexicographic order.

    Breadth-first constructions number their items in discovery order; when
    items lo..hi-1 are the new ones, these are exactly the argument tuples
    not combined before.  The tuples with an old first entry are that entry
    before each fresh (k-1)-tuple; the rest are a product.
    """
    if k == 0:
        return iter(())
    new_first = itertools.product(range(lo, hi), *[range(hi)] * (k - 1))
    if k == 1:
        return new_first
    old_first = (map((first,).__add__, fresh_tuples(lo, hi, k - 1)) for first in range(lo))
    return itertools.chain(itertools.chain.from_iterable(old_first), new_first)


def _enumerate_raw(entries: Mapping[str, int], max_height: int, budget: int) -> tuple[Tree, ...]:
    """All trees over the given arity map with height <= max_height, in canonical order."""
    names = sorted(entries)
    out: list[Tree] = []
    lo = 0  # out[lo:] holds the trees of the greatest height so far
    for h in range(1, max_height + 1):
        level: list[Tree] = []
        for n in names:
            k = entries[n]
            # A nullary symbol has one argument tuple, the empty one, at height 1.
            for combo in fresh_tuples(lo, len(out), k) if k else [()] if h == 1 else ():
                level.append(Tree(n, [out[i] for i in combo]))
                if len(out) + len(level) > budget:
                    raise BudgetError(f"tree enumeration exceeded the budget of {budget} items")
        lo = len(out)
        out.extend(level)
    return tuple(out)


# (alphabet, contexts or trees, height) -> (items, size of the raw enumeration)
_memo: dict[tuple[RankedAlphabet, bool, int], tuple[tuple[Tree, ...], int]] = {}


def _enumeration(
    alphabet: RankedAlphabet, contexts: bool, max_height: int, budget: int
) -> tuple[Tree, ...]:
    """The trees, or the contexts, of height <= max_height, enumerated once
    per height.  The budget caps the raw enumeration, every tree over the
    alphabet (with the hole, for contexts), on a hit as on a miss: a miss
    stops early over budget and stores nothing, and a hit compares the
    stored size with its own budget and returns the stored tuple itself."""
    if max_height < 1:
        raise BudgetError("max_height must be at least 1")
    if budget < 1:
        raise BudgetError("budget must be positive")
    key = (alphabet, contexts, max_height)
    got = _memo.get(key)
    if got is None:
        entries = alphabet.entries
        if contexts:
            entries[HOLE] = 0
        raw = _enumerate_raw(entries, max_height, budget)
        items = tuple(t for t in raw if _holes(t)[0] == 1) if contexts else raw
        got = _memo[key] = (items, len(raw))
    items, raw_size = got
    if raw_size > budget:
        raise BudgetError(f"tree enumeration exceeded the budget of {budget} items")
    return items


def enumerate_trees(
    alphabet: RankedAlphabet, max_height: int, budget: int = DEFAULT_ENUM_BUDGET
) -> tuple[Tree, ...]:
    """All well-ranked trees of height <= max_height in canonical order."""
    return _enumeration(alphabet, False, max_height, budget)


def enumerate_contexts(
    alphabet: RankedAlphabet, max_height: int, budget: int = DEFAULT_ENUM_BUDGET
) -> tuple[Tree, ...]:
    """All contexts of height <= max_height in canonical order.

    Enumerates trees over the alphabet extended with the hole and keeps the
    one-hole ones, so the order is inherited from enumerate_trees.  The budget
    applies to the raw enumeration (see _enumeration).
    """
    return _enumeration(alphabet, True, max_height, budget)


def format_term(t: Tree) -> str:
    """Render a tree in the term syntax; nullary symbols omit parentheses."""
    parts: list[str] = []
    todo: list[Tree | str] = [t]  # trees and punctuation still to write, next one last
    while todo:
        u = todo.pop()
        if u.__class__ is str:
            parts.append(u)
        elif not u.children:
            parts.append(u.label)
        else:
            parts.append(u.label + "(")
            todo.append(")")
            for c in reversed(u.children):
                todo.extend((c, ","))
            todo.pop()  # no comma before the first child
    return "".join(parts)


def _parse_term(text: str) -> tuple[Tree, int]:
    """The term that text spells out, and the number of holes in it."""
    bad = _BAD_CHAR_RE.search(text)  # reported before any grammar error
    if bad:
        raise ParseError(f"unexpected character {bad[0]!r}", line=1, column=bad.start() + 1)
    tokens = _TOKEN_RE.finditer(text)  # what lies between them is whitespace
    tok = next(tokens, None)  # the next token, None at the end of text
    holes = 0
    open_terms: list[tuple[str, list[Tree]]] = []  # each '(' still open: symbol, children
    while True:
        if tok is None or tok[0] in "(),":
            msg = "unexpected end of term" if tok is None else f"expected a symbol, got {tok[0]!r}"
            raise ParseError(msg, line=1, column=(tok.start() if tok else len(text)) + 1)
        label = tok[0]
        tok = next(tokens, None)
        if label == HOLE:
            holes += 1
        elif tok is not None and tok[0] == "(":
            tok = next(tokens, None)
            if tok is None or tok[0] != ")":
                open_terms.append((label, []))
                continue
            tok = next(tokens, None)
        done = Tree(label)
        while open_terms:  # hand the finished term to its parent, closing it on ')'
            open_terms[-1][1].append(done)
            if tok is None or tok[0] not in ",)":
                msg = "unclosed '('" if tok is None else f"expected ',' or ')', got {tok[0]!r}"
                raise ParseError(msg, line=1, column=(tok.start() if tok else len(text)) + 1)
            closing = tok[0] == ")"
            tok = next(tokens, None)
            if not closing:
                break
            label, children = open_terms.pop()
            done = Tree(label, children)
        else:
            if tok is not None:
                raise ParseError("trailing input after term", line=1, column=tok.start() + 1)
            return done, holes


def parse_term(text: str, alphabet: RankedAlphabet | None = None) -> Tree:
    """Parse the term syntax ``sym`` or ``sym(t,...)``; whitespace is free.

    Holes are rejected; use parse_context for contexts.  When an alphabet is
    given the result is checked to be well ranked.
    """
    t, holes = _parse_term(text)
    if holes:
        raise ParseError("holes are not allowed in a plain term", line=1, column=1)
    if alphabet is not None:
        check_well_ranked(t, alphabet)
    return t


def parse_context(text: str, alphabet: RankedAlphabet | None = None) -> Tree:
    """Parse a context: the term syntax plus exactly one ``<>`` leaf."""
    t, holes = _parse_term(text)
    if holes != 1:
        raise ParseError(f"a context needs exactly one hole, found {holes}", line=1, column=1)
    if alphabet is not None:
        check_well_ranked(t, alphabet, allow_hole=True)
    return t
