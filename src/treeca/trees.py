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
        return (
            self._hash == other._hash
            and self.label == other.label
            and self.children == other.children
        )

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "Tree") -> bool:
        # Canonical order: height, then root symbol name, then children.
        if not isinstance(other, Tree):
            return NotImplemented
        if self == other:
            return False
        if self.height != other.height:
            return self.height < other.height
        if self.label != other.label:
            return self.label < other.label
        if len(self.children) != len(other.children):
            return len(self.children) < len(other.children)
        for a, b in zip(self.children, other.children):
            if a != b:
                return a < b
        return False

    def __repr__(self) -> str:
        return format_term(self)


def iter_nodes(t: Tree) -> Iterator[tuple[Address, Tree]]:
    """Yield (address, subtree) pairs in preorder; addresses are 1-based."""
    stack: list[tuple[Address, Tree]] = [((), t)]
    while stack:
        addr, node = stack.pop()
        yield addr, node
        for i in range(len(node.children), 0, -1):
            stack.append((addr + (i,), node.children[i - 1]))


def format_address(addr: Address) -> str:
    """Render an address as dot-separated 1-based steps, the root as its own sign."""
    return "ε" if not addr else ".".join(str(i) for i in addr)


def is_well_ranked(t: Tree, alphabet: RankedAlphabet, allow_hole: bool = False) -> bool:
    """True iff every node uses an alphabet symbol with matching arity.

    With allow_hole the reserved hole counts as an extra nullary symbol, which
    is how contexts are checked.
    """
    for _, node in iter_nodes(t):
        if node.label == HOLE:
            if not allow_hole or node.children:
                return False
        elif node.label not in alphabet or alphabet.arity(node.label) != len(node.children):
            return False
    return True


def check_well_ranked(t: Tree, alphabet: RankedAlphabet, allow_hole: bool = False) -> None:
    """Raise NotWellRankedError with the offending node when the check fails."""
    for addr, node in iter_nodes(t):
        if node.label == HOLE:
            if allow_hole and not node.children:
                continue
            raise NotWellRankedError(
                f"hole at {format_address(addr)} is not allowed here"
            )
        if node.label not in alphabet:
            raise NotWellRankedError(
                f"unknown symbol {node.label!r} at {format_address(addr)}"
            )
        want = alphabet.arity(node.label)
        if want != len(node.children):
            raise NotWellRankedError(
                f"symbol {node.label!r} at {format_address(addr)} has "
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
    if not addr:
        return s
    i = addr[0]
    if not 1 <= i <= len(t.children):
        raise AddressError(f"address {format_address(addr)} leaves the tree")
    kids = list(t.children)
    kids[i - 1] = substitute(kids[i - 1], addr[1:], s)
    return Tree(t.label, kids)


def puncture(t: Tree, addr: Address) -> Tree:
    """Replace the subtree at addr with a hole, turning t into a context."""
    return substitute(t, addr, Tree(HOLE))


def _hole_addresses(t: Tree) -> list[Address]:
    return [addr for addr, node in iter_nodes(t) if node.label == HOLE]


def is_context(t: Tree) -> bool:
    """True iff t contains exactly one hole node (with no children)."""
    holes = _hole_addresses(t)
    return len(holes) == 1 and not subtree(t, holes[0]).children


def pivot(x: Tree) -> Address:
    """The address of the unique hole of a context."""
    holes = _hole_addresses(x)
    if len(holes) != 1:
        raise MalformedContextError(
            f"expected exactly one hole, found {len(holes)}"
        )
    return holes[0]


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
    if not t.children:
        return frozenset({(t.label,)})
    out = set()
    for i, child in enumerate(t.children, start=1):
        for p in path_language(child):
            out.add((t.label, i) + p)
    return frozenset(out)


def format_path(p: Path) -> str:
    return "".join(str(tok) for tok in p)


def fresh_tuples(lo: int, hi: int, k: int) -> Iterator[tuple[int, ...]]:
    """The k-tuples over range(hi) with at least one entry >= lo, in
    lexicographic order.

    Breadth-first constructions number their items in discovery order; when
    items lo..hi-1 are the new ones, these are exactly the argument tuples
    not combined before.
    """
    if k == 0:
        return
    for first in range(hi):
        if first >= lo:
            for rest in itertools.product(range(hi), repeat=k - 1):
                yield (first, *rest)
        else:
            for rest in fresh_tuples(lo, hi, k - 1):
                yield (first, *rest)


def _enumerate_raw(entries: Mapping[str, int], max_height: int, budget: int) -> tuple[Tree, ...]:
    """All trees over the given arity map with height <= max_height, in canonical order."""
    if max_height < 1:
        raise BudgetError("max_height must be at least 1")
    if budget < 1:
        raise BudgetError("budget must be positive")
    names = sorted(entries)
    out: list[Tree] = []
    lo = 0  # out[lo:] holds the trees of the greatest height so far
    for h in range(1, max_height + 1):
        if h == 1:
            level = [Tree(n) for n in names if entries[n] == 0]
        else:
            level = []
            for n in names:
                for combo in fresh_tuples(lo, len(out), entries[n]):
                    level.append(Tree(n, [out[i] for i in combo]))
                    if len(out) + len(level) > budget:
                        raise BudgetError(
                            f"tree enumeration exceeded the budget of {budget} items"
                        )
        if len(out) + len(level) > budget:
            raise BudgetError(f"tree enumeration exceeded the budget of {budget} items")
        lo = len(out)
        out.extend(level)
    return tuple(out)


_tree_cache: dict[tuple[RankedAlphabet, int], tuple[Tree, ...]] = {}
_context_cache: dict[tuple[RankedAlphabet, int], tuple[int, tuple[Tree, ...]]] = {}


def enumerate_trees(
    alphabet: RankedAlphabet, max_height: int, budget: int = DEFAULT_ENUM_BUDGET
) -> tuple[Tree, ...]:
    """All well-ranked trees of height <= max_height in canonical order."""
    key = (alphabet, max_height)
    cached = _tree_cache.get(key)
    if cached is None:
        cached = _enumerate_raw(alphabet.entries, max_height, budget)
        _tree_cache[key] = cached
    if len(cached) > budget:
        raise BudgetError(f"tree enumeration exceeded the budget of {budget} items")
    return cached


def enumerate_contexts(
    alphabet: RankedAlphabet, max_height: int, budget: int = DEFAULT_ENUM_BUDGET
) -> tuple[Tree, ...]:
    """All contexts of height <= max_height in canonical order.

    Enumerates trees over the alphabet extended with the hole and keeps the
    one-hole ones, so the order is inherited from enumerate_trees.  The budget
    applies to the raw enumeration, whose size is cached with the contexts so
    that a cache hit is held to the same budget.
    """
    key = (alphabet, max_height)
    cached = _context_cache.get(key)
    if cached is None:
        entries = alphabet.entries
        entries[HOLE] = 0
        raw = _enumerate_raw(entries, max_height, budget)
        cached = (len(raw), tuple(t for t in raw if len(_hole_addresses(t)) == 1))
        _context_cache[key] = cached
    raw_size, contexts = cached
    if raw_size > budget:
        raise BudgetError(f"tree enumeration exceeded the budget of {budget} items")
    return contexts


def format_term(t: Tree) -> str:
    """Render a tree in the term syntax; nullary symbols omit parentheses."""
    if not t.children:
        return t.label
    return t.label + "(" + ",".join(format_term(c) for c in t.children) + ")"


def _tokenize_term(text: str) -> list[tuple[str, str, int]]:
    tokens: list[tuple[str, str, int]] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if text.startswith(HOLE, i):
            tokens.append(("hole", HOLE, i))
            i += len(HOLE)
            continue
        if ch in "(),":
            tokens.append((ch, ch, i))
            i += 1
            continue
        m = _IDENT_RE.match(text, i)
        if not m:
            raise ParseError(f"unexpected character {ch!r}", line=1, column=i + 1)
        tokens.append(("ident", m.group(), i))
        i = m.end()
    return tokens


def _parse_term_tokens(tokens: list[tuple[str, str, int]], pos: int, text: str) -> tuple[Tree, int]:
    if pos >= len(tokens):
        raise ParseError("unexpected end of term", line=1, column=len(text) + 1)
    kind, value, at = tokens[pos]
    if kind == "hole":
        return Tree(HOLE), pos + 1
    if kind != "ident":
        raise ParseError(f"expected a symbol, got {value!r}", line=1, column=at + 1)
    pos += 1
    if pos < len(tokens) and tokens[pos][0] == "(":
        pos += 1
        children: list[Tree] = []
        if pos < len(tokens) and tokens[pos][0] == ")":
            return Tree(value, ()), pos + 1
        while True:
            child, pos = _parse_term_tokens(tokens, pos, text)
            children.append(child)
            if pos >= len(tokens):
                raise ParseError("unclosed '('", line=1, column=len(text) + 1)
            kind2, value2, at2 = tokens[pos]
            if kind2 == ",":
                pos += 1
                continue
            if kind2 == ")":
                return Tree(value, children), pos + 1
            raise ParseError(f"expected ',' or ')', got {value2!r}", line=1, column=at2 + 1)
    return Tree(value), pos


def parse_term(text: str, alphabet: RankedAlphabet | None = None) -> Tree:
    """Parse the term syntax ``sym`` or ``sym(t,...)``; whitespace is free.

    Holes are rejected; use parse_context for contexts.  When an alphabet is
    given the result is checked to be well ranked.
    """
    tokens = _tokenize_term(text)
    t, pos = _parse_term_tokens(tokens, 0, text)
    if pos != len(tokens):
        raise ParseError("trailing input after term", line=1, column=tokens[pos][2] + 1)
    if _hole_addresses(t):
        raise ParseError("holes are not allowed in a plain term", line=1, column=1)
    if alphabet is not None:
        check_well_ranked(t, alphabet)
    return t


def parse_context(text: str, alphabet: RankedAlphabet | None = None) -> Tree:
    """Parse a context: the term syntax plus exactly one ``<>`` leaf."""
    tokens = _tokenize_term(text)
    t, pos = _parse_term_tokens(tokens, 0, text)
    if pos != len(tokens):
        raise ParseError("trailing input after term", line=1, column=tokens[pos][2] + 1)
    holes = _hole_addresses(t)
    if len(holes) != 1:
        raise ParseError(f"a context needs exactly one hole, found {len(holes)}", line=1, column=1)
    if alphabet is not None:
        check_well_ranked(t, alphabet, allow_hole=True)
    return t
