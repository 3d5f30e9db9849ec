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
from operator import attrgetter
from typing import Callable, Hashable, Iterable, Iterator, Mapping, Sequence

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
# Punctuation with the whitespace around it: a split keeps the punctuation.
_PUNCT_RE = re.compile(r"\s*([(),])\s*")
# A character that is neither whitespace nor in a token: none of the token
# characters, or a '<' or '>' that is not half of a hole.
_BAD_CHAR_RE = re.compile(r"[^A-Za-z0-9_(),<>\s]|<(?!>)|(?<!<)>")
_HEIGHT, _HASH = attrgetter("height"), attrgetter("_hash")


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
    """An ordered, labeled finite tree.  Treat instances as immutable.

    A node stores its height and a hash of its label with its children's
    stored hashes, so building one costs constant work per child.  Equal
    trees hash equal; the values differ from run to run, as str hashes do.
    """

    __slots__ = ("label", "children", "height", "_hash")

    def __init__(self, label: str, children: Sequence["Tree"] = ()):
        self.label = label
        self.children = children = tuple(children)
        if children:
            self.height = 1 + max(map(_HEIGHT, children))
            self._hash = hash((label, *map(_HASH, children)))
        else:
            self.height = 1
            self._hash = hash(label)

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
    _address spells a link out, for check_well_ranked's report.
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
    """Yield (address, subtree) pairs in preorder; addresses are 1-based.

    A child's address is its parent's plus one step, one tuple copy per
    node, so the addresses themselves total O(n * depth) for n nodes."""
    stack: list[tuple[Address, Tree]] = [((), t)]
    while stack:
        addr, node = stack.pop()
        yield addr, node
        kids = node.children
        for i in range(len(kids), 0, -1):
            stack.append((addr + (i,), kids[i - 1]))


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
    """How many hole nodes t has, and the last of them in preorder with its
    address (None and () when there is none).

    The walk keeps a stack of child iterators, one per node on the current
    path, and path[d] is the 1-based index of the child taken at depth d+1,
    so a node costs one step of an iterator and no address is built but the
    holes'.
    """
    count, hole, addr = (1, t, ()) if t.label == HOLE else (0, None, ())
    stack, path = [iter(t.children)], [0]
    while stack:
        for node in stack[-1]:
            path[-1] += 1
            if node.label == HOLE:
                count, hole, addr = count + 1, node, tuple(path)
            if node.children:
                stack.append(iter(node.children))
                path.append(0)
                break
        else:
            stack.pop()
            path.pop()
    return count, hole, addr


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


def _group(items: Iterable[Tree], key: Callable[[Tree], Hashable]) -> dict:
    """items grouped by key; groups and their members keep the order of items."""
    groups: dict[Hashable, list[Tree]] = {}
    for item in items:
        groups.setdefault(key(item), []).append(item)
    return {k: tuple(members) for k, members in groups.items()}


_FLAT_HEIGHT = 32  # format_term writes a subtree this high or lower by recursion


def _flat_term(t: Tree) -> str:
    if t.children:
        return f"{t.label}({','.join(map(_flat_term, t.children))})"
    return t.label


def format_term(t: Tree) -> str:
    """Render a tree in the term syntax; nullary symbols omit parentheses.

    A subtree of height at most _FLAT_HEIGHT is written by recursion, one
    join per node; an explicit stack walks the nodes above, so a chain of
    any depth never recurses deeply."""
    parts: list[str] = []
    todo: list[Tree | str] = [t]  # trees and punctuation still to write, next one last
    while todo:
        u = todo.pop()
        if u.__class__ is str:
            parts.append(u)
        elif u.height <= _FLAT_HEIGHT:
            parts.append(_flat_term(u))
        else:
            parts.append(u.label + "(")
            todo.append(")")
            for c in reversed(u.children):
                todo.extend((c, ","))
            todo.pop()  # no comma before the first child
    return "".join(parts)


def _parse_term(text: str, arities: Mapping[str, int]) -> tuple[Tree, int, bool]:
    """The term that text spells out, the number of holes in it, and
    whether some node's child count differs from its label's entry in
    arities (a label with no entry matches no count).

    After the search for a character no token holds, one split at the
    punctuation, with the whitespace around it, leaves the labels at the
    even places and the punctuation between them.  One loop over those
    builds each node as it closes and compares its child count with its
    label's arity.  Each distinct label is checked once, and its leaves
    share one Tree.  A text the loop declines goes to _term_fault, which
    words its first fault and builds nothing.
    """
    bad = _BAD_CHAR_RE.search(text)  # reported before any grammar error
    if bad:
        raise ParseError(f"unexpected character {bad[0]!r}", line=1, column=bad.start() + 1)
    # The labels at the even places, the punctuation between them, and a
    # last pair of empty strings for the end of text.
    pieces = iter([*_PUNCT_RE.split(text.strip()), "", ""])
    known: dict[str, tuple[int, Tree]] = {}  # each label read: its arity (-1 if none), its leaf
    misranked = False
    label = next(pieces)  # a label read whose node is not built yet, None after a ')'
    kids: list[Tree] = []  # the children of the innermost open node, the root at the top
    open_nodes: list[tuple[str, int, list[Tree]]] = []  # the nodes outside: label, arity, kids
    for punct, piece in zip(pieces, pieces):  # the loop breaks on a fault
        if label:
            got = known.get(label)
            if got is None:
                if label not in arities and label != HOLE and not _IDENT_RE.fullmatch(label):
                    break
                got = known[label] = (arities.get(label, -1), Tree(label))
            want, leaf = got
            if punct == "(":
                if label == HOLE:
                    break
                open_nodes.append((label, want, kids))
                kids, label = [], piece
                continue
            kids.append(leaf)
            misranked |= want != 0
        elif punct == "(" or label is not None and (punct != ")" or kids):
            break  # no label where one goes, but inside a leaf's "()"
        if not open_nodes:  # the root is built: only the end of text may follow
            if punct:
                break
            return kids[0], text.count(HOLE), misranked
        if punct == ",":
            label = piece
            continue
        if punct != ")" or piece:
            break
        name, want, outer = open_nodes.pop()
        outer.append(Tree(name, kids))
        misranked |= want != len(kids)
        kids, label = outer, None
    raise _term_fault(text)


def _term_fault(text: str) -> ParseError:
    """The first fault of a text that _parse_term declines, worded as a
    scan of its tokens from the left finds it.

    The text holds only token characters and whitespace.  The scan keeps
    the count of open '(' and builds nothing.
    """
    tokens = _TOKEN_RE.finditer(text)  # what lies between them is whitespace
    tok = next(tokens, None)  # the next token, None at the end of text
    depth = 0  # the '(' still open
    while True:
        if tok is None or tok[0] in "(),":
            msg = "unexpected end of term" if tok is None else f"expected a symbol, got {tok[0]!r}"
            return ParseError(msg, line=1, column=(tok.start() if tok else len(text)) + 1)
        label = tok[0]
        tok = next(tokens, None)
        if label != HOLE and tok is not None and tok[0] == "(":
            tok = next(tokens, None)
            if tok is None or tok[0] != ")":
                depth += 1
                continue
            tok = next(tokens, None)
        while depth:  # the term just read ends a child, and on ')' its parent
            if tok is None or tok[0] not in ",)":
                msg = "unclosed '('" if tok is None else f"expected ',' or ')', got {tok[0]!r}"
                return ParseError(msg, line=1, column=(tok.start() if tok else len(text)) + 1)
            closing = tok[0] == ")"
            tok = next(tokens, None)
            if not closing:
                break
            depth -= 1
        else:
            # _parse_term reads every text with no fault, so a token follows.
            return ParseError("trailing input after term", line=1, column=tok.start() + 1)


def parse_term(text: str, alphabet: RankedAlphabet | None = None) -> Tree:
    """Parse the term syntax ``sym`` or ``sym(t,...)``; whitespace is free.

    Holes are rejected; use parse_context for contexts.  When an alphabet is
    given, each node's child count is compared with its arity as the reader
    closes the node; only on a mismatch does check_well_ranked walk the tree,
    to report the first faulty node in preorder.
    """
    t, holes, misranked = _parse_term(text, {} if alphabet is None else alphabet._entries)
    if holes:
        raise ParseError("holes are not allowed in a plain term", line=1, column=1)
    if alphabet is not None and misranked:
        check_well_ranked(t, alphabet)
    return t


def parse_context(text: str, alphabet: RankedAlphabet | None = None) -> Tree:
    """Parse a context: the term syntax plus exactly one ``<>`` leaf.

    The rank check is parse_term's, with the hole as one more nullary symbol.
    """
    t, holes, misranked = _parse_term(
        text, {} if alphabet is None else {**alphabet._entries, HOLE: 0}
    )
    if holes != 1:
        raise ParseError(f"a context needs exactly one hole, found {holes}", line=1, column=1)
    if alphabet is not None and misranked:
        check_well_ranked(t, alphabet, allow_hole=True)
    return t
