"""Brute-force reference layer: bounded languages and observational classes.

Everything here is defined directly from acceptance of enumerated trees and
contexts, independent of the constructions in the rest of the package, so it
doubles as an oracle for testing them.  Acceptance is the package's one
bottom-up run with a memo per sweep, since enumerated trees share subtrees.
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterable

from .automata import Bta, _leaves, _run, accepts
from .trees import (
    DEFAULT_ENUM_BUDGET,
    Tree,
    _group,
    enumerate_contexts,
    enumerate_trees,
    pivot,
    plug,
    substitute,
)


def _classes(items: Iterable[Tree], key: Callable[[Tree], Hashable]) -> tuple[tuple, ...]:
    """items grouped by key, the groups ordered by their first member."""
    return tuple(sorted(_group(items, key).values(), key=lambda c: c[0]))


def _acceptor(a: Bta) -> Callable[[Tree], bool]:
    """Acceptance by a, with one memo shared by every tree it is asked about."""
    leaves, memo = _leaves(a), {}
    return lambda t: bool(_run(a, t, leaves, memo) & a.final)


def language_upto(
    a: Bta, max_height: int, *, budget: int = DEFAULT_ENUM_BUDGET
) -> frozenset[Tree]:
    """All accepted trees of height up to max_height."""
    return frozenset(filter(_acceptor(a), enumerate_trees(a.alphabet, max_height, budget)))


def nerode_classes_up(
    a: Bta,
    tree_height: int,
    context_height: int,
    *,
    budget: int = DEFAULT_ENUM_BUDGET,
) -> tuple[tuple[Tree, ...], ...]:
    """Group trees by which bounded contexts carry them into the language.

    Two trees land in the same class iff plugging them into every enumerated
    context gives the same accept/reject vector.  Classes are ordered by
    their first member; members keep the canonical enumeration order.
    """
    trees = enumerate_trees(a.alphabet, tree_height, budget)
    contexts = enumerate_contexts(a.alphabet, context_height, budget)
    accepted = _acceptor(a)
    pivots = [(x, pivot(x)) for x in contexts]
    return _classes(trees, lambda t: tuple(accepted(substitute(x, at, t)) for x, at in pivots))


def nerode_classes_down(
    a: Bta,
    context_height: int,
    tree_height: int,
    *,
    budget: int = DEFAULT_ENUM_BUDGET,
) -> tuple[tuple[Tree, ...], ...]:
    """Group contexts by which bounded trees they carry into the language.

    The observational dual of nerode_classes_up, with the same ordering
    conventions.
    """
    contexts = enumerate_contexts(a.alphabet, context_height, budget)
    trees = enumerate_trees(a.alphabet, tree_height, budget)
    accepted = _acceptor(a)

    def bits(x: Tree) -> tuple[bool, ...]:
        at = pivot(x)
        return tuple(accepted(substitute(x, at, t)) for t in trees)

    return _classes(contexts, bits)


def quotient_member_up(a: Bta, x: Tree, t: Tree) -> bool:
    """True iff context x carries tree t into the language."""
    return accepts(a, plug(x, t))


def quotient_member_down(a: Bta, t: Tree, x: Tree) -> bool:
    """True iff tree t fills context x into the language."""
    return quotient_member_up(a, x, t)
