"""Brute-force reference layer: bounded languages and observational classes.

Every class is defined by acceptance of enumerated trees plugged into
enumerated contexts, independent of the constructions in the rest of the
package, so it doubles as an oracle for testing them.  The sweeps factor
through the set of states a tree reaches instead of building each plugged
tree.  This is exact because the run is compositional: on x[t] the run
reaches at the hole exactly the set S that t reaches, and above the hole it
is the run on x with its hole seeded to S.  So each enumerated tree runs
once, and each context once per distinct reached set.  Every run is the
package's one bottom-up run, with one memo per sweep and one per seed,
since enumerated trees and contexts share subtrees, and one step table
per sweep, since a step does not depend on the seed.
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterable

from .automata import Bta, _leaves, _run, accepts
from .trees import (
    DEFAULT_ENUM_BUDGET,
    HOLE,
    Tree,
    _group,
    enumerate_contexts,
    enumerate_trees,
    plug,
)


def _classes(items: Iterable[Tree], key: Callable[[Tree], Hashable]) -> tuple[tuple, ...]:
    """items grouped by key, the groups ordered by their first member."""
    return tuple(sorted(_group(items, key).values(), key=lambda c: c[0]))


def _acceptor(a: Bta, steps: dict, hole: frozenset[str] | None = None) -> Callable[[Tree], bool]:
    """Acceptance by a, with one memo shared by every tree it is asked about
    and the sweep's step table steps.

    Given hole, it is asked about contexts, and their hole reaches exactly
    those states.  The memo then serves that seed alone: subtrees holding the
    hole reach other sets under other seeds.
    """
    leaves, memo = _leaves(a), {}
    if hole is not None:
        leaves[HOLE] = hole
    return lambda t: bool(_run(a, t, leaves, memo, steps) & a.final)


def _reached(a: Bta, trees: Iterable[Tree], steps: dict) -> dict[Tree, frozenset[str]]:
    """The state set each tree reaches, with one memo shared by every tree."""
    leaves, memo = _leaves(a), {}
    return {t: _run(a, t, leaves, memo, steps) for t in trees}


def language_upto(
    a: Bta, max_height: int, *, budget: int = DEFAULT_ENUM_BUDGET
) -> frozenset[Tree]:
    """All accepted trees of height up to max_height."""
    return frozenset(filter(_acceptor(a, {}), enumerate_trees(a.alphabet, max_height, budget)))


def nerode_classes_up(
    a: Bta,
    tree_height: int,
    context_height: int,
    *,
    budget: int = DEFAULT_ENUM_BUDGET,
) -> tuple[tuple[Tree, ...], ...]:
    """Group trees by which bounded contexts carry them into the language.

    Two trees land in the same class iff plugging them into every enumerated
    context gives the same accept/reject vector.  A tree's vector is that of
    the state set it reaches, so each distinct set is run through every
    context once, as the seed of the hole.  Two trees reaching different sets
    can still share a class.  Classes are ordered by their first member;
    members keep the canonical enumeration order.
    """
    trees = enumerate_trees(a.alphabet, tree_height, budget)
    contexts = enumerate_contexts(a.alphabet, context_height, budget)
    steps: dict = {}
    reached = _reached(a, trees, steps)
    vectors = {
        s: tuple(map(_acceptor(a, steps, s), contexts)) for s in dict.fromkeys(reached.values())
    }
    return _classes(trees, lambda t: vectors[reached[t]])


def nerode_classes_down(
    a: Bta,
    context_height: int,
    tree_height: int,
    *,
    budget: int = DEFAULT_ENUM_BUDGET,
) -> tuple[tuple[Tree, ...], ...]:
    """Group contexts by which bounded trees they carry into the language.

    The observational dual of nerode_classes_up, with the same ordering
    conventions.  Trees reaching the same state set are carried in by the
    same contexts, so a context's vector holds one bit per distinct set the
    probing trees reach: whether it accepts with its hole seeded to that set.
    """
    contexts = enumerate_contexts(a.alphabet, context_height, budget)
    trees = enumerate_trees(a.alphabet, tree_height, budget)
    steps: dict = {}
    seeded = [_acceptor(a, steps, s) for s in dict.fromkeys(_reached(a, trees, steps).values())]
    return _classes(contexts, lambda x: tuple(accepted(x) for accepted in seeded))


def quotient_member_up(a: Bta, x: Tree, t: Tree) -> bool:
    """True iff context x carries tree t into the language."""
    return accepts(a, plug(x, t))


def quotient_member_down(a: Bta, t: Tree, x: Tree) -> bool:
    """True iff tree t fills context x into the language."""
    return quotient_member_up(a, x, t)
