"""Context preimages, root-to-pivot equivalence, and congruence classes.

pre and wpre are one fold down a context's spine (automata._spine_fold); pre
drops its sibling check, which is exact once unreachable states are removed:
every sibling position of a surviving rule is then realizable by an actual tree.
"""

from __future__ import annotations

import warnings
from typing import Iterable

from .automata import (
    Bta,
    _check_states,
    _leaves,
    _restrict,
    _run,
    _spine_fold,
    reachable_states,
    trim_unreachable,
)
from .trees import (
    DEFAULT_ENUM_BUDGET,
    Tree,
    _group,
    enumerate_contexts,
    enumerate_trees,
    pivot,
)

Spine = tuple[tuple[str, int], ...]


def spine_of(x: Tree) -> Spine:
    """The root-to-pivot spine of a context: (symbol, child index) pairs,
    indices 1-based, one pair per step down to the hole."""
    out: list[tuple[str, int]] = []
    node = x
    for i in pivot(x):
        out.append((node.label, i))
        node = node.children[i - 1]
    return tuple(out)


def pre_context(a: Bta, x: Tree, s: Iterable[str] | None = None) -> frozenset[str]:
    """States q such that plugging any tree of q into x can reach s at the root.

    Defaults s to the final states.  Unreachable states distort the result,
    so they are removed first with a warning.  The empty set is returned
    outright when not even the weak preimage survives; otherwise the spine of
    x is folded downward, collecting at each step the argument states at the
    spine position of every rule whose target set meets the running set.
    """
    seed = a.final if s is None else _check_states(a, s)
    reach = reachable_states(a)
    if reach != a.states:
        warnings.warn(
            "pre_context removes unreachable states before computing",
            stacklevel=2,
        )
        a = _restrict(a, reach)
        seed &= reach
    return _spine_fold(a, x, seed, pivot(x))[1]


def root_to_pivot_equiv(
    a: Bta, x: Tree, y: Tree, s: Iterable[str] | None = None
) -> bool:
    """True iff x and y have equal spines and their weak preimages of s are
    both empty or both nonempty."""
    seed = a.final if s is None else _check_states(a, s)
    spine = spine_of(x)
    if spine != spine_of(y):
        return False
    at = tuple(i for _, i in spine)
    return bool(_spine_fold(a, x, seed, at)[0]) == bool(_spine_fold(a, y, seed, at)[0])


def bta_congruence_up(
    a: Bta, max_height: int, *, budget: int = DEFAULT_ENUM_BUDGET
) -> dict[frozenset[str], tuple[Tree, ...]]:
    """Group every tree up to max_height by the set of states it evaluates to."""
    leaves, memo, steps = _leaves(a), {}, {}
    trees = enumerate_trees(a.alphabet, max_height, budget)
    return _group(trees, lambda t: _run(a, t, leaves, memo, steps))


def bta_congruence_down(
    a: Bta, max_height: int, *, budget: int = DEFAULT_ENUM_BUDGET
) -> dict[frozenset[str], tuple[Tree, ...]]:
    """Group every context up to max_height by its pre of the final states.

    Unreachable states are removed up front, once, since the spine fold is
    only exact for pre on trimmed automata.  The folds share one memo for
    their sibling runs: a sibling holds no hole, so its set is the same in
    every context.
    """
    a1, memo, steps = trim_unreachable(a), {}, {}
    contexts = enumerate_contexts(a.alphabet, max_height, budget)
    return _group(contexts, lambda x: _spine_fold(a1, x, a1.final, pivot(x), memo, steps)[1])
