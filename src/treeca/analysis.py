"""Context preimages, double-reversal diagnostics, and congruence classes.

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
    _run,
    _spine_fold,
    reachable_states,
    trim_unreachable,
    wpre,
)
from .errors import NotPathClosedError
from .oracle import _group
from .minimize import (
    _path_closed_constructions,
    _refine,
    isomorphic,
    minimize_dbta,
)
from .trees import (
    DEFAULT_ENUM_BUDGET,
    Tree,
    enumerate_contexts,
    enumerate_trees,
    pivot,
)
from .transforms import (
    DEFAULT_STATE_BUDGET,
    codeterminize,
    determinize,
    subset_construction,
    subset_name,
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
    if reachable_states(a) != a.states:
        warnings.warn(
            "pre_context removes unreachable states before computing",
            stacklevel=2,
        )
        a = trim_unreachable(a)
        seed &= a.states
    return _spine_fold(a, x, seed)[1]


def root_to_pivot_equiv(
    a: Bta, x: Tree, y: Tree, s: Iterable[str] | None = None
) -> bool:
    """True iff x and y have equal spines and their weak preimages of s are
    both empty or both nonempty."""
    seed = a.final if s is None else _check_states(a, s)
    if spine_of(x) != spine_of(y):
        return False
    return bool(wpre(a, x, seed)) == bool(wpre(a, y, seed))


def check_gen_det_u(a: Bta, *, budget: int = DEFAULT_STATE_BUDGET) -> bool:
    """True iff determinizing a directly yields the minimal deterministic
    automaton, i.e. distinct reachable state subsets are never language
    equivalent."""
    det = determinize(a, budget=budget)
    return isomorphic(det, minimize_dbta(det))


def gen_det_u_witness(
    a: Bta, *, budget: int = DEFAULT_STATE_BUDGET
) -> tuple[str, str, frozenset[str], frozenset[str]] | None:
    """None when determinization is already minimal; otherwise a witness
    (q, m, s1, s2): two distinct reachable subsets s1 and s2 that merge into
    the same minimal state m, with q a state in their symmetric difference.

    m is the least merged minimal state by name, and s1 and s2 are the two
    least determinized states by name in its block.
    """
    det, members = subset_construction(a, budget=budget)
    merged = [block for block in _refine(det).blocks if len(block) > 1]
    if not merged:
        return None
    block = min(merged, key=subset_name)
    s1_name, s2_name = sorted(block)[:2]
    s1, s2 = members[s1_name], members[s2_name]
    return (min(s1 ^ s2), subset_name(block), s1, s2)


def check_gen_det_d(a: Bta, *, budget: int = DEFAULT_STATE_BUDGET) -> bool:
    """True iff co-determinizing the trimmed automaton directly yields the
    minimal co-deterministic automaton.  Only defined for path-closed
    languages; anything else is rejected."""
    found = _path_closed_constructions(a, budget)
    if found is None:
        raise NotPathClosedError(
            "the downward determinization check requires a path-closed language"
        )
    c, da, _ = found
    return isomorphic(c, codeterminize(da, budget=budget))


def bta_congruence_up(
    a: Bta, max_height: int, *, budget: int = DEFAULT_ENUM_BUDGET
) -> dict[frozenset[str], tuple[Tree, ...]]:
    """Group every tree up to max_height by the set of states it evaluates to."""
    leaves, memo = _leaves(a), {}
    trees = enumerate_trees(a.alphabet, max_height, budget)
    return _group(trees, lambda t: _run(a, t, leaves, memo))


def bta_congruence_down(
    a: Bta, max_height: int, *, budget: int = DEFAULT_ENUM_BUDGET
) -> dict[frozenset[str], tuple[Tree, ...]]:
    """Group every context up to max_height by its pre of the final states.

    Unreachable states are removed up front, once, since the spine fold is
    only exact for pre on trimmed automata.
    """
    a1 = trim_unreachable(a)
    contexts = enumerate_contexts(a.alphabet, max_height, budget)
    return _group(contexts, lambda x: _spine_fold(a1, x, a1.final)[1])
