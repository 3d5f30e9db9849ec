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
    _restrict,
    _run,
    _spine_fold,
    reachable_states,
    trim_unreachable,
)
from .oracle import _group
from .minimize import _blocks, _refine, _require_path_closed
from .trees import (
    DEFAULT_ENUM_BUDGET,
    Tree,
    enumerate_contexts,
    enumerate_trees,
    pivot,
)
from .transforms import DEFAULT_STATE_BUDGET, _Subsets, subset_name

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


def check_gen_det_u(a: Bta, *, budget: int = DEFAULT_STATE_BUDGET) -> bool:
    """True iff determinizing a directly yields the minimal deterministic
    automaton, i.e. distinct reachable state subsets are never language
    equivalent.

    The determinization is total and fully reachable, so it is minimal iff
    its refinement merges no two subsets: the check is gen_det_u_witness
    finding no witness.
    """
    return gen_det_u_witness(a, budget=budget) is None


def gen_det_u_witness(
    a: Bta, *, budget: int = DEFAULT_STATE_BUDGET
) -> tuple[str, str, frozenset[str], frozenset[str]] | None:
    """None when determinization is already minimal; otherwise a witness
    (q, m, s1, s2): two distinct reachable subsets s1 and s2 that merge into
    the same minimal state m, with q a state in their symmetric difference.

    m is the least merged minimal state by name, and s1 and s2 are the two
    least determinized states by name in its block.  The refinement reads
    the subset construction's numbered tables, so no rule of the
    determinization is named.
    """
    subsets = _Subsets(a, budget)
    view = subsets.close()
    names = view.names
    merged = [block for block in _blocks(_refine(view)) if len(block) > 1]
    if not merged:
        return None
    by_name = {subset_name(map(names.__getitem__, block)): block for block in merged}
    m = min(by_name)
    i, j = sorted(by_name[m], key=names.__getitem__)[:2]
    s1, s2 = subsets.pool.order[i], subsets.pool.order[j]
    return (min(s1 ^ s2), m, s1, s2)


def check_gen_det_d(a: Bta, *, budget: int = DEFAULT_STATE_BUDGET) -> bool:
    """True iff co-determinizing the trimmed automaton directly yields the
    minimal co-deterministic automaton.  Only defined for path-closed
    languages; anything else is rejected.

    The co-determinization c is reduced, so it is minimal iff no two of its
    states accept the same trees, i.e. iff no two lie in exactly the same
    reachable subsets of its determinization (the state sets trees reach).
    The path-closedness walk that finds no separating tree has met every
    one of them.
    """
    return _check_gen_det_d(a, budget)[0]


def _check_gen_det_d(a: Bta, budget: int) -> tuple[bool, bool]:
    """The verdict of check_gen_det_d, and whether its trim removed states of a."""
    c, sa, sc = _require_path_closed(a, budget, "the downward determinization check")
    subsets = sc.pool.order
    vectors = {frozenset(i for i, s in enumerate(subsets) if q in s) for q in c.states}
    return len(vectors) == len(c.states), sa.a is not a


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
    return _group(contexts, lambda x: _spine_fold(a1, x, a1.final, pivot(x))[1])
