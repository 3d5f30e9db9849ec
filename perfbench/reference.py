"""Independent references for checking job outputs.

Nothing here calls treeca: the file format and the term syntax are parsed
by the benchmark's own small readers, and languages, state sets and
preimages are computed straight from the rules by bottom-up runs over
enumerated trees.  Trees are (label, children) tuples; the hole is "<>".
"""

from __future__ import annotations

import itertools

from corpus import Auto, format_tree, reachable, restrict

HOLE = "<>"


# === readers ====================================================================

def _split_args(body: str) -> tuple:
    args, depth, cur = [], 0, ""
    for ch in body:
        depth += ch == "{"
        depth -= ch == "}"
        if ch == "," and depth == 0:
            args.append(cur.strip())
            cur = ""
        else:
            cur += ch
    if cur.strip() or args:
        args.append(cur.strip())
    return tuple(args)


def _pattern(text: str) -> tuple:
    text = text.strip()
    if "(" not in text:
        return text, ()
    cut = text.index("(")
    return text[:cut].strip(), _split_args(text[cut + 1:-1])


def read_automaton(text: str) -> tuple[str, Auto]:
    """Parse a bta or tta file into ("bta" | "tta", Auto).  A tta is returned
    as its bottom-up reading, with the initial states as the final set."""
    kind = None
    alphabet, states, marked, rules = {}, [], set(), {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        words = line.split()
        if kind is None:
            kind = words[0]
        elif words[0] == "alphabet":
            for w in words[1:]:
                name, _, k = w.partition("/")
                alphabet[name] = int(k)
        elif words[0] == "states":
            states = words[1:]
        elif words[0] in ("final", "initial"):
            marked = set(words[1:])
        else:
            lhs, _, rhs = line.partition("->")
            if kind == "bta":
                key, q = _pattern(lhs), rhs.strip()
            else:
                key, q = _pattern(rhs), lhs.strip()
            rules.setdefault(key, set()).add(q)
    if kind not in ("bta", "tta"):
        raise ValueError("not an automaton file")
    return kind, Auto(alphabet, states, rules, marked)


def read_term(text: str) -> tuple:
    """Parse the term syntax without recursion."""
    stack: list = [[None, []]]
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace() or ch == ",":
            i += 1
        elif ch == ")":
            label, kids = stack.pop()
            stack[-1][1].append((label, tuple(kids)))
            i += 1
        elif text.startswith(HOLE, i):
            stack[-1][1].append((HOLE, ()))
            i += len(HOLE)
        else:
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            if j == i:
                raise ValueError(f"bad term character {ch!r}")
            if j < n and text[j] == "(":
                stack.append([text[i:j], []])
                j += 1
            else:
                stack[-1][1].append((text[i:j], ()))
            i = j
    (tree,) = stack[0][1]
    return tree


# === semantics ==================================================================

class Runs:
    """Bottom-up state sets of one automaton, memoized on subtrees."""

    def __init__(self, a: Auto):
        self.a = a
        self.memo: dict = {}

    def states(self, t: tuple, hole: frozenset = frozenset()) -> frozenset:
        """States the tree can evaluate to; the hole, if any, evaluates to `hole`."""
        memo = self.memo if not hole else {}
        stack = [(t, False)]
        while stack:
            node, done = stack.pop()
            if node in memo:
                continue
            label, kids = node
            if label == HOLE:
                memo[node] = hole
            elif not kids:
                memo[node] = frozenset(self.a.rules.get((label, ()), ()))
            elif done:
                acc: set = set()
                for combo in itertools.product(*(memo[c] for c in kids)):
                    acc |= self.a.rules.get((label, combo), set())
                memo[node] = frozenset(acc)
            else:
                stack.append((node, True))
                stack.extend((c, False) for c in kids if c not in memo)
        return memo[t]

    def accepts(self, t: tuple) -> bool:
        return bool(self.states(t) & self.a.final)


_trees: dict = {}


def trees_upto(alphabet: dict, h: int, hole: bool = False) -> list:
    """Every tree (or, with hole, every tree over the alphabet plus the hole)
    of height <= h."""
    key = (tuple(sorted(alphabet.items())), h, hole)
    if key not in _trees:
        entries = dict(alphabet, **({HOLE: 0} if hole else {}))
        by_height = [[(s, ()) for s, k in sorted(entries.items()) if k == 0]]
        for _ in range(1, h):
            below = [t for level in by_height for t in level]
            top = set(by_height[-1])
            level = []
            for s, k in sorted(entries.items()):
                if k:
                    level.extend(
                        (s, combo) for combo in itertools.product(below, repeat=k)
                        if any(c in top for c in combo)
                    )
            by_height.append(level)
        _trees[key] = [t for level in by_height for t in level]
    return _trees[key]


def holes(t: tuple) -> int:
    count, stack = 0, [t]
    while stack:
        label, kids = stack.pop()
        count += label == HOLE
        stack.extend(kids)
    return count


def contexts_upto(alphabet: dict, h: int) -> list:
    return [t for t in trees_upto(alphabet, h, hole=True) if holes(t) == 1]


def count_trees(alphabet: dict, h: int) -> int:
    """Trees of height <= h, by the recurrence T(h) = nullary + sum T(h-1)^k."""
    nullary = sum(1 for k in alphabet.values() if k == 0)
    t = nullary
    for _ in range(1, h):
        t = nullary + sum(t ** k for k in alphabet.values() if k)
    return t


def count_contexts(alphabet: dict, h: int) -> int:
    """One-hole contexts of height <= h: C(h) = 1 + sum k C(h-1) T(h-1)^(k-1)."""
    c = 1
    for level in range(1, h):
        t = count_trees(alphabet, level)
        c = 1 + sum(k * c * t ** (k - 1) for k in alphabet.values() if k)
    return c


def language(a: Auto, h: int) -> set:
    runs = Runs(a)
    return {format_tree(t) for t in trees_upto(a.alphabet, h) if runs.accepts(t)}


def spine(x: tuple) -> tuple:
    out, node = [], x
    while node[0] != HOLE:
        i = next(j for j, c in enumerate(node[1]) if holes(c))
        out.append((node[0], i))
        node = node[1][i]
    return tuple(out)


def wpre(a: Auto, x: tuple, target: set) -> set:
    runs = Runs(a)
    return {q for q in a.states if runs.states(x, frozenset({q})) & target}


def pre(a: Auto, x: tuple, target: set) -> set:
    """Spine preimage on the reachable part: empty when even the weak preimage
    is empty, otherwise the argument states met walking the spine down."""
    a = restrict(a, reachable(a))
    target = set(target) & set(a.states)
    if not wpre(a, x, target):
        return set()
    r = target
    for sym, i in spine(x):
        r = {args[i] for (s, args), ts in a.rules.items() if s == sym and ts & r}
    return r


def is_deterministic(a: Auto) -> bool:
    return all(len(ts) <= 1 for ts in a.rules.values())


def is_codeterministic(a: Auto) -> bool:
    seen: dict = {}
    for (sym, args), ts in a.rules.items():
        if args:
            for q in ts:
                if seen.setdefault((q, sym), args) != args:
                    return False
    return len(a.final) == 1


def is_total(a: Auto) -> bool:
    return all(
        (sym, args) in a.rules
        for sym, k in a.alphabet.items()
        for args in itertools.product(a.states, repeat=k)
    )


def subset_name(states) -> str:
    return "{" + ",".join(sorted(states)) + "}"
