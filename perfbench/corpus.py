"""Seeded corpus generators for the benchmark.

Everything here is plain Python over the benchmark's own small automaton
record, with no call into treeca, so the inputs of a run depend only on the
workload seed.  Draws are stratified by the size of their reachable subset
construction, so every seed gets the same mix of small and large jobs and
the run-to-run spread reflects the program rather than the luck of the draw.
"""

from __future__ import annotations

import itertools
import random

Alphabet = dict  # symbol name -> arity

AB = {"a": 0, "b": 0, "f": 2}
ABG = {"a": 0, "b": 0, "f": 2, "g": 1}
BOOL = {"F": 0, "T": 0, "and": 2, "or": 2}
MONO = {"a": 0, "b": 0, "g": 1, "h": 1}
TERN = {"a": 0, "b": 0, "h": 3}


class Auto:
    """A bottom-up automaton as plain data: rules map (symbol, args) to targets."""

    def __init__(self, alphabet: Alphabet, states, rules, final):
        self.alphabet = dict(alphabet)
        self.states = list(states)
        self.rules = {key: set(ts) for key, ts in rules.items() if ts}
        self.final = set(final)

    def nullary(self):
        return sorted(s for s, k in self.alphabet.items() if k == 0)

    def text(self) -> str:
        """The bta file text."""
        return _text("bta", self.alphabet, self.states, self.final, [
            f"{sym}({','.join(args)}) -> {q}"
            for (sym, args), ts in sorted(self.rules.items()) for q in sorted(ts)
        ])

    def reversed_text(self) -> str:
        """The tta file text of the same rules read top-down."""
        return _text("tta", self.alphabet, self.states, self.final, [
            f"{q} -> {sym}({','.join(args)})"
            for (sym, args), ts in sorted(self.rules.items()) for q in sorted(ts)
        ])


def _text(kind, alphabet, states, marked, lines) -> str:
    head = [
        kind,
        "alphabet " + " ".join(f"{s}/{k}" for s, k in sorted(alphabet.items())),
        ("states " + " ".join(sorted(states))).rstrip(),
        (("final " if kind == "bta" else "initial ") + " ".join(sorted(marked))).rstrip(),
    ]
    return "\n".join(head + lines) + "\n"


def reachable(a: Auto) -> set:
    reach: set = set()
    changed = True
    while changed:
        changed = False
        for (sym, args), ts in a.rules.items():
            if all(q in reach for q in args) and not ts <= reach:
                reach |= ts
                changed = True
    return reach


def restrict(a: Auto, keep: set) -> Auto:
    rules = {
        key: ts & keep for key, ts in a.rules.items() if all(q in keep for q in key[1])
    }
    return Auto(a.alphabet, [q for q in a.states if q in keep], rules, a.final & keep)


def subsets(a: Auto, cap: int) -> list:
    """The reachable state subsets, the states of the determinized automaton;
    stops once more than cap are found.  Rules are indexed as bitmasks per
    argument position, so each argument tuple of subsets costs k ANDs."""
    index: dict[frozenset, int] = {}
    order: list[frozenset] = []

    def intern(s: frozenset) -> None:
        if s not in index:
            index[s] = len(order)
            order.append(s)

    for sym in a.nullary():
        intern(frozenset(a.rules.get((sym, ()), ())))
    tables = []  # per symbol: arity, rules, masks[position][subset], memo
    for sym, k in sorted(a.alphabet.items()):
        if k:
            rl = [(args, ts) for (s, args), ts in sorted(a.rules.items()) if s == sym]
            tables.append((k, rl, [[] for _ in range(k)], {}))
    m = 0
    while m < len(order) and len(order) <= cap:
        s = order[m]
        for k, rl, masks, memo in tables:
            for j in range(k):
                masks[j].append(sum(1 << r for r, (args, _) in enumerate(rl) if args[j] in s))
            for combo in itertools.product(range(m + 1), repeat=k):
                if m not in combo:
                    continue
                bits = -1
                for j, i in enumerate(combo):
                    bits &= masks[j][i]
                target = memo.get(bits)
                if target is None:
                    acc: set = set()
                    rest = bits
                    while rest:
                        low = rest & -rest
                        acc |= rl[low.bit_length() - 1][1]
                        rest ^= low
                    target = memo[bits] = frozenset(acc)
                intern(target)
        m += 1
    return order


def top_down_subsets(a: Auto, cap: int) -> list:
    """The reachable state subsets of the top-down subset construction: from
    the final set, each symbol's rules into a subset project to one subset
    per argument position.  Stops once more than cap are found."""
    into: dict = {}
    for (sym, args), ts in sorted(a.rules.items()):
        for q in ts:
            into.setdefault(q, []).append((sym, args))
    order = [frozenset(a.final)]
    seen = set(order)
    m = 0
    while m < len(order) and len(order) <= cap:
        by_symbol: dict = {}
        for q in sorted(order[m]):
            for sym, args in into.get(q, ()):
                by_symbol.setdefault(sym, []).append(args)
        for sym, arg_lists in sorted(by_symbol.items()):
            for j in range(a.alphabet[sym]):
                s = frozenset(args[j] for args in arg_lists)
                if s not in seen:
                    seen.add(s)
                    order.append(s)
        m += 1
    return order


# === generators ===================================================================

def random_nbta(rng: random.Random, alphabet: Alphabet, n: int, p: float = 0.3) -> Auto:
    """The roadmap generator: every non-nullary argument tuple is present with
    probability p, and each present cell gets each target with probability p.
    Nullary cells are always present.  The final set is {q0}."""
    states = [f"q{i}" for i in range(n)]
    rules = {}
    for sym, k in sorted(alphabet.items()):
        for args in itertools.product(states, repeat=k):
            if k and rng.random() >= p:
                continue
            rules[(sym, args)] = {q for q in states if rng.random() < p}
    return Auto(alphabet, states, rules, {"q0"})


def random_dtta_reversed(rng: random.Random, alphabet: Alphabet, n: int, p: float = 0.55) -> Auto:
    """A path-closed automaton: the bottom-up reading of a random deterministic
    top-down automaton (one initial state, at most one production per state and
    symbol), trimmed to its reachable states."""
    states = [f"p{i}" for i in range(n)]
    rules: dict = {}
    for q in states:
        for sym, k in sorted(alphabet.items()):
            if rng.random() < p:
                args = tuple(rng.choice(states) for _ in range(k))
                rules.setdefault((sym, args), set()).add(q)
    a = Auto(alphabet, states, rules, {states[0]})
    return restrict(a, reachable(a))


def random_small_bta(rng: random.Random, alphabet: Alphabet, n: int) -> Auto:
    """A small random automaton with n states: every cell gets a random target set."""
    states = [f"q{i}" for i in range(n)]
    rules = {}
    for sym, k in sorted(alphabet.items()):
        for args in itertools.product(states, repeat=k):
            rules[(sym, args)] = {q for q in states if rng.random() < 0.35}
    final = {q for q in states if rng.random() < 0.4} or {states[-1]}
    return Auto(alphabet, states, rules, final)


def stratified(rng: random.Random, make, size_of, bands, tries: int = 5000) -> list:
    """One draw per (lo, hi) band, redrawn until size_of(draw) lies in the band.
    A size may be a tuple; then lo and hi are tuples and bound it elementwise."""
    out = []
    for lo, hi in bands:
        for _ in range(tries):
            a = make(rng)
            if _within(lo, size_of(a), hi):
                out.append(a)
                break
        else:
            raise RuntimeError(f"no draw in size band {lo}..{hi} after {tries} tries")
    return out


def _within(lo, size, hi) -> bool:
    if isinstance(size, int):
        return lo <= size <= hi
    return all(l <= s <= h for l, s, h in zip(lo, size, hi))


def split_state(rng: random.Random, a: Auto) -> Auto:
    """A language-equivalent partner: one state gets a clone that copies every
    rule into and out of it, so the partner is equivalent but not isomorphic."""
    used = sorted({q for ts in a.rules.values() for q in ts})
    q = rng.choice(used)
    clone = q + "c"
    rules: dict = {}
    for (sym, args), ts in a.rules.items():
        new_ts = ts | {clone} if q in ts else set(ts)
        slots = [(p, clone) if p == q else (p,) for p in args]
        for variant in itertools.product(*slots):
            rules.setdefault((sym, variant), set()).update(new_ts)
    final = a.final | {clone} if q in a.final else a.final
    return Auto(a.alphabet, a.states + [clone], rules, final)


def drop_one_rule(rng: random.Random, a: Auto) -> Auto:
    """A partner with one single-target rule removed, a non-nullary one when
    there is any.  The language may or may not change; the reference decides
    which."""
    singles = sorted((sym, args, q) for (sym, args), ts in a.rules.items() for q in ts)
    sym, args, q = rng.choice([r for r in singles if r[1]] or singles)
    rules = {key: set(ts) for key, ts in a.rules.items()}
    rules[(sym, args)].discard(q)
    return Auto(a.alphabet, a.states, rules, a.final)


def rename(a: Auto, prefix: str) -> Auto:
    new = {q: prefix + str(i) for i, q in enumerate(sorted(a.states))}
    rules = {
        (sym, tuple(new[q] for q in args)): {new[q] for q in ts}
        for (sym, args), ts in a.rules.items()
    }
    return Auto(a.alphabet, [new[q] for q in a.states], rules, {new[q] for q in a.final})


def random_term(rng: random.Random, alphabet: Alphabet, size: int) -> tuple:
    """A random tree with about `size` nodes and logarithmic depth over
    branching alphabets; over unary-only alphabets it is a chain.  Trees are
    (label, children) tuples, built without recursion."""
    leaves = sorted(s for s, k in alphabet.items() if k == 0)
    inner = sorted(s for s, k in alphabet.items() if k > 0)
    branching = [s for s in inner if alphabet[s] > 1]
    # Build top-down with an explicit stack of (budget, slot) requests.
    root: list = [None]
    stack = [(size, root, 0)]
    while stack:
        budget, parent, slot = stack.pop()
        if budget <= 1:
            parent[slot] = (rng.choice(leaves), ())
            continue
        pool = branching if branching and budget > 2 else inner
        sym = rng.choice(pool)
        k = alphabet[sym]
        rest = budget - 1
        cuts = sorted(rng.randint(0, rest) for _ in range(k - 1))
        shares = [b - a for a, b in zip([0] + cuts, cuts + [rest])]
        kids: list = [None] * k
        node = [sym, kids]
        parent[slot] = node
        for i, share in enumerate(shares):
            stack.append((max(share, 1), kids, i))
    return _freeze(root[0])


def _freeze(node) -> tuple:
    """Turn the nested [label, [kids]] lists into tuples, iteratively."""
    out: dict[int, tuple] = {}
    stack = [(node, False)]
    while stack:
        cur, done = stack.pop()
        if isinstance(cur, tuple):
            out[id(cur)] = cur
            continue
        if done:
            out[id(cur)] = (cur[0], tuple(out[id(c)] for c in cur[1]))
        else:
            stack.append((cur, True))
            stack.extend((c, False) for c in cur[1])
    return out[id(node)]


def chain(symbols: list, leaf: str, depth: int, rng: random.Random) -> tuple:
    """A unary chain of the given depth over the given unary symbols."""
    t: tuple = (leaf, ())
    for _ in range(depth):
        t = (rng.choice(symbols), (t,))
    return t


def puncture_random_leaf(rng: random.Random, t: tuple) -> tuple:
    """Replace one leaf, chosen by a random walk from the root, with the hole."""
    path = []
    node = t
    while node[1]:
        i = rng.randrange(len(node[1]))
        path.append((node, i))
        node = node[1][i]
    sub: tuple = ("<>", ())
    for parent, i in reversed(path):
        kids = list(parent[1])
        kids[i] = sub
        sub = (parent[0], tuple(kids))
    return sub


def resample_off_spine(rng: random.Random, x: tuple, alphabet: Alphabet, size: int) -> tuple:
    """A context with the same spine as x: every sibling subtree hanging off
    the spine is redrawn."""
    path = []
    node = x
    while node[0] != "<>":
        i = next(j for j, c in enumerate(node[1]) if _has_hole(c))
        path.append((node, i))
        node = node[1][i]
    sub: tuple = ("<>", ())
    for parent, i in reversed(path):
        kids = [
            sub if j == i else random_term(rng, alphabet, max(1, size // (2 * len(path) + 1)))
            for j in range(len(parent[1]))
        ]
        sub = (parent[0], tuple(kids))
    return sub


def _has_hole(t: tuple) -> bool:
    stack = [t]
    while stack:
        node = stack.pop()
        if node[0] == "<>":
            return True
        stack.extend(node[1])
    return False


def format_tree(t: tuple) -> str:
    """The term syntax of a tree, built without recursion."""
    parts: list[str] = []
    stack: list = [t]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            parts.append(item)
            continue
        label, kids = item
        if not kids:
            parts.append(label)
            continue
        parts.append(label + "(")
        stack.append(")")
        for i in range(len(kids) - 1, -1, -1):
            stack.append(kids[i])
            if i:
                stack.append(",")
    return "".join(parts)
