"""Independent reference implementations used only by the tests.

These deliberately avoid the package's compilation pipeline so that each
tested operation has a second, structurally different route to the same
answer: a grammar-derivation search for levels, tree walks for the
variable facts that nodes carry, membership by structural recursion on the
expression tree, and query evaluation by literal enumeration of all short
walks. Witness lengths come from a layered search that takes the register
NFA but not the search kernel: it keeps dict valuations and interprets
guards with ``satisfies``.
"""

from __future__ import annotations

import rewb.expr as E
from rewb.automata import register_nfa
from rewb.evaluate import member


# ---------------------------------------------------------------------------
# Level decision by grammar derivation


def _has_bind(e):
    return any(isinstance(n, E.Bind) for n in E.subexpressions(e))


def in_f(e, i, memo=None):
    memo = memo if memo is not None else {}
    key = ("f", e, i)
    if key in memo:
        return memo[key]
    if i == 0:
        out = not _has_bind(e)
    elif in_e(e, i, memo):
        out = True
    elif isinstance(e, (E.Union, E.Concat)):
        out = in_f(e.left, i, memo) and in_f(e.right, i, memo)
    elif isinstance(e, E.Star):
        out = in_f(e.body, i, memo)
    else:
        out = False
    memo[key] = out
    return out


def in_e(e, i, memo=None):
    memo = memo if memo is not None else {}
    key = ("e", e, i)
    if key in memo:
        return memo[key]
    if i < 1:
        out = False
    elif in_f(e, i - 1, memo):
        out = True
    elif isinstance(e, (E.Union, E.Concat)):
        out = in_e(e.left, i, memo) and in_e(e.right, i, memo)
    elif isinstance(e, E.Bind):
        out = in_e(e.body, i, memo)
    else:
        out = False
    memo[key] = out
    return out


def derivation_levels(e):
    """Minimal F and E levels found by trying each level in turn."""
    memo = {}
    bound = E.size(e) + 2
    f_level = next(i for i in range(bound) if in_f(e, i, memo))
    e_level = next(i for i in range(1, bound) if in_e(e, i, memo))
    return f_level, e_level


# ---------------------------------------------------------------------------
# Variable facts by tree walks


def free_vars(e):
    """Variables with a condition occurrence not under a binder of that name."""
    out = set()

    def walk(node, bound):
        if isinstance(node, E.Test):
            out.update(E.cond_vars(node.cond) - bound)
        elif isinstance(node, E.Bind):
            walk(node.body, bound | {node.var})
        else:
            for c in E.children(node):
                walk(c, bound)

    walk(e, frozenset())
    return out


def all_vars(e):
    """Every variable occurring in ``e``: free, bound, or in a condition."""
    out = free_vars(e)
    out.update(E.binder_vars(e))
    for c in E.conditions_in(e):
        out.update(E.cond_vars(c))
    return out


def is_well_named(e):
    """Binder names pairwise distinct and disjoint from the free variables."""
    binders = E.binder_vars(e)
    return len(binders) == len(set(binders)) and not (set(binders) & free_vars(e))


# ---------------------------------------------------------------------------
# Membership by structural recursion (no automaton involved)


def recursive_member(e, w, val):
    w = tuple(w)
    memo = {}

    def match(node, lo, hi, valuation):
        key = (id(node), lo, hi, tuple(sorted(valuation.items())))
        if key in memo:
            return memo[key]
        memo[key] = out = _match(node, lo, hi, valuation)
        return out

    def _match(node, lo, hi, valuation):
        if isinstance(node, E.Eps):
            return lo == hi
        if isinstance(node, E.Atom):
            return hi == lo + 1 and w[lo][0] == node.letter
        if isinstance(node, E.Test):
            return (
                hi == lo + 1
                and w[lo][0] == node.letter
                and E.satisfies(node.cond, w[lo][1], valuation)
            )
        if isinstance(node, E.Union):
            return match(node.left, lo, hi, valuation) or match(node.right, lo, hi, valuation)
        if isinstance(node, E.Concat):
            return any(
                match(node.left, lo, mid, valuation) and match(node.right, mid, hi, valuation)
                for mid in range(lo, hi + 1)
            )
        if isinstance(node, E.Star):
            if lo == hi:
                return True
            return any(
                match(node.body, lo, mid, valuation) and match(node, mid, hi, valuation)
                for mid in range(lo + 1, hi + 1)
            )
        if hi <= lo or w[lo][0] != node.letter:
            return False
        return match(node.body, lo + 1, hi, {**valuation, node.var: w[lo][1]})

    return match(e, 0, len(w), dict(val))


# ---------------------------------------------------------------------------
# Evaluation by literal walk enumeration


def all_walks(g, start, max_len):
    """Every walk (edge sequence) from ``start`` of length <= max_len."""
    adj = g.out_edges()

    def extend(node, path):
        yield path
        if len(path) == max_len:
            return
        for edge in adj[node]:
            yield from extend(edge[3], path + (edge,))

    yield from extend(start, ())


def brute_pairs(e, g, val, max_len, decide=member):
    """Pairs connected by a walk of length <= max_len whose labels are
    accepted; meant for tiny graphs only.

    ``decide`` picks the membership test: the package's own (to check the
    oracle engine's contract) or ``recursive_member`` (for full
    independence from the compiled automaton).
    """
    pairs = set()
    for u in g.nodes:
        for walk in all_walks(g, u, max_len):
            end = walk[-1][3] if walk else u
            if (u, end) in pairs:
                continue
            labels = tuple((letter, value) for _, letter, value, _ in walk)
            if decide(e, labels, val):
                pairs.add((u, end))
    return pairs


def shortest_witness_length(e, g, val, u, v):
    """Fewest edges of a data path from u to v in the language of ``e``
    under ``val``, or None.

    A layered breadth-first search over configurations (node, state, dict
    valuation) of the register NFA that interprets guards with
    ``satisfies``: layer k holds the configurations first reached after k
    edges.
    """
    nfa = register_nfa(E.alpha_rename(e))
    adj = g.out_edges()
    layer = {(u, 0, tuple(sorted(val.items()))): dict(val)}
    seen = set(layer)
    length = 0
    while layer:
        if any(node == v and q in nfa.finals for node, q, _ in layer):
            return length
        nxt = {}
        for (node, q, _), cur in layer.items():
            for _, letter, d, dst in adj[node]:
                for guard, store, q2 in nfa.moves(q, letter):
                    if guard is not None and not E.satisfies(guard, d, cur):
                        continue
                    new = cur if store is None else {**cur, store: d}
                    key = (dst, q2, tuple(sorted(new.items())))
                    if key not in seen:
                        seen.add(key)
                        nxt[key] = new
        layer = nxt
        length += 1
    return None


def reachable_finals(e, g, val, u):
    """The nodes a data path from ``u`` in the language of ``e`` reaches
    under ``val``, by a search over configurations (node, state, dict
    valuation) that interprets guards with ``satisfies``.

    It explores every configuration, so it raises UndefinedVariableError
    exactly when some reachable move's guard reads a variable that has no
    value.
    """
    nfa = register_nfa(E.alpha_rename(e))
    adj = g.out_edges()
    start = (u, 0, tuple(sorted(val.items())))
    seen = {start: dict(val)}
    todo = [start]
    hits = {u} if 0 in nfa.finals else set()
    while todo:
        key = todo.pop()
        cur = seen[key]
        for _, letter, d, dst in adj[key[0]]:
            for guard, store, q2 in nfa.moves(key[1], letter):
                if guard is not None and not E.satisfies(guard, d, cur):
                    continue
                new = cur if store is None else {**cur, store: d}
                k2 = (dst, q2, tuple(sorted(new.items())))
                if k2 not in seen:
                    seen[k2] = new
                    todo.append(k2)
                    if q2 in nfa.finals:
                        hits.add(dst)
    return hits


# ---------------------------------------------------------------------------
# Expression shapes (labels never influence levels)


def all_shapes(max_size):
    """Every expression shape of the given size budget, instantiated with
    fixed labels; the level operators only inspect node kinds."""
    by_size = {1: [E.Atom("a")]}
    for size in range(2, max_size + 1):
        bucket = []
        for body in by_size[size - 1]:
            bucket.append(E.Star(body))
            bucket.append(E.Bind("a", "x", body))
        for left_size in range(1, size - 1):
            for left in by_size[left_size]:
                for right in by_size[size - 1 - left_size]:
                    bucket.append(E.Union(left, right))
                    bucket.append(E.Concat(left, right))
        by_size[size] = bucket
    for size in range(1, max_size + 1):
        yield from by_size[size]


# ---------------------------------------------------------------------------
# NNF formula enumeration (binary connectives)


def nnf_formulas(atoms, depth):
    """All formulas up to the given connective depth, literals first."""
    from rewb.gadgets import FAnd, FOr, Neg, Pos

    layers = [[Pos(a) for a in atoms] + [Neg(a) for a in atoms]]
    for _ in range(depth):
        previous = layers[-1]
        grown = list(previous)
        for left in previous:
            for right in previous:
                grown.append(FAnd((left, right)))
                grown.append(FOr((left, right)))
        layers.append(grown)
    return layers[-1]
