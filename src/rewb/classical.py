"""Classical operations on data-free expressions.

Used to build the complement pieces of the PCP non-solution expression:
position NFA, subset construction over an explicit alphabet, complement by
flipping accepting sets, and conversion back to an expression by state
elimination. Output size is kept in check by explicit budgets; exceeding
one raises BudgetError instead of silently truncating.
"""

from __future__ import annotations

from . import expr as E
from .automata import register_nfa
from .errors import BudgetError, ValidationError


def determinize(e: E.Rewb, alphabet, state_budget: int = 64):
    """Subset construction of the position NFA of a data-free expression.

    Returns (transitions, finals, n_states) with a complete transition
    function over ``alphabet``; state 0 is initial.
    """
    for node in E.subexpressions(e):
        if isinstance(node, (E.Test, E.Bind)):
            raise ValidationError("determinize expects a data-free expression")
    nfa = register_nfa(e)
    succs, labels = nfa.succs, nfa.labels
    start = frozenset((0,))
    ids = {start: 0}
    order = [start]
    transitions = {}
    pos = 0
    while pos < len(order):
        current = order[pos]
        pos += 1
        for letter in alphabet:
            succ = frozenset(dst for q in current for dst in succs[q] if letter in labels[dst - 1][0])
            if succ not in ids:
                if len(ids) >= state_budget:
                    raise BudgetError(f"subset construction exceeded {state_budget} states")
                ids[succ] = len(order)
                order.append(succ)
            transitions[(ids[current], letter)] = ids[succ]
    finals = {ids[s] for s in order if s & nfa.finals}
    return transitions, finals, len(order)


def complement_regex(e: E.Rewb, alphabet, state_budget: int = 64, node_budget: int = 200_000):
    """An expression for the complement of ``e`` over ``alphabet``.

    Returns None when the complement is empty. The result is built by
    state elimination on the complemented subset automaton and can be much
    larger than the input.
    """
    transitions, finals, n_states = determinize(e, alphabet, state_budget)
    finals = set(range(n_states)) - finals
    return _eliminate(transitions, finals, n_states, alphabet, node_budget)


def _eliminate(transitions, finals, n_states, alphabet, node_budget):
    """Generalized-NFA state elimination; None stands for the empty regex."""

    def union(a, b):
        if a is None:
            return b
        if b is None:
            return a
        return E.Union(a, b)

    def concat(a, b):
        if a is None or b is None:
            return None
        if isinstance(a, E.Eps):
            return b
        if isinstance(b, E.Eps):
            return a
        return E.Concat(a, b)

    def star(a):
        if a is None or isinstance(a, E.Eps):
            return E.EPS
        if isinstance(a, E.Star):
            return a
        return E.Star(a)

    init, fin = "I", "F"
    arrows = {}

    def add(src, dst, piece):
        if piece is None:
            return
        arrows[(src, dst)] = union(arrows.get((src, dst)), piece)
        if arrows[(src, dst)].size > node_budget:
            raise BudgetError(f"state elimination exceeded {node_budget} regex nodes")

    add(init, 0, E.EPS)
    for q in finals:
        add(q, fin, E.EPS)
    for (q, letter), q2 in transitions.items():
        add(q, q2, E.Atom(letter))

    remaining = set(range(n_states))
    while remaining:
        ranked = min(
            remaining,
            key=lambda q: (
                sum(1 for (a, b) in arrows if b == q and a != q)
                * sum(1 for (a, b) in arrows if a == q and b != q),
                q,
            ),
        )
        remaining.discard(ranked)
        loop = star(arrows.pop((ranked, ranked), None))
        incoming = [(a, piece) for (a, b), piece in arrows.items() if b == ranked]
        outgoing = [(b, piece) for (a, b), piece in arrows.items() if a == ranked]
        for (a, _) in incoming:
            arrows.pop((a, ranked))
        for (b, _) in outgoing:
            arrows.pop((ranked, b))
        for a, into in incoming:
            for b, out in outgoing:
                add(a, b, concat(concat(into, loop), out))
    return arrows.get((init, fin))
