"""Seeded random instances and the cross-engine selftest.

The generator parameters mirror the randomized agreement suite: small
graphs (few nodes, few edges, few distinct data values) and small
expressions with at most two variables and E-level at most two, which
keeps the default path-enumeration bound meaningful while still reaching
every node kind.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from . import expr as E
from .data import DataGraph, fresh_value, graph
from .errors import ValidationError
from .evaluate import (
    _compiled,
    _stepped,
    connected,
    eval_flat,
    eval_oracle,
    eval_stratified,
    member,
    witness_path,
)
from .syntax import print_expr, print_graph, print_valuation, print_word

LETTERS = ("a", "b")
VARIABLES = ("x", "y")
VALUES = ("1", "2", "3")


def random_cond(rng, variables, depth=1):
    roll = rng.random()
    if depth <= 0 or roll < 0.6:
        var = rng.choice(variables)
        return E.Eq(var) if rng.random() < 0.5 else E.Neq(var)
    if roll < 0.75:
        return E.Not(random_cond(rng, variables, depth - 1))
    left = random_cond(rng, variables, depth - 1)
    right = random_cond(rng, variables, depth - 1)
    return E.And(left, right) if rng.random() < 0.5 else E.Or(left, right)


def random_expr(rng, max_size, letters=LETTERS, variables=VARIABLES, max_e_level=None):
    """A random expression of at most ``max_size`` AST nodes."""
    while True:
        e = _rand_expr(rng, rng.randint(1, max_size), letters, variables)
        if max_e_level is None or E.classify(e).e_level <= max_e_level:
            return e


def _rand_expr(rng, budget, letters, variables):
    if budget <= 1:
        roll = rng.random()
        if roll < 0.1:
            return E.EPS
        if roll < 0.6:
            return E.Atom(rng.choice(letters))
        return E.Test(rng.choice(letters), random_cond(rng, variables))
    roll = rng.random()
    if roll < 0.3 and budget >= 3:
        split = rng.randint(1, budget - 2)
        kind = E.Union if rng.random() < 0.5 else E.Concat
        return kind(
            _rand_expr(rng, split, letters, variables),
            _rand_expr(rng, budget - 1 - split, letters, variables),
        )
    if roll < 0.5:
        return E.Star(_rand_expr(rng, budget - 1, letters, variables))
    if roll < 0.75:
        return E.Bind(
            rng.choice(letters),
            rng.choice(variables),
            _rand_expr(rng, budget - 1, letters, variables),
        )
    return _rand_expr(rng, budget - 1, letters, variables)


def random_word(rng, max_len, letters=LETTERS, values=VALUES):
    return tuple(
        (rng.choice(letters), rng.choice(values)) for _ in range(rng.randint(0, max_len))
    )


def random_graph(rng, max_nodes=5, max_edges=10, letters=LETTERS, values=VALUES) -> DataGraph:
    n = rng.randint(1, max_nodes)
    nodes = [f"n{i}" for i in range(n)]
    edges = set()
    for _ in range(rng.randint(0, max_edges)):
        edges.add(
            (
                rng.choice(nodes),
                rng.choice(letters),
                rng.choice(values),
                rng.choice(nodes),
            )
        )
    return graph(edges, nodes=nodes)


def random_valuation(rng, variables, values):
    pool = list(values) + [fresh_value(set(values))]
    return {v: rng.choice(pool) for v in variables}


@dataclass
class SelftestReport:
    cases: int
    failures: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.failures


def selftest(seed: int = 0, cases: int = 100) -> SelftestReport:
    """Run the three engines on random instances and compare result sets,
    check ``connected`` and ``witness_path`` against the flat result on
    every node pair, and ``member`` on one random word against a run of the
    interpreted step. The words come from a generator of their own, so the
    instances of a seed do not depend on them."""
    if cases < 0:
        raise ValidationError(f"cases must be at least 0, got {cases}")
    rng = random.Random(seed)
    words = random.Random(f"words {seed}")
    report = SelftestReport(cases)
    for case in range(cases):
        e = random_expr(rng, 8, max_e_level=2)
        g = random_graph(rng)
        val = random_valuation(rng, sorted(E.free_vars(e)), sorted(g.data_values()))
        flat = eval_flat(e, g, val)
        strat = eval_stratified(e, g, val)
        oracle = eval_oracle(e, g, val)
        pair = _pair_fault(e, g, val, flat)
        word = _member_fault(e, random_word(words, 6), val)
        if not (flat == strat == oracle) or pair or word:
            report.failures.append(
                {
                    "case": case,
                    "expr": print_expr(e),
                    "graph": print_graph(g),
                    "valuation": print_valuation(val),
                    "flat": sorted(flat),
                    "stratified": sorted(strat),
                    "oracle": sorted(oracle),
                    "pairs": pair,
                    "member": word,
                }
            )
    return report


def _member_fault(e, w, val):
    """A description of ``w`` if ``member`` and a ``_step`` run on the
    register NFA disagree on it, else None."""
    got, expected = member(e, w, val), _stepped(_compiled(e), w, dict(val))
    if got == expected:
        return None
    return f"{print_word(w) or 'the empty word'}: member says {got}, the interpreted step {expected}"


def _pair_fault(e, g, val, flat):
    """The first node pair whose ``connected`` answer or witness disagrees
    with ``flat``, as a short description, or None. ``connected`` must hold
    exactly on the pairs in ``flat``. A pair in ``flat`` must get a path
    that chains its nodes over graph edges and spells a word ``e`` accepts;
    a pair outside it must get None."""
    for u in sorted(g.nodes):
        for v in sorted(g.nodes):
            if connected(e, g, val, u, v) != ((u, v) in flat):
                return f"{u} -> {v}: connected disagrees with the flat result"
            path = witness_path(e, g, val, u, v)
            if (path is None) == ((u, v) in flat):
                return f"{u} -> {v}: witness {path} disagrees with the flat result"
            if path is None:
                continue
            at = u
            for edge in path:
                if edge not in g.edges or edge[0] != at:
                    return f"{u} -> {v}: path {path} does not chain over graph edges"
                at = edge[3]
            labels = tuple((letter, value) for _, letter, value, _ in path)
            if at != v or not member(e, labels, val):
                return f"{u} -> {v}: path {path} is not a witness"
    return None
