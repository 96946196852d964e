"""Membership of data words and evaluation of data path queries.

Three engines compute the same node-pair relation and cross-check each
other:

* ``eval_flat``: forward closure over configurations (node, automaton
  state, register tuple) of the flattened register NFA, one search from
  each source node. Register values only ever come from the graph or the
  starting valuation, so the configuration space is finite and the
  closure is sound and complete. This configuration search (``_search``)
  runs depth-first, which reaches a target after fewer configurations on
  the reduction gadgets; ``connected`` stops it at a target node, and the
  stratified engine runs it on binding-free blocks. ``witness_path``
  searches the same configurations goal-directed instead: A* ordered by
  edges taken plus the graph distance to the target, keeping parent links
  to read off a shortest path. A register tuple has one slot per free
  variable and one per binder nesting depth, shared by the binders at that
  depth. Each search numbers the register tuples it meets, so a
  configuration is (node, state, tuple number) and a tuple is hashed only
  when a move makes a new one. It tests each guard with one call of its
  generated function, and a move that stores a value or lets a binder's
  register die (no later guard reads it before a store) builds the next
  tuple in one splice that stores the value and empties the dead
  registers, so configurations that differ only in dead values are one.
  The two searches keep their own move loops, and ``connected`` the
  depth-first one: one move generator for both cost ``rpq`` 794 -> 666
  and ``decide`` 626 -> 561 ops/s over 4 alternating benchmark pairs, and
  A* for ``connected`` cost ``decide`` 590 -> 411. ``member`` and
  ``eval_oracle`` share one interpreted step (``_step``) over dict
  valuations that keep every binding, the reference for the compiled form.

* ``eval_stratified``: the per-level scheme. It computes the row of the
  query at each source node: the nodes that a path from it in the
  language reaches. A binding-free block's row is one search as above,
  with guards reading only the block's valuation. Any other block walks
  its hierarchical automaton from the source, binding the edge's value at
  a BindRead and following the row of a lower block from the current node
  at a SubExpr; F-shaped automata have no BindRead, so one walk serves
  both shapes. A block is thus evaluated only from the nodes a walk
  reaches. Rows are memoized per (block, valuation restricted to its free
  variables, source), and the walk keeps dict valuations, so it checks the
  flat engine's register tuples independently.

* ``eval_oracle``: bounded-length path search. Semantically this
  enumerates every data path up to ``max_len`` edges and keeps the pairs
  whose label sequence is accepted; the implementation walks paths
  breadth-first while merging prefixes that reach the same node with the
  same set of live automaton configurations, which returns exactly the
  enumeration's answer without its blowup. The default bound is
  (k^2 * n)^i where k is the largest automaton size among sub-expressions,
  n the node count and i the expression's E-level; the number of explored
  prefix classes is capped by a configurable budget.

Every entry point reads an expression's free variables from its node
(``free``) and takes its register NFA from one cached compile step
(``_compiled``), which builds the NFA from the position construction's
transitions as they come. A tree that is not well-named is renamed first,
and the renaming is shared (``_renamed``): the stratified engine walks the
one the compile step made, while it lives. The register liveness and the
compiled guards are made when a search first runs on an NFA, so
``member`` never pays for them. Expressions with free variables are
evaluated under an explicit valuation covering them ("compatible"); the
``*_any`` variants close them off by enumerating input data values plus
one shared fresh value, which suffices because conditions only compare a
variable against the current letter's value, never variables against
each other.

The empty word is in the language of every epsilon-accepting expression,
so such queries put (v, v) in the result for every node v.
"""

from __future__ import annotations

import itertools
import weakref
from functools import lru_cache

from . import expr as E
from .automata import BindRead, RegisterNfa, automaton_sizes, hier_automaton, register_nfa
from .data import DataGraph, DataWord, fresh_value, word_values
from .errors import BudgetError, CompatibilityError, ValidationError

DEFAULT_ORACLE_BUDGET = 500_000


def _vkey(val):
    return tuple(sorted(val.items()))


def _check_covers(free, val):
    missing = free - set(val)
    if missing:
        raise CompatibilityError(
            f"valuation does not cover free variables: {', '.join(sorted(missing))}"
        )


_renamings = weakref.WeakValueDictionary()


def _renamed(e):
    """A well-named form of ``e``: ``e`` itself if it is one, else
    ``alpha_rename(e)``, shared by every caller for as long as one holds it.

    The stratified engine's plan cache holds the renamings it walks, so a
    tree it evaluates is renamed once. Compiling needs a renaming only while
    it builds the NFA, so the flat engine does not keep a 12k-node one alive.
    """
    if e.well_named:
        return e
    renamed = _renamings.get(e)
    if renamed is None:
        renamed = _renamings[e] = E.alpha_rename(e)
    return renamed


@lru_cache(maxsize=256)
def _compiled(e):
    """Register NFA of the renaming of ``e``; a cached call hashes ``e`` in O(1)."""
    return register_nfa(_renamed(e))


def _checked_nfa(e, val):
    """The register NFA of ``e``, once ``val`` is known to cover its free variables."""
    _check_covers(e.free, val)
    return _compiled(e)


# ---------------------------------------------------------------------------
# Word membership


def member(e: E.Rewb, w: DataWord, val=None) -> bool:
    """Is ``w`` in the language of ``e`` under the compatible valuation?"""
    val = dict(val or {})
    return _member(_checked_nfa(e, val), w, val)


def _member(nfa, w, val):
    configs = {(0, _vkey(val)): val}
    for letter, d in w:
        configs = _step(nfa, configs, letter, d)
        if not configs:
            return False
    return any(q in nfa.finals for q, _ in configs)


def _step(nfa, configs, letter, d):
    """The configurations that reading ``letter`` with value ``d`` leads to.

    ``configs`` maps each configuration (state, valuation key) to its
    valuation, a dict that holds every binding made; guards are interpreted
    over it by ``satisfies``, the reference for the compiled searches.
    """
    index = nfa.index
    nxt = {}
    for (q, vk), v in configs.items():
        for guard, store, q2 in index[q].get(letter, ()):
            if guard is None or E.satisfies(guard, d, v):
                if store is None:
                    nxt.setdefault((q2, vk), v)
                else:
                    v2 = {**v, store: d}
                    nxt.setdefault((q2, _vkey(v2)), v2)
    return nxt


def _closing_valuations(free, values):
    """All valuations of ``free`` into ``values`` plus one shared fresh value."""
    free = sorted(free)
    pool = sorted(values)
    pool.append(fresh_value(values))
    for combo in itertools.product(pool, repeat=len(free)):
        yield dict(zip(free, combo))


def member_any(e: E.Rewb, w: DataWord) -> bool:
    """Is ``w`` in the language of ``e`` under some compatible valuation?"""
    nfa = _compiled(e)
    return any(_member(nfa, w, val) for val in _closing_valuations(e.free, word_values(w)))


# ---------------------------------------------------------------------------
# Configuration search


def _search(nfa, adj, val, start, target=None):
    """Depth-first search over configurations (node, state, register tuple number).

    Starts from ``start`` in the initial state with ``val`` in the free
    variables' slots and follows graph edges through the NFA's
    ``search_index``, whose moves store values and empty the registers that
    die there in one splice. The search numbers each register tuple it
    meets, in the order met, and keys a configuration by that number, so a
    tuple is hashed only where a move changes one. Returns the set of nodes
    reached in a final state. With ``target`` set, stops as soon as the
    target is in that set; depth-first order meets a reachable target after
    fewer configurations than breadth-first on the reduction gadgets.
    """
    finals = nfa.finals
    index = nfa.search_index
    unset = E.UNSET
    regs = _registers(nfa, val)
    tuples = [regs]
    number = {regs: 0}
    key0 = (start, 0, 0)
    hits = set()
    if 0 in finals:
        hits.add(start)
        if start == target:
            return hits
    seen = {key0}
    todo = [key0]
    while todo:
        key = todo.pop()
        node, q, r = key
        regs = tuples[r]
        out = index[q]
        for edge in adj[node]:
            entries = out.get(edge[1])
            if entries is None:
                continue
            d, dst = edge[2], edge[3]
            for q2, test, splice in entries:
                if test is not None and not test(d, regs):
                    continue
                if splice is None:
                    k2 = (dst, q2, r)
                else:
                    stored = splice(regs + (d, unset))
                    r2 = number.get(stored)
                    if r2 is None:
                        r2 = number[stored] = len(tuples)
                        tuples.append(stored)
                    k2 = (dst, q2, r2)
                if k2 in seen:
                    continue
                seen.add(k2)
                todo.append(k2)
                if q2 in finals:
                    hits.add(dst)
                    if dst == target:
                        return hits
    return hits


def _registers(nfa, val):
    """The initial register tuple: ``val`` in the free-variable slots, the
    binders' slots (dead at state 0) empty."""
    return tuple(val.get(var, E.UNSET) for var in nfa.free) + (E.UNSET,) * (nfa.width - len(nfa.free))


def eval_flat(e: E.Rewb, g: DataGraph, val=None) -> set:
    """All pairs (u, v) connected by a data path in the language of ``e``."""
    val = dict(val or {})
    nfa, adj = _checked_nfa(e, val), g.out_edges()
    return {(u, v) for u in g.nodes for v in _search(nfa, adj, val, u)}


def _check_nodes(g, *nodes):
    for node in nodes:
        if node not in g.nodes:
            raise ValidationError(f"unknown node: {node!r}")


def connected(e: E.Rewb, g: DataGraph, val, u, v) -> bool:
    """Is there a data path from u to v in the language of ``e``?"""
    val = dict(val or {})
    nfa = _checked_nfa(e, val)
    _check_nodes(g, u, v)
    return v in _search(nfa, g.out_edges(), val, u, target=v)


def eval_any(e: E.Rewb, g: DataGraph) -> set:
    """Union of eval_flat over all closing valuations of the free variables."""
    nfa = _compiled(e)
    adj = g.out_edges()
    pairs = set()
    for val in _closing_valuations(e.free, g.data_values()):
        pairs |= {(u, v) for u in g.nodes for v in _search(nfa, adj, val, u)}
    return pairs


def witness_path(e: E.Rewb, g: DataGraph, val, u, v):
    """One shortest witness path from u to v, or None.

    The returned edge list's label sequence is accepted by ``e`` under
    ``val``, and no shorter such path exists. The search is A* over the
    configurations (node, state, register tuple number) that ``_search``
    uses, dead registers emptied alike, ordered by f = g + h: g counts the
    edges taken, and h is the fewest edges from the node to ``v`` in the
    graph with labels ignored.
    h never overestimates and drops by at most one per edge, so f never
    decreases along a route and the first final configuration at ``v``
    to be popped ends a shortest path. The queue is a list of buckets, one
    per f, each a stack, so configurations of equal f are taken
    depth-first. Configurations at nodes with no path to ``v`` are never
    queued; a queued configuration that a shorter route reaches is queued
    again with its new parent, and the entry left behind is skipped as
    stale when popped.
    """
    val = dict(val or {})
    nfa = _checked_nfa(e, val)
    _check_nodes(g, u, v)
    dist = _distances_to(g, v)
    if u not in dist:
        return None
    finals = nfa.finals
    index = nfa.search_index
    unset = E.UNSET
    adj = g.out_edges()
    regs = _registers(nfa, val)
    tuples = [regs]
    number = {regs: 0}
    key = (u, 0, 0)
    best = {key: (0, None, None)}
    f = dist[u]
    buckets = [[] for _ in range(f)]
    buckets.append([key])
    while f < len(buckets):
        bucket = buckets[f]
        while bucket:
            key = bucket.pop()
            node, q, r = key
            c = best[key][0]
            if c + dist[node] != f:
                continue
            if node == v and q in finals:
                path = []
                _c, key, edge = best[key]
                while edge is not None:
                    path.append(edge)
                    _c, key, edge = best[key]
                path.reverse()
                return path
            c += 1
            regs = tuples[r]
            out = index[q]
            for edge in adj[node]:
                entries = out.get(edge[1])
                if entries is None:
                    continue
                d, dst = edge[2], edge[3]
                h = dist.get(dst)
                if h is None:
                    continue
                for q2, test, splice in entries:
                    if test is not None and not test(d, regs):
                        continue
                    if splice is None:
                        k2 = (dst, q2, r)
                    else:
                        stored = splice(regs + (d, unset))
                        r2 = number.get(stored)
                        if r2 is None:
                            r2 = number[stored] = len(tuples)
                            tuples.append(stored)
                        k2 = (dst, q2, r2)
                    old = best.get(k2)
                    if old is not None and old[0] <= c:
                        continue
                    best[k2] = (c, key, edge)
                    f2 = c + h
                    while len(buckets) <= f2:
                        buckets.append([])
                    buckets[f2].append(k2)
        f += 1
    return None


def _distances_to(g, v):
    """Fewest edges from each node to ``v``, labels ignored, by a
    breadth-first search over the graph's shared reverse adjacency; a node
    with no path to ``v`` is absent."""
    preds = g.in_nodes()
    dist = {v: 0}
    frontier = [v]
    step = 0
    while frontier:
        step += 1
        nxt = []
        for node in frontier:
            for src in preds[node]:
                if src not in dist:
                    dist[src] = step
                    nxt.append(src)
        frontier = nxt
    return dist


# ---------------------------------------------------------------------------
# Stratified engine


def eval_stratified(e: E.Rewb, g: DataGraph, val=None) -> set:
    """Per-level evaluation; same result set as eval_flat."""
    val = dict(val or {})
    _check_covers(e.free, val)
    renamed = _renamed(e)
    adj = g.out_edges()
    val = {v: val[v] for v in e.free}
    memo = {}
    return {(u, v) for u in g.nodes for v in _strat(renamed, adj, val, u, memo)}


@lru_cache(maxsize=256)
def _plan(e):
    """How ``_strat`` evaluates the renamed block ``e``.

    A binding-free block is searched with its register NFA. Any other block
    is walked over its hierarchical automaton: the plan maps each state to
    its moves (label, free, dst), where ``free`` lists the sorted free
    variables of a SubExpr's block and is None for a BindRead.
    """
    if E.classify(e).f_level == 0:
        return _compiled(e)
    aut = hier_automaton(e)
    moves = {}
    for src, label, dst in aut.transitions:
        free = None if isinstance(label, BindRead) else sorted(label.expr.free)
        moves.setdefault(src, []).append((label, free, dst))
    return moves, aut.finals


def _strat(e, adj, val, u, memo):
    """The row of ``e`` at ``u``: the nodes that a path from ``u`` in its
    language reaches under ``val``, which holds exactly its free variables.
    Memoized in ``memo`` per (block, valuation, source)."""
    key = (e, _vkey(val), u)
    row = memo.get(key)
    if row is not None:
        return row
    plan = _plan(e)
    if isinstance(plan, RegisterNfa):
        memo[key] = row = _search(plan, adj, val, u)
        return row
    moves, finals = plan
    row = {u} if 0 in finals else set()
    key0 = (u, 0, key[1])
    seen = {key0: val}
    frontier = [key0]
    while frontier:
        nxt = []
        for cfg in frontier:
            node, q, vk = cfg
            vcur = seen[cfg]
            for label, free, q2 in moves.get(q, ()):
                if free is None:
                    steps = []
                    for _, letter, d, dst in adj[node]:
                        if letter == label.letter:
                            v2 = {**vcur, label.var: d}
                            steps.append(((dst, q2, _vkey(v2)), v2))
                else:
                    sub = {v: vcur[v] for v in free}
                    steps = [((b, q2, vk), vcur) for b in _strat(label.expr, adj, sub, node, memo)]
                for k2, v2 in steps:
                    if k2 not in seen:
                        seen[k2] = v2
                        nxt.append(k2)
                        if q2 in finals:
                            row.add(k2[0])
        frontier = nxt
    memo[key] = row
    return row


# ---------------------------------------------------------------------------
# Bounded path-enumeration engine


def oracle_bound(e: E.Rewb, g: DataGraph) -> int:
    """The default path-length bound (k^2 * n)^i for ``e`` on ``g``.

    Renaming changes no level, so ``k`` is counted on ``e`` itself.
    """
    k = max(automaton_sizes(e).values())
    n = len(g.nodes)
    i = E.classify(e).e_level
    return (k * k * n) ** i


def eval_oracle(
    e: E.Rewb,
    g: DataGraph,
    val=None,
    max_len: int | None = None,
    budget: int | None = None,
) -> set:
    """Pairs connected by an accepted data path of at most ``max_len`` edges.

    Equivalent to enumerating every data path up to the bound and testing
    its label sequence with ``member``; prefixes that reach the same node
    with the same live configuration set are merged, so the search stops
    as soon as no new (node, configuration set) class appears. ``budget``
    caps the number of explored classes; exceeding it raises BudgetError
    rather than returning a truncated result.
    """
    val = dict(val or {})
    nfa = _checked_nfa(e, val)
    if max_len is None:
        max_len = oracle_bound(e, g)
    if budget is None:
        budget = DEFAULT_ORACLE_BUDGET
    adj = g.out_edges()
    explored = 0
    pairs = set()
    for u in g.nodes:
        configs0 = {(0, _vkey(val)): val}
        seen = {(u, frozenset(configs0))}
        if 0 in nfa.finals:
            pairs.add((u, u))
        frontier = [(u, configs0)]
        depth = 0
        while frontier and depth < max_len:
            depth += 1
            nxt = []
            for node, configs in frontier:
                for _, letter, d, dst in adj[node]:
                    configs2 = _step(nfa, configs, letter, d)
                    if not configs2:
                        continue
                    prefix_class = (dst, frozenset(configs2))
                    if prefix_class in seen:
                        continue
                    seen.add(prefix_class)
                    explored += 1
                    if explored > budget:
                        raise BudgetError(f"path enumeration exceeded the budget of {budget} classes")
                    if any(q in nfa.finals for q, _ in configs2):
                        pairs.add((u, dst))
                    nxt.append((dst, configs2))
            frontier = nxt
    return pairs
