"""Membership of data words and evaluation of data path queries.

Three engines compute the same node-pair relation and cross-check each
other:

* ``eval_flat``: forward closure over configurations (node, automaton
  state, register tuple) of the flattened register NFA, one search from
  each source node. Register values only ever come from the graph or the
  starting valuation, so the configuration space is finite and the
  closure is sound and complete. A register tuple has one slot per free
  variable and one per binder nesting depth, shared by the binders at that
  depth. A move that stores a value or lets a binder's register die (no
  later guard reads it before a store) builds the next tuple in one splice
  that stores the value and empties the dead registers, so configurations
  that differ only in dead values are one. Two kernels search these
  configurations, and both number the register tuples they meet, so a
  tuple is hashed only when a move makes a new one:

  - ``_search``, depth-first over (node, state, tuple number), testing
    each guard with one call of its generated test. It serves
    ``eval_flat`` (and through it ``eval_any``) and the stratified
    engine's binding-free blocks, whose searches meet few tuples per
    (node, state): on the 22 ``eval_flat`` calls of the ``rpq`` benchmark
    (seed 7, each call's best of 15, summed, on a 2-CPU shared host) the
    layered kernel below took 35-36 ms against its 27-29.
  - ``_layered``, breadth-first in strict layers over (node, state)
    entries, each carrying the set of tuples that reach it as an int
    bitset, in the bit-parallel manner of Baeza-Yates and Gonnet applied
    to the register dimension. A guard is one call of a generated set
    function on all of an entry's new tuples. On the reduction gadgets a
    (node, state) is met with up to hundreds of tuples: on the 28
    SAT/WQSAT gadgets of the ``decide`` benchmark, timed alike,
    ``connected`` took 15-17 ms against ``_search``'s 35-38.
    It serves ``connected`` and ``witness_path`` through one search per
    source: a generator that records every entry's parents and yields
    each node the first time it is reached in a final state. A graph keeps
    its last such search, keyed by the NFA, the initial register tuple and
    the source; ``connected`` resumes it until the target is yielded or the
    search ends, and ``witness_path`` reads a shortest path back from the
    records up to the one that first reached the target. So ``connected``
    and then ``witness_path`` on one pair, or every target from one source,
    cost one search. The memory held is one search's records per graph,
    freed with the graph. A graph's search is not thread-safe: two threads
    must not ask ``connected`` or ``witness_path`` on one graph at once.

  ``member`` and ``eval_oracle`` share one interpreted step (``_step``)
  over dict valuations that keep every binding, the reference for the
  compiled forms.

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
by one cached step (``_renamed``) that returns a well-named tree as it is,
so the stratified engine walks the renaming the compile step made; the
witness, gadget and PCP generators build well-named trees, so theirs are
never renamed. The register liveness and the compiled guards are made
when a search first runs on an NFA, so ``member`` never pays for them.
Expressions with free variables are evaluated under an explicit
valuation covering them ("compatible"); the ``*_any`` variants close
them off by enumerating input data values plus one shared fresh value,
which suffices because conditions only compare a variable against the
current letter's value, never variables against each other.

The empty word is in the language of every epsilon-accepting expression,
so such queries put (v, v) in the result for every node v.
"""

from __future__ import annotations

import itertools
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


@lru_cache(maxsize=256)
def _renamed(e):
    """A well-named form of ``e``: ``e`` itself if it is one, else
    ``alpha_rename(e)``, so the compile step and the stratified engine
    rename a tree once between them."""
    return e if e.well_named else E.alpha_rename(e)


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


def _search(nfa, adj, val, start):
    """Depth-first search over configurations (node, state, register tuple number).

    Starts from ``start`` in the initial state with ``val`` in the free
    variables' slots and follows graph edges through the NFA's
    ``search_index``, whose moves store values and empty the registers that
    die there in one splice. The search numbers each register tuple it
    meets, in the order met, and keys a configuration by that number, so a
    tuple is hashed only where a move changes one. Returns the set of nodes
    reached in a final state.
    """
    finals = nfa.finals
    index = nfa.search_index
    unset = E.UNSET
    regs = _registers(nfa, val)
    tuples = [regs]
    number = {regs: 0}
    key0 = (start, 0, 0)
    hits = {start} if 0 in finals else set()
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
    return _reached(nfa, g, val, u, v)[1] is not None


def eval_any(e: E.Rewb, g: DataGraph) -> set:
    """Union of eval_flat over all closing valuations of the free variables."""
    return set().union(*(eval_flat(e, g, val) for val in _closing_valuations(e.free, g.data_values())))


def witness_path(e: E.Rewb, g: DataGraph, val, u, v):
    """One shortest witness path from u to v, or None.

    The returned edge list's label sequence is accepted by ``e`` under
    ``val``, and no shorter such path exists: ``_layered`` reaches each
    configuration first in the layer of its fewest edges, and the path is
    read back from its parent records, from the first tuple that reached
    ``v`` in a final state. After ``connected`` with the same arguments it
    reads the records of that call's search and searches no further.
    """
    val = dict(val or {})
    nfa = _checked_nfa(e, val)
    _check_nodes(g, u, v)
    parents, i = _reached(nfa, g, val, u, v)
    if i is None:
        return None
    path = []
    key, bits = parents[i - 1][:2] if i else ((u, 0), 1)
    r = (bits & -bits).bit_length() - 1
    while key != (u, 0):  # no move enters state 0, so (u, 0) holds only tuple 0
        # A tuple's record comes after its parent's, and each (entry, tuple)
        # is in exactly one record, so one backward scan finds them all.
        i -= 1
        while parents[i][0] != key or not parents[i][1] >> r & 1:
            i -= 1
        _, _, key, edge, origin = parents[i]
        path.append(edge)
        if origin is not None:
            r = origin[r]
    path.reverse()
    return path


def _reached(nfa, g, val, u, v):
    """(parents, i): the parent records of the search from ``u``, and how
    many of them lead up to the one that first reached ``v`` in a final
    state, 0 when that is ``u`` in the initial state; ``i`` is None when no
    accepted path leads from ``u`` to ``v``.

    Resumes the graph's running ``_layered`` search (``search_memo``), only
    as far as ``v`` needs, when it has the same NFA, initial register tuple
    and source, and otherwise starts a new one in its place. A search that
    raises is dropped: a generator that raised is finished, and resuming it
    would read as no path. Not thread-safe.
    """
    key = (nfa, _registers(nfa, val), u)
    memo = g.search_memo
    run = memo.get(key)
    if run is None:
        memo.clear()
        parents = []
        run = memo[key] = (_layered(nfa, g.out_edges(), val, u, parents), parents, {})
    steps, parents, hits = run
    if v not in hits:
        try:
            for node in steps:
                hits[node] = len(parents)
                if node == v:
                    break
        except BaseException:
            memo.clear()
            raise
    return parents, hits.get(v)


def _layered(nfa, adj, val, start, parents):
    """Breadth-first search over (node, state) entries, each with the set of
    register tuples that reach it as an int bitset over the tuple numbers.

    Starts like ``_search`` and yields the same nodes, each the first time
    it is reached in a final state; a caller resumes it only as far as it
    needs. The search runs in strict layers: a layer merges every tuple
    that reaches an entry in it before the next layer expands that entry,
    so each (node, state, tuple) is reached first after its fewest edges. A
    move's guard is one call of its ``mask_index`` set function on all new
    tuples of the entry (``buckets`` holds, per slot, the bitset of the
    tuples of each value); a splice maps the tuples it keeps one by one
    through the numbering. Every entry that gains tuples appends a record
    (entry, new tuples, parent entry, edge, origin) to the list ``parents``,
    where ``origin`` maps each new tuple number to the one it was spliced
    from, or is None when the move keeps the tuples. When a node is
    yielded, the last record holds the final entry that reached it, and
    none does for ``start`` in the initial state. Which layer reaches an
    entry does not depend on how far the caller resumes, so neither do the
    records.
    """
    finals = nfa.finals
    index = nfa.mask_index
    unset = E.UNSET
    regs = _registers(nfa, val)
    tuples = [regs]
    number = {regs: 0}
    buckets = [{value: 1} for value in regs]
    hits = set()
    if 0 in finals:
        hits.add(start)
        yield start
    seen = {(start, 0): 1}
    layer = dict(seen)
    while layer:
        nxt = {}
        for key, bits in layer.items():
            node, q = key
            out = index[q]
            for edge in adj[node]:
                entries = out.get(edge[1])
                if entries is None:
                    continue
                d, dst = edge[2], edge[3]
                for q2, mask, splice in entries:
                    kept = bits if mask is None else mask(d, buckets, bits)
                    if not kept:
                        continue
                    origin = None
                    if splice is not None:
                        origin = {}
                        moved = 0
                        while kept:
                            low = kept & -kept
                            kept ^= low
                            r = low.bit_length() - 1
                            stored = splice(tuples[r] + (d, unset))
                            r2 = number.get(stored)
                            if r2 is None:
                                r2 = number[stored] = len(tuples)
                                tuples.append(stored)
                                for bucket, value in zip(buckets, stored):
                                    bucket[value] = bucket.get(value, 0) | 1 << r2
                            moved |= 1 << r2
                            origin.setdefault(r2, r)
                        kept = moved
                    k2 = (dst, q2)
                    old = seen.get(k2, 0)
                    new = kept & ~old
                    if not new:
                        continue
                    seen[k2] = old | new
                    nxt[k2] = nxt.get(k2, 0) | new
                    parents.append((k2, new, key, edge, origin))
                    if q2 in finals and dst not in hits:
                        hits.add(dst)
                        yield dst
        layer = nxt


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
