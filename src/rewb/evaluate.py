"""Membership of data words and evaluation of data path queries.

Three engines compute the same node-pair relation and cross-check each
other; pick by the question asked:

* ``eval_flat`` (all pairs) and ``eval_any`` (all pairs under every
  closing valuation) search configurations (node, row, register tuple
  number) of the flattened register NFA depth-first from each source
  (``_search``): states with one move row have one future, so a hit is
  recorded on every move into a final state, and each call numbers tuples
  and splices them in one table for all its sources. ``connected`` and
  ``witness_path`` (one pair, and a shortest path for it) run a
  breadth-first search in layers that tests a guard on all the register
  tuples of a (node, state) at once (``_layered``); a graph keeps its last
  such search, so both on one pair cost one search. That search's records
  stay with the graph until the next one, and two threads must not search
  one graph at once. Register tuples have one slot per free variable and
  one per binder nesting depth, and a move empties the binder registers
  that die there, so configurations that differ only in dead values meet.

* ``eval_stratified`` evaluates level by level on kernels of its own
  (``_strat``, ``_row_search``): rows of node bitsets per block, memoized
  per (block, values of its free variables, source). It shares only the
  renaming with the flat engine, builds no register NFA and interprets
  guards, so it checks the flat engine with other code.

* ``eval_oracle`` searches data paths breadth-first up to a length bound,
  merging prefixes that reach one node with one set of configurations. It
  steps them with ``_step``, which interprets guards over dict valuations
  that keep every binding on the unreduced NFA: the reference semantics.

``member`` and ``member_any`` run a word on the NFA's ``reduced`` quotient,
which merges the positions with equal pasts, with compiled guards
(``_member``); ``selftest`` checks them against a ``_step`` run.

Every entry point but ``eval_stratified`` takes its register NFA from one
cached compile step (``_compiled``); a tree that is not well-named is
renamed first, once (``_renamed``). Expressions with free variables are
evaluated under a valuation covering them; the ``*_any`` variants close
them off with the input's data values plus one shared fresh value, which
suffices because conditions only compare a variable against the current
letter's value. An epsilon-accepting query puts (v, v) in the result for
every node v.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from operator import itemgetter

from . import expr as E
from .automata import BindRead, automaton_sizes, hier_automaton, register_nfa
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
    """Runs ``w`` on ``nfa.reduced``: each letter maps the set of
    configurations (state, register tuple) to the next through the compiled
    tests and splices of its ``word_index``. Accepts, and raises, exactly
    where ``_stepped`` does on ``nfa``: the classes of the quotient are
    reached by the (word, register tuple) pairs that reach their members."""
    red = nfa.reduced
    index = red.word_index
    unset = E.UNSET
    configs = {(0, _registers(red, val))}
    for letter, d in w:
        nxt = set()
        for q, regs in configs:
            for q2, test, splice in index[q].get(letter, ()):
                if test is None or test(d, regs):
                    nxt.add((q2, regs if splice is None else splice(regs + (d, unset))))
        if not nxt:
            return False
        configs = nxt
    finals = red.finals
    return any(q in finals for q, _ in configs)


def _stepped(nfa, w, val):
    """``_member`` by the interpreted ``_step`` on the unreduced ``nfa``, the
    reference that ``selftest`` checks it against."""
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


def _search(nfa, adj, val, sources):
    """Depth-first search over configurations (node, row number, register
    tuple number) from each node of ``sources``.

    A source starts in the initial state with ``val`` in the free variables'
    slots; the search follows graph edges through the NFA's ``row_index``,
    whose moves store values and empty the registers that die there in one
    splice. States with one row have one future, so a configuration is keyed
    by its row, and a node is hit whenever a move enters a final state, seen
    configuration or not: a row can be shared by a final and a non-final
    state. All sources share one table: register tuples numbered in the
    order met, and per tuple number and splice, the number of the tuple the
    splice makes from each value, so a tuple is built and hashed once per
    call. Returns the pairs (source, node hit from it).
    """
    rows, hit0 = nfa.row_index, 0 in nfa.finals
    unset = E.UNSET
    regs = _registers(nfa, val)
    tuples, number, made = [regs], {regs: 0}, [{}]
    pairs = set()
    for start in sources:
        key0 = (start, 0, 0)
        hits = {start} if hit0 else set()
        seen = {key0}
        todo = [key0]
        while todo:
            node, n, r = todo.pop()
            regs = tuples[r]
            spliced = made[r]
            out = rows[n]
            for edge in adj[node]:
                entries = out.get(edge[1])
                if entries is None:
                    continue
                d, dst = edge[2], edge[3]
                for n2, final, test, splice in entries:
                    if test is not None and not test(d, regs):
                        continue
                    if final:
                        hits.add(dst)
                    if splice is None:
                        k2 = (dst, n2, r)
                    else:
                        r2 = spliced.get((splice, d))
                        if r2 is None:
                            stored = splice(regs + (d, unset))
                            r2 = number.get(stored)
                            if r2 is None:
                                r2 = number[stored] = len(tuples)
                                tuples.append(stored)
                                made.append({})
                            spliced[splice, d] = r2
                        k2 = (dst, n2, r2)
                    if k2 in seen:
                        continue
                    seen.add(k2)
                    todo.append(k2)
        pairs.update((start, v) for v in hits)
    return pairs


def _registers(nfa, val):
    """The initial register tuple: ``val`` in the free-variable slots, the
    binders' slots (dead at state 0) empty."""
    return tuple(val.get(var, E.UNSET) for var in nfa.free) + (E.UNSET,) * (nfa.width - len(nfa.free))


def eval_flat(e: E.Rewb, g: DataGraph, val=None) -> set:
    """All pairs (u, v) connected by a data path in the language of ``e``."""
    val = dict(val or {})
    return _search(_checked_nfa(e, val), g.out_edges(), val, g.nodes)


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


def connected_any(e: E.Rewb, g: DataGraph, u, v) -> bool:
    """Is (u, v) in ``eval_any(e, g)``? ``connected`` under each closing
    valuation in turn, until one holds."""
    _check_nodes(g, u, v)
    return any(connected(e, g, val, u, v) for val in _closing_valuations(e.free, g.data_values()))


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
    needs. The search runs in strict layers: a layer merges every tuple that
    reaches an entry in it before the next layer expands that entry, so each
    (node, state, tuple) is reached first after its fewest edges. A move's
    guard is one call of its ``mask_index`` set function on all new tuples
    of the entry; a splice maps the tuples it keeps one by one through the
    numbering. ``buckets`` holds, per slot, the bitset of the indexed tuples
    of each value, and ``synced`` the indexed tuples. A tuple is indexed
    only just before a mask first runs on a set holding it, lowest number
    first, so the many tuples that a splice makes and no guard ever tests
    are never indexed. A mask reads the buckets only within its set, so it
    answers as it would on fully indexed buckets, and raises where it would.
    Every entry that gains tuples appends a record (entry, new tuples,
    parent entry, edge, origin) to the list ``parents``, where ``origin``
    maps each new tuple number to the one it was spliced from, or is None
    when the move keeps the tuples. When a node is yielded, the last record
    holds the final entry that reached it, and none does for ``start`` in
    the initial state. Which layer reaches an entry does not depend on how
    far the caller resumes, so neither do the records.
    """
    finals = nfa.finals
    index = nfa.mask_index
    unset = E.UNSET
    regs = _registers(nfa, val)
    tuples = [regs]
    number = {regs: 0}
    buckets = [{value: 1} for value in regs]
    synced = 1
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
            fresh = bits & ~synced
            for edge in adj[node]:
                entries = out.get(edge[1])
                if entries is None:
                    continue
                d, dst = edge[2], edge[3]
                for q2, mask, splice in entries:
                    kept = bits
                    if mask is not None:
                        if fresh:  # index the tuples no mask has read yet
                            synced |= fresh
                            while fresh:
                                low = fresh & -fresh
                                fresh ^= low
                                for bucket, value in zip(buckets, tuples[low.bit_length() - 1]):
                                    bucket[value] = bucket.get(value, 0) | low
                        kept = mask(d, buckets, bits)
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
    nodes = sorted(g.nodes)
    number = {node: i for i, node in enumerate(nodes)}
    adj = [{} for _ in nodes]  # per node number: letter -> [(value, target number)]
    for src, letter, d, dst in g.edges:
        adj[number[src]].setdefault(letter, []).append((d, number[dst]))
    top = tuple(val[v] for v in sorted(e.free))
    memo, tests = {}, {}
    pairs = set()
    for u, source in enumerate(nodes):
        row = _strat(renamed, top, u, adj, memo, tests)
        while row:
            low = row & -row
            row ^= low
            pairs.add((source, nodes[low.bit_length() - 1]))
    return pairs


@lru_cache(maxsize=256)
def _plan(e):
    """How ``_strat`` evaluates the renamed block ``e``: (free, width, rows, finals).

    ``free`` lists the block's free variables, sorted, and ``rows[q]`` the
    moves out of state ``q`` of its hierarchical automaton. A binding-free
    block has ``width`` None and rows of (letter, ((guard, dst), ...)), its
    Read moves grouped by letter. Any other block is walked with a tuple of
    ``width`` values in its own variable order: ``free``, then the
    variables its BindReads bind. Its rows are (binds, subs): binds are
    (letter, slot, dst), and subs are (block, pick, dst), where
    ``pick(values)`` is the tuple of the SubExpr block's free values.
    """
    aut = hier_automaton(e)
    free = tuple(sorted(e.free))
    if e.level.f_level == 0:
        moves = [{} for _ in aut.states]
        for src, label, dst in aut.transitions:
            moves[src].setdefault(label.letter, []).append((label.cond, dst))
        rows = [tuple((letter, tuple(ms)) for letter, ms in out.items()) for out in moves]
        return free, None, rows, aut.finals
    order = free + tuple(label.var for label in aut.labels if isinstance(label, BindRead))
    slot = {var: i for i, var in enumerate(order)}
    rows = [([], []) for _ in aut.states]
    for src, label, dst in aut.transitions:
        if isinstance(label, BindRead):
            rows[src][0].append((label.letter, slot[label.var], dst))
        else:
            pos = [slot[var] for var in sorted(label.expr.free)]
            if len(pos) < 2:  # a slice, since itemgetter of one index returns the item
                pos = [slice(*pos, pos[0] + 1) if pos else slice(0)]
            rows[src][1].append((label.expr, itemgetter(*pos), dst))
    return free, len(order), rows, aut.finals


def _strat(e, t, u, adj, memo, tests):
    """The row of block ``e`` at node number ``u``: the bitset of the node
    numbers that a path from ``u`` in its language reaches, where ``t``
    holds the values of its free variables in sorted order. Memoized in
    ``memo`` per (block, values, source); ``tests`` keeps, per binding-free
    (block, values), its valuation and the guards' answers by (guard, value).

    A block with binders or SubExprs is walked here over (node, state,
    value tuple), from ``t`` padded with one empty slot per binder: a
    BindRead puts the edge's value in its variable's slot, and a SubExpr
    ORs the lower block's row at the current node into the nodes of its
    (state, tuple) entry and goes on from the new ones. The walk is inline,
    so each level of nesting costs one frame of recursion.
    """
    key = (e, t, u)
    row = memo.get(key)
    if row is not None:
        return row
    free, width, rows, finals = _plan(e)
    if width is None:
        cache = tests.get((e, t))
        if cache is None:
            cache = tests[(e, t)] = (dict(zip(free, t)), {})
        row = memo[key] = _row_search(rows, finals, u, adj, *cache)
        return row
    t += (None,) * (width - len(t))
    seen = {(0, t): 1 << u}  # (state, tuple) -> bitset of nodes reached with it
    row = 1 << u if 0 in finals else 0
    todo = [(u, 0, t)]
    while todo:
        node, q, t = todo.pop()
        binds, subs = rows[q]
        for letter, k, q2 in binds:
            for d, dst in adj[node].get(letter, ()):
                t2 = t[:k] + (d,) + t[k + 1:]
                k2 = (q2, t2)
                bit = 1 << dst
                old = seen.get(k2, 0)
                if not old & bit:
                    seen[k2] = old | bit
                    todo.append((dst, q2, t2))
                    if q2 in finals:
                        row |= bit
        for block, pick, q2 in subs:
            k2 = (q2, t)
            old = seen.get(k2, 0)
            new = _strat(block, pick(t), node, adj, memo, tests) & ~old
            if new:
                seen[k2] = old | new
                if q2 in finals:
                    row |= new
                while new:
                    low = new & -new
                    new ^= low
                    todo.append((low.bit_length() - 1, q2, t))
    memo[key] = row
    return row


def _row_search(rows, finals, u, adj, val, passed):
    """Depth-first search of a binding-free block from node number ``u``
    over (node, state), its Read guards interpreted by ``satisfies`` under
    ``val`` and their answers kept in ``passed``; returns the bitset of the
    nodes reached in a final state."""
    seen = [0] * len(rows)  # per state, the bitset of nodes reached in it
    seen[0] = 1 << u
    todo = [(u, 0)]
    while todo:
        node, q = todo.pop()
        out = adj[node]
        for letter, moves in rows[q]:
            edges = out.get(letter)
            if edges is None:
                continue
            for guard, q2 in moves:
                for d, dst in edges:
                    if guard is not None:
                        ok = passed.get((guard, d))
                        if ok is None:
                            ok = passed[guard, d] = E.satisfies(guard, d, val)
                        if not ok:
                            continue
                    bit = 1 << dst
                    if not seen[q2] & bit:
                        seen[q2] |= bit
                        todo.append((dst, q2))
    row = 0
    for q in finals:
        row |= seen[q]
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
    if max_len is not None and max_len < 0:
        raise ValidationError(f"max_len must be at least 0, got {max_len}")
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
