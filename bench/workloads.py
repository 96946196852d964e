"""Seeded inputs and the two workloads of the benchmark.

Every graph, query text, formula and word is made here, without
``rewb.randgen``, so that a library change cannot silently change the
workload; ``Workload.digest`` fingerprints the input texts so two commits
can be shown to have run identical inputs.

Inputs are drawn in two steps. Their shape (graph edges, clauses, which
instances are satisfiable) comes from a fixed draw, the same for every
seed; the run's seed then renames them (nodes, data values, atoms) and
picks the mutated PCP words. A renamed input costs the same as the
original, so runs with different seeds measure the same work and their
spread is the machine's, not the draw's: with a fresh shape per seed, the
median and slowest operations of two seeds, timed side by side in one
process, differed by up to 65%.

A workload separates four steps, all driven by ``run.py``:

* ``setup()``: what a user pays before the first answer (parse the input
  texts, build the expressions the program generates, one warm-up call per
  expression to fill the compile caches);
* ``op(key)``: one timed operation, mirroring one CLI command;
* ``answer(key, raw)``: reduce a result to a comparable value (untimed);
* ``expected(key)``: the independent reference answer (untimed).

``probe()`` and ``sweep()`` run only in the traced run: ``probe`` times the
compile steps of each distinct expression on their own and notes sizes;
``sweep`` calls every layer once on a tiny fixed input.
"""

from __future__ import annotations

import hashlib
import itertools
import random

import rewb
from rewb import expr as E

LETTERS = "abc"

# (text, evaluated under the run's valuation); level shapes in comments.
QUERIES = (
    ("(a+b)*.c", False),  # (0,1)
    ("a.(b.c)*.a", False),  # (0,1)
    ("a@x((b+c)*.a[x=])", False),  # (1,1), one variable
    ("b@x((a+c)*.b[x!=])", False),  # (1,1), one variable
    ("a@x(a@y((b[x=]+b[y=])*))", False),  # (1,1), two variables
    ("a@x(b@y(c[x!=]*.a[y=]))", False),  # (1,1), two variables
    ("(a@x((b[x!=])*.a[x=]))*", False),  # (1,2)
    ("(c@x(a*.c[x=]))*.b", False),  # (1,2)
    ("(c@x((a@y(b[y!=].c[x=]))*))*", False),  # (2,3)
    ("(a@x((b@y(c[y!=]))*.a[x=]))*", False),  # (2,3)
    ("a@x((b[z=]+c[x!=])*)", True),  # (1,1), z free
)

# A graph with one node and no edge: warm-up calls compile the query and
# find nothing to search.
WARMUP_GRAPH = "node w\n"

# Instance text -> mutated words per delta; over the deltas there is one
# mutated word per mutation kind. The deltas of ab/a,c/bc (35k nodes) take
# 40 to 60 ms a call, and calls that long could not be timed steadily on a
# shared host, so only the 12k-node deltas of a/ab,bb/b are measured.
PCP_INSTANCES = {"a/ab,bb/b": 3}
PCP_QUICK_INSTANCES = {"a/a": 1}
PCP_MUTATION_SEEDS = range(8)  # every kind holds on these, for a/ab,bb/b and a/a


def _digest(texts):
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode())
        h.update(b"\0")
    return h.hexdigest()


def pairs_digest(pairs):
    return _digest(sorted(f"{u} {v}" for u, v in pairs))


class Workload:
    """Base of the workloads; ``t`` is the tracer every layer call goes through."""

    name = ""

    def __init__(self, seed, quick, tracer):
        self.quick = quick
        self.t = tracer
        self.keys = []  # one round: every distinct operation once
        self.generate(random.Random(f"{self.name}:shape"), random.Random(f"{self.name}:{seed}"))

    def generate(self, shape, rename):
        """Draw the inputs' shape from ``shape`` and their names from ``rename``."""
        raise NotImplementedError

    def texts(self):
        """The generated input texts, in a fixed order."""
        raise NotImplementedError

    @property
    def digest(self):
        return _digest(self.texts())

    def setup(self):
        raise NotImplementedError

    def op(self, key):
        raise NotImplementedError

    def answer(self, key, raw):
        return raw

    def expected(self, key):
        raise NotImplementedError

    def probe(self):
        raise NotImplementedError

    def _probe_expr(self, e, hier=False):
        """Time the compile steps the engines run internally, one by one."""
        call = self.t.call
        call("expr.free_vars", E.free_vars, e)
        call("expr.classify", E.classify, e)
        renamed = call("expr.alpha_rename", E.alpha_rename, e)
        nfa = call("automata.register_nfa", rewb.register_nfa, renamed)
        self.t.note("expr.size.nodes", e, E.size(e))
        self.t.note("automata.register_nfa.states", e, len(nfa.states))
        self.t.note("automata.register_nfa.transitions", e, len(nfa.transitions))
        if hier:
            aut = call("automata.hier_automaton", rewb.hier_automaton, renamed)
            self.t.note("automata.hier_automaton.states", e, len(aut.states))


def sweep(t):
    """Call every layer once on a tiny fixed input.

    Every traced run does this, so a layer that the workload bypasses
    reports the measured busy time of one small call (and ``.calls`` 1)
    instead of a constant zero.
    """
    g = t.call("syntax.parse_graph", rewb.parse_graph, "edge u a 1 v\nedge v b 1 w\n")
    e = t.call("syntax.parse_expr", rewb.parse_expr, "a@x(b[x=])")
    t.call("syntax.print_expr", rewb.print_expr, e)
    t.call("expr.free_vars", E.free_vars, e)
    t.call("expr.classify", E.classify, e)
    renamed = t.call("expr.alpha_rename", E.alpha_rename, e)
    t.call("automata.register_nfa", rewb.register_nfa, renamed)
    t.call("automata.hier_automaton", rewb.hier_automaton, renamed)
    t.call("evaluate.eval_flat", rewb.eval_flat, e, g)
    t.call("evaluate.eval_stratified", rewb.eval_stratified, e, g)
    t.call("evaluate.connected", rewb.connected, e, g, {}, "u", "w")
    t.call("evaluate.witness_path", rewb.witness_path, e, g, {}, "u", "w")
    t.call("evaluate.member_any", rewb.member_any, e, rewb.parse_word("a:1 b:1"))
    phi = rewb.parse_nnf("p1 | !p2")
    t.call("gadgets.sat_reduction", rewb.sat_reduction, phi, ["p1", "p2"])
    blocks = rewb.WqsatInstance(phi, (("p1",), ("p2",)), (1, 1))
    t.call("gadgets.wqsat_reduction", rewb.wqsat_reduction, blocks)
    t.call("pcp.pcp_delta", rewb.pcp_delta, rewb.PcpInstance((("a", "a"),)), 1)


# ---------------------------------------------------------------------------
# Path queries over data graphs

ENGINES = (
    ("evaluate.eval_flat", rewb.eval_flat),
    ("evaluate.eval_stratified", rewb.eval_stratified),
)


def graph_edges(rng, nodes, values):
    """Edges (source, letter, value, target) over node and value indices.

    Each letter's edges are two random permutations of the nodes, so every
    node has exactly two in- and two out-edges per letter, and each
    permutation carries every data value equally often. Uniformly random
    edges at the same density sit near the threshold where per-letter
    reachability appears, and their query costs vary several-fold between
    draws; permutations keep that variation small.
    """
    edges = set()
    for letter in LETTERS:
        for _ in range(2):
            while True:
                dst = list(range(nodes))
                rng.shuffle(dst)
                vals = [i % values for i in range(nodes)]
                rng.shuffle(vals)
                new = {(u, letter, vals[u], dst[u]) for u in range(nodes)}
                if not new & edges:
                    break
            edges |= new
    return edges


def graph_text(edges, node_names, value_names):
    """The graph in the ``parse_graph`` text format, under the given names."""
    lines = [f"node {n}" for n in sorted(node_names)]
    lines += sorted(f"edge {node_names[s]} {a} {value_names[d]} {node_names[t]}" for s, a, d, t in edges)
    return "\n".join(lines) + "\n"


class Rpq(Workload):
    """All-pairs evaluation of fixed query texts over seeded data graphs.

    An operation parses one query and evaluates it on one graph with one
    engine, as ``rewb eval --engine <engine>`` does; every query runs on
    every graph with both engines, and each engine's answer is checked
    against the other's.
    """

    name = "rpq"

    def generate(self, shape, rename):
        n_graphs, nodes, values = (2, 6, 3) if self.quick else (2, 12, 6)
        value_names = [f"d{i}" for i in range(values)]
        rename.shuffle(value_names)
        self.graph_texts = []
        for _ in range(n_graphs):
            node_names = [f"n{i}" for i in range(nodes)]
            rename.shuffle(node_names)
            self.graph_texts.append(graph_text(graph_edges(shape, nodes, values), node_names, value_names))
        self.val_text = f"z={value_names[shape.randrange(values)]}"
        self.keys = [(e, q, g) for e in range(len(ENGINES)) for q in range(len(QUERIES)) for g in range(n_graphs)]

    def texts(self):
        return [text for text, _ in QUERIES] + [self.val_text] + self.graph_texts

    def setup(self):
        call = self.t.call
        self.graphs = [call("syntax.parse_graph", rewb.parse_graph, text) for text in self.graph_texts]
        self.val = rewb.parse_valuation(self.val_text)
        warm = call("syntax.parse_graph", rewb.parse_graph, WARMUP_GRAPH)
        for text, valued in QUERIES:
            e = call("syntax.parse_expr", rewb.parse_expr, text)
            for name, engine in ENGINES:
                call(name, engine, e, warm, self.val if valued else None)

    def op(self, key):
        engine, q, g = key
        text, valued = QUERIES[q]
        e = self.t.call("syntax.parse_expr", rewb.parse_expr, text)
        name, fn = ENGINES[engine]
        return self.t.call(name, fn, e, self.graphs[g], self.val if valued else None)

    def answer(self, key, raw):
        self.t.note("evaluate.result.pairs", key, len(raw))
        return pairs_digest(raw)

    def expected(self, key):
        engine, q, g = key
        text, valued = QUERIES[q]
        _name, reference = ENGINES[1 - engine]
        return pairs_digest(reference(rewb.parse_expr(text), self.graphs[g], self.val if valued else None))

    def probe(self):
        for text, _ in QUERIES:
            self._probe_expr(rewb.parse_expr(text), hier=True)


# ---------------------------------------------------------------------------
# SAT and WQSAT reductions


def random_cnf(rng, n_atoms, n_clauses):
    """Clauses of three distinct literals, each (atom index, positive)."""
    return [
        tuple((a, rng.random() < 0.5) for a in rng.sample(range(n_atoms), 3))
        for _ in range(n_clauses)
    ]


def cnf_text(clauses, names):
    return " & ".join(
        "(" + " | ".join(("" if pos else "!") + names[a] for a, pos in clause) + ")"
        for clause in clauses
    )


def _cnf_true(clauses, true_atoms):
    return all(any((a in true_atoms) == pos for a, pos in clause) for clause in clauses)


class Reduction(Workload):
    """Connectivity on the SAT and WQSAT gadgets, one instance at a time.

    An operation builds the gadget, runs ``connected(source, sink)`` and,
    when that holds, ``witness_path``. Each atom count and WQSAT shape gets
    as many true as false instances. Renaming permutes the atom names and
    keeps the order in which atoms are handed to the gadget, so the
    renamed gadget is the original one under other names.
    """

    name = "reduction"

    def generate(self, shape, rename):
        if self.quick:
            sat_atoms, per_side, wq_blocks, wq_weights, wq_clauses = (3, 4), 1, (2, 2), (1, 1), 3
        else:
            sat_atoms, per_side, wq_blocks, wq_weights, wq_clauses = (4, 5, 6), 4, (3, 3), (2, 1), 4
        self.instances = []  # (kind, formula text, atoms or blocks, weights)
        for k in sat_atoms:
            want = {True: per_side, False: per_side}
            while any(want.values()):
                clauses = random_cnf(shape, k, round(4.3 * k))
                truth = any(
                    _cnf_true(clauses, set(s))
                    for r in range(k + 1)
                    for s in itertools.combinations(range(k), r)
                )
                if want[truth]:
                    want[truth] -= 1
                    names = [f"p{j}" for j in range(1, k + 1)]
                    rename.shuffle(names)
                    self.instances.append(("sat", cnf_text(clauses, names), tuple(names), None))
        n_atoms = sum(wq_blocks)
        bounds = list(itertools.accumulate((0,) + wq_blocks))
        index_blocks = tuple(tuple(range(lo, hi)) for lo, hi in zip(bounds, bounds[1:]))
        want = {True: 2, False: 2}
        while any(want.values()):
            clauses = random_cnf(shape, n_atoms, wq_clauses)
            truth = _exists_forall(clauses, index_blocks, wq_weights)
            if want[truth]:
                want[truth] -= 1
                names = [f"p{j}" for j in range(1, n_atoms + 1)]
                for lo, hi in zip(bounds, bounds[1:]):  # rename within each block
                    names[lo:hi] = rename.sample(names[lo:hi], hi - lo)
                name_blocks = tuple(tuple(names[a] for a in block) for block in index_blocks)
                self.instances.append(("wqsat", cnf_text(clauses, names), name_blocks, wq_weights))
        self.keys = list(range(len(self.instances)))

    def texts(self):
        return [f"{kind} {blocks} {weights} {text}" for kind, text, blocks, weights in self.instances]

    def setup(self):
        self.parsed = []
        for kind, text, blocks, weights in self.instances:
            phi = rewb.parse_nnf(text)
            self.parsed.append(phi if kind == "sat" else rewb.WqsatInstance(phi, blocks, weights))
        warm = self.t.call("syntax.parse_graph", rewb.parse_graph, WARMUP_GRAPH)
        for key in self._one_per_shape():
            out = self._gadget(key)
            self.t.call("evaluate.connected", rewb.connected, out.expr, warm, {}, "w", "w")

    def _one_per_shape(self):
        """One key per gadget expression: it depends on the number of atoms
        (SAT) or on the block sizes and weights (WQSAT), not on names."""
        shapes = {}
        for key, (kind, _text, blocks, weights) in enumerate(self.instances):
            size = len(blocks) if kind == "sat" else tuple(map(len, blocks))
            shapes.setdefault((kind, size, weights), key)
        return shapes.values()

    def _gadget(self, key):
        kind, _text, atoms, _weights = self.instances[key]
        if kind == "sat":
            return self.t.call("gadgets.sat_reduction", rewb.sat_reduction, self.parsed[key], list(atoms))
        return self.t.call("gadgets.wqsat_reduction", rewb.wqsat_reduction, self.parsed[key])

    def op(self, key):
        out = self._gadget(key)
        g = out.graph
        holds = self.t.call("evaluate.connected", rewb.connected, out.expr, g, {}, g.source, g.sink)
        path = None
        if holds:
            path = self.t.call("evaluate.witness_path", rewb.witness_path, out.expr, g, {}, g.source, g.sink)
        return out, holds, path

    def answer(self, key, raw):
        out, holds, path = raw
        self.t.note("gadgets.graph.nodes", key, len(out.graph.nodes))
        self.t.note("evaluate.connected.true_share", key, 1.0 if holds else 0.0)
        if path is not None:
            self.t.note("evaluate.witness_path.edges", key, len(path))
        return holds, path is None if not holds else _valid_witness(out, path)

    def expected(self, key):
        kind, _text, atoms, _weights = self.instances[key]
        parsed = self.parsed[key]
        if kind == "wqsat":
            return rewb.brute_wqsat(parsed), True
        truth = any(
            rewb.brute_formula(parsed, set(s))
            for r in range(len(atoms) + 1)
            for s in itertools.combinations(atoms, r)
        )
        return truth, True

    def probe(self):
        for key in self._one_per_shape():
            self._probe_expr(self._gadget(key).expr)


def _exists_forall(clauses, blocks, weights):
    """Truth of a two-block instance: some subset of the first block, of
    its weight, such that every subset of the second makes the CNF true."""
    first, second = blocks
    return any(
        all(_cnf_true(clauses, set(s1) | set(s2)) for s2 in itertools.combinations(second, weights[1]))
        for s1 in itertools.combinations(first, weights[0])
    )


def _valid_witness(out, path):
    """The path chains source to sink over graph edges and spells a word
    the gadget expression accepts."""
    g = out.graph
    at = g.source
    for edge in path:
        if edge not in g.edges or edge[0] != at:
            return False
        at = edge[3]
    if at != g.sink:
        return False
    return rewb.member(out.expr, tuple((letter, value) for _, letter, value, _ in path), {})


# ---------------------------------------------------------------------------
# Membership in the PCP non-solution expressions


def pcp_pairs(text):
    return tuple(tuple(pair.split("/")) for pair in text.split(","))


def word_text(w):
    return " ".join(f"{letter}:{value}" for letter, value in w)


class PcpMember(Workload):
    """``member_any`` of short words in the huge ``pcp_delta`` expressions.

    The words are each solution's encoding (which the expression rejects)
    and mutations of it of every kind (which it accepts).
    """

    name = "pcp"

    def generate(self, shape, rename):
        if self.quick:
            instances, levels, solution = PCP_QUICK_INSTANCES, (1,), (1,)
        else:
            instances, levels, solution = PCP_INSTANCES, (1, 2), (1, 2)
        self.deltas = [(text, i) for text in instances for i in levels]
        kinds = list(rewb.pcp.MUTATION_KINDS)
        rename.shuffle(kinds)
        self.words = []  # (delta index, word text, expected verdict)
        for index, (text, i) in enumerate(self.deltas):
            enc = rewb.pcp_encode(rewb.PcpInstance(pcp_pairs(text)), solution, i)
            self.words.append((index, word_text(enc), False))
            for _ in range(instances[text]):
                mutant = rewb.pcp_mutate(enc, kinds.pop(), rename.choice(PCP_MUTATION_SEEDS))
                self.words.append((index, word_text(mutant), True))
        self.keys = list(range(len(self.words)))

    def texts(self):
        return [f"{text} {i}" for text, i in self.deltas] + [f"{d} {w}" for d, w, _ in self.words]

    def setup(self):
        call = self.t.call
        self.exprs = []
        for text, i in self.deltas:
            delta = call("pcp.pcp_delta", rewb.pcp_delta, rewb.PcpInstance(pcp_pairs(text)), i)
            printed = call("syntax.print_expr", rewb.print_expr, delta)
            self.exprs.append(call("syntax.parse_expr", rewb.parse_expr, printed))
        self.parsed = [rewb.parse_word(w) for _, w, _ in self.words]
        warmed = set()
        for key, (d, _w, _verdict) in enumerate(self.words):
            if d not in warmed:
                warmed.add(d)
                call("evaluate.member_any", rewb.member_any, self.exprs[d], self.parsed[key])

    def op(self, key):
        d = self.words[key][0]
        return self.t.call("evaluate.member_any", rewb.member_any, self.exprs[d], self.parsed[key])

    def expected(self, key):
        return self.words[key][2]

    def probe(self):
        for e in self.exprs:
            self._probe_expr(e)


class Decide(Workload):
    """The paper's two decision paths, their operations shuffled into one loop.

    Keys are (part, key of that part): the SAT and WQSAT gadgets of
    ``Reduction`` and the PCP membership words of ``PcpMember``.
    """

    name = "decide"

    def __init__(self, seed, quick, tracer):
        self.parts = (Reduction(seed, quick, tracer), PcpMember(seed, quick, tracer))
        self.keys = [(i, key) for i, part in enumerate(self.parts) for key in part.keys]

    @property
    def t(self):
        return self.parts[0].t

    @t.setter
    def t(self, tracer):
        for part in self.parts:
            part.t = tracer

    def texts(self):
        return [text for part in self.parts for text in part.texts()]

    def setup(self):
        for part in self.parts:
            part.setup()

    def op(self, key):
        part, k = key
        return self.parts[part].op(k)

    def answer(self, key, raw):
        part, k = key
        return self.parts[part].answer(k, raw)

    def expected(self, key):
        part, k = key
        return self.parts[part].expected(k)

    def probe(self):
        for part in self.parts:
            part.probe()


WORKLOADS = {w.name: w for w in (Rpq, Decide)}
