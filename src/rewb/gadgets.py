"""Reduction gadgets from Boolean satisfiability to query evaluation.

The schema encodes a negation-normal-form formula as a series-parallel
data graph whose per-literal chains carry the polarity and the atom as
data values, and a fixed query that remembers the true atoms in variables
x_1..x_k: a positive literal's chain can only be crossed when the atom is
among the variable values, a negative one only when it is not. One shared
reserved value ``star`` plays the role of "any other value"; no condition
ever tests it against an atom value positively, so sharing is safe.

On top of the schema:

* ``sat_reduction`` prefixes a chain of parallel (atom / star) edge pairs
  and binds one variable per atom, making source-sink connectivity
  equivalent to satisfiability.
* ``exists_compose`` prefixes a chain carrying every atom once and binds k
  variables along it, realizing "some injective choice of k atoms".
* ``forall_compose`` wraps the graph k times in a loop structure that
  forces the enclosed part to be traversed once per atom value, realizing
  "every injective choice"; non-injective valuations escape through
  dedicated skip edges.
* ``wqsat_reduction`` alternates the two, right to left, with per-block
  fresh letters, reducing weighted quantified satisfiability.

Brute-force oracles (``brute_formula``, ``brute_wqsat``) evaluate the same
questions directly and back the equivalence tests.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass

from . import expr as E
from .data import DataGraph, graph
from .errors import SourceError, ValidationError
from .syntax import _where

STAR_VALUE = "star"

_ATOM_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


# ---------------------------------------------------------------------------
# Negation normal form formulas


@dataclass(frozen=True)
class Pos:
    atom: str


@dataclass(frozen=True)
class Neg:
    atom: str


@dataclass(frozen=True)
class FAnd:
    items: tuple

    def __post_init__(self):
        if not self.items:
            raise ValidationError("conjunction needs at least one item")


@dataclass(frozen=True)
class FOr:
    items: tuple

    def __post_init__(self):
        if not self.items:
            raise ValidationError("disjunction needs at least one item")


NnfFormula = Pos | Neg | FAnd | FOr


def atoms_of(phi: NnfFormula) -> set:
    out, stack = set(), [phi]
    while stack:
        node = stack.pop()
        if isinstance(node, (Pos, Neg)):
            out.add(node.atom)
        else:
            stack += node.items
    return out


def brute_formula(phi: NnfFormula, assignment) -> bool:
    """Direct NNF evaluation; ``assignment`` is the set of true atoms.

    It runs on an explicit stack of (connective, index of the item under
    way), so it does not recurse however deep ``phi`` is, and it stops at
    the first item that decides a connective."""
    stack, node = [], phi
    while True:
        while not isinstance(node, (Pos, Neg)):
            stack.append((node, 0))
            node = node.items[0]
        value = (node.atom in assignment) == isinstance(node, Pos)
        while stack:
            parent, k = stack.pop()
            if value != isinstance(parent, FOr) and k + 1 < len(parent.items):
                stack.append((parent, k + 1))
                node = parent.items[k + 1]
                break
        else:
            return value


def _joined(kind, items):
    return items[0] if len(items) == 1 else kind(tuple(items))


def parse_nnf(text: str) -> NnfFormula:
    """Small NNF syntax: atoms, '&', '|', '!' on atoms, parentheses.

    A syntax error gives the line and column of the offending token, or of
    the end of the text. The parse keeps one (disjuncts, conjuncts of the
    last disjunct) pair per open parenthesis on an explicit stack, so it
    does not recurse however deep the parentheses nest."""
    tokens = [(m.group(), m.start()) for m in re.finditer(r"[A-Za-z_][A-Za-z0-9_]*|\S", text)]
    tokens.append((None, len(text)))
    pos = 0

    def error(msg):
        return SourceError(msg, *_where(text, tokens[pos][1]))

    groups = [([], [])]  # the whole text, then each open parenthesis
    while True:
        tok = tokens[pos][0]
        if tok == "(":
            pos += 1
            groups.append(([], []))
            continue
        if tok is None:
            raise error("unexpected end of formula")
        if tok == "!":
            pos += 1
            atom = tokens[pos][0]
            if atom is None or not _ATOM_RE.match(atom):
                raise error("'!' must be followed by an atom")
            out = Neg(atom)
        elif _ATOM_RE.match(tok):
            out = Pos(tok)
        else:
            raise error(f"unexpected token {tok!r}")
        pos += 1
        while True:  # after an operand: an operator, or the end of its group
            disjuncts, conjuncts = groups[-1]
            conjuncts.append(out)
            tok = tokens[pos][0]
            if tok == "&":
                break
            disjuncts.append(_joined(FAnd, conjuncts))
            if tok == "|":
                conjuncts.clear()
                break
            out = _joined(FOr, disjuncts)
            if len(groups) == 1:
                if tok is not None:
                    raise error(f"trailing input at token {tok!r}")
                return out
            if tok != ")":
                raise error("missing ')'")
            pos += 1
            groups.pop()
        pos += 1


# ---------------------------------------------------------------------------
# Weighted quantified satisfiability instances


@dataclass(frozen=True)
class WqsatInstance:
    """Blocks alternate quantifiers starting with an existential one."""

    formula: NnfFormula
    blocks: tuple  # of tuples of atoms
    weights: tuple  # of ints

    def __post_init__(self):
        if not self.blocks or len(self.blocks) != len(self.weights):
            raise ValidationError("blocks and weights must be nonempty and aligned")
        seen = set()
        for block, weight in zip(self.blocks, self.weights):
            if not block:
                raise ValidationError("empty quantifier block")
            if weight < 1 or weight > len(block):
                raise ValidationError(f"weight {weight} out of range for block {block}")
            if seen & set(block):
                raise ValidationError("blocks must be disjoint")
            seen |= set(block)
        stray = atoms_of(self.formula) - seen
        if stray:
            raise ValidationError(f"atoms outside every block: {sorted(stray)}")

    def quantifier(self, index) -> str:
        """'exists' for blocks 0, 2, ...; 'forall' for the rest."""
        return "exists" if index % 2 == 0 else "forall"


def brute_wqsat(inst: WqsatInstance) -> bool:
    """Recursive expansion over all weight-k subsets of each block."""

    def recurse(index, chosen):
        if index == len(inst.blocks):
            return brute_formula(inst.formula, chosen)
        subsets = itertools.combinations(inst.blocks[index], inst.weights[index])
        if inst.quantifier(index) == "exists":
            return any(recurse(index + 1, chosen | set(s)) for s in subsets)
        return all(recurse(index + 1, chosen | set(s)) for s in subsets)

    return recurse(0, set())


# ---------------------------------------------------------------------------
# Gadget outputs and helpers


@dataclass(frozen=True)
class GadgetOutput:
    graph: DataGraph
    expr: E.Rewb

    @property
    def free(self) -> tuple:
        """The expression's free variables, sorted."""
        return tuple(sorted(self.expr.free))

    def manifest(self) -> str:
        free = " ".join(self.free) if self.free else "-"
        return f"source {self.graph.source} / sink {self.graph.sink} / free-vars {free}"


def union_all(parts) -> E.Rewb:
    """Balanced union fold (keeps trees shallow for very wide sums)."""
    parts = list(parts)
    if not parts:
        raise ValidationError("union of nothing")
    while len(parts) > 1:
        parts = [
            E.Union(parts[k], parts[k + 1]) if k + 1 < len(parts) else parts[k]
            for k in range(0, len(parts), 2)
        ]
    return parts[0]


def concat_all(parts) -> E.Rewb:
    parts = list(parts)
    if not parts:
        raise ValidationError("concatenation of nothing")
    out = parts[0]
    for p in parts[1:]:
        out = E.Concat(out, p)
    return out


def _fresh_nodes(used, base, count):
    out = []
    index = 0
    while len(out) < count:
        candidate = f"{base}{index}"
        index += 1
        if candidate not in used:
            out.append(candidate)
            used.add(candidate)
    return out


def _check_atoms(atoms):
    if not atoms:
        raise ValidationError("need at least one propositional atom")
    if len(set(atoms)) != len(atoms):
        raise ValidationError("duplicate atoms")
    for atom in atoms:
        if not _ATOM_RE.match(atom) or atom == STAR_VALUE:
            raise ValidationError(f"invalid atom name: {atom!r}")


def _gadget_letters(g, e):
    return g.letters() | E.letters_in(e)


# ---------------------------------------------------------------------------
# Formula evaluation schema


def formula_graph(phi: NnfFormula, atoms) -> DataGraph:
    """The series-parallel graph of an NNF formula, with the two-edge
    polarity prefix fused in front; source and sink are set."""
    edges, source, sink = _formula_edges(phi, atoms)
    return graph(edges, source=source, sink=sink)


def _formula_edges(phi, atoms):
    """The edges of ``formula_graph`` with its source and sink."""
    atoms = list(atoms)
    _check_atoms(atoms)
    stray = atoms_of(phi) - set(atoms)
    if stray:
        raise ValidationError(f"formula uses atoms outside the given set: {sorted(stray)}")

    counter = itertools.count()
    edges = []

    def fresh():
        return f"g{next(counter)}"

    head, mid, formula_src, formula_snk = "s0", "s1", fresh(), fresh()
    edges.append((head, "a", "po", mid))
    edges.append((mid, "a", "ne", formula_src))
    stack = [(phi, formula_src, formula_snk)]
    while stack:  # depth first, items in order
        node, src, snk = stack.pop()
        if isinstance(node, (Pos, Neg)):
            polarity = "po" if isinstance(node, Pos) else "ne"
            n1, n2, n3 = fresh(), fresh(), fresh()
            edges.append((src, "b", STAR_VALUE, n1))
            edges.append((n1, "pn", polarity, n2))
            edges.append((n2, "pa", node.atom, n3))
            edges.append((n3, "e", STAR_VALUE, snk))
        elif isinstance(node, FAnd):
            points = [src] + [fresh() for _ in node.items[:-1]] + [snk]
            stack += reversed(list(zip(node.items, points, points[1:])))
        else:
            stack += [(item, src, snk) for item in reversed(node.items)]
    return edges, head, formula_snk


def eval_expr(k: int) -> E.Rewb:
    """The fixed formula-evaluation query over variables x_1..x_k."""
    if k < 1:
        raise ValidationError("eval expression needs k >= 1")
    variables = [f"x_{j}" for j in range(1, k + 1)]
    some = E.or_all([E.Eq(v) for v in variables])
    none = E.and_all([E.Neq(v) for v in variables])
    positive = E.Concat(E.Test("pn", E.Eq("x_po")), E.Test("pa", some))
    negative = E.Concat(E.Test("pn", E.Eq("x_ne")), E.Test("pa", none))
    block = E.Concat(E.Concat(E.Atom("b"), E.Union(positive, negative)), E.Atom("e"))
    return E.Bind("a", "x_po", E.Bind("a", "x_ne", E.Star(block)))


def sat_reduction(phi: NnfFormula, atoms) -> GadgetOutput:
    """Source-sink connectivity holds iff ``phi`` is satisfiable."""
    atoms = list(atoms)
    edges, source, sink = _formula_edges(phi, atoms)
    used = {node for edge in edges for node in (edge[0], edge[3])}
    chain = _fresh_nodes(used, "c", len(atoms)) + [source]
    for atom, a, b in zip(atoms, chain, chain[1:]):
        edges.append((a, "a", atom, b))
        edges.append((a, "a", STAR_VALUE, b))
    expr = eval_expr(len(atoms))
    for j in range(len(atoms), 0, -1):
        expr = E.Bind("a", f"x_{j}", expr)
    g = graph(edges, source=chain[0], sink=sink)
    return GadgetOutput(g, expr)


# ---------------------------------------------------------------------------
# Existential composition


def _composition_variables(kind, k, atoms, g, e, variables):
    """The k variables a composition binds, x_1..x_k unless given, once the
    checks that both compositions share have passed."""
    _check_atoms(atoms)
    if k < 1:
        raise ValidationError(f"{kind} composition needs k >= 1")
    if g.source is None or g.sink is None:
        raise ValidationError("inner graph needs source and sink")
    variables = list(variables) if variables is not None else [f"x_{j}" for j in range(1, k + 1)]
    if len(variables) != k:
        raise ValidationError("need exactly k variables")
    if not e.bound.isdisjoint(variables):
        raise ValidationError("composition variables must not be bound inside the expression")
    return variables


def exists_compose(k: int, atoms, g: DataGraph, e: E.Rewb, *, letter: str = "a1",
                   variables=None) -> GadgetOutput:
    """Connectivity holds iff some injective valuation of the variables
    into the atoms connects the inner graph under ``e``."""
    atoms = list(atoms)
    variables = _composition_variables("existential", k, atoms, g, e, variables)
    if letter in _gadget_letters(g, e):
        raise ValidationError(f"letter {letter!r} already used by the inner gadget")
    if not E.indistinguishable_sampled(e, variables, trials=200, seed=0):
        raise ValidationError("variables failed the sampled indistinguishability check")

    used = set(g.nodes)
    chain = _fresh_nodes(used, "q", len(atoms)) + [g.source]
    edges = set(g.edges)
    for atom, a, b in zip(atoms, chain, chain[1:]):
        edges.add((a, letter, atom, b))

    walk = E.Star(E.Atom(letter))
    expr = E.Concat(walk, e)
    for var in reversed(variables):
        expr = E.Concat(walk, E.Bind(letter, var, expr))
    out = graph(edges, source=chain[0], sink=g.sink)
    return GadgetOutput(out, expr)


# ---------------------------------------------------------------------------
# Universal composition


def forall_compose(k: int, atoms, g: DataGraph, e: E.Rewb, *, skip_letter: str = "skip",
                   layer_letters=None, variables=None) -> GadgetOutput:
    """Connectivity holds iff every injective valuation of the variables
    into the atoms connects the inner graph under ``e``."""
    atoms = list(atoms)
    variables = _composition_variables("universal", k, atoms, g, e, variables)
    if layer_letters is None:
        layer_letters = [(f"a{i}", f"b{i}", f"c{i}") for i in range(1, k + 1)]
    if len(layer_letters) != k:
        raise ValidationError("need one (a, b, c) letter triple per layer")
    taken = _gadget_letters(g, e)
    introduced = [skip_letter] + [l for triple in layer_letters for l in triple]
    if len(set(introduced)) != len(introduced):
        raise ValidationError("layer letters must be pairwise distinct")
    clash = taken & set(introduced)
    if clash:
        raise ValidationError(f"letters already used by the inner gadget: {sorted(clash)}")

    used = set(g.nodes)
    edges = set(g.edges)
    source, sink = g.source, g.sink
    for atom in atoms:
        edges.add((source, skip_letter, atom, sink))

    expr = e
    pairs = [
        E.Test(skip_letter, E.And(E.Eq(a), E.Eq(b)))
        for a, b in itertools.combinations(variables, 2)
    ]
    if pairs:
        expr = union_all([expr] + pairs)

    for (a_l, b_l, c_l), var in zip(layer_letters, variables):
        entries = _fresh_nodes(used, f"{a_l}in", len(atoms))
        exits = _fresh_nodes(used, f"{a_l}out", len(atoms))
        (new_source,) = _fresh_nodes(used, f"{b_l}src", 1)
        (new_sink,) = _fresh_nodes(used, f"{c_l}snk", 1)
        edges.add((new_source, b_l, STAR_VALUE, entries[0]))
        for atom, entry, exit_ in zip(atoms, entries, exits):
            edges.add((entry, a_l, atom, source))
            edges.add((sink, a_l, atom, exit_))
        for exit_, entry in zip(exits, entries[1:]):
            edges.add((exit_, c_l, STAR_VALUE, entry))
        edges.add((exits[-1], c_l, STAR_VALUE, new_sink))
        source, sink = new_source, new_sink

        inner = E.Bind(a_l, var, E.Concat(expr, E.Test(a_l, E.Eq(var))))
        expr = E.Concat(E.Atom(b_l), E.Star(E.Concat(inner, E.Atom(c_l))))

    out = graph(edges, source=source, sink=sink)
    return GadgetOutput(out, expr)


# ---------------------------------------------------------------------------
# Alternating composition


def wqsat_reduction(inst: WqsatInstance) -> GadgetOutput:
    """Connectivity holds iff the weighted quantified instance is true.

    Compositions associate to the right: the formula gadget sits
    innermost, blocks are wrapped from the last to the first, each with
    its own fresh letters. Block j quantifies the variables
    x_{offset+1}..x_{offset+k_j} of the shared evaluation query.
    """
    total = sum(inst.weights)
    all_atoms = [atom for block in inst.blocks for atom in block]
    current = GadgetOutput(formula_graph(inst.formula, all_atoms), eval_expr(total))

    offsets = list(itertools.accumulate((0,) + inst.weights))
    for index in range(len(inst.blocks) - 1, -1, -1):
        block = list(inst.blocks[index])
        weight = inst.weights[index]
        variables = [f"x_{j}" for j in range(offsets[index] + 1, offsets[index] + weight + 1)]
        tag = index + 1
        if inst.quantifier(index) == "exists":
            current = exists_compose(
                weight, block, current.graph, current.expr,
                letter=f"a{tag}", variables=variables,
            )
        else:
            current = forall_compose(
                weight, block, current.graph, current.expr,
                skip_letter=f"skip{tag}",
                layer_letters=[(f"a{tag}_{i}", f"b{tag}_{i}", f"c{tag}_{i}") for i in range(1, weight + 1)],
                variables=variables,
            )
    return current
