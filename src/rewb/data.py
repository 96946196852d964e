"""Data words and data graphs.

A data word is a tuple of (letter, value) pairs. A data graph is a finite
directed graph whose edges carry a (letter, value) label; the edge set has
set semantics (no multiplicity) and the graph may designate one source and
one sink node.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import ValidationError

DataWord = tuple  # tuple[tuple[Letter, DataValue], ...]

Edge = tuple  # (src, letter, value, dst)


@dataclass(frozen=True)
class DataGraph:
    nodes: frozenset
    edges: frozenset
    source: str | None = None
    sink: str | None = None

    def __post_init__(self):
        for src, _letter, _value, dst in self.edges:
            if src not in self.nodes or dst not in self.nodes:
                raise ValidationError(f"edge endpoint not declared: {src!r} -> {dst!r}")
        self._check_ends()

    def _check_ends(self):
        for name, node in (("source", self.source), ("sink", self.sink)):
            if node is not None and node not in self.nodes:
                raise ValidationError(f"{name} names an undeclared node: {node!r}")

    def out_edges(self) -> dict:
        """Adjacency map node -> sorted list of outgoing edges.

        Built on first use and shared by every later call on this graph, so
        callers must not mutate it.
        """
        return self._adjacency

    @cached_property
    def _adjacency(self):
        adj = {n: [] for n in self.nodes}
        for edge in self.edges:
            adj[edge[0]].append(edge)
        for out in adj.values():
            if len(out) > 1:
                out.sort()
        return adj

    @cached_property
    def search_memo(self) -> dict:
        """At most one running search of ``evaluate`` on this graph (see
        ``evaluate._reached``), kept here so that it is freed with the graph."""
        return {}

    def __getstate__(self):
        """Pickle the fields only: the adjacency map is rebuilt on demand and
        the search memo starts empty."""
        state = dict(self.__dict__)
        state.pop("_adjacency", None)
        state.pop("search_memo", None)
        return state

    def data_values(self) -> set:
        return {value for _, _, value, _ in self.edges}

    def letters(self) -> set:
        return {letter for _, letter, _, _ in self.edges}


def graph(edges, nodes=(), source=None, sink=None) -> DataGraph:
    """Build a graph from edge tuples; endpoints are declared implicitly.

    The adjacency map of ``out_edges`` is built here, with the node set:
    every edge's target gets an empty list, then one pass over the
    distinct edges files each under its source, and lists of two or more
    are sorted. The graph is then made without ``__post_init__``, whose
    endpoint loop could not fail, as its nodes are the endpoints and
    ``nodes``; the source and sink are still checked. It equals, hashes
    and pickles as ``DataGraph(...)`` of the same fields does.
    """
    edges = frozenset(edges)
    adj = {node: [] for node in nodes}
    for edge in edges:
        adj[edge[3]] = []
    for edge in edges:
        try:
            adj[edge[0]].append(edge)
        except KeyError:
            adj[edge[0]] = [edge]
    for out in adj.values():
        if len(out) > 1:
            out.sort()
    g = object.__new__(DataGraph)
    for name, value in (("nodes", frozenset(adj)), ("edges", edges), ("source", source), ("sink", sink)):
        object.__setattr__(g, name, value)
    g._check_ends()
    g.__dict__["_adjacency"] = adj
    return g


def word(*pairs) -> DataWord:
    return tuple(pairs)


def word_values(w: DataWord) -> set:
    return {value for _, value in w}


def fresh_value(used, base: str = "fresh") -> str:
    """A data value token not occurring in ``used``, deterministically."""
    if base not in used:
        return base
    i = 1
    while f"{base}_{i}" in used:
        i += 1
    return f"{base}_{i}"
