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
        for edge in sorted(self.edges):
            adj[edge[0]].append(edge)
        return adj

    def __getstate__(self):
        """Pickle the fields only: the adjacency map is rebuilt on demand."""
        state = dict(self.__dict__)
        state.pop("_adjacency", None)
        return state

    def data_values(self) -> set:
        return {value for _, _, value, _ in self.edges}

    def letters(self) -> set:
        return {letter for _, letter, _, _ in self.edges}


def graph(edges, nodes=(), source=None, sink=None) -> DataGraph:
    """Build a graph from edge tuples; endpoints are declared implicitly."""
    node_set = set(nodes)
    for src, _letter, _value, dst in edges:
        node_set.add(src)
        node_set.add(dst)
    return DataGraph(frozenset(node_set), frozenset(edges), source, sink)


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
