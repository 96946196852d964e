"""Compilation of expressions to automata.

Two views are built, both by one position (Glushkov) construction,
``_glushkov``, which each view gives a function that labels the nodes it
reads as single positions. The state count is always "letter occurrences
+ 1" for the flattened view and "meta-letter occurrences + 1" for the
hierarchical view, with no epsilon transitions.

* ``hier_automaton`` keeps the expression's own level visible: a
  binding-free expression gets Read transitions over its letter
  occurrences; an expression whose minimal E-level equals its F-level gets
  BindRead transitions for binders plus SubExpr transitions over its
  maximal lower-F blocks (and is acyclic, since stars only occur inside
  those blocks); an expression that is properly F-shaped gets SubExpr
  transitions over its maximal E-level blocks.

* ``register_nfa`` flattens everything to guarded single-letter
  transitions with store actions: a binder contributes its head letter
  with a store, a conditioned letter contributes its guard. Acceptance is
  defined over configurations (state, valuation); the language equals the
  expression's language for every compatible starting valuation. It fixes
  one register slot per variable and compiles each guard once to a closure
  over the register tuple, so a search runs without re-interpreting guards.

Both constructions require the input to be well-named (binder names
pairwise distinct and disjoint from the free variables); ``alpha_rename``
produces such a form.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import expr as E
from .errors import ValidationError


@dataclass(frozen=True, slots=True)
class SubExpr:
    expr: E.Rewb


@dataclass(frozen=True, slots=True)
class BindRead:
    letter: str
    var: str


@dataclass(frozen=True, slots=True)
class Read:
    letter: str
    cond: object = None


MetaLabel = SubExpr | BindRead | Read


@dataclass(frozen=True)
class HierAutomaton:
    states: frozenset
    initials: frozenset
    finals: frozenset
    transitions: frozenset  # of (state, MetaLabel, state)

    def sorted_transitions(self):
        return sorted(self.transitions, key=_src_dst)


def _src_dst(t):
    # In a position automaton the destination fixes the label, so
    # (src, dst) is unique.
    return t[0], t[-1]


class RegisterNfa:
    """Position automaton over letter occurrences with guards and stores.

    State 0 is initial; occurrence ``i`` is state ``i + 1`` with label
    ``labels[i]`` = (letter, guard, store), ``guard`` a Condition or None
    (always true) and ``store`` a variable or None. ``arcs`` are the sorted
    (src, dst) pairs and ``transitions`` the (src, letter, guard, store, dst)
    tuple in their order.

    Registers are a tuple with one slot per variable of ``slots``.
    ``moves`` returns entries (guard, store, dst, test, slot): ``test`` is
    the guard compiled over registers, ``slot`` the store's index (each
    None where the guard or store is). All arcs into a position share its
    one entry.
    """

    def __init__(self, labels, finals, arcs):
        self.states = frozenset(range(len(labels) + 1))
        self.initial = 0
        self.finals = frozenset(finals)
        names = {store for _, _, store in labels if store is not None}
        names.update(*(E.cond_vars(guard) for _, guard, _ in labels if guard))
        self.slots = tuple(sorted(names))
        slot = {var: i for i, var in enumerate(self.slots)}
        entries = [
            (guard, store, dst, guard and E.compile_cond(guard, slot), slot.get(store))
            for dst, (_, guard, store) in enumerate(labels, start=1)
        ]
        transitions = []
        index = {}
        for src, dst in arcs:
            letter, guard, store = labels[dst - 1]
            transitions.append((src, letter, guard, store, dst))
            index.setdefault((src, letter), []).append(entries[dst - 1])
        self.transitions = tuple(transitions)
        self._index = index

    def moves(self, state, letter):
        return self._index.get((state, letter), ())


def _require_well_named(e):
    if not e.well_named:
        raise ValidationError(
            "expression is not alpha-renamed: binder names must be pairwise "
            "distinct and disjoint from the free variables"
        )


def _glushkov(e, leaf, head=None):
    """Position (Glushkov) automaton of ``e`` over the positions ``leaf`` picks.

    ``leaf(node)`` returns the label of a node read as one position, or None
    to look inside it. A binder looked inside reads its head letter as one
    position labelled ``head(node)``, then its body. Positions are numbered
    left to right; state 0 is initial and position ``i`` is state ``i + 1``.
    Returns the list of position labels, the final states, and the list of
    transitions as (src, dst) pairs, each once and in sorted order; the
    label of a transition is that of its destination.
    """
    labels = []
    follow = []  # follow[p]: positions that may come right after position p

    def position(label):
        labels.append(label)
        follow.append(set())
        return frozenset((len(labels) - 1,))

    def go(node):
        label = leaf(node)
        if label is not None:
            p = position(label)
            return False, p, p
        if isinstance(node, E.Eps):
            return True, frozenset(), frozenset()
        if isinstance(node, E.Union):
            n1, f1, l1 = go(node.left)
            n2, f2, l2 = go(node.right)
            return n1 or n2, f1 | f2, l1 | l2
        if isinstance(node, E.Concat):
            n1, f1, l1 = go(node.left)
            n2, f2, l2 = go(node.right)
            for p in l1:
                follow[p] |= f2
            return n1 and n2, f1 | f2 if n1 else f1, l2 | l1 if n2 else l2
        if isinstance(node, E.Star):
            n1, f1, l1 = go(node.body)
            for p in l1:
                follow[p] |= f1
            return True, f1, l1
        if isinstance(node, E.Bind) and head is not None:
            h = position(head(node))
            n1, f1, l1 = go(node.body)
            for p in h:
                follow[p] |= f1
            return False, h, l1 | h if n1 else l1
        raise AssertionError(f"{type(node).__name__} node outside the positions of this view")

    nullable, first, last = go(e)
    finals = {p + 1 for p in last}
    if nullable:
        finals.add(0)

    arcs = [(0, q + 1) for q in sorted(first)]
    for p, succs in enumerate(follow, start=1):
        arcs.extend((p, q + 1) for q in sorted(succs))
    return labels, finals, arcs


def register_nfa(e: E.Rewb) -> RegisterNfa:
    """Flatten ``e`` to a guarded NFA; requires ``e`` well-named."""
    _require_well_named(e)

    def leaf(node):
        if isinstance(node, E.Atom):
            return node.letter, None, None
        if isinstance(node, E.Test):
            return node.letter, node.cond, None
        return None

    return RegisterNfa(*_glushkov(e, leaf, lambda node: (node.letter, None, node.var)))


def hier_automaton(e: E.Rewb) -> HierAutomaton:
    """The generalized automaton at the expression's own level."""
    _require_well_named(e)
    level = E.classify(e)
    head = None

    if level.f_level == 0:

        def leaf(node):
            if isinstance(node, E.Atom):
                return Read(node.letter)
            if isinstance(node, E.Test):
                return Read(node.letter, node.cond)
            return None

    elif level.e_level == level.f_level:
        block_cut = level.f_level - 1

        def leaf(node):
            if E.classify(node).f_level <= block_cut:
                return SubExpr(node)
            if isinstance(node, E.Star):
                raise AssertionError("star outside a lower-F block in an E-shaped expression")
            return None

        def head(node):
            return BindRead(node.letter, node.var)

    else:
        block_cut = level.f_level

        def leaf(node):
            return SubExpr(node) if E.classify(node).e_level <= block_cut else None

    labels, finals, arcs = _glushkov(e, leaf, head)
    return HierAutomaton(
        frozenset(range(len(labels) + 1)),
        frozenset((0,)),
        frozenset(finals),
        frozenset((src, labels[dst - 1], dst) for src, dst in arcs),
    )


def automaton_size(e: E.Rewb) -> int:
    """Number of states of the hierarchical automaton of ``e``."""
    return len(hier_automaton(e).states)


def dump_automaton(e: E.Rewb) -> str:
    """Debug listing of the hierarchical automaton, one transition per line."""
    from .syntax import print_cond, print_expr

    aut = hier_automaton(e)
    lines = [
        f"states {len(aut.states)}",
        "initial " + " ".join(str(q) for q in sorted(aut.initials)),
        "final " + " ".join(str(q) for q in sorted(aut.finals)),
    ]
    for src, label, dst in aut.sorted_transitions():
        if isinstance(label, Read):
            cond = f"[{print_cond(label.cond)}]" if label.cond is not None else ""
            text = f"read {label.letter}{cond}"
        elif isinstance(label, BindRead):
            text = f"bind {label.letter}@{label.var}"
        else:
            text = f"subexpr {print_expr(label.expr)}"
        lines.append(f"{src} -> {dst} {text}")
    return "\n".join(lines) + "\n"
