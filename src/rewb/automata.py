"""Compilation of expressions to automata.

Two views are built, both by one position (Glushkov) construction,
``_glushkov``, which each view gives a function that labels the nodes it
reads as single positions, and both are one ``PositionAutomaton``: labels,
finals and one sorted successor tuple per state, shared by the states
with equal successor sets, with no epsilon transitions. The construction
runs on an explicit stack, so it does not recurse. The (src, label, dst)
``transitions`` are built from the successor tuples only when read. The
state count is "letter occurrences + 1" for the flattened view and
"meta-letter occurrences + 1" for the hierarchical view.

* ``hier_automaton`` keeps the expression's own level visible: a
  binding-free expression gets Read transitions over its letter
  occurrences; an expression whose minimal E-level equals its F-level gets
  BindRead transitions for binders plus SubExpr transitions over its
  maximal lower-F blocks (and is acyclic, since stars only occur inside
  those blocks); an expression that is properly F-shaped gets SubExpr
  transitions over its maximal E-level blocks.

* ``register_nfa`` (a ``RegisterNfa``, the position automaton with a move
  row per state, stored once per distinct successor set) flattens
  everything to guarded single-letter transitions with store actions: a
  binder contributes its head letter with a store, a conditioned letter
  contributes its guard. Acceptance is defined over configurations (state,
  valuation); the language equals the expression's language for every
  compatible starting valuation. Its registers have one slot per free
  variable and one per binder nesting depth, which the binders at that
  depth share. For the configuration searches it compiles each guard once
  to a generated function of the register tuple, or for the layered search
  of a set of numbered tuples, so a search runs without re-interpreting
  guards, and it empties a binder's register at the moves where it dies
  (no later guard reads it before a store), so runs that differ only in
  dead values meet.

Both constructions require the input to be well-named (binder names
pairwise distinct and disjoint from the free variables); ``alpha_rename``
produces such a form.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter

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


class PositionAutomaton:
    """Position automaton over the positions of one view.

    State 0 is initial; every other state ``q`` is a position, with label
    ``labels[q - 1]``, which every transition into it carries.
    ``succs[q]`` is the sorted tuple of the states that ``q`` moves to;
    states with equal successor sets share one tuple, as ``_glushkov``
    returns them.
    """

    def __init__(self, labels, finals, succs):
        self.states = range(len(labels) + 1)
        self.finals = frozenset(finals)
        self.labels = labels
        self.succs = succs

    @property
    def transitions(self):
        """The (src, label, dst) tuples sorted by (src, dst), which is unique.

        Built from ``succs`` on each read and not kept, since the engines
        read the per-state rows instead.
        """
        labels = self.labels
        return tuple((src, labels[dst - 1], dst) for src, succ in enumerate(self.succs) for dst in succ)


class RegisterNfa(PositionAutomaton):
    """Position automaton over letter occurrences with guards and stores.

    A label is (letter, guard, store), ``guard`` a Condition or None (always
    true) and ``store`` a variable or None. ``index[state]`` maps each letter
    to the entries (guard, store, dst) of the moves out of ``state`` on it,
    in transition order, which ``moves`` returns. All arcs into a position
    share its one entry, and states with equal successor sets share one
    row: an entry depends only on its destination.

    Registers are a tuple of ``width`` slots, and ``slot`` maps each
    variable to its slot. The free variables ``free`` take the first slots
    in sorted order, then each binder nesting depth takes one slot, shared
    by the binders at that depth (see ``register_nfa``). ``search_index``
    and ``mask_index`` are ``index`` in the forms the two configuration
    searches run, built on first use with their rows shared the same way;
    see there for where registers are cleared.
    """

    def __init__(self, labels, finals, succs, free, slot):
        super().__init__(labels, finals, succs)
        self.free = free
        self.slot = slot
        self.width = max(slot.values(), default=-1) + 1
        entries = [(guard, store, dst) for dst, (_, guard, store) in enumerate(labels, start=1)]
        self.index = self._rows([None, *entries])

    def _rows(self, entry):
        """Per state, the row ``{letter: (entry[dst] for each successor dst)}``;
        states with equal successor tuples get one shared row."""
        labels = self.labels
        rows = {}
        out = []
        for succ in self.succs:
            row = rows.get(succ)
            if row is None:
                moves = {}
                for dst in succ:
                    moves.setdefault(labels[dst - 1][0], []).append(entry[dst])
                row = rows[succ] = {letter: tuple(ms) for letter, ms in moves.items()}
            out.append(row)
        return out

    def moves(self, state, letter):
        return self.index[state].get(letter, ())

    @cached_property
    def liveness(self):
        """(live, clear): per state, bitmasks over the slots.

        A slot is live at a state if some path from it reads the slot in a
        guard before a store overwrites it. ``clear[q]`` holds the slots a
        move into position ``q`` empties: the binder slots dead at ``q``
        that may hold a value on entry, live at some predecessor or stored
        by the move itself. Computed backward over predecessor lists, once
        per automaton.

        Clearing pays only where it makes configurations meet that would
        otherwise each be searched on. So it leaves out the free-variable
        slots (nothing stores to them, so within one search a dead one
        holds the same value in every configuration) and positions with no
        moves out (nothing is searched on from them). Every position is
        reachable, so the slots dead at state 0 are the binders', which a
        search starts empty.
        """
        n = len(self.states)
        reads, stores = [0] * n, [0] * n
        for q, (_letter, guard, store) in enumerate(self.labels, start=1):
            if guard is not None:
                for var in E.cond_vars(guard):
                    reads[q] |= 1 << self.slot[var]
            if store is not None:
                stores[q] = 1 << self.slot[store]
        preds = [[] for _ in range(n)]
        for src, succ in enumerate(self.succs):
            for dst in succ:
                preds[dst].append(src)
        live = [0] * n
        todo = [q for q in range(n) if reads[q]]
        while todo:
            q = todo.pop()
            need = reads[q] | live[q] & ~stores[q]  # live on the arcs into q
            for p in preds[q]:
                if need & ~live[p]:
                    live[p] |= need
                    todo.append(p)
        binders = -1 << len(self.free)
        clear = []
        for q in range(n):
            entering = stores[q]
            for p in preds[q]:
                entering |= live[p]
            clear.append(entering & ~live[q] & binders if self.succs[q] else 0)
        return live, clear

    @cached_property
    def search_index(self):
        """``index`` with entries (dst, test, splice), for the searches.

        ``test`` is the guard compiled over registers (None for no guard).
        ``splice`` is None when the move leaves the registers as they are;
        otherwise ``splice(regs + (d, UNSET))`` is the register tuple after
        the move reads value ``d``: the store put in its slot and the slots
        of ``liveness``'s ``clear`` emptied, in one step. So configurations
        that differ only in dead registers become one.
        """
        return self._compiled_index(E.compile_cond)

    @cached_property
    def mask_index(self):
        """``search_index`` with each guard compiled by ``compile_mask`` to a
        set function over numbered register tuples, for the layered search."""
        return self._compiled_index(E.compile_mask)

    def _compiled_index(self, compile_guard):
        """The entries (dst, compiled guard, splice); the positions with one
        slot plan share one splice."""
        width = self.width
        _live, clear = self.liveness
        splices = {}
        made = [None]
        for dst, (_letter, guard, store) in enumerate(self.labels, start=1):
            test = guard and compile_guard(guard, self.slot)
            splice = None
            if store is not None or clear[dst]:
                stored = self.slot.get(store)
                plan = tuple(width + 1 if clear[dst] >> i & 1 else width if i == stored else i
                             for i in range(width))
                splice = splices.get(plan)
                if splice is None:
                    # itemgetter of one index returns the item, not a tuple
                    items = (slice(plan[0], plan[0] + 1),) if width == 1 else plan
                    splice = splices[plan] = itemgetter(*items)
            made.append((dst, test, splice))
        return self._rows(made)


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
    left to right from 1, as the states they are: state 0 is initial and
    position ``i``'s label is ``labels[i - 1]``. Returns the list of position
    labels, the final states, and per state the sorted tuple of its
    successor states, one tuple object per distinct successor set; the
    label of a transition is that of its destination.

    The walk runs on an explicit stack, so it does not recurse however deep
    ``e`` is. A node's first and last sets belong to it alone until its
    parent merges them, so they are merged in place, the smaller into the
    larger, which keeps long unions linear.
    """
    labels = []
    follow = [None]  # follow[q]: states that may come right after state q; [0] is set last

    def position(label):
        labels.append(label)
        follow.append(set())
        return len(labels)

    done = []  # (nullable, first, last) of the finished nodes, innermost last
    stack = [(e, None)]  # (node, None) to open it; (node, head state or -1) to close it
    while stack:
        node, h = stack.pop()
        if h is None:
            label = leaf(node)
            if label is not None:
                p = position(label)
                done.append((False, {p}, {p}))
            elif isinstance(node, E.Eps):
                done.append((True, set(), set()))
            elif isinstance(node, (E.Union, E.Concat)):
                stack += [(node, -1), (node.right, None), (node.left, None)]
            elif isinstance(node, E.Star):
                stack += [(node, -1), (node.body, None)]
            elif isinstance(node, E.Bind) and head is not None:
                stack += [(node, position(head(node))), (node.body, None)]
            else:
                raise AssertionError(f"{type(node).__name__} node outside the positions of this view")
            continue
        n2, f2, l2 = done.pop()
        if isinstance(node, E.Star):
            for p in l2:
                follow[p] |= f2
            done.append((True, f2, l2))
        elif isinstance(node, E.Bind):
            follow[h] |= f2
            if n2:
                l2.add(h)
            done.append((False, {h}, l2))
        else:
            n1, f1, l1 = done.pop()
            if isinstance(node, E.Union):
                done.append((n1 or n2, _merge(f1, f2), _merge(l1, l2)))
            else:
                for p in l1:
                    follow[p] |= f2
                done.append((n1 and n2, _merge(f1, f2) if n1 else f1, _merge(l2, l1) if n2 else l2))

    nullable, follow[0], finals = done.pop()
    if nullable:
        finals.add(0)
    rows = {}
    succs = [tuple(sorted(s)) for s in follow]
    return labels, finals, [rows.setdefault(row, row) for row in succs]


def _merge(a, b):
    """The union of two sets that nothing else holds, built in the larger one."""
    if len(a) < len(b):
        a, b = b, a
    a |= b
    return a


def register_nfa(e: E.Rewb) -> RegisterNfa:
    """Flatten ``e`` to a guarded NFA; requires ``e`` well-named.

    Slots are allocated by binder depth: the free variables first, then one
    slot per depth of binder nesting. Two binders at one depth never enclose
    each other, and a binder's variable is read only inside its body, which
    a run enters only through the binder's head, where it stores the
    variable. So between that store and any read of it, no other binder at
    the same depth runs, and the binders at one depth can share a slot.
    """
    _require_well_named(e)

    def leaf(node):
        if isinstance(node, E.Atom):
            return node.letter, None, None
        if isinstance(node, E.Test):
            return node.letter, node.cond, None
        return None

    free = tuple(sorted(e.free))
    slot = {var: i for i, var in enumerate(free)}
    stack = [(e, len(free))] if e.bound else []
    while stack:  # the binders, skipping subtrees that bind nothing
        node, depth = stack.pop()
        if isinstance(node, E.Bind):
            slot[node.var] = depth
            depth += 1
        stack += [(child, depth) for child in E.children(node) if child.bound]
    labels, finals, succs = _glushkov(e, leaf, lambda node: (node.letter, None, node.var))
    return RegisterNfa(labels, finals, succs, free, slot)


def hier_automaton(e: E.Rewb) -> PositionAutomaton:
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

    return PositionAutomaton(*_glushkov(e, leaf, head))


def automaton_size(e: E.Rewb) -> int:
    """Number of states of the hierarchical automaton of ``e``."""
    return automaton_sizes(e)[e]


def automaton_sizes(e: E.Rewb) -> dict:
    """The hierarchical automaton's state count for every subexpression of ``e``.

    Maps each distinct node of ``e`` to "positions + 1" of its own view
    (see ``hier_automaton``), counted bottom-up from the children's counts
    without building an automaton. At F-level f the positions are the
    letters if f is 0; in an E-shaped view the maximal nodes of F-level
    below f and the binders above them; in an F-shaped view the maximal
    nodes of E-level at most f. The last two are counted for every cut up to
    the F-level of ``e``, the largest that any subexpression uses.
    """
    cuts = range(e.level.f_level + 1)
    letters, e_blocks, f_blocks, sizes = {}, {}, {}, {}
    stack = [e]
    while stack:  # post-order over distinct nodes
        node = stack[-1]
        todo = [k for k in E.children(node) if k not in sizes]
        if todo:
            stack += todo
            continue
        stack.pop()
        if node in sizes:
            continue
        kids = E.children(node)
        f, e_level = node.level.f_level, node.level.e_level
        letters[node] = isinstance(node, (E.Atom, E.Test)) + sum(letters[k] for k in kids)
        e_blocks[node] = tuple(
            1 if f <= c else isinstance(node, E.Bind) + sum(e_blocks[k][c] for k in kids) for c in cuts
        )
        f_blocks[node] = tuple(1 if e_level <= c else sum(f_blocks[k][c] for k in kids) for c in cuts)
        if f == 0:
            positions = letters[node]
        elif e_level == f:
            positions = e_blocks[node][f - 1]
        else:
            positions = f_blocks[node][f]
        sizes[node] = positions + 1
    return sizes


def dump_automaton(e: E.Rewb) -> str:
    """Debug listing of the hierarchical automaton, one transition per line."""
    from .syntax import print_cond, print_expr

    aut = hier_automaton(e)
    finals = " ".join(str(q) for q in sorted(aut.finals))
    lines = [f"states {len(aut.states)}", "initial 0", f"final {finals}"]
    for src, label, dst in aut.transitions:
        if isinstance(label, Read):
            cond = f"[{print_cond(label.cond)}]" if label.cond is not None else ""
            text = f"read {label.letter}{cond}"
        elif isinstance(label, BindRead):
            text = f"bind {label.letter}@{label.var}"
        else:
            text = f"subexpr {print_expr(label.expr)}"
        lines.append(f"{src} -> {dst} {text}")
    return "\n".join(lines) + "\n"
