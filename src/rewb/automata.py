"""Compilation of expressions to automata.

Two views are built, both by one position (Glushkov) construction,
``_glushkov``, which each view gives a function that labels the nodes it
reads as single positions, and both are one ``PositionAutomaton``: labels,
finals and one sorted successor tuple per state, shared by the states
with equal successor sets, with no epsilon transitions. The construction
runs on an explicit stack, so it does not recurse. The (src, label, dst)
``transitions`` are built from the successor tuples only when read. The
state count is "letter occurrences + 1" for the flattened view, a maximal
union of plain letters counting once, and "meta-letter occurrences + 1"
for the hierarchical view.

* ``hier_automaton`` keeps the expression's own level visible: a
  binding-free expression gets Read transitions over its letter
  occurrences; an expression whose minimal E-level equals its F-level gets
  BindRead transitions for binders plus SubExpr transitions over its
  maximal lower-F blocks (and is acyclic, since stars only occur inside
  those blocks); an expression that is properly F-shaped gets SubExpr
  transitions over its maximal E-level blocks.

* ``register_nfa`` (a ``RegisterNfa``, the position automaton with one
  compiled move row per distinct successor set) flattens
  everything to guarded letter transitions with store actions: a binder
  contributes its head letter with a store, a conditioned letter its
  guard, and a maximal union of plain letters is one position, a character
  class (Berry and Sethi, 1986: its letters share predecessors and
  successors). Acceptance is defined over configurations (state,
  valuation); the language equals the expression's language for every
  compatible starting valuation. Its registers have one slot per free
  variable and one per binder nesting depth, which the binders at that
  depth share. For the configuration searches and word membership it
  compiles each guard once to a generated function of the register tuple,
  or for the layered search of a set of numbered tuples, so a run reads no
  guard tree, and it empties a binder's register at the moves where it
  dies (no later guard reads it before a store), so runs that differ only
  in dead values meet.

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
        read the successor tuples or the move rows instead.
        """
        labels = self.labels
        return tuple((src, labels[dst - 1], dst) for src, succ in enumerate(self.succs) for dst in succ)


class RegisterNfa(PositionAutomaton):
    """Position automaton over letter classes with guards and stores.

    A label is (letters, guard, store): the sorted tuple of the letters that
    read the position (one, or a class's), ``guard`` a Condition or None
    (always true) and ``store`` a variable or None. A move into a position
    reads one of its letters, tests its guard and makes its store, so the
    interpreted readers walk ``succs`` and ``labels`` as they are. States
    with equal successor sets share one row of moves, and ``row_numbers``
    numbers the distinct rows.

    Registers are a tuple of ``width`` slots, and ``slot`` maps each
    variable to its slot. The free variables ``free`` take the first slots
    in sorted order, then each binder nesting depth takes one slot, shared
    by the binders at that depth (see ``register_nfa``). ``row_index`` and
    ``mask_index`` are built on first use, in the forms the searches and
    ``member`` run, each a list of one row per row number; see there for
    where registers are cleared.
    """

    def __init__(self, labels, finals, succs, free, slot):
        super().__init__(labels, finals, succs)
        self.free = free
        self.slot = slot
        self.width = max(slot.values(), default=-1) + 1

    @property
    def transitions(self):
        """Per arc, one (src, (letter, guard, store), dst) for each letter of dst."""
        return tuple((src, (letter, guard, store), dst)
                     for src, (letters, guard, store), dst in super().transitions for letter in letters)

    def _rows(self, entry):
        """Per row number, the row ``{letter: (entry[dst] for each successor
        dst the letter reads)}`` of the states with that successor tuple."""
        labels = self.labels
        out = []
        for n, succ in zip(self.row_numbers, self.succs):
            if n == len(out):  # the first state with this row
                moves = {}
                for dst in succ:
                    for letter in labels[dst - 1][0]:
                        moves.setdefault(letter, []).append(entry[dst])
                out.append({letter: tuple(ms) for letter, ms in moves.items()})
        return out

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
    def row_numbers(self):
        """Per state, the number of its row: the distinct successor tuples in
        order of first appearance, so state 0's row is row 0."""
        numbers = {}
        return [numbers.setdefault(succ, len(numbers)) for succ in self.succs]

    @cached_property
    def row_index(self):
        """The rows by row number, for ``_search`` and ``member``: per letter,
        the entries (row number of dst, whether dst is final, test, splice).
        States with one row have one future, so both key configurations by
        row, and read acceptance from the entry of a move, since a row can
        be shared by a final and a non-final state.

        ``test`` is the guard compiled over registers (None for no guard).
        ``splice`` is None when the move leaves the registers as they are;
        otherwise ``splice(regs + (d, UNSET))`` is the register tuple after
        the move reads value ``d``: the store put in its slot and the slots
        of ``liveness``'s ``clear`` emptied, in one step. So configurations
        that differ only in dead registers become one.
        """
        numbers, finals = self.row_numbers, self.finals
        made = self._compiled_entries(E.compile_cond)
        made[1:] = [(numbers[dst], dst in finals, test, splice) for dst, test, splice in made[1:]]
        return self._rows(made)

    @cached_property
    def mask_index(self):
        """The rows of ``row_index`` by row number with entries (dst, mask,
        splice), each guard compiled by ``compile_mask`` to a set function
        over numbered register tuples, for the layered search."""
        return self._rows(self._compiled_entries(E.compile_mask))

    def _compiled_entries(self, compile_guard):
        """Per position ``dst``, the entry (dst, compiled guard, splice), the
        splice emptying the slots of ``liveness``'s ``clear[dst]``, indexed
        from 1 like the states. A guard is compiled once per object, and the
        positions with one slot plan, the slot stored and the slots emptied,
        share one splice."""
        width, slot = self.width, self.slot
        clear = self.liveness[1]
        tests, splices = {}, {}
        made = [None]
        for dst, (_letter, guard, store) in enumerate(self.labels, start=1):
            test = None
            if guard is not None:
                test = tests.get(guard)
                if test is None:
                    test = tests[guard] = compile_guard(guard, slot)
            splice = None
            if store is not None or clear[dst]:
                stored, cleared = plan = (slot.get(store), clear[dst])
                splice = splices.get(plan)
                if splice is None:
                    items = tuple(width + 1 if cleared >> i & 1 else width if i == stored else i
                                  for i in range(width))
                    if width == 1:  # itemgetter of one index returns the item, not a tuple
                        items = (slice(items[0], items[0] + 1),)
                    splice = splices[plan] = itemgetter(*items)
            made.append((dst, test, splice))
        return made


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
    # (node, None) to open it; (node, head state or -1) to close it
    stack = [(e, None)]
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

    shared = {}  # one label per position node, which its positions share
    plain = {}  # union node -> whether all its leaves are letters

    def leaf(node):
        label = shared.get(node)
        if label is None:
            kind = type(node)
            if kind is E.Atom or kind is E.Test:
                label = ((node.letter,), getattr(node, "cond", None), None)
            elif kind is E.Union and _plain_union(node, plain):
                label = (tuple(sorted(E.letters_in(node))), None, None)
            else:
                return None
            shared[node] = label
        return label

    free = tuple(sorted(e.free))
    slot = {var: i for i, var in enumerate(free)}
    stack = [(e, len(free))] if e.bound else []
    while stack:  # the binders, skipping subtrees that bind nothing
        node, depth = stack.pop()
        kind = type(node)
        if kind is E.Bind:
            slot[node.var] = depth
            if node.body.bound:
                stack.append((node.body, depth + 1))
        elif kind is E.Star:
            stack.append((node.body, depth))
        else:  # a union or concatenation; leaves bind nothing
            if node.right.bound:
                stack.append((node.right, depth))
            if node.left.bound:
                stack.append((node.left, depth))
    labels, finals, succs = _glushkov(e, leaf, lambda node: ((node.letter,), None, node.var))
    return RegisterNfa(labels, finals, succs, free, slot)


def _plain_union(top, plain):
    """Whether every leaf of the union ``top`` reached through unions is a
    letter. Fills in ``plain`` for ``top`` and every union under it, children
    first, so over all calls each union node is decided once."""
    stack = [] if top in plain else [top]
    while stack:
        node = stack[-1]
        sides = (node.left, node.right)
        todo = [k for k in sides if type(k) is E.Union and k not in plain]
        if todo:
            stack += todo
            continue
        stack.pop()
        plain[node] = all(plain[k] if type(k) is E.Union else type(k) is E.Atom for k in sides)
    return plain[top]


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
