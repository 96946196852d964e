"""Expression trees with binding, conditions, and the level hierarchy.

Letters, variables and data values are plain strings. Letters and variables
must look like identifiers (``[A-Za-z_][A-Za-z0-9_]*``) and must not be the
reserved word ``eps``; data values are opaque tokens compared by equality
only.

Expressions are immutable trees built from seven node kinds::

    Eps | Atom(letter) | Test(letter, cond) | Union(l, r) | Concat(l, r)
        | Star(body) | Bind(letter, var, body)

``Bind(a, x, r)`` reads a letter ``a`` carrying some data value, stores the
value in ``x`` and continues with ``r``. ``Test(a, c)`` reads ``a`` only if
its value satisfies the condition ``c``, a Boolean combination of equality
and inequality checks against variables.

The level of an expression says how deeply binding and iteration nest: the
F-side adds stars over the E-side, the E-side adds bindings over the
previous F-side. Binding-free expressions sit at F-level 0; E-levels start
at 1.

Expression nodes and conditions are hash-consed: equal trees are one
object, so equality is identity, hashing costs O(1) at any depth and
caches keyed by trees never walk them. The table is a plain dict from a
node's kind and fields to a weak reference to the node, so a lookup runs
in C; the reference's callback deletes the entry when the node dies.
Each node carries its level, size, free variables, binder names and
whether it is well-named, computed once from its children's when it is
first made. Levels are shared: every node of one (F-level, E-level) pair
holds the same ``Level``. ``satisfies`` interprets a condition over a dict valuation (the
reference semantics); ``compile_cond`` turns it into one generated function
of a register tuple, given the slot of each variable.
"""

from __future__ import annotations

import random
import weakref
from dataclasses import dataclass
from functools import cache, lru_cache

from .errors import UndefinedVariableError, ValidationError

Letter = str
Var = str
DataValue = str
Valuation = dict  # Var -> DataValue, treated as immutable


# ---------------------------------------------------------------------------
# Conditions


class _Ref(weakref.ref):
    """A weak reference to an interned value that holds the value's table key."""

    __slots__ = ("key",)


# (kind, *fields) -> _Ref of the live value with those fields
_table = {}


def _drop(ref, table=_table):
    """The callback of a dead value's ref: delete its entry, unless an equal
    value made since has replaced the ref there."""
    if table.get(ref.key) is ref:
        del table[ref.key]


class _Interned:
    """Base of the interned kinds, each listing its fields in ``__match_args__``.

    Values are hash-consed in ``_table``, a plain dict from kind and fields,
    parts by identity, to a weak reference to the value: building one equal
    to a live one returns that one, so equality is identity and hashing
    costs O(1) at any depth. A field may also be a tuple of parts, as a
    formula's ``items`` in ``gadgets`` are. A hit is one dict lookup and
    one call of the ref. The entry of a value that dies is deleted by its
    ref's callback. ``_made`` checks the fields of a new one and sets its
    derived fields; a value it rejects never enters the table. Pickles
    carry the fields, so loads re-intern. The table takes no lock: threads that build equal
    values at the same moment may each get one of their own.
    """

    __slots__ = ("__weakref__",)
    __match_args__ = ()

    def __new__(cls, *fields):
        key = (cls, *fields)
        ref = _table.get(key)
        made = ref and ref()
        if made is None:
            made = object.__new__(cls)
            for name, value in zip(cls.__match_args__, fields, strict=True):
                object.__setattr__(made, name, value)
            made._made()
            ref = _table[key] = _Ref(made, _drop)
            ref.key = key
        return made

    def _made(self):
        pass

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} values are immutable")

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__match_args__)

    def __repr__(self):
        """``Kind(field=value, ...)``, written from an explicit stack of
        pieces, so a value of any depth takes no recursion. A tuple field
        is written item by item on the same stack, as ``(x,)`` when it
        has one item."""
        out = []
        stack = [self]
        while stack:
            item = stack.pop()
            if isinstance(item, str):
                out.append(item)
                continue
            if isinstance(item, tuple):
                opening, closing = "(", ",)" if len(item) == 1 else ")"
                parts = [(", " if k else "", value) for k, value in enumerate(item)]
            else:
                opening, closing = f"{type(item).__name__}(", ")"
                parts = [(f"{', ' if k else ''}{name}=", getattr(item, name))
                         for k, name in enumerate(item.__match_args__)]
            stack.append(closing)
            for prefix, value in reversed(parts):
                stack.append(value if isinstance(value, (_Interned, tuple)) else repr(value))
                stack.append(prefix)
            stack.append(opening)
        return "".join(out)


class Eq(_Interned):
    __slots__ = __match_args__ = ("var",)


class Neq(_Interned):
    __slots__ = __match_args__ = ("var",)


class Not(_Interned):
    __slots__ = __match_args__ = ("body",)


class And(_Interned):
    __slots__ = __match_args__ = ("left", "right")


class Or(_Interned):
    __slots__ = __match_args__ = ("left", "right")


Condition = Eq | Neq | Not | And | Or


def cond_vars(c: Condition) -> set[Var]:
    """Variables mentioned anywhere in a condition."""
    out = set()
    stack = [c]
    while stack:
        c = stack.pop()
        if isinstance(c, (Eq, Neq)):
            out.add(c.var)
        elif isinstance(c, Not):
            stack.append(c.body)
        else:
            stack += (c.left, c.right)
    return out


def satisfies(c: Condition, d: DataValue, val: Valuation) -> bool:
    """Does data value ``d`` satisfy ``c`` under valuation ``val``?

    Raises UndefinedVariableError when the condition mentions a variable
    that ``val`` does not define; satisfaction against an undefined
    variable is an error, never a truth value. Evaluated left to right with
    the usual short cuts, on an explicit stack, so a condition of any depth
    takes no recursion.
    """
    pending = []  # Not nodes, and And/Or nodes whose left side is under way
    while True:
        while not isinstance(c, (Eq, Neq)):
            pending.append(c)
            c = c.body if isinstance(c, Not) else c.left
        if c.var not in val:
            raise UndefinedVariableError(f"variable {c.var} has no value")
        result = val[c.var] == d if isinstance(c, Eq) else val[c.var] != d
        while pending:
            node = pending.pop()
            if isinstance(node, Not):
                result = not result
            elif result == isinstance(node, And):  # And goes on at True, Or at False
                c = node.right  # whose value is then the whole node's
                break
        else:
            return result


# The value of a register that no binder has stored to yet.
UNSET = object()

# Boolean operators one generated guard nests before it hands the rest of
# the condition to a guard of its own; the parser rejects source nested
# about 200 parentheses deep.
_NEST = 50


def compile_cond(c: Condition, slot: dict):
    """``c`` as a function ``test(d, regs)`` of a data value and a register tuple.

    ``slot`` maps each variable of ``c`` to its index in ``regs``. The test
    agrees with ``satisfies`` under the valuation the tuple encodes, with
    the same left-to-right short cuts: reading a register that holds UNSET
    raises UndefinedVariableError.

    The test is one generated Python expression, so a check is one call.
    Chains of And or Or become one n-ary ``and`` or ``or``. The source
    holds operators, leaf numbers and parameter names only: each leaf's
    slot index and variable name are bound when the test is made, so the
    code is compiled once per condition shape (the tree without its
    variables) and shared by every condition of that shape. A condition
    nested more than ``_NEST`` operators deep is cut into several
    generated functions, each calling the ones below it.
    """
    return _compile(c, slot, _test_code)


def compile_mask(c: Condition, slot: dict):
    """``c`` as a set function ``mask(d, B, S)`` over numbered register tuples.

    ``S`` is a set of tuple numbers as an int bitset, and ``B[s]`` maps each
    value, UNSET included, to the bitset of the tuples holding it in slot
    ``s`` among the indexed tuples, which must include every tuple of ``S``
    and may include others: the mask reads ``B`` only within ``S``, so the
    tuples indexed beyond ``S`` change nothing. The mask is the subset of
    ``S`` whose tuples pass ``compile_cond``'s
    test against ``d``, and it raises UndefinedVariableError exactly when
    that test raises on some tuple of ``S``. The short cuts carry over as
    sets: the right side of an And sees only the tuples its left side kept,
    that of an Or only the ones it dropped, so a leaf reads its slot on the
    tuples the test reads it on. An Eq leaf is ``S & B[s][d]``.

    The mask is one generated function of flat statements, a few per leaf,
    made once per condition shape and cut at ``_NEST`` as ``compile_cond`` is.
    """
    return _compile(c, slot, _mask_code)


def _compile(c, slot, code):
    """The generated function of ``c``; ``code`` gives the body of each part."""
    roots = [c]  # grows as the parts' code cuts off deeper parts
    parts = []
    for root in roots:
        slots, names, callees = [], [], []
        body = code(root, (slot, slots, names, callees, roots))
        parts.append((body, slots, tuple(names), callees))
    made = [None] * len(parts)
    for i in range(len(parts) - 1, -1, -1):
        body, slots, names, callees = parts[i]
        make = _guard_maker(body, len(slots), len(callees))
        made[i] = make(names, *slots, *[made[j] for j in callees])
    return made[0]


def _leaf(c, ctx):
    """Number the leaf ``c`` in ``ctx``: record its slot and name, return its number."""
    slot, slots, names, _callees, _roots = ctx
    slots.append(slot[c.var])
    names.append(c.var)
    return len(slots) - 1


def _cut(c, ctx):
    """Cut ``c`` off as a part of its own; return its callee number."""
    _slot, _slots, _names, callees, roots = ctx
    callees.append(len(roots))
    roots.append(c)
    return len(callees) - 1


def _operands(c):
    """The maximal chain of ``c``'s operator (And or Or), left to right."""
    kind, operands, stack = type(c), [], [c]
    while stack:
        node = stack.pop()
        if type(node) is kind:
            stack += (node.right, node.left)
        else:
            operands.append(node)
    return operands


def _test_code(c, ctx):
    return f"    return lambda d, r: {_emit(c, 0, ctx)}"


def _emit(c, depth, ctx):
    """Source of ``c`` in a generated test, ``depth`` operators below its root."""
    if isinstance(c, (Eq, Neq)):
        k = _leaf(c, ctx)
        if isinstance(c, Eq):
            return f"(r[s{k}] == d or r[s{k}] is U and _undefined(n, {k}))"
        return f"(r[s{k}] != d and (r[s{k}] is not U or _undefined(n, {k})))"
    if depth == _NEST:
        return f"g{_cut(c, ctx)}(d, r)"
    if isinstance(c, Not):
        return f"(not {_emit(c.body, depth + 1, ctx)})"
    operands = [_emit(node, depth + 1, ctx) for node in _operands(c)]
    return "(" + (" and " if isinstance(c, And) else " or ").join(operands) + ")"


def _mask_code(c, ctx):
    lines = []
    result = _emit_mask(c, 0, "S", ctx, lines)
    body = "".join(f"        {line}\n" for line in lines)
    return f"    def mask(d, B, S):\n{body}        return {result}\n    return mask"


def _emit_mask(c, depth, s, ctx, lines):
    """Append to ``lines`` the statements that set a new local to the subset
    of the bitset ``s`` that satisfies ``c``, ``depth`` operators below its
    root; return the local's name."""
    if isinstance(c, (Eq, Neq)):
        k = _leaf(c, ctx)
        lines.append(f"b = B[s{k}]")
        lines.append(f"if {s} & b.get(U, 0): _undefined(n, {k})")
        # no tuple left in s holds UNSET in the slot
        lines.append(f"t{len(lines)} = {s} & {'' if isinstance(c, Eq) else '~'}b.get(d, 0)")
    elif depth == _NEST:
        lines.append(f"t{len(lines)} = g{_cut(c, ctx)}(d, B, {s})")
    elif isinstance(c, Not):
        kept = _emit_mask(c.body, depth + 1, s, ctx, lines)
        lines.append(f"t{len(lines)} = {s} ^ {kept}")
    elif isinstance(c, And):
        for node in _operands(c):
            s = _emit_mask(node, depth + 1, s, ctx, lines)
        return s
    else:
        rest = s
        for node in _operands(c):
            kept = _emit_mask(node, depth + 1, rest, ctx, lines)
            lines.append(f"t{len(lines)} = {rest} ^ {kept}")
            rest = f"t{len(lines) - 1}"
        lines.append(f"t{len(lines)} = {s} ^ {rest}")
    return f"t{len(lines) - 1}"


def _undefined(names, k):
    raise UndefinedVariableError(f"variable {names[k]} has no value")


@lru_cache(maxsize=1024)
def _guard_maker(body, n_slots, n_callees):
    """``make(names, *slot indices, *callees)``, whose body is ``body``: it
    returns a generated test or mask; compiled once per condition shape."""
    params = ["n", *(f"s{k}" for k in range(n_slots)), *(f"g{j}" for j in range(n_callees))]
    source = f"def make({', '.join(params)}):\n{body}\n"
    namespace = {"U": UNSET, "_undefined": _undefined}
    exec(compile(source, "<guard>", "exec"), namespace)
    return namespace["make"]


def and_all(conds: list) -> Condition:
    """Right-associated conjunction of a nonempty list of conditions."""
    if not conds:
        raise ValidationError("and_all needs at least one condition")
    out = conds[-1]
    for c in reversed(conds[:-1]):
        out = And(c, out)
    return out


def or_all(conds: list) -> Condition:
    """Right-associated disjunction of a nonempty list of conditions."""
    if not conds:
        raise ValidationError("or_all needs at least one condition")
    out = conds[-1]
    for c in reversed(conds[:-1]):
        out = Or(c, out)
    return out


# ---------------------------------------------------------------------------
# Level classification


@dataclass(frozen=True, slots=True)
class Level:
    f_level: int
    e_level: int

    def as_tuple(self):
        return (self.f_level, self.e_level)


# The one Level of each (f_level, e_level) pair, which every node of that level holds.
_level = cache(Level)
_LEAF = _level(0, 1)


def classify(e: Rewb) -> Level:
    """Minimal F- and E-levels of ``e`` in the iterated-binding hierarchy,
    which each node holds from when it was made (see ``_measure``)."""
    return e.level


_EMPTY = frozenset()


def _join(a, b):
    # A union that reuses a side when the other adds nothing to it.
    return a | b if a and b and not b <= a else a or b


def _measure(node):
    """(level, size, free, bound, well_named) of a new node, from its children's.

    A pure-F rank Fr (how the F-grammar produces a node directly) and a
    pure-E rank Er give f = min(Fr, Er) and e = min(Er, Fr + 1), as
    membership is monotone across levels. Letters have Fr = 0 and no Er,
    stars their body's Fr and no Er, binders their body's Er and no Fr, and
    union and concatenation the larger ranks of their sides; as
    f <= e <= f + 1 holds at every child, this comes to the cases below.
    Validated against a grammar-derivation search in the test suite.

    ``free`` and ``bound`` are the free variables and the binder names. A
    binder is well-named if its body is and does not bind its name again; a
    union or concatenation if both sides are, bind no name in common, and
    bind no name that is free in the whole.
    """
    if isinstance(node, (Union, Concat)):
        left, right = node.left, node.right
        f = max(left.level.f_level, right.level.f_level)
        e = min(max(left.level.e_level, right.level.e_level), f + 1)
        free, bound = _join(left.free, right.free), _join(left.bound, right.bound)
        well_named = (left.well_named and right.well_named
                      and left.bound.isdisjoint(right.bound) and bound.isdisjoint(free))
        return _level(f, e), left.size + right.size + 1, free, bound, well_named
    if isinstance(node, Star):
        body = node.body
        f = body.level.f_level
        return _level(f, f + 1), body.size + 1, body.free, body.bound, body.well_named
    if isinstance(node, Bind):
        body, var = node.body, node.var
        e = body.level.e_level
        free = body.free - {var} if var in body.free else body.free
        well_named = body.well_named and var not in body.bound
        return _level(e, e), body.size + 1, free, body.bound | {var}, well_named
    free = frozenset(cond_vars(node.cond)) if isinstance(node, Test) else _EMPTY
    return _LEAF, 1, free, _EMPTY, True


# ---------------------------------------------------------------------------
# Expressions


class _Node(_Interned):
    """Base of the node kinds: interned, with the fields of ``_measure``
    computed from the children's when a node is first made."""

    __slots__ = ("level", "size", "free", "bound", "well_named")

    def _made(self):
        # _measure returns its fields in the order of __slots__.
        for name, value in zip(_Node.__slots__, _measure(self)):
            object.__setattr__(self, name, value)


class Eps(_Node):
    __slots__ = ()


class Atom(_Node):
    __slots__ = __match_args__ = ("letter",)


class Test(_Node):
    __slots__ = __match_args__ = ("letter", "cond")


class Union(_Node):
    __slots__ = __match_args__ = ("left", "right")


class Concat(_Node):
    __slots__ = __match_args__ = ("left", "right")


class Star(_Node):
    __slots__ = __match_args__ = ("body",)


class Bind(_Node):
    __slots__ = __match_args__ = ("letter", "var", "body")


Rewb = Eps | Atom | Test | Union | Concat | Star | Bind


EPS = Eps()


def children(e: Rewb) -> tuple:
    if isinstance(e, (Union, Concat)):
        return (e.left, e.right)
    if isinstance(e, (Star, Bind)):
        return (e.body,)
    return ()


def subexpressions(e: Rewb):
    """All sub-trees of ``e`` including ``e`` itself, in pre-order."""
    stack = [e]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(children(node)))


def size(e: Rewb) -> int:
    """Number of AST nodes, a node shared by several parents counted for each."""
    return e.size


def conditions_in(e: Rewb) -> list[Condition]:
    """Conditions of all Test nodes, in pre-order (duplicates kept)."""
    return [n.cond for n in subexpressions(e) if isinstance(n, Test)]


def free_vars(e: Rewb) -> frozenset[Var]:
    """Variables with a condition occurrence not under a binder of that name."""
    return e.free


def binder_vars(e: Rewb) -> list[Var]:
    """Variables of all Bind nodes, in pre-order (duplicates kept)."""
    return [n.var for n in subexpressions(e) if isinstance(n, Bind)]


def all_vars(e: Rewb) -> frozenset[Var]:
    """Every variable occurring in ``e``, free or bound."""
    return e.free | e.bound


def letters_in(e: Rewb) -> set[Letter]:
    return {n.letter for n in subexpressions(e) if isinstance(n, (Atom, Test, Bind))}


def is_well_named(e: Rewb) -> bool:
    """Binder names pairwise distinct and disjoint from the free variables."""
    return e.well_named


def alpha_rename(e: Rewb) -> Rewb:
    """Rename binders so that all binder names are pairwise distinct and
    disjoint from the free variables.

    The scheme is deterministic: the j-th binder in pre-order gets the
    suffix ``_j`` appended to its original name (skipping any index that
    would collide with a free variable). Free occurrences are untouched,
    so membership is preserved for every compatible valuation.

    One walk on an explicit stack renames the expression and the
    conditions in it, so a tree of any depth takes no recursion: a node is
    opened with the names in scope, its children are renamed left to
    right, and it is rebuilt from them when it is closed.
    """
    free = e.free
    counter = 0
    done = []  # renamed subtrees, innermost last
    # (node, names in scope, False) opens a node; (node, binder's new name or None, True) closes it
    stack = [(e, {}, False)]
    while stack:
        node, env, close = stack.pop()
        if close:
            if isinstance(node, Bind):
                done.append(Bind(node.letter, env, done.pop()))
            elif isinstance(node, Test):
                done.append(Test(node.letter, done.pop()))
            elif isinstance(node, (Star, Not)):
                done.append(type(node)(done.pop()))
            else:
                right = done.pop()
                done.append(type(node)(done.pop(), right))
        elif isinstance(node, (Eq, Neq)):
            done.append(type(node)(env.get(node.var, node.var)))
        elif isinstance(node, _Node) and not node.bound and env.keys().isdisjoint(node.free):
            done.append(node)  # it binds nothing and reads no renamed name
        elif isinstance(node, Bind):
            while True:
                counter += 1
                new = f"{node.var}_{counter}"
                if new not in free:
                    break
            stack += [(node, new, True), (node.body, {**env, node.var: new}, False)]
        else:
            stack.append((node, None, True))
            if isinstance(node, Test):
                stack.append((node.cond, env, False))
            elif isinstance(node, (Star, Not)):
                stack.append((node.body, env, False))
            else:
                stack += [(node.right, env, False), (node.left, env, False)]
    return done.pop()


# ---------------------------------------------------------------------------
# Union Normal Form


def to_unf(e: Rewb) -> list[Rewb]:
    """Split ``e`` into union-free parts whose union defines the same language.

    Binding and concatenation distribute over union; stars do not, so
    sub-expressions strictly below the e-level of ``e`` are kept intact as
    leaves. The number of parts may be exponential in the size of ``e``;
    no cap is applied. Every part compiles to an automaton no larger than
    the automaton of ``e``.

    The walk runs on an explicit stack, so a tree of any depth takes no
    recursion: a node that splits is opened, its children are split left
    to right, and its parts are made from theirs when it is closed.
    """
    cut = e.level.e_level
    done = []  # the parts of the finished nodes, innermost last
    stack = [(e, False)]  # (node, False) to open it; (node, True) to close it
    while stack:
        node, close = stack.pop()
        if not close:
            if isinstance(node, Union) or node.level.f_level >= cut and isinstance(node, (Concat, Bind)):
                stack.append((node, True))
                stack += [(child, False) for child in reversed(children(node))]
            else:
                # a leaf below the cut; a star with f_level >= cut cannot occur outside one
                done.append([node])
        elif isinstance(node, Bind):
            done.append([Bind(node.letter, node.var, b) for b in done.pop()])
        elif isinstance(node, Union):
            right = done.pop()
            done[-1] += right
        else:
            right = done.pop()
            done.append([Concat(a, b) for a in done.pop() for b in right])
    return done.pop()


# ---------------------------------------------------------------------------
# Indistinguishable variables (sampled)


def indistinguishable_sampled(e: Rewb, vars: list[Var], trials: int, seed: int) -> bool:
    """Probabilistic check that the given free variables only matter through
    their set of values.

    Draws, per trial, a condition of ``e``, a data value and a pair of
    valuations that agree outside ``vars`` and have equal value sets on
    ``vars``; returns False on the first disagreement. True only means no
    counterexample was found, not a proof. The answer is a function of its
    arguments and nodes are interned, so it is memoized.
    """
    return _indistinguishable(e, tuple(vars), trials, seed)


@lru_cache(maxsize=256)
def _indistinguishable(e, vars, trials, seed):
    missing = set(vars) - e.free
    if missing:
        raise ValidationError(f"not free in the expression: {sorted(missing)}")
    conds = conditions_in(e)
    if not conds or not vars:
        return True

    rng = random.Random(seed)
    pool = ["v0", "v1", "v2"]
    others = sorted(set().union(*(cond_vars(c) for c in conds)) - set(vars))

    for _ in range(trials):
        c = rng.choice(conds)
        base = {v: rng.choice(pool) for v in others}
        first = [rng.choice(pool) for _ in vars]
        values = sorted(set(first))
        second = None
        for _ in range(20):
            cand = [rng.choice(values) for _ in vars]
            if sorted(set(cand)) == values:
                second = cand
                break
        if second is None:
            second = list(first)
            rng.shuffle(second)
        nu1 = {**base, **dict(zip(vars, first))}
        nu2 = {**base, **dict(zip(vars, second))}
        d = rng.choice(pool)
        if satisfies(c, d, nu1) != satisfies(c, d, nu2):
            return False
    return True
