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

Expression nodes are hash-consed: equal trees are one object, so equality
is identity, hashing costs O(1) and caches keyed by trees never walk them.
Each node carries its level, size, free variables, binder names and
whether it is well-named, computed once from its children's when it is
first made. ``satisfies`` interprets a condition over a dict valuation (the
reference semantics); ``compile_cond`` turns it into a closure over a
register tuple with one slot per variable.
"""

from __future__ import annotations

import random
import weakref
from dataclasses import dataclass

from .errors import UndefinedVariableError, ValidationError

Letter = str
Var = str
DataValue = str
Valuation = dict  # Var -> DataValue, treated as immutable


# ---------------------------------------------------------------------------
# Conditions


@dataclass(frozen=True, slots=True)
class Eq:
    var: Var


@dataclass(frozen=True, slots=True)
class Neq:
    var: Var


@dataclass(frozen=True, slots=True)
class Not:
    body: "Condition"


@dataclass(frozen=True, slots=True)
class And:
    left: "Condition"
    right: "Condition"


@dataclass(frozen=True, slots=True)
class Or:
    left: "Condition"
    right: "Condition"


Condition = Eq | Neq | Not | And | Or


def cond_vars(c: Condition) -> set[Var]:
    """Variables mentioned anywhere in a condition."""
    if isinstance(c, (Eq, Neq)):
        return {c.var}
    if isinstance(c, Not):
        return cond_vars(c.body)
    return cond_vars(c.left) | cond_vars(c.right)


def satisfies(c: Condition, d: DataValue, val: Valuation) -> bool:
    """Does data value ``d`` satisfy ``c`` under valuation ``val``?

    Raises UndefinedVariableError when the condition mentions a variable
    that ``val`` does not define; satisfaction against an undefined
    variable is an error, never a truth value.
    """
    if isinstance(c, Eq):
        if c.var not in val:
            raise UndefinedVariableError(f"variable {c.var} has no value")
        return val[c.var] == d
    if isinstance(c, Neq):
        if c.var not in val:
            raise UndefinedVariableError(f"variable {c.var} has no value")
        return val[c.var] != d
    if isinstance(c, Not):
        return not satisfies(c.body, d, val)
    if isinstance(c, And):
        return satisfies(c.left, d, val) and satisfies(c.right, d, val)
    return satisfies(c.left, d, val) or satisfies(c.right, d, val)


# The value of a register that no binder has stored to yet.
UNSET = object()


def compile_cond(c: Condition, slot: dict):
    """``c`` as a function ``test(d, regs)`` of a data value and a register tuple.

    ``slot`` maps each variable of ``c`` to its index in ``regs``. The test
    agrees with ``satisfies`` under the valuation the tuple encodes, with
    the same left-to-right short cuts: reading a register that holds UNSET
    raises UndefinedVariableError.
    """
    if isinstance(c, Not):
        body = compile_cond(c.body, slot)
        return lambda d, regs: not body(d, regs)
    if isinstance(c, (Eq, Neq)):
        i, var, eq = slot[c.var], c.var, isinstance(c, Eq)

        def leaf(d, regs):
            v = regs[i]
            if v is UNSET:
                raise UndefinedVariableError(f"variable {var} has no value")
            return v == d if eq else v != d

        return leaf
    left, right = compile_cond(c.left, slot), compile_cond(c.right, slot)
    if isinstance(c, And):
        return lambda d, regs: left(d, regs) and right(d, regs)
    return lambda d, regs: left(d, regs) or right(d, regs)


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
        return Level(f, e), left.size + right.size + 1, free, bound, well_named
    if isinstance(node, Star):
        body = node.body
        f = body.level.f_level
        return Level(f, f + 1), body.size + 1, body.free, body.bound, body.well_named
    if isinstance(node, Bind):
        body, var = node.body, node.var
        e = body.level.e_level
        free = body.free - {var} if var in body.free else body.free
        well_named = body.well_named and var not in body.bound
        return Level(e, e), body.size + 1, free, body.bound | {var}, well_named
    free = frozenset(cond_vars(node.cond)) if isinstance(node, Test) else _EMPTY
    return Level(0, 1), 1, free, _EMPTY, True


# ---------------------------------------------------------------------------
# Expressions


class _Node:
    """Base of the node kinds, each listing its fields in ``__match_args__``.

    Nodes are hash-consed in a weak table keyed by kind and fields, children
    by identity: building a node equal to a live one returns that node, so
    equality is identity and hashing costs O(1). The fields of ``_measure``
    are computed from the children's when a node is first made. Pickles
    carry the fields only, so loading one re-interns.
    """

    __slots__ = ("level", "size", "free", "bound", "well_named", "__weakref__")
    __match_args__ = ()
    _table = weakref.WeakValueDictionary()

    def __new__(cls, *fields):
        key = (cls, *fields)
        node = _Node._table.get(key)
        if node is None:
            node = object.__new__(cls)
            for name, value in zip(cls.__match_args__, fields, strict=True):
                object.__setattr__(node, name, value)
            # _measure returns its fields in the order of __slots__.
            for name, value in zip(_Node.__slots__, _measure(node)):
                object.__setattr__(node, name, value)
            _Node._table[key] = node
        return node

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} nodes are immutable")

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__match_args__)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__name__}({fields})"


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
    """
    free = e.free
    counter = 0

    def fresh(base):
        nonlocal counter
        while True:
            counter += 1
            cand = f"{base}_{counter}"
            if cand not in free:
                return cand

    def rename_cond(c, env):
        if isinstance(c, Eq):
            return Eq(env.get(c.var, c.var))
        if isinstance(c, Neq):
            return Neq(env.get(c.var, c.var))
        if isinstance(c, Not):
            return Not(rename_cond(c.body, env))
        if isinstance(c, And):
            return And(rename_cond(c.left, env), rename_cond(c.right, env))
        return Or(rename_cond(c.left, env), rename_cond(c.right, env))

    def walk(node, env):
        if isinstance(node, Eps):
            return node
        if isinstance(node, Atom):
            return node
        if isinstance(node, Test):
            return Test(node.letter, rename_cond(node.cond, env))
        if isinstance(node, Union):
            return Union(walk(node.left, env), walk(node.right, env))
        if isinstance(node, Concat):
            return Concat(walk(node.left, env), walk(node.right, env))
        if isinstance(node, Star):
            return Star(walk(node.body, env))
        new = fresh(node.var)
        return Bind(node.letter, new, walk(node.body, {**env, node.var: new}))

    return walk(e, {})


# ---------------------------------------------------------------------------
# Union Normal Form


def to_unf(e: Rewb) -> list[Rewb]:
    """Split ``e`` into union-free parts whose union defines the same language.

    Binding and concatenation distribute over union; stars do not, so
    sub-expressions strictly below the e-level of ``e`` are kept intact as
    leaves. The number of parts may be exponential in the size of ``e``;
    no cap is applied. Every part compiles to an automaton no larger than
    the automaton of ``e``.
    """
    cut = classify(e).e_level

    def split(node):
        if isinstance(node, Union):
            return split(node.left) + split(node.right)
        if classify(node).f_level < cut:
            return [node]
        if isinstance(node, Concat):
            return [Concat(a, b) for a in split(node.left) for b in split(node.right)]
        if isinstance(node, Bind):
            return [Bind(node.letter, node.var, b) for b in split(node.body)]
        # A star with f_level >= cut cannot occur outside the leaves above.
        return [node]

    return split(e)


# ---------------------------------------------------------------------------
# Indistinguishable variables (sampled)


def indistinguishable_sampled(e: Rewb, vars: list[Var], trials: int, seed: int) -> bool:
    """Probabilistic check that the given free variables only matter through
    their set of values.

    Draws, per trial, a condition of ``e``, a data value and a pair of
    valuations that agree outside ``vars`` and have equal value sets on
    ``vars``; returns False on the first disagreement. True only means no
    counterexample was found, not a proof.
    """
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
