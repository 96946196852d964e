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

Expression nodes hash on first use and keep the hash, so caches keyed by
trees walk each tree once. ``satisfies`` interprets a condition over a dict
valuation (the reference semantics); ``compile_cond`` turns it into a
closure over a register tuple with one slot per variable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

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
# Expressions


def _node(cls):
    """Make ``cls`` a frozen dataclass whose hash is computed once, on first use.

    The generated hash walks the whole subtree, which caches keyed by
    expressions would pay on every lookup. The kept hash stays out of
    equality, repr and pickles (which may be loaded under another hash seed).
    """
    cls.__annotations__["_hash"] = int
    cls._hash = field(default=None, init=False, repr=False, compare=False)
    cls = dataclass(frozen=True, slots=True)(cls)
    walk = cls.__hash__

    def __hash__(self):
        h = self._hash
        if h is None:
            h = walk(self)
            object.__setattr__(self, "_hash", h)
        return h

    cls.__hash__ = __hash__
    cls.__reduce__ = lambda self: (type(self), tuple(getattr(self, f) for f in self.__match_args__))
    return cls


@_node
class Eps:
    pass


@_node
class Atom:
    letter: Letter


@_node
class Test:
    letter: Letter
    cond: Condition


@_node
class Union:
    left: "Rewb"
    right: "Rewb"


@_node
class Concat:
    left: "Rewb"
    right: "Rewb"


@_node
class Star:
    body: "Rewb"


@_node
class Bind:
    letter: Letter
    var: Var
    body: "Rewb"


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
    """Number of AST nodes."""
    return sum(1 for _ in subexpressions(e))


def conditions_in(e: Rewb) -> list[Condition]:
    """Conditions of all Test nodes, in pre-order (duplicates kept)."""
    return [n.cond for n in subexpressions(e) if isinstance(n, Test)]


def free_vars(e: Rewb) -> set[Var]:
    """Variables with a condition occurrence not under a binder of that name."""
    out: set[Var] = set()

    def walk(node, bound):
        if isinstance(node, Test):
            out.update(cond_vars(node.cond) - bound)
        elif isinstance(node, Bind):
            walk(node.body, bound | {node.var})
        else:
            for c in children(node):
                walk(c, bound)

    walk(e, frozenset())
    return out


def binder_vars(e: Rewb) -> list[Var]:
    """Variables of all Bind nodes, in pre-order (duplicates kept)."""
    return [n.var for n in subexpressions(e) if isinstance(n, Bind)]


def all_vars(e: Rewb) -> set[Var]:
    """Every variable occurring in ``e``, free or bound."""
    out = free_vars(e)
    out.update(binder_vars(e))
    for c in conditions_in(e):
        out.update(cond_vars(c))
    return out


def letters_in(e: Rewb) -> set[Letter]:
    return {n.letter for n in subexpressions(e) if isinstance(n, (Atom, Test, Bind))}


def is_well_named(e: Rewb) -> bool:
    """Binder names pairwise distinct and disjoint from the free variables."""
    binders = binder_vars(e)
    return len(binders) == len(set(binders)) and not (set(binders) & free_vars(e))


def alpha_rename(e: Rewb) -> Rewb:
    """Rename binders so that all binder names are pairwise distinct and
    disjoint from the free variables.

    The scheme is deterministic: the j-th binder in pre-order gets the
    suffix ``_j`` appended to its original name (skipping any index that
    would collide with a free variable). Free occurrences are untouched,
    so membership is preserved for every compatible valuation.
    """
    free = free_vars(e)
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
# Level classification

_INF = float("inf")


@dataclass(frozen=True, slots=True)
class Level:
    f_level: int
    e_level: int

    def as_tuple(self):
        return (self.f_level, self.e_level)


def classify(e: Rewb) -> Level:
    """Minimal F- and E-levels of ``e`` in the iterated-binding hierarchy.

    Bottom-up: each node gets a pure-F rank (how it can be produced by the
    F-grammar directly) and a pure-E rank (by the E-grammar directly);
    membership is monotone across levels, so the minima combine as
    f = min(Fr, Er) and e = min(Er, Fr + 1). Atoms have Fr = 0; stars kill
    the E rank; binders kill the F rank. Validated against an exhaustive
    grammar-derivation search in the test suite.
    """
    f, ee = _levels(e)
    return Level(f, ee)


def _levels(e: Rewb):
    if isinstance(e, (Eps, Atom, Test)):
        fr, er = 0, _INF
    elif isinstance(e, (Union, Concat)):
        lf, le = _levels(e.left)
        rf, re_ = _levels(e.right)
        fr, er = max(lf, rf), max(le, re_)
    elif isinstance(e, Star):
        bf, _ = _levels(e.body)
        fr, er = bf, _INF
    else:
        _, be = _levels(e.body)
        fr, er = _INF, be
    f = min(fr, er)
    ee = min(er, fr + 1)
    return int(f), int(ee)


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
    missing = set(vars) - free_vars(e)
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
