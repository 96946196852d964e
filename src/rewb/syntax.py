"""Concrete text syntax for expressions, words, graphs and valuations.

Expression grammar (whitespace insignificant)::

    expr  := seq ('+' seq)*
    seq   := unit ('.' unit)*
    unit  := atom '*'*
    atom  := 'eps' | IDENT | IDENT '[' cond ']' | IDENT '@' IDENT '(' expr ')'
           | '(' expr ')'
    cond  := conj ('|' conj)*
    conj  := neg ('&' neg)*
    neg   := '~' neg | IDENT '=' | IDENT '!=' | '(' cond ')'

'+' binds loosest, then '.', then postfix '*'. Binding is written
``a@x(r)`` and condition negation is ``~`` so that ``!=`` stays
unambiguous. ``+`` and ``.`` parse left-associated, ``|`` and ``&``
right-associated; the printers mirror this, so printing followed by
parsing reproduces the tree exactly.

One regular expression scans the text into ``(kind, text, offset)``
tokens. The parser is one operator-precedence loop over them, with a
stack of operands, a stack of pending operators and a stack of open
groups (``(``, ``a@x(``, ``a[`` and ``(`` inside a condition). The
printers walk an explicit stack of pieces, each node kind's text given
by one table. None of them recurses, so the depth of an expression is
bounded by memory only. Offsets become (line, column) only when an
error is reported.

Words are whitespace-separated ``letter:value`` tokens. Graph files are
line-based (``node``, ``edge src letter value dst``, ``source``, ``sink``,
``#`` comments); valuations are comma-separated ``var=value`` bindings.
All formats are UTF-8 with LF line endings.
"""

from __future__ import annotations

import re
from functools import partial

from . import expr as E
from .data import DataGraph, DataWord
from .errors import SourceError

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_VALUE_RE = re.compile(r"[A-Za-z0-9_]+\Z")
_TOKEN_RE = re.compile(rf"\s+|({_IDENT_RE.pattern})|(!=|[+.*@()\[\]|&~=])|(.)", re.S)


def _where(text, offset):
    """(line, column) of ``offset`` in ``text``, both counted from 1."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _is_name(word):
    """Can ``word`` name a letter or a variable? ``eps`` is reserved."""
    return bool(_IDENT_RE.fullmatch(word)) and word != "eps"


def _tokenize(text):
    """The tokens of ``text`` as (kind, text, offset), then an ``eof`` token.

    The kind of a symbol is the symbol itself; words are ``eps`` or ``ident``.
    """
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        word, symbol, other = m.groups()
        if word:
            tokens.append(("eps" if word == "eps" else "ident", word, m.start()))
        elif symbol:
            tokens.append((symbol, symbol, m.start()))
        elif other:
            raise SourceError(f"unexpected character {other!r}", *_where(text, m.start()))
    tokens.append(("eof", "", len(text)))
    return tokens


def _expected(text, want, token):
    kind, word, offset = token
    found = "end of input" if kind == "eof" else repr(word)
    return SourceError(f"expected {want}, found {found}", *_where(text, offset))


# The infix operators of each context, each with the operators that it
# folds first when it meets them on top of the operator stack: '+' and '.'
# fold to the left, '|' and '&' to the right.
_EXPR_OPS = {"+": ("+", "."), ".": (".",)}
_COND_OPS = {"|": ("&",), "&": ()}
_MAKE = {"+": E.Union, ".": E.Concat, "|": E.Or, "&": E.And}


def parse_expr(text: str) -> E.Rewb:
    tokens = _tokenize(text)
    operands = []
    ops = [None]  # infix operators and '~' awaiting operands; None opens a group
    groups = [("eof", None, False)]  # open groups: (closing token, wrap, holds a condition)
    closer, wrap, in_cond = groups[-1]
    infix = _EXPR_OPS
    i = 0
    while True:
        # An operand: a leaf, or a group to open, after which one is wanted again.
        kind, word, _ = tokens[i]
        i += 1
        group = None
        if kind == "(":
            group = (")", None, in_cond)
        elif in_cond:
            if kind == "~":
                ops.append("~")
                continue
            if kind != "ident":
                raise _expected(text, "a condition", tokens[i - 1])
            if tokens[i][0] == "=":
                operands.append(E.Eq(word))
            elif tokens[i][0] == "!=":
                operands.append(E.Neq(word))
            else:
                raise _expected(text, "'=' or '!='", tokens[i])
            i += 1
        elif kind == "eps":
            operands.append(E.EPS)
        elif kind != "ident":
            raise _expected(text, "an expression", tokens[i - 1])
        elif tokens[i][0] == "[":
            group = ("]", partial(E.Test, word), True)
            i += 1
        elif tokens[i][0] == "@":
            var = tokens[i + 1]
            if var[0] != "ident":
                raise _expected(text, "a variable name", var)
            if tokens[i + 2][0] != "(":
                raise _expected(text, "'('", tokens[i + 2])
            group = (")", partial(E.Bind, word, var[1]), False)
            i += 3
        else:
            operands.append(E.Atom(word))
        if group:
            groups.append(group)
            ops.append(None)
            closer, wrap, in_cond = group
            infix = _COND_OPS if in_cond else _EXPR_OPS
            continue
        # After an operand: postfix '*', and groups that close, up to an infix operator.
        while True:
            while ops[-1] == "~":
                ops.pop()
                operands[-1] = E.Not(operands[-1])
            kind = tokens[i][0]
            i += 1
            if kind == "*" and not in_cond:
                operands[-1] = E.Star(operands[-1])
                continue
            folds = infix.get(kind)
            if folds is None and kind != closer:
                want = "end of input" if closer == "eof" else f"'{closer}'"
                raise _expected(text, want, tokens[i - 1])
            while ops[-1] is not None and (folds is None or ops[-1] in folds):
                right = operands.pop()
                operands[-1] = _MAKE[ops.pop()](operands[-1], right)
            if folds is not None:
                ops.append(kind)
                break
            ops.pop()
            groups.pop()
            if wrap is not None:
                operands[-1] = wrap(operands[-1])
            if not groups:
                return operands[0]
            closer, wrap, in_cond = groups[-1]
            infix = _COND_OPS if in_cond else _EXPR_OPS


# Each kind's text: a leaf's string, or pieces, where a string stands for
# itself and (child, kinds) for the child's text, in parentheses when the
# child is one of ``kinds``.
_UNION = (E.Union,)
_UNION_CONCAT = (E.Union, E.Concat)
_OR = (E.Or,)
_OR_AND = (E.Or, E.And)
_PIECES = {
    E.Eps: lambda e: "eps",
    E.Atom: lambda e: e.letter,
    E.Test: lambda e: (f"{e.letter}[", (e.cond, ()), "]"),
    E.Bind: lambda e: (f"{e.letter}@{e.var}(", (e.body, ()), ")"),
    E.Star: lambda e: ((e.body, _UNION_CONCAT), "*"),
    E.Concat: lambda e: ((e.left, _UNION), ".", (e.right, _UNION_CONCAT)),
    E.Union: lambda e: ((e.left, ()), "+", (e.right, _UNION)),
    E.Eq: lambda c: f"{c.var}=",
    E.Neq: lambda c: f"{c.var}!=",
    E.Not: lambda c: ("~", (c.body, _OR_AND)),
    E.And: lambda c: ((c.left, _OR_AND), "&", (c.right, _OR)),
    E.Or: lambda c: ((c.left, _OR), "|", (c.right, ())),
}


def _print(root):
    """The text of a node or condition, written from its last piece to its first."""
    out = []
    stack = [(root, ())]
    while stack:
        piece = stack.pop()
        if type(piece) is str:
            out.append(piece)
            continue
        node, kinds = piece
        pieces = _PIECES[type(node)](node)
        if type(pieces) is str:
            out.append(pieces)
            continue
        if type(node) in kinds:
            out.append(")")
            stack.append("(")
        stack += pieces
    return "".join(reversed(out))


def print_expr(e: E.Rewb) -> str:
    """Canonical text with minimal parentheses; parse_expr inverts it."""
    return _print(e)


def print_cond(c: E.Condition) -> str:
    return _print(c)


# ---------------------------------------------------------------------------
# Words


def parse_word(text: str) -> DataWord:
    pairs = []
    for m in re.finditer(r"\S+", text):
        raw = m.group()
        letter, colon, value = raw.partition(":")
        if not colon:
            raise SourceError(f"expected letter:value, found {raw!r}", *_where(text, m.start()))
        if not _is_name(letter):
            raise SourceError(f"invalid letter {letter!r}", *_where(text, m.start()))
        if not _VALUE_RE.match(value):
            raise SourceError(f"invalid data value {value!r}", *_where(text, m.start()))
        pairs.append((letter, value))
    return tuple(pairs)


def print_word(w: DataWord) -> str:
    return " ".join(f"{letter}:{value}" for letter, value in w)


# ---------------------------------------------------------------------------
# Graphs


def parse_graph(text: str) -> DataGraph:
    nodes = set()
    edges = set()
    ends = {}  # "source"/"sink" -> (node id, line)
    for lineno, raw in enumerate(text.split("\n"), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        fields = stripped.split()
        kind = fields[0]
        if kind == "node":
            if len(fields) != 2:
                raise SourceError("node takes exactly one id", lineno, 1)
            nodes.add(_graph_token(fields[1], "node id", lineno))
        elif kind == "edge":
            if len(fields) != 5:
                raise SourceError("edge takes src letter value dst", lineno, 1)
            src = _graph_token(fields[1], "node id", lineno)
            letter = fields[2]
            if not _is_name(letter):
                raise SourceError(f"invalid letter {letter!r}", lineno, 1)
            value = fields[3]
            if not _VALUE_RE.match(value):
                raise SourceError(f"invalid data value {value!r}", lineno, 1)
            dst = _graph_token(fields[4], "node id", lineno)
            nodes.update((src, dst))
            edges.add((src, letter, value, dst))
        elif kind in ("source", "sink"):
            if len(fields) != 2:
                raise SourceError(f"{kind} takes exactly one id", lineno, 1)
            if kind in ends:
                raise SourceError(f"duplicate {kind} line", lineno, 1)
            ends[kind] = _graph_token(fields[1], "node id", lineno), lineno
        else:
            raise SourceError(f"unknown directive {kind!r}", lineno, 1)
    for kind, (node, lineno) in ends.items():
        if node not in nodes:
            raise SourceError(f"{kind} names an undeclared node: {node}", lineno, 1)
    source, sink = (ends[kind][0] if kind in ends else None for kind in ("source", "sink"))
    return DataGraph(frozenset(nodes), frozenset(edges), source, sink)


def _graph_token(tok, what, lineno):
    if not _IDENT_RE.fullmatch(tok):
        raise SourceError(f"invalid {what} {tok!r}", lineno, 1)
    return tok


def print_graph(g: DataGraph) -> str:
    """Deterministic rendering: nodes sorted by id, then edges by tuple."""
    lines = [f"node {n}" for n in sorted(g.nodes)]
    lines += [f"edge {s} {a} {d} {t}" for s, a, d, t in sorted(g.edges)]
    if g.source is not None:
        lines.append(f"source {g.source}")
    if g.sink is not None:
        lines.append(f"sink {g.sink}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Valuations


def parse_valuation(text: str) -> dict:
    out = {}
    if not text.strip():
        return out
    col = 1
    for part in text.split(","):
        binding = part.strip()
        if "=" not in binding:
            raise SourceError(f"expected var=value, found {binding!r}", 1, col)
        var, _, value = binding.partition("=")
        var = var.strip()
        value = value.strip()
        if not _is_name(var):
            raise SourceError(f"invalid variable {var!r}", 1, col)
        if not _VALUE_RE.match(value):
            raise SourceError(f"invalid data value {value!r}", 1, col)
        if var in out:
            raise SourceError(f"duplicate binding for {var}", 1, col)
        out[var] = value
        col += len(part) + 1
    return out


def print_valuation(val: dict) -> str:
    return ",".join(f"{v}={val[v]}" for v in sorted(val))
