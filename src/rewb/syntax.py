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

Words are whitespace-separated ``letter:value`` tokens. Graph files are
line-based (``node``, ``edge src letter value dst``, ``source``, ``sink``,
``#`` comments); valuations are comma-separated ``var=value`` bindings.
All formats are UTF-8 with LF line endings.
"""

from __future__ import annotations

import re

from . import expr as E
from .data import DataGraph, DataWord
from .errors import SourceError

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_VALUE_RE = re.compile(r"[A-Za-z0-9_]+\Z")

_SYMBOLS = ("!=", "+", ".", "*", "@", "(", ")", "[", "]", "|", "&", "~", "=")


class _Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col


def _tokenize(text):
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        m = _IDENT_RE.match(text, i)
        if m:
            word = m.group()
            kind = "eps" if word == "eps" else "ident"
            tokens.append(_Token(kind, word, line, col))
            col += len(word)
            i = m.end()
            continue
        for sym in _SYMBOLS:
            if text.startswith(sym, i):
                tokens.append(_Token(sym, sym, line, col))
                col += len(sym)
                i += len(sym)
                break
        else:
            raise SourceError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind, what=None):
        tok = self.peek()
        if tok.kind != kind:
            want = what or f"'{kind}'"
            got = repr(tok.text) if tok.kind != "eof" else "end of input"
            raise SourceError(f"expected {want}, found {got}", tok.line, tok.col)
        return self.next()

    def at(self, kind):
        return self.peek().kind == kind

    # expression grammar

    def expr(self):
        out = self.seq()
        while self.at("+"):
            self.next()
            out = E.Union(out, self.seq())
        return out

    def seq(self):
        out = self.unit()
        while self.at("."):
            self.next()
            out = E.Concat(out, self.unit())
        return out

    def unit(self):
        out = self.atom()
        while self.at("*"):
            self.next()
            out = E.Star(out)
        return out

    def atom(self):
        tok = self.peek()
        if tok.kind == "eps":
            self.next()
            return E.EPS
        if tok.kind == "(":
            self.next()
            out = self.expr()
            self.expect(")")
            return out
        if tok.kind != "ident":
            got = repr(tok.text) if tok.kind != "eof" else "end of input"
            raise SourceError(f"expected an expression, found {got}", tok.line, tok.col)
        letter = self.next().text
        if self.at("["):
            self.next()
            cond = self.cond()
            self.expect("]")
            return E.Test(letter, cond)
        if self.at("@"):
            self.next()
            var = self.expect("ident", "a variable name").text
            self.expect("(")
            body = self.expr()
            self.expect(")")
            return E.Bind(letter, var, body)
        return E.Atom(letter)

    # condition grammar (right-associated folds)

    def cond(self):
        first = self.conj()
        if self.at("|"):
            self.next()
            return E.Or(first, self.cond())
        return first

    def conj(self):
        first = self.neg()
        if self.at("&"):
            self.next()
            return E.And(first, self.conj())
        return first

    def neg(self):
        tok = self.peek()
        if tok.kind == "~":
            self.next()
            return E.Not(self.neg())
        if tok.kind == "(":
            self.next()
            out = self.cond()
            self.expect(")")
            return out
        if tok.kind != "ident":
            got = repr(tok.text) if tok.kind != "eof" else "end of input"
            raise SourceError(f"expected a condition, found {got}", tok.line, tok.col)
        var = self.next().text
        if self.at("="):
            self.next()
            return E.Eq(var)
        self.expect("!=", "'=' or '!='")
        return E.Neq(var)


def parse_expr(text: str) -> E.Rewb:
    parser = _Parser(text)
    out = parser.expr()
    parser.expect("eof", "end of input")
    return out


# Precedence ranks used by the printers: union 0, concat 1, star 2, atom 3.


def _prec(e):
    if isinstance(e, E.Union):
        return 0
    if isinstance(e, E.Concat):
        return 1
    if isinstance(e, E.Star):
        return 2
    return 3


def print_expr(e: E.Rewb) -> str:
    """Canonical text with minimal parentheses; parse_expr inverts it."""
    return _render(e)


def _render(e):
    if isinstance(e, E.Eps):
        return "eps"
    if isinstance(e, E.Atom):
        return e.letter
    if isinstance(e, E.Test):
        return f"{e.letter}[{print_cond(e.cond)}]"
    if isinstance(e, E.Bind):
        return f"{e.letter}@{e.var}({_render(e.body)})"
    if isinstance(e, E.Star):
        body = _render(e.body)
        if _prec(e.body) < 2:
            body = f"({body})"
        return body + "*"
    if isinstance(e, E.Concat):
        left = _render(e.left)
        if _prec(e.left) < 1:
            left = f"({left})"
        right = _render(e.right)
        if _prec(e.right) < 2:  # right-nested concat or union needs parens
            right = f"({right})"
        return f"{left}.{right}"
    left = _render(e.left)
    right = _render(e.right)
    if isinstance(e.right, E.Union):
        right = f"({right})"
    return f"{left}+{right}"


def print_cond(c: E.Condition) -> str:
    return _rcond(c)


def _cprec(c):
    if isinstance(c, E.Or):
        return 0
    if isinstance(c, E.And):
        return 1
    if isinstance(c, E.Not):
        return 2
    return 3


def _rcond(c):
    if isinstance(c, E.Eq):
        return f"{c.var}="
    if isinstance(c, E.Neq):
        return f"{c.var}!="
    if isinstance(c, E.Not):
        body = _rcond(c.body)
        if _cprec(c.body) < 2:
            body = f"({body})"
        return f"~{body}"
    if isinstance(c, E.And):
        left = _rcond(c.left)
        if _cprec(c.left) < 2:  # left-nested And or Or needs parens
            left = f"({left})"
        right = _rcond(c.right)
        if _cprec(c.right) < 1:
            right = f"({right})"
        return f"{left}&{right}"
    left = _rcond(c.left)
    if _cprec(c.left) < 1:
        left = f"({left})"
    right = _rcond(c.right)
    return f"{left}|{right}"


# ---------------------------------------------------------------------------
# Words


def parse_word(text: str) -> DataWord:
    pairs = []
    line = 1
    col = 1
    for raw in re.split(r"(\s+)", text):
        if not raw or raw.isspace():
            for ch in raw:
                if ch == "\n":
                    line += 1
                    col = 1
                else:
                    col += 1
            continue
        if ":" not in raw:
            raise SourceError(f"expected letter:value, found {raw!r}", line, col)
        letter, _, value = raw.partition(":")
        if not _IDENT_RE.fullmatch(letter) or letter == "eps":
            raise SourceError(f"invalid letter {letter!r}", line, col)
        if not _VALUE_RE.match(value):
            raise SourceError(f"invalid data value {value!r}", line, col)
        pairs.append((letter, value))
        col += len(raw)
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
            letter = _graph_token(fields[2], "letter", lineno)
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
        if not _IDENT_RE.fullmatch(var) or var == "eps":
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
