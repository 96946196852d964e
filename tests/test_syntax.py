"""Text formats: parsing, printing, round-trips, error positions."""

import hashlib
import random

import pytest

import rewb.expr as E
from rewb.data import graph
from rewb.errors import SourceError
from rewb.pcp import PcpInstance, pcp_delta
from rewb.randgen import random_expr, random_graph, random_word
from rewb.syntax import (
    parse_expr,
    parse_graph,
    parse_valuation,
    parse_word,
    print_cond,
    print_expr,
    print_graph,
    print_valuation,
    print_word,
)


def test_parse_binding_and_star():
    e = parse_expr("a@x(b[x=]*)")
    assert e == E.Bind("a", "x", E.Star(E.Test("b", E.Eq("x"))))
    assert parse_expr("(a@x(b[x=]))*") == E.Star(E.Bind("a", "x", E.Test("b", E.Eq("x"))))


def test_parse_precedence():
    assert parse_expr("a+b.c") == E.Union(E.Atom("a"), E.Concat(E.Atom("b"), E.Atom("c")))
    assert parse_expr("a.b*") == E.Concat(E.Atom("a"), E.Star(E.Atom("b")))
    assert parse_expr("a+b+c") == E.Union(E.Union(E.Atom("a"), E.Atom("b")), E.Atom("c"))


def test_parse_condition_connectives():
    e = parse_expr("a[x=|y!=&~z=]")
    assert e == E.Test(
        "a", E.Or(E.Eq("x"), E.And(E.Neq("y"), E.Not(E.Eq("z"))))
    )


def test_parse_errors_carry_positions():
    with pytest.raises(SourceError) as err:
        parse_expr("a[")
    assert (err.value.line, err.value.column) == (1, 3)
    with pytest.raises(SourceError):
        parse_expr("")
    with pytest.raises(SourceError):
        parse_expr("a b")  # juxtaposition is not concatenation
    with pytest.raises(SourceError):
        parse_expr("eps@x(a)")  # 'eps' is reserved


# (text, line, column, message), one or more per error branch of the
# expression and condition grammars.
MALFORMED = [
    ("", 1, 1, "expected an expression, found end of input"),
    ("a[", 1, 3, "expected a condition, found end of input"),
    ("a b", 1, 3, "expected end of input, found 'b'"),
    ("eps@x(a)", 1, 4, "expected end of input, found '@'"),
    ("a@(b)", 1, 3, "expected a variable name, found '('"),
    ("a@eps(b)", 1, 3, "expected a variable name, found 'eps'"),
    ("a@x b", 1, 5, "expected '(', found 'b'"),
    ("a@x(b", 1, 6, "expected ')', found end of input"),
    ("(a+b", 1, 5, "expected ')', found end of input"),
    ("(a\n  b)", 2, 3, "expected ')', found 'b'"),
    ("a[x]", 1, 4, "expected '=' or '!=', found ']'"),
    ("a[x=", 1, 5, "expected ']', found end of input"),
    ("a[x= y=]", 1, 6, "expected ']', found 'y'"),
    ("a[(x=|y!=]", 1, 10, "expected ')', found ']'"),
    ("a[~]", 1, 4, "expected a condition, found ']'"),
    ("a[eps=]", 1, 3, "expected a condition, found 'eps'"),
    ("a[x=*]", 1, 5, "expected ']', found '*'"),
    ("a.+b", 1, 3, "expected an expression, found '+'"),
    ("a*&b", 1, 3, "expected end of input, found '&'"),
    ("a\n\t#", 2, 2, "unexpected character '#'"),
    ("a.b!c", 1, 4, "unexpected character '!'"),
    ("a@x(b[x!=])\n+ )", 2, 3, "expected an expression, found ')'"),
    ("a[x=&]", 1, 6, "expected a condition, found ']'"),
    ("a[x=]]", 1, 6, "expected end of input, found ']'"),
    ("a@x(b))", 1, 7, "expected end of input, found ')'"),
    ("a1[x=|(y!=&z=)", 1, 15, "expected ']', found end of input"),
    ("(a)\n.\u00e9", 2, 2, "unexpected character '\u00e9'"),
    ("a.(b\n+ c@(d)", 2, 5, "expected a variable name, found '('"),
]


@pytest.mark.parametrize("text, line, column, message", MALFORMED)
def test_parse_error_golden(text, line, column, message):
    with pytest.raises(SourceError) as err:
        parse_expr(text)
    assert (err.value.line, err.value.column, err.value.message) == (line, column, message)


# Characters a corruption puts in: symbols, letters, blanks, a newline and
# characters that start no token.
NOISE = "ab x=!()[]@.+*|&~$\n e"


def _corrupt(rng, text):
    """``text`` with one to three random deletions, insertions, replacements
    or truncations."""
    for _ in range(rng.randint(1, 3)):
        k = rng.randrange(len(text) + 1)
        roll = rng.randrange(4)
        if roll == 0:
            text = text[:k] + text[k + 1:]
        elif roll == 1:
            text = text[:k] + rng.choice(NOISE) + text[k:]
        elif roll == 2:
            text = text[:k] + rng.choice(NOISE) + text[k + 1:]
        else:
            text = text[:k]
    return text


def test_parse_results_on_corrupted_texts_are_pinned():
    # the digest of (message, line, column) of each error, or of the text
    # printed back from each tree that still parses, as the scanner that
    # kept an offset in every token gave them: 2,000 corrupted random
    # expressions and 40 corruptions of the 6,420-character i=1 PCP delta
    rng = random.Random(2006)
    texts = [_corrupt(rng, print_expr(random_expr(rng, 20, letters=("a", "b", "c"),
                                                  variables=("x", "y", "z"))))
             for _ in range(2000)]
    delta = print_expr(pcp_delta(PcpInstance((("a", "ab"), ("bb", "b"))), 1))
    texts += [_corrupt(rng, delta) for _ in range(40)]
    digest = hashlib.sha256()
    errors = 0
    for text in texts:
        try:
            result = print_expr(parse_expr(text))
        except SourceError as err:
            errors += 1
            result = f"{err.message} {err.line} {err.column}"
        digest.update(result.encode() + b"\n")
    assert errors == 1783
    assert digest.hexdigest() == "8b7cfd0250fcdc92bad357270c94756f5342fb4e562d9d0e61a4bb6bd08f3312"


DEPTH = 10_000


@pytest.mark.parametrize("text", [
    "a@x(" * DEPTH + "b[x=]" + ")" * DEPTH,  # nested binders
    "a.(" * DEPTH + "b.c" + ")" * DEPTH,  # nested parentheses
    "a[" + "~" * DEPTH + "x=]",
    ".".join(["a"] * DEPTH),
    "+".join(["a"] * DEPTH),
], ids=["binders", "parentheses", "negations", "concat", "union"])
def test_deep_inputs_parse_and_print_back(text):
    # at the default recursion limit: nothing in the text layer recurses
    e = parse_expr(text)
    assert print_expr(e) == text
    if "~" in text:
        assert print_cond(e.cond) == "~" * DEPTH + "x="


def test_deep_condition_prints_and_parses_back():
    c = E.or_all([E.Eq("x")] * 5000)
    assert print_cond(c) == "|".join(["x="] * 5000)
    assert parse_expr(print_expr(E.Test("a", c))) is E.Test("a", c)


def test_print_examples():
    assert print_expr(E.Star(E.Atom("a"))) == "a*"
    assert print_expr(E.Union(E.Atom("a"), E.Concat(E.Atom("b"), E.Atom("c")))) == "a+b.c"
    assert print_expr(E.Concat(E.Union(E.Atom("a"), E.Atom("b")), E.Atom("c"))) == "(a+b).c"


def test_print_respects_fold_directions():
    right_union = E.Union(E.Atom("a"), E.Union(E.Atom("b"), E.Atom("c")))
    assert print_expr(right_union) == "a+(b+c)"
    assert parse_expr(print_expr(right_union)) == right_union
    left_or = E.Or(E.Or(E.Eq("x"), E.Eq("y")), E.Eq("z"))
    test = E.Test("a", left_or)
    assert parse_expr(print_expr(test)) == test


def test_word_round_trip():
    w = parse_word("a:5 b:5 b:5")
    assert w == (("a", "5"), ("b", "5"), ("b", "5"))
    assert print_word(w) == "a:5 b:5 b:5"
    assert parse_word("") == ()
    with pytest.raises(SourceError):
        parse_word("a5")


def test_graph_format():
    g = parse_graph("edge u a 5 v")
    assert g.nodes == {"u", "v"}
    assert g.edges == {("u", "a", "5", "v")}
    dup = parse_graph("edge u a 5 v\nedge u a 5 v")
    assert len(dup.edges) == 1
    with pytest.raises(SourceError):
        parse_graph("source w")
    commented = parse_graph("# heading\nnode lonely\nedge u a 5 v # trailing\nsource u\nsink v\n")
    assert commented.nodes == {"lonely", "u", "v"}
    assert commented.source == "u" and commented.sink == "v"
    with pytest.raises(SourceError):
        parse_graph("source u\nsource u\nnode u")
    with pytest.raises(SourceError):
        parse_graph("edge u a v")
    with pytest.raises(SourceError, match="invalid letter 'eps'"):
        parse_graph("edge u eps 1 v")  # reserved, as in words


@pytest.mark.parametrize("kind", ["source", "sink"])
def test_graph_end_lines_check_their_id_and_report_their_own_line(kind):
    with pytest.raises(SourceError) as err:
        parse_graph(f"node u\nnode v\nedge u a 5 v\n{kind} zz\n")
    assert (err.value.line, err.value.message) == (4, f"{kind} names an undeclared node: zz")
    with pytest.raises(SourceError) as err:
        parse_graph(f"node u\n{kind} 1u\n")
    assert (err.value.line, err.value.message) == (2, "invalid node id '1u'")


def test_print_graph_is_deterministic():
    g1 = graph([("u", "a", "5", "v"), ("u", "b", "1", "v")], nodes=["w"], source="u")
    g2 = graph(
        list(reversed([("u", "a", "5", "v"), ("u", "b", "1", "v")])), nodes=["w"], source="u"
    )
    assert print_graph(g1) == print_graph(g2)
    assert print_graph(g1).splitlines()[0] == "node u"


def test_valuation_format():
    assert parse_valuation("x=5,y=po") == {"x": "5", "y": "po"}
    assert parse_valuation("") == {}
    with pytest.raises(SourceError):
        parse_valuation("x=1,x=2")
    with pytest.raises(SourceError):
        parse_valuation("x")
    assert print_valuation({"y": "po", "x": "5"}) == "x=5,y=po"


def test_expr_fuzz_round_trip():
    rng = random.Random(99)
    for _ in range(1000):
        e = random_expr(rng, 20)
        assert parse_expr(print_expr(e)) == e


def test_word_fuzz_round_trip():
    rng = random.Random(100)
    for _ in range(1000):
        w = random_word(rng, 30)
        assert parse_word(print_word(w)) == w


def test_graph_fuzz_round_trip():
    rng = random.Random(101)
    for _ in range(1000):
        g = random_graph(rng, max_nodes=8, max_edges=20)
        parsed = parse_graph(print_graph(g))
        assert parsed.nodes == g.nodes
        assert parsed.edges == g.edges
        assert parse_graph(print_graph(parsed)) == parsed
