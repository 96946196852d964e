"""Reduction gadgets against their brute-force oracles."""

import dataclasses
import hashlib
import io
import itertools
import pickle
import random
from contextlib import redirect_stdout

import pytest

import rewb.expr as E
from rewb import classify, free_vars
from rewb.cli import main
from rewb.errors import ValidationError
from rewb.evaluate import connected, witness_path
from rewb.gadgets import (
    FAnd,
    FOr,
    GadgetOutput,
    Neg,
    Pos,
    WqsatInstance,
    atoms_of,
    brute_formula,
    brute_wqsat,
    eval_expr,
    exists_compose,
    forall_compose,
    formula_graph,
    parse_nnf,
    sat_reduction,
    wqsat_reduction,
)
from rewb.pcp import PcpInstance, pcp_delta
from rewb.syntax import parse_expr, print_expr, print_graph
from rewb.witness import r_expr

from oracles import nnf_formulas

FIGURE = FAnd((
    FOr((Pos("pr1"), Neg("pr2"))),
    FOr((FAnd((Pos("pr2"), Pos("pr3"))), FAnd((Neg("pr1"), Pos("pr4"))))),
))


def _connected(out):
    return connected(out.expr, out.graph, {}, out.graph.source, out.graph.sink)


def _nnf_size(phi):
    if isinstance(phi, (Pos, Neg)):
        return 1
    return 1 + sum(_nnf_size(item) for item in phi.items)


def test_formula_graph_node_counts():
    assert len(formula_graph(Pos("pr1"), ["pr1"]).nodes) == 7
    assert len(formula_graph(FAnd((Pos("pr1"), Pos("pr1"))), ["pr1"]).nodes) == 11
    assert len(formula_graph(FIGURE, ["pr1", "pr2", "pr3", "pr4"]).nodes) == 25


def _sat_shapes():
    """Two random 3-CNFs at 4, 5 and 6 atoms with 4.3 clauses per atom,
    the SAT shapes of the reduction benchmark."""
    for k in (4, 5, 6):
        rng = random.Random(k)
        for _ in range(2):
            clauses = [
                "(" + " | ".join(("" if rng.random() < 0.5 else "!") + f"p{a}"
                                 for a in rng.sample(range(1, k + 1), 3)) + ")"
                for _ in range(round(4.3 * k))
            ]
            yield " & ".join(clauses), [f"p{a}" for a in range(1, k + 1)]


def _composed_shapes():
    """Formula graphs, both compositions at k = 1 and 2, and WQSAT gadgets
    of random 3-CNFs, among them the reduction benchmark's blocks (3, 3)
    with weights (2, 1)."""
    atoms = ["pr1", "pr2", "pr3", "pr4"]
    inner = formula_graph(FIGURE, atoms)
    yield GadgetOutput(inner, eval_expr(2))
    for text, sat_atoms in _sat_shapes():
        yield GadgetOutput(formula_graph(parse_nnf(text), sat_atoms), eval_expr(len(sat_atoms)))
    for k in (1, 2):
        yield exists_compose(k, atoms, inner, eval_expr(k))
        yield forall_compose(k, atoms, inner, eval_expr(k))
    rng = random.Random(30)
    for sizes, weights in (((3, 3), (2, 1)), ((2, 2), (1, 1)), ((2, 1, 2), (1, 1, 2))):
        names = [f"p{j}" for j in range(1, sum(sizes) + 1)]
        bounds = list(itertools.accumulate((0,) + sizes))
        blocks = tuple(tuple(names[lo:hi]) for lo, hi in zip(bounds, bounds[1:]))
        for _ in range(2):
            text = " & ".join(
                "(" + " | ".join(rng.choice(("", "!")) + a for a in rng.sample(names, 3)) + ")"
                for _ in range(4)
            )
            yield wqsat_reduction(WqsatInstance(parse_nnf(text), blocks, weights))


# sha256 of the rendered graphs of ``_sat_shapes`` as the gadget built them
# from the formula graph plus the atom chain in two steps
SAT_GRAPHS_SHA256 = "092b597842dba278e9d0a2058250e9922a9a3c2d1fe6a04bab57cf102438de3b"
# sha256 of the rendered graphs, manifests and expressions of
# ``_composed_shapes`` as the compositions built them from sets of edges
COMPOSED_SHA256 = "73362cf1079d953217ae7fe0e7a8b07e6c8488ada65a5389469eacb7e14df719"
# sha256 of ``witness_path`` from the source to every node, in sorted order,
# on the gadgets of ``_sat_shapes``: the adjacency lists' sort fixes which
# shortest witness is read back
SAT_WITNESSES_SHA256 = "f12eebb53c5bbae7cb9c3d23c7bfd882b95770a20a74bdcf57ddd87ce747b0fb"


def test_sat_gadget_graphs_are_unchanged(tmp_path):
    from_api, from_cli = hashlib.sha256(), hashlib.sha256()
    out_graph = tmp_path / "g.graph"
    for text, atoms in _sat_shapes():
        from_api.update(print_graph(sat_reduction(parse_nnf(text), atoms).graph).encode())
        with redirect_stdout(io.StringIO()):
            assert main(["gadget", "sat", "--formula", text, "--atoms", ",".join(atoms),
                         "--out-graph", str(out_graph)]) == 0
        from_cli.update(out_graph.read_bytes())
    assert from_api.hexdigest() == from_cli.hexdigest() == SAT_GRAPHS_SHA256

    composed = hashlib.sha256()
    for out in _composed_shapes():
        composed.update(f"{print_graph(out.graph)}{out.manifest()}\n{print_expr(out.expr)}\n".encode())
        assert parse_expr(print_expr(out.expr)) is out.expr
    assert composed.hexdigest() == COMPOSED_SHA256

    witnesses = hashlib.sha256()
    for text, atoms in _sat_shapes():
        out = sat_reduction(parse_nnf(text), atoms)
        assert parse_expr(print_expr(out.expr)) is out.expr
        g = out.graph
        for v in sorted(g.nodes):
            path = witness_path(out.expr, g, {}, g.source, v)
            witnesses.update(f"{v} {path}\n".encode())
    assert witnesses.hexdigest() == SAT_WITNESSES_SHA256


def test_formula_graph_single_literal_edge_labels():
    g = formula_graph(Pos("pr1"), ["pr1"])
    labels = sorted((letter, value) for _, letter, value, _ in g.edges)
    assert labels == [
        ("a", "ne"), ("a", "po"), ("b", "star"), ("e", "star"),
        ("pa", "pr1"), ("pn", "po"),
    ]


def test_formula_graph_size_is_polynomial():
    for phi in nnf_formulas(["pr1", "pr2"], 2)[:500]:
        g = formula_graph(phi, ["pr1", "pr2"])
        assert len(g.nodes) <= 5 * _nnf_size(phi) + 3


def test_formula_graph_rejects_stray_atoms():
    with pytest.raises(ValidationError):
        formula_graph(Pos("pr9"), ["pr1"])


def test_eval_expr_shape():
    assert sorted(free_vars(eval_expr(2))) == ["x_1", "x_2"]
    assert classify(eval_expr(3)).as_tuple() == (1, 1)
    with pytest.raises(ValidationError):
        eval_expr(0)


def test_formula_evaluation_schema_exhaustive_two_atoms():
    atoms = ["pr1", "pr2"]
    e = eval_expr(2)
    values = atoms + ["star"]
    for phi in nnf_formulas(atoms, 2):
        g = formula_graph(phi, atoms)
        for combo in itertools.product(values, repeat=2):
            val = {"x_1": combo[0], "x_2": combo[1]}
            expected = brute_formula(phi, set(atoms) & set(combo))
            assert connected(e, g, val, g.source, g.sink) == expected


def test_sat_reduction_examples():
    assert _connected(sat_reduction(Pos("pr1"), ["pr1"]))
    assert not _connected(sat_reduction(FAnd((Pos("pr1"), Neg("pr1"))), ["pr1"]))
    assert _connected(sat_reduction(FAnd((Pos("pr1"), Neg("pr2"))), ["pr1", "pr2"]))


def test_exists_compose_examples():
    out = exists_compose(1, ["pr1", "pr2"], formula_graph(Pos("pr2"), ["pr1", "pr2"]),
                         eval_expr(1))
    assert _connected(out)
    pigeonhole = exists_compose(2, ["pr1"], formula_graph(Pos("pr1"), ["pr1"]), eval_expr(2))
    assert not _connected(pigeonhole)


def test_exists_expression_size_depends_only_on_k():
    small = exists_compose(2, ["pr1", "pr2"], formula_graph(Pos("pr1"), ["pr1", "pr2"]),
                           eval_expr(2))
    atoms = ["pr1", "pr2", "pr3", "pr4", "pr5"]
    large = exists_compose(2, atoms, formula_graph(Pos("pr1"), atoms), eval_expr(2))
    assert E.size(small.expr) == E.size(large.expr)


def test_exists_compose_validates_letters_and_variables():
    g = formula_graph(Pos("pr1"), ["pr1"])
    with pytest.raises(ValidationError):
        exists_compose(1, ["pr1"], g, eval_expr(1), letter="a")  # used inside the schema
    with pytest.raises(ValidationError):
        exists_compose(1, ["pr1"], g, E.Bind("z", "x_1", E.Atom("b")))  # x_1 bound


def test_exists_compose_runs_the_indistinguishability_check():
    distinguishing = parse_expr("b[x_1=].b[x_2=]")
    g = formula_graph(Pos("pr1"), ["pr1"])
    with pytest.raises(ValidationError):
        exists_compose(2, ["pr1", "pr2"], g, distinguishing)


def test_forall_compose_examples():
    both = formula_graph(FOr((Pos("pr1"), Pos("pr2"))), ["pr1", "pr2"])
    assert _connected(forall_compose(1, ["pr1", "pr2"], both, eval_expr(1)))
    one = formula_graph(Pos("pr1"), ["pr1", "pr2"])
    assert not _connected(forall_compose(1, ["pr1", "pr2"], one, eval_expr(1)))


def test_forall_compose_is_vacuously_true_without_injective_valuations():
    # k = 2 variables over a single atom: every extension collides, so
    # the skip escape must make the composition connected even though the
    # inner formula is unsatisfiable
    unsat = formula_graph(FAnd((Pos("pr1"), Neg("pr1"))), ["pr1"])
    out = forall_compose(2, ["pr1"], unsat, eval_expr(2))
    assert _connected(out)
    assert not _connected(forall_compose(1, ["pr1"], unsat, eval_expr(1)))


def test_forall_compose_level_and_node_growth():
    atoms = ["pr1", "pr2", "pr3"]
    for k in (1, 2, 3):
        inner = formula_graph(Pos("pr1"), atoms)
        out = forall_compose(k, atoms, inner, eval_expr(k))
        assert classify(out.expr).f_level == k
        assert len(out.graph.nodes) <= len(inner.nodes) + k * (2 * len(atoms) + 2)


def _exists_oracle(k, atoms, phi):
    return any(
        brute_formula(phi, set(chosen))
        for chosen in itertools.permutations(atoms, k)
    )


def _forall_oracle(k, atoms, phi):
    return all(
        brute_formula(phi, set(chosen))
        for chosen in itertools.permutations(atoms, k)
    )


def test_exists_and_forall_match_explicit_valuation_enumeration():
    for natoms in (1, 2, 3):
        atoms = [f"pr{j}" for j in range(1, natoms + 1)]
        for k in (1, 2):
            if k > natoms:
                continue
            for phi in nnf_formulas(atoms, 1)[:60]:
                inner = formula_graph(phi, atoms)
                ex = exists_compose(k, atoms, inner, eval_expr(k))
                assert _connected(ex) == _exists_oracle(k, atoms, phi), (k, phi, "exists")
                fa = forall_compose(k, atoms, inner, eval_expr(k))
                assert _connected(fa) == _forall_oracle(k, atoms, phi), (k, phi, "forall")


def test_wqsat_reduction_examples():
    yes1 = WqsatInstance(Pos("pr1"), (("pr1", "pr2"),), (1,))
    assert brute_wqsat(yes1) and _connected(wqsat_reduction(yes1))
    yes2 = WqsatInstance(
        FAnd((Pos("pr1"), FOr((Pos("pr3"), Pos("pr4"))))),
        (("pr1", "pr2"), ("pr3", "pr4")),
        (1, 1),
    )
    assert brute_wqsat(yes2) and _connected(wqsat_reduction(yes2))
    no1 = WqsatInstance(
        FAnd((Pos("pr1"), Pos("pr2"))), (("pr1",), ("pr2", "pr3")), (1, 1)
    )
    assert not brute_wqsat(no1) and not _connected(wqsat_reduction(no1))


def test_wqsat_level_bookkeeping():
    inst = WqsatInstance(
        FAnd((Pos("pr1"), Pos("pr3"))), (("pr1", "pr2"), ("pr3", "pr4")), (1, 2)
    )
    out = wqsat_reduction(inst)
    assert classify(out.expr).f_level == 1 + 2  # one plus the universal weights


_ATOMS = ["pr1", "pr2", "pr3", "pr4"]
_GRAPH = formula_graph(FIGURE, _ATOMS)
_WQSAT = WqsatInstance(FIGURE, (("pr1", "pr2"), ("pr3",), ("pr4",)), (1, 1, 1))


@pytest.mark.parametrize("build", [
    lambda: r_expr(3),
    lambda: eval_expr(3),
    lambda: sat_reduction(FIGURE, _ATOMS).expr,
    lambda: exists_compose(2, _ATOMS, _GRAPH, eval_expr(2)).expr,
    lambda: forall_compose(2, _ATOMS, _GRAPH, eval_expr(2)).expr,
    lambda: wqsat_reduction(_WQSAT).expr,
    lambda: pcp_delta(PcpInstance((("a", "ab"), ("bb", "b"))), 1),
    lambda: pcp_delta(PcpInstance((("a", "ab"), ("bb", "b"))), 2),
], ids=["r_expr", "eval_expr", "sat", "exists", "forall", "wqsat", "pcp_delta_1", "pcp_delta_2"])
def test_generators_are_well_named(build):
    # so compiling their output renames nothing
    assert build().well_named


def test_wqsat_instance_validation():
    with pytest.raises(ValidationError):
        WqsatInstance(Pos("pr1"), (("pr1",), ("pr1",)), (1, 1))  # overlap
    with pytest.raises(ValidationError):
        WqsatInstance(Pos("pr1"), (("pr1",),), (2,))  # weight too large
    with pytest.raises(ValidationError):
        WqsatInstance(Pos("pr9"), (("pr1",),), (1,))  # stray atom


def test_brute_formula_examples():
    assert brute_formula(Pos("pr1"), {"pr1"})
    assert not brute_formula(Neg("pr1"), {"pr1"})
    assert brute_wqsat(WqsatInstance(
        FOr((Pos("p"), Pos("q"))), (("z",), ("p", "q")), (1, 1)
    ))


@pytest.mark.parametrize("parts, truths", [
    (("p1 |", "p2 &"), (False, True, True, True)),  # p1 | (p2 & (p1 | (p2 & ... !p1)))
    (("p1 &", "!p1 |"), (False, False, False, False)),  # p1 & (!p1 | (p1 & ... !p1))
], ids=["satisfiable", "unsatisfiable"])
def test_formulas_ten_thousand_levels_deep(parts, truths):
    # parsed, compared, hashed, printed, evaluated, and turned into a gadget
    # at the default recursion limit
    text = "".join(f"{parts[k % 2]} (" for k in range(10_000)) + "!p1" + ")" * 10_000
    phi = parse_nnf(text)
    node, depth = phi, 0
    while not isinstance(node, (Pos, Neg)):
        node, depth = node.items[-1], depth + 1
    assert depth == 10_000 and node == Neg("p1")
    twin = parse_nnf(text)
    assert twin is phi  # equal formulas are one object
    assert phi != parse_nnf(text.replace("!p1", "!p2"))
    assert repr(phi).endswith("Neg(atom='p1')" + "))" * 10_000)
    inst = WqsatInstance(phi, (("p1", "p2"),), (1,))
    assert repr(inst) == f"WqsatInstance(formula={phi!r}, blocks=(('p1', 'p2'),), weights=(1,))"
    assert inst == WqsatInstance(twin, (("p1", "p2"),), (1,))
    assignments = (set(), {"p1"}, {"p2"}, {"p1", "p2"})
    assert tuple(brute_formula(phi, a) for a in assignments) == truths
    out = sat_reduction(phi, ["p1", "p2"])
    assert len(out.graph.edges) == 4 * 10_001 + 2 + 4
    assert connected(out.expr, out.graph, {}, out.graph.source, out.graph.sink) == any(truths)


def test_formula_equality_hash_and_repr_are_the_dataclass_ones():
    # interned formulas against frozen dataclasses of the same fields: the
    # same repr and the same equality, and equal formulas are one object
    made = {
        cls: dataclasses.make_dataclass(cls.__name__, [name], frozen=True)
        for cls, name in ((Pos, "atom"), (Neg, "atom"), (FAnd, "items"), (FOr, "items"))
    }

    def rebuilt(phi, classes):
        if isinstance(phi, (Pos, Neg)):
            return classes[type(phi)](phi.atom)
        return classes[type(phi)](tuple(rebuilt(item, classes) for item in phi.items))

    formulas = nnf_formulas(["pr1", "pr2"], 2) + [  # and connectives of one or three items
        FAnd((Pos("pr1"),)),
        FOr((FAnd((Neg("pr2"), Pos("pr1"))),)),
        FAnd((FOr((Neg("pr1"),)), Pos("pr2"), Neg("pr2"))),
    ]
    references = [rebuilt(phi, made) for phi in formulas]
    copies = [rebuilt(phi, {cls: cls for cls in made}) for phi in formulas]  # built again
    for phi, ref, copy in zip(formulas, references, copies):
        assert repr(phi) == repr(ref)
        assert copy is phi and copy == phi and hash(copy) == hash(phi)
    rng = random.Random(41)
    for _ in range(5000):
        i, j = rng.randrange(len(formulas)), rng.randrange(len(formulas))
        assert (formulas[i] == copies[j]) == (references[i] == references[j])
        assert (formulas[i] != copies[j]) == (references[i] != references[j])
    assert Pos("pr1") != Neg("pr1") and Pos("pr1") != "pr1"
    assert FAnd((Pos("pr1"),)) != FOr((Pos("pr1"),))
    assert FOr((Pos("pr1"),)) != FOr((Pos("pr1"), Neg("pr2"))) != FOr((Pos("pr1"),))
    assert repr(FOr((Neg("p1"),))) == "FOr(items=(Neg(atom='p1'),))"


def test_formulas_pickle_to_the_same_object():
    phi = parse_nnf("(pr1 | !pr2) & (pr2 | pr3)")
    assert pickle.loads(pickle.dumps(phi)) is phi
    inst = WqsatInstance(phi, (("pr1", "pr2"), ("pr3",)), (1, 1))
    assert pickle.loads(pickle.dumps(inst)) == inst


def test_empty_connectives_are_rejected_before_they_are_interned():
    for kind in (FAnd, FOr):
        with pytest.raises(ValidationError, match="at least one item"):
            kind(())
        assert (kind, ()) not in E._table
    assert FAnd((Pos("p"),)).items == (Pos("p"),)


def test_parse_nnf():
    assert parse_nnf("pr1 & !pr2") == FAnd((Pos("pr1"), Neg("pr2")))
    assert parse_nnf("(a|b) & c") == FAnd((FOr((Pos("a"), Pos("b"))), Pos("c")))
    assert atoms_of(parse_nnf("a & (b | !c)")) == {"a", "b", "c"}
    from rewb.errors import SourceError

    with pytest.raises(SourceError):
        parse_nnf("a &")
    with pytest.raises(SourceError):
        parse_nnf("!(a|b)")  # negation only on atoms


@pytest.mark.parametrize("text, line, column, message", [
    ("p1 & (p2 | )", 1, 12, "unexpected token ')'"),
    ("a &", 1, 4, "unexpected end of formula"),
    ("(a | b", 1, 7, "missing ')'"),
    ("a &\n  !(a|b)", 2, 4, "'!' must be followed by an atom"),
    ("a b", 1, 3, "trailing input at token 'b'"),
    ("a & $", 1, 5, "unexpected token '$'"),
])
def test_parse_nnf_reports_where_the_error_is(text, line, column, message):
    from rewb.errors import SourceError

    with pytest.raises(SourceError) as info:
        parse_nnf(text)
    assert (info.value.line, info.value.column, info.value.message) == (line, column, message)
