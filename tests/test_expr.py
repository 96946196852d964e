"""Core expression operations: free variables, renaming, levels, UNF."""

import os
import pickle
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rewb.expr as E
from rewb import alpha_rename, classify, free_vars, indistinguishable_sampled, member, to_unf
from rewb.automata import automaton_size
from rewb.errors import UndefinedVariableError, ValidationError
from rewb.gadgets import eval_expr
from rewb.randgen import random_cond, random_expr, random_valuation, random_word
from rewb.syntax import parse_expr, print_expr
from rewb.witness import r_expr

import oracles
from oracles import all_shapes, derivation_levels


def test_free_vars_examples():
    assert free_vars(parse_expr("a[x=]")) == {"x"}
    assert free_vars(parse_expr("a@x(b[x=])")) == set()
    assert free_vars(parse_expr("a@x(b[x=].c[y!=])")) == {"y"}


def test_binder_variable_itself_is_not_an_occurrence():
    # only condition occurrences count
    assert free_vars(parse_expr("a@x(b)")) == set()


def test_alpha_rename_worked_example():
    renamed = alpha_rename(parse_expr("a@x(b@x(c[x=]).c[x!=])"))
    assert print_expr(renamed) == "a@x_1(b@x_2(c[x_2=]).c[x_1!=])"


def test_alpha_rename_single_binder():
    assert print_expr(alpha_rename(parse_expr("a@x(b[x=])"))) == "a@x_1(b[x_1=])"


def test_alpha_rename_leaves_free_variables_alone():
    e = parse_expr("a[x=]")
    assert alpha_rename(e) == e


def test_alpha_rename_avoids_capturing_free_variables():
    # the free x_1 must not be captured by the renamed binder
    e = parse_expr("a@x(b[x=].c[x_1=])")
    renamed = alpha_rename(e)
    assert free_vars(renamed) == {"x_1"}
    assert print_expr(renamed) == "a@x_2(b[x_2=].c[x_1=])"


def test_alpha_rename_preserves_free_vars_and_membership():
    rng = random.Random(7)
    for _ in range(150):
        e = random_expr(rng, 8)
        renamed = alpha_rename(e)
        assert free_vars(renamed) == free_vars(e)
        assert E.is_well_named(renamed)
        val = random_valuation(rng, sorted(free_vars(e)), ("1", "2"))
        for _ in range(5):
            w = random_word(rng, 6)
            assert member(e, w, val) == member(renamed, w, val)


@pytest.mark.parametrize(
    "text, expected",
    [
        ("a.b*", (0, 1)),
        ("(a1@x1(b1[x1=]))*", (1, 2)),
        ("a@x(b[x=])", (1, 1)),
        ("eps", (0, 1)),
        ("a@x(b@y(c[x=&y=]))", (1, 1)),
    ],
)
def test_classify_examples(text, expected):
    assert classify(parse_expr(text)).as_tuple() == expected


def test_classify_witness_expressions():
    for i in range(1, 6):
        assert classify(r_expr(i)).as_tuple() == (i, i + 1)


def test_classify_agrees_with_derivation_search_on_all_shapes():
    # levels only depend on the tree shape (neither implementation reads
    # letters, variables or conditions), so shape exhaustion is exhaustive
    count = 0
    for e in all_shapes(6):
        assert classify(e).as_tuple() == derivation_levels(e), print_expr(e)
        count += 1
    assert count == 373


def test_classify_agrees_with_derivation_search_on_random_labeled():
    rng = random.Random(13)
    for _ in range(500):
        e = random_expr(rng, 6)
        assert classify(e).as_tuple() == derivation_levels(e), print_expr(e)


@given(st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_classify_level_bounds(seed):
    e = random_expr(random.Random(seed), 10)
    level = classify(e)
    assert level.f_level <= level.e_level <= level.f_level + 1
    assert level.e_level >= 1


def test_unf_examples():
    assert [print_expr(u) for u in to_unf(parse_expr("a+b"))] == ["a", "b"]
    assert [print_expr(u) for u in to_unf(parse_expr("a@x(b[x=]+c[x=])"))] == [
        "a@x(b[x=])",
        "a@x(c[x=])",
    ]
    assert [print_expr(u) for u in to_unf(parse_expr("(a+b)*"))] == ["(a+b)*"]


def test_unf_keeps_low_level_blocks_intact():
    # the whole expression is already a single binding-free block
    parts = to_unf(parse_expr("(a+b).(c+d)"))
    assert [print_expr(u) for u in parts] == ["(a+b).(c+d)"]


def test_unf_distributes_through_binding_level_concatenation():
    parts = to_unf(parse_expr("(a@x(b[x=])+c).(d+f)"))
    assert [print_expr(u) for u in parts] == [
        "a@x(b[x=]).d",
        "a@x(b[x=]).f",
        "c.d",
        "c.f",
    ]


def test_unf_preserves_membership_and_size():
    rng = random.Random(21)
    for _ in range(60):
        e = random_expr(rng, 8)
        parts = to_unf(e)
        renamed = alpha_rename(e)
        bound = automaton_size(renamed)
        for part in parts:
            assert automaton_size(alpha_rename(part)) <= bound
        val = random_valuation(rng, sorted(free_vars(e)), ("1", "2"))
        for _ in range(20):
            w = random_word(rng, 6)
            assert member(e, w, val) == any(member(p, w, val) for p in parts)


def test_indistinguishable_examples():
    assert indistinguishable_sampled(eval_expr(2), ["x_1", "x_2"], 200, 7) is True
    two = parse_expr("a[x1=].b[x2=]")
    assert indistinguishable_sampled(two, ["x1", "x2"], 200, 7) is False
    assert indistinguishable_sampled(parse_expr("a"), [], 10, 0) is True


def test_indistinguishable_rejects_non_free_variables():
    with pytest.raises(ValidationError):
        indistinguishable_sampled(parse_expr("a@x(b[x=])"), ["x"], 10, 0)


def test_condition_satisfaction_is_an_error_on_undefined_variables():
    with pytest.raises(UndefinedVariableError):
        E.satisfies(E.Eq("x"), "1", {})


def test_not_eq_and_neq_are_distinct_nodes_with_equal_semantics():
    ne = E.Neq("x")
    not_eq = E.Not(E.Eq("x"))
    assert ne != not_eq
    for d in ("1", "2"):
        for v in ("1", "2"):
            assert E.satisfies(ne, d, {"x": v}) == E.satisfies(not_eq, d, {"x": v})


def _outcome(test, *args):
    try:
        return test(*args)
    except UndefinedVariableError:
        return UndefinedVariableError


def test_compiled_conditions_agree_with_satisfies():
    variables = ["x", "y", "z"]
    slot = {v: i for i, v in enumerate(variables)}
    rng = random.Random(31)
    raised = 0
    for _ in range(3000):
        c = random_cond(rng, variables, 3)
        val = {v: rng.choice("123") for v in variables if rng.random() < 0.8}
        regs = tuple(val.get(v, E.UNSET) for v in variables)
        d = rng.choice("123")
        expected = _outcome(E.satisfies, c, d, val)
        assert _outcome(E.compile_cond(c, slot), d, regs) is expected
        raised += expected is UndefinedVariableError
    assert 0 < raised < 3000


def test_compiled_condition_short_cuts_like_satisfies():
    test = E.compile_cond(E.Or(E.Eq("x"), E.Eq("y")), {"x": 0, "y": 1})
    assert test("1", ("1", E.UNSET)) is True
    with pytest.raises(UndefinedVariableError):
        test("2", ("1", E.UNSET))


def test_equal_trees_hash_equal_and_kinds_stay_apart():
    text = "(a@x((b[x!=])*.a[x=]))*+c[y=]"
    first, second = parse_expr(text), parse_expr(text)
    assert first is second
    assert hash(first) == hash(second) and first == second
    copied = pickle.loads(pickle.dumps(first))
    assert copied == first and hash(copied) == hash(first)
    left, right = parse_expr("a"), parse_expr("b[x=]")
    assert E.Union(left, right) != E.Concat(left, right)


def test_a_pickle_loaded_under_another_hash_seed_is_the_parsed_node(tmp_path):
    text = "(a@x((b[x!=])*.a[x=]))*+c[y=]"
    dump = tmp_path / "tree.pickle"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}

    def run(seed, script):
        subprocess.run([sys.executable, "-c", script], check=True,
                       env={**env, "PYTHONHASHSEED": seed})

    run("1", f"import pickle, rewb; open({str(dump)!r}, 'wb').write("
             f"pickle.dumps(rewb.parse_expr({text!r})))")
    run("2", f"import pickle, rewb; e = rewb.parse_expr({text!r}); "
             f"assert pickle.loads(open({str(dump)!r}, 'rb').read()) is e")


def _deep(op, n):
    return parse_expr(op.join("a" * n))


@pytest.mark.parametrize("op", [".", "+"])
def test_level_size_hash_and_equality_at_ten_thousand_letters(op):
    e = _deep(op, 10_000)
    assert classify(e).as_tuple() == (0, 1)
    assert E.size(e) == 19_999
    assert hash(e) == hash(_deep(op, 10_000)) and e == _deep(op, 10_000)
    assert e != _deep(op, 9_999)


def test_variable_fields_agree_with_the_tree_walks():
    rng = random.Random(303)
    verdicts = set()
    for _ in range(3_000):
        e = random_expr(rng, 12, letters=("a", "b", "c"), variables=("x", "y", "z"), max_e_level=3)
        assert free_vars(e) == oracles.free_vars(e)
        assert E.all_vars(e) == oracles.all_vars(e)
        assert E.is_well_named(e) == oracles.is_well_named(e)
        renamed = alpha_rename(e)
        assert E.is_well_named(renamed) and oracles.is_well_named(renamed)
        verdicts.add(E.is_well_named(e))
    assert verdicts == {True, False}


@pytest.mark.parametrize("op", [".", "+"])
def test_variable_facts_at_ten_thousand_letters(op):
    e = parse_expr(op.join(["a[x=]"] * 10_000))
    assert free_vars(e) == {"x"} and E.all_vars(e) == {"x"}
    assert E.is_well_named(e)


def test_variable_facts_under_ten_thousand_nested_binders():
    e = E.Test("a", E.Eq("y"))
    for _ in range(9_999):
        e = E.Bind("a", "y", e)
    assert free_vars(e) == set() and E.all_vars(e) == {"y"}
    assert not E.is_well_named(e)


def test_nodes_are_immutable():
    e = parse_expr("a.b")
    with pytest.raises(AttributeError):
        e.left = parse_expr("c")
    assert print_expr(e) == "a.b"
