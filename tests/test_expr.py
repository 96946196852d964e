"""Core expression operations: free variables, renaming, levels, UNF."""

import gc
import hashlib
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
from rewb.gadgets import eval_expr, parse_nnf, sat_reduction
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


def test_alpha_rename_names_2000_random_expressions_as_pinned():
    # the digest of the renamings printed, 682 of the 2,000 expressions not
    # well-named: the same names, given in the same pre-order, at any depth
    rng = random.Random(1907)
    digest = hashlib.sha256()
    for _ in range(2000):
        e = random_expr(rng, 16, letters=("a", "b", "c"), variables=("x", "y", "z"))
        digest.update(print_expr(alpha_rename(e)).encode() + b"\n")
    assert digest.hexdigest() == "0c1395c22a37f1eb322bec2917bebdace37d71b92c86bf477afea50e70541b57"


def test_alpha_rename_renames_a_5000_deep_condition():
    c = E.or_all([E.Eq("x")] * 5000)
    renamed = alpha_rename(E.Bind("a", "x", E.Test("b", c)))
    assert renamed is E.Bind("a", "x_1", E.Test("b", E.or_all([E.Eq("x_1")] * 5000)))


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


def test_unf_splits_2000_random_expressions_as_pinned():
    # the digest of the parts printed, in order, as the recursive split gave
    # them: 588 of the 2,000 expressions split, into 2,787 parts in all
    rng = random.Random(2020)
    digest = hashlib.sha256()
    for _ in range(2000):
        e = random_expr(rng, 16, letters=("a", "b", "c"), variables=("x", "y", "z"))
        digest.update(" | ".join(print_expr(u) for u in to_unf(e)).encode() + b"\n")
    assert digest.hexdigest() == "1082684541db1f9604b66418944fda1db4e231c671a19d262b4e9305099f7fed"


DEEP = 10_000


@pytest.mark.parametrize("text, parts", [
    ("+".join(["a"] * DEEP), ["a"] * DEEP),
    (".".join(["a"] * DEEP), [".".join(["a"] * DEEP)]),
    # one binder name: distinct names would cost quadratic memory in the
    # per-node binder sets
    ("a@x(" * DEEP + "b[x=]+c" + ")" * DEEP,
     ["a@x(" * DEEP + "b[x=]" + ")" * DEEP, "a@x(" * DEEP + "c" + ")" * DEEP]),
], ids=["union", "concat", "binders"])
def test_unf_at_ten_thousand_letters(text, parts):
    # at the default recursion limit
    assert to_unf(parse_expr(text)) == [parse_expr(part) for part in parts]


def test_indistinguishable_examples():
    assert indistinguishable_sampled(eval_expr(2), ["x_1", "x_2"], 200, 7) is True
    two = parse_expr("a[x1=].b[x2=]")
    assert indistinguishable_sampled(two, ["x1", "x2"], 200, 7) is False
    assert indistinguishable_sampled(parse_expr("a"), [], 10, 0) is True


def test_indistinguishable_check_is_memoized():
    e = eval_expr(3)
    first = indistinguishable_sampled(e, ["x_1", "x_2", "x_3"], 200, 11)
    hits = E._indistinguishable.cache_info().hits
    assert indistinguishable_sampled(eval_expr(3), ("x_1", "x_2", "x_3"), 200, 11) is first
    assert E._indistinguishable.cache_info().hits == hits + 1


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


def _buckets(tuples):
    """Per slot, each value's bitset of the tuples holding it."""
    buckets = [{} for _ in tuples[0]]
    for i, regs in enumerate(tuples):
        for bucket, value in zip(buckets, regs):
            bucket[value] = bucket.get(value, 0) | 1 << i
    return buckets


def test_set_masks_agree_with_compiled_tests_tuple_by_tuple():
    # a mask keeps exactly the tuples of the set whose test passes, and
    # raises iff the test raises on one of them
    variables = ["x", "y", "z"]
    slot = {v: i for i, v in enumerate(variables)}
    rng = random.Random(97)
    raised = mixed = 0
    for _ in range(3000):
        c = random_cond(rng, variables, 3)
        tuples = [tuple(E.UNSET if rng.random() < 0.06 else rng.choice("123") for _ in variables)
                  for _ in range(rng.randint(6, 9))]
        subset = rng.getrandbits(len(tuples))
        d = rng.choice("123")
        test = E.compile_cond(c, slot)
        outcomes = {i: _outcome(test, d, tuples[i]) for i in range(len(tuples)) if subset >> i & 1}
        if UndefinedVariableError in outcomes.values():
            expected = UndefinedVariableError
        else:
            expected = sum(1 << i for i, ok in outcomes.items() if ok)
        got = _outcome(E.compile_mask(c, slot), d, _buckets(tuples), subset)
        assert got == expected, (c, tuples, subset, d)
        raised += expected is UndefinedVariableError
        mixed += expected is not UndefinedVariableError and 0 < expected < subset
    assert 300 < raised < 2700 and mixed > 300


def test_masks_of_one_shape_share_their_code():
    first = E.compile_mask(E.And(E.Eq("x"), E.Not(E.Neq("y"))), {"x": 0, "y": 1})
    second = E.compile_mask(E.And(E.Eq("p"), E.Not(E.Neq("q"))), {"p": 3, "q": 2})
    assert first.__code__ is second.__code__
    tuples = [("1", "1"), ("1", "2"), ("2", "1")]
    assert first("1", _buckets(tuples), 0b111) == 0b001
    tuples = [(None, None, "2", "1"), (None, None, "1", "1"), (None, None, E.UNSET, "2")]
    assert second("1", _buckets(tuples), 0b111) == 0b010  # the third fails p=
    with pytest.raises(UndefinedVariableError, match="variable q has no value"):
        second("2", _buckets(tuples), 0b111)


def test_compiled_condition_short_cuts_like_satisfies():
    test = E.compile_cond(E.Or(E.Eq("x"), E.Eq("y")), {"x": 0, "y": 1})
    assert test("1", ("1", E.UNSET)) is True
    with pytest.raises(UndefinedVariableError):
        test("2", ("1", E.UNSET))


# Under BASE and d = "2", every Eq on v0..v4 and every Neq on v5..v9 is
# false, and the other leaves are true.
VS = [f"v{i}" for i in range(10)]
BASE = {v: "1" if i < 5 else "2" for i, v in enumerate(VS)}


def _leaf(rng, truth):
    i = rng.randrange(10)
    return (E.Neq if (i < 5) == truth else E.Eq)(VS[i])


def _valuations(rng, trials):
    """BASE, then variations of it: one variable moved or unset at a time."""
    yield dict(BASE)
    for _ in range(trials):
        val = dict(BASE)
        var = rng.choice(VS)
        if rng.random() < 0.5:
            val[var] = "1" if val[var] == "2" else "2"
        else:
            del val[var]
        yield val


def _check_generated_against_satisfies(c, rng, trials):
    slot = {v: i for i, v in enumerate(VS)}
    test = E.compile_cond(c, slot)
    mask = E.compile_mask(c, slot)
    outcomes = set()
    for val in _valuations(rng, trials):
        regs = tuple(val.get(v, E.UNSET) for v in VS)
        expected = _outcome(E.satisfies, c, "2", val)
        assert _outcome(test, "2", regs) is expected
        kept = _outcome(mask, "2", _buckets([regs]), 1)
        assert kept is expected if kept is UndefinedVariableError else kept == expected
        outcomes.add(expected)
    return outcomes


@pytest.mark.parametrize("chain, truth", [(E.or_all, False), (E.and_all, True)])
def test_generated_guards_agree_with_satisfies_on_ten_thousand_leaves(chain, truth):
    # under BASE every leaf lets the chain go on, so the test reads all of them
    rng = random.Random(47)
    c = chain([_leaf(rng, truth) for _ in range(10_000)])
    assert _check_generated_against_satisfies(c, rng, 60) == {True, False, UndefinedVariableError}


@pytest.mark.parametrize("side", ["left", "right"])
def test_generated_guards_agree_with_satisfies_500_deep(side):
    # Or levels get a leaf false under BASE, And levels one true, so
    # evaluation under BASE runs down all 500 levels
    rng = random.Random(53)
    c = _leaf(rng, False)
    for depth in range(500):
        kind, truth = (E.And, True) if depth % 2 else (E.Or, False)
        leaf = _leaf(rng, truth)
        c = kind(c, leaf) if side == "left" else kind(leaf, c)
    assert len(_check_generated_against_satisfies(c, rng, 200)) > 1


def _left_chain(kind, truth, rng):
    c = _leaf(rng, truth)
    for _ in range(10_000):
        c = kind(c, _leaf(rng, truth))
    return c


def _not_chain(rng):
    c = _leaf(rng, True)
    for _ in range(10_001):
        c = E.Not(c)
    return c


@pytest.mark.parametrize(
    "make",
    [
        lambda rng: _left_chain(E.And, True, rng),
        lambda rng: _left_chain(E.Or, False, rng),
        _not_chain,
    ],
    ids=["and_left", "or_left", "not"],
)
def test_satisfies_agrees_with_generated_guards_ten_thousand_deep(make):
    # satisfies walks any depth without recursion, and reports the same
    # unset variable first as the generated guard does
    rng = random.Random(59)
    c = make(rng)
    assert _check_generated_against_satisfies(c, rng, 80) == {True, False, UndefinedVariableError}
    test = E.compile_cond(c, {v: i for i, v in enumerate(VS)})
    for var in VS:
        val = {v: x for v, x in BASE.items() if v != var}
        regs = tuple(val.get(v, E.UNSET) for v in VS)
        messages = []
        for check, args in ((E.satisfies, (c, "2", val)), (test, ("2", regs))):
            try:
                messages.append(check(*args))
            except UndefinedVariableError as err:
                messages.append(str(err))
        assert messages[0] == messages[1]


def test_guards_of_one_shape_share_their_code():
    first = E.compile_cond(E.And(E.Eq("x"), E.Not(E.Neq("y"))), {"x": 0, "y": 1})
    second = E.compile_cond(E.And(E.Eq("p"), E.Not(E.Neq("q"))), {"p": 3, "q": 2})
    other = E.compile_cond(E.Or(E.Eq("x"), E.Not(E.Neq("y"))), {"x": 0, "y": 1})
    assert first.__code__ is second.__code__
    assert first.__code__ is not other.__code__
    assert first("1", ("1", "1")) is True
    assert second("1", (None, None, "2", "1")) is False
    with pytest.raises(UndefinedVariableError, match="variable q has no value"):
        second("1", (None, None, E.UNSET, "1"))


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


def test_deep_conditions_intern_and_hash_in_constant_time():
    # conditions are interned like nodes, so hashing never walks them
    deep = E.Test("a", E.or_all([E.Eq("x")] * 5000))
    assert deep is E.Test("a", E.or_all([E.Eq("x")] * 5000)) and deep.free == {"x"}
    assert hash(deep.cond) == hash(E.or_all([E.Eq("x")] * 5000))
    assert eval_expr(2000).free == {f"x_{j}" for j in range(1, 2001)}
    atoms = [f"p{j}" for j in range(1, 2001)]
    out = sat_reduction(parse_nnf("p1 & !p2000"), atoms)
    assert out.expr.well_named and not out.expr.free


def test_conditions_keep_their_repr_and_pickle_to_the_interned_value():
    c = E.And(E.Eq("x"), E.Not(E.Neq("y")))
    assert repr(c) == "And(left=Eq(var='x'), right=Not(body=Neq(var='y')))"
    assert pickle.loads(pickle.dumps(c)) is c
    with pytest.raises(AttributeError):
        c.left = E.Eq("z")


def test_a_dead_nodes_entry_goes_and_an_equal_node_made_later_is_whole():
    def build():
        return E.Bind("qq", "zz", E.Concat(E.Test("qq", E.Eq("zz")), E.Atom("qq")))

    e = build()
    key = (E.Bind, "qq", "zz", e.body)
    assert E._table[key]() is e
    measures = (e.level, e.size, e.free, e.bound, e.well_named)
    text = print_expr(e)
    del e, key
    gc.collect()
    assert not any(k[0] is E.Bind and k[1] == "qq" for k in E._table)
    again = build()
    assert again is build() and again == parse_expr(text) and hash(again) == hash(build())
    assert again != E.Bind("qq", "zz", E.Atom("qq"))
    assert {again: 1}[build()] == 1
    assert (again.level, again.size, again.free, again.bound, again.well_named) == measures


def test_a_stale_callback_leaves_the_entry_of_an_equal_node_made_since():
    key = (E.Atom, "stale")
    e = E.Atom("stale")
    old = E._table[key]
    del e
    gc.collect()
    assert key not in E._table and old() is None
    again = E.Atom("stale")
    E._drop(old)  # the dead node's callback, run late
    assert E._table[key]() is again and E.Atom("stale") is again


def test_nodes_of_one_level_share_one_level():
    assert E.Atom("a").level is E.Atom("b").level is E.EPS.level
    assert parse_expr("a@x(b[x=])").level is parse_expr("c@y(a.b[y!=])").level
    assert parse_expr("(a@x(b[x=]))*").level is parse_expr("(c@y(a))*.b").level
    assert parse_expr("(a@x(b[x=]))*").level != parse_expr("a@x(b[x=])").level


def test_a_pickled_node_loads_as_the_interned_node():
    e = parse_expr("a@x((b[x=]+c)*)")
    data = pickle.dumps(e)
    assert pickle.loads(data) is e
    del e
    gc.collect()
    loaded = pickle.loads(data)
    assert loaded is parse_expr("a@x((b[x=]+c)*)") and loaded.level.as_tuple() == (1, 1)


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
