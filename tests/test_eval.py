"""Evaluation engines: membership, reachability, agreement, witnesses."""

import itertools
import os
import pickle
import random
import subprocess
import sys
import time

import pytest

import rewb.expr as E
from rewb.automata import hier_automaton
from rewb.data import fresh_value, graph, word_values
from rewb.errors import BudgetError, CompatibilityError, UndefinedVariableError
from rewb.evaluate import (
    _compiled,
    _layered,
    _search,
    connected,
    eval_any,
    eval_flat,
    eval_oracle,
    eval_stratified,
    member,
    member_any,
    oracle_bound,
    witness_path,
)
from rewb.gadgets import brute_formula, parse_nnf, sat_reduction
from rewb.pcp import MUTATION_KINDS, PcpInstance, pcp_delta, pcp_encode, pcp_mutate
from rewb.randgen import random_expr, random_graph, random_valuation, random_word
from rewb.syntax import parse_expr, parse_word, print_expr

from oracles import brute_pairs, reachable_finals, shortest_witness_length

LETTERS3 = ("a", "b", "c")
VARIABLES3 = ("x", "y", "z")

CYCLE = graph(
    [
        ("n0", "a", "1", "n1"),
        ("n1", "b", "1", "n2"),
        ("n2", "a", "2", "n3"),
        ("n3", "b", "2", "n0"),
    ]
)


def test_member_examples():
    assert member(parse_expr("a@x(b[x=]*)"), parse_word("a:5 b:5 b:5"), {})
    assert member(parse_expr("eps"), parse_word(""), {})
    assert member(parse_expr("(a@x(b[x=]))*"), parse_word("a:1 b:1 a:2 b:2"), {})
    with pytest.raises(CompatibilityError):
        member(parse_expr("a[x=]"), parse_word("a:5"), {})


def test_member_any_examples():
    assert member_any(parse_expr("a[x=]"), parse_word("a:5"))
    assert not member_any(parse_expr("a[x=].b[x!=]"), parse_word("a:5 b:5"))
    assert member_any(parse_expr("a[x!=]"), parse_word("a:5"))


def test_eval_flat_examples():
    g = graph([("u", "a", "5", "v")])
    assert eval_flat(parse_expr("a"), g, {}) == {("u", "v")}
    assert eval_flat(parse_expr("a[x=]"), g, {"x": "7"}) == set()
    g2 = graph([("u", "a", "5", "v"), ("v", "b", "5", "w"), ("v", "b", "7", "w2")])
    assert eval_flat(parse_expr("a@x(b[x=])"), g2, {}) == {("u", "w")}
    assert eval_flat(parse_expr("a@x(b[x=])"), g2, {}) == brute_pairs(
        parse_expr("a@x(b[x=])"), g2, {}, 2
    )


def test_eval_stratified_agrees_on_the_flat_examples():
    g = graph([("u", "a", "5", "v")])
    assert eval_stratified(parse_expr("a"), g, {}) == {("u", "v")}
    assert eval_stratified(parse_expr("a[x=]"), g, {"x": "7"}) == set()
    g2 = graph([("u", "a", "5", "v"), ("v", "b", "5", "w"), ("v", "b", "7", "w2")])
    assert eval_stratified(parse_expr("a@x(b[x=])"), g2, {}) == {("u", "w")}


def test_stratified_blocks_are_searched_only_from_reached_sources(monkeypatch):
    import rewb.evaluate as ev

    starts = []
    search = ev._row_search
    g = graph(
        [("u", "a", "1", "v"), ("v", "b", "1", "w"), ("v", "b", "2", "w2")],
        nodes=[f"i{k}" for k in range(10)],
    )
    nodes = sorted(g.nodes)  # the engine's node numbering

    def counting(rows, finals, start, *args):
        starts.append(nodes[start])
        return search(rows, finals, start, *args)

    monkeypatch.setattr(ev, "_row_search", counting)
    assert len(g.nodes) == 14
    assert eval_stratified(parse_expr("a@x(b[x=])"), g, {}) == {("u", "w")}
    assert starts == ["v"]


def test_stratified_agrees_with_flat_on_three_letters_and_variables():
    rng = random.Random(61)
    shapes = set()
    for _ in range(300):
        e = random_expr(rng, 10, letters=("a", "b", "c"), variables=("x", "y", "z"), max_e_level=3)
        g = random_graph(rng, max_nodes=6, max_edges=14, letters=("a", "b", "c"))
        val = random_valuation(rng, sorted(E.free_vars(e)), sorted(g.data_values()))
        assert eval_stratified(e, g, val) == eval_flat(e, g, val), print_expr(e)
        level = E.classify(e)
        if level.f_level == 0:
            shapes.add("level-0")
        elif level.e_level == level.f_level:
            shapes.add("E-shaped")
        else:
            shapes.add("F-shaped")
        if (level.f_level, level.e_level) in ((2, 3), (3, 3)):
            shapes.add("E-level 3")
    assert shapes == {"level-0", "E-shaped", "F-shaped", "E-level 3"}


def test_stratified_answers_without_the_flat_engines_search_or_compile_step(monkeypatch):
    # the stratified engine runs on kernels of its own, on binding-free
    # inputs too, so it checks the flat engine with other code
    import rewb.evaluate as ev

    rng = random.Random(67)
    cases = []
    while len(cases) < 300:
        e = random_expr(rng, 10, letters=("a", "b", "c"), variables=("x", "y", "z"), max_e_level=3)
        if (E.classify(e).f_level == 0) != (len(cases) % 2 == 0):
            continue
        g = random_graph(rng, max_nodes=6, max_edges=14, letters=("a", "b", "c"))
        val = random_valuation(rng, sorted(E.free_vars(e)), sorted(g.data_values()))
        cases.append((e, g, val, eval_flat(e, g, val)))

    def unavailable(*args):
        raise AssertionError("the stratified engine used the flat engine's code")

    monkeypatch.setattr(ev, "_search", unavailable)
    monkeypatch.setattr(ev, "_compiled", unavailable)
    for e, g, val, flat in cases:
        assert eval_stratified(e, g, val) == flat, print_expr(e)
    assert any(flat for *_, flat in cases[::2]) and any(flat for *_, flat in cases[1::2])


def _chain(combine, n):
    """``combine`` folded over n copies of a@x(b[x=]), the name x clashing n times."""
    part = E.Bind("a", "x", E.Test("b", E.Eq("x")))
    e = part
    for _ in range(n - 1):
        e = combine(part, e)
    return e


def _nested(n):
    """a@x(a@x(...a@x(b[x=])....b[x=]).b[x=]), n binders deep."""
    e = E.Bind("a", "x", E.Test("b", E.Eq("x")))
    for _ in range(n - 1):
        e = E.Bind("a", "x", E.Concat(e, E.Test("b", E.Eq("x"))))
    return e


@pytest.mark.parametrize("shape", ["nested", "union", "concat"])
def test_thousand_clashing_binders_rename_and_evaluate_at_the_default_recursion_limit(shape):
    # 1,000, not more: the per-node binder-name sets grow quadratically
    assert sys.getrecursionlimit() <= 1000
    if shape == "nested":
        e = _nested(1000)
        # a 1,000-long run of a:1 on the loop at u, then b:1 into v and on its loop
        g = graph([("u", "a", "1", "u"), ("u", "b", "1", "v"), ("v", "b", "1", "v"), ("u", "b", "2", "w")])
        expected = {("u", "v")}
    else:
        e = _chain(E.Union if shape == "union" else E.Concat, 1000)
        g = graph([("u", "a", "1", "v"), ("v", "b", "1", "u"), ("v", "b", "2", "w")])
        expected = {("u", "u")}
    renamed = E.alpha_rename(e)
    assert E.is_well_named(renamed) and len(renamed.bound) == 1000
    assert eval_flat(e, g, {}) == eval_stratified(e, g, {}) == expected


def test_eval_stratified_on_iterated_binding_cycle():
    e = parse_expr("(a@x(b[x=]))*")
    expected = brute_pairs(e, CYCLE, {}, 4)
    assert eval_stratified(e, CYCLE, {}) == expected
    assert eval_flat(e, CYCLE, {}) == expected
    assert ("n0", "n0") in expected  # the empty path counts


def test_stratified_level0_matches_flat_and_independent_reachability():
    from oracles import recursive_member

    rng = random.Random(31)
    for _ in range(60):
        e = random_expr(rng, 7)
        if E.classify(e).f_level != 0:
            continue
        g = random_graph(rng, max_nodes=4, max_edges=6)
        val = random_valuation(rng, sorted(E.free_vars(e)), sorted(g.data_values()))
        strat = eval_stratified(e, g, val)
        assert strat == eval_flat(e, g, val)
        # fully independent reference: walk enumeration + structural recursion,
        # two-sided within the enumerated horizon
        short = brute_pairs(e, g, val, 4, decide=recursive_member)
        assert short <= strat
        for u, v in strat:
            if len(witness_path(e, g, val, u, v)) <= 4:
                assert (u, v) in short


def test_member_agrees_with_eval_flat_on_path_graphs():
    # a word laid out as a path p0 -> ... -> pn: the flat search accepts
    # (p0, pn) exactly when member, with its own loop, accepts the word
    rng = random.Random(53)
    verdicts = []
    for _ in range(200):
        e = random_expr(rng, 8, max_e_level=2)
        w = random_word(rng, 6)
        nodes = [f"p{i}" for i in range(len(w) + 1)]
        g = graph(
            [(nodes[i], letter, value, nodes[i + 1]) for i, (letter, value) in enumerate(w)],
            nodes=nodes,
        )
        val = random_valuation(rng, sorted(E.free_vars(e)), sorted(word_values(w)))
        verdict = member(e, w, val)
        assert ((nodes[0], nodes[-1]) in eval_flat(e, g, val)) == verdict, (e, w, val)
        verdicts.append(verdict)
    assert any(verdicts) and not all(verdicts)


def test_level2_witness_pairs_are_exactly_the_block_runs():
    # lay u_{2,2} out as a path: accepted infixes are precisely runs of
    # complete outer blocks, so the pair set is known in closed form
    from rewb.witness import r_expr, u_word

    w = u_word(2, 2)
    nodes = [f"p{i}" for i in range(len(w))] + ["end"]
    edges = [
        (nodes[i], letter, value, nodes[i + 1] if i + 1 < len(w) else "end")
        for i, (letter, value) in enumerate(w)
    ]
    g = graph(edges)
    boundaries = ["p0", "p10", "p20", "p30", "end"]
    expected = {(a, b) for i, a in enumerate(boundaries) for b in boundaries[i + 1 :]}
    expected |= {(n, n) for n in g.nodes}
    flat = eval_flat(r_expr(2), g, {})
    assert flat == expected
    assert eval_stratified(r_expr(2), g, {}) == expected
    assert eval_oracle(r_expr(2), g, {}, max_len=len(w)) == expected


def test_eval_oracle_examples():
    g = graph([("u", "a", "5", "v")])
    assert eval_oracle(parse_expr("a"), g, {}, max_len=1) == {("u", "v")}
    empty = graph([], nodes=["solo"])
    assert eval_oracle(parse_expr("a"), empty, {}) == set()


def test_eval_oracle_matches_literal_enumeration():
    # the merged search must return exactly what literal walk
    # enumeration plus membership returns, bound for bound
    rng = random.Random(17)
    for _ in range(40):
        e = random_expr(rng, 6, max_e_level=2)
        g = random_graph(rng, max_nodes=3, max_edges=5)
        val = random_valuation(rng, sorted(E.free_vars(e)), sorted(g.data_values()))
        for bound in (0, 1, 2, 3):
            assert eval_oracle(e, g, val, max_len=bound) == brute_pairs(e, g, val, bound)


def test_eval_oracle_monotone_and_bounded_by_flat():
    rng = random.Random(18)
    for _ in range(40):
        e = random_expr(rng, 7, max_e_level=2)
        g = random_graph(rng)
        val = random_valuation(rng, sorted(E.free_vars(e)), sorted(g.data_values()))
        flat = eval_flat(e, g, val)
        previous = set()
        for bound in (0, 1, 2, 4, 8):
            current = eval_oracle(e, g, val, max_len=bound)
            assert previous <= current <= flat
            previous = current


def test_eval_oracle_budget_errors_loudly():
    e = parse_expr("(a@x(b[x=]))*")
    with pytest.raises(BudgetError):
        eval_oracle(e, CYCLE, {}, budget=1)


def test_eval_any_examples():
    g = graph([("u", "a", "5", "v")])
    assert eval_any(parse_expr("a[x=]"), g) == {("u", "v")}
    assert eval_any(parse_expr("a[x!=]"), g) == {("u", "v")}
    closed = parse_expr("a@x(b[x=])")
    g2 = graph([("u", "a", "5", "v"), ("v", "b", "5", "w")])
    assert eval_any(closed, g2) == eval_flat(closed, g2, {})


def test_one_shared_fresh_value_suffices():
    # giving every free variable its own fresh value changes nothing
    rng = random.Random(23)
    import itertools

    for _ in range(40):
        e = random_expr(rng, 6)
        g = random_graph(rng, max_nodes=4, max_edges=6)
        free = sorted(E.free_vars(e))
        if not free:
            continue
        base = sorted(g.data_values())
        shared = eval_any(e, g)
        pools = []
        used = set(base)
        for v in free:
            extra = fresh_value(used, base="fresh")
            used.add(extra)
            pools.append(base + [extra])
        distinct = set()
        for combo in itertools.product(*pools):
            distinct |= eval_flat(e, g, dict(zip(free, combo)))
        assert shared == distinct


def test_sampled_word_containment_implies_pair_containment():
    # whenever every sampled path label accepted by e1 is accepted by e2,
    # the pairs witnessed within the sampled length carry over to e2
    rng = random.Random(29)
    checked = 0
    for _ in range(150):
        e1 = random_expr(rng, 6)
        e2 = random_expr(rng, 6)
        g = random_graph(rng, max_nodes=4, max_edges=6)
        val = random_valuation(
            rng, sorted(E.free_vars(e1) | E.free_vars(e2)), sorted(g.data_values())
        )
        words_agree = all(
            (not member(e1, w, val)) or member(e2, w, val) for w in _walk_labels(g, 3)
        )
        if not words_agree:
            continue
        checked += 1
        assert brute_pairs(e1, g, val, 3) <= eval_flat(e2, g, val)
    assert checked > 20


def _walk_labels(g, max_len):
    from oracles import all_walks

    out = set()
    for u in g.nodes:
        for walk in all_walks(g, u, max_len):
            out.add(tuple((letter, value) for _, letter, value, _ in walk))
    return out


def test_witness_examples():
    g = graph([("u", "a", "5", "v")])
    assert witness_path(parse_expr("a"), g, {}, "u", "v") == [("u", "a", "5", "v")]
    assert witness_path(parse_expr("a"), g, {}, "v", "u") is None
    assert witness_path(parse_expr("a*"), g, {}, "u", "u") == []


def test_witness_labels_are_accepted_and_shortest():
    rng = random.Random(37)
    for _ in range(60):
        e = random_expr(rng, 7, max_e_level=2)
        g = random_graph(rng)
        val = random_valuation(rng, sorted(E.free_vars(e)), sorted(g.data_values()))
        pairs = eval_flat(e, g, val)
        for u, v in sorted(pairs)[:5]:
            path = witness_path(e, g, val, u, v)
            assert path is not None
            labels = tuple((letter, value) for _, letter, value, _ in path)
            assert member(e, labels, val)
            assert not path or path[0][0] == u
            assert (path[-1][3] if path else u) == v


def test_connected_matches_eval_flat():
    rng = random.Random(41)
    for _ in range(300):
        e = random_expr(rng, 6)
        g = random_graph(rng, max_nodes=4)
        val = random_valuation(rng, sorted(E.free_vars(e)), sorted(g.data_values()))
        pairs = eval_flat(e, g, val)
        for u in g.nodes:
            for v in g.nodes:
                assert connected(e, g, val, u, v) == ((u, v) in pairs)


def test_witness_paths_are_as_short_as_a_layered_search():
    rng = random.Random(59)
    found = 0
    for _ in range(300):
        e = random_expr(rng, 8, letters=LETTERS3, variables=VARIABLES3, max_e_level=3)
        g = random_graph(rng, max_nodes=4, letters=LETTERS3)
        val = random_valuation(rng, sorted(E.free_vars(e)), sorted(g.data_values()))
        for u in sorted(g.nodes):
            for v in sorted(g.nodes):
                path = witness_path(e, g, val, u, v)
                length = None if path is None else len(path)
                assert length == shortest_witness_length(e, g, val, u, v), (print_expr(e), u, v)
                found += path is not None
    assert found > 300


def test_witness_lengths_match_a_layered_search_on_cyclic_graphs():
    rng = random.Random(67)
    found = 0
    for _ in range(1000):
        e = random_expr(rng, 8, letters=LETTERS3, variables=VARIABLES3, max_e_level=3)
        g = random_graph(rng, max_nodes=6, max_edges=14, letters=LETTERS3)
        val = random_valuation(rng, sorted(E.free_vars(e)), sorted(g.data_values()))
        for u in sorted(g.nodes):
            for v in sorted(g.nodes):
                path = witness_path(e, g, val, u, v)
                length = None if path is None else len(path)
                assert length == shortest_witness_length(e, g, val, u, v), (print_expr(e), u, v)
                found += path is not None
    assert found > 1000


def test_witness_is_none_without_a_graph_path_or_an_accepted_one():
    g = graph([("u", "a", "1", "v"), ("v", "b", "1", "w"), ("u", "a", "2", "w")], nodes=["z"])
    e = parse_expr("a.a")
    assert witness_path(e, g, {}, "u", "z") is None  # no edge reaches z
    assert witness_path(e, g, {}, "w", "u") is None  # no edge leaves w
    assert witness_path(e, g, {}, "u", "w") is None  # u-a-v-b-w and u-a-w are rejected
    assert witness_path(parse_expr("a.b"), g, {}, "u", "w") == [
        ("u", "a", "1", "v"), ("v", "b", "1", "w")]


def test_witness_takes_the_shorter_route_to_a_configuration_queued_first_by_a_longer_one():
    # Two routes from s meet at x: s-a-x takes two edges, s-b-c-x three.
    # The b side is one edge from t at c, but its c-b-t edge is labelled b,
    # which a* rejects, so every witness goes on through x-y-t, and the
    # shortest one takes the two-edge route to x.
    g = graph([
        ("s", "a", "1", "a"), ("a", "a", "1", "x"),
        ("s", "a", "1", "b"), ("b", "a", "1", "c"), ("c", "b", "1", "t"), ("c", "a", "1", "x"),
        ("x", "a", "1", "y"), ("y", "a", "1", "t"),
    ])
    assert witness_path(parse_expr("a*"), g, {}, "s", "t") == [
        ("s", "a", "1", "a"), ("a", "a", "1", "x"), ("x", "a", "1", "y"), ("y", "a", "1", "t")]


def test_witness_ends_when_a_final_configuration_is_popped_not_when_queued():
    # t is one edge from s by a and two by c through y. The a route reaches
    # t first but not in a final state; a.b.b ends there after the b self
    # loop is taken twice, three edges, while c.c ends there after two.
    g = graph([("s", "a", "1", "t"), ("t", "b", "1", "t"), ("s", "c", "1", "y"), ("y", "c", "1", "t")])
    assert witness_path(parse_expr("a.b.b+c.c"), g, {}, "s", "t") == [
        ("s", "c", "1", "y"), ("y", "c", "1", "t")]


def test_sat_gadget_witnesses_are_shortest_and_accepted():
    rng = random.Random(73)
    satisfiable = 0
    for k in (4, 5):
        names = [f"p{j}" for j in range(1, k + 1)]
        for _ in range(4):
            text = " & ".join(
                "(" + " | ".join(("" if rng.random() < 0.5 else "!") + a
                                 for a in rng.sample(names, 3)) + ")"
                for _ in range(round(4.3 * k))
            )
            phi = parse_nnf(text)
            out = sat_reduction(phi, names)
            g = out.graph
            path = witness_path(out.expr, g, {}, g.source, g.sink)
            truth = any(brute_formula(phi, {a for a, bit in zip(names, bits) if bit})
                        for bits in itertools.product((0, 1), repeat=k))
            assert (path is not None) == truth, text
            if path is None:
                continue
            satisfiable += 1
            assert len(path) == shortest_witness_length(out.expr, g, {}, g.source, g.sink)
            assert member(out.expr, tuple((letter, value) for _, letter, value, _ in path), {})
    assert satisfiable >= 3


@pytest.mark.parametrize("text, truth", [
    ("(p1 | !p2 | p3) & (!p1 | p4) & (p5 | !p6) & (p2 | p6) & !p3", True),
    ("(p1 | p6) & (!p1 | p6) & (p2 | !p6) & (!p2 | !p6)", False),
])
def test_layered_search_indexes_only_the_tuples_its_guards_test(monkeypatch, text, truth):
    names = [f"p{j}" for j in range(1, 7)]
    out = sat_reduction(parse_nnf(text), names)
    g = out.graph
    nfa = _compiled(out.expr)
    tested = [0]  # the union of the tuple sets that masks have run on

    def recording(mask):
        def recorded(d, buckets, bits):
            tested[0] |= bits
            indexed = 0
            for bucket in buckets:
                for held in bucket.values():
                    indexed |= held
            assert not indexed & ~(tested[0] | 1)
            return mask(d, buckets, bits)

        return recorded

    rows = [{letter: tuple((q2, mask and recording(mask), splice) for q2, mask, splice in entries)
             for letter, entries in row.items()}
            for row in nfa.mask_index]
    monkeypatch.setitem(vars(nfa), "mask_index", rows)
    assert connected(out.expr, g, {}, g.source, g.sink) == truth
    assert tested[0].bit_count() > 1
    assert ((g.source, g.sink) in eval_flat(out.expr, g)) == truth
    path = witness_path(out.expr, g, {}, g.source, g.sink)
    assert (path is not None) == truth
    if truth:
        at = g.source
        for edge in path:
            assert edge in g.edges and edge[0] == at
            at = edge[3]
        assert at == g.sink
        assert member(out.expr, tuple((letter, value) for _, letter, value, _ in path), {})


def test_a_graph_builds_its_adjacency_once():
    edges = [("u", "a", "1", "v"), ("v", "b", "2", "u"), ("u", "b", "2", "w")]
    g = graph(edges, source="u")
    dump = pickle.dumps(g)
    adj = g.out_edges()
    assert adj is g.out_edges()
    assert adj == {"u": [("u", "a", "1", "v"), ("u", "b", "2", "w")],
                   "v": [("v", "b", "2", "u")], "w": []}
    assert pickle.dumps(g) == dump
    e = parse_expr("a.b*")
    assert connected(e, g, {}, "u", "w") and witness_path(e, g, {}, "u", "w")
    assert g.search_memo and pickle.dumps(g) == dump  # the running search is not pickled
    copy = pickle.loads(dump)
    assert copy == g and hash(copy) == hash(g)
    assert copy.out_edges() == adj and copy.out_edges() is not adj
    fresh = graph(edges, source="u")
    assert fresh == g and hash(fresh) == hash(g)
    assert fresh.out_edges() == adj and fresh.out_edges() is not adj


def test_adjacency_lists_equal_the_grouped_global_sort_under_two_hash_seeds():
    # the edges are grouped in set order, which the hash seed changes, and
    # only each node's list is sorted
    script = (
        "import random\n"
        "from rewb.randgen import random_graph\n"
        "rng = random.Random(61)\n"
        "for _ in range(400):\n"
        "    g = random_graph(rng, 8, 40, ('a', 'b', 'c'), ('1', '2', '3'))\n"
        "    want = {n: [] for n in g.nodes}\n"
        "    for edge in sorted(g.edges):\n"
        "        want[edge[0]].append(edge)\n"
        "    assert g.out_edges() == want\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    for seed in ("0", "1"):
        subprocess.run([sys.executable, "-c", script], check=True, env={**env, "PYTHONHASHSEED": seed})


def test_one_graph_asked_every_pair_in_any_order_answers_as_fresh_copies_do():
    # the running search is resumed, restarted and read back in a shuffled
    # order of pairs and calls; a fresh copy of the graph per call has no
    # search to share
    rng = random.Random(97)
    found = 0
    for _ in range(1000):
        e = random_expr(rng, 8, letters=LETTERS3, variables=VARIABLES3, max_e_level=3)
        g = random_graph(rng, max_nodes=6, max_edges=14, letters=LETTERS3)
        val = random_valuation(rng, sorted(E.free_vars(e)), sorted(g.data_values()))
        asks = [(ask, u, v) for ask in (connected, witness_path) for u in g.nodes for v in g.nodes]
        rng.shuffle(asks)
        for ask, u, v in asks:
            got = ask(e, g, val, u, v)
            assert got == ask(e, graph(g.edges, g.nodes), val, u, v), (print_expr(e), u, v)
            found += ask is witness_path and got is not None
    assert found > 1000


def _count_searches(monkeypatch):
    import rewb.evaluate as ev

    starts = []
    layered = ev._layered

    def counting(*args):
        starts.append(args[3])
        return layered(*args)

    monkeypatch.setattr(ev, "_layered", counting)
    return starts


def test_witness_after_connected_on_the_same_pair_starts_no_second_search(monkeypatch):
    starts = _count_searches(monkeypatch)
    phi = parse_nnf("(p1 | !p2) & p2")
    out = sat_reduction(phi, ["p1", "p2"])
    g = out.graph
    assert connected(out.expr, g, {}, g.source, g.sink)
    path = witness_path(out.expr, g, {}, g.source, g.sink)
    assert member(out.expr, tuple((letter, value) for _, letter, value, _ in path), {})
    assert starts == [g.source]
    for v in sorted(g.nodes):  # every target from one source: still one search
        held = connected(out.expr, g, {}, g.source, v)
        assert held == (witness_path(out.expr, g, {}, g.source, v) is not None)
    assert starts == [g.source]
    witness_path(out.expr, g, {}, g.sink, g.sink)  # another source starts another
    assert starts == [g.source, g.sink]
    copy = pickle.loads(pickle.dumps(g))
    assert witness_path(out.expr, copy, {}, g.source, g.sink) == path
    assert starts == [g.source, g.sink, g.source]


def test_a_search_that_raises_leaves_no_memo_and_the_next_call_answers(monkeypatch):
    starts = _count_searches(monkeypatch)
    g = graph([("u", "a", "1", "v"), ("v", "b", "1", "w")])
    e = parse_expr("a+a.b[x=]")
    nfa = _compiled(e)
    raised = []
    for q, out in enumerate(nfa.mask_index):
        if "b" in out:
            (dst, mask, splice), = out["b"]

            def flaky(d, buckets, bits, mask=mask):
                if not raised:
                    raised.append(d)
                    raise RuntimeError("mask failed")
                return mask(d, buckets, bits)

            monkeypatch.setitem(out, "b", [(dst, flaky, splice)])
    assert connected(e, g, {"x": "1"}, "u", "v")  # the b guard is not reached yet
    with pytest.raises(RuntimeError):
        connected(e, g, {"x": "1"}, "u", "w")
    assert raised and not g.search_memo
    assert connected(e, g, {"x": "1"}, "u", "w")
    assert witness_path(e, g, {"x": "1"}, "u", "w") == [("u", "a", "1", "v"), ("v", "b", "1", "w")]
    assert starts == ["u", "u"]


def test_eval_stratified_renames_a_tree_once(monkeypatch):
    e = parse_expr("(a@once((b@twice(a[twice!=]))*.b[once=]))*.a@once(b[once!=])")
    assert not e.well_named
    calls = []
    rename = E.alpha_rename

    def counting(node):
        calls.append(node)
        return rename(node)

    monkeypatch.setattr(E, "alpha_rename", counting)
    first = eval_stratified(e, CYCLE)
    assert eval_stratified(e, CYCLE) == first
    assert eval_flat(e, CYCLE) == first
    assert calls == [e]  # its renaming and the blocks of it are well-named
    # a well-named tree is its own renaming
    named = parse_expr("(a@named(b[named!=]))*")
    assert eval_stratified(named, CYCLE) == eval_flat(named, CYCLE)
    assert named not in calls


def _path_graph(w):
    return graph([(f"n{k}", letter, value, f"n{k + 1}") for k, (letter, value) in enumerate(w)], nodes=["n0"])


@pytest.mark.parametrize("i", [1, 2])
def test_connected_on_pcp_word_paths_agrees_with_member_any(i):
    # the deltas bind hundreds of variables, at most i + 2 of them open at once
    inst = PcpInstance((("a", "ab"), ("bb", "b")))
    delta = pcp_delta(inst, i)
    assert not delta.free
    enc = pcp_encode(inst, [1, 2], i)
    words = [enc] + [pcp_encode(inst, seq, i, allow_nonsolution=True) for seq in ([1], [2], [2, 1], [1, 2, 2])]
    words += [pcp_mutate(enc, kind, seed) for kind in MUTATION_KINDS for seed in range(2)]
    verdicts = set()
    for w in words:
        verdict = member_any(delta, w)
        assert connected(delta, _path_graph(w), {}, "n0", f"n{len(w)}") == verdict
        verdicts.add(verdict)
    assert verdicts == {True, False}


def test_searches_raise_on_unset_variables_exactly_when_a_dict_search_does():
    # _search runs with a valuation missing some free variables; clearing
    # dead registers must neither read an emptied one nor skip a read
    rng = random.Random(83)
    raised = agreed = 0
    for _ in range(300):
        e = random_expr(rng, 12, letters=LETTERS3, variables=VARIABLES3, max_e_level=3)
        g = random_graph(rng, 4, 9, letters=LETTERS3)
        val = {v: rng.choice("123") for v in sorted(e.free) if rng.random() < 0.6}
        nfa, adj = _compiled(e), g.out_edges()
        for u in sorted(g.nodes):
            try:
                expected = reachable_finals(e, g, val, u)
            except UndefinedVariableError:
                expected = UndefinedVariableError
            try:
                got = set(_search(nfa, adj, val, u))
            except UndefinedVariableError:
                got = UndefinedVariableError
            assert got == expected
            raised += got is UndefinedVariableError
            agreed += 1
    assert 0 < raised < agreed


def test_layered_search_raises_on_unset_variables_exactly_when_a_dict_search_does():
    # the set functions raise when some tuple of the set would, so the
    # layered search raises on the same instances as a dict search
    rng = random.Random(89)
    raised = agreed = 0
    for _ in range(300):
        e = random_expr(rng, 12, letters=LETTERS3, variables=VARIABLES3, max_e_level=3)
        g = random_graph(rng, 4, 9, letters=LETTERS3)
        val = {v: rng.choice("123") for v in sorted(e.free) if rng.random() < 0.6}
        nfa, adj = _compiled(e), g.out_edges()
        for u in sorted(g.nodes):
            try:
                expected = reachable_finals(e, g, val, u)
            except UndefinedVariableError:
                expected = UndefinedVariableError
            try:
                got = set(_layered(nfa, adj, val, u, []))
            except UndefinedVariableError:
                got = UndefinedVariableError
            assert got == expected
            raised += got is UndefinedVariableError
            agreed += 1
    assert 0 < raised < agreed


def test_connected_matches_eval_flat_on_cyclic_graphs():
    rng = random.Random(71)
    held = 0
    for _ in range(1000):
        e = random_expr(rng, 8, letters=LETTERS3, variables=VARIABLES3, max_e_level=3)
        g = random_graph(rng, max_nodes=6, max_edges=14, letters=LETTERS3)
        val = random_valuation(rng, sorted(E.free_vars(e)), sorted(g.data_values()))
        pairs = eval_flat(e, g, val)
        for u in sorted(g.nodes):
            for v in sorted(g.nodes):
                assert connected(e, g, val, u, v) == ((u, v) in pairs), (print_expr(e), u, v)
        held += len(pairs)
    assert held > 1000


def test_oracle_bound_counts_as_the_built_automata_do():
    # the bound's k was the largest automaton built over the renamed subexpressions
    rng = random.Random(61)
    g = graph([("u", "a", "1", "v"), ("v", "b", "2", "w")])
    for _ in range(3000):
        e = random_expr(rng, 10, letters=LETTERS3, variables=VARIABLES3, max_e_level=3)
        k = max(len(hier_automaton(sub).states) for sub in E.subexpressions(E.alpha_rename(e)))
        assert oracle_bound(e, g) == (k * k * 3) ** E.classify(e).e_level


def test_oracle_bound_of_a_400_letter_concatenation_is_quick():
    e = parse_expr(".".join("a" * 400))
    g = graph([("u", "a", "1", "u")])
    times = []
    for _ in range(3):
        start = time.perf_counter()
        assert oracle_bound(e, g) == 401 * 401
        times.append(time.perf_counter() - start)
    assert min(times) < 0.060


def test_short_witness_bound_holds():
    rng = random.Random(43)
    for _ in range(60):
        e = random_expr(rng, 8, max_e_level=2)
        g = random_graph(rng)
        val = random_valuation(rng, sorted(E.free_vars(e)), sorted(g.data_values()))
        bound = oracle_bound(e, g)
        for u, v in eval_flat(e, g, val):
            path = witness_path(e, g, val, u, v)
            assert path is not None and len(path) <= bound


def test_an_equal_fresh_tree_hits_the_compile_cache():
    text = "a@x((b[x!=])*.a[x=]).c[y=]"
    first = _compiled(parse_expr(text))
    hits = _compiled.cache_info().hits
    assert _compiled(parse_expr(text)) is first
    assert _compiled.cache_info().hits == hits + 1


@pytest.mark.parametrize("op, shift, word_len", [(".", 700, 700), ("+", 1, 1)])
def test_engines_on_seven_hundred_letters(op, shift, word_len):
    # a 700-letter concatenation or union over a three-node cycle of a-edges
    e = parse_expr(op.join("a" * 700))
    nodes = ["c0", "c1", "c2"]
    g = graph([(nodes[i], "a", "1", nodes[(i + 1) % 3]) for i in range(3)])
    expected = {(nodes[i], nodes[(i + shift) % 3]) for i in range(3)}
    assert member(e, [("a", "1")] * word_len)
    assert not member(e, [("a", "1")] * (word_len + 1))
    assert eval_flat(e, g) == expected
    assert eval_stratified(e, g) == expected
