"""Automaton compilation: position construction at both views."""

import gc
import random
import tracemalloc

import pytest

import rewb.automata as automata
import rewb.expr as E
from rewb.automata import (
    BindRead,
    PositionAutomaton,
    Read,
    RegisterNfa,
    SubExpr,
    automaton_size,
    automaton_sizes,
    hier_automaton,
    register_nfa,
)
from rewb.errors import ValidationError
from rewb.data import graph
from rewb.evaluate import _compiled, _stepped, connected, eval_flat, member, member_any
from rewb.gadgets import eval_expr, parse_nnf, sat_reduction
from rewb.pcp import PcpInstance, pcp_delta, pcp_encode
from rewb.randgen import random_expr, random_valuation, random_word
from rewb.syntax import parse_expr, print_cond

from oracles import recursive_member


def test_hier_level0_chain():
    aut = hier_automaton(parse_expr("a.b"))
    assert len(aut.states) == 3
    labels = {(src, type(label), getattr(label, "letter", None), dst)
              for src, label, dst in aut.transitions}
    assert labels == {(0, Read, "a", 1), (1, Read, "b", 2)}
    assert aut.finals == {2}
    conditioned = hier_automaton(parse_expr("a[x=].b"))
    assert conditioned.transitions == ((0, Read("a", E.Eq("x")), 1), (1, Read("b"), 2))


def test_hier_eshape_is_bindread_then_block():
    aut = hier_automaton(parse_expr("a@x(b[x=])"))
    assert len(aut.states) == 3
    assert aut.transitions == (
        (0, BindRead("a", "x"), 1),
        (1, SubExpr(parse_expr("b[x=]")), 2),
    )
    assert aut.finals == {2}


def test_hier_fshape_self_loop():
    aut = hier_automaton(parse_expr("(a@x(b[x=]))*"))
    assert len(aut.states) == 2
    assert (1, SubExpr(parse_expr("a@x(b[x=])")), 1) in aut.transitions
    assert 0 in aut.finals  # the star accepts the empty word


def test_automaton_sizes_count_the_built_automata():
    rng = random.Random(71)
    for _ in range(3000):
        e = E.alpha_rename(random_expr(rng, 10, ("a", "b", "c"), ("x", "y", "z"), max_e_level=3))
        sizes = automaton_sizes(e)
        assert set(sizes) == set(E.subexpressions(e))
        for sub, size in sizes.items():
            assert size == len(hier_automaton(sub).states)


def test_automaton_size_examples():
    assert automaton_size(parse_expr("a.b")) == 3
    assert automaton_size(parse_expr("eps")) == 1
    assert automaton_size(parse_expr("(a@x(b[x=]))*")) == 2


def test_rejects_unrenamed_input():
    with pytest.raises(ValidationError):
        hier_automaton(parse_expr("a@x(b@x(c[x=]))"))
    with pytest.raises(ValidationError):
        register_nfa(parse_expr("a@x(b)+c@x(d)"))
    # binder clashing with a free occurrence is just as unusable
    with pytest.raises(ValidationError):
        register_nfa(parse_expr("a@x(b).c[x=]"))


def test_eshaped_automata_are_acyclic():
    rng = random.Random(5)
    checked = 0
    for _ in range(400):
        e = E.alpha_rename(random_expr(rng, 8))
        level = E.classify(e)
        if level.e_level != level.f_level:
            continue
        aut = hier_automaton(e)
        succ = {}
        for src, _label, dst in aut.transitions:
            succ.setdefault(src, set()).add(dst)
        # Kahn-style peeling; leftovers mean a cycle
        incoming = {q: 0 for q in aut.states}
        for src, targets in succ.items():
            for dst in targets:
                incoming[dst] += 1
        queue = [q for q, deg in incoming.items() if deg == 0]
        seen = 0
        while queue:
            q = queue.pop()
            seen += 1
            for dst in succ.get(q, ()):
                incoming[dst] -= 1
                if incoming[dst] == 0:
                    queue.append(dst)
        assert seen == len(aut.states), "cycle in an E-shaped automaton"
        checked += 1
    assert checked > 50


def test_a_binder_head_is_never_final():
    # in an E-shaped view every leaf and star sits in a SubExpr block, so no
    # position is nullable and a BindRead move always has a block after it;
    # F-shaped views have no BindRead at all
    rng = random.Random(544)
    heads = 0
    for _ in range(1500):
        e = E.alpha_rename(random_expr(rng, 12, ("a", "b"), ("x", "y"), max_e_level=3))
        for sub in E.subexpressions(e):
            aut = hier_automaton(sub)
            for _src, label, dst in aut.transitions:
                if isinstance(label, BindRead):
                    heads += 1
                    assert dst not in aut.finals, sub
    assert heads > 1000


def _plain(e):
    """Is ``e`` a letter or a union of plain letters?"""
    return isinstance(e, E.Atom) or isinstance(e, E.Union) and _plain(e.left) and _plain(e.right)


def test_register_nfa_state_count_is_occurrences_plus_one():
    # letter occurrences and binder heads outside unions of plain letters,
    # plus one per maximal such union, plus the initial state
    rng = random.Random(6)
    classes = 0
    for _ in range(200):
        e = E.alpha_rename(random_expr(rng, 10))
        occurrences, stack = 0, [e]
        while stack:
            n = stack.pop()
            if isinstance(n, E.Union) and _plain(n):
                occurrences += 1
                classes += 1
            else:
                occurrences += isinstance(n, (E.Atom, E.Test, E.Bind))
                stack += E.children(n)
        assert len(register_nfa(e).states) == occurrences + 1
    assert classes > 0


def _with_classes(rng, e):
    """``e`` with about 70% of its letters replaced by unions of two to four
    letters, one in five of them also holding a test, so no class."""
    kind = type(e)
    if kind is E.Atom and rng.random() < 0.7:
        arms = [E.Atom(rng.choice("abc")) for _ in range(rng.randint(2, 4))]
        if rng.random() < 0.2:
            arms.append(E.Test(rng.choice("abc"), E.Neq("x")))
        out = arms.pop(rng.randrange(len(arms)))
        for arm in arms:
            out = E.Union(out, arm) if rng.random() < 0.5 else E.Union(arm, out)
        return out
    if kind in (E.Union, E.Concat):
        return kind(_with_classes(rng, e.left), _with_classes(rng, e.right))
    if kind is E.Star:
        return E.Star(_with_classes(rng, e.body))
    if kind is E.Bind:
        return E.Bind(e.letter, e.var, _with_classes(rng, e.body))
    return e


def _per_letter_nfa(e):
    """The register NFA of the well-named ``e`` with a position for every
    letter occurrence, classes or not."""
    def leaf(node):
        if isinstance(node, (E.Atom, E.Test)):
            return (node.letter,), getattr(node, "cond", None), None
        return None

    nfa = register_nfa(e)
    labels, finals, succs = automata._glushkov(e, leaf, lambda node: ((node.letter,), None, node.var))
    return RegisterNfa(labels, finals, succs, nfa.free, nfa.slot)


def test_class_positions_accept_what_per_letter_positions_accept():
    rng = random.Random(37)
    smaller = accepted = 0
    for _ in range(1200):
        e = E.alpha_rename(_with_classes(rng, random_expr(rng, 10, ("a", "b", "c"), ("x", "y"), max_e_level=2)))
        nfa, ref = register_nfa(e), _per_letter_nfa(e)
        smaller += len(nfa.states) < len(ref.states)
        val = random_valuation(rng, sorted(e.free), ("1", "2"))
        for _ in range(6):
            w = random_word(rng, 5, ("a", "b", "c"), ("1", "2"))
            truth = _stepped(ref, w, val)
            assert member(e, w, val) == truth, (e, w, val)
            accepted += truth
    assert smaller > 500 and accepted > 800


def test_register_nfa_guard_variables_are_free_or_binders():
    rng = random.Random(8)
    for _ in range(200):
        e = E.alpha_rename(random_expr(rng, 10))
        allowed = E.free_vars(e) | set(E.binder_vars(e))
        for _src, (_letter, guard, _store), _dst in register_nfa(e).transitions:
            if guard is not None:
                assert E.cond_vars(guard) <= allowed



def test_register_nfa_index_matches_the_full_sort_key():
    # The destination fixes a transition's label, so the order the position
    # construction emits, by (src, dst), must be that of the full key in
    # both views' transition lists, and so in every compiled move list.
    rng = random.Random(21)
    for _ in range(300):
        renamed = E.alpha_rename(random_expr(rng, 12, letters=("a", "b", "c")))
        aut = hier_automaton(renamed)
        assert list(aut.transitions) == sorted(
            aut.transitions, key=lambda t: (t[0], t[2], type(t[1]).__name__, repr(t[1]))
        )
        nfa = register_nfa(renamed)
        assert list(nfa.transitions) == sorted(
            nfa.transitions, key=lambda t: (t[0], t[2], t[1][0], repr(t[1][1]), repr(t[1][2]))
        )
        full = {}
        for src, (letter, guard, store), dst in sorted(
            nfa.transitions, key=lambda t: (t[0], t[1][0], t[2], repr(t[1][1]), repr(t[1][2]))
        ):
            full.setdefault((src, letter), []).append((guard, store, dst))
        rows, numbers = nfa.mask_index, nfa.row_numbers
        for (src, letter), moves in full.items():
            assert [(*nfa.labels[m[0] - 1][1:], m[0]) for m in rows[numbers[src]][letter]] == moves
        assert sum(map(len, full.values())) == len(nfa.transitions)
        # one arc per letter of the destination's class
        rebuilt = sorted(((src, (letter, *nfa.labels[m[0] - 1][1:]), m[0]) for src, n in enumerate(numbers)
                          for letter, ms in rows[n].items() for m in ms), key=lambda t: (t[0], t[2], t[1][0]))
        assert nfa.transitions == tuple(rebuilt)

def test_register_nfa_examples():
    e = parse_expr("a@x(b[x=]*)")
    assert member(e, (("a", "5"), ("b", "5"), ("b", "5")))
    assert not member(e, (("a", "5"), ("b", "7")))
    nfa = register_nfa(parse_expr("eps"))
    assert len(nfa.states) == 1 and nfa.finals == {0} and not nfa.transitions


def test_language_agreement_with_recursive_semantics():
    # the flattening and the structural recursion must define the same language
    rng = random.Random(11)
    for _ in range(120):
        e = random_expr(rng, 8)
        val = random_valuation(rng, sorted(E.free_vars(e)), ("1", "2"))
        for _ in range(8):
            w = random_word(rng, 6)
            assert member(e, w, val) == recursive_member(e, w, val)


def _binder_depth(e):
    if isinstance(e, E.Bind):
        return 1 + _binder_depth(e.body)
    return max((_binder_depth(k) for k in E.children(e)), default=0)


def test_slots_are_free_variables_then_one_per_binder_depth():
    rng = random.Random(89)
    for _ in range(500):
        e = E.alpha_rename(random_expr(rng, 12, ("a", "b", "c"), ("x", "y", "z"), max_e_level=3))
        nfa = register_nfa(e)
        assert nfa.width == len(e.free) + _binder_depth(e)
        assert nfa.free == tuple(sorted(e.free))
        assert [nfa.slot[v] for v in nfa.free] == list(range(len(e.free)))
        assert set(nfa.slot) == e.free | e.bound
    nested = register_nfa(E.alpha_rename(parse_expr("a@x(b@y(c[x=])).d@z(e[z=])")))
    assert nested.width == 2 and nested.slot["x_1"] == nested.slot["z_3"] == 0
    delta = register_nfa(E.alpha_rename(pcp_delta(PcpInstance((("a", "ab"), ("bb", "b"))), 2)))
    assert delta.width == 4 and len(delta.slot) == 91


def _clears(text):
    """The register NFA of ``text`` and {(letter, guard or store): slots
    cleared by the moves into that position}; the slots as sets of indices."""
    nfa = register_nfa(E.alpha_rename(parse_expr(text)))
    clear = nfa.liveness[1]
    out = {}
    for q, ((letter,), guard, store) in enumerate(nfa.labels, start=1):
        out[letter, print_cond(guard) if guard else store] = {i for i in range(nfa.width) if clear[q] >> i & 1}
    return nfa, out


def test_registers_are_cleared_where_they_die():
    nfa, clears = _clears("(a@x((b@y(c[y!=]))*.a[x=]))*")
    x, y = nfa.slot["x_1"], nfa.slot["y_2"]
    assert clears == {("a", "x_1"): set(), ("b", "y_2"): set(), ("c", "y_2!="): {y}, ("a", "x_1="): {x}}
    nfa, clears = _clears("a@x(b@y(c[x=])).d@z(e[z=])")
    x, y, z = nfa.slot["x_1"], nfa.slot["y_2"], nfa.slot["z_3"]
    # y is never read, so its store is dropped at once; nothing follows e
    assert clears == {("a", "x_1"): set(), ("b", "y_2"): {y}, ("c", "x_1="): {x},
                      ("d", "z_3"): set(), ("e", "z_3="): set()}
    _nfa, clears = _clears("a[z=].b[z=].c")
    assert not any(clears.values())  # z is free
    gadget = register_nfa(E.alpha_rename(eval_expr(3)))
    assert not any(gadget.liveness[1])


def test_liveness_agrees_with_a_search_for_the_next_read():
    # a slot is live at q when some path from q reads it before a store to it
    rng = random.Random(97)
    for _ in range(300):
        e = E.alpha_rename(random_expr(rng, 12, ("a", "b", "c"), ("x", "y", "z"), max_e_level=3))
        nfa = register_nfa(e)
        succ = {q: [] for q in nfa.states}
        for src, _label, dst in nfa.transitions:
            succ[src].append(dst)
        live, clear = nfa.liveness
        # the initial tuple needs no clearing
        assert live[0] == (1 << len(nfa.free)) - 1 and clear[0] == 0
        for q in nfa.states:
            for i in range(nfa.width):
                found, seen, todo = False, {q}, [q]
                while todo and not found:
                    for q2 in succ[todo.pop()]:
                        _letter, guard, store = nfa.labels[q2 - 1]
                        if guard is not None and i in {nfa.slot[v] for v in E.cond_vars(guard)}:
                            found = True
                        elif (store is None or nfa.slot[store] != i) and q2 not in seen:
                            seen.add(q2)
                            todo.append(q2)
                assert bool(live[q] >> i & 1) == found


def test_states_share_a_row_exactly_when_their_successor_sets_are_equal():
    rng = random.Random(103)
    shared = 0
    for _ in range(300):
        e = E.alpha_rename(random_expr(rng, 12, ("a", "b", "c"), ("x", "y", "z"), max_e_level=3))
        nfa = register_nfa(e)
        distinct = set(nfa.succs)
        assert len({id(succ) for succ in nfa.succs}) == len(distinct)
        # row numbers: equal exactly for equal successor tuples, first-seen
        # order from state 0
        numbers = nfa.row_numbers
        assert len({(succ, n) for succ, n in zip(nfa.succs, numbers)}) == len(distinct)
        assert list(dict.fromkeys(numbers)) == list(range(len(distinct)))
        # both compiled tables hold one row per successor tuple, under its
        # number, with the moves of each letter in successor order
        assert len(nfa.row_index) == len(nfa.mask_index) == len(distinct)
        for succ, n in zip(nfa.succs, numbers):
            moves = {}
            for dst in succ:
                for letter in nfa.labels[dst - 1][0]:
                    moves.setdefault(letter, []).append(dst)
            assert {letter: [entry[0] for entry in entries] for letter, entries in nfa.mask_index[n].items()} == moves
            assert {letter: [entry[:2] for entry in entries] for letter, entries in nfa.row_index[n].items()} == {
                letter: [(numbers[dst], dst in nfa.finals) for dst in dsts] for letter, dsts in moves.items()
            }
        shared += len(distinct) < len(nfa.states)
    assert shared > 100


_PCP = PcpInstance((("a", "ab"), ("bb", "b")))


def test_a_pcp_delta_stores_few_distinct_rows():
    nfa = register_nfa(pcp_delta(_PCP, 1))
    assert len(nfa.states) == 417
    assert len(nfa.row_index) <= 205


@pytest.mark.parametrize("i", [1, 2])
def test_a_compiled_delta_makes_one_splice_per_slot_plan(i):
    nfa = register_nfa(pcp_delta(_PCP, i))
    _live, clear = nfa.liveness
    # a splice stores into the store's slot and empties the cleared slots
    plans = {(clear[dst], nfa.slot.get(store))
             for dst, (_letter, _guard, store) in enumerate(nfa.labels, start=1)
             if store is not None or clear[dst]}
    for index in (nfa.row_index, nfa.mask_index):
        splices = {id(entry[-1]) for row in index for entries in row.values()
                   for entry in entries if entry[-1] is not None}
        assert 1 < len(splices) <= len(plans) <= 10


def test_a_compiled_delta_is_searched_without_its_transition_tuples(monkeypatch):
    def unbuilt(_aut):
        raise AssertionError("the per-arc transition tuples were built")

    delta = pcp_delta(_PCP, 1)
    g = graph([("u", "dollar1", "h1", "v"), ("v", "a", "1", "w"), ("w", "hash", "d1", "u")])
    monkeypatch.setattr(PositionAutomaton, "transitions", property(unbuilt))
    _compiled.cache_clear()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert not member_any(delta, pcp_encode(_PCP, (1, 2), 1))
        eval_flat(delta, g)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # the cached register NFA with its index and search index
    assert held < 4_000_000, held
    assert connected(delta, g, {}, "u", "v")


@pytest.mark.parametrize("op", [".", "+"])
def test_ten_thousand_letter_chains_compile_at_the_default_recursion_limit(op):
    letters = [f"l{j}" for j in range(10_000)]
    e = parse_expr(op.join(letters))
    assert e.well_named
    nfa, aut = register_nfa(e), hier_automaton(e)
    assert aut.labels == [Read(letter) for letter in letters]  # numbered left to right
    if op == ".":
        assert nfa.labels == [((letter,), None, None) for letter in letters]
        assert aut.succs == nfa.succs == [(q + 1,) for q in range(10_000)] + [()]
        word = tuple((letter, "1") for letter in letters)
        assert member(e, word) and not member(e, word[:-1])
    else:
        # the flat view reads the whole union as one class position
        assert nfa.labels == [(tuple(sorted(letters)), None, None)]
        assert nfa.succs == [(1,), ()] and nfa.finals == {1}
        assert aut.succs == [tuple(range(1, 10_001))] + [()] * 10_000
        assert member(e, (("l5000", "1"),)) and not member(e, (("l5000", "1"), ("l1", "1")))


@pytest.mark.parametrize("text, states, accepted, rejected", [
    # two-letter arms: no class, and the position construction merges the
    # first and last sets of 10,000 arms
    ("+".join(f"l{j}.m{j}" for j in range(10_000)), 20_001, ["l5000 m5000"], ["l5000", "l5000 m4999"]),
    # the deepest arm is a concatenation, so every union holds it and none
    # is a class, which the class search must find in linear time
    ("x.y+" + "+".join(f"l{j}" for j in range(1, 10_000)), 10_002, ["l5000", "x y"], ["x", "l1 l2"]),
    # the same arms the other way round: one class of 9,999 letters
    ("+".join(f"l{j}" for j in range(1, 10_000)) + "+x.y", 4, ["l5000", "x y"], ["x", "l1 l2"]),
], ids=["pairs", "pair-first", "pair-last"])
def test_ten_thousand_arm_unions_compile_at_the_default_recursion_limit(text, states, accepted, rejected):
    e = parse_expr(text)
    assert len(register_nfa(e).states) == states
    for word in accepted + rejected:
        assert member(e, tuple((letter, "1") for letter in word.split())) == (word in accepted), word


def test_the_class_search_decides_each_union_once(monkeypatch):
    # every union holds the concatenation, so each is asked whether it is a
    # class on the way down; the answers below it must be kept
    truth, decided = automata._plain_union, []

    def counted(top, plain):
        before = len(plain)
        out = truth(top, plain)
        decided.append(len(plain) - before)
        return out

    monkeypatch.setattr(automata, "_plain_union", counted)
    nfa = register_nfa(parse_expr("x.y+" + "+".join(f"l{j}" for j in range(1, 1000))))
    assert len(nfa.states) == 1002 and sum(decided) == 999


def test_register_nfa_compiles_the_2000_atom_sat_gadget():
    atoms = [f"p{j}" for j in range(1, 2001)]
    e = sat_reduction(parse_nnf("p1 & !p2000"), atoms).expr
    positions, stack = 0, [e]
    while stack:
        node = stack.pop()
        positions += isinstance(node, (E.Atom, E.Test, E.Bind))
        stack += E.children(node)
    nfa = register_nfa(e)
    assert len(nfa.states) == positions + 1

