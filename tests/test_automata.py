"""Automaton compilation: position construction at both views."""

import gc
import random
import tracemalloc

import pytest

import rewb.automata as automata
import rewb.expr as E
from rewb.automata import (
    PositionAutomaton,
    Read,
    SubExpr,
    automaton_size,
    automaton_sizes,
    hier_automaton,
    register_nfa,
)
from rewb.errors import ValidationError
from rewb.data import graph
from rewb.evaluate import _compiled, connected, eval_flat, member, member_any
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
    from rewb.automata import BindRead

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


def test_register_nfa_state_count_is_occurrences_plus_one():
    rng = random.Random(6)
    for _ in range(200):
        e = E.alpha_rename(random_expr(rng, 10))
        occurrences = sum(
            1 for n in E.subexpressions(e) if isinstance(n, (E.Atom, E.Test, E.Bind))
        )
        assert len(register_nfa(e).states) == occurrences + 1


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
    # both views' transition lists, and so in every move list.
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
        for (src, letter), moves in full.items():
            assert [m[:3] for m in nfa.moves(src, letter)] == moves
        assert sum(map(len, full.values())) == len(nfa.transitions)
        rebuilt = sorted(((src, nfa.labels[m[2] - 1], m[2]) for src, row in enumerate(nfa.index)
                          for ms in row.values() for m in ms), key=lambda t: (t[0], t[2]))
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
    assert delta.width == 4 and len(delta.slot) > 600


def _clears(text):
    """The register NFA of ``text`` and {(letter, guard or store): slots
    cleared by the moves into that position}; the slots as sets of indices."""
    nfa = register_nfa(E.alpha_rename(parse_expr(text)))
    clear = nfa.liveness[1]
    out = {}
    for q, (letter, guard, store) in enumerate(nfa.labels, start=1):
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
        for rows in (nfa.index, nfa.mask_index, nfa.word_index):
            # one row per successor tuple and one successor tuple per row
            assert len({(succ, id(row)) for succ, row in zip(nfa.succs, rows)}) == len(distinct)
            assert len({id(row) for row in rows}) == len(distinct)
        # row numbers: equal exactly for equal successor tuples, first-seen
        # order from state 0, and row_index holds each row once under its number
        numbers = nfa.row_numbers
        assert len({(succ, n) for succ, n in zip(nfa.succs, numbers)}) == len(distinct)
        assert list(dict.fromkeys(numbers)) == list(range(len(distinct)))
        assert len(nfa.row_index) == len(distinct)
        for n, row in zip(numbers, nfa.index):
            assert {letter: [entry[:2] for entry in entries] for letter, entries in nfa.row_index[n].items()} == {
                letter: [(numbers[dst], dst in nfa.finals) for _guard, _store, dst in entries]
                for letter, entries in row.items()
            }
        shared += len(distinct) < len(nfa.states)
    assert shared > 100


_PCP = PcpInstance((("a", "ab"), ("bb", "b")))


def test_a_pcp_delta_stores_few_distinct_rows():
    nfa = register_nfa(pcp_delta(_PCP, 1))
    assert len(nfa.states) == 5323
    assert len({id(row) for row in nfa.index}) <= 1600


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
    assert [label[0] for label in nfa.labels] == letters  # numbered left to right
    assert aut.labels == [Read(letter) for letter in letters]
    assert aut.succs == nfa.succs
    if op == ".":
        assert nfa.succs == [(q + 1,) for q in range(10_000)] + [()]
        word = tuple((letter, "1") for letter in letters)
        assert member(e, word) and not member(e, word[:-1])
    else:
        assert nfa.succs == [tuple(range(1, 10_001))] + [()] * 10_000
        assert member(e, (("l5000", "1"),)) and not member(e, (("l5000", "1"), ("l1", "1")))


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


def _cond_form(c, slot):
    """A condition with each variable replaced by its slot, as nested tuples."""
    if isinstance(c, (E.Eq, E.Neq)):
        return type(c).__name__, slot[c.var]
    if isinstance(c, E.Not):
        return "Not", _cond_form(c.body, slot)
    return type(c).__name__, _cond_form(c.left, slot), _cond_form(c.right, slot)


def _slot_form(nfa, label):
    letter, guard, store = label
    return letter, guard and _cond_form(guard, nfa.slot), nfa.slot.get(store)


def _bisimulation_fault(nfa):
    """Where the merge of ``nfa.reduced`` is not a backward bisimulation, or
    None. State 0 must be alone, every position of a class must carry the
    first one's label in slot form and have its set of predecessor classes,
    and the quotient must move between classes exactly where their members
    move."""
    cls = automata._past_classes(nfa)[0]
    if cls.count(0) != 1:
        return "state 0 shares its class"
    preds = [set() for _ in nfa.states]
    for p, succ in enumerate(nfa.succs):
        for q in succ:
            preds[q].add(cls[p])
    first = {}
    for q in range(1, len(nfa.states)):
        label, before = first.setdefault(cls[q], (_slot_form(nfa, nfa.labels[q - 1]), preds[q]))
        if _slot_form(nfa, nfa.labels[q - 1]) != label or preds[q] != before:
            return f"position {q} differs from the first position of class {cls[q]}"
    red = nfa.reduced
    moves = [set() for _ in red.states]
    for p, succ in enumerate(nfa.succs):
        moves[cls[p]].update(cls[q] for q in succ)
    if [set(succ) for succ in red.succs] != moves:
        return "the quotient's moves are not its members' moves"
    if [_slot_form(red, label) for label in red.labels] != [first[c][0] for c in range(1, len(red.states))]:
        return "the quotient's labels are not its members' labels"
    if red.finals != {cls[q] for q in nfa.finals}:
        return "a class is final where none of its members is, or the other way round"
    return None


def _repeated_stars(rng, count):
    """Seeded expressions (3 letters, 3 variables, E-level at most 3), half
    of them with one random star in several contexts, renamed apart."""
    letters, variables = ("a", "b", "c"), ("x", "y", "z")
    out = []
    while len(out) < count:
        e = random_expr(rng, 12, letters, variables, max_e_level=3)
        if len(out) % 2:
            s = E.Star(random_expr(rng, 8, letters, variables, max_e_level=2))
            g = random_expr(rng, 5, letters, variables)
            e = rng.choice([
                E.Union(E.Concat(e, s), E.Concat(g, s)),
                E.Union(E.Concat(s, e), E.Concat(s, g)),
                E.Star(E.Union(E.Concat(s, e), s)),
                E.Concat(E.Union(s, g), E.Star(E.Concat(s, s))),
            ])
            if e.level.e_level > 3:
                continue
        out.append(E.alpha_rename(e))
    return out


def test_the_reduction_is_a_backward_bisimulation():
    merged = 0
    for e in _repeated_stars(random.Random(211), 1200):
        nfa = register_nfa(e)
        assert _bisimulation_fault(nfa) is None, e
        merged += len(nfa.reduced.states) < len(nfa.states)
    assert merged > 100


@pytest.mark.parametrize("i, states, merged", [(1, 5323, 2039), (2, 5723, 2159)])
def test_the_pcp_deltas_reduce_to_a_backward_bisimulation(i, states, merged):
    nfa = register_nfa(pcp_delta(_PCP, i))
    assert _bisimulation_fault(nfa) is None
    assert (len(nfa.states), len(nfa.reduced.states)) == (states, merged)
    assert nfa.reduced.reduced is nfa.reduced


def test_a_planted_wrong_merge_fails_the_bisimulation_check(monkeypatch):
    # the two b positions carry one label, after a and after c
    nfa = register_nfa(parse_expr("a.b + c.b"))
    assert _bisimulation_fault(nfa) is None and len(nfa.reduced.states) == 5
    truth = automata._past_classes

    def merged(nfa):
        cls, labels, preds = truth(nfa)
        return cls[:4] + [cls[2]], labels, preds

    monkeypatch.setattr(automata, "_past_classes", merged)
    assert "position 4" in _bisimulation_fault(register_nfa(parse_expr("a.b + c.b")))


def test_a_class_is_final_if_a_later_member_is():
    # the two a positions merge, and only the second is final
    nfa = register_nfa(parse_expr("a.b + a"))
    assert _bisimulation_fault(nfa) is None and len(nfa.reduced.states) == 3
    assert member(parse_expr("a.b + a"), (("a", "1"),))


def test_an_automaton_that_merges_nothing_is_its_own_reduction():
    nfa = register_nfa(parse_expr("a@x(b[x=])*.c"))
    assert nfa.reduced is nfa
    # the pass in position order merges the two a positions, and only the
    # back arcs into them, from b and from c, tell them apart
    e = parse_expr("(a.b)*+(a.c)*")
    nfa = register_nfa(e)
    assert _bisimulation_fault(nfa) is None and len(nfa.reduced.states) == 5
    assert not member(e, (("a", "1"), ("b", "1"), ("a", "1"), ("c", "1")))


def test_deeply_nested_stars_reduce_to_a_backward_bisimulation():
    # (a.b)* inside 1,000 more stars (….b)*: the a is first in every star
    # body, so the back arcs of all of them lead into it
    nfa = register_nfa(parse_expr("(" * 1001 + "a.b)*" + ".b)*" * 1000))
    assert _bisimulation_fault(nfa) is None and len(nfa.reduced.states) == 1003
