"""Automaton compilation: position construction at both views."""

import random

import pytest

import rewb.expr as E
from rewb.automata import (
    Read,
    SubExpr,
    automaton_size,
    hier_automaton,
    register_nfa,
)
from rewb.errors import ValidationError
from rewb.evaluate import member
from rewb.randgen import random_expr, random_valuation, random_word
from rewb.syntax import parse_expr

from oracles import recursive_member


def test_hier_level0_chain():
    aut = hier_automaton(parse_expr("a.b"))
    assert len(aut.states) == 3
    labels = {(src, type(label), getattr(label, "letter", None), dst)
              for src, label, dst in aut.transitions}
    assert labels == {(0, Read, "a", 1), (1, Read, "b", 2)}
    assert aut.finals == {2}
    conditioned = hier_automaton(parse_expr("a[x=].b"))
    assert conditioned.transitions == {(0, Read("a", E.Eq("x")), 1), (1, Read("b"), 2)}


def test_hier_eshape_is_bindread_then_block():
    from rewb.automata import BindRead

    aut = hier_automaton(parse_expr("a@x(b[x=])"))
    assert len(aut.states) == 3
    assert aut.transitions == {
        (0, BindRead("a", "x"), 1),
        (1, SubExpr(parse_expr("b[x=]")), 2),
    }
    assert aut.finals == {2}


def test_hier_fshape_self_loop():
    aut = hier_automaton(parse_expr("(a@x(b[x=]))*"))
    assert len(aut.states) == 2
    assert (1, SubExpr(parse_expr("a@x(b[x=])")), 1) in aut.transitions
    assert aut.initials <= aut.finals  # the star accepts the empty word


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
        for _src, _letter, guard, _store, _dst in register_nfa(e).transitions:
            if guard is not None:
                assert E.cond_vars(guard) <= allowed



def test_register_nfa_index_matches_the_full_sort_key():
    # The destination fixes a transition's label, so sorting by (src, dst)
    # alone must give every move list, and the hierarchical automaton's
    # transition list, the order of the full key.
    rng = random.Random(21)
    for _ in range(300):
        renamed = E.alpha_rename(random_expr(rng, 12, letters=("a", "b", "c")))
        aut = hier_automaton(renamed)
        assert aut.sorted_transitions() == sorted(
            aut.transitions, key=lambda t: (t[0], t[2], type(t[1]).__name__, repr(t[1]))
        )
        nfa = register_nfa(renamed)
        full = {}
        for src, letter, guard, store, dst in sorted(
            nfa.transitions, key=lambda t: (t[0], t[1], t[4], repr(t[2]), repr(t[3]))
        ):
            full.setdefault((src, letter), []).append((guard, store, dst))
        for (src, letter), moves in full.items():
            assert [m[:3] for m in nfa.moves(src, letter)] == moves
        assert sum(map(len, full.values())) == len(nfa.transitions)

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
