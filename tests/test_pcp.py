"""Correspondence-problem encodings and the non-solution expression."""

import itertools

import pytest

from rewb import classify, member, member_any
from rewb.errors import ValidationError
from rewb.pcp import (
    HASH,
    MUTATION_KINDS,
    PcpInstance,
    _wrong_shape,
    pcp_check_solution,
    pcp_delta,
    pcp_encode,
    pcp_mutate,
)
from rewb.syntax import parse_expr

SOLVABLE = PcpInstance((("ab", "a"), ("c", "bc")))
UNSOLVABLE = PcpInstance((("a", "aa"),))


def test_check_solution():
    assert pcp_check_solution(SOLVABLE, [1, 2])
    assert not pcp_check_solution(SOLVABLE, [2, 1])
    assert not pcp_check_solution(UNSOLVABLE, [1])
    assert not pcp_check_solution(UNSOLVABLE, [1, 1, 1])
    assert not pcp_check_solution(SOLVABLE, [])  # by convention
    with pytest.raises(ValidationError):
        pcp_check_solution(SOLVABLE, [3])


def test_encode_letter_projection():
    enc = pcp_encode(SOLVABLE, [1, 2], 1)
    letters = [letter for letter, _ in enc]
    assert letters == [
        "dollar1", "a", "b", "dollar2", "c",
        "hash", "a1", "b1", "hash",
        "dollar1", "a", "dollar2", "b", "c",
    ]
    values = [value for _, value in enc]
    # the two sides share dollar values h_j and position values 1..r
    assert values == ["h1", "1", "2", "h2", "3", "d1", "d_1_1", "d_1_1", "d2",
                      "h1", "1", "h2", "2", "3"]


def test_encode_refuses_non_solutions_without_the_flag():
    with pytest.raises(ValidationError):
        pcp_encode(SOLVABLE, [2, 1], 1)
    enc = pcp_encode(SOLVABLE, [2, 1], 1, allow_nonsolution=True)
    assert enc[0][0] == "dollar2"


def test_instance_letters_must_be_identifier_characters():
    # reserved names (hash, dollarN, aN/bN) are all multi-character, so
    # single-character instance letters cannot clash with them; what can
    # go wrong is a letter the word format cannot spell
    with pytest.raises(ValidationError):
        PcpInstance((("a1", "a"),))
    with pytest.raises(ValidationError):
        PcpInstance(())


def test_delta_level():
    delta = pcp_delta(SOLVABLE, 1)
    assert classify(delta).e_level == 2


def test_delta_rejects_the_solution_encoding():
    delta = pcp_delta(SOLVABLE, 1)
    assert not member_any(delta, pcp_encode(SOLVABLE, [1, 2], 1))


def test_delta_accepts_every_mutation_kind():
    delta = pcp_delta(SOLVABLE, 1)
    enc = pcp_encode(SOLVABLE, [1, 2], 1)
    for kind in MUTATION_KINDS:
        mutant = pcp_mutate(enc, kind, seed=9)
        assert mutant != enc
        assert member_any(delta, mutant), kind


def test_delta_accepts_well_shaped_words_of_unsolvable_instances():
    delta = pcp_delta(UNSOLVABLE, 1)
    for seq in ([1], [1, 1], [1, 1, 1]):
        enc = pcp_encode(UNSOLVABLE, seq, 1, allow_nonsolution=True)
        assert member_any(delta, enc), seq


def test_mutate_rejects_unknown_kinds_and_bad_words():
    enc = pcp_encode(SOLVABLE, [1, 2], 1)
    with pytest.raises(ValidationError):
        pcp_mutate(enc, "nope", 0)
    with pytest.raises(ValidationError):
        pcp_mutate((("a", "1"),), "letter-shape", 0)


@pytest.mark.parametrize("pairs", [
    (("a", "a"),),
    (("a", "ab"), ("bb", "b")),
    (("ab", "a"), ("c", "bc")),
    (("a", "b"), ("b", "a")),
    (("", "ab"), ("ba", "")),
])
def test_a_wrong_shape_and_its_code_split_the_short_words(pairs):
    inst = PcpInstance(pairs)
    gamma = inst.sigma + inst.dollars() + [HASH]
    words = [tuple((letter, "1") for letter in letters)
             for n in range(5) for letters in itertools.product(gamma, repeat=n)]
    for side in (0, 1):
        code = parse_expr("(" + "+".join(
            ".".join([dollar, *pair[side]]) for dollar, pair in zip(inst.dollars(), pairs)) + ")*")
        wrong = _wrong_shape(inst, side)
        for w in words:
            assert member(code, w) != member(wrong, w), (side, w)


def test_a_delta_builds_for_long_pair_words():
    for pairs in ((("a" * 70, "b"),), (("a" * 31, "b"), ("a" * 31, "c"))):
        inst = PcpInstance(pairs)
        delta = pcp_delta(inst, 1)
        assert member_any(delta, pcp_encode(inst, [1], 1, allow_nonsolution=True))


def test_a_delta_of_empty_pair_words_has_no_letters_to_star():
    inst = PcpInstance((("", ""),))
    delta = pcp_delta(inst, 1)
    encoding = pcp_encode(inst, [1], 1)
    assert not member_any(delta, encoding)
    for kind in ("repeated-hash-value", "dollar-value-mismatch"):
        assert member_any(delta, pcp_mutate(encoding, kind, seed=0)), kind


def test_level2_delta():
    delta = pcp_delta(SOLVABLE, 2)
    assert classify(delta).e_level == 3
    encoding = pcp_encode(SOLVABLE, [1, 2], 2)
    assert not member_any(delta, encoding)
    for kind in MUTATION_KINDS:
        assert member_any(delta, pcp_mutate(encoding, kind, seed=1)), kind
