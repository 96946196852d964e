"""Correspondence-problem encodings and the non-solution expression."""

import hashlib
import itertools
import random

import pytest

from rewb import classify, member, member_any, register_nfa
from rewb.errors import ValidationError
from rewb.evaluate import _compiled, _stepped
from rewb.expr import letters_in, size
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
    with pytest.raises(ValidationError):  # a letter, but not one the text syntax reads
        PcpInstance((("é", "é"),))


@pytest.mark.parametrize("seq", [[0], [-1], [3], [1, 3]])
def test_encode_checks_every_index(seq):
    for allow_nonsolution in (False, True):
        with pytest.raises(ValidationError, match="pair index out of range"):
            pcp_encode(SOLVABLE, seq, 1, allow_nonsolution=allow_nonsolution)


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


def _data_words(letters, n):
    """Every data word over ``letters`` of length at most ``n``, values up to
    renaming: a word's values are 1, 2, ... in the order they first occur."""
    patterns = [()]
    for k in range(n + 1):
        for spelled in itertools.product(letters, repeat=k):
            for values in patterns:
                yield tuple(zip(spelled, values))
        patterns = [p + (str(v),) for p in patterns for v in range(1, len(set(p)) + 2)]


def test_the_language_of_a_delta_is_pinned():
    # member's verdicts on every data word of length <= 4 over the delta's
    # 7 letters, as the delta with one arm per tuple of letters gave them
    delta = pcp_delta(PcpInstance((("a", "ab"), ("bb", "b"))), 1)
    words = list(_data_words(sorted(letters_in(delta)), 4))
    verdicts = "".join("1" if member(delta, w) else "0" for w in words)
    assert (len(words), verdicts.count("1")) == (37836, 4391)
    digest = hashlib.sha256(verdicts.encode()).hexdigest()
    assert digest == "9c2b717c7d67f29feffcd24691d8416e6df79b438d459393f9a7b06644a91638"


def test_a_delta_builds_for_long_pair_words():
    for pairs in ((("a" * 70, "b"),), (("a" * 31, "b"), ("a" * 31, "c"))):
        inst = PcpInstance(pairs)
        delta = pcp_delta(inst, 1)
        assert member_any(delta, pcp_encode(inst, [1], 1, allow_nonsolution=True))


def test_long_pair_words_reach_the_wrong_shape_rests():
    # words of length <= 4 never get past the first letters of a pair word
    # of 70; here the kernel that member runs and the interpreted step read
    # the rests after dollar1 a^k, and the rests split the words with the code
    inst = PcpInstance((("a" * 70, "b"),))
    delta = pcp_delta(inst, 1)
    nfa = _compiled(delta)
    gamma = inst.sigma + inst.dollars() + [HASH]
    code, wrong = parse_expr("(dollar1." + ".".join("a" * 70) + ")*"), _wrong_shape(inst, 0)
    encoding = pcp_encode(inst, [1], 1, allow_nonsolution=True)
    words = [encoding] + [pcp_mutate(encoding, kind, seed) for kind in MUTATION_KINDS for seed in range(3)]
    rng = random.Random(70)
    for _ in range(200):
        head = rng.choice([(), (HASH,)])
        letters = [*head, "dollar1", *["a"] * rng.randint(0, 70), *rng.choices(gamma, k=rng.randint(0, 3))]
        w = tuple((letter, str(rng.randint(1, 3))) for letter in letters)
        words.append(w)
        if not head:
            assert member(code, w) != member(wrong, w), w
    verdicts = set()
    for w in words:
        verdict = member(delta, w)
        assert verdict == _stepped(nfa, w, {}), w
        verdicts.add(verdict)
    assert verdicts == {True, False}


@pytest.mark.parametrize("pairs, i, nodes, states, width", [
    ((("a", "ab"), ("bb", "b")), 1, 1730, 417, 3),
    ((("a", "ab"), ("bb", "b")), 2, 1866, 485, 4),
    ((("a" * 70, "b"),), 1, 2528, 566, 3),
], ids=["a/ab,bb/b i=1", "a/ab,bb/b i=2", "a^70/b i=1"])
def test_the_sizes_of_the_deltas_are_pinned(pairs, i, nodes, states, width):
    # nodes, register-NFA states and register width, with each shared
    # prefix of the families written once
    delta = pcp_delta(PcpInstance(pairs), i)
    nfa = register_nfa(delta)
    assert (size(delta), len(nfa.states), nfa.width) == (nodes, states, width)


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
