"""Hierarchy witnesses: expressions, canonical words, mismatches."""

import pytest

from rewb import classify, member, member_any
from rewb.errors import ValidationError
from rewb.syntax import parse_expr, print_expr
from rewb.witness import (
    HarnessReport,
    is_mismatch,
    mismatch_harness,
    mismatch_samples,
    r_expr,
    u_word,
)


def test_r_expr_shapes():
    assert print_expr(r_expr(1)) == "a1@x1(b1[x1=])*"
    assert r_expr(2) == parse_expr("(a2@x2((a1@x1(b1[x1=]))*.b2[x2=]))*")
    assert classify(r_expr(3)).as_tuple() == (3, 4)
    with pytest.raises(ValidationError):
        r_expr(0)


def test_u_word_base_case():
    w = u_word(1, 2)
    assert w == tuple(
        (letter, f"d_1_{j}") for j in range(1, 5) for letter in ("a1", "b1")
    )


def test_u_word_lengths_follow_the_recurrence():
    for n in (1, 2, 3):
        length = 2 * n * n
        assert len(u_word(1, n)) == length
        for i in (2, 3, 4):
            length = n * n * (length + 2)
            assert len(u_word(i, n)) == length
    assert len(u_word(2, 2)) == 40


def test_u_words_are_accepted():
    for i in (1, 2, 3):
        for n in (2, 3):
            assert member(r_expr(i), u_word(i, n), {})


def test_is_mismatch_on_original_and_sample():
    assert is_mismatch(u_word(1, 2), 1, 2) is None
    sample = mismatch_samples(1, 2, 1, seed=0)[0]
    report = is_mismatch(sample, 1, 2)
    assert report is not None and report.j == 1
    assert report.p < report.p_prime and report.d != report.d_prime
    assert is_mismatch((("a1", "1"), ("c", "1")), 1, 1) is None  # wrong letters


def test_samples_keep_letter_projection_and_are_rejected():
    for i in (1, 2):
        for n in (2,):
            base = u_word(i, n)
            for sample in mismatch_samples(i, n, 8, seed=4):
                assert [l for l, _ in sample] == [l for l, _ in base]
                assert is_mismatch(sample, i, n) is not None
                assert not member_any(r_expr(i), sample)


def test_canonical_family_touches_every_level():
    samples = mismatch_samples(3, 2, 3, seed=0)
    reports = [is_mismatch(s, 3, 2) for s in samples]
    assert sorted(r.j for r in reports) == [1, 2, 3]


def test_harness_finds_a_mismatch_for_a_permissive_expression():
    e = parse_expr("a1@y(b1[y=]).(a1+b1)*")
    report = mismatch_harness(e, 6, (), (), {}, budget=10)
    assert report == HarnessReport(
        hypothesis_held=True, mismatch_found=True, sample_id=0, size_warning=False, checked=1
    )


def test_harness_reports_unmet_hypothesis():
    report = mismatch_harness(parse_expr("a1"), 6, (), (), {}, budget=5)
    assert not report.hypothesis_held and not report.mismatch_found


def test_harness_warns_below_the_size_bound():
    e = parse_expr("a1@y(b1[y=]).(a1+b1)*")
    assert mismatch_harness(e, 2, (), (), {}, budget=2).size_warning


def test_harness_inconclusive_below_the_size_bound():
    # with n too small the separation argument does not bite: this
    # expression pins the single block exactly and rejects every sample
    e = parse_expr("a1@y(b1[y=])")
    report = mismatch_harness(e, 1, (), (), {}, budget=4)
    assert report.hypothesis_held and not report.mismatch_found
    assert report.size_warning and report.checked == 4


def test_harness_rejects_a_budget_below_zero():
    # whether or not the hypothesis holds
    for text in ("a1@y(b1[y=]).(a1+b1)*", "a1"):
        with pytest.raises(ValidationError, match="budget must be at least 0, got -1"):
            mismatch_harness(parse_expr(text), 6, (), (), {}, budget=-1)


def test_harness_with_a_budget_of_zero_tries_no_sample():
    e = parse_expr("a1@y(b1[y=]).(a1+b1)*")
    assert mismatch_harness(e, 6, (), (), {}, budget=0) == HarnessReport(
        hypothesis_held=True, mismatch_found=False, sample_id=None, size_warning=False, checked=0
    )
