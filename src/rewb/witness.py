"""Witness objects separating the levels of the binding hierarchy.

``r_expr(i)`` is the canonical F-level-i expression: level 1 repeats a
bind/check pair under a star, and each higher level wraps the previous
expression in a fresh bind/check pair, again iterated. ``u_word(i, n)``
is the canonical accepted word built from n^2 blocks per level with
pairwise distinct data values d_<level>_<index>; all copies of the
level-(i-1) sub-word inside level i are identical, as the recurrence
demands. A mismatched word keeps the letter projection but breaks one
bind/check value pair; no such word is accepted, which is what the
falsification harness probes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import expr as E
from .automata import automaton_sizes
from .data import DataWord
from .errors import ValidationError
from .evaluate import member


def r_expr(i: int) -> E.Rewb:
    """The canonical F-level-i witness expression."""
    if i < 1:
        raise ValidationError("witness expressions start at level 1")
    body = E.Test("b1", E.Eq("x1"))
    out = E.Star(E.Bind("a1", "x1", body))
    for level in range(2, i + 1):
        closing = E.Test(f"b{level}", E.Eq(f"x{level}"))
        out = E.Star(E.Bind(f"a{level}", f"x{level}", E.Concat(out, closing)))
    return out


def u_word(i: int, n: int) -> DataWord:
    """The canonical word accepted by r_expr(i), with n^2 blocks per level."""
    if i < 1 or n < 1:
        raise ValidationError("u words need level >= 1 and n >= 1")
    current = tuple(
        pair
        for j in range(1, n * n + 1)
        for pair in (("a1", f"d_1_{j}"), ("b1", f"d_1_{j}"))
    )
    for level in range(2, i + 1):
        blocks = []
        for j in range(1, n * n + 1):
            value = f"d_{level}_{j}"
            blocks.append(((f"a{level}", value),) + current + ((f"b{level}", value),))
        current = tuple(pair for block in blocks for pair in block)
    return current


@dataclass(frozen=True)
class MismatchReport:
    p: int
    p_prime: int
    j: int
    d: str
    d_prime: str


def is_mismatch(w: DataWord, i: int, n: int):
    """A report if ``w`` is a mismatched variant of u_word(i, n), else None.

    The letter projection must match exactly; the report names the first
    (in position order) pair of an a_j and a following b_j with differing
    values and no intermediate b_j.
    """
    reference = u_word(i, n)
    if tuple(letter for letter, _ in w) != tuple(letter for letter, _ in reference):
        return None
    for p_prime, (letter, d_prime) in enumerate(w):
        if not letter.startswith("b"):
            continue
        j = int(letter[1:])
        for p in range(p_prime - 1, -1, -1):
            inner, d = w[p]
            if inner == letter:
                break  # an intermediate b_j rules out everything further left
            if inner == f"a{j}" and d != d_prime:
                return MismatchReport(p, p_prime, j, d, d_prime)
    return None


def _positions_of(w, letter):
    return [pos for pos, (current, _) in enumerate(w) if current == letter]


def mismatch_samples(i: int, n: int, count: int, seed: int) -> list:
    """Mismatched variants of u_word(i, n), canonical family first.

    The canonical family changes, for each level j <= i, the value of the
    last b_j occurrence to a fresh token; the randomized remainder picks a
    random b_j occurrence instead. Each sample changes exactly one
    position, keeps the letter projection and satisfies is_mismatch.
    """
    if count < 1:
        raise ValidationError("count must be at least 1")
    base = u_word(i, n)
    rng = random.Random(seed)
    samples = []
    serial = 0

    def altered(position):
        nonlocal serial
        serial += 1
        letter, _ = base[position]
        fresh = f"m{serial}"
        return base[:position] + ((letter, fresh),) + base[position + 1 :]

    for j in range(1, i + 1):
        if len(samples) == count:
            break
        samples.append(altered(_positions_of(base, f"b{j}")[-1]))
    while len(samples) < count:
        j = rng.randint(1, i)
        samples.append(altered(rng.choice(_positions_of(base, f"b{j}"))))
    return samples


@dataclass(frozen=True)
class HarnessReport:
    hypothesis_held: bool
    mismatch_found: bool
    sample_id: int | None
    size_warning: bool
    checked: int


def mismatch_harness(e: E.Rewb, n: int, x: DataWord, z: DataWord, val, budget: int) -> HarnessReport:
    """Search for an accepted mismatched variant of the embedded u word.

    If ``e`` accepts x · u_word(i, n) · z (with i the E-level of ``e``),
    up to ``budget`` mismatch samples are tried in its place. Finding one
    is a confirmation; exhausting the budget is inconclusive, never a
    refutation, since the mismatch family is infinite. A warning is set
    when ``n`` is not strictly larger than automaton size + 1 and variable
    count + 1 for every sub-expression, the regime the separation
    statement assumes.
    """
    val = dict(val or {})
    renamed = E.alpha_rename(e)
    warn = any(
        n <= size + 1 or n <= len(E.all_vars(sub)) + 1
        for sub, size in automaton_sizes(renamed).items()
    )
    i = E.classify(e).e_level
    if not member(e, tuple(x) + u_word(i, n) + tuple(z), val):
        return HarnessReport(False, False, None, warn, 0)
    checked = 0
    for sample_id, sample in enumerate(mismatch_samples(i, n, budget, seed=0)):
        checked += 1
        if member(e, tuple(x) + sample + tuple(z), val):
            return HarnessReport(True, True, sample_id, warn, checked)
    return HarnessReport(True, False, None, warn, checked)
