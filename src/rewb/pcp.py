"""Post correspondence instances: non-solution expressions and encodings.

A solution of a correspondence instance is encoded as a data word
theta1 (hash, d1) z (hash, d2) theta2, where theta1 spells the u-side with
a dollar letter in front of each chosen pair, theta2 spells the v-side the
same way, z is a canonical witness word, and the data values tie the two
sides together: the j-th dollar carries h_j on both sides, the p-th
non-dollar position carries p on both sides, and all of 1..r, h_1..h_m,
d1, d2 are pairwise distinct.

``pcp_delta`` builds the expression accepting exactly the words of this
shape that are NOT such encodings, as a sum of violation families:

1. the letter projection of a side is wrong: it lies outside the side's
   code ``C* = (dollar_1 w_1 + ... + dollar_m w_m)*``, written out as
   ``C*`` followed by a rest that starts with no code word,
2. a hash value repeats elsewhere,
3. a data value repeats on one side of the hash-z-hash core,
4. the first, last or an intermediate dollar value differs across sides,
5. the first, last or an intermediate position value differs across sides,
6. a shared value carries different letters on the two sides.

The empty index sequence is not considered a solution; consistently, the
encoding-shaped word with empty thetas is accepted by no family.

Instance letters are single characters of ``[A-Za-z_]``, so that encodings
print and parse back; the reserved letters ``hash``, ``dollar1``..``dollarN``
and the witness letters a1/b1/... of the embedded level expression are all
longer, and no instance letter can clash with them.
"""

from __future__ import annotations

import itertools
import random
import string
from dataclasses import dataclass

from . import expr as E
from .data import DataWord
from .errors import ValidationError
from .gadgets import concat_all, union_all
from .witness import _r_expr, u_word

HASH = "hash"
_LETTERS = string.ascii_letters + "_"


@dataclass(frozen=True)
class PcpInstance:
    pairs: tuple  # of (u, v) word pairs over single-character letters

    def __post_init__(self):
        if not self.pairs:
            raise ValidationError("a correspondence instance needs at least one pair")
        for u, v in self.pairs:
            for ch in u + v:
                if ch not in _LETTERS:
                    raise ValidationError(f"invalid alphabet letter {ch!r}")

    @property
    def sigma(self):
        return sorted({ch for u, v in self.pairs for ch in u + v})

    def dollars(self):
        return [f"dollar{j}" for j in range(1, len(self.pairs) + 1)]


def pcp_check_solution(inst: PcpInstance, seq) -> bool:
    """Does the index sequence witness a correspondence? Empty is False."""
    if not seq:
        return False
    for index in seq:
        if index < 1 or index > len(inst.pairs):
            raise ValidationError(f"pair index out of range: {index}")
    u_side = "".join(inst.pairs[index - 1][0] for index in seq)
    v_side = "".join(inst.pairs[index - 1][1] for index in seq)
    return u_side == v_side


def _theta(inst, seq, side):
    word = []
    position = 0
    for j, index in enumerate(seq, start=1):
        word.append((f"dollar{index}", f"h{j}"))
        for ch in inst.pairs[index - 1][side]:
            position += 1
            word.append((ch, str(position)))
    return word


def pcp_encode(inst: PcpInstance, seq, i: int, allow_nonsolution: bool = False) -> DataWord:
    """The canonical data word encoding of an index sequence.

    Non-solutions are refused unless ``allow_nonsolution`` is set (their
    encodings number the two sides independently and are used as negative
    test material).
    """
    if not seq:
        raise ValidationError("cannot encode an empty sequence")
    solved = pcp_check_solution(inst, seq)  # also checks every index
    if not (solved or allow_nonsolution):
        raise ValidationError("sequence is not a solution; pass allow_nonsolution to encode anyway")
    theta1 = _theta(inst, seq, 0)
    theta2 = _theta(inst, seq, 1)
    z = u_word(i, 1)
    return tuple(theta1) + ((HASH, "d1"),) + z + ((HASH, "d2"),) + tuple(theta2)


MUTATION_KINDS = (
    "letter-shape",
    "repeated-hash-value",
    "repeated-prefix-value",
    "dollar-value-mismatch",
    "position-value-mismatch",
    "letter-at-shared-value",
)


def _split_encoding(w):
    hashes = [pos for pos, (letter, _) in enumerate(w) if letter == HASH]
    if len(hashes) != 2:
        raise ValidationError("not an encoding: expected exactly two hash letters")
    h1, h2 = hashes
    return list(w), h1, h2


def pcp_mutate(w: DataWord, kind: str, seed: int) -> DataWord:
    """A copy of an encoding violating one property family.

    The word is interpreted by the reserved-letter naming convention
    (``hash``, ``dollar<j>``); positions to alter are picked with the
    given seed.
    """
    word, h1, h2 = _split_encoding(w)
    rng = random.Random(seed)
    theta1 = list(range(0, h1))
    theta2 = list(range(h2 + 1, len(word)))
    values = {value for _, value in word}
    fresh = "mut0"
    while fresh in values:
        fresh = "mut" + str(rng.randint(0, 10**6))

    if kind == "letter-shape":
        if not theta1:
            raise ValidationError("encoding has an empty u side")
        pos = rng.choice(theta1)
        word[pos] = (HASH, word[pos][1])
    elif kind == "repeated-hash-value":
        if not theta1:
            raise ValidationError("encoding has an empty u side")
        pos = rng.choice(theta1)
        word[h1] = (HASH, word[pos][1])
    elif kind == "repeated-prefix-value":
        if len(theta1) < 2:
            raise ValidationError("u side too short for a repeated value")
        first, second = sorted(rng.sample(theta1, 2))
        word[second] = (word[second][0], word[first][1])
    elif kind == "dollar-value-mismatch":
        dollars = [p for p in theta2 if word[p][0].startswith("dollar")]
        if not dollars:
            raise ValidationError("encoding has no dollars on the v side")
        word[dollars[0]] = (word[dollars[0]][0], fresh)
    elif kind == "position-value-mismatch":
        if not theta2:
            raise ValidationError("encoding has an empty v side")
        last = theta2[-1]
        word[last] = (word[last][0], fresh)
    elif kind == "letter-at-shared-value":
        eligible = [
            (p, q)
            for p in theta2
            for q in theta2
            if p < q and word[p][0] != word[q][0]
        ]
        if not eligible:
            raise ValidationError("v side has no two positions with distinct letters")
        p, q = rng.choice(eligible)
        word[p], word[q] = (word[p][0], word[q][1]), (word[q][0], word[p][1])
    else:
        raise ValidationError(f"unknown mutation kind {kind!r}; choose from {MUTATION_KINDS}")
    return tuple(word)


def _wrong_shape(inst: PcpInstance, side: int) -> E.Rewb:
    """The words over the delta's letters outside the code ``C*`` of a side.

    Each dollar starts exactly one code word, so a word splits in one way
    only into a longest prefix in ``C*`` and a rest, and it lies outside
    ``C*`` exactly when the rest is nonempty and starts with no code word:
    with a letter or hash, or with ``dollar_j`` and a proper prefix of
    ``w_j`` that ends the word or goes on with a letter other than the next
    of ``w_j``. The rests of ``dollar_j`` share their prefixes, as the trie
    ``dollar_j·(stop_0 + w_j[0]·(stop_1 + ...))``, where ``stop_k`` ends the
    word or reads a letter other than ``w_j[k]``.
    """
    sigma, dollars = inst.sigma, inst.dollars()
    gamma = sigma + dollars + [HASH]
    gamma_star = E.Star(union_all([E.Atom(l) for l in gamma]))
    words = [pair[side] for pair in inst.pairs]
    code = E.Star(union_all([concat_all([E.Atom(dollar)] + [E.Atom(ch) for ch in word])
                             for dollar, word in zip(dollars, words)]))
    rests = [E.Concat(union_all([E.Atom(l) for l in sigma + [HASH]]), gamma_star)]
    for dollar, word in zip(dollars, words):
        trie = None
        for ch in reversed(word):
            stop = E.Union(E.EPS, E.Concat(union_all([E.Atom(l) for l in gamma if l != ch]), gamma_star))
            trie = stop if trie is None else E.Union(stop, E.Concat(E.Atom(ch), trie))
        if trie is not None:
            rests.append(E.Concat(E.Atom(dollar), trie))
    return E.Concat(code, union_all(rests))


def pcp_delta(inst: PcpInstance, i: int) -> E.Rewb:
    """The expression accepting exactly the non-encoding-shaped words, well-named as built.

    ``bind(letters, body)`` is the union over ``letters`` of
    ``letter@x(body(x, letter))``, each x a fresh name, ``test(letters,
    cond)`` is the union of ``letter[cond]``, and each copy of the witness r
    has variables of its own. Each shared prefix is written once: most arms
    start with Γ* and bind a letter, so they are one ``Γ*·(hash·r·(...) +
    bind(Γ, after))``, where ``after(x, letter)`` holds every family's arm
    that binds that letter there, its continuation moved inside the binder
    (x is not read after it). As concatenation and binding distribute over
    union, this is the language of one arm per family and tuple of letters.
    """
    if i < 1:
        raise ValidationError("level must be at least 1")
    sigma, dollars = inst.sigma, inst.dollars()
    gamma = sigma + dollars + [HASH]
    hash_atom = E.Atom(HASH)
    gamma_star = E.Star(union_all([E.Atom(l) for l in gamma]))
    sigma_star = E.Star(union_all([E.Atom(l) for l in sigma])) if sigma else E.EPS
    names = itertools.count(1)

    def cat(*parts):
        return concat_all([p for p in parts if p is not E.EPS] or [E.EPS])

    def r():
        return _r_expr(i, f"_{next(names)}")

    def core():
        return cat(hash_atom, r(), hash_atom)

    def bind(letters, body):
        arms = []
        for letter in letters:
            x = f"x_{next(names)}"
            arms.append(E.Bind(letter, x, body(x, letter)))
        return union_all(arms)

    def test(letters, cond):
        return union_all([E.Test(letter, cond) for letter in letters])

    def repeat(x, _letter):
        return cat(gamma_star, test(gamma, E.Eq(x)), gamma_star)

    # 4. a dollar value or 5. a position value differs across the sides: per
    # family the letters carrying the values, what comes before the first
    # of them on a side (lead), after the last (tail), and after the tail
    # before the next one (step)
    a_dollar = union_all([E.Atom(d) for d in dollars])
    differ = [(dollars, E.EPS, sigma_star, E.EPS)]
    if sigma:  # no letters, no positions
        differ.append((sigma, a_dollar, E.EPS, E.Union(E.EPS, a_dollar)))

    def after(x, letter):
        eq = E.Eq(x)
        arms = [cat(gamma_star, union_all([
            # 2. a hash value repeats earlier: the one before z, or after
            cat(E.Test(HASH, eq), r(), gamma_star),
            cat(hash_atom, r(), E.Union(
                cat(E.Test(HASH, eq), gamma_star),
                # 6. a shared value carries different letters on the two sides
                cat(hash_atom, gamma_star, test([l for l in gamma if l != letter], eq), gamma_star))),
            # 3. a value repeats before the hash-z-hash core
            cat(test(gamma, eq), gamma_star, core(), gamma_star),
        ]))]
        if letter == HASH:  # 2. the hash value before z repeats later
            arms.append(cat(r(), repeat(x, letter)))
        for letters, _lead, tail, step in differ:
            if letter in letters:  # 4./5. the last value differs, or the one after a value both sides share
                arms.append(cat(tail, E.Union(
                    cat(core(), gamma_star, test(letters, E.Neq(x)), tail),
                    cat(step, bind(letters, lambda y, _: cat(gamma_star, core(), gamma_star, test(letters, eq),
                                                             tail, step, test(letters, E.Neq(y)))), gamma_star))))
        return union_all(arms)

    return union_all([
        # 1. wrong letter projection on the u side
        cat(_wrong_shape(inst, 0), core(), gamma_star),
        # 4./5. the first value differs
        *[cat(lead, bind(letters, lambda x, _: cat(gamma_star, core(), lead, test(letters, E.Neq(x)))), gamma_star)
          for letters, lead, _tail, _step in differ],
        cat(gamma_star, E.Union(
            cat(hash_atom, r(), E.Union(
                # 1. wrong letter projection on the v side, or 3. a value repeats after the core
                cat(hash_atom, E.Union(_wrong_shape(inst, 1), cat(gamma_star, bind(gamma, repeat)))),
                # 2. the hash value after z repeats later
                bind([HASH], repeat))),
            bind(gamma, after))),
    ])
