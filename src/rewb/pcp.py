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

Reserved letters are spelled ``hash``, ``dollar1``..``dollarN`` and the
witness letters a1/b1/... of the embedded level expression; instance
alphabets must stay clear of them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import expr as E
from .data import DataWord
from .errors import ValidationError
from .gadgets import concat_all, union_all
from .witness import _r_expr, u_word

HASH = "hash"


@dataclass(frozen=True)
class PcpInstance:
    pairs: tuple  # of (u, v) word pairs over single-character letters

    def __post_init__(self):
        if not self.pairs:
            raise ValidationError("a correspondence instance needs at least one pair")
        for u, v in self.pairs:
            for ch in u + v:
                # single-character identifiers so encodings print and re-parse
                if not (ch.isalpha() or ch == "_"):
                    raise ValidationError(f"invalid alphabet letter {ch!r}")

    @property
    def sigma(self):
        return sorted({ch for u, v in self.pairs for ch in u + v})

    def dollars(self):
        return [f"dollar{j}" for j in range(1, len(self.pairs) + 1)]


def _reserved_letters(inst, i):
    out = {HASH}
    out.update(inst.dollars())
    for level in range(1, i + 1):
        out.add(f"a{level}")
        out.add(f"b{level}")
    return out


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
    if not allow_nonsolution and not pcp_check_solution(inst, seq):
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
    of ``w_j``.
    """
    sigma, dollars = inst.sigma, inst.dollars()
    gamma = sigma + dollars + [HASH]
    gamma_star = E.Star(union_all([E.Atom(l) for l in gamma]))
    words = [pair[side] for pair in inst.pairs]
    code = E.Star(union_all([concat_all([E.Atom(dollar)] + [E.Atom(ch) for ch in word])
                             for dollar, word in zip(dollars, words)]))
    rests = [E.Concat(union_all([E.Atom(l) for l in sigma + [HASH]]), gamma_star)]
    for dollar, word in zip(dollars, words):
        for k, ch in enumerate(word):
            other = union_all([E.Atom(l) for l in gamma if l != ch])
            rests.append(concat_all([E.Atom(dollar)] + [E.Atom(c) for c in word[:k]]
                                    + [E.Union(E.EPS, E.Concat(other, gamma_star))]))
    return E.Concat(code, union_all(rests))


def pcp_delta(inst: PcpInstance, i: int) -> E.Rewb:
    """The expression accepting exactly the non-encoding-shaped words, well-named as built."""
    if i < 1:
        raise ValidationError("level must be at least 1")
    reserved = _reserved_letters(inst, i)
    clash = set(inst.sigma) & reserved
    if clash:
        raise ValidationError(f"instance alphabet clashes with reserved letters: {sorted(clash)}")

    sigma = inst.sigma
    dollars = inst.dollars()
    gamma = sigma + dollars + [HASH]
    hash_atom = E.Atom(HASH)
    gamma_star = E.Star(union_all([E.Atom(l) for l in gamma]))
    sigma_star = E.Star(union_all([E.Atom(l) for l in sigma])) if sigma else E.EPS

    arms = []

    def arm(build):
        """Add the arm ``build(x, y, r)``: binder names x and y and a copy of
        the witness r, all of this arm's own."""
        tag = f"_{len(arms) + 1}"
        arms.append(build(f"x{tag}", f"y{tag}", _r_expr(i, tag)))

    # 1. wrong letter projection on a side
    left, right = _wrong_shape(inst, 0), _wrong_shape(inst, 1)
    arm(lambda x, y, r: concat_all([left, hash_atom, r, hash_atom, gamma_star]))
    arm(lambda x, y, r: concat_all([gamma_star, hash_atom, r, hash_atom, right]))

    # 2. a hash value repeats elsewhere (first the value before z, then after)
    for letter in gamma:
        arm(lambda x, y, r: concat_all([
            gamma_star,
            E.Bind(letter, x, E.Concat(gamma_star, E.Test(HASH, E.Eq(x)))),
            r, gamma_star,
        ]))
        arm(lambda x, y, r: concat_all([
            gamma_star,
            E.Bind(HASH, x, concat_all([r, gamma_star, E.Test(letter, E.Eq(x)), gamma_star])),
        ]))
        arm(lambda x, y, r: concat_all([
            gamma_star,
            E.Bind(letter, x, concat_all([gamma_star, hash_atom, r, E.Test(HASH, E.Eq(x))])),
            gamma_star,
        ]))
        arm(lambda x, y, r: concat_all([
            gamma_star, hash_atom, r,
            E.Bind(HASH, x, concat_all([gamma_star, E.Test(letter, E.Eq(x)), gamma_star])),
        ]))

    # 3. a value repeats before, or after, the hash-z-hash core
    for la in gamma:
        for lb in gamma:
            def repeat(x):
                return E.Bind(la, x, concat_all([gamma_star, E.Test(lb, E.Eq(x)), gamma_star]))
            arm(lambda x, y, r: concat_all([gamma_star, repeat(x), hash_atom, r, hash_atom, gamma_star]))
            arm(lambda x, y, r: concat_all([gamma_star, hash_atom, r, hash_atom, gamma_star, repeat(x)]))

    # 4. dollar value mismatches across the two sides
    for d1 in dollars:
        for d2 in dollars:
            arm(lambda x, y, r: concat_all([
                E.Bind(d1, x, concat_all([gamma_star, hash_atom, r, hash_atom, E.Test(d2, E.Neq(x))])),
                gamma_star,
            ]))
            arm(lambda x, y, r: concat_all([
                gamma_star,
                E.Bind(d1, x, concat_all([sigma_star, hash_atom, r, hash_atom, gamma_star, E.Test(d2, E.Neq(x))])),
                sigma_star,
            ]))
    for d1 in dollars:
        for d2 in dollars:
            for d3 in dollars:
                for d4 in dollars:
                    arm(lambda x, y, r: concat_all([
                        gamma_star,
                        E.Bind(d1, x, E.Concat(sigma_star, E.Bind(d2, y, concat_all([
                            gamma_star, hash_atom, r, hash_atom, gamma_star,
                            E.Test(d3, E.Eq(x)), sigma_star, E.Test(d4, E.Neq(y)),
                        ])))),
                        gamma_star,
                    ]))

    # 5. position value mismatches across the two sides
    for d1 in dollars:
        for d2 in dollars:
            for la in sigma:
                for lb in sigma:
                    arm(lambda x, y, r: concat_all([
                        E.Atom(d1),
                        E.Bind(la, x, concat_all([
                            gamma_star, hash_atom, r, hash_atom,
                            E.Atom(d2), E.Test(lb, E.Neq(x)),
                        ])),
                        gamma_star,
                    ]))
    for la in sigma:
        for lb in sigma:
            arm(lambda x, y, r: concat_all([
                gamma_star,
                E.Bind(la, x, concat_all([hash_atom, r, hash_atom, gamma_star, E.Test(lb, E.Neq(x))])),
            ]))
    for d1 in dollars:
        for d2 in dollars:
            for a1 in sigma:
                for a2 in sigma:
                    for a3 in sigma:
                        for a4 in sigma:
                            arm(lambda x, y, r: concat_all([
                                gamma_star,
                                E.Bind(a1, x, E.Concat(E.Union(E.EPS, E.Atom(d1)), E.Bind(a2, y, concat_all([
                                    gamma_star, hash_atom, r, hash_atom, gamma_star,
                                    E.Test(a3, E.Eq(x)),
                                    E.Union(E.EPS, E.Atom(d2)),
                                    E.Test(a4, E.Neq(y)),
                                ])))),
                                gamma_star,
                            ]))

    # 6. a shared value carries different letters on the two sides
    for g1 in gamma:
        for g2 in gamma:
            if g1 == g2:
                continue
            arm(lambda x, y, r: concat_all([
                gamma_star,
                E.Bind(g1, x, concat_all([gamma_star, hash_atom, r, hash_atom, gamma_star, E.Test(g2, E.Eq(x))])),
                gamma_star,
            ]))

    return union_all(arms)
