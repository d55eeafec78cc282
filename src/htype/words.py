"""Signed words in anticommuting generators, kept in canonical form.

A word stands for sign * J_1^(a1) ... J_n^(an) in the real algebra
generated by J_1, ..., J_n subject to

    J_i J_j = -J_j J_i   (i != j),      J_i^2 = -eps_i,

where eps_i = +1 for i <= r and -1 for i > r.  Canonical form keeps the
letters strictly increasing, so a word is a pair (sign, letters) and the
scalar one is (1, ()).  Products, adjoints and inverses all stay exact.

The second half of the module handles systems of commuting involution
words (words P with P^2 = +1 prescribed to act as a fixed sign on some
vector) and the reduction of arbitrary words modulo such a system.
"""

from dataclasses import dataclass
from typing import NamedTuple


@dataclass(frozen=True)
class Signature:
    """Bilinear form type (r, s): r positive directions, then s negative."""

    r: int
    s: int

    def __post_init__(self):
        if self.r < 0 or self.s < 0 or self.r + self.s < 1:
            raise ValueError("signature needs r, s >= 0 and r + s >= 1")

    @property
    def n(self):
        return self.r + self.s

    def eps(self, i):
        if not 1 <= i <= self.n:
            raise ValueError("letter %r out of range for %r" % (i, self))
        return 1 if i <= self.r else -1

    def __str__(self):
        return "(%d,%d)" % (self.r, self.s)


class Word(NamedTuple):
    sign: int
    letters: tuple

    def __str__(self):
        return format_word(self)


ONE = Word(1, ())


def word(sign, letters):
    """Build a word, checking the canonical shape."""
    letters = tuple(letters)
    if sign not in (1, -1):
        raise ValueError("word sign must be +1 or -1")
    if any(b <= a for a, b in zip(letters, letters[1:])):
        raise ValueError("letters must be strictly increasing")
    if letters and letters[0] < 1:
        raise ValueError("letters start at 1")
    return Word(sign, letters)


def word_mul(sig, a, b):
    """Product of two canonical words, canonicalised again.

    Letters of b are inserted one by one; each transposition with a
    distinct letter flips the sign and a repeated letter collapses to
    the scalar -eps.
    """
    sign = a.sign * b.sign
    out = list(a.letters)
    for x in b.letters:
        k = len(out)
        while k > 0 and out[k - 1] > x:
            k -= 1
        # moved x past len(out)-k larger letters
        if (len(out) - k) % 2:
            sign = -sign
        if k > 0 and out[k - 1] == x:
            del out[k - 1]
            sign *= -sig.eps(x)
        else:
            out.insert(k, x)
    return Word(sign, tuple(out))


def word_square_sign(sig, w):
    """The scalar w * w, always +1 or -1."""
    sq = word_mul(sig, w, w)
    if sq.letters:
        raise AssertionError("square of a word must be scalar")
    return sq.sign


def word_adjoint(sig, w):
    """Adjoint with respect to an admissible form.

    Each generator is skew, so reversing the k letters and flipping k
    signs gives w* = (-1)^(k(k+1)/2) w on the same letters.
    """
    k = len(w.letters)
    flip = -1 if (k * (k + 1) // 2) % 2 else 1
    return Word(w.sign * flip, w.letters)


def word_inverse(sig, w):
    """Inverse word: w times its own square sign."""
    tau = word_square_sign(sig, w)
    return Word(w.sign * tau, w.letters)


def norm_sign(sig, w):
    """Product of eps over the letters; the squared norm J_W v picks up."""
    eta = 1
    for i in w.letters:
        eta *= sig.eps(i)
    return eta


def words_commute(a, b):
    """Whether the two words commute as algebra elements.

    Moving the letters of b through those of a costs |A||B| - |A and B|
    transposition signs.
    """
    common = len(set(a.letters) & set(b.letters))
    return (len(a.letters) * len(b.letters) - common) % 2 == 0


def format_word(w):
    if not w.letters:
        return "1" if w.sign == 1 else "-1"
    body = "".join("J%d" % i for i in w.letters)
    return body if w.sign == 1 else "-" + body


def parse_word(text):
    """Parse the format produced by format_word, e.g. "-J1J3"."""
    t = text.strip()
    sign = 1
    if t.startswith("-"):
        sign = -1
        t = t[1:]
    if t == "1":
        return Word(sign, ())
    letters = []
    pos = 0
    while pos < len(t):
        if t[pos] not in ("J", "j"):
            raise ValueError("cannot parse word %r" % text)
        pos += 1
        start = pos
        while pos < len(t) and t[pos].isdigit():
            pos += 1
        if start == pos:
            raise ValueError("cannot parse word %r" % text)
        letters.append(int(t[start:pos]))
    return word(sign, letters)


def is_involution_word(sig, w):
    """Whether w squares to +1, so it can act as +-1 on a vector."""
    return word_square_sign(sig, w) == 1


class Involution(NamedTuple):
    """An involution word together with the sign it takes on the vector."""

    word: Word
    eigensign: int


def check_involution_system(sig, system):
    """Validate a list of Involution entries; returns None or raises.

    Required: every word squares to +1, the words commute pairwise and
    their letter sets are independent over GF(2), so the 2^k subset
    products are distinct and themselves involutions.
    """
    span = {frozenset()}
    for idx, inv in enumerate(system):
        w, sgn = inv
        if sgn not in (1, -1):
            raise ValueError("eigensign must be +-1")
        if not is_involution_word(sig, w):
            raise ValueError("word %s does not square to +1" % (w,))
        for other, _ in system[idx + 1:]:
            if not words_commute(w, other):
                raise ValueError("words %s and %s do not commute" % (w, other))
        if frozenset(w.letters) in span:
            raise ValueError("letter set of %s lies in the span of the others" % (w,))
        span |= {s ^ frozenset(w.letters) for s in span}


def span_products(sig, system):
    """All 2^k subset products of the system.

    Returns a dict keyed by the letter set of the product; the value is
    (product word, product of eigensigns).  Distinctness of the keys is
    exactly GF(2) independence of the letter sets.
    """
    out = {frozenset(): (ONE, 1)}
    for w, sgn in system:
        extra = {}
        for key, (p, ps) in out.items():
            q = word_mul(sig, p, w)
            extra[frozenset(q.letters)] = (q, ps * sgn)
        out.update(extra)
    if len(out) != 2 ** len(system):
        raise ValueError("involution letter sets are not independent")
    return out


def reduce_mod_system(sig, system, w, table=None):
    """Scalar action of w on the common eigenvector of the system.

    Only defined when the letter set of w is a subset product of the
    system; then w equals a sign times that product and acts by the
    corresponding product of eigensigns.  Raises ValueError otherwise.
    """
    if table is None:
        table = span_products(sig, system)
    key = frozenset(w.letters)
    if key not in table:
        raise ValueError("word %s does not reduce modulo the system" % (w,))
    p, psign = table[key]
    return w.sign * p.sign * psign
