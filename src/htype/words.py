"""Signed words in anticommuting generators, kept in canonical form.

A word stands for sign * J_1^(a1) ... J_n^(an) in the real algebra
generated by J_1, ..., J_n subject to

    J_i J_j = -J_j J_i   (i != j),      J_i^2 = -eps_i,

where eps_i = +1 for i <= r and -1 for i > r.  Canonical form keeps the
letters strictly increasing, so a word is a pair (sign, letters) and the
scalar one is (1, ()).  Inside the package a letter set is an int mask,
bit x for letter x, one range test, check_letters, refuses a mask
with a letter outside 1..n, and one sign rule, mul_sign, gives the s
in J_A J_B = s J_(A xor B).

The second half of the module handles systems of commuting involution
words (words P with P^2 = +1 prescribed to act as a fixed sign on some
vector): the scalar each subset product takes on that vector, its sign
read off the transpose sign_form_transposed of the sign rule.
"""

from collections import namedtuple


class Record:
    """Mixin for a namedtuple record: equal only to a record of its own
    type, never to a plain tuple, and hashed as its tuple of fields."""

    __slots__ = ()
    __hash__ = tuple.__hash__

    def __eq__(self, other):
        return type(other) is type(self) and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self == other


class _TupleEqual:
    """Mixin for Word and Involution: equal to a plain tuple of their
    values, as the typing.NamedTuples they were, but never to a Record.
    On word == record Python asks the word first, as no Record type is
    a subtype of Word; NotImplemented hands both orders to Record."""

    __slots__ = ()
    __hash__ = tuple.__hash__

    def __eq__(self, other):
        return NotImplemented if isinstance(other, Record) else tuple.__eq__(self, other)

    def __ne__(self, other):
        return NotImplemented if isinstance(other, Record) else tuple.__ne__(self, other)


class Signature:
    """Bilinear form type (r, s): r positive directions, then s negative.
    Immutable, and not a tuple, so "%s" % sig formats it whole."""

    __slots__ = ("r", "s")

    def __init__(self, r, s):
        if r < 0 or s < 0 or r + s < 1:
            raise ValueError("signature needs r, s >= 0 and r + s >= 1")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "s", s)

    def __setattr__(self, name, *value):
        raise AttributeError("Signature field %r is read-only" % name)

    __delattr__ = __setattr__

    def __eq__(self, other):
        return type(other) is type(self) and (self.r, self.s) == (other.r, other.s)

    def __hash__(self):
        return hash((self.r, self.s))

    def __repr__(self):
        return "Signature(r=%r, s=%r)" % (self.r, self.s)

    def __reduce__(self):
        return Signature, (self.r, self.s)

    def _replace(self, **changes):
        return Signature(changes.pop("r", self.r), changes.pop("s", self.s), **changes)

    @property
    def n(self):
        return self.r + self.s

    def eps(self, i):
        if not 1 <= i <= self.n:
            raise ValueError("letter %r out of range for %r" % (i, self))
        return 1 if i <= self.r else -1

    def __str__(self):
        return "(%d,%d)" % (self.r, self.s)


class Word(_TupleEqual, namedtuple("Word", "sign letters")):
    __slots__ = ()

    def __str__(self):
        return format_word(self)


def letter_mask(letters):
    """The letter set as an int: bit x is set for each letter x."""
    mask = 0
    for x in letters:
        mask |= 1 << x
    return mask


def check_letters(sig, mask):
    """Raise ValueError naming the least letter of mask outside 1..n."""
    bad = mask & (-(2 << sig.r + sig.s) | 1)
    if bad:
        raise ValueError("letter %r out of range for %r" % ((bad & -bad).bit_length() - 1, sig))


def mul_sign(sig, a, b):
    """The sign s in J_A J_B = s J_(A xor B), for letter masks a and b.

    Each letter x of B moves left past the letters of A above x, one
    sign flip each, and then either is inserted or meets its twin, and
    J_x^2 = -eps_x is -1 for the letters 1..r.  So the sign is -1 to
    the power |sign_form(A) & B|, which is bilinear over GF(2) in A and
    B.  Masks are nonnegative; a letter outside 1..n in both raises
    ValueError.
    """
    check_letters(sig, a & b)
    return -1 if (sign_form(sig, a) & b).bit_count() & 1 else 1


def sign_form(sig, a):
    """The GF(2)-linear f(A) of mul_sign: bit x is set when an odd number
    of the letters of mask a lie above x, xor when x is in a & {1..r}.
    The mask a must be nonnegative."""
    form = a & ((2 << sig.r) - 2)
    while a > 0:
        low = a & -a
        a ^= low
        form ^= low - 1
    return form


def sign_form_transposed(sig, b):
    """The transpose g of sign_form, with |sign_form(A) & b| = |A & g| for
    every mask A: bit y is set when an odd number of the letters of mask
    b lie below y, xor when y is in b & {1..r}.  b holds letters 1..n.
    So g is sign_form(b) ^ b, xor every bit 0..n when |b| is odd, as the
    letters of b below y and above y number |b| - [y in b]."""
    form = sign_form(sig, b) ^ b
    return form ^ ((2 << sig.r + sig.s) - 1) if b.bit_count() & 1 else form


def format_word(w):
    if not w.letters:
        return "1" if w.sign == 1 else "-1"
    body = "".join("J%d" % i for i in w.letters)
    return body if w.sign == 1 else "-" + body


class Involution(_TupleEqual, namedtuple("Involution", "word eigensign")):
    """An involution word together with the sign it takes on the vector."""

    __slots__ = ()


def check_involution_system(sig, system):
    """Validate a list of Involution entries; returns None or raises.

    Required: every word squares to +1, the words commute pairwise and
    their letter masks are independent over GF(2), so the 2^k subset
    products are distinct and themselves involutions.  Both sign tests
    read mul_sign: J_M J_M = mul_sign(M, M), and J_M J_O = J_O J_M
    exactly when mul_sign(M, O) = mul_sign(O, M).
    """
    span = {0}
    for idx, (w, sgn) in enumerate(system):
        if sgn not in (1, -1):
            raise ValueError("eigensign must be +-1")
        m = letter_mask(w.letters)
        if mul_sign(sig, m, m) != 1:
            raise ValueError("word %s does not square to +1" % (w,))
        for other, _ in system[idx + 1:]:
            o = letter_mask(other.letters)
            if mul_sign(sig, m, o) != mul_sign(sig, o, m):
                raise ValueError("words %s and %s do not commute" % (w, other))
        if m in span:
            raise ValueError("letter set of %s lies in the span of the others" % (w,))
        span |= {p ^ m for p in span}


def span_products(sig, system):
    """All 2^k subset products of the system, on the common eigenvector v.

    Returns {mask P: scalar c} with J_P v = c v, where J_P is the
    canonical word on the letters of P with sign +1.  Distinctness of
    the masks is exactly GF(2) independence of the letter sets.  Each
    word's mask m goes through check_letters once.  mul_sign(P, m) =
    (-1)^|P & g| for g = sign_form_transposed(m), one form per word.
    """
    out = {0: 1}
    for w, sgn in system:
        m = letter_mask(w.letters)
        check_letters(sig, m)
        g = sign_form_transposed(sig, m)
        # J_P w = mul_sign(P, m) * w.sign * J_(P xor m), and w v = sgn v.
        signs = (sgn * w.sign, -sgn * w.sign)
        out.update({p ^ m: c * signs[(p & g).bit_count() & 1] for p, c in out.items()})
    if len(out) != 2 ** len(system):
        raise ValueError("involution letter sets are not independent")
    return out
