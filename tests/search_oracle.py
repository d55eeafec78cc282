"""Reference involution search: plain backtracking over letter sets.

An independent implementation of find_involution_system that scans the
candidates in tuple order, tests commutation pair by pair with
words_commute and rebuilds the GF(2) span of the chosen letter sets as
frozensets.  It is slow past r + s = 12 but simple enough to trust, so
the tests hold the bitset search in htype.clifford_rep against it.

check_involution_system is the system check as it stood on
words_commute and word_square_sign, before htype.words read both tests
off mul_sign; the tests hold the package's check against it.
"""

from itertools import combinations

from htype.clifford_rep import ConstructionError, involution_count
from htype.words import Involution, Word, letter_mask, mul_sign


def words_commute(a, b):
    """Whether the two words commute as algebra elements.

    Moving the letters of b through those of a costs |A||B| - |A and B|
    transposition signs.
    """
    common = (letter_mask(a.letters) & letter_mask(b.letters)).bit_count()
    return (len(a.letters) * len(b.letters) - common) % 2 == 0


def word_square_sign(sig, w):
    """The scalar w * w, always +1 or -1."""
    m = letter_mask(w.letters)
    return mul_sign(sig, m, m)


def check_involution_system(sig, system):
    """Validate a list of Involution entries; returns None or raises."""
    span = {0}
    for idx, (w, sgn) in enumerate(system):
        if sgn not in (1, -1):
            raise ValueError("eigensign must be +-1")
        if word_square_sign(sig, w) != 1:
            raise ValueError("word %s does not square to +1" % (w,))
        for other, _ in system[idx + 1:]:
            if not words_commute(w, other):
                raise ValueError("words %s and %s do not commute" % (w, other))
        m = letter_mask(w.letters)
        if m in span:
            raise ValueError("letter set of %s lies in the span of the others" % (w,))
        span |= {p ^ m for p in span}


def _candidate_sets(sig):
    cands = []
    for size in (3, 4):
        for c in combinations(range(1, sig.n + 1), size):
            eta = 1
            for i in c:
                eta *= sig.eps(i)
            if eta == 1:
                cands.append(c)
    cands.sort()
    return cands


def find_involution_system(sig, k=None):
    """Deterministic search for k commuting independent involution words.

    Candidates are the length 3 and 4 letter sets whose eps product is
    +1 (so the word squares to +1), scanned in tuple order with
    backtracking.  All eigensigns are +1.  The first system found is
    returned, so the result is stable.
    """
    if k is None:
        k = involution_count(sig)
    if k == 0:
        return []
    cands = _candidate_sets(sig)
    chosen = []

    def extend(start, span):
        if len(chosen) == k:
            return True
        for idx in range(start, len(cands)):
            c = cands[idx]
            cset = frozenset(c)
            if cset in span:
                continue
            w = Word(1, c)
            if not all(words_commute(w, p.word) for p in chosen):
                continue
            chosen.append(Involution(w, 1))
            if extend(idx + 1, span | {s ^ cset for s in span}):
                return True
            chosen.pop()
        return False

    if not extend(0, {frozenset()}):
        raise ConstructionError("no involution system of size %d for %s" % (k, sig))
    return chosen
