"""Reference involution search: plain backtracking over letter sets.

An independent implementation of find_involution_system that scans the
candidates in tuple order, tests commutation pair by pair with
words_commute and rebuilds the GF(2) span of the chosen letter sets as
frozensets.  It is slow past r + s = 12 but simple enough to trust, so
the tests hold the bitset search in htype.clifford_rep against it.
"""

from itertools import combinations

from htype.clifford_rep import ConstructionError, involution_count
from htype.words import Involution, Word, words_commute


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
