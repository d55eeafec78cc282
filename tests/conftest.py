"""Shared helpers for the test suite.

The slow word product below is an independent oracle: it multiplies by
concatenating the letter strings and then sorting with explicit
transposition signs, collapsing equal neighbours with the square rule.
It shares no code with the fast implementation.  coset_reps numbers the
module basis of build_generators the same way, from sorted letter
tuples instead of the builder's mask order.  norm_sign reads the squared
norm sign of a word letter by letter, for the per-cell writer of
writer_oracle and the module route of dense_oracle.
"""

import hashlib
import json
from importlib import resources
from itertools import combinations

from htype.lie_algebra import compare_tables
from htype.words import Signature, Word, letter_mask, span_products

# Mirror signature pairs whose algebras agree, and a control pair that
# differs.
ISOMORPHIC_PAIRS = (
    ((1, 0), (0, 1)),
    ((2, 0), (0, 2)),
    ((4, 0), (0, 4)),
    ((8, 0), (0, 8)),
)
NON_ISOMORPHIC_PAIR = ((2, 0), (1, 1))


def slow_word_mul(sig, u, v):
    """Concatenate, bubble sort counting swaps, collapse squares."""
    sign = u.sign * v.sign
    letters = list(u.letters + v.letters)
    changed = True
    while changed:
        changed = False
        i = 0
        while i + 1 < len(letters):
            a, b = letters[i], letters[i + 1]
            if a > b:
                letters[i], letters[i + 1] = b, a
                sign = -sign
                changed = True
            elif a == b:
                del letters[i:i + 2]
                sign *= -sig.eps(a)
                changed = True
            else:
                i += 1
    return Word(sign, tuple(letters))


def norm_sign(sig, w):
    """Product of eps over the letters, -1 to the number above r: the
    squared norm J_W v picks up.  A letter outside 1..n raises ValueError."""
    r, n = sig.r, sig.r + sig.s
    above = 0
    for x in w.letters:
        if not 1 <= x <= n:
            raise ValueError("letter %r out of range for %r" % (x, sig))
        above += x > r
    return -1 if above & 1 else 1


def mask_letters(mask):
    """The letters of a mask, increasing."""
    return tuple(x for x in range(mask.bit_length()) if mask >> x & 1)


def coset_reps(sig, system):
    """The smallest member of each coset of letter masks modulo the span
    of the system, as masks, in the order of their letter tuples: every
    tuple of letters 1..n, sorted, keeps its mask when no kept mask lies
    in its coset."""
    span = span_products(sig, system)
    letters = range(1, sig.n + 1)
    reps, covered = [], set()
    for c in sorted(c for k in range(sig.n + 1) for c in combinations(letters, k)):
        m = letter_mask(c)
        if m not in covered:
            reps.append(m)
            covered.update(m ^ p for p in span)
    return reps


def random_signature(rng, max_n=8):
    n = rng.randint(1, max_n)
    r = rng.randint(0, n)
    return Signature(r, n - r)


def random_canonical_word(rng, n, allow_empty=True):
    low = 0 if allow_empty else 1
    k = rng.randint(low, n)
    letters = tuple(sorted(rng.sample(range(1, n + 1), k)))
    return Word(rng.choice((1, -1)), letters)


def raw_data(r, s):
    """The embedded table file for (r, s) as a plain dict."""
    path = resources.files("htype") / "golden_data" / ("n%d%d.json" % (r, s))
    return json.loads(path.read_text())


def resign(data):
    """Recompute the checksum after editing a raw table dict."""
    payload = {k: v for k, v in data.items() if k != "sha256"}
    data["sha256"] = hashlib.sha256(
        json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()
    return data


def compare_pairs(fetch):
    """compare_tables on every pair above, keyed by the pair; fetch(r, s)
    supplies the tables."""
    return {(left, right): compare_tables(fetch(*left), fetch(*right))
            for left, right in ISOMORPHIC_PAIRS + (NON_ISOMORPHIC_PAIR,)}
