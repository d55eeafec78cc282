"""Signed-point maps, the one operator representation of the package.

In the bases used here every generator J_k maps each basis vector to
plus or minus another basis vector.  A signed point (p, s) stands for
the vector s e_p, so every frame vector is one signed point.  An
operator is stored as a map over the 2N signed points: a sequence of
length 2N + 1 whose index 2p + (s < 0) holds the index of the image of
s e_p.  An operator rebuilt from a table with an empty cell is partial:
where it does not act, the map holds end = 2N, the last index, which
every map fixes.  So m[x ^ 1] is m[x] ^ 1, or end along with m[x];
composition is a gather, A B = itemgetter(*B)(A), and negation gathers
by the sign swap x -> x ^ 1.  So two maps that agree at the even
points and end agree everywhere, and the checks of lie_algebra compare
only those N + 1 entries, gathered and compared in C.

A total map on at most 256 signed points has a second spelling: the
byte string of its first 2N entries, padded with zeros to a 256-byte
table.  Composition is then one bytes.translate, A B =
B_bytes.translate(A_table), and -A = BYTE_SWAP.translate(A_table), with
BYTE_SWAP the byte table x -> x ^ 1.  The strings compare all 2N points
at once, which by the rule above is the same as comparing the N + 1
entries.  256 is the limit, as a byte holds 0..255, and only a total
map takes this spelling: the string drops the end entry that a partial
map needs, and at 2N = 256 end is no byte.  lie_algebra's reader
writes this spelling itself, a bytearray of the 2N entries, for every
table with n N cells on at most 256 points, and proves each map total
by its square before any other use.  So act, which reads the
last entry as end, takes only the first spelling, as lie_algebra's
reconstruct_J gives it.  This module holds both spellings: fixed (the
swap and a gather by it), BYTE_SWAP and act.
"""

from functools import lru_cache
from operator import itemgetter

BYTE_SWAP = bytes(x ^ 1 for x in range(256))


@lru_cache(maxsize=64)
def fixed(end):
    """The sign swap over end // 2 points, and a gather by it."""
    swap = tuple(x ^ 1 for x in range(end)) + (end,)
    return swap, itemgetter(*swap)


def act(m, v):
    """Image of the signed point v, or None where m does not act."""
    p, s = v
    x = m[2 * p + (s < 0)]
    return None if x == len(m) - 1 else (x >> 1, -1 if x & 1 else 1)

