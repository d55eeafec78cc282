"""Signed-point maps, the one operator representation of the package.

In the bases used here every generator J_k maps each basis vector to
plus or minus another basis vector.  A signed point (p, s) stands for
the vector s e_p, so every frame vector is one signed point.  An
operator is stored as a map over the 2N signed points: a tuple of
length 2N + 1 whose index 2p + (s < 0) holds the index of the image of
s e_p.  An operator rebuilt from a table with an empty cell is partial:
where it does not act, the map holds end = 2N, the last index, which
every map fixes.  So m[x ^ 1] is m[x] ^ 1, or end along with m[x];
composition is a gather, A B = itemgetter(*B)(A), and negation gathers
by the sign swap x -> x ^ 1.  So two maps that agree at the even
points and end agree everywhere, and the checks of lie_algebra compare
only those N + 1 entries, gathered and compared in C.  This module
holds that format, fixed (the swap and a gather by it) and act.
"""

from functools import lru_cache
from operator import itemgetter


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

