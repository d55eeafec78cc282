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
by the sign swap x -> x ^ 1.  Every axiom check then compares whole tuples, built and
compared in C, and reads the points that break a rule off the same
tuples.
"""

from functools import lru_cache
from operator import itemgetter


@lru_cache(maxsize=64)
def _fixed(end):
    """The identity and the sign swap over end // 2 points, and a
    gather by the swap."""
    same = tuple(range(end + 1))
    swap = tuple(x ^ 1 for x in range(end)) + (end,)
    return same, swap, itemgetter(*swap)


def act(m, v):
    """Image of the signed point v, or None where m does not act."""
    p, s = v
    x = m[2 * p + (s < 0)]
    return None if x == len(m) - 1 else (x >> 1, -1 if x & 1 else 1)


def is_permutation(m):
    """True when m acts on every point and no two points share an image.

    The entries of a map lie in 0..end and its last is end, so this
    says that they are distinct: end then marks no undefined image, and
    the rest are the 2N signed points, each hit once.
    """
    return len(set(m)) == len(m)


def skew_flags(maps, form):
    """For each map, True when it is a signed permutation skew for
    diag(form): <A x, y> = -<x, A y>, or A^T F = -F A for F = diag(form).

    A total A is skew exactly when (AF)^2 = -Id.  As A^T = A^-1 for a
    signed permutation, skewness says A^-1 F = -F A, so A F A = -F and
    (AF)^2 = -F^2 = -Id; conversely (AF)^2 = -Id gives A F A = -F, and
    A^-1 on the left turns it back.  So each map costs two gathers,
    compared with the sign swap; a partial or non-injective map fails,
    as its (AF)^2 is not invertible.  F, which sends s e_p to
    s form[p] e_p, is one gather built once for all maps.
    """
    if not maps or len(maps[0]) == 1:
        return [True] * len(maps)  # no point; one index gathers no tuple
    end = len(maps[0]) - 1
    swap = _fixed(end)[1]
    by_form = itemgetter(*(x ^ (form[x >> 1] < 0) for x in range(end)), end)
    flags = []
    for m in maps:
        af = by_form(m)
        flags.append(itemgetter(*af)(af) == swap)
    return flags


def relation_failures(maps, squares):
    """Where partial signed-point maps break the Clifford relations.

    The relations are A_i A_j + A_j A_i = 0 for i != j and
    A_i^2 = squares[i] Id.  Yields (i, j, points) for each pair i <= j
    that fails, with the points whose images break it, in order.
    A_i A_j gathers A_i by the map of A_j, and -A_j A_i gathers the
    negated A_j by the map of A_i, so a pair holds when two tuples are
    equal; each operator's gather is built once and serves every pair.
    Point p breaks it when the images of e_p, at index 2p, differ; two
    undefined images agree, as both are end.
    """
    if not maps or len(maps[0]) == 1:
        return  # no point to break, and one index gathers no tuple
    end = len(maps[0]) - 1
    same, swap, negate = _fixed(end)
    gathers = [itemgetter(*m) for m in maps]
    negated = [negate(m) for m in maps]
    for i, a in enumerate(maps):
        for j in range(i, len(maps)):
            left = gathers[j](a)
            if i == j:
                right = same if squares[i] == 1 else swap
            else:
                right = gathers[i](negated[j])
            if left != right:
                yield i, j, [x >> 1 for x in range(0, end, 2)
                             if left[x] != right[x]]
