"""Signed permutations, the one operator representation of the package.

In the bases used here every generator J_k maps each basis vector to
plus or minus another basis vector.  Such an operator is stored as a
pair of lists (perm, signs): basis vector e_j goes to signs[j] times
e_perm[j].  A partial operator, as rebuilt from a table with an empty
cell, holds None in perm where it does not act.  A signed point (p, s)
stands for the vector s e_p, so every frame vector is one signed point.

relation_failures checks each Clifford relation as one gather over the
2N signed points: s e_p sits at index 2p + (s < 0), and an undefined
image goes to the extra index end = 2N, which every map fixes.  Then
A_i A_j = -A_j A_i and A_i^2 = squares[i] Id are equalities of tuples
gathered in C, and the points that break a relation are read off the
same tuples.
"""

from operator import itemgetter


def act(op, v):
    """Image of the signed point v, or None where op does not act."""
    p, s = v
    q = op[0][p]
    return None if q is None else (q, s * op[1][p])


def is_permutation(op):
    """True when op acts on every point and no two points share an image."""
    perm = op[0]
    return set(perm) == set(range(len(perm)))


def is_skew(op, form):
    """True when <op x, y> = -<x, op y> for the diagonal form diag(form).

    For a signed permutation this says op swaps points in pairs, and
    the two signs of a pair differ by the form's signs of its points.
    """
    perm, signs = op
    return all(perm[perm[j]] == j
               and signs[perm[j]] == -form[j] * form[perm[j]] * signs[j]
               for j in range(len(perm)))


def relation_failures(ops, squares):
    """Where partial signed permutations break the Clifford relations.

    The relations are A_i A_j + A_j A_i = 0 for i != j and
    A_i^2 = squares[i] Id.  Yields (i, j, points) for each pair i <= j
    that fails, with the points whose images break it, in order.  Each
    operator becomes a tuple over the signed points, s e_p at index
    2p + (s < 0) and an undefined image at end = 2N, which it fixes.
    A_i A_j is the gather itemgetter(*A_j)(A_i), and -A gathers A by the
    sign swap x -> x ^ 1, so a pair holds when two tuples are equal.
    Point p breaks it when the images of e_p, at index 2p, differ; two
    undefined images agree, as both are end.
    """
    if not ops or not ops[0][0]:
        return  # no point to break, and one index gathers no tuple
    end = 2 * len(ops[0][0])
    same = tuple(range(end + 1))
    swap = tuple(x ^ 1 for x in range(end)) + (end,)
    maps = []
    for op in ops:
        images = []
        for q, s in zip(*op):
            x = end if q is None else 2 * q + (s < 0)
            images += (x, swap[x])
        maps.append(tuple(images) + (end,))
    negated = [itemgetter(*swap)(m) for m in maps]
    for i, a in enumerate(maps):
        for j in range(i, len(maps)):
            left = itemgetter(*maps[j])(a)
            if i == j:
                right = same if squares[i] == 1 else swap
            else:
                right = itemgetter(*a)(negated[j])
            if left != right:
                yield i, j, [x >> 1 for x in range(0, end, 2)
                             if left[x] != right[x]]
