"""Signed permutations, the one operator representation of the package.

In the bases used here every generator J_k maps each basis vector to
plus or minus another basis vector.  Such an operator is stored as a
pair of lists (perm, signs): basis vector e_j goes to signs[j] times
e_perm[j].  A partial operator, as rebuilt from a table with an empty
cell, holds None in perm where it does not act.  A signed point (p, s)
stands for the vector s e_p, so every frame vector is one signed point.

relation_failures checks each Clifford relation on whole lists: for two
total operators, A_i A_j = -A_j A_i and A_i^2 = squares[i] Id are
equalities of composed (perm, signs) lists.  Only a pair that fails
there, or holds a partial operator, falls back to a walk over its
points, which names the points that break the relation.
"""


def identity(n):
    return list(range(n)), [1] * n


def compose(a, b):
    """The operator a b, which applies b first; both must act everywhere."""
    perm_a, signs_a = a
    perm_b, signs_b = b
    return ([perm_a[j] for j in perm_b],
            [signs_a[j] * s for j, s in zip(perm_b, signs_b)])


def negate(op):
    perm, signs = op
    return list(perm), [-s for s in signs]


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


def _twice(a, b, p):
    v = act(b, (p, 1))
    return None if v is None else act(a, v)


def _cancel(x, y):
    """True when the signed points (or Nones) x and y sum to zero."""
    if x is None or y is None:
        return x is y
    return x == (y[0], -y[1])


def relation_failures(ops, squares):
    """Where partial signed permutations break the Clifford relations.

    The relations are A_i A_j + A_j A_i = 0 for i != j and
    A_i^2 = squares[i] Id.  Yields (i, j, points) for each pair i <= j
    that fails, with the points whose images break it, in order.
    """
    total = [None not in op[0] for op in ops]
    for i, a in enumerate(ops):
        points = range(len(a[0]))
        for j in range(i, len(ops)):
            b = ops[j]
            if i == j:
                square = (list(points), [squares[i]] * len(points))
                if total[i] and compose(a, a) == square:
                    continue
                bad = [p for p in points if _twice(a, a, p) != (p, squares[i])]
            else:
                if total[i] and total[j] and compose(a, b) == negate(compose(b, a)):
                    continue
                bad = [p for p in points
                       if not _cancel(_twice(a, b, p), _twice(b, a, p))]
            if bad:
                yield i, j, bad
