"""The signed-point core, held against the dense matrix oracle, and the
oracle's own matrix arithmetic and per-point rules, held against dense
matrices."""

import math
import random

import dense_oracle
from dense_oracle import (
    as_map,
    build_generators,
    column_space_basis,
    diagonal,
    dot_form,
    gram,
    identity,
    is_signed_permutation,
    mat_add,
    mat_apply,
    mat_mul,
    mat_neg,
    mat_scale,
    matrix,
    metric_adjoint,
    negated_op,
    transpose,
    vector,
    zeros,
)
from htype import exactlin
from htype.clifford_rep import find_involution_system
from htype.words import Signature


def rand_matrix(rng, n, m=None, lo=-4, hi=4):
    if m is None:
        m = n
    return [[rng.randint(lo, hi) for _ in range(m)] for _ in range(n)]


def rand_perm_signs(rng, n):
    perm = list(range(n))
    rng.shuffle(perm)
    return perm, [rng.choice((1, -1)) for _ in range(n)]


def rand_op(rng, n):
    """A random signed permutation of n points, as a map."""
    return as_map(rand_perm_signs(rng, n))


def rand_skew_op(rng, form):
    """A signed permutation swapping points in pairs, skew for form."""
    points = list(range(len(form)))
    rng.shuffle(points)
    perm, signs = [None] * len(form), [0] * len(form)
    for a, b in zip(points[::2], points[1::2]):
        s = rng.choice((1, -1))
        perm[a], signs[a] = b, s
        perm[b], signs[b] = a, -form[a] * form[b] * s
    return as_map((perm, signs))


def rand_partial_op(rng, n):
    """A signed map on n points with some images undefined and some
    repeated."""
    perm, signs = rand_perm_signs(rng, n)
    for p in range(n):
        roll = rng.random()
        if roll < 0.15:
            perm[p], signs[p] = None, 0
        elif roll < 0.3:
            perm[p] = rng.randrange(n)
    return as_map((perm, signs))


def test_identity_and_zeros_shapes():
    assert identity(3) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert zeros(2) == [[0, 0], [0, 0]]
    assert zeros(2, 3) == [[0, 0, 0], [0, 0, 0]]
    assert diagonal([2, -1]) == [[2, 0], [0, -1]]


def test_mat_mul_hand_case():
    a = [[1, 2], [3, 4]]
    b = [[0, 1], [1, 0]]
    assert mat_mul(a, b) == [[2, 1], [4, 3]]
    assert mat_mul(b, a) == [[3, 4], [1, 2]]


def test_mul_identity_and_associativity():
    rng = random.Random(11)
    for _ in range(50):
        n = rng.randint(1, 6)
        a, b = rand_op(rng, n), rand_op(rng, n)
        m = rand_matrix(rng, n)
        assert mat_mul(m, identity(n)) == m
        assert mat_mul(mat_mul(m, matrix(a)), matrix(b)) == \
            mat_mul(m, mat_mul(matrix(a), matrix(b)))


def test_add_neg_scale_eq():
    a = [[1, -2], [0, 5]]
    assert mat_add(a, mat_neg(a)) == zeros(2)
    assert mat_scale(3, a) == [[3, -6], [0, 15]]
    rng = random.Random(19)
    for _ in range(30):
        op = rand_op(rng, rng.randint(1, 6))
        assert matrix(negated_op(op)) == mat_neg(matrix(op))
        assert negated_op(negated_op(op)) == op


def test_transpose_and_apply():
    a = [[1, 2, 3], [4, 5, 6]]
    assert transpose(a) == [[1, 4], [2, 5], [3, 6]]
    assert mat_apply([[2, 0], [1, -1]], [3, 4]) == [6, -1]
    rng = random.Random(23)
    for _ in range(30):
        n = rng.randint(1, 6)
        op = rand_op(rng, n)
        v = (rng.randrange(n), rng.choice((1, -1)))
        assert vector(exactlin.act(op, v), n) == mat_apply(matrix(op), vector(v, n))
    partial = as_map(([None, 0], [0, -1]))
    assert exactlin.act(partial, (0, 1)) is None
    assert exactlin.act(partial, (1, -1)) == (0, 1)


def test_metric_adjoint_euclidean_is_transpose():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(1, 5)
        a = rand_matrix(rng, n)
        assert metric_adjoint(a, [1] * n) == transpose(a)


def test_metric_adjoint_involution_and_product_rule():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(1, 5)
        form = [rng.choice((1, -1)) for _ in range(n)]
        a = rand_matrix(rng, n)
        b = rand_matrix(rng, n)
        assert metric_adjoint(metric_adjoint(a, form), form) == a
        lhs = metric_adjoint(mat_mul(a, b), form)
        rhs = mat_mul(metric_adjoint(b, form), metric_adjoint(a, form))
        assert lhs == rhs


def test_adjoint_moves_across_dot_form():
    rng = random.Random(13)
    for _ in range(200):
        n = rng.randint(1, 5)
        form = [rng.choice((1, -1)) for _ in range(n)]
        a = rand_matrix(rng, n)
        x = [rng.randint(-4, 4) for _ in range(n)]
        y = [rng.randint(-4, 4) for _ in range(n)]
        lhs = dot_form(mat_apply(a, x), y, form)
        rhs = dot_form(x, mat_apply(metric_adjoint(a, form), y), form)
        assert lhs == rhs


def test_is_skew_agrees_with_the_metric_adjoint():
    rng = random.Random(29)
    for _ in range(200):
        n = 2 * rng.randint(1, 4)
        form = [rng.choice((1, -1)) for _ in range(n)]
        op = rand_skew_op(rng, form) if rng.random() < 0.5 else rand_op(rng, n)
        dense = matrix(op)
        assert dense_oracle.is_skew(op, form) == \
            (metric_adjoint(dense, form) == mat_neg(dense))


def test_dot_form_and_gram():
    form = [1, -1]
    assert dot_form([1, 1], [1, 1], form) == 0
    assert dot_form([1, 0], [1, 0], form) == 1
    assert gram([[1, 0], [0, 1]], form) == [[1, 0], [0, -1]]


def test_is_signed_permutation():
    assert dense_oracle.is_permutation(as_map(([1, 0], [1, -1])))
    assert dense_oracle.is_permutation(as_map(([0, 1, 2, 3], [1, 1, 1, 1])))
    assert not dense_oracle.is_permutation(as_map(([1, 1], [1, 1])))
    assert not dense_oracle.is_permutation(as_map(([None, 1], [0, 1])))
    assert is_signed_permutation([[0, 1], [-1, 0]])
    assert not is_signed_permutation([[1, 1], [0, 1]])
    assert not is_signed_permutation([[2, 0], [0, 1]])
    assert not is_signed_permutation([[0, 0], [0, 1]])
    rng = random.Random(31)
    for _ in range(50):
        op = rand_op(rng, rng.randint(1, 6))
        assert is_signed_permutation(matrix(op))
    # The per-point rule against the dense matrix on total and partial maps.
    rng = random.Random(53)
    seen = set()
    for _ in range(50):
        n = rng.randint(1, 6)
        op = rand_op(rng, n) if rng.random() < 0.3 else rand_partial_op(rng, n)
        want = dense_oracle.is_permutation(op)
        assert is_signed_permutation(matrix(op)) == want
        seen.add(want)
    assert seen == {True, False}


def test_signed_perm_parts_round_trip():
    rng = random.Random(3)
    for _ in range(100):
        n = rng.randint(1, 6)
        op = rand_op(rng, n)
        dense = matrix(op)
        columns = [next((i, dense[i][j]) for i in range(n) if dense[i][j])
                   for j in range(n)]
        assert columns == [exactlin.act(op, (j, 1)) for j in range(n)]


def test_relation_failures_agree_with_dense_products():
    rng = random.Random(37)
    cases = []
    for _ in range(100):
        n = 2 * rng.randint(1, 3)
        form = [rng.choice((1, -1)) for _ in range(n)]
        ops = [rand_skew_op(rng, form) for _ in range(rng.randint(1, 3))]
        if rng.random() < 0.3:
            ops[0] = (2 * n, 2 * n) + ops[0][2:]  # e_0 goes nowhere
        cases.append((ops, [rng.choice((1, -1)) for _ in ops]))
    for _ in range(100):
        n = rng.randint(1, 6)
        ops = [rand_partial_op(rng, n) for _ in range(rng.randint(1, 3))]
        cases.append((ops, [rng.choice((1, -1)) for _ in ops]))
    for key in ((2, 1), (1, 3)):
        sig = Signature(*key)
        cases.append((build_generators(sig, find_involution_system(sig)).ops,
                      [-sig.eps(i) for i in range(1, sig.n + 1)]))
    for ops, squares in cases:
        n = len(ops[0]) // 2
        dense = {}
        for i in range(len(ops)):
            for j in range(i, len(ops)):
                a, b = matrix(ops[i]), matrix(ops[j])
                anti = mat_add(mat_mul(a, b), mat_mul(b, a))
                want = mat_scale(2 * squares[i], identity(n)) if i == j else zeros(n)
                bad = [p for p in range(n)
                       if [row[p] for row in anti] != [row[p] for row in want]]
                if bad:
                    dense[(i, j)] = bad
        walked = {(i, j): points
                  for i, j, points in dense_oracle.relation_failures(ops, squares)}
        assert walked == dense
    assert dense == {}


def test_column_space_basis_simple():
    assert column_space_basis([[2, 4], [4, 8]]) == [[1, 2]]
    assert column_space_basis(zeros(3)) == []
    basis = column_space_basis(identity(3))
    assert basis == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_column_space_basis_is_primitive_and_spans():
    rng = random.Random(17)
    for _ in range(100):
        n = rng.randint(1, 5)
        m = rng.randint(1, 5)
        a = rand_matrix(rng, n, m)
        basis = column_space_basis(a)
        for vec in basis:
            g = 0
            for x in vec:
                g = math.gcd(g, x)
            assert g == 1
            lead = next(x for x in vec if x)
            assert lead > 0
        stacked = transpose(basis) if basis else zeros(n, 0)
        for j in range(m):
            col = [a[i][j] for i in range(n)]
            joined = [row[:] for row in stacked]
            for i in range(n):
                joined[i].append(col[i])
            assert len(column_space_basis(joined)) == len(basis)
