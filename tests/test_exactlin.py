"""The signed-point core, held against the dense matrix oracle and the
oracle's per-point rules, and the oracle's own matrix arithmetic."""

import math
import random

import dense_oracle
from dense_oracle import (
    as_map,
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
from htype.clifford_rep import build_generators, find_involution_system
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
        assert exactlin.skew_flags([op], form) == \
            [metric_adjoint(dense, form) == mat_neg(dense)]


def test_skew_flags_match_the_per_point_rule():
    """The two gathers of skew_flags against the oracle's per-point rule
    on 200 seeded lists of skew, total and partial maps, with the form's
    gather shared across each list."""
    rng = random.Random(43)
    seen = set()
    for _ in range(200):
        n = rng.randint(1, 8)
        form = [rng.choice((1, -1)) for _ in range(n)]
        ops = []
        for _ in range(rng.randint(1, 4)):
            kind = rng.choice(("skew", "total", "partial"))
            if kind == "skew" and n % 2 == 0:
                ops.append(rand_skew_op(rng, form))
            elif kind == "partial":
                ops.append(rand_partial_op(rng, n))
            else:
                ops.append(rand_op(rng, n))
        want = [dense_oracle.is_skew(m, form) for m in ops]
        assert exactlin.skew_flags(ops, form) == want
        seen.update(want)
    assert seen == {True, False}
    assert exactlin.skew_flags([], [1]) == []


def test_dot_form_and_gram():
    form = [1, -1]
    assert dot_form([1, 1], [1, 1], form) == 0
    assert dot_form([1, 0], [1, 0], form) == 1
    assert gram([[1, 0], [0, 1]], form) == [[1, 0], [0, -1]]


def test_is_signed_permutation():
    assert exactlin.is_permutation(as_map(([1, 0], [1, -1])))
    assert exactlin.is_permutation(as_map(([0, 1, 2, 3], [1, 1, 1, 1])))
    assert not exactlin.is_permutation(as_map(([1, 1], [1, 1])))
    assert not exactlin.is_permutation(as_map(([None, 1], [0, 1])))
    assert is_signed_permutation([[0, 1], [-1, 0]])
    assert not is_signed_permutation([[1, 1], [0, 1]])
    assert not is_signed_permutation([[2, 0], [0, 1]])
    assert not is_signed_permutation([[0, 0], [0, 1]])
    rng = random.Random(31)
    for _ in range(50):
        op = rand_op(rng, rng.randint(1, 6))
        assert is_signed_permutation(matrix(op))


def test_is_permutation_matches_the_per_point_rule():
    """set(m[:-1]) == set(range(2N)) against the oracle's per-point rule
    and the dense matrix on 50 seeded total and partial maps."""
    rng = random.Random(53)
    seen = set()
    for _ in range(50):
        n = rng.randint(1, 6)
        op = rand_op(rng, n) if rng.random() < 0.3 else rand_partial_op(rng, n)
        want = dense_oracle.is_permutation(op)
        assert exactlin.is_permutation(op) == want
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
        fast = {(i, j): points
                for i, j, points in exactlin.relation_failures(ops, squares)}
        assert fast == dense
    assert dense == {}


def test_relation_failures_match_the_per_point_walk():
    """Whole-list checks with their fallback against the oracle's walk,
    on built generators and on copies that break a relation: one entry
    damaged, the opposite squares, a generator repeated."""
    rng = random.Random(41)
    cases = []
    for key in ((2, 1), (1, 3), (3, 2), (0, 7), (4, 4), (5, 3)):
        sig = Signature(*key)
        ops = list(build_generators(sig, find_involution_system(sig)).ops)
        squares = [-sig.eps(i) for i in range(1, sig.n + 1)]
        cases.append((ops, squares, True))
        cases.append((ops, [-x for x in squares], False))
        cases.append((ops + ops[:1], squares + squares[:1], False))
        for damage in ("sign", "swap", "copy", "none") * 4:
            copy = [list(m) for m in ops]
            m = rng.choice(copy)
            p, q = rng.sample(range(len(m) // 2), 2)
            if damage == "sign":
                m[2 * p] ^= 1
                m[2 * p + 1] ^= 1
            elif damage == "swap":
                m[2 * p:2 * p + 2], m[2 * q:2 * q + 2] = \
                    m[2 * q:2 * q + 2], m[2 * p:2 * p + 2]
            elif damage == "copy":
                m[2 * p:2 * p + 2] = m[2 * q:2 * q + 2]
            else:
                m[2 * p] = m[2 * p + 1] = len(m) - 1
            cases.append(([tuple(m) for m in copy], squares, False))
    for ops, squares, intact in cases:
        want = list(dense_oracle.relation_failures(ops, squares))
        assert list(exactlin.relation_failures(ops, squares)) == want
        assert (want == []) == intact


def test_relation_failures_match_the_walk_on_random_maps():
    """The gather against the oracle's per-point walk on 2,400 seeded
    cases: random maps of dims 1-16 with undefined and repeated images,
    built generators of dim up to 16 with a few entries damaged, squares
    +-1 flipped at random, a repeated operator and the empty list."""
    rng = random.Random(47)
    built = []
    for sig in (Signature(r, n - r) for n in range(1, 6) for r in range(n + 1)):
        gens = build_generators(sig, find_involution_system(sig))
        if gens.dim <= 16:
            built.append((gens.ops, [-sig.eps(i) for i in range(1, sig.n + 1)]))
    seen = set()
    for case in range(2400):
        if case % 2:
            ops, squares = rng.choice(built)
            ops = [list(m) for m in ops]
            squares = list(squares)
            for _ in range(rng.randint(0, 2)):
                m = rng.choice(ops)
                end = len(m) - 1
                p = rng.randrange(end // 2)
                damage = rng.choice(("sign", "copy", "none"))
                if damage == "sign" and m[2 * p] != end:
                    m[2 * p] ^= 1
                    m[2 * p + 1] ^= 1
                elif damage == "copy":
                    x = 2 * rng.randrange(end // 2) + (rng.choice((1, -1)) < 0)
                    m[2 * p:2 * p + 2] = x, x ^ 1
                elif damage == "none":
                    m[2 * p] = m[2 * p + 1] = end
            ops = [tuple(m) for m in ops]
        else:
            n = case // 2 % 16 + 1
            ops = [rand_partial_op(rng, n) for _ in range(rng.randint(0, 4))]
            squares = [rng.choice((1, -1)) for _ in ops]
            seen.add(("dim", n))
        if ops and rng.random() < 0.2:
            k = rng.randrange(len(ops))
            ops.append(ops[k])
            squares.append(squares[k])
        if ops and rng.random() < 0.2:
            k = rng.randrange(len(ops))
            squares[k] = -squares[k]
        want = list(dense_oracle.relation_failures(ops, squares))
        assert list(exactlin.relation_failures(ops, squares)) == want
        seen.add("fails" if want else "holds" if ops else "empty")
        if any(len(m) - 1 in m[:-1] for m in ops):
            seen.add("undefined")
    assert {("dim", n) for n in range(1, 17)} <= seen
    assert {"fails", "holds", "empty", "undefined"} <= seen
    # Operators on no points break nothing.
    assert list(exactlin.relation_failures([(0,)] * 2, [1, -1])) == []


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
