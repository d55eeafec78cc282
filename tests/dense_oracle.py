"""Dense integer matrix oracle for the signed-point core.

An independent implementation of the table pipeline on dense matrices:
generators become integer matrices, words are O(N^3) matrix products,
the joint eigenspace of the involution system comes from fraction-free
column elimination, initial vectors are searched among small integer
combinations of its basis, and the table is read off with the metric
form.  It shares no arithmetic with htype.exactlin, so the tests hold
the fast path against it.  The per-point rules at the end read the
signed-point maps one point at a time, as referees for exactlin's
whole-tuple checks.

Matrices are plain lists of lists of Python ints, indexed [row][col].
Everything stays in integer arithmetic; no floats ever appear.
"""

import math
from dataclasses import replace
from itertools import combinations, product

from htype.lie_algebra import StructureTable
from htype.words import norm_sign


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def zeros(n, m=None):
    if m is None:
        m = n
    return [[0] * m for _ in range(n)]


def diagonal(entries):
    out = zeros(len(entries))
    for i, e in enumerate(entries):
        out[i][i] = e
    return out


def mat_mul(a, b):
    n = len(a)
    k = len(b)
    m = len(b[0]) if k else 0
    out = [[0] * m for _ in range(n)]
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for t in range(k):
            f = ai[t]
            if f:
                bt = b[t]
                for j in range(m):
                    oi[j] += f * bt[j]
    return out


def negated_op(m):
    """-m for a signed-point map m: each defined image changes sign."""
    end = len(m) - 1
    return tuple(x if x == end else x ^ 1 for x in m)


def negated(gens):
    """The same module with every generator replaced by its negative."""
    return replace(gens, ops=tuple(negated_op(op) for op in gens.ops))


def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_neg(a):
    return [[-x for x in row] for row in a]


def mat_scale(c, a):
    return [[c * x for x in row] for row in a]


def transpose(a):
    return [list(col) for col in zip(*a)]


def mat_apply(a, v):
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def metric_adjoint(m, form):
    """Adjoint of m for the diagonal form diag(form) with entries +-1.

    That is form^-1 m^T form, entrywise form[i] * m[j][i] * form[j].
    """
    n = len(m)
    return [[form[i] * m[j][i] * form[j] for j in range(n)] for i in range(n)]


def dot_form(x, y, form):
    return sum(a * f * b for a, f, b in zip(x, form, y))


def gram(vectors, form):
    return [[dot_form(x, y, form) for y in vectors] for x in vectors]


def is_signed_permutation(m):
    """True when every row and column has exactly one entry, equal to +-1."""
    n = len(m)
    seen_rows = [0] * n
    for j in range(n):
        hits = 0
        for i in range(n):
            x = m[i][j]
            if x == 0:
                continue
            if x not in (1, -1):
                return False
            hits += 1
            seen_rows[i] += 1
        if hits != 1:
            return False
    return all(c == 1 for c in seen_rows)


def column_space_basis(mat):
    """Primitive integer vectors spanning the column space of mat.

    Columns are processed left to right with fraction-free elimination,
    so the result is deterministic: each basis vector is divided by the
    gcd of its entries and normalised to a positive leading entry.
    """
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    basis = []
    for j in range(cols):
        vec = [mat[i][j] for i in range(rows)]
        for p, b in basis:
            f = vec[p]
            if f:
                vec = [x * b[p] - f * y for x, y in zip(vec, b)]
        if not any(vec):
            continue
        g = 0
        for x in vec:
            g = math.gcd(g, x)
        vec = [x // g for x in vec]
        p = next(i for i, x in enumerate(vec) if x)
        if vec[p] < 0:
            vec = [-x for x in vec]
        basis.append((p, vec))
    return [b for _, b in basis]


# --- the package's objects as dense matrices and vectors -----------------

def matrix(m):
    """Dense matrix of a signed-point map; an undefined image leaves a
    zero column."""
    n = len(m) // 2
    out = zeros(n)
    for j in range(n):
        x = m[2 * j]
        if x != 2 * n:
            out[x >> 1][j] = -1 if x & 1 else 1
    return out


def as_map(op):
    """The signed-point map of the lists (perm, signs), e_p going to
    signs[p] e_perm[p] or, where perm holds None, nowhere: the shape
    GeneratorSet.apply_word returns."""
    perm, signs = op
    end = 2 * len(perm)
    images = []
    for q, s in zip(perm, signs):
        x = end if q is None else 2 * q + (s < 0)
        images += (x, x if x == end else x ^ 1)
    return tuple(images) + (end,)


def vector(v, n):
    """Dense vector of the signed point v in dimension n."""
    out = [0] * n
    out[v[0]] = v[1]
    return out


def signed_point(vec):
    """The signed point of a signed unit vector, or None for any other."""
    hits = [(i, x) for i, x in enumerate(vec) if x]
    if len(hits) == 1 and hits[0][1] in (1, -1):
        return hits[0]
    return None


def word_matrix(gens, w):
    """Matrix of the word w, as a product of dense generator matrices."""
    m = identity(gens.dim)
    for i in w.letters:
        m = mat_mul(m, matrix(gens.ops[i - 1]))
    return mat_neg(m) if w.sign == -1 else m


# --- initial vector search -----------------------------------------------

def fixed_subspace(gens, involutions):
    """Integer basis of the joint eigenspace of the involution words.

    For each involution P with eigensign sigma the operator Id + sigma M(P)
    projects (up to a factor 2) onto the right eigenspace, and the
    operators commute, so the column space of their product is the joint
    eigenspace.
    """
    m = identity(gens.dim)
    for p in involutions:
        step = mat_add(identity(gens.dim),
                       mat_scale(p.eigensign, word_matrix(gens, p.word)))
        m = mat_mul(m, step)
    return column_space_basis(m)


def _coeff_patterns(d):
    # Growing support keeps the short vectors first; within one support
    # the sign tuples follow itertools order with +1 before -1.
    for size in range(1, d + 1):
        for pos in combinations(range(d), size):
            for signs in product((1, -1), repeat=size):
                yield pos, signs


def _search_data(gens, config):
    return ([word_matrix(gens, w) for w in config.basis_words],
            [word_matrix(gens, w) for w in config.zero_pairings],
            [norm_sign(gens.sig, w) for w in config.basis_words])


def _is_valid(data, form, v):
    frames, pairings, norms = data
    frame = []
    for m, want in zip(frames, norms):
        u = mat_apply(m, v)
        if dot_form(u, u, form) != want:
            return False
        frame.append(u)
    for a in range(len(frame)):
        for b in range(a + 1, len(frame)):
            if dot_form(frame[a], frame[b], form) != 0:
                return False
    return all(dot_form(mat_apply(m, v), v, form) == 0 for m in pairings)


def is_valid_initial_vector(gens, config, v):
    """True when v generates an orthogonal frame with the right norms."""
    return _is_valid(_search_data(gens, config), gens.form_v, v)


def initial_vector_candidates(gens, config):
    """Valid initial vectors in a fixed order, from the joint eigenspace.

    Candidates are combinations of the eigenspace basis with
    coefficients in {0, 1, -1}, by growing support.
    """
    basis = fixed_subspace(gens, config.involutions)
    data = _search_data(gens, config)
    for pos, signs in _coeff_patterns(len(basis)):
        v = [0] * gens.dim
        for p, s in zip(pos, signs):
            for i, x in enumerate(basis[p]):
                v[i] += s * x
        if _is_valid(data, gens.form_v, v):
            yield v


# --- the table -----------------------------------------------------------

def compute_table(gens, vectors, label=""):
    """Expand J_k v_a over a frame of dense vectors and collect the table.

    The frame must consist of exact unit vectors for the module form and
    every J_k v_a must hit exactly one frame vector, otherwise a
    ValueError is raised.
    """
    sig = gens.sig
    form = gens.form_v
    mats = [matrix(op) for op in gens.ops]
    n_vec = len(vectors)
    if n_vec != gens.dim:
        raise ValueError("expected %d basis vectors, got %d" % (gens.dim, n_vec))
    etas = []
    for v in vectors:
        e = dot_form(v, v, form)
        if e not in (1, -1):
            raise ValueError("basis vector with square norm %d" % e)
        etas.append(e)
    cells = {}
    for k in range(1, sig.n + 1):
        for a in range(n_vec):
            u = mat_apply(mats[k - 1], vectors[a])
            hits = [(b, dot_form(u, vectors[b], form)) for b in range(n_vec)]
            hits = [(b, p) for b, p in hits if p]
            if len(hits) != 1 or hits[0][1] not in (1, -1):
                raise ValueError(
                    "J_%d v_%d does not map to a single frame vector" % (k, a + 1))
            b, p = hits[0]
            if u != [p * etas[b] * x for x in vectors[b]]:
                raise ValueError("frame does not carry the module action")
            key = (a + 1, b + 1)
            if key in cells:
                raise ValueError("two central directions on pair (%d, %d)" % key)
            cells[key] = (k, sig.eps(k) * p)
    for (a, b), (k, s) in cells.items():
        if cells.get((b, a)) != (k, -s):
            raise ValueError("computed table is not antisymmetric at (%d, %d)" % (a, b))
    return StructureTable(sig, n_vec, cells, frozenset(), label)


def dense_pipeline(gens, config):
    """(initial vector, frame, table) from the first searched candidate."""
    v = next(initial_vector_candidates(gens, config))
    vectors = [mat_apply(word_matrix(gens, w), v) for w in config.basis_words]
    return v, vectors, compute_table(gens, vectors)


def clifford_failures(mats, sig):
    """Pairs (i, j), i <= j, whose dense Clifford relation fails."""
    n_vec = len(mats[0]) if mats else 0
    out = []
    for i in range(len(mats)):
        for j in range(i, len(mats)):
            anti = mat_add(mat_mul(mats[i], mats[j]), mat_mul(mats[j], mats[i]))
            want = zeros(n_vec)
            if i == j:
                want = mat_scale(-2 * sig.eps(i + 1), identity(n_vec))
            if anti != want:
                out.append((i, j))
    return out


# --- per-point rules for the signed-point maps ---------------------------

def _act(m, v):
    """Image of the signed point v, read off the image of e_p alone."""
    p, s = v
    x = m[2 * p]
    if x == len(m) - 1:
        return None
    return x >> 1, -s if x & 1 else s


def is_permutation(m):
    """exactlin.is_permutation point by point: every e_p has an image,
    and no two land on the same point."""
    images = [_act(m, (p, 1)) for p in range(len(m) // 2)]
    return None not in images and len({q for q, _s in images}) == len(images)


def is_skew(m, form):
    """exactlin.skew_flags for one map, point by point: m swaps the
    points in pairs, and the two signs of a pair differ by the form's
    signs of its points."""
    for j in range(len(m) // 2):
        v = _act(m, (j, 1))
        w = None if v is None else _act(m, (v[0], 1))
        if w is None or w[0] != j or w[1] != -form[j] * form[v[0]] * v[1]:
            return False
    return True


def _twice(a, b, p):
    v = _act(b, (p, 1))
    return None if v is None else _act(a, v)


def _cancel(x, y):
    """True when the signed points (or Nones) x and y sum to zero."""
    if x is None or y is None:
        return x is y
    return x == (y[0], -y[1])


def relation_failures(ops, squares):
    """exactlin.relation_failures as a walk over every point of every
    pair: four single-point images per point, no whole-tuple shortcut."""
    for i, a in enumerate(ops):
        points = range(len(a) // 2)
        for j in range(i, len(ops)):
            b = ops[j]
            if i == j:
                bad = [p for p in points if _twice(a, a, p) != (p, squares[i])]
            else:
                bad = [p for p in points
                       if not _cancel(_twice(a, b, p), _twice(b, a, p))]
            if bad:
                yield i, j, bad
