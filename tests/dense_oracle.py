"""Dense integer matrix oracle for the signed-point core, and the
module route to the tables.

An independent implementation of the table pipeline on dense matrices:
generators become integer matrices, words are O(N^3) matrix products,
the joint eigenspace of the involution system comes from fraction-free
column elimination, initial vectors are searched among small integer
combinations of its basis, and the table is read off with the metric
form.  It shares no arithmetic with htype.exactlin, so the tests hold
the fast path against it.  The per-point rules at the end read the
signed-point maps one point at a time, and verify_generators checks the
module axioms with them: the referee of the Clifford check of
lie_algebra.verify_htype, which reads the same axioms off a table's
raw maps in whole tuples.

The module route is the referee of lie_algebra's tables, which are
written straight from the sign rule: build_generators builds the coset
module as signed-point maps and checks them with verify_generators,
build_basis acts the basis words on e_1 with its checks, and
compute_table reads the cells back off the maps.  reconstruct_J
rebuilds a table's generators cell by cell, the referee of
lie_algebra.reconstruct_J, which gathers them from the raw maps of the
cells.

Matrices are plain lists of lists of Python ints, indexed [row][col].
Everything stays in integer arithmetic; no floats ever appear.
"""

import math
from itertools import combinations, product

from htype.clifford_rep import (ConstructionError, GeneratorSet,
                                minimal_admissible_dimension)
from htype.lie_algebra import StructureTable, _eps_by_k
from conftest import norm_sign
from htype.words import mul_sign, sign_form, span_products


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
    return gens._replace(ops=tuple(negated_op(op) for op in gens.ops))


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
            [norm_sign(gens.sig, w) for w in config.basis_words])


def _is_valid(data, form, v):
    frames, norms = data
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
    return True


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

def dense_table(gens, vectors, label=""):
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
    return v, vectors, dense_table(gens, vectors)


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


# --- the module route ------------------------------------------------------

def build_generators(sig, system):
    """Minimal admissible Clifford module for sig, as signed-point maps.

    The result is checked by verify_generators before being returned.
    """
    span = span_products(sig, system)

    # Masks in tuple order of their letters (the empty set, then those
    # with least letter x, then the rest), so the first member met of each
    # coset is its smallest representative R_a; coset[R_a xor P] = (a, P).
    ordered = [0]
    for x in range(sig.n, 0, -1):
        ordered = [0] + [1 << x | m for m in ordered] + ordered[1:]
    reps, coset = [], {}
    for rep in ordered:
        if rep not in coset:
            for p in span:
                coset[rep ^ p] = (len(reps), p)
            reps.append(rep)

    dim = len(reps)
    expected = minimal_admissible_dimension(sig.r, sig.s)
    if dim != expected:
        raise ConstructionError(
            "coset count %d does not match minimal dimension %d" % (dim, expected))

    # J_i e_a = J_i J_(R_a) v = mul_sign(i, R_a) J_L v for L = R_a xor i,
    # and with coset[L] = (b, P), J_L v = mul_sign(R_b, P) span[P] e_b.
    # mul_sign(A, B) is -1 to the power |f(A) & B| for f = sign_form,
    # linear over GF(2).  As R_b = L xor P and f(L) = f(R_a) xor f(i),
    # the sign is -1 to the power |f(i) & R_a| + |(f(R_a) xor f(i)) & P|,
    # times mul_sign(P, P) span[P], which is -1 where neg[P].  The image
    # of e_a sits at index 2b + (sign < 0), that of -e_a at its swap.
    neg = {p: mul_sign(sig, p, p) * c < 0 for p, c in span.items()}
    f_reps = [sign_form(sig, rep) for rep in reps]
    ops = []
    for i in range(1, sig.n + 1):
        bit = 1 << i
        f_i = sign_form(sig, bit)
        images = []
        for rep, f_rep in zip(reps, f_reps):
            b, p = coset[rep ^ bit]
            odd = ((f_i & rep) ^ ((f_rep ^ f_i) & p)).bit_count() & 1
            x = 2 * b + (odd ^ neg[p])
            images += (x, x ^ 1)
        ops.append(tuple(images) + (2 * dim,))

    form_v = tuple((-1) ** (rep >> sig.r + 1).bit_count() for rep in reps)
    problems = verify_generators(sig, ops, form_v)
    if problems:
        raise ConstructionError("; ".join(problems))
    return GeneratorSet(sig, dim, tuple(ops), form_v)


def build_basis(gens, config, zero_pairings=()):
    """The frame M(W_a) e_1 as signed points, in word order.

    Each word acts on the signed point e_1 = (0, 1) letter by letter,
    and the frame is checked on the way: ConstructionError is raised
    when the involution system does not fix e_1 with its eigensigns,
    or when the frame is not orthogonal with the expected norms or
    breaks a zero pairing <W e_1, e_1> = 0, one for each word W of
    zero_pairings.  For signed basis vectors, orthogonality means
    distinct points.
    """
    v = (0, 1)
    for p in config.involutions:
        if gens.act_word(p.word, v) != (0, p.eigensign):
            raise ConstructionError(
                "the involution system does not fix e_1; the twin module "
                "with negated generators may carry this basis instead")
    frame = [gens.act_word(w, v) for w in config.basis_words]
    norms_ok = all(gens.form_v[point] == norm_sign(gens.sig, w)
                   for (point, _s), w in zip(frame, config.basis_words))
    points = {point for point, _s in frame}
    pairs_ok = all(gens.act_word(w, v)[0] != 0 for w in zero_pairings)
    if not (norms_ok and len(points) == len(frame) and pairs_ok):
        raise ConstructionError("e_1 is not a valid initial vector")
    return frame


def compute_table(gens, frame, label=""):
    """Read the bracket table off where each J_k sends each frame point.

    The frame is a list of signed points, one per module basis vector;
    one that does not hit each module point exactly once raises
    ValueError.  gens needs no check: build_generators proves the module
    axioms.  So each J_k is a skew signed permutation, and J_k v_a is
    one frame vector.  As <x, J_k x> = <x, J_l J_k x> = 0 for
    anticommuting J_k, J_l, no J_k v_a is +-v_a or +-J_l v_a, so no cell
    is diagonal or doubled; as <J_k v_b, v_a> = -<v_b, J_k v_a>, the
    table is antisymmetric.
    """
    sig = gens.sig
    if sorted(point for point, _s in frame) != list(range(gens.dim)):
        raise ValueError("the frame does not hit each module point once")
    where = {point: b for b, (point, _s) in enumerate(frame)}
    cells = {}
    for k in range(1, sig.n + 1):
        m = gens.ops[k - 1]
        eps = sig.eps(k)
        for a, (p, s) in enumerate(frame):
            x = m[2 * p + (s < 0)]
            point = x >> 1
            b = where[point]
            # J_k v_a = u e_point, u = -1 for odd x; for v_b = t e_point,
            # <J_k v_a, v_b> is u t form[point].
            pairing = frame[b][1] * gens.form_v[point]
            cells[(a + 1, b + 1)] = (k, -eps * pairing if x & 1 else eps * pairing)
    return StructureTable(sig, gens.dim, cells, frozenset(), label)


# --- per-point rules for the signed-point maps ---------------------------

def _act(m, v):
    """Image of the signed point v, read off the image of e_p alone."""
    p, s = v
    x = m[2 * p]
    if x == len(m) - 1:
        return None
    return x >> 1, -s if x & 1 else s


def is_permutation(m):
    """True when every e_p has an image and no two land on the same
    point."""
    images = [_act(m, (p, 1)) for p in range(len(m) // 2)]
    return None not in images and len({q for q, _s in images}) == len(images)


def is_skew(m, form):
    """True when m is skew for diag(form): m swaps the points in pairs,
    and the two signs of a pair differ by the form's signs of its
    points."""
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
    """Where the maps ops break the Clifford relations A_i A_j + A_j A_i
    = 0 for i != j and A_i^2 = squares[i] Id: (i, j, points) for each
    pair i <= j that fails, with the points whose images break it, in
    order.  A walk over every point of every pair, four single-point
    images per point; two undefined images agree."""
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


def verify_generators(sig, ops, form):
    """Errata of the module axioms, in order: diag(form) is definite when
    s = 0 and neutral otherwise, each J_k in ops is a signed permutation
    skew for it, and the Clifford relations hold.  As in a table, J_k is
    named z_k and point a - 1 is named v_a; a square that fails is named
    through its two cells where J_k is a signed permutation, else by the
    point it fails at."""
    dim, pos = len(form), list(form).count(1)
    want = (dim, 0) if sig.s == 0 else (dim // 2, dim // 2)
    out = []
    if (pos, dim - pos) != want:
        out.append("solved norms have signature (%d, %d), expected (%d, %d)"
                   % ((pos, dim - pos) + want))
    total = [is_permutation(m) for m in ops]
    for k, m in enumerate(ops, start=1):
        if not total[k - 1]:
            out.append("z%d does not act by a signed permutation" % k)
        elif not is_skew(m, form):
            out.append("z%d is not skew for the solved norms" % k)
    squares = [-sig.eps(k) for k in range(1, sig.n + 1)]
    for i, j, points in relation_failures(ops, squares):
        if i != j:
            out.append("z%d and z%d do not anticommute" % (i + 1, j + 1))
        elif not total[i]:
            out += ["z%d square fails at v%d" % (i + 1, a + 1) for a in points]
        else:
            for a in points:
                b = _act(ops[i], (a, 1))[0]
                c = _act(ops[i], (b, 1))[0]
                out.append("z%d square fails through cells (v%d, v%d) and (v%d, v%d)"
                           % (i + 1, a + 1, b + 1, b + 1, c + 1))
    return out


# --- generators from a table, cell by cell ------------------------------

def reconstruct_J(table, eta):
    """Generators implied by the table: J_k v_a = eps_k c eta_b v_b.

    They come as signed-point maps (see exactlin), filled in one pass
    over the cells; where an empty cell leaves J_k undefined, the map
    holds end = 2N.
    """
    end = 2 * table.dim
    eps = _eps_by_k(table.sig)
    # eta_b v_b sits at at[b]; the coefficient eps_k c is -1 where c
    # differs from eps_k, and then the image is at its swap.
    at = [None] + [2 * b + (e < 0) for b, e in enumerate(eta)]
    maps = [[end] * (end + 1) for _ in range(table.sig.n)]
    for (a, b), (k, s) in table.cells.items():
        x = at[b] ^ (eps[k] != s)
        m = maps[k - 1]
        m[2 * a - 2] = x
        m[2 * a - 1] = x ^ 1
    return [tuple(m) for m in maps]
