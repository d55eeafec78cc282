"""Structure constant tables: their construction, verification and comparison.

A StructureTable records the brackets of a 2-step nilpotent algebra
with centre z_1 ... z_n and module basis v_1 ... v_N.  Every bracket
[v_a, v_b] is either zero or a single signed central element, so a cell
is stored as (k, sign) under the key (a, b), with zero cells omitted.

Every table is written straight from the sign rule of the words module.
Its basis is v_a = W_a v for basis words W_a = sigma_a J_(M_a), M_a a
letter mask, where v is a unit vector on which each word of an
involution system acts by its eigensign.  So J_P v = span[P] v for every
mask P of the GF(2) span S of the system masks (words.span_products).
Bring the system masks to reduced echelon form, each row's lowest bit
its pivot and held by no other row; let key(M) be M with each pivot bit
cleared by its row, the one member of the coset of M with no pivot
bit.  key is linear, and the keys are the masks with no pivot bit.  The
words must hit each coset of S once; then the frame {W_a v} is the
coset module's basis up to order and signs, orthogonal with
<v_a, v_a> = nu_a, -1 to the number of letters of M_a above r.

The cells are read in the key basis u_c = J_c v, c a key.  Write
B(A, C) = |f(A) & C| mod 2 for f = words.sign_form, so that J_A J_C =
(-1)^B(A, C) J_(A xor C) (words.mul_sign).  B is bilinear, and its
transpose f^T, with B(A, C) = |A & f^T(C)|, has bit y set when an odd
number of the letters of C lie below y, xor when y is in C & {1..r}
(words.sign_form_transposed): each letter x < y of C moves past letter
y of A, and if y is in C too, the two meet as J_y^2 = -1 when y <= r.

Each generator is a translation with a linear sign.  Put key_k =
key({k}) and Q_k = {k} xor key_k, which lies in S.  For a key c, {k}
xor c = Q_k xor c', with c' = c xor key_k a key, and J_(c' xor Q_k) =
(-1)^B(c', Q_k) J_(c') J_(Q_k), so

    J_k u_c = (-1)^B(k, c) J_({k} xor c) v
            = (-1)^(B(k, c) + B(c, Q_k) + B(key_k, Q_k)) span[Q_k] u_(c'),

and B(k, c) + B(c, Q_k) = |g_k & c| for g_k = f({k}) xor f^T(Q_k).  So
J_k u_c = (-1)^(|g_k & c| + e_k) span[Q_k] u_(c xor key_k), with e_k =
B(key_k, Q_k) fixed for each k.

Each basis word is a fixed sign times a key vector.  With c_a =
key(M_a) and P_a = M_a xor c_a in S, J_(M_a) = (-1)^B(c_a, P_a) J_(c_a)
J_(P_a), so v_a = tau_a u_(c_a) with tau_a = sigma_a (-1)^B(c_a, P_a)
span[P_a].

So J_k v_a = c v_b, where b is the word with c_b = c_a xor key_k and
c = tau_a tau_b span[Q_k] (-1)^(|g_k & c_a| + e_k).  As <J_k x, y> =
<z_k, [x, y]> and <z_k, z_k> = eps_k, the cell (a, b) is (k, eps_k c
nu_b), and J_k puts nothing else in row a.  After O(n + N) set-up for
a table, a cell costs one lookup of b and tau_b nu_b by the key
c_a xor key_k, and the parity of g_k & c_a.

cell_errata is the one check of the cell rules, shared with the golden
loader.  verify_htype reads the cells once, into raw signed-point maps
R_k over the 2N signed points (see exactlin and _signed_maps): R_k v_a =
s v_b for each cell (a, b) = (k, s).  The maps then answer three
questions.

Shape.  Take a table with n N cells, each with a and b in 1..N, k in
1..n and s = +-1.  If R_k^2 = -Id for every k, it meets every rule
that _walk_errata walks cell by cell but those of its missing cells, and
without a missing cell the converse holds too.  Let R_k^2 = -Id.  Then
R_k is total (see _failed_squares), so the n N cells fill the n N pairs
(a, k) once each: row a holds each z_k once.  R_k v_a = s v_b and
R_k v_b = -s v_a say that cell (b, a) is (k, -s), which is antisymmetry
and rules out a = b, as s s = 1.  So a -> b is an involution of 1..N
for each k, and column b holds z_k once too.  Conversely those rules,
with no missing cell, make each R_k a signed permutation that pairs v_a
with v_b and negates on the way back, so R_k^2 = -Id.  A table that
fails the check, or holds other than n N cells, is walked by
_walk_errata to name its defects; one that passes reads only the rules
of its missing cells (_missing_errata), so golden (5, 1), whose one
missing cell is a zero pair, is not walked.

Norm signs.  Each cell forces eta_b = eps_k eta_a, as J_k scales square
norms by eps_k: _walk_eta sets eta, and _solve_eta names the conflicts.

Generators.  J_k = eps_k D_eta R_k sends v_a to eps_k s eta_b v_b.  For
the form diag(eta), <J_k v_a, v_b> = eps_k s = <z_k, [v_a, v_b]>, so
J_k is the operator of z_k.  After the shape check or the cell walk,
no z_k sits twice in a column, so R_k is injective where it acts, and a
total R_k is a signed permutation.  eta agrees with every cell exactly when
D_eta R_k D_eta = eps_k R_k, partial maps included, as D_eta fixes end.
Take such an eta.  J_k is partial exactly when R_k is.  J_k D_eta =
eps_k D_eta R_k D_eta = R_k, and a signed permutation A is skew for
diag(eta), A^T D_eta = A^-1 D_eta = -D_eta A, exactly when (A D_eta)^2
= -Id; so a total J_k is skew exactly when R_k^2 = -Id.  J_k^2 = eps_k
R_k^2, so the Clifford square J_k^2 = -eps_k Id fails at the points
where R_k^2 = -Id fails.  And J_i J_j = eps_i eps_j (D_eta R_i D_eta)
R_j = eps_j R_i R_j, so

    J_i J_j + J_j J_i = 0   exactly when   R_i R_j = -eps_i eps_j R_j R_i.

So once an eta is found, _clifford_errata reads every module axiom off
the R_k and builds no J_k.

compare_tables is the one comparison of two tables: exact, equal after
a diagonal sign change of the basis, or unmatched with the cells that differ.
"""

from collections import deque, namedtuple
from operator import itemgetter

from . import exactlin
from .basis_builder import reference_config
from .clifford_rep import (ConstructionError, find_involution_system,
                           minimal_admissible_dimension)
from .words import (Record, check_letters, letter_mask, sign_form, sign_form_transposed,
                    span_products)

EXACT = "exact"
SIGN_EQUIVALENT = "sign-equivalent"
UNMATCHED = "unmatched"


class StructureTable(Record, namedtuple("StructureTable", "sig dim cells missing label",
                                        defaults=(frozenset(), ""))):
    __slots__ = ()

    def sorted_cells(self):
        return [(a, b, k, s)
                for (a, b), (k, s) in _sorted_by_cell(self.cells.items(), itemgetter(0))]


class MissingCell(Record, namedtuple("MissingCell", "cell suggestion")):
    __slots__ = ()


class VerifyReport(Record, namedtuple("VerifyReport", "sig label errata eta missing",
                                      defaults=((),))):
    __slots__ = ()

    @property
    def ok(self):
        return not self.errata


def _eps_by_k(sig):
    """eps_k for k = 1..n, indexed by k (slot 0 unused)."""
    return (None,) + (1,) * sig.r + (-1,) * sig.s


def _coset_key(rows, mask):
    """mask with each pivot bit cleared by its row: the one member of its
    coset modulo the span of rows that holds no pivot bit.  Linear in
    mask, and one pass in any order, as no row holds another's pivot."""
    for row in rows:
        if mask & row & -row:
            mask ^= row
    return mask


def _pivot_rows(system):
    """The letter masks of an independent system in reduced echelon form,
    by increasing pivot: each row's pivot is its lowest bit, and no other
    row holds that bit."""
    rows = []
    for inv in system:
        m = _coset_key(rows, letter_mask(inv.word.letters))
        low = m & -m
        rows = [row ^ m if row & low else row for row in rows] + [m]
    return sorted(rows, key=lambda row: row & -row)


def _word_masks(system, words):
    """Stored basis words as the table writer takes them: the pivot rows
    of the system, and the mask, coset key and sign of each word."""
    rows = _pivot_rows(system)
    masks = [letter_mask(w.letters) for w in words]
    return rows, masks, [_coset_key(rows, m) for m in masks], [w.sign for w in words]


def _table_from_masks(sig, system, basis, label=""):
    """The table in the basis v_a = sigma_a J_(M_a) v, each cell from the
    key-basis identity of the module docstring.  basis is (rows, masks,
    keys, signs): the pivot rows of the system, and M_a, key(M_a) and
    sigma_a for each basis word, as _word_masks and _coset_words give.

    ConstructionError is raised when the cosets of the system's span are
    not as many as the minimal admissible dimension, or when the words
    miss or repeat a coset; then ValueError for the first word, in order,
    with a letter outside 1..n, named by its least such letter.
    """
    rows, masks, keys, signs = basis
    span = span_products(sig, system)
    dim = 2 ** sig.n // len(span)
    expected = minimal_admissible_dimension(sig.r, sig.s)
    if dim != expected:
        raise ConstructionError(
            "coset count %d does not match minimal dimension %d" % (dim, expected))
    if not len(set(keys)) == len(masks) == dim:
        raise ConstructionError(
            "the basis words miss or repeat a coset of the involution system")
    above_r = sig.r + 1
    # Each sign as a parity, 1 where it is -1: tau_a, and by the key c_b,
    # tau_b nu_b, nu_b from the letters of M_b above r.
    # A letter outside 1..n cannot break this loop, as c is the coset key
    # of m and so m ^ c is a sum of rows, a key of span; the letters of
    # all the words are tested at once after it.
    where, a_side, union = {}, [], 0
    for a, (m, c, sign) in enumerate(zip(masks, keys, signs), 1):
        union |= m
        p = m ^ c  # tau_a = sigma_a mul_sign(c_a, P_a) span[P_a]
        t = (sign_form(sig, c) & p).bit_count() & 1 ^ (sign < 0) ^ (span[p] < 0)
        where[c] = (a, t ^ (m >> above_r).bit_count() & 1)
        a_side.append((a, c, t))
    if union & (-(2 << sig.n) | 1):  # some word holds bit 0 or one above n
        for m in masks:
            check_letters(sig, m)
    cells = {}
    for k in range(1, sig.n + 1):
        bit = 1 << k
        key_k = _coset_key(rows, bit)
        q = bit ^ key_k
        f_q = sign_form_transposed(sig, q)
        g_k = sign_form(sig, bit) ^ f_q
        eps_k = sig.eps(k) * span[q]
        if (key_k & f_q).bit_count() & 1:  # e_k = B(key_k, Q_k)
            eps_k = -eps_k
        values = ((k, eps_k), (k, -eps_k))
        for a, c, t in a_side:
            b, u = where[c ^ key_k]
            cells[(a, b)] = values[(g_k & c).bit_count() & 1 ^ t ^ u]
    return StructureTable(sig, dim, cells, frozenset(), label)


def generate_table(sig):
    """The table of a signature in its stored basis words."""
    config = reference_config(sig)
    return _table_from_masks(sig, config.involutions,
                             _word_masks(config.involutions, config.basis_words))


def _tuple_rank(n, c, rev):
    """The index of the letter tuple of c among all 2^n tuples of letters
    1..n in tuple order, given rev, the sum of 2^(n - x) over the letters
    x of c (see _coset_words)."""
    return (1 << n) + c.bit_count() - rev - (1 << n + 1 - c.bit_length()) if c else 0


def _coset_words(sig, system):
    """The least member of each coset of letter masks modulo the span S
    of an independent system, in the tuple order of their letters, as
    basis words of sign +1 for _table_from_masks: dim k steps for k
    words, and no walk over 2^n masks.  The pivot rows alone decide it;
    S itself is never built.

    A nonzero element of S is a sum of rows, and holds the pivot of each
    of them, as no other row holds that bit (see _pivot_rows).  So two
    members of a coset differ in a pivot p, agree below the least such p,
    and the one holding p sorts first unless the other holds no letter
    above p and so is a prefix of it.  Each coset has one member c with
    no pivot bit, its key; its letters are a subset of the free letters,
    and every subset gives one coset.  Going through the rows in pivot
    order, c holds no pivot from the current row on.  If c holds no
    letter above the pivot, it is a prefix of every member still in the
    running and is the least.  Otherwise a member without the pivot that
    is a prefix would differ from c by h, the bits of c above the pivot;
    h is nonzero and holds no pivot, so it is not in S.  So the least
    holds the pivot, and c xor row keeps the invariant.

    The least members sort by _tuple_rank, the index of a letter tuple
    in tuple order, with no tuple built.  Tuple order is the preorder of
    the tree whose root is () and whose children of (x_1, ..., x_j) are
    its extensions by one letter y > x_j, in increasing y; the subtree
    of a tuple ending in y holds 2^(n - y) tuples.  The index of
    (x_1, ..., x_j) counts the tuples before it: its j ancestors, the
    root included, and at each depth i the subtrees of the letters y
    strictly between x_(i-1) and x_i, x_0 = 0, which hold
    2^(n - x_(i-1)) - 2^(n + 1 - x_i) tuples.  Over i = 1..j these add
    up to 2^n - rev(c) - 2^(n - x_j), where rev(c) is the sum of
    2^(n - x) over the letters x of c.  So the index is
    2^n + j - rev(c) - 2^(n - x_j), with x_j the largest letter of c,
    and 0 for c = 0.  rev is linear, so it rides along the xors.
    """
    n = sig.n
    rows = _pivot_rows(system)
    free = (2 << n) - 2
    for row in rows:
        free ^= row & -row
    keys, revs = [0], [0]
    for x in range(1, n + 1):
        if free >> x & 1:
            keys += [key | 1 << x for key in keys]
            revs += [rev | 1 << n - x for rev in revs]
    steps = [(row, (row & -row) << 1,
              sum(1 << n - x for x in range(1, n + 1) if row >> x & 1)) for row in rows]
    ranked = []
    for key, rev in zip(keys, revs):
        c = key
        for row, top, rev_row in steps:
            if c < top:  # no letter of c above the pivot
                break
            c ^= row
            rev ^= rev_row
        ranked.append((_tuple_rank(n, c, rev), c, key))
    ranked.sort()
    return (rows, [c for _rank, c, _key in ranked], [key for _rank, _c, key in ranked],
            (1,) * len(ranked))


def derive_table(sig):
    """Structure table for a signature without stored basis data.

    Searches an involution system and takes as basis words the smallest
    member of each coset of letter masks modulo its span, in the tuple
    order of their letters (see _coset_words).
    """
    system = find_involution_system(sig)
    return _table_from_masks(sig, system, _coset_words(sig, system), label="derived")


def _propagate_signs(values, adj):
    """Fill values[1:] with +-1 along the edges of adj, breadth first.

    adj[a] lists (b, rel, cell) for edges demanding values[b] =
    rel * values[a].  Each component starts at +1 from its smallest
    vertex.  Yields the cell of every edge that contradicts the values
    already set, so a caller can collect them all or stop at the first.
    """
    for start in range(1, len(values)):
        if values[start] is not None:
            continue
        values[start] = 1
        queue = deque([start])
        while queue:
            a = queue.popleft()
            for b, rel, cell in adj[a]:
                want = rel * values[a]
                if values[b] is None:
                    values[b] = want
                    queue.append(b)
                elif values[b] != want:
                    yield cell


def _solve_eta(table):
    """Propagate norm signs from eta(v_1) = +1; returns (eta, errata).

    Every cell (a, b) = (k, s) forces eta_b = eps_k eta_a because J_k
    scales square norms by eps_k.  Components not reachable from v_1
    start at +1 as well.  The adjacency lists keep the cells' order, so
    this walk, which verify_htype runs only once _walk_eta has met a
    conflict, names every conflicting cell in the order it meets them.
    """
    eps = _eps_by_k(table.sig)
    adj = [[] for _ in range(table.dim + 1)]
    for (a, b), (k, _s) in table.cells.items():
        adj[a].append((b, eps[k], (a, b)))
    eta = [None] * (table.dim + 1)
    errata = ["norm signs conflict at cell (v%d, v%d)" % cell
              for cell in _propagate_signs(eta, adj)]
    return tuple(eta[1:]), errata


def _signed_maps(table):
    """The raw maps R_k, k = 1..n, read off the cells in one pass over
    the 2N signed points (see exactlin), with R_k v_a = s v_b for each
    cell (a, b) = (k, s).  A full table, n N cells on 2N <= 256 points,
    is read into the byte spelling: a zero-filled bytearray of length 2N
    per map, total once the table passes the cell walk (see
    _failed_squares).  Any other table is read into lists of length
    2N + 1, with end = 2N where no cell gives the image.  None when a key
    or a value is not a pair, or a cell has a or b outside 1..N, k
    outside 1..n or s other than +-1, or an index that is not an int,
    such as 1.0.

    List indexing does the tests: evens[a] = 2a - 2 and by_k[k] = R_k
    hold None at index 0, so 0 meets a TypeError, as a float or a str
    does, and an index past the end an IndexError.  The sign bit is
    {1: 0, -1: 1}[s], which matches s by hash and ==, as cell_errata's
    s in (1, -1) does, so 1.0, Fraction(1) and 1+0j read as 1 and any
    other s is a KeyError.  A negative index would wrap onto a real slot,
    so one test of a | b | k stops it.  The maps are allocated first, so
    a huge dim fails at once.
    """
    n_vec, n = table.dim, table.sig.n
    end = 2 * n_vec
    if len(table.cells) != n * n_vec or end > 256:
        maps = [[end] * (end + 1) for _ in range(n)]
    else:
        maps = [bytearray(end) for _ in range(n)]
    evens = [None, *range(0, end, 2)]
    by_k = [None, *maps]
    sign_bit = {1: 0, -1: 1}
    try:
        for (a, b), (k, s) in table.cells.items():
            if (a | b | k) < 0:
                return None
            x = evens[b] + sign_bit[s]
            m = by_k[k]
            y = evens[a]
            m[y] = x
            m[y + 1] = x ^ 1
    except (TypeError, ValueError, IndexError, KeyError):
        return None
    return maps


def _spelling(maps, end):
    """(tables, gathers, minus_id, negate) for the maps of _signed_maps
    on end = 2N points, in the spelling the reader chose (see exactlin):
    R_i R_j is gathers[j](tables[i]), -R_j is negate(tables[j]), and
    minus_id is -Id on the points a gather reads.  A byte map gathers by
    one bytes.translate on all 2N points, a list map by an itemgetter on
    the even points and end.  That is the same comparison: every map
    here, total or not, and so every product of maps and its negation,
    has m[x ^ 1] = m[x] ^ 1, or end along with m[x], so two of them that
    agree at x agree at x ^ 1."""
    if type(maps[0]) is bytearray:
        pad = bytes(256 - end)
        return ([m + pad for m in maps], [m.translate for m in maps],
                exactlin.BYTE_SWAP[:end], exactlin.BYTE_SWAP.translate)
    swap, negate = exactlin.fixed(end)
    return maps, [itemgetter(*m[::2]) for m in maps], swap[::2], negate


def _failed_squares(spelling):
    """The indices k - 1 of the maps with R_k^2 != -Id, each square one
    gather of the spelling (see _spelling).

    A byte map that passes is total.  A pair of slots 2a, 2a + 1 that no
    cell wrote holds 0 twice, so R^2 sends both points to R(0), which
    cannot be both 2a + 1 and 2a.  A table read into bytes has n N
    cells, each writing one pair of slots of one map, so once the n N
    pairs are all written, none was written twice.  A byte map fails
    exactly when its list form does: the two agree wherever the list map
    is total, and a list map that is not total fails, as it fixes end.

    A table whose byte map fails is walked, and its maps are used only
    if it passes the walk.  Then each z_k sits at most once in each row,
    so its n N cells write every pair of slots of every map exactly
    once: its byte maps are total, and equal its list maps with end
    dropped.  So verify_htype reads every table once.
    """
    tables, gathers, minus_id, _negate = spelling
    return [k for k, (t, gather) in enumerate(zip(tables, gathers)) if gather(t) != minus_id]


def _walk_eta(maps, eps, n_vec):
    """Norm signs eta by point, breadth first over the maps, or None when
    two demands meet: each image R_k v_a = +-v_b demands eta_b =
    eps_k eta_a.  Each component starts at +1 from its smallest vertex;
    an undefined image, end, points at slot N, whose 2 no demand equals
    and no conflict counts.  From each start this walk reaches the points
    the adjacency walk of _solve_eta reaches, over the same edges in
    another order, and every value is forced along a path from the
    start.  So it meets a conflict exactly when that walk does, and
    otherwise sets the same eta.  When s = 0 every demand is eta_b =
    eta_a, so eta is all +1 and no walk is made.
    """
    if -1 not in eps:
        return (1,) * n_vec
    up = list(zip(maps, eps))
    down = [(m, -e) for m, e in up]
    eta = [0] * n_vec + [2]
    for start in range(n_vec):
        if eta[start]:
            continue
        eta[start] = 1
        queue = [start]
        for a in queue:
            for m, want in up if eta[a] > 0 else down:
                b = m[2 * a] >> 1
                if not eta[b]:
                    eta[b] = want
                    queue.append(b)
                elif eta[b] != want and b != n_vec:
                    return None
    return tuple(eta[:n_vec])


def reconstruct_J(table, eta):
    """Generators implied by a table that passes the cell walk, and its
    norm signs eta: J_k v_a = eps_k c eta_b v_b for each cell
    (a, b) = (k, c), as signed-point maps of length 2N + 1 (see
    exactlin); where an empty cell leaves J_k undefined, the map holds
    end = 2N, which every map holds last.  J_k = eps_k D_eta R_k for
    D_eta = diag(eta) is the gather of D_eta, or of -D_eta where
    eps_k = -1, by R_k and end.
    """
    end = 2 * len(eta)
    plus = [x ^ (eta[x >> 1] < 0) for x in range(end)] + [end]
    minus = [x ^ 1 for x in plus[:-1]] + [end]
    return [itemgetter(*m[:end], end)(plus if e > 0 else minus)
            for m, e in zip(_signed_maps(table), _eps_by_k(table.sig)[1:])]


def _clifford_errata(sig, spelling, eps, eta, bad):
    """Errata of the module axioms for J_k = eps_k D_eta R_k, read off
    the maps R_k of a table that passed the cell walk, in the spelling
    of _spelling, and an eta that agrees with every cell (see the module
    docstring).  In order: the norm signature, as diag(eta) is definite
    when s = 0 and neutral otherwise; for each k in bad, the maps with
    R_k^2 != -Id, that J_k is partial or else not skew; then for each
    i <= j, the points where the square of R_i fails, named through its
    two cells where R_i is total, and whether R_i R_j = -eps_i eps_j
    R_j R_i.  As in a table, R_k is named z_k and point a - 1 is named
    v_a."""
    dim, pos = len(eta), eta.count(1)
    want = (dim, 0) if sig.s == 0 else (dim // 2, dim // 2)
    out = [] if (pos, dim - pos) == want else [
        "solved norms have signature (%d, %d), expected (%d, %d)"
        % (pos, dim - pos, want[0], want[1])]
    end = 2 * dim
    tables, gathers, _minus_id, negate = spelling
    squares = {}
    for k in bad:
        m = tables[k]
        twice = itemgetter(*m)(m)
        points = [x >> 1 for x in range(0, end, 2) if twice[x] != x ^ 1]
        if max(m[:end]) == end:  # end is an image: R_k is partial
            out.append("z%d does not act by a signed permutation" % (k + 1))
            squares[k] = ["z%d square fails at v%d" % (k + 1, a + 1) for a in points]
        else:
            out.append("z%d is not skew for the solved norms" % (k + 1))
            hops = [(a, m[2 * a] >> 1) for a in points]  # R_k v_a lands on v_b
            squares[k] = ["z%d square fails through cells (v%d, v%d) and (v%d, v%d)"
                          % (k + 1, a + 1, b + 1, b + 1, (m[2 * b] >> 1) + 1)
                          for a, b in hops]
    negated = [negate(t) for t in tables]
    for i, (t, e) in enumerate(zip(tables, eps)):
        out += squares.get(i, ())
        for j in range(i + 1, len(tables)):
            # R_i R_j gathers R_i by R_j; the other side gathers +-R_j by R_i.
            if gathers[j](t) != gathers[i](negated[j] if eps[j] == e else tables[j]):
                out.append("z%d and z%d do not anticommute" % (i + 1, j + 1))
    return out


def _sorted_by_cell(entries, cell=None):
    """entries sorted stably by cell, the entries themselves or cell(entry),
    as tuples compare.  Where two cells hold indices that do not compare,
    such as an int and a None, each index is ranked instead: ints and
    floats first, in numeric order, then anything else by type name and
    repr, so no int meets a None or a str.  A cell that is not a tuple
    is ranked as a tuple of one index."""
    try:
        return sorted(entries, key=cell)
    except TypeError:
        cell = cell or (lambda entry: entry)
        return sorted(entries, key=lambda entry: [
            (0, x, "") if isinstance(x, (int, float)) else (1, type(x).__name__, repr(x))
            for x in _as_tuple(cell(entry))])


def _as_tuple(cell):
    return cell if isinstance(cell, tuple) else (cell,)


def _in_cell_order(found):
    """The errata of found, (cell, erratum) pairs, sorted stably by cell."""
    return [erratum for _cell, erratum in _sorted_by_cell(found, itemgetter(0))]


def cell_errata(table):
    """Errata of the cell rules, in cell order: each cell's key is a
    pair (a, b) holding a pair (k, s), its key and z index are ints
    (1.0, equal to 1, indexes no list), it lies inside the table, off the
    diagonal, and holds a known z_k with coefficient +-1; each missing
    cell meets the rules of _missing_errata; once all hold, each cell is
    antisymmetric unless its mirror cell is missing.  One pass reads all
    of them: the cells that break antisymmetry are noted on the way and
    named only when no other rule fails."""
    n = table.sig.n
    n_vec = table.dim
    cells = table.cells
    missing = table.missing
    found = []  # (cell, erratum); a stable sort by cell keeps each cell's order
    unmirrored = []
    for cell, value in cells.items():
        try:
            a, b = cell
            k, s = value
        except (TypeError, ValueError):
            found.append((cell, "cell %r holds %r, not a pair (a, b) holding a pair (k, s)"
                          % (cell, value)))
            continue
        if not (isinstance(a, int) and isinstance(b, int) and isinstance(k, int)):
            found.append((cell, "cell (v%s, v%s) has a key or z index that is "
                                "not an int" % (a, b)))
            continue
        if not (1 <= a <= n_vec and 1 <= b <= n_vec):
            found.append((cell, "cell (v%d, v%d) outside the table" % (a, b)))
            continue
        if a == b:
            found.append((cell, "nonzero diagonal at v%d" % a))
        if not (1 <= k <= n):
            found.append(
                (cell, "cell (v%d, v%d) uses unknown central z%d" % (a, b, k)))
        if s not in (1, -1):
            found.append((cell, "cell (v%d, v%d) has non-unit coefficient" % (a, b)))
        elif cells.get((b, a)) != (k, -s) and (b, a) not in missing:
            unmirrored.append((a, b))
    found += _missing_errata(table)
    if not found:
        erratum = "cells (v%d, v%d) and (v%d, v%d) break antisymmetry"
        found = [((a, b), erratum % (a, b, b, a)) for a, b in unmirrored]
    return _in_cell_order(found)


def _missing_errata(table):
    """(cell, erratum) for each missing cell that breaks a rule of its
    own: it is a pair (a, b) whose indices compare with an int, it lies
    inside the table and it is not stored."""
    n_vec = table.dim
    found = []
    for cell in table.missing:
        try:
            a, b = cell
        except (TypeError, ValueError):
            found.append((cell, "missing cell %r is not a pair (a, b)" % (cell,)))
            continue
        try:
            inside = 1 <= a <= n_vec and 1 <= b <= n_vec
        except TypeError:  # an index, such as None, that no int compares with
            found.append((cell, "missing cell (v%s, v%s) has an index that is "
                                "not an int" % (a, b)))
            continue
        if not inside:
            found.append((cell, "missing cell (v%d, v%d) outside the table" % (a, b)))
        elif cell in table.cells:
            found.append((cell, "cell (v%d, v%d) is both stored and missing" % (a, b)))
    return found


def _walk_errata(table):
    """cell_errata, then the rows and columns of each z_k, which can be
    counted only when every cell is well formed: the only author of the
    text of a shape erratum."""
    n = table.sig.n
    n_vec = table.dim
    errata = cell_errata(table)
    if errata and not errata[0].endswith("break antisymmetry"):
        return errata
    by_k = {}
    for (a, b), (k, _s) in table.cells.items():
        by_k.setdefault(k, []).append((a, b))
    rows_missing = {a for a, _b in table.missing}
    cols_missing = {b for _a, b in table.missing}
    for k in range(1, n + 1):
        row_hits = set()
        col_hits = set()
        for a, b in sorted(by_k.get(k, ())):
            if a in row_hits:
                errata.append("z%d appears twice in row v%d" % (k, a))
            row_hits.add(a)
            if b in col_hits:
                errata.append("z%d appears twice in column v%d" % (k, b))
            col_hits.add(b)
        for a in range(1, n_vec + 1):
            if a not in row_hits and a not in rows_missing:
                errata.append("row v%d never reaches z%d" % (a, k))
            if a not in col_hits and a not in cols_missing:
                errata.append("column v%d never receives z%d" % (a, k))
    return errata


def _missing_reports(table):
    out = []
    cells = table.cells
    for cell in _sorted_by_cell(table.missing):
        try:
            a, b = cell
        except (TypeError, ValueError):  # not a pair: nothing to suggest
            out.append(MissingCell(cell, None))
            continue
        partner = cells.get((b, a))
        if partner is not None:
            try:
                k, s = partner
                sugg = (k, -s)
            except (TypeError, ValueError):  # a mirror that does not unpack or negate
                sugg = None
        elif (b, a) in table.missing:
            row_ks, col_ks = set(), set()
            for key, value in cells.items():
                try:
                    (x, y), (k, _s) = key, value
                except (TypeError, ValueError):  # a cell of another shape holds no z_k
                    continue
                if x == a:
                    row_ks.add(k)
                if y == b:
                    col_ks.add(k)
            full = set(range(1, table.sig.n + 1))
            sugg = 0 if (row_ks == full and col_ks == full) else None
        else:
            # The mirror cell is recorded as zero, so antisymmetry pins
            # this one to zero too.
            sugg = 0
        out.append(MissingCell(cell, sugg))
    return out


def verify_htype(table):
    """Check a table against every axiom it is supposed to satisfy."""
    sig = table.sig
    missing = _missing_reports(table)
    if not isinstance(table.dim, int):
        errata = ["table dimension %r is not an int" % (table.dim,)]
        return VerifyReport(sig, table.label, errata, None, missing)
    if table.dim < 1:
        errata = ["table dimension %d is not positive" % table.dim]
        return VerifyReport(sig, table.label, errata, None, missing)
    maps = _signed_maps(table)
    if maps is not None:
        spelling = _spelling(maps, 2 * table.dim)
        bad = _failed_squares(spelling)
    if maps is None or bad or len(table.cells) != sig.n * table.dim:
        # Only a table that fails the shape check is walked; if it passes
        # the walk, its byte maps are total (see _failed_squares).
        errata = _walk_errata(table)
    elif table.missing:  # every rule of the walk holds but maybe a missing cell's
        errata = _in_cell_order(_missing_errata(table))
    else:
        errata = []
    if errata:
        return VerifyReport(sig, table.label, errata, None, missing)
    eps = _eps_by_k(sig)[1:]
    eta = _walk_eta(maps, eps, table.dim)
    if eta is None:
        # The adjacency walk names every conflicting cell, in its order.
        eta, errata = _solve_eta(table)
    else:
        errata = _clifford_errata(sig, spelling, eps, eta, bad)
    return VerifyReport(sig, table.label, errata, eta, missing)


class TableComparison(Record, namedtuple("TableComparison", "status sigma diffs",
                                         defaults=(None, ()))):
    __slots__ = ()


def compare_tables(left, right):
    """Decide whether two tables agree, exactly or up to a diagonal sign
    change v_a -> sigma_a v_a, which multiplies cell (a, b) by sigma_a
    sigma_b; sigma_1 = +1, as a global flip changes nothing.  Cells
    missing on either side are left out.  Unmatched tables get no sigma
    but their diffs: ((a, b), left value, right value), None for zero,
    per differing cell, sorted; a stray cell (see _stray) always
    differs, and the tables it lies in are unmatched.
    """
    skip = left.missing | right.missing
    keys = [key for key in left.cells.keys() | right.cells.keys()
            if key not in skip]
    ints = isinstance(left.dim, int) and isinstance(right.dim, int)
    matched = ints and left.dim == right.dim and left.sig.n == right.sig.n
    central = range(1, left.sig.n + 1)
    # No cell lies inside a dim that is not an int.
    adj = {a: [] for a in range(1, left.dim + 1)} if ints else {}
    for key in keys if matched else ():
        try:
            (a, b), (k, s), (k_right, s_right) = key, left.cells.get(key), right.cells.get(key)
        except (TypeError, ValueError):  # a side without the cell, or not a pair
            matched = False
            break
        if k != k_right or k not in central or a not in adj or b not in adj \
                or s not in (1, -1) or s_right not in (1, -1):
            matched = False
            break
        # The edges name their cell by its key alone: a conflict is only counted.
        rel = s * s_right
        adj[a].append((b, rel, key))
        adj[b].append((a, rel, key))
    sigma = [None] * (len(adj) + 1)
    if matched and next(_propagate_signs(sigma, adj), None) is None:
        sigma = tuple(sigma[1:])
        status = EXACT if all(x == 1 for x in sigma) else SIGN_EQUIVALENT
        return TableComparison(status, sigma)
    entries = [(key, left.cells.get(key), right.cells.get(key)) for key in _sorted_by_cell(keys)]
    return TableComparison(UNMATCHED, None, tuple(
        entry for entry in entries if entry[1] != entry[2] or _stray(entry, adj, central)))


def _stray(entry, inside, central):
    """True when a cell, (key, left value, right value), always differs:
    its key is not a pair (a, b) of indices in inside, the indices
    1..dim of an int dim on both sides (none otherwise), or one of its
    values, None for zero aside, is not a pair (k, s) with k in central
    and s = +-1."""
    try:
        (a, b), *values = entry
        return a not in inside or b not in inside or any(
            k not in central or s not in (1, -1)
            for k, s in (value for value in values if value is not None))
    except (TypeError, ValueError):
        return True
