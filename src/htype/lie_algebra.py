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
bit.  key is linear.  The words must hit each coset of S once; then
the frame {W_a v} is the coset module's basis up to order and signs,
orthogonal with <v_a, v_a> = norm_sign(W_a).  For a generator J_k:

    J_k W_a v = sigma_a mul_sign(k, M_a) J_L v,    L = {k} xor M_a.

Let b be the word with key(M_b) = key(L) = key(k) xor key(M_a), and
P = L xor M_b, which lies in S.  As J_(M_b) J_P = mul_sign(M_b, P) J_L,

    J_L v = mul_sign(M_b, P) span[P] J_(M_b) v = mul_sign(M_b, P) span[P] sigma_b v_b.

So J_k v_a = c v_b with c = sigma_a sigma_b span[P] (-1)^(|f(k) & M_a|
+ |f(M_b) & P|), f = words.sign_form, since mul_sign(A, B) is -1 to the
power |f(A) & B|.  As <J_k x, y> = <z_k, [x, y]> and <z_k, z_k> = eps_k,
the cell (a, b) is (k, eps_k c norm_sign(W_b)), and J_k puts nothing
else in row a.

cell_errata is the one check of the cell rules, shared with the golden
loader.  verify_htype reads the cells once, into raw signed-point maps
R_k over the 2N signed points (see exactlin): R_k v_a = s v_b for each
cell (a, b) = (k, s), and end where no cell gives the image.  The maps
then answer three questions.

Shape.  Take a table with no missing cell and n N cells, each with a
and b in 1..N, k in 1..n and s = +-1.  It meets every rule that
_walk_errata walks cell by cell exactly when R_k^2 = -Id for every k.
Let R_k^2 = -Id.  As end is fixed and -Id moves every point, no image
is end, so the n N cells fill the n N pairs (a, k) once each: row a
holds each z_k once.  R_k v_a = s v_b and R_k v_b = -s v_a say that
cell (b, a) is (k, -s), which is antisymmetry and rules out a = b, as
s s = 1.  So a -> b is an involution of 1..N for each k, and column b
holds z_k once too.  Conversely those rules make each R_k a signed
permutation that pairs v_a with v_b and negates on the way back, so
R_k^2 = -Id.  A table that fails the check, or has a missing cell, is
walked by _walk_errata to name its defects.  The maps are read once,
before the check: a table that passes the walk has every cell an int in
range, so it has its maps, and one that fails it never needs them.

Norm signs.  Each cell forces eta_b = eps_k eta_a, as J_k scales square
norms by eps_k.  A breadth-first walk over the maps, b = R_k[2a] >> 1,
sets eta with no adjacency lists.  Only when it meets a conflict does
the adjacency walk of _solve_eta run, to name each conflicting cell in
cell order.

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

So once _walk_eta has found an eta, _clifford_errata reads every module
axiom off the R_k and builds no J_k: the norm signature; for each map
with R_k^2 != -Id, of which the shape check leaves none, whether J_k
is partial or not skew, and where its square fails; and the n(n-1)/2
pair relations, one gather on each side of a pair.  Both squares and
products are compared on the N even points and end alone: every map
here, partial or not, and so every product of maps and its negation,
has m[x ^ 1] = m[x] ^ 1, or end along with m[x] (see exactlin), so two
of them that agree at x agree at x ^ 1.

compare_tables is the one comparison of two tables: exact, equal after
a diagonal sign change of the basis, or unmatched with the cells that differ.
"""

from collections import deque
from dataclasses import dataclass, field
from operator import itemgetter

from . import exactlin
from .basis_builder import reference_config
from .clifford_rep import (ConstructionError, find_involution_system,
                           minimal_admissible_dimension, signature_errata)
from .words import Signature, Word, letter_mask, norm_sign, sign_form, span_products

EXACT = "exact"
SIGN_EQUIVALENT = "sign-equivalent"
UNMATCHED = "unmatched"


@dataclass(frozen=True)
class StructureTable:
    sig: Signature
    dim: int
    cells: dict
    missing: frozenset = frozenset()
    label: str = ""

    def entry(self, a, b):
        """(k, sign) for the bracket [v_a, v_b], or None when zero."""
        return self.cells.get((a, b))

    def sorted_cells(self):
        return [(a, b, k, s) for (a, b), (k, s) in sorted(self.cells.items())]


@dataclass(frozen=True)
class MissingCell:
    cell: tuple
    suggestion: object


@dataclass
class VerifyReport:
    sig: Signature
    label: str
    errata: list
    eta: tuple
    missing: list = field(default_factory=list)

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


def _table_from_words(sig, system, words, label=""):
    """The table in the basis v_a = W_a v, each cell from the identity
    of the module docstring.

    ConstructionError is raised when the cosets of the system's span are
    not as many as the minimal admissible dimension, or when the words
    miss or repeat a coset.
    """
    span = span_products(sig, system)
    dim = 2 ** sig.n // len(span)
    expected = minimal_admissible_dimension(sig.r, sig.s)
    if dim != expected:
        raise ConstructionError(
            "coset count %d does not match minimal dimension %d" % (dim, expected))
    rows = _pivot_rows(system)
    masks = [letter_mask(w.letters) for w in words]
    keys = [_coset_key(rows, m) for m in masks]
    if not len(set(keys)) == len(words) == dim:
        raise ConstructionError(
            "the basis words miss or repeat a coset of the involution system")
    # Each sign factor of a cell as a parity: 1 where it is -1.
    neg = {p: c < 0 for p, c in span.items()}
    # b, M_b, f(M_b) and sigma_b norm_sign(W_b), by the key of word b.
    where = {key: (b, m, sign_form(sig, m), w.sign * norm_sign(sig, w) < 0)
             for b, (key, m, w) in enumerate(zip(keys, masks, words), 1)}
    a_side = [(a, m, key, w.sign < 0)
                 for a, (key, m, w) in enumerate(zip(keys, masks, words), 1)]
    cells = {}
    for k in range(1, sig.n + 1):
        bit = 1 << k
        f_k, key_k, eps_k = sign_form(sig, bit), _coset_key(rows, bit), sig.eps(k)
        values = ((k, eps_k), (k, -eps_k))
        for a, m_a, key_a, neg_a in a_side:
            b, m_b, f_b, neg_b = where[key_a ^ key_k]
            p = bit ^ m_a ^ m_b
            cells[(a, b)] = values[
                ((f_k & m_a) ^ (f_b & p)).bit_count() & 1 ^ neg_a ^ neg_b ^ neg[p]]
    return StructureTable(sig, dim, cells, frozenset(), label)


def generate_table(sig):
    """The table of a signature in its stored basis words."""
    config = reference_config(sig)
    return _table_from_words(sig, config.involutions, config.basis_words)


def _coset_words(sig, system):
    """The least member of each coset of letter masks modulo the span S
    of an independent system, in the tuple order of their letters, as
    words of sign +1: dim k steps for k words, and no walk over 2^n masks.
    The pivot rows alone decide it; S itself is never built.

    A nonzero element of S is a sum of rows, and holds the pivot of each
    of them, as no other row holds that bit (see _pivot_rows).  So two
    members of a coset differ in a pivot p, agree below the least such p,
    and the one holding p sorts first unless the other holds no letter
    above p and so is a prefix of it.  Each coset has one member c with
    no pivot bit; its letters are a subset of the free letters, and every
    subset gives one coset.  Going through the rows in pivot order, c
    holds no pivot from the current row on.  If c holds no letter above
    the pivot, it is a prefix of every member still in the running and
    is the least.  Otherwise a member without the pivot that is a prefix
    would differ from c by h, the bits of c above the pivot; h is nonzero
    and holds no pivot, so it is not in S.  So the least holds the pivot,
    and c xor row keeps the invariant.
    """
    rows = _pivot_rows(system)
    free = (2 << sig.n) - 2
    for row in rows:
        free ^= row & -row
    least, sub = [], 0
    while True:
        c = sub
        for row in rows:
            if c < (row & -row) << 1:  # no letter of c above the pivot
                break
            c ^= row
        least.append(Word(1, tuple(x for x in range(1, sig.n + 1) if c >> x & 1)))
        sub = (sub - free) & free
        if not sub:
            return sorted(least)


def derive_table(sig):
    """Structure table for a signature without stored basis data.

    Searches an involution system and takes as basis words the smallest
    member of each coset of letter masks modulo its span, in the tuple
    order of their letters (see _coset_words).
    """
    system = find_involution_system(sig)
    return _table_from_words(sig, system, _coset_words(sig, system), label="derived")


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
    """The raw maps R_k, k = 1..n, read off the cells in one pass: tuples
    over the 2N signed points (see exactlin) with R_k v_a = s v_b for
    each cell (a, b) = (k, s), and end = 2N where no cell gives the
    image.  None when a cell has a or b outside 1..N, k outside 1..n or
    s other than +-1.  A key or z index such as 1.0, equal to an int
    without being one, raises TypeError, as it indexes a list or meets
    the bitwise xor.
    """
    n, n_vec = table.sig.n, table.dim
    end = 2 * n_vec
    maps = [[end] * (end + 1) for _ in range(n)]
    for (a, b), (k, s) in table.cells.items():
        if not (0 < a <= n_vec and 0 < b <= n_vec and 0 < k <= n and s in (1, -1)):
            return None
        x = 2 * b - 2 + (s < 0)
        m = maps[k - 1]
        m[2 * a - 2] = x
        m[2 * a - 1] = x ^ 1
    return [tuple(m) for m in maps]


def _failed_squares(maps, n_vec):
    """The indices k - 1 of the maps with R_k^2 != -Id, compared on the
    even points and end (see exactlin)."""
    swap = exactlin.fixed(2 * n_vec)[0][::2]
    return [k for k, m in enumerate(maps) if itemgetter(*m[::2])(m) != swap]


def _walk_eta(maps, eps, n_vec):
    """Norm signs eta by point, breadth first over the maps, or None when
    two demands meet: each image R_k v_a = +-v_b demands eta_b =
    eps_k eta_a.  Each component starts at +1 from its smallest vertex;
    an undefined image, end, points at slot N, whose 2 no demand equals
    and no conflict counts.  From each start this walk reaches the points
    the adjacency walk of _solve_eta reaches, over the same edges in
    another order, and every value is forced along a path from the
    start.  So it meets a conflict exactly when that walk does, and
    otherwise sets the same eta.
    """
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
    """Generators implied by a table whose cells are in range, and the
    norm signs eta: J_k v_a = eps_k c eta_b v_b for each cell
    (a, b) = (k, c), as signed-point maps (see exactlin); where an empty
    cell leaves J_k undefined, the map holds end = 2N.  J_k = eps_k
    D_eta R_k for D_eta = diag(eta) is the gather of D_eta, or of -D_eta
    where eps_k = -1, by R_k.
    """
    end = 2 * len(eta)
    plus = [x ^ (eta[x >> 1] < 0) for x in range(end)] + [end]
    minus = [x ^ 1 for x in plus[:-1]] + [end]
    return [itemgetter(*m)(plus if e > 0 else minus)
            for m, e in zip(_signed_maps(table), _eps_by_k(table.sig)[1:])]


def _clifford_errata(sig, maps, eps, eta, bad):
    """Errata of the module axioms for J_k = eps_k D_eta R_k, read off
    the maps R_k of a table that passed the cell walk and an eta that
    agrees with every cell (see the module docstring).  In order: the
    norm signature; for each k in bad, the maps with R_k^2 != -Id, that
    J_k is partial or else not skew; then for each i <= j, the points
    where the square of R_i fails, named through its two cells where
    R_i is total, and whether R_i R_j = -eps_i eps_j R_j R_i.  As in a
    table, R_k is named z_k and point a - 1 is named v_a."""
    out = signature_errata(sig, eta)
    end = 2 * len(eta)
    squares = {}
    for k in bad:
        m = maps[k]
        twice = itemgetter(*m)(m)
        points = [x >> 1 for x in range(0, end, 2) if twice[x] != x ^ 1]
        if m.count(end) > 1:
            out.append("z%d does not act by a signed permutation" % (k + 1))
            squares[k] = ["z%d square fails at v%d" % (k + 1, a + 1) for a in points]
        else:
            out.append("z%d is not skew for the solved norms" % (k + 1))
            hops = [(a, m[2 * a] >> 1) for a in points]  # R_k v_a lands on v_b
            squares[k] = ["z%d square fails through cells (v%d, v%d) and (v%d, v%d)"
                          % (k + 1, a + 1, b + 1, b + 1, (m[2 * b] >> 1) + 1)
                          for a, b in hops]
    negate = exactlin.fixed(end)[1]
    gathers = [itemgetter(*m[::2]) for m in maps]  # on the even points and end
    negated = [negate(m) for m in maps]
    for i, (m, e) in enumerate(zip(maps, eps)):
        out += squares.get(i, ())
        for j in range(i + 1, len(maps)):
            # R_i R_j gathers R_i by R_j; the other side gathers +-R_j by R_i.
            if gathers[j](m) != gathers[i](negated[j] if eps[j] == e else maps[j]):
                out.append("z%d and z%d do not anticommute" % (i + 1, j + 1))
    return out


def cell_errata(table):
    """Errata of the cell rules, in cell order: each cell's key and z
    index are ints (1.0, equal to 1, indexes no list), it lies inside the
    table, off the diagonal, and holds a known z_k with coefficient +-1;
    each missing cell lies inside the table and is not stored; once all
    hold, each cell is antisymmetric unless its mirror cell is missing."""
    n = table.sig.n
    n_vec = table.dim
    found = []  # (cell, erratum); a stable sort by cell keeps each cell's order
    for cell, (k, s) in table.cells.items():
        a, b = cell
        if not (isinstance(a, int) and isinstance(b, int) and isinstance(k, int)):
            found.append((cell, "cell (v%s, v%s) has a key or z index that is "
                                "not an int" % cell))
            continue
        if not (1 <= a <= n_vec and 1 <= b <= n_vec):
            found.append((cell, "cell (v%d, v%d) outside the table" % cell))
            continue
        if a == b:
            found.append((cell, "nonzero diagonal at v%d" % a))
        if not (1 <= k <= n):
            found.append(
                (cell, "cell (v%d, v%d) uses unknown central z%d" % (a, b, k)))
        if s not in (1, -1):
            found.append((cell, "cell (v%d, v%d) has non-unit coefficient" % cell))
    for cell in table.missing:
        a, b = cell
        if not (1 <= a <= n_vec and 1 <= b <= n_vec):
            found.append((cell, "missing cell (v%d, v%d) outside the table" % cell))
        elif cell in table.cells:
            found.append((cell, "cell (v%d, v%d) is both stored and missing" % cell))
    if not found:
        for cell, (k, s) in table.cells.items():
            a, b = cell
            if (b, a) not in table.missing and table.cells.get((b, a)) != (k, -s):
                erratum = "cells (v%d, v%d) and (v%d, v%d) break antisymmetry"
                found.append((cell, erratum % (a, b, b, a)))
    found.sort(key=lambda entry: entry[0])
    return [erratum for _cell, erratum in found]


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
    for (a, b) in sorted(table.missing):
        partner = cells.get((b, a))
        if partner is not None:
            sugg = (partner[0], -partner[1])
        elif (b, a) in table.missing:
            row_ks = {v[0] for key, v in cells.items() if key[0] == a}
            col_ks = {v[0] for key, v in cells.items() if key[1] == b}
            full = set(range(1, table.sig.n + 1))
            sugg = 0 if (row_ks == full and col_ks == full) else None
        else:
            # The mirror cell is recorded as zero, so antisymmetry pins
            # this one to zero too.
            sugg = 0
        out.append(MissingCell((a, b), sugg))
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
    try:
        maps = _signed_maps(table)
    except TypeError:
        maps = None
    bad = None if maps is None else _failed_squares(maps, table.dim)
    if maps is None or bad or table.missing or len(table.cells) != sig.n * table.dim:
        # Only a table that breaks a rule or has a missing cell is walked;
        # one that passes it has its maps (see the module docstring).
        errata = _walk_errata(table)
        if errata:
            return VerifyReport(sig, table.label, errata, None, missing)
    eps = _eps_by_k(sig)[1:]
    eta = _walk_eta(maps, eps, table.dim)
    if eta is None:
        # The adjacency walk names every conflicting cell, in its order.
        eta, errata = _solve_eta(table)
    else:
        errata = _clifford_errata(sig, maps, eps, eta, bad)
    return VerifyReport(sig, table.label, errata, eta, missing)


@dataclass(frozen=True)
class TableComparison:
    status: str
    sigma: tuple = None
    diffs: tuple = ()


def compare_tables(left, right):
    """Decide whether two tables agree, exactly or up to a diagonal sign
    change v_a -> sigma_a v_a, which multiplies cell (a, b) by sigma_a
    sigma_b; sigma_1 = +1, as a global flip changes nothing.  Cells
    missing on either side are left out.  Unmatched tables get no sigma
    but their diffs: ((a, b), left value, right value), None for zero,
    per differing cell, sorted; a cell outside 1..dim, or holding z_k
    for k outside 1..n, always differs.
    """
    skip = left.missing | right.missing
    keys = [key for key in left.cells.keys() | right.cells.keys()
            if key not in skip]
    matched = left.dim == right.dim and left.sig.n == right.sig.n
    central = range(1, left.sig.n + 1)
    adj = {a: [] for a in range(1, left.dim + 1)}
    for a, b in keys if matched else ():
        mine, theirs = left.cells.get((a, b)), right.cells.get((a, b))
        if mine is None or theirs is None or mine[0] != theirs[0] \
                or mine[0] not in central or a not in adj or b not in adj:
            matched = False
            break
        adj[a].append((b, mine[1] * theirs[1], (a, b)))
        adj[b].append((a, mine[1] * theirs[1], (b, a)))
    sigma = [None] * (left.dim + 1)
    if matched and next(_propagate_signs(sigma, adj), None) is None:
        sigma = tuple(sigma[1:])
        status = EXACT if all(x == 1 for x in sigma) else SIGN_EQUIVALENT
        return TableComparison(status, sigma)
    # The last test meets only a cell held, equally, on both sides.
    diffs = [(key, left.cells.get(key), right.cells.get(key))
             for key in sorted(keys) if left.cells.get(key) != right.cells.get(key)
             or key[0] not in adj or key[1] not in adj
             or left.cells[key][0] not in central]
    return TableComparison(UNMATCHED, None, tuple(diffs))
