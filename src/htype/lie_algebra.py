"""Structure constant tables, their verification and comparison.

A StructureTable records the brackets of a 2-step nilpotent algebra
with centre z_1 ... z_n and module basis v_1 ... v_N.  Every bracket
[v_a, v_b] is either zero or a single signed central element, so a cell
is stored as (k, sign) under the key (a, b), with zero cells omitted.

cell_errata is the one check of the cell rules, shared with the golden
loader.  verify_htype adds the row and column counts of each z_k, solves
the norm signs of the basis by propagation, and hands the generators it
rebuilds from the table, as signed-point maps, to
clifford_rep.verify_generators, the one check of the module axioms.  A
well formed table passes the cell, row and column rules by a few
comparisons of whole collections; only a table that breaks one is
walked cell by cell, to name every defect it can pin to specific
cells.

compare_tables is the one comparison of two tables: exact, equal after
a diagonal sign change of the basis, or unmatched with the cells that differ.
"""

from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache

from .basis_builder import build_basis, reference_config
from .clifford_rep import (build_generators, find_involution_system,
                           verify_generators)
from .words import Signature

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
    return (None,) + tuple(sig.eps(k) for k in range(1, sig.n + 1))


def compute_table(gens, frame, label=""):
    """Read the bracket table off where each J_k sends each frame point.

    The frame is a list of signed points (see exactlin), one per module
    basis vector; one that does not hit each module point exactly once
    raises ValueError.  gens needs no check: build_generators proves the
    module axioms.  So each J_k is a skew signed permutation, and J_k v_a
    is one frame vector.  As <x, J_k x> = <x, J_l J_k x> = 0 for
    anticommuting J_k, J_l, no J_k v_a is +-v_a or +-J_l v_a, so no cell
    is diagonal or doubled; as <J_k v_b, v_a> = -<v_b, J_k v_a>, the
    table is antisymmetric.
    """
    sig = gens.sig
    if sorted(point for point, _s in frame) != list(range(gens.dim)):
        raise ValueError("the frame does not hit each module point once")
    eps = _eps_by_k(sig)
    where = {point: b for b, (point, _s) in enumerate(frame)}
    cells = {}
    for k in range(1, sig.n + 1):
        m = gens.ops[k - 1]
        for a, (p, s) in enumerate(frame):
            x = m[2 * p + (s < 0)]
            point = x >> 1
            b = where[point]
            # J_k v_a = u e_point, u = -1 for odd x; for v_b = t e_point,
            # <J_k v_a, v_b> is u t form[point].
            pairing = frame[b][1] * gens.form_v[point]
            cells[(a + 1, b + 1)] = (k, -eps[k] * pairing if x & 1
                                     else eps[k] * pairing)
    return StructureTable(sig, gens.dim, cells, frozenset(), label)


def generate_table(sig):
    """Full pipeline from a signature to its structure table."""
    config = reference_config(sig)
    gens = build_generators(sig, system=config.involutions)
    return compute_table(gens, build_basis(gens, config))


def derive_table(sig):
    """Structure table for a signature without stored basis data.

    Searches an involution system and takes the coset words it cuts as
    the module basis.  build_generators numbers the module by those
    words, so their frame is e_1 ... e_N.
    """
    gens = build_generators(sig, system=find_involution_system(sig))
    frame = [(a, 1) for a in range(gens.dim)]
    return compute_table(gens, frame, label="derived")


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
    start at +1 as well.
    """
    eps = _eps_by_k(table.sig)
    adj = {a: [] for a in range(1, table.dim + 1)}
    for (a, b), (k, _s) in table.cells.items():
        adj[a].append((b, eps[k], (a, b)))
    eta = [None] * (table.dim + 1)
    errata = ["norm signs conflict at cell (v%d, v%d)" % cell
              for cell in _propagate_signs(eta, adj)]
    return tuple(eta[1:]), errata


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


def cell_errata(table):
    """Errata of the cell rules, in cell order: each cell lies inside the
    table, off the diagonal, and holds a known z_k with coefficient +-1;
    once all do, each is antisymmetric unless its mirror cell is missing."""
    n = table.sig.n
    n_vec = table.dim
    found = []  # (cell, erratum); a stable sort by cell keeps each cell's order
    for cell, (k, s) in table.cells.items():
        a, b = cell
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
    if not found:
        for cell, (k, s) in table.cells.items():
            a, b = cell
            if (b, a) not in table.missing and table.cells.get((b, a)) != (k, -s):
                erratum = "cells (v%d, v%d) and (v%d, v%d) break antisymmetry"
                found.append((cell, erratum % (a, b, b, a)))
    found.sort(key=lambda entry: entry[0])
    return [erratum for _cell, erratum in found]


@lru_cache(maxsize=128)
def _complete_shape(n, n_vec):
    """The cell values (k, +-1) and the pairs (a, k) of a complete
    table with n central and n_vec module directions."""
    return (frozenset((k, s) for k in range(1, n + 1) for s in (1, -1)),
            frozenset((a, k) for a in range(1, n_vec + 1)
                      for k in range(1, n + 1)))


def _whole_table_holds(table):
    """True when the table meets every structural rule, by comparing
    whole collections: no cell is missing and there are n N cells, the
    values lie in {(k, +-1) : 1 <= k <= n}, the mirrored cells
    {(b, a): (k, -s)} equal the cells, and the pairs (a, k) are
    {1..N} x {1..n}.

    The pairs, n N of them from n N cells, say that row a holds each
    z_k once and every a lies in 1..N; through the mirror, so do the
    columns and every b, and (a, a) = (k, s) would need s = -s.  So no
    rule of cell_errata or of the row and column counts breaks.
    """
    cells = table.cells
    n = table.sig.n
    if table.missing or len(cells) != n * table.dim:
        return False
    values, pairs = _complete_shape(n, table.dim)
    return (values.issuperset(cells.values())
            and {(b, a): (k, -s) for (a, b), (k, s) in cells.items()} == cells
            and {(a, k) for (a, _b), (k, _s) in cells.items()} == pairs)


def _structural_errata(table):
    """Errata of the table's shape: a dimension that is not positive on
    its own, else nothing when _whole_table_holds, else those of
    _walk_errata, which runs only on a table that breaks a rule."""
    if table.dim < 1:
        return ["table dimension %d is not positive" % table.dim]
    if _whole_table_holds(table):
        return []
    return _walk_errata(table)


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
    rows_missing = {}
    cols_missing = {}
    for (a, b) in table.missing:
        rows_missing.setdefault(a, []).append(b)
        cols_missing.setdefault(b, []).append(a)
    for k in range(1, n + 1):
        row_hits = {}
        col_hits = {}
        for a, b in sorted(by_k.get(k, ())):
            if a in row_hits:
                errata.append("z%d appears twice in row v%d" % (k, a))
            row_hits[a] = b
            if b in col_hits:
                errata.append("z%d appears twice in column v%d" % (k, b))
            col_hits[b] = a
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
    errata = _structural_errata(table)
    missing = _missing_reports(table)
    if errata:
        return VerifyReport(sig, table.label, errata, None, missing)
    eta, errata = _solve_eta(table)
    if not errata:
        errata = verify_generators(sig, reconstruct_J(table, eta), eta)
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
