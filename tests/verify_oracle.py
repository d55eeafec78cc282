"""A brute-force referee for lie_algebra.verify_htype, and its cases.

is_htype decides whether a table is valid without any of the
package's checks: it counts the row, column and antisymmetry rules cell
by cell, then tries every norm sign vector eta with eta_1 = +1 on the
dense generators J_k v_a = eps_k c eta_b v_b built from the cells, and
asks dense_oracle for skewness and the Clifford relations.  Only tables
of dim <= 8 are fed to it, so eta runs over at most 128 vectors.

referee_cases builds the tables it judges: every configured and golden
table of dim <= 8, two rounds of seeded damage of each, and the two
blocks of the doubled (0, 7) table under both signatures.

slow_report is the route verify_htype took before it read a table
through its signed-point maps: the walk over the cells, the adjacency
propagation of the norm signs, and generators rebuilt cell by cell by
dense_oracle.reconstruct_J and checked point by point by
dense_oracle.verify_generators.  report_cases are the tables it is held
against verify_htype on: the referee cases, every golden, configured
and grid table with seeded damage of each, sign flips of two pairs of
cells and one-pair flips of the (5, 1) table with its hole, which keep
the shape, tables with an index that is a float, a table whose early
cells later ones override, and cycle tables, whose total maps are not
skew.

brute_compare decides what lie_algebra.compare_tables must return by
trying every diagonal sign change sigma with sigma_1 = +1, and
comparison_cases are the pairs of tables it judges: the referee's base
tables against themselves, their sign-changed copies and their seeded
damage.
"""

import random

from dense_oracle import (clifford_failures, identity, mat_mul, mat_neg,
                          mat_scale, metric_adjoint, reconstruct_J,
                          verify_generators, zeros)
from htype.basis_builder import configured_signatures
from htype.golden import build_n07, golden_signatures, golden_table, split_blocks
from htype.lie_algebra import (EXACT, SIGN_EQUIVALENT, UNMATCHED, StructureTable,
                               _missing_reports, _solve_eta, _walk_errata,
                               derive_table, generate_table)
from htype.words import Signature


def _rules_hold(table):
    """Each cell lies off the diagonal inside the table and holds some
    z_k, 1 <= k <= n, with coefficient +-1; its mirror holds the
    negative unless missing; each z_k sits once in every row and every
    column, or nowhere in one that has a missing cell."""
    n, dim, cells = table.sig.n, table.dim, table.cells
    if dim < 1:
        return False
    for (a, b), (k, s) in cells.items():
        if not (1 <= a <= dim and 1 <= b <= dim) or a == b \
                or not 1 <= k <= n or s not in (1, -1):
            return False
        if (b, a) not in table.missing and cells.get((b, a)) != (k, -s):
            return False
    for k in range(1, n + 1):
        for x in range(1, dim + 1):
            for side in (0, 1):
                hits = sum(1 for key, (kk, _s) in cells.items()
                           if key[side] == x and kk == k)
                holed = any(key[side] == x for key in table.missing)
                if hits > 1 or (hits == 0 and not holed):
                    return False
    return True


def is_htype(table):
    """True when the rules hold and some eta with eta_1 = +1 makes every
    dense J_k skew for diag(eta) and the J_k Clifford."""
    if not _rules_hold(table):
        return False
    sig, dim = table.sig, table.dim
    by_k = [[] for _ in range(sig.n)]
    for (a, b), (k, s) in table.cells.items():
        by_k[k - 1].append((a - 1, b - 1, sig.eps(k) * s))
    for bits in range(2 ** (dim - 1)):
        eta = [1] + [-1 if bits >> i & 1 else 1 for i in range(dim - 1)]
        mats = []
        for k, entries in enumerate(by_k, start=1):
            m = zeros(dim)
            for a, b, c in entries:
                m[b][a] = c * eta[b]
            # The square alone rules out most eta cheaply.
            if mat_mul(m, m) != mat_scale(-sig.eps(k), identity(dim)):
                break
            mats.append(m)
        else:
            if all(metric_adjoint(m, eta) == mat_neg(m) for m in mats) \
                    and clifford_failures(mats, sig) == []:
                return True
    return False


def _damaged(table, rng):
    """(kind, table) for each damage of a table at cells drawn by rng."""
    n, dim = table.sig.n, table.dim
    keys = sorted(table.cells)
    zero = sorted({(a, b) for a in range(1, dim + 1) for b in range(1, dim + 1)
                   if a != b} - set(keys))

    out = []
    a, b = rng.choice(keys)
    k, s = table.cells[(a, b)]
    mirror = (b, a) in table.cells

    cells = dict(table.cells)
    cells[(a, b)] = (k, -s)
    out.append(("cell flip", table._replace(cells=cells)))
    if mirror:
        cells = dict(cells)
        cells[(b, a)] = (k, s)
        out.append(("pair flip", table._replace(cells=cells)))

    if mirror:
        cells = dict(table.cells)
        cells[(a, b)], cells[(b, a)] = (k, 2 * s), (k, -2 * s)
        out.append(("non-unit pair", table._replace(cells=cells)))

    cells = dict(table.cells)
    cells[(a, b)] = (rng.choice([x for x in range(n + 2) if x != k]), s)
    out.append(("changed k", table._replace(cells=cells)))
    if n >= 2 and mirror:
        other = rng.choice([x for x in range(1, n + 1) if x != k])
        cells = dict(table.cells)
        cells[(a, b)], cells[(b, a)] = (other, s), (other, -s)
        out.append(("changed k of a pair", table._replace(cells=cells)))

    cells = dict(table.cells)
    del cells[(a, b)]
    cells[(a, rng.choice([x for x in range(1, dim + 2) if x != b]))] = (k, s)
    out.append(("moved cell", table._replace(cells=cells)))

    cells = dict(table.cells)
    del cells[(a, b)]
    cells.pop((b, a), None)
    out.append(("deleted pair", table._replace(cells=cells)))

    cells = dict(table.cells)
    del cells[(a, b)]
    out.append(("missing cell", table._replace(
        cells=cells, missing=table.missing | {(a, b)})))
    if zero:
        hole = rng.choice(zero)
        out.append(("missing zero cell",
                    table._replace(missing=table.missing | {hole})))

    out.append(("mirror signature",
                table._replace(sig=Signature(table.sig.s, table.sig.r))))
    out.append(("dim + 1", table._replace(dim=dim + 1)))
    out.append(("dim 0", table._replace(dim=0)))
    out.append(("dim -1", table._replace(dim=-1)))
    return out


def _referee_bases():
    """(name, table) for every configured and golden table of dim <= 8."""
    bases = []
    for key in configured_signatures():
        table = generate_table(Signature(*key))
        if table.dim <= 8:
            bases.append(("configured %d %d" % key, table))
    for key in golden_signatures():
        table = golden_table(*key)
        if table.dim <= 8:
            bases.append(("golden %d %d" % key, table))
    return bases


def referee_cases(seed=83):
    """(name, table) for every case the referee judges, each name its
    own: a damaged copy is named by its base, its round and its kind."""
    rng = random.Random(seed)
    cases = []
    for name, table in _referee_bases():
        cases.append((name, table))
        for round_ in (1, 2):
            cases += [("%s, round %d, %s" % (name, round_, kind), t)
                      for kind, t in _damaged(table, rng)]
    for i, block in enumerate(split_blocks(build_n07(), Signature(7, 0)), start=1):
        for sig in (Signature(7, 0), Signature(0, 7)):
            cases.append(("n07 block %d as %s" % (i, sig),
                          StructureTable(sig, block.dim, block.cells)))
    return cases


def slow_report(table):
    """(ok, errata, eta, missing) of table by the cell-walking route."""
    missing = _missing_reports(table)
    if not isinstance(table.dim, int):
        return False, ["table dimension %r is not an int" % (table.dim,)], None, missing
    if table.dim < 1:
        return False, ["table dimension %d is not positive" % table.dim], None, missing
    errata = _walk_errata(table)
    if errata:
        return False, errata, None, missing
    eta, errata = _solve_eta(table)
    if not errata:
        errata = verify_generators(table.sig, reconstruct_J(table, eta), eta)
    return not errata, errata, eta, missing


def base_tables():
    """(name, table) for every golden, configured and grid table."""
    out = [("golden %d %d" % key, golden_table(*key)) for key in golden_signatures()]
    out += [("configured %d %d" % key, generate_table(Signature(*key)))
            for key in configured_signatures()]
    out += [("grid %d %d" % (r, s), derive_table(Signature(r, s)))
            for r in range(9) for s in range(9) if r + s]
    return out


def _pair_damage(table, rng):
    """(kind, table) for damage at one pair of cells drawn by rng: one
    cell flipped, the pair flipped, the pair's k changed, the pair with
    coefficient +-2, the pair deleted, and its first cell moved to row 0
    or to the row past the table."""
    n, dim = table.sig.n, table.dim
    a, b = rng.choice(sorted(table.cells))
    k, s = table.cells[(a, b)]
    other = k % n + 1 if n > 1 else n + 1
    out = []
    for kind, first, second in (("cell flip", (k, -s), (k, -s)),
                                ("pair flip", (k, -s), (k, s)),
                                ("changed k of a pair", (other, s), (other, -s)),
                                ("non-unit pair", (k, 2 * s), (k, -2 * s)),
                                ("deleted pair", None, None)):
        cells = dict(table.cells)
        for cell, value in (((a, b), first), ((b, a), second)):
            if value is None or cell not in cells:
                cells.pop(cell, None)
            else:
                cells[cell] = value
        out.append((kind, table._replace(cells=cells)))
    for row in (0, dim + 1):
        cells = dict(table.cells)
        cells[(row, b)] = cells.pop((a, b))
        out.append(("cell moved to row %d" % row, table._replace(cells=cells)))
    return out


def _flip_pairs(table, pairs):
    """table with the signs of both cells of each pair (a, b) flipped."""
    cells = dict(table.cells)
    for a, b in pairs:
        for cell in ((a, b), (b, a)):
            k, s = cells[cell]
            cells[cell] = (k, -s)
    return table._replace(cells=cells)


def _two_pair_flips(table, rng):
    """(kind, table) for the sign flips of two pairs of cells drawn by
    rng: both pairs holding one z_k, when some z_k has two, and pairs
    holding two different z's, when n >= 2.  The shape is kept."""
    by_k = {}
    for (a, b), (k, _s) in sorted(table.cells.items()):
        if a < b:
            by_k.setdefault(k, []).append((a, b))
    out = []
    crowded = [k for k in sorted(by_k) if len(by_k[k]) >= 2]
    if crowded:
        pairs = rng.sample(by_k[rng.choice(crowded)], 2)
        out.append(("two pairs of one z flipped", _flip_pairs(table, pairs)))
    if len(by_k) >= 2:
        k, l = rng.sample(sorted(by_k), 2)
        pairs = [rng.choice(by_k[k]), rng.choice(by_k[l])]
        out.append(("two pairs of two z's flipped", _flip_pairs(table, pairs)))
    return out


def stale_pairs_table():
    """The (2, 0) reference table after two pairs of z1 cells that its
    own z1 cells override in a map built in cell order: rows v1 to v4
    hold z1 twice, in n N + 4 cells."""
    table = golden_table(2, 0)
    stale = {(1, 2): (1, 1), (2, 1): (1, -1), (3, 4): (1, 1), (4, 3): (1, -1)}
    assert not stale.keys() & table.cells.keys()
    return table._replace(cells={**stale, **table.cells})


def float_index_tables():
    """A (1, 0) table with a float dim, z index, row or column."""
    sig = Signature(1, 0)
    return [StructureTable(sig, 2.0, {(1, 2): (1, 1), (2, 1): (1, -1)}),
            StructureTable(sig, 2, {(1, 2): (1.0, 1), (2, 1): (1.0, -1)}),
            StructureTable(sig, 2, {(1.0, 2): (1, 1), (2, 1): (1, -1)}),
            StructureTable(sig, 2, {(1, 2.0): (1, 1), (2, 1): (1, -1)})]


def cycle_table(sig, dim):
    """A table whose z1 cells run round a cycle, v_a to v_(a+1) with +1
    and v_dim back to v_1 with -1, every mirror cell missing: each row
    and column holds z1 once, so the cell walk passes, yet R_1 is total
    without squaring to -Id."""
    cells = {(a, a + 1): (1, 1) for a in range(1, dim)}
    cells[(dim, 1)] = (1, -1)
    return StructureTable(sig, dim, cells, frozenset((b, a) for a, b in cells))


def walk_passing_tables(seed, count):
    """count seeded tables of dim 2-7 and n 1-4 that pass the cell walk:
    the cells of each z_k follow a random injective map a -> b with
    about one cell in seven left out, half the mirrors not stored are
    marked missing, and a row or column that lacks some z_k and has no
    hole gets one.  Their maps are often partial, and some are total
    without squaring to -Id."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(1, 4)
        r = rng.randint(0, n)
        dim = rng.randint(2, 7)
        cells = {}
        for k in range(1, n + 1):
            images = rng.sample(range(1, dim + 1), dim)
            for a, b in enumerate(images, start=1):
                if b != a and (a, b) not in cells and rng.random() > 0.15:
                    cells[(a, b)] = (k, rng.choice((1, -1)))
        missing = {(b, a) for a, b in cells
                   if (b, a) not in cells and rng.random() < 0.5}
        for k in range(1, n + 1):
            for side in (0, 1):
                for x in range(1, dim + 1):
                    if any(key[side] == x for key in missing) or any(
                            key[side] == x and kk == k for key, (kk, _s) in cells.items()):
                        continue
                    free = [key for key in ((x, y) if side == 0 else (y, x)
                                            for y in range(1, dim + 1) if y != x)
                            if key not in cells]
                    if free:
                        missing.add(rng.choice(free))
        table = StructureTable(Signature(r, n - r), dim, cells, frozenset(missing))
        if not _walk_errata(table):
            out.append(table)
    return out


def report_cases(seed=18):
    """(name, table) for every case slow_report is held against, each
    name its own: the referee cases come first, named "referee, " and
    their own name, as their bases are among the base tables."""
    rng = random.Random(seed)
    cases = [("referee, " + name, table) for name, table in referee_cases()]
    for name, table in base_tables():
        cases.append((name, table))
        cases += [("%s, %s" % (name, kind), t) for kind, t in _pair_damage(table, rng)]
    cases += [("float index %d" % i, t) for i, t in enumerate(float_index_tables())]
    cases.append(("golden 2 0 after stale pairs", stale_pairs_table()))
    for name, table in base_tables():
        cases += [("%s, %s" % (name, kind), t) for kind, t in _two_pair_flips(table, rng)]
    # (5, 1) holds a zero cell as missing, yet its maps are total: one
    # pair of each z_k flipped.
    holed = golden_table(5, 1)
    for k in range(1, holed.sig.n + 1):
        pair = rng.choice(sorted((a, b) for (a, b), (kk, _s) in holed.cells.items()
                                 if kk == k and a < b))
        cases.append(("golden 5 1, pair of z%d flipped" % k, _flip_pairs(holed, [pair])))
    # Total maps that are not skew; the odd cycle under (0, 1) meets a
    # norm-sign conflict first.
    for key, dim in (((1, 0), 3), ((0, 1), 3), ((0, 1), 4)):
        cases.append(("%d-cycle under %s" % (dim, key), cycle_table(Signature(*key), dim)))
    return cases


def brute_compare(left, right):
    """(status, sigma, diffs) that compare_tables(left, right) must
    return.  Cells that are holes on either side are left out.  When the
    dims are ints, the dims and the n agree and no cell lies outside
    1..dim or holds z_k for k outside 1..n or a coefficient other than
    +-1, each sigma with sigma_1 = +1 is tried, the
    all-plus one first and then in decreasing lexicographic order, and
    the first that takes every left cell to the right one wins.  Where
    sigma is not unique, the first has +1 on the smallest vertex of each
    set of vertices the cells link, as flipping such a set alone keeps it
    valid.  Else the tables are unmatched, and the diffs are the cells
    that differ or break one of those rules, every cell when a dim is
    not an int, sorted."""
    keys = sorted((left.cells.keys() | right.cells.keys()) - left.missing - right.missing)
    ints = isinstance(left.dim, int) and isinstance(right.dim, int)
    inside = range(1, left.dim + 1) if ints else ()
    central = range(1, left.sig.n + 1)
    values = [(key, left.cells.get(key), right.cells.get(key)) for key in keys]
    stray = [key[0] not in inside or key[1] not in inside
             or any(v is not None and (v[0] not in central or v[1] not in (1, -1))
                    for v in pair)
             for key, *pair in values]
    if ints and left.dim == right.dim and left.sig.n == right.sig.n and not any(stray):
        dim = left.dim
        for bits in range(2 ** (dim - 1)):
            sigma = (1,) + tuple(-1 if bits >> (dim - 2 - i) & 1 else 1
                                 for i in range(dim - 1))
            if all(mine is not None
                   and theirs == (mine[0], mine[1] * sigma[a - 1] * sigma[b - 1])
                   for (a, b), mine, theirs in values):
                return (EXACT if bits == 0 else SIGN_EQUIVALENT), sigma, ()
    diffs = tuple(value for value, odd in zip(values, stray)
                  if odd or value[1] != value[2])
    return UNMATCHED, None, diffs


def comparison_cases(seed=8):
    """(name, left, right) for every pair brute_compare judges: each
    referee base against itself, a sign-changed copy and that copy with
    every cell of v_1 a hole against it both ways, and two rounds of its
    seeded damage against it and against the copy."""
    rng = random.Random(seed)
    cases = []
    for name, table in _referee_bases():
        sigma = [rng.choice((1, -1)) for _ in range(table.dim)]
        signed = table._replace(cells={(a, b): (k, s * sigma[a - 1] * sigma[b - 1])
                                       for (a, b), (k, s) in table.cells.items()})
        # Holes at every cell of v_1 cut it off, so sigma_1 leaves the
        # others free and their smallest vertex starts at +1.
        cut = {cell for cell in signed.cells if 1 in cell}
        isolated = signed._replace(cells={c: v for c, v in signed.cells.items()
                                          if c not in cut}, missing=signed.missing | cut)
        cases += [(name, table, table), (name + ", signed", table, signed),
                  (name + ", signed, reversed", signed, table),
                  (name + ", v1 cut off", table, isolated),
                  (name + ", v1 cut off, reversed", isolated, table)]
        for _round in range(2):
            for kind, damaged in _damaged(table, rng):
                cases.append(("%s, %s" % (name, kind), table, damaged))
                cases.append(("%s, %s, against signed" % (name, kind), damaged, signed))
    return cases
