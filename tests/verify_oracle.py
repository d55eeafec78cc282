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
"""

import random
from dataclasses import replace

from dense_oracle import (clifford_failures, identity, mat_mul, mat_neg,
                          mat_scale, metric_adjoint, zeros)
from htype.basis_builder import configured_signatures
from htype.golden import build_n07, golden_signatures, golden_table, split_blocks
from htype.lie_algebra import StructureTable, generate_table
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
    out.append(("cell flip", replace(table, cells=cells)))
    if mirror:
        cells = dict(cells)
        cells[(b, a)] = (k, s)
        out.append(("pair flip", replace(table, cells=cells)))

    if mirror:
        cells = dict(table.cells)
        cells[(a, b)], cells[(b, a)] = (k, 2 * s), (k, -2 * s)
        out.append(("non-unit pair", replace(table, cells=cells)))

    cells = dict(table.cells)
    cells[(a, b)] = (rng.choice([x for x in range(n + 2) if x != k]), s)
    out.append(("changed k", replace(table, cells=cells)))
    if n >= 2 and mirror:
        other = rng.choice([x for x in range(1, n + 1) if x != k])
        cells = dict(table.cells)
        cells[(a, b)], cells[(b, a)] = (other, s), (other, -s)
        out.append(("changed k of a pair", replace(table, cells=cells)))

    cells = dict(table.cells)
    del cells[(a, b)]
    cells[(a, rng.choice([x for x in range(1, dim + 2) if x != b]))] = (k, s)
    out.append(("moved cell", replace(table, cells=cells)))

    cells = dict(table.cells)
    del cells[(a, b)]
    cells.pop((b, a), None)
    out.append(("deleted pair", replace(table, cells=cells)))

    cells = dict(table.cells)
    del cells[(a, b)]
    out.append(("missing cell", replace(
        table, cells=cells, missing=table.missing | {(a, b)})))
    if zero:
        hole = rng.choice(zero)
        out.append(("missing zero cell",
                    replace(table, missing=table.missing | {hole})))

    out.append(("mirror signature",
                replace(table, sig=Signature(table.sig.s, table.sig.r))))
    out.append(("dim + 1", replace(table, dim=dim + 1)))
    out.append(("dim 0", replace(table, dim=0)))
    out.append(("dim -1", replace(table, dim=-1)))
    return out


def referee_cases(seed=83):
    """(name, table) for every case the referee judges."""
    rng = random.Random(seed)
    bases = []
    for key in configured_signatures():
        table = generate_table(Signature(*key))
        if table.dim <= 8:
            bases.append(("configured %d %d" % key, table))
    for key in golden_signatures():
        table = golden_table(*key)
        if table.dim <= 8:
            bases.append(("golden %d %d" % key, table))
    cases = []
    for name, table in bases:
        cases.append((name, table))
        for _round in range(2):
            cases += [("%s, %s" % (name, kind), t)
                      for kind, t in _damaged(table, rng)]
    for i, block in enumerate(split_blocks(build_n07(), Signature(7, 0)), start=1):
        for sig in (Signature(7, 0), Signature(0, 7)):
            cases.append(("n07 block %d as %s" % (i, sig),
                          StructureTable(sig, block.dim, block.cells)))
    return cases
