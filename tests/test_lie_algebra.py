import hashlib
import json
import random
from collections import Counter
from dataclasses import replace
from itertools import product

import pytest

from conftest import coset_reps, mask_letters, random_signature
from dense_oracle import (
    build_basis,
    build_generators,
    clifford_failures,
    compute_table,
    dense_pipeline,
    is_signed_permutation,
    matrix,
    mat_neg,
    metric_adjoint,
    reconstruct_J as cell_by_cell_J,
)
from htype.basis_builder import (ReferenceConfig, configured_signatures,
                                 has_reference_config, reference_config)
from htype.clifford_rep import find_involution_system, minimal_admissible_dimension
from htype import lie_algebra
from htype.golden import golden_signatures, golden_table
from htype.lie_algebra import (
    EXACT,
    SIGN_EQUIVALENT,
    UNMATCHED,
    StructureTable,
    _coset_words,
    _table_from_words,
    _walk_errata,
    cell_errata,
    compare_tables,
    derive_table,
    generate_table,
    reconstruct_J,
    verify_htype,
)
from htype.words import Involution, Signature, Word, letter_mask, span_products
from verify_oracle import (base_tables, brute_compare, comparison_cases, cycle_table,
                           is_htype, referee_cases, report_cases, slow_report,
                           walk_passing_tables)

# sha256 of json [dim, sorted cells] for the scale ladder's derived
# tables past the CLI cap, where tests/cli_digests.json stops.  A
# rewrite of the construction has to reproduce them byte for byte.
LADDER_DIGESTS = {
    (5, 3): "f27293946fc74f94869effcf6052e8f48e47f0002fb3588f0fa75862e0bb7088",
    (5, 5): "47ae3dce8b05a7274ce4dd445c0318cfcc3e5cb1b3536cb9869336c550f9d147",
    (4, 6): "1b02bb2b966f0c45bdf5b547f4a070a91f4f0458a6fbf7e31c7549361fef4674",
    (6, 6): "37ecec18b56299fc0e04ccfb25e95c26893681c649584069b476352b40ba957b",
    (8, 7): "878769c5f61303e8505d0402b0554d68ec2f8bd7dbefe16b5d686592880665ce",
    (8, 8): "daac7d006dc1e3e877b6eb1eec8d1dca904719765822f73e3367aa20677492fc",
}


def test_generate_n10_hand_table():
    t = generate_table(Signature(1, 0))
    assert t.sig == Signature(1, 0)
    assert t.dim == 2
    assert t.cells == {(1, 2): (1, 1), (2, 1): (1, -1)}
    # e_0 goes to e_1 at index 2, -e_0 to -e_1 at 3, e_1 to -e_0 at 1.
    assert reconstruct_J(t, (1, 1)) == [(2, 3, 1, 0, 4)]
    assert matrix(reconstruct_J(t, (1, 1))[0]) == [[0, -1], [1, 0]]
    assert verify_htype(t).ok


def test_generate_n20_hand_table():
    t = generate_table(Signature(2, 0))
    assert t.dim == 4
    assert t.sorted_cells() == [
        (1, 3, 1, 1), (1, 4, 2, 1), (2, 3, 2, -1), (2, 4, 1, 1),
        (3, 1, 1, -1), (3, 2, 2, 1), (4, 1, 2, -1), (4, 2, 1, -1)]
    assert verify_htype(t).ok


def test_structure_table_accessors():
    t = generate_table(Signature(2, 0))
    assert t.entry(1, 3) == (1, 1)
    assert t.entry(1, 2) is None


def test_tables_are_antisymmetric():
    for key in ((3, 0), (2, 2), (0, 5), (4, 4)):
        t = generate_table(Signature(*key))
        for (a, b), (k, s) in t.cells.items():
            assert t.cells[(b, a)] == (k, -s)
            assert a != b


def test_compute_table_from_parts():
    sig = Signature(3, 0)
    config = reference_config(sig)
    gens = build_generators(sig, system=config.involutions)
    vectors = build_basis(gens, config)
    t = compute_table(gens, vectors, label="by hand")
    assert t.label == "by hand"
    assert t == replace(generate_table(sig), label="by hand")


def test_compute_table_rejects_a_frame_not_onto_the_module():
    """A frame of the right length with one point repeated or one point
    past the module, and a frame one vector short, all fail to hit every
    module point once."""
    sig = Signature(3, 0)
    gens = build_generators(sig, system=reference_config(sig).involutions)
    frame = [(a, 1) for a in range(gens.dim)]
    assert compute_table(gens, frame).dim == gens.dim
    for bad in (frame[:-1] + [frame[0]], frame[:-1] + [(gens.dim, 1)],
                frame[:-1]):
        with pytest.raises(ValueError):
            compute_table(gens, bad)


def test_verify_rejects_zeroed_pair():
    t = generate_table(Signature(1, 0))
    cells = dict(t.cells)
    del cells[(1, 2)]
    del cells[(2, 1)]
    report = verify_htype(replace(t, cells=cells))
    assert not report.ok
    assert any("z1" in e for e in report.errata)
    assert any("never reaches" in e for e in report.errata)


def test_walk_errata_names_each_shape_defect_in_order():
    """Moving the pair (1, 4), (4, 1) of the (2, 0) table from z2 to z1
    keeps every cell rule, so the walk runs: z1 lands twice in rows v1
    and v4 and in columns v1 and v4, and z2 leaves them.  A missing cell
    (v1, v2) excuses row v1 and column v2 only."""
    t = generate_table(Signature(2, 0))
    cells = dict(t.cells)
    assert cells[(1, 4)] == (2, 1) and cells[(4, 1)] == (2, -1)
    cells[(1, 4)], cells[(4, 1)] = (1, 1), (1, -1)
    damaged = replace(t, cells=cells)
    assert _walk_errata(damaged) == [
        "z1 appears twice in row v1",
        "z1 appears twice in column v4",
        "z1 appears twice in column v1",
        "z1 appears twice in row v4",
        "row v1 never reaches z2",
        "column v1 never receives z2",
        "row v4 never reaches z2",
        "column v4 never receives z2",
    ]
    assert verify_htype(damaged).errata == _walk_errata(damaged)
    holed = replace(damaged, missing=frozenset({(1, 2)}))
    assert _walk_errata(holed) == [
        "z1 appears twice in row v1",
        "z1 appears twice in column v4",
        "z1 appears twice in column v1",
        "z1 appears twice in row v4",
        "column v1 never receives z2",
        "row v4 never reaches z2",
        "column v4 never receives z2",
    ]


def test_verify_rejects_broken_antisymmetry():
    t = generate_table(Signature(1, 0))
    cells = dict(t.cells)
    cells[(1, 2)] = (1, -1)
    report = verify_htype(replace(t, cells=cells))
    assert not report.ok
    assert any("break antisymmetry" in e for e in report.errata)
    assert any("(v1, v2)" in e for e in report.errata)


def test_verify_rejects_unknown_central():
    t = generate_table(Signature(1, 0))
    cells = dict(t.cells)
    cells[(1, 2)] = (2, 1)
    cells[(2, 1)] = (2, -1)
    report = verify_htype(replace(t, cells=cells))
    assert not report.ok
    assert any("unknown central z2" in e for e in report.errata)


def test_verify_rejects_diagonal_cell():
    t = generate_table(Signature(1, 0))
    cells = dict(t.cells)
    cells[(1, 1)] = (1, 1)
    report = verify_htype(replace(t, cells=cells))
    assert not report.ok
    assert any("diagonal" in e for e in report.errata)


def test_verify_catches_consistent_sign_flip():
    t = generate_table(Signature(3, 0))
    cells = dict(t.cells)
    k, s = cells[(1, 2)]
    cells[(1, 2)] = (k, -s)
    cells[(2, 1)] = (k, s)
    report = verify_htype(replace(t, cells=cells))
    assert not report.ok
    assert any("anticommute" in e for e in report.errata)


def test_missing_cell_with_present_partner_gets_a_suggestion():
    t = generate_table(Signature(2, 0))
    cells = dict(t.cells)
    del cells[(1, 3)]
    report = verify_htype(replace(t, cells=cells,
                                  missing=frozenset({(1, 3)})))
    assert [(m.cell, m.suggestion) for m in report.missing] == [((1, 3), (1, 1))]
    assert not report.ok
    assert any("signed permutation" in e for e in report.errata)


def test_missing_pair_has_no_determined_value():
    t = generate_table(Signature(2, 0))
    cells = dict(t.cells)
    del cells[(1, 3)]
    del cells[(3, 1)]
    report = verify_htype(replace(t, cells=cells,
                                  missing=frozenset({(1, 3), (3, 1)})))
    assert [(m.cell, m.suggestion) for m in report.missing] == [
        ((1, 3), None), ((3, 1), None)]
    assert not report.ok


def test_verify_rejects_a_dimension_that_is_not_positive():
    for dim in (0, -1):
        for cells in ({}, {(1, 2): (1, 1), (2, 1): (1, -1)}):
            report = verify_htype(StructureTable(Signature(1, 0), dim, cells))
            assert not report.ok
            assert report.errata == ["table dimension %d is not positive" % dim]


def test_verify_names_a_cell_whose_index_is_not_an_int():
    """A float equal to an int, as the z index or either index of the
    cell key, gets an erratum naming its cell, where it used to reach an index of
    reconstruct_J and raise TypeError; as the dimension, it gets one
    erratum of its own, where it used to reach a range."""
    sig = Signature(1, 0)
    report = verify_htype(StructureTable(sig, 2.0, {(1, 2): (1, 1), (2, 1): (1, -1)}))
    assert report.errata == ["table dimension 2.0 is not an int"]
    for cells, cited in (({(1, 2): (1.0, 1), (2, 1): (1.0, -1)}, ["v1, v2", "v2, v1"]),
                         ({(1.0, 2): (1, 1), (2, 1): (1, -1)}, ["v1.0, v2"]),
                         ({(1, 2.0): (1, 1), (2, 1): (1, -1)}, ["v1, v2.0"])):
        table = StructureTable(sig, 2, cells)
        errata = ["cell (%s) has a key or z index that is not an int" % c
                  for c in cited]
        assert cell_errata(table) == errata
        report = verify_htype(table)
        assert not report.ok
        assert report.errata == errata


def test_verify_htype_agrees_with_the_brute_force_referee(monkeypatch):
    """verify_htype's verdict against verify_oracle.is_htype on 1,164
    tables: the 44 configured and golden tables of dim <= 8, each with
    two rounds of seeded damage, and the (0, 7) blocks as (7, 0) and
    (0, 7).  The shape check over the signed-point maps, seen as
    verify_htype making no call of the cell walk, holds exactly when the
    walk over the cells finds nothing, on every table with a positive
    dim and no missing cell."""
    walks = []

    def walk(table):
        walks.append(table)
        return _walk_errata(table)
    monkeypatch.setattr(lie_algebra, "_walk_errata", walk)
    cases = referee_cases()
    assert len(cases) == 1164
    seen = Counter()
    for name, table in cases:
        walks.clear()
        ok = verify_htype(table).ok
        assert ok == is_htype(table), name
        holds = table.dim >= 1 and not walks
        if holds:
            assert _walk_errata(table) == [], name
        elif table.dim >= 1 and not table.missing:
            assert _walk_errata(table) != [], name
        seen[ok, holds] += 1
    # (verdict, shape check) counts; a valid table with a missing zero
    # cell fails the shape check and passes the walk.
    assert seen == {(True, True): 88, (True, False): 66,
                    (False, True): 136, (False, False): 874}


def test_verify_htype_reports_what_the_cell_walk_reports():
    """The whole report, verdict, errata, norm signs and missing cells,
    equals that of verify_oracle.slow_report, which walks the cells,
    propagates the norm signs over adjacency lists and rebuilds the
    generators cell by cell and checks them point by point, on 2,618
    tables: the referee cases, the 145 golden, configured and grid tables
    with seven kinds of seeded damage each, the tables with a float
    index, a table whose early cells later ones override, 280 sign flips
    of two pairs of cells in one z_k or in two (each of the 145 tables
    gets each kind that fits it), six one-pair flips of (5, 1), whose
    missing zero cell leaves its maps total, and three cycle tables.
    The flips keep the shape, so they reach the pair relations on the
    raw maps; missing cells leave some maps partial, and two cycles
    leave a total map that is not skew."""
    cases = report_cases()
    assert len(cases) == 2618
    verdicts, kinds = Counter(), Counter()
    for name, table in cases:
        report = verify_htype(table)
        assert (report.ok, report.errata, report.eta, report.missing) == \
            slow_report(table), name
        verdicts[report.ok] += 1
        kinds.update(e.split(" ", 1)[1] for e in report.errata
                     if e.endswith(("permutation", "solved norms")))
    assert verdicts == {True: 326, False: 2292}
    assert kinds["is not skew for the solved norms"] == 2
    assert kinds["does not act by a signed permutation"] > 0


@pytest.mark.parametrize("r, s", [(2, 0), (1, 1), (0, 2)])
def test_every_dim_4_table_with_two_central_elements(r, s):
    """The census of dim 4 at n = 2: zero or (k, +-1) on each of the six
    pairs a < b, the mirror cell filled in, so 5^6 = 15,625 tables.
    verify_htype agrees with the brute-force referee on every one, and
    48 are valid."""
    sig = Signature(r, s)
    pairs = [(a, b) for a in range(1, 5) for b in range(a + 1, 5)]
    values = [None] + [(k, sign) for k in (1, 2) for sign in (1, -1)]
    valid = 0
    for choice in product(values, repeat=len(pairs)):
        cells = {}
        for (a, b), val in zip(pairs, choice):
            if val is not None:
                cells[(a, b)] = val
                cells[(b, a)] = (val[0], -val[1])
        table = StructureTable(sig, 4, cells)
        ok = verify_htype(table).ok
        assert ok == is_htype(table), sorted(cells.items())
        valid += ok
    assert valid == 48


def test_only_a_table_with_a_missing_cell_is_walked(monkeypatch):
    """Of the golden, configured and grid tables, which all verify, only
    golden (5, 1), the one with a missing cell, takes the cell walk, and
    none needs the adjacency walk to name a norm-sign conflict."""
    calls = Counter()

    def counted(name):
        inner = getattr(lie_algebra, name)

        def wrapper(table):
            calls[name] += 1
            return inner(table)
        return wrapper

    for name in ("_walk_errata", "_solve_eta"):
        monkeypatch.setattr(lie_algebra, name, counted(name))
    tables = base_tables()
    assert len(tables) == 145
    for name, table in tables:
        calls.clear()
        assert verify_htype(table).ok, name
        expect = {"_walk_errata": 1} if name == "golden 5 1" else {}
        assert calls == expect, name
    assert [name for name, table in tables if table.missing] == ["golden 5 1"]


def test_a_partial_map_names_its_failed_square():
    """A map left partial by a missing pair fails its square at the
    points it does not reach, named as a square failure."""
    t = derive_table(Signature(2, 0))
    assert t.cells[(1, 2)] == (1, 1)
    cells = {key: val for key, val in t.cells.items() if key not in ((1, 2), (2, 1))}
    report = verify_htype(replace(t, cells=cells, missing=frozenset({(1, 2), (2, 1)})))
    assert report.errata == ["z1 does not act by a signed permutation",
                             "z1 square fails at v1", "z1 square fails at v2",
                             "z1 and z2 do not anticommute"]


def test_a_cycle_names_a_total_map_that_is_not_skew():
    """A 3-cycle of z1 cells with its mirrors missing passes the cell
    walk with R_1 total: under (1, 0) J_1 is not skew and its square
    fails through the cycle's cells, and under (0, 1) the cycle forces
    eta_1 = -eta_1."""
    report = verify_htype(cycle_table(Signature(1, 0), 3))
    assert report.eta == (1, 1, 1)
    assert report.errata == [
        "z1 is not skew for the solved norms",
        "z1 square fails through cells (v1, v2) and (v2, v3)",
        "z1 square fails through cells (v2, v3) and (v3, v1)",
        "z1 square fails through cells (v3, v1) and (v1, v2)"]
    report = verify_htype(cycle_table(Signature(0, 1), 3))
    assert report.errata == ["norm signs conflict at cell (v3, v1)"]


def test_tables_with_holes_report_what_the_cell_walk_reports():
    """On 600 seeded tables that pass the cell walk with holes, with
    maps partial, total without squaring to -Id or whole, the report of
    verify_htype equals verify_oracle.slow_report's, and every branch
    of the Clifford check is met."""
    kinds, verdicts = set(), Counter()
    for table in walk_passing_tables(20, 600):
        report = verify_htype(table)
        assert (report.ok, report.errata, report.eta, report.missing) == \
            slow_report(table), table
        verdicts[report.ok] += 1
        kinds.update(e.split(" ", 1)[1][:14] for e in report.errata)
    assert verdicts[True] and verdicts[False]
    assert {"does not act b", "is not skew fo", "square fails a",
            "square fails t", "and z2 do not ", "norms have sig",
            "signs conflict"} <= kinds


def test_reconstruct_j_equals_the_cell_by_cell_oracle():
    """reconstruct_J equals dense_oracle.reconstruct_J on the 34
    configured and 80 grid tables, on the (5, 1) reference table, whose
    missing cell sends it down the cell walk, and on the (2, 0) table
    with a missing pair, whose maps are partial."""
    tables = [generate_table(Signature(*key)) for key in configured_signatures()]
    tables += [derive_table(Signature(r, s))
               for r in range(9) for s in range(9) if r + s]
    tables.append(golden_table(5, 1))
    assert len(tables) == 115 and tables[-1].missing
    for table in tables:
        report = verify_htype(table)
        assert report.ok, table.sig
        assert reconstruct_J(table, report.eta) == \
            cell_by_cell_J(table, report.eta), table.sig
    t = generate_table(Signature(2, 0))
    cells = {key: val for key, val in t.cells.items() if key not in ((1, 3), (3, 1))}
    holed = replace(t, cells=cells, missing=frozenset({(1, 3), (3, 1)}))
    eta = verify_htype(holed).eta
    partial = reconstruct_J(holed, eta)
    assert partial == cell_by_cell_J(holed, eta)
    assert [[x for x in range(8) if m[x] == 8] for m in partial] == [[0, 1, 4, 5], []]


def test_reconstructed_generators_satisfy_the_axioms():
    sig = Signature(4, 2)
    t = generate_table(sig)
    report = verify_htype(t)
    assert report.ok
    mats = [matrix(op) for op in reconstruct_J(t, report.eta)]
    assert len(mats) == sig.n
    form = list(report.eta)
    for m in mats:
        assert is_signed_permutation(m)
        assert metric_adjoint(m, form) == mat_neg(m)
    assert clifford_failures(mats, sig) == []


def test_compare_tables_equal_and_flipped():
    t = generate_table(Signature(2, 0))
    assert compare_tables(t, t).status == EXACT
    sigma = (1, -1, 1, -1)
    flipped = {(a, b): (k, s * sigma[a - 1] * sigma[b - 1])
               for (a, b), (k, s) in t.cells.items()}
    cmp = compare_tables(t, replace(t, cells=flipped))
    assert cmp.status == SIGN_EQUIVALENT
    assert cmp.sigma == sigma


def test_compare_tables_different():
    t = generate_table(Signature(2, 0))
    cells = dict(t.cells)
    cells[(1, 3)] = (2, 1)
    cells[(3, 1)] = (2, -1)
    assert compare_tables(t, replace(t, cells=cells)).status == UNMATCHED
    assert compare_tables(generate_table(Signature(1, 0)), t).status == UNMATCHED


def test_compare_tables_skips_missing_cells():
    t = generate_table(Signature(2, 0))
    cells = dict(t.cells)
    del cells[(1, 3)]
    partial = replace(t, cells=cells, missing=frozenset({(1, 3)}))
    assert compare_tables(t, partial).status == EXACT


def _signed(table, sigma):
    """The cells of table after v_a -> sigma_a v_a."""
    return {(a, b): (k, s * sigma[a - 1] * sigma[b - 1])
            for (a, b), (k, s) in table.cells.items()}


def _checked_comparison(left, right):
    """compare_tables(left, right), checked against its contract: a match
    carries a sigma that takes left to right on every cell that is not a
    hole, and no diffs; an unmatched result carries no sigma and exactly
    the differing cells, sorted, counting every cell outside 1..dim and
    every cell holding a z_k with k outside 1..n."""
    cmp = compare_tables(left, right)
    holes = left.missing | right.missing
    keys = sorted((left.cells.keys() | right.cells.keys()) - holes)
    inside = range(1, left.dim + 1)
    central = range(1, left.sig.n + 1)
    if cmp.status == UNMATCHED:
        assert cmp.sigma is None
        assert cmp.diffs == tuple(
            (key, left.cells.get(key), right.cells.get(key)) for key in keys
            if left.cells.get(key) != right.cells.get(key)
            or key[0] not in inside or key[1] not in inside
            or any(val is not None and val[0] not in central
                   for val in (left.cells.get(key), right.cells.get(key))))
    else:
        assert cmp.status in (EXACT, SIGN_EQUIVALENT)
        assert cmp.diffs == ()
        assert len(cmp.sigma) == left.dim and cmp.sigma[0] == 1
        assert (cmp.status == EXACT) == all(x == 1 for x in cmp.sigma)
        moved = _signed(left, cmp.sigma)
        for key in keys:
            assert moved.get(key) == right.cells.get(key), key
    return cmp.status


def test_compare_tables_on_damaged_golden_tables():
    """Seeded damage on all 31 embedded tables: sign changes, holes on
    one side, single-cell flips, changed k, deleted cells, random pair
    flips, the same cells under a larger centre, and a table of another
    signature."""
    rng = random.Random(2029)
    keys = golden_signatures()
    assert len(keys) == 31
    seen = set()
    for index, key in enumerate(keys):
        table = golden_table(*key)
        n = table.sig.n
        cells = sorted(table.cells)
        sigma = [rng.choice((1, -1)) for _ in range(table.dim)]
        signed = replace(table, cells=_signed(table, sigma))
        hole = rng.choice(cells)
        holed = dict(signed.cells)
        del holed[hole]
        holed = replace(signed, cells=holed, missing=table.missing | {hole})

        matched = [(table, table), (table, signed), (signed, table),
                   (table, holed), (holed, table)]
        for left, right in matched:
            status = _checked_comparison(left, right)
            assert status != UNMATCHED, (key, status)
            seen.add(status)

        flipped = dict(signed.cells)
        k, s = flipped[hole]
        flipped[hole] = (k, -s)
        deleted = dict(signed.cells)
        del deleted[hole]
        unmatched = [flipped, deleted]
        if n > 1:
            relabelled = dict(signed.cells)
            relabelled[hole] = (k % n + 1, s)
            unmatched.append(relabelled)
        for damaged in unmatched:
            status = _checked_comparison(table, replace(table, cells=damaged))
            assert status == UNMATCHED, key
            seen.add(status)

        for _ in range(4):
            shuffled = dict(signed.cells)
            for a, b in rng.sample(cells, rng.randint(1, min(3, len(cells)))):
                for cell in ((a, b), (b, a)):
                    if cell in shuffled:
                        k, s = shuffled[cell]
                        shuffled[cell] = (k, -s)
            _checked_comparison(table, replace(table, cells=shuffled))

        wider = replace(table, sig=Signature(key[0] + 1, key[1]))
        assert _checked_comparison(table, wider) == UNMATCHED
        other = golden_table(*keys[(index + 1) % len(keys)])
        assert _checked_comparison(table, other) == UNMATCHED
        assert _checked_comparison(other, holed) == UNMATCHED
    assert seen == {EXACT, SIGN_EQUIVALENT, UNMATCHED}

    # The only cell of v_1 is a hole, so sigma_2 is reached through the
    # mirror cell (v2, v1) alone.
    table = golden_table(1, 0)
    signed = _signed(table, (1, -1))
    del signed[(1, 2)]
    holed = replace(table, cells=signed, missing=frozenset({(1, 2)}))
    assert _checked_comparison(table, holed) == SIGN_EQUIVALENT
    assert compare_tables(table, holed).sigma == (1, -1)


def test_compare_tables_agrees_with_the_brute_force_referee():
    """compare_tables returns the status, sigma and diffs that
    verify_oracle.brute_compare finds by trying every sigma, on 2,452
    pairs: each of the 44 configured and golden tables of dim <= 8
    against itself, against a sign-changed copy and that copy with v_1
    cut off by holes, both ways, and against two rounds of its seeded
    damage, plain and against the copy.  The 88 cut-off pairs leave
    sigma free on one set of vertices, so they pin which sigma wins."""
    cases = comparison_cases()
    assert len(cases) == 2452
    seen = Counter()
    for name, left, right in cases:
        cmp = compare_tables(left, right)
        assert (cmp.status, cmp.sigma, cmp.diffs) == brute_compare(left, right), name
        seen[cmp.status] += 1
    assert seen == {EXACT: 326, SIGN_EQUIVALENT: 390, UNMATCHED: 1736}


def test_compare_tables_flags_cells_outside_the_table():
    """A cell past dim, or one holding a z_k past n, is a difference,
    whether both tables hold it or only one does."""
    table = golden_table(1, 0)
    assert table.dim == 2 and table.sig.n == 1
    stray = replace(table, cells={**table.cells, (1, 3): (1, 1)})
    for left, right in ((stray, stray), (table, stray), (stray, table)):
        cmp = compare_tables(left, right)
        assert cmp.status == UNMATCHED
        assert cmp.diffs == (((1, 3), left.cells.get((1, 3)), right.cells.get((1, 3))),)
        assert _checked_comparison(left, right) == UNMATCHED
    unknown = replace(table, cells={(1, 2): (5, 1), (2, 1): (5, -1)})
    for left, right in ((unknown, unknown), (table, unknown), (unknown, table)):
        cmp = compare_tables(left, right)
        assert cmp.status == UNMATCHED
        assert cmp.diffs == tuple((key, left.cells[key], right.cells[key])
                                  for key in ((1, 2), (2, 1)))
        assert _checked_comparison(left, right) == UNMATCHED


def test_generate_table_verifies_for_mixed_signatures():
    for key in ((1, 1), (2, 3), (3, 3), (0, 8), (7, 1)):
        t = generate_table(Signature(*key))
        assert verify_htype(t).ok
        assert t.dim == minimal_admissible_dimension(*key)


def test_derive_table_for_signatures_without_stored_data():
    for key in ((6, 1), (2, 6), (5, 2)):
        t = derive_table(Signature(*key))
        assert t.label == "derived"
        assert verify_htype(t).ok
        assert t.dim == minimal_admissible_dimension(*key)


def test_fast_tables_match_the_dense_oracle():
    """Every r + s <= 8 table equals the one the dense pipeline reads off
    the same generators, and the dense search starts at e_1 each time."""
    keys = [(r, n - r) for n in range(1, 9) for r in range(n + 1)]
    assert len(keys) == 44 and (5, 3) in keys
    for key in keys:
        sig = Signature(*key)
        if has_reference_config(sig):
            config = reference_config(sig)
            fast = generate_table(sig)
        else:
            system = find_involution_system(sig)
            basis_words = tuple(Word(1, mask_letters(rep))
                                for rep in coset_reps(sig, system))
            config = ReferenceConfig(involutions=system, basis_words=basis_words)
            fast = derive_table(sig)
        gens = build_generators(sig, system=config.involutions)
        v, _vectors, dense = dense_pipeline(gens, config)
        e1 = [1] + [0] * (gens.dim - 1)
        assert v == e1, key
        assert dense.cells == fast.cells, key


def test_tables_equal_the_module_route_on_every_input():
    """generate_table and derive_table accept only the 34 configured and
    the 80 grid signatures, as clifford_type stops at r, s = 8.  On each,
    the table written from the sign rule equals the one the module route
    reads off generators that verify_generators has passed, and it
    passes verify_htype."""
    configured = configured_signatures()
    grid = [(r, s) for r in range(9) for s in range(9) if r + s]
    assert (len(configured), len(grid)) == (34, 80)
    for key in configured:
        sig = Signature(*key)
        config = reference_config(sig)
        gens = build_generators(sig, system=config.involutions)
        table = generate_table(sig)
        assert table == compute_table(gens, build_basis(gens, config)), key
        assert verify_htype(table).ok, key
    for key in grid:
        sig = Signature(*key)
        gens = build_generators(sig, system=find_involution_system(sig))
        table = derive_table(sig)
        frame = [(a, 1) for a in range(gens.dim)]
        assert table == compute_table(gens, frame, label="derived"), key
        assert verify_htype(table).ok, key


def test_derived_basis_is_numbered_by_the_coset_reps():
    """derive_table's basis words are conftest.coset_reps of the searched
    system, in order, on all 80 grid signatures; the builder checks that
    they hit each coset once."""
    for key in ((r, s) for r in range(9) for s in range(9) if r + s):
        sig = Signature(*key)
        system = find_involution_system(sig)
        words = [Word(1, mask_letters(rep)) for rep in coset_reps(sig, system)]
        assert len(words) == minimal_admissible_dimension(*key)
        assert _table_from_words(sig, system, words, "derived") == \
            derive_table(sig), key


def test_coset_words_are_the_walks_coset_reps():
    """_coset_words numbers the cosets as conftest.coset_reps, the walk
    over all 2^n letter tuples, does: on seeded random independent
    systems with n <= 12 and any signs and eigensigns, on the 34 stored
    systems, and on two searched systems past the grid, where no
    dimension check runs."""
    rng = random.Random(2323)
    cases = []
    for _ in range(200):
        sig = random_signature(rng, 12)
        system, span = [], {0}
        for _ in range(rng.randint(0, sig.n)):
            letters = tuple(sorted(rng.sample(range(1, sig.n + 1),
                                              rng.randint(1, sig.n))))
            m = letter_mask(letters)
            if m not in span:
                span |= {p ^ m for p in span}
                system.append(Involution(Word(rng.choice((1, -1)), letters),
                                         rng.choice((1, -1))))
        cases.append((sig, system))
    assert {len(system) for _sig, system in cases} >= set(range(9))
    cases += [(Signature(*key), reference_config(Signature(*key)).involutions)
              for key in configured_signatures()]
    for key, size in (((9, 7), 5), ((10, 6), 6)):
        cases.append((Signature(*key), find_involution_system(Signature(*key), size)))
    assert len(cases) == 236
    for sig, system in cases:
        words = _coset_words(sig, system)
        assert [letter_mask(w.letters) for w in words] == coset_reps(sig, system), \
            (sig, system)
        assert {w.sign for w in words} == {1}


def test_derive_table_builds_the_span_once(monkeypatch):
    """The coset numbering reads the pivot rows alone, so derive_table
    builds the span of its system only in _table_from_words."""
    calls = []

    def span(sig, system):
        calls.append(sig)
        return span_products(sig, system)
    monkeypatch.setattr(lie_algebra, "span_products", span)
    for key in ((6, 1), (4, 4), (8, 8)):
        calls.clear()
        derive_table(Signature(*key))
        assert calls == [Signature(*key)], key


def test_tables_past_the_cli_cap_verify():
    for key, dim in (((6, 7), 128), ((7, 7), 128), ((8, 8), 256)):
        table = derive_table(Signature(*key))
        assert table.dim == dim, key
        assert verify_htype(table).ok, key


def test_ladder_tables_match_the_pinned_digests():
    for key, digest in LADDER_DIGESTS.items():
        table = derive_table(Signature(*key))
        payload = json.dumps([table.dim, table.sorted_cells()], separators=(",", ":"))
        assert hashlib.sha256(payload.encode()).hexdigest() == digest, key
