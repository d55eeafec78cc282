import hashlib
import json
import random
from collections import Counter
from dataclasses import replace

import pytest

from conftest import coset_reps, mask_letters
from dense_oracle import (
    clifford_failures,
    dense_pipeline,
    is_signed_permutation,
    matrix,
    mat_neg,
    metric_adjoint,
)
from htype.basis_builder import (ReferenceConfig, has_reference_config,
                                 reference_config)
from htype.clifford_rep import (build_generators, find_involution_system,
                                minimal_admissible_dimension)
from htype.golden import golden_signatures, golden_table
from htype.lie_algebra import (
    EXACT,
    SIGN_EQUIVALENT,
    UNMATCHED,
    StructureTable,
    _walk_errata,
    _whole_table_holds,
    compare_tables,
    compute_table,
    derive_table,
    generate_table,
    reconstruct_J,
    verify_htype,
)
from htype.words import Signature, Word
from verify_oracle import is_htype, referee_cases

# sha256 of json [dim, sorted cells] for the scale ladder's derived
# tables past the CLI cap, where tests/cli_digests.json stops.  A
# rewrite of the construction has to reproduce them byte for byte.
LADDER_DIGESTS = {
    (5, 3): "f27293946fc74f94869effcf6052e8f48e47f0002fb3588f0fa75862e0bb7088",
    (5, 5): "47ae3dce8b05a7274ce4dd445c0318cfcc3e5cb1b3536cb9869336c550f9d147",
    (4, 6): "1b02bb2b966f0c45bdf5b547f4a070a91f4f0458a6fbf7e31c7549361fef4674",
    (6, 6): "37ecec18b56299fc0e04ccfb25e95c26893681c649584069b476352b40ba957b",
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
    from htype.basis_builder import build_basis
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


def test_verify_htype_agrees_with_the_brute_force_referee():
    """verify_htype's verdict against verify_oracle.is_htype on 1,164
    tables: the 44 configured and golden tables of dim <= 8, each with
    two rounds of seeded damage, and the (0, 7) blocks as (7, 0) and
    (0, 7).  The
    whole-table check holds exactly when the walk over the cells finds
    nothing, on every table with a positive dim and no missing cell."""
    cases = referee_cases()
    assert len(cases) == 1164
    seen = Counter()
    for name, table in cases:
        ok = verify_htype(table).ok
        assert ok == is_htype(table), name
        holds = table.dim >= 1 and _whole_table_holds(table)
        if holds:
            assert _walk_errata(table) == [], name
        elif table.dim >= 1 and not table.missing:
            assert _walk_errata(table) != [], name
        seen[ok, holds] += 1
    # (verdict, whole-table check) counts; a valid table with a missing
    # zero cell fails the whole-table check and passes the walk.
    assert seen == {(True, True): 88, (True, False): 66,
                    (False, True): 136, (False, False): 874}


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


def test_tables_past_the_cli_cap_verify():
    for key in ((6, 7), (7, 7)):
        table = derive_table(Signature(*key))
        assert table.dim == 128, key
        assert verify_htype(table).ok, key


def test_ladder_tables_match_the_pinned_digests():
    for key, digest in LADDER_DIGESTS.items():
        table = derive_table(Signature(*key))
        payload = json.dumps([table.dim, table.sorted_cells()], separators=(",", ":"))
        assert hashlib.sha256(payload.encode()).hexdigest() == digest, key
