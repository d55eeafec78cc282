import hashlib
import json
from dataclasses import replace

import pytest

from conftest import (
    ISOMORPHIC_PAIRS,
    NON_ISOMORPHIC_PAIR,
    compare_pairs,
    raw_data,
    resign,
)
from dense_oracle import build_basis, build_generators, compute_table, negated
from htype.basis_builder import configured_signatures, reference_config
from htype.golden import (
    build_n07,
    golden_signatures,
    golden_table,
    match_generated,
    split_blocks,
    table_from_data,
    verify_all_golden,
)
from htype.lie_algebra import (
    EXACT,
    SIGN_EQUIVALENT,
    UNMATCHED,
    StructureTable,
    _table_from_words,
    cell_errata,
    generate_table,
    verify_htype,
)
from htype.words import Signature

EXPECTED_CORRECTIONS = {
    (2, 2): [[8, 2, 3, -1]],
    (3, 2): [[7, 4, 5, -1], [8, 3, 5, 1]],
    (3, 5): [[16, 15, 3, 1]],
    (7, 1): [[7, 2, 3, 1]],
}

# sha256 of json [dim, sorted cells] of build_n07(), taken from the
# construction that built the twin module's frame and table afresh.
N07_DIGEST = "427b0f1069e68cada6fb87bfb5f6c5e747e4a1030ead15bb8bbabe262164c97d"


def test_golden_signatures():
    sigs = golden_signatures()
    assert len(sigs) == 31
    assert (1, 0) in sigs
    assert (5, 1) in sigs
    assert (3, 5) in sigs
    assert (0, 1) not in sigs
    assert (0, 7) not in sigs


def test_aliases_reuse_the_shared_files():
    """An alias loads the shared file, as read apart from the package's
    loader; a signature with no file is named in the KeyError."""
    assert golden_table(0, 1).cells == golden_table(1, 0).cells
    assert golden_table(0, 2).cells == golden_table(2, 0).cells
    assert golden_table(0, 8) == table_from_data(raw_data(8, 0))
    with pytest.raises(KeyError):
        golden_table(0, 7)
    with pytest.raises(KeyError, match=r"no reference table for \(6, 1\)"):
        golden_table(6, 1)


def test_every_table_loads_and_verifies():
    reports = verify_all_golden()
    assert len(reports) == 31
    for key, report in reports.items():
        assert report.ok, (key, report.errata)


def test_table_labels_cover_every_appearance():
    labels = {golden_table(*key).label for key in golden_signatures()}
    assert labels == {"reference table %d" % i for i in range(1, 32)}


def test_first_four_tables_are_the_hand_checkable_ones():
    by_label = {golden_table(*key).label: key for key in golden_signatures()}
    assert by_label["reference table 1"] == (1, 0)
    assert by_label["reference table 2"] == (2, 0)
    assert by_label["reference table 3"] == (1, 1)
    assert by_label["reference table 4"] == (3, 0)
    for i in (1, 2, 3, 4):
        key = by_label["reference table %d" % i]
        assert verify_htype(golden_table(*key)).errata == []


def test_split_blocks_rejects_an_odd_dimension():
    table = StructureTable(Signature(0, 7), 3, {})
    with pytest.raises(ValueError) as info:
        split_blocks(table, Signature(7, 0))
    assert str(info.value) == "odd dimension cannot split"


def test_n51_reports_its_empty_cell():
    table = golden_table(5, 1)
    assert table.missing == frozenset({(13, 4)})
    report = verify_htype(table)
    assert report.ok
    assert [(m.cell, m.suggestion) for m in report.missing] == [((13, 4), 0)]


def test_checksum_rejects_tampering():
    data = raw_data(2, 2)
    table_from_data(data)
    data["cells"][0][3] *= -1
    with pytest.raises(ValueError, match="checksum"):
        table_from_data(data)


def test_antisymmetry_rejects_resigned_tampering():
    data = raw_data(2, 2)
    data["cells"][0][3] *= -1
    with pytest.raises(ValueError, match="antisymmetry"):
        table_from_data(resign(data))


def test_loader_rejects_structural_damage():
    data = raw_data(1, 0)
    data["cells"].append([1, 1, 1, 1])
    with pytest.raises(ValueError, match="diagonal"):
        table_from_data(resign(data))

    data = raw_data(1, 0)
    data["cells"].append([1, 5, 1, 1])
    with pytest.raises(ValueError, match="outside"):
        table_from_data(resign(data))

    data = raw_data(1, 0)
    data["cells"][0] = [1, 2, 2, 1]
    with pytest.raises(ValueError, match="unknown central"):
        table_from_data(resign(data))

    data = raw_data(1, 0)
    data["cells"].append([1, 2, 1, 1])
    with pytest.raises(ValueError, match=r"^duplicate cell \(1, 2\)$"):
        table_from_data(resign(data))

    data = raw_data(1, 0)
    del data["dim"]
    with pytest.raises(ValueError, match="lacks"):
        table_from_data(data)


def test_loader_rejects_non_integer_entries():
    """A re-checksummed copy of n10.json with a float or a bool where an
    int belongs does not load.  1.0 as a cell's z index or row once
    passed cell_errata, as 1 <= 1.0 <= n, and then made verify_htype
    raise TypeError."""
    def cell(i, value):
        return lambda data: data["cells"][0].__setitem__(i, value)

    edits = [cell(0, 1.0), cell(1, 2.0), cell(2, 1.5), cell(2, 1.0),
             cell(3, 1.0), cell(3, True),
             lambda data: data["sig"].__setitem__(0, 1.0),
             lambda data: data["sig"].__setitem__(1, False),
             lambda data: data.__setitem__("dim", 2.0),
             lambda data: data.__setitem__("missing", [[1, 1.0]])]
    table_from_data(resign(raw_data(1, 0)))
    for edit in edits:
        data = raw_data(1, 0)
        edit(data)
        with pytest.raises(ValueError, match="not an int"):
            table_from_data(resign(data))


def test_loader_rejects_what_cell_errata_names():
    for key in ((1, 0), (2, 2), (5, 1)):
        base = raw_data(*key)
        a, b, k, s = base["cells"][0]
        n, dim = key[0] + key[1], base["dim"]
        # (row index to replace or None to append, the new row, whether
        # the damaged table loads)
        damages = [
            (0, [a, dim + 1, k, s], False),
            (0, [0, b, k, s], False),
            (None, [a, a, k, s], False),
            (0, [a, b, 0, s], False),
            (0, [a, b, n + 1, s], False),
            (0, [a, b, k, 0], False),
            (0, [a, b, k, -s], False),
        ]
        if key == (5, 1):
            # (13, 4) is the hole: its mirror may hold anything, the hole
            # itself must stay empty.
            damages += [(None, [4, 13, 1, 1], True), (None, [13, 4, 1, 1], False)]
        for idx, row, loads in damages:
            data = raw_data(*key)
            if idx is None:
                data["cells"].append(row)
            else:
                data["cells"][idx] = row
            cells = {(a, b): (k, s) for a, b, k, s in data["cells"]}
            holes = frozenset(tuple(cell) for cell in data.get("missing", []))
            errata = cell_errata(StructureTable(Signature(*key), dim, cells, holes))
            assert (not errata) == loads, (key, row)
            if loads:
                assert table_from_data(resign(data)).cells == cells
            else:
                with pytest.raises(ValueError) as exc:
                    table_from_data(resign(data))
                assert str(exc.value) == errata[0], (key, row)


def test_a_missing_cell_outside_the_table_or_also_stored_is_named():
    """A (1, 0) table whose missing set holds (5, 7), past dim 2, or
    (1, 2), which is also stored, fails verify_htype with the cell named,
    and a re-checksummed n10.json with either does not load; both once
    passed.  The (5, 1) reference table, whose hole is a zero cell
    inside it, still loads and passes."""
    table = golden_table(1, 0)
    for hole, erratum in (((5, 7), "missing cell (v5, v7) outside the table"),
                          ((1, 2), "cell (v1, v2) is both stored and missing")):
        holed = replace(table, missing=frozenset({hole}))
        assert cell_errata(holed) == [erratum]
        report = verify_htype(holed)
        assert not report.ok
        assert report.errata == [erratum]
        data = raw_data(1, 0)
        data["missing"] = [list(hole)]
        with pytest.raises(ValueError) as exc:
            table_from_data(resign(data))
        assert str(exc.value) == erratum
    reference = golden_table(5, 1)
    assert reference.missing == {(13, 4)}
    assert verify_htype(reference).ok


def test_corrections_archive_the_printed_originals():
    seen = {}
    for key in golden_signatures():
        data = raw_data(*key)
        if "corrections" in data:
            seen[key] = data["corrections"]
    assert seen == EXPECTED_CORRECTIONS
    for key, corrections in seen.items():
        table = golden_table(*key)
        for a, b, k, printed_sign in corrections:
            assert table.cells[(a, b)] == (k, -printed_sign)
            assert table.cells[(b, a)] == (k, printed_sign)


def test_match_anchors():
    assert match_generated(1, 0).status == "exact"
    assert match_generated(3, 0).status == "exact"
    assert match_generated(5, 1).status == "exact"
    res = match_generated(0, 2)
    assert res.status == "sign-equivalent"
    assert res.sigma == (1, -1, 1, 1)
    res = match_generated(0, 8)
    assert res.status == "sign-equivalent"
    assert res.sigma[0] == 1
    with pytest.raises(KeyError):
        match_generated(6, 1)


def test_build_n07_shape():
    t = build_n07()
    assert t.sig == Signature(0, 7)
    assert t.dim == 16
    assert t.label == "doubled construction"
    crossing = [key for key in t.cells
                if (key[0] <= 8) != (key[1] <= 8)]
    assert crossing == []


def test_build_n07_blocks_verify_as_the_positive_twin():
    t = build_n07()
    first, second = split_blocks(t, Signature(7, 0))
    assert verify_htype(first).ok
    assert verify_htype(second).ok
    for (a, b), (k, s) in first.cells.items():
        expect = (k, -s) if a >= 2 and b >= 2 else (k, s)
        assert second.cells[(a, b)] == expect


def test_build_n07_matches_the_pinned_digest():
    t = build_n07()
    payload = json.dumps([t.dim, t.sorted_cells()], separators=(",", ":"))
    assert hashlib.sha256(payload.encode()).hexdigest() == N07_DIGEST


def test_flipped_eigensigns_build_the_negated_module():
    """The stored system with the eigensign of each odd-length involution
    flipped writes the twin module's table: negated generators, and the
    frame and table of the same basis words built afresh."""
    for key in configured_signatures():
        sig = Signature(*key)
        config = reference_config(sig)
        gens = negated(build_generators(sig, system=config.involutions))
        flipped = tuple(p._replace(eigensign=-p.eigensign) if len(p.word.letters) % 2
                        else p for p in config.involutions)
        frame = build_basis(gens, replace(config, involutions=flipped))
        table = _table_from_words(sig, flipped, config.basis_words)
        assert table.cells == compute_table(gens, frame).cells, key
        assert verify_htype(table).ok, key


def test_build_n07_works_under_the_definite_form_too():
    t = build_n07()
    assert verify_htype(replace(t, sig=Signature(7, 0))).ok


def test_split_blocks_rejects_coupled_halves():
    t = build_n07()
    cells = dict(t.cells)
    cells[(1, 9)] = (1, 1)
    cells[(9, 1)] = (1, -1)
    with pytest.raises(ValueError, match="couples"):
        split_blocks(replace(t, cells=cells), Signature(7, 0))


def test_isomorphic_pairs_from_the_embedded_files():
    results = compare_pairs(golden_table)
    for pair in ISOMORPHIC_PAIRS:
        assert results[pair].status == EXACT
    assert results[NON_ISOMORPHIC_PAIR].status == UNMATCHED


def test_isomorphic_pairs_from_generation():
    results = compare_pairs(lambda r, s: generate_table(Signature(r, s)))
    for pair in ISOMORPHIC_PAIRS:
        assert results[pair].status in (EXACT, SIGN_EQUIVALENT)
    assert results[((1, 0), (0, 1))].status == EXACT
    assert results[((2, 0), (0, 2))].status == SIGN_EQUIVALENT
    assert results[NON_ISOMORPHIC_PAIR].status == UNMATCHED
