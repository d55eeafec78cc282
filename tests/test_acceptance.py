"""End to end acceptance checks.

One test per release criterion, each ending in a single printed
PASS line so a run with -s reads as a checklist.  Every identity is
checked in exact integer arithmetic; there are no tolerances.
"""

import itertools
import random

import pytest

from conftest import (
    ISOMORPHIC_PAIRS,
    NON_ISOMORPHIC_PAIR,
    compare_pairs,
    mask_letters,
    random_canonical_word,
    random_signature,
    raw_data,
    resign,
    slow_word_mul,
)
from dense_oracle import (as_map, initial_vector_candidates, metric_adjoint,
                          signed_point)
from htype.basis_builder import (
    build_basis,
    configured_signatures,
    reference_config,
)
from htype.clifford_rep import build_generators, minimal_admissible_dimension
from htype.exactlin import act
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
    compute_table,
    generate_table,
    verify_htype,
)
from htype.words import (
    Signature,
    Word,
    letter_mask,
    mul_sign,
    norm_sign,
    reduce_mod_system,
)

HAND_CHECKABLE = {(1, 0), (2, 0), (1, 1), (3, 0)}
EXTRA_SIGNATURES = {(0, 4), (0, 2), (0, 1), (0, 8)}


def build_pipeline(key):
    """The full pipeline for one signature, returning every stage."""
    sig = Signature(*key)
    config = reference_config(sig)
    gens = build_generators(sig, system=config.involutions)
    vectors = build_basis(gens, config)
    table = compute_table(gens, vectors)
    return sig, config, gens, (0, 1), vectors, table


def test_1_embedded_transcription_integrity():
    sigs = golden_signatures()
    for key in sigs:
        table = golden_table(*key)
        for (a, b), (k, s) in table.cells.items():
            assert table.cells[(b, a)] == (k, -s)
    damaged = raw_data(2, 2)
    damaged["cells"][0][3] *= -1
    with pytest.raises(ValueError, match="antisymmetry"):
        table_from_data(resign(damaged))
    unsigned = raw_data(2, 2)
    unsigned["cells"][0][3] *= -1
    with pytest.raises(ValueError, match="checksum"):
        table_from_data(unsigned)
    print("PASS transcription integrity: %d embedded tables antisymmetric, "
          "loader rejects damage" % len(sigs))


def test_2_embedded_tables_pass_the_axiom_checks():
    reports = verify_all_golden()
    assert len(reports) == 31
    for key, report in reports.items():
        if key in HAND_CHECKABLE:
            assert report.errata == [], key
        assert report.ok, (key, report.errata)
    n51 = reports[(5, 1)]
    assert [(m.cell, m.suggestion) for m in n51.missing] == [((13, 4), 0)]
    print("PASS axiom verification: 31 embedded tables clean, the four "
          "hand-checkable ones with zero errata, the (5,1) empty cell "
          "reported with suggested value 0; the Jacobi identity is "
          "trivially satisfied in a 2-step algebra")


def test_3_generation_soundness():
    keys = configured_signatures()
    assert EXTRA_SIGNATURES <= set(keys)
    assert set(golden_signatures()) <= set(keys)
    for key in keys:
        sig, config, gens, v, vectors, table = build_pipeline(key)
        report = verify_htype(table)
        assert report.ok, (key, report.errata)
        assert table.dim == minimal_admissible_dimension(*key)
    assert minimal_admissible_dimension(7, 0) == 8
    assert minimal_admissible_dimension(4, 1) == 16
    print("PASS generation soundness: full pipeline valid for %d "
          "signatures at the minimal admissible dimension" % len(keys))


def test_4_generated_tables_reproduce_the_embedded_ones():
    keys = sorted(set(golden_signatures()) | {(0, 1), (0, 2), (0, 8)})
    exact = 0
    equivalent = []
    for key in keys:
        result = match_generated(*key)
        assert result.status in ("exact", "sign-equivalent"), (key, result)
        if result.status == "exact":
            exact += 1
        else:
            equivalent.append((key, result.sigma))
    assert match_generated(1, 0).status == "exact"
    assert match_generated(3, 0).status == "exact"
    for key, sigma in equivalent:
        print("  diagonal sign class for %s: %s"
              % (key, " ".join("%+d" % x for x in sigma)))
    print("PASS reproduction: %d exact matches and %d diagonal sign "
          "equivalences over %d signatures, no unmatched tables"
          % (exact, len(equivalent), len(keys)))


def test_5_doubled_construction():
    table = build_n07()
    assert table.sig == Signature(0, 7)
    assert table.dim == 16
    crossing = [(a, b) for a in range(1, 9) for b in range(9, 17)]
    assert len(crossing) == 64
    for a, b in crossing:
        assert (a, b) not in table.cells
        assert (b, a) not in table.cells
    first, second = split_blocks(table, Signature(7, 0))
    assert verify_htype(first).ok
    assert verify_htype(second).ok
    print("PASS doubled construction: 16-dim table, all 64 cross "
          "brackets zero, both diagonal blocks pass the axiom checks")


def test_6_isomorphic_pairs():
    sources = {"golden": golden_table,
               "generated": lambda r, s: generate_table(Signature(r, s))}
    for source, fetch in sources.items():
        results = compare_pairs(fetch)
        for pair in ISOMORPHIC_PAIRS:
            assert results[pair].status in (EXACT, SIGN_EQUIVALENT), \
                (source, pair, results[pair])
        assert results[NON_ISOMORPHIC_PAIR].status == UNMATCHED
    print("PASS isomorphic pairs: four mirror pairs agree up to diagonal "
          "signs from both sources, the (2,0)/(1,1) control differs")


def test_7_stored_relations_hold():
    involutions = 0
    relations = 0
    for key in configured_signatures():
        sig, config, gens, v, _, _ = build_pipeline(key)
        for inv in config.involutions:
            assert reduce_mod_system(
                sig, config.involutions, inv.word) == inv.eigensign
            acted = act(as_map(gens.apply_word(inv.word)), v)
            assert acted == (v[0], inv.eigensign * v[1]), (key, inv)
            involutions += 1
        for rel in config.relations:
            assert reduce_mod_system(sig, config.involutions, rel) == 1, \
                (key, rel)
            assert act(as_map(gens.apply_word(rel)), v) == v, (key, rel)
            relations += 1
    assert relations == 50
    print("PASS stored relations: %d involution actions and %d word "
          "relations confirmed by reduction and by matrix action"
          % (involutions, relations))


def test_8_property_suites():
    rng = random.Random(20260822)

    for _ in range(1200):
        sig = random_signature(rng)
        u = random_canonical_word(rng, sig.n)
        v = random_canonical_word(rng, sig.n)
        w = random_canonical_word(rng, sig.n)
        a, b, c = (letter_mask(x.letters) for x in (u, v, w))
        lhs = mul_sign(sig, a, b) * mul_sign(sig, a ^ b, c)
        rhs = mul_sign(sig, b, c) * mul_sign(sig, a, b ^ c)
        assert lhs == rhs
    associativity = 1200

    for _ in range(1200):
        sig = random_signature(rng)
        u = random_canonical_word(rng, sig.n)
        v = random_canonical_word(rng, sig.n)
        a, b = letter_mask(u.letters), letter_mask(v.letters)
        prod = Word(u.sign * v.sign * mul_sign(sig, a, b), mask_letters(a ^ b))
        assert prod == slow_word_mul(sig, u, v)
    canonical = 1200

    for _ in range(1000):
        n = rng.randint(1, 6)
        form = [rng.choice((1, -1)) for _ in range(n)]
        m = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        assert metric_adjoint(metric_adjoint(m, form), form) == m
    adjoint = 1000

    norm_cases = 0
    for key in configured_signatures():
        sig, config, gens, _, vectors, _ = build_pipeline(key)
        for w, (point, _sign) in zip(config.basis_words, vectors):
            assert gens.form_v[point] == norm_sign(sig, w)
            norm_cases += 1
    for _ in range(700):
        sig = random_signature(rng)
        u = random_canonical_word(rng, sig.n)
        v = random_canonical_word(rng, sig.n)
        prod = slow_word_mul(sig, u, v)
        assert norm_sign(sig, prod) == norm_sign(sig, u) * norm_sign(sig, v)
        norm_cases += 1
    assert norm_cases >= 1000

    # Initial vectors from the dense oracle's search; each is a signed
    # unit vector, so the fast path takes it as a signed point.
    pools = {}
    for key in configured_signatures():
        sig, config, gens, _, _, _ = build_pipeline(key)
        candidates = [signed_point(v) for v in itertools.islice(
            initial_vector_candidates(gens, config), 4)]
        assert None not in candidates, key
        pools[key] = (config, gens, candidates)
    keys = sorted(pools)
    assert sum(len(pool[2]) for pool in pools.values()) == 112
    invariance = 0
    for _ in range(1000):
        key = rng.choice(keys)
        config, gens, candidates = pools[key]
        point, sign = rng.choice(candidates)
        plus = compute_table(
            gens, [gens.act_word(w, (point, sign)) for w in config.basis_words])
        minus = compute_table(
            gens, [gens.act_word(w, (point, -sign)) for w in config.basis_words])
        assert plus.cells == minus.cells
        assert plus.missing == minus.missing
        invariance += 1

    print("PASS property suites: associativity %d, canonical products "
          "%d, adjoint involution %d, norm rule %d, sign invariance %d"
          % (associativity, canonical, adjoint, norm_cases, invariance))
