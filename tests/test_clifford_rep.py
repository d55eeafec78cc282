import gc
import random
from dataclasses import replace

import pytest

import grid_oracle
import search_oracle
from search_oracle import words_commute
from conftest import coset_reps, mask_letters, random_canonical_word, slow_word_mul
from dense_oracle import (as_map, build_generators, clifford_failures, matrix,
                          mat_mul, mat_neg, negated, negated_op, verify_generators,
                          word_matrix)
from htype import clifford_rep, exactlin
from htype.clifford_rep import (
    ConstructionError,
    GeneratorSet,
    _candidates,
    clifford_type,
    find_involution_system,
    involution_count,
    minimal_admissible_dimension,
)
from htype.basis_builder import configured_signatures, reference_config
from htype.golden import golden_signatures, golden_table
from htype.lie_algebra import (_table_from_words, derive_table, generate_table,
                               reconstruct_J, verify_htype)
from htype.words import (
    Involution,
    Signature,
    Word,
    check_involution_system,
    letter_mask,
    mul_sign,
    norm_sign,
    span_products,
)

# Grid cells where the oracle's plain scan takes seconds to minutes.
SLOW_SEARCHES = {(6, 7), (7, 7), (8, 7), (6, 8), (7, 8), (8, 8)}

# The first systems found on each of them, as letter sets.  The oracle
# gave the first four; it takes minutes on (7,8) and (8,8), so those two
# come from the bitset search as it stood before the pool-side span test.
PINNED_SYSTEMS = {
    (6, 7): ((1, 2, 3), (1, 2, 4, 5), (1, 3, 4, 6),
             (7, 8, 9, 10), (7, 8, 11, 12), (7, 9, 11, 13)),
    (7, 7): ((1, 2, 3), (1, 2, 4, 5), (1, 2, 6, 7), (1, 3, 4, 6),
             (8, 9, 10, 11), (8, 9, 12, 13), (8, 10, 12, 14)),
    (8, 7): ((1, 2, 3), (1, 2, 4, 5), (1, 2, 6, 7), (1, 3, 4, 6),
             (9, 10, 11, 12), (9, 10, 13, 14), (9, 11, 13, 15)),
    (6, 8): ((1, 2, 3), (1, 2, 4, 5), (1, 3, 4, 6),
             (7, 8, 9, 10), (7, 8, 11, 12), (7, 8, 13, 14), (7, 9, 11, 13)),
    (7, 8): ((1, 2, 3), (1, 2, 4, 5), (1, 2, 6, 7), (1, 3, 4, 6),
             (8, 9, 10, 11), (8, 9, 12, 13), (8, 9, 14, 15), (8, 10, 12, 14)),
    (8, 8): ((1, 2, 3), (1, 2, 4, 5), (1, 2, 6, 7), (1, 3, 4, 6),
             (9, 10, 11, 12), (9, 10, 13, 14), (9, 10, 15, 16), (9, 11, 13, 15)),
}


def all_signatures(max_n=8):
    out = []
    for n in range(1, max_n + 1):
        for r in range(0, n + 1):
            out.append(Signature(r, n - r))
    return out


def test_clifford_type_spot_values():
    cases = {
        (1, 0): ("C", 2), (2, 0): ("H", 4), (3, 0): ("H2", 4),
        (4, 0): ("H(2)", 8), (5, 0): ("C(4)", 8), (6, 0): ("R(8)", 8),
        (7, 0): ("R2(8)", 8), (8, 0): ("R(16)", 16),
        (0, 1): ("R2*", 2), (0, 2): ("R(2)*", 4), (0, 3): ("C(2)*", 8),
        (0, 4): ("H(2)", 8), (0, 5): ("H2(2)*", 16), (0, 6): ("H(4)", 16),
        (0, 7): ("C(8)", 16), (0, 8): ("R(16)", 16),
        (1, 1): ("R(2)*", 4), (3, 4): ("R2(8)", 8), (4, 4): ("R(16)", 16),
        (4, 1): ("H2(2)*", 16), (5, 1): ("H(4)", 16),
    }
    for (r, s), (label, dim) in cases.items():
        assert clifford_type(r, s).label == label, (r, s)
        assert minimal_admissible_dimension(r, s) == dim, (r, s)


def test_clifford_grid_matches_the_printed_oracle():
    cells = grid_oracle.printed_cells()
    assert len(cells) == 81
    for (r, s), printed in cells.items():
        label = grid_oracle.ERRATA.get((r, s), printed)
        assert clifford_type(r, s).label == label, (r, s)
        assert minimal_admissible_dimension(r, s) == \
            grid_oracle.minimal_dimension(printed), (r, s)
    assert grid_oracle.minimal_dimension("R2(8)") == 8
    for r, s in ((9, 0), (0, 9), (-1, 3)):
        with pytest.raises(ValueError, match="grid covers"):
            clifford_type(r, s)


def test_minimal_dimension_matches_embedded_tables():
    for (r, s) in golden_signatures():
        assert golden_table(r, s).dim == minimal_admissible_dimension(r, s)


def test_involution_count_matches_stored_systems():
    for key in configured_signatures():
        sig = Signature(*key)
        config = reference_config(sig)
        assert involution_count(sig) == len(config.involutions)


def test_find_involution_system_every_signature():
    for sig in all_signatures():
        system = find_involution_system(sig)
        assert len(system) == involution_count(sig)
        check_involution_system(sig, system)
        assert all(inv.eigensign == 1 for inv in system)


def test_search_matches_the_oracle_on_the_grid():
    keys = [(r, s) for r in range(9) for s in range(9)
            if r + s and (r, s) not in SLOW_SEARCHES]
    assert len(keys) == 74
    for key in keys:
        sig = Signature(*key)
        assert find_involution_system(sig) == search_oracle.find_involution_system(sig), key


def test_search_keeps_the_oracle_systems_past_the_cap():
    for key, letter_sets in PINNED_SYSTEMS.items():
        sig = Signature(*key)
        system = find_involution_system(sig)
        assert system == [Involution(Word(1, c), 1) for c in letter_sets], key
        assert len(system) == involution_count(sig)
        check_involution_system(sig, system)


def test_search_matches_the_oracle_for_every_size():
    """Sizes up to one past the needed count, so the searches that
    exhaust the tree and raise are compared too; on the whole n = 7 row,
    the size one past, where every search exhausts a deeper tree.  On
    the n = 7 and n = 8 rows, every size up to the needed count."""
    cases = [(sig, k) for sig in all_signatures(max_n=6)
             for k in range(1, involution_count(sig) + 2)]
    rows = [(sig, k) for sig in all_signatures() if sig.n >= 7
            for k in range(1, involution_count(sig) + 1)]
    assert len(rows) == 58
    row = [(sig, involution_count(sig) + 1) for sig in all_signatures(max_n=7)
           if sig.n == 7]
    assert len(row) == 8
    for sig, k in cases + rows + row:
        try:
            want = search_oracle.find_involution_system(sig, k)
        except ConstructionError as exc:
            want = str(exc)
        try:
            got = find_involution_system(sig, k)
        except ConstructionError as exc:
            got = str(exc)
        assert got == want, (sig, k)
        if (sig, k) in row:
            assert want == "no involution system of size %d for %s" % (k, sig)


def test_search_exhausts_one_past_the_count_on_the_n8_row():
    """No system has one word more than needed.  The oracle agrees, but
    on (8,0) its plain scan walks a tree too large for a quick suite, so
    the message alone is pinned here; the same on the n = 9 row of the
    grid, (1,8) to (8,1), where the oracle takes seconds per signature."""
    row = [sig for sig in all_signatures() if sig.n == 8]
    row += [Signature(r, 9 - r) for r in range(1, 9)]
    assert len(row) == 17
    for sig in row:
        k = involution_count(sig) + 1
        with pytest.raises(ConstructionError) as info:
            find_involution_system(sig, k)
        assert str(info.value) == "no involution system of size %d for %s" % (k, sig)


def test_search_exhausts_one_past_the_count_on_the_grid():
    """No system has one word more than needed, on every grid signature
    but the three whose exhaustion takes seconds, (7,8), (8,7) and (8,8).
    The plain scan takes minutes on the larger of these, so the message
    alone is pinned; together they take about a second, as the walk
    tries one member of each orbit."""
    keys = [(r, s) for r in range(9) for s in range(9)
            if r + s and (r, s) not in {(7, 8), (8, 7), (8, 8)}]
    assert len(keys) == 77
    for key in keys:
        sig = Signature(*key)
        k = involution_count(sig) + 1
        with pytest.raises(ConstructionError) as info:
            find_involution_system(sig, k)
        assert str(info.value) == "no involution system of size %d for %s" % (k, sig)


def test_search_matches_the_oracle_past_the_grid():
    """Two searches past the grid where the orbit rule must fix the
    letters of every chosen word, not only of the last one: with top
    taken from the last chosen word alone, both searches choose
    (1,3,4,7) as their fourth word, where the plain scan chooses
    (1,3,4,6), since after (1,3,4,6) the letter 7 of (1,2,6,7) would be
    free to move.  On the grid that rule returns the same systems."""
    for key, k in (((10, 3), 6), ((10, 4), 7)):
        sig = Signature(*key)
        assert find_involution_system(sig, k) == search_oracle.find_involution_system(sig, k), key


def test_a_negative_size_raises_before_any_candidate_is_built(monkeypatch):
    def no_candidates(sig):
        raise AssertionError("candidates built for %s" % (sig,))

    monkeypatch.setattr(clifford_rep, "_candidates", no_candidates)
    for key, k in (((6, 6), -1), ((1, 0), -1), ((8, 8), -3)):
        sig = Signature(*key)
        with pytest.raises(ConstructionError) as info:
            find_involution_system(sig, k)
        assert str(info.value) == "no involution system of size %d for %s" % (k, sig)


def test_check_involution_system_matches_the_old_check():
    """The mul_sign check against the words_commute and word_square_sign
    one of search_oracle, on 2,400 seeded systems: every searched and
    stored system, and copies with an eigensign 0, 2 or -1, an extra word
    that may square to -1 or anticommute, a repeated or dependent mask,
    or a letter 0, n + 1 or -1 in the first or a later word.  Both accept,
    or both raise the same exception with the same message."""
    def outcome(check, sig, system):
        try:
            check(sig, system)
        except Exception as exc:
            return type(exc), str(exc)
        return "accepted"

    bases = []
    for key in ((r, s) for r in range(9) for s in range(9) if r + s):
        sig = Signature(*key)
        bases.append((sig, [Involution(Word(1, c), 1) for c in PINNED_SYSTEMS[key]]
                      if key in PINNED_SYSTEMS else find_involution_system(sig)))
    bases += [(Signature(*key), reference_config(Signature(*key)).involutions)
              for key in configured_signatures()]
    assert len(bases) == 80 + 34
    kinds = ("eigensign", "square", "commute", "span", "out of range", "negative")
    rng = random.Random(83)
    cases = list(bases)
    seen = set()
    while len(cases) < 2400:
        sig, system = rng.choice(bases)
        system = list(system)
        for _ in range(rng.randint(1, 2)):
            if not system:
                system.append(Involution(random_canonical_word(rng, sig.n), 1))
            k = rng.randrange(len(system))
            w, sgn = system[k]
            damage = rng.choice(("eigensign", "word", "repeat", "dependent", "letter"))
            if damage == "eigensign":
                system[k] = Involution(w, rng.choice((0, 2, -1)))
            elif damage == "word":
                word = random_canonical_word(rng, sig.n, allow_empty=False)
                system.insert(rng.randrange(len(system) + 1),
                              Involution(word, rng.choice((1, -1))))
            elif damage == "repeat":
                system.insert(rng.randrange(len(system) + 1), system[k])
            elif damage == "dependent":
                other = rng.choice(system).word
                if min(w.letters + other.letters, default=0) >= 0:
                    m = letter_mask(w.letters) ^ letter_mask(other.letters)
                    system.append(Involution(Word(1, mask_letters(m)), 1))
            else:
                k = rng.choice((0, k))
                w, sgn = system[k]
                x = rng.choice((0, sig.n + 1, -1))
                if x not in w.letters:
                    system[k] = Involution(w._replace(letters=tuple(sorted(w.letters + (x,)))), sgn)
                    seen.add(("letter", min(x, 1), k == 0))
        cases.append((sig, system))
    for sig, system in cases:
        want = outcome(search_oracle.check_involution_system, sig, system)
        assert outcome(check_involution_system, sig, system) == want, (sig, system)
        seen.add(want if want == "accepted" else
                 next(kind for kind in kinds if kind in want[1]))
    assert {("letter", x, first) for x in (-1, 0, 1) for first in (True, False)} <= seen
    assert {"accepted"} | set(kinds) <= seen


def test_a_warm_search_leaves_no_cyclic_garbage():
    sig = Signature(6, 7)
    for _ in range(2):
        gc.collect()
        assert len(find_involution_system(sig)) == 6
    assert gc.collect() == 0


def test_commuting_bitsets_agree_with_words_commute():
    """The candidates, their masks and the per-letter bitsets on the whole
    grid; on (4,4), the anticommute set the search builds from containing
    and odd, for every pair of candidates."""
    keys = [(r, s) for r in range(9) for s in range(9) if r + s]
    assert len(keys) == 80
    for key in keys:
        sig = Signature(*key)
        cands, masks, containing, odd = _candidates(sig)
        assert cands == search_oracle._candidate_sets(sig), key
        assert masks == [letter_mask(c) for c in cands], key
        assert len(containing) == sig.n + 1, key
        for x in range(sig.n + 1):
            assert containing[x] == sum(1 << i for i, c in enumerate(cands)
                                        if x in c), (key, x)
        assert odd == sum(1 << i for i, c in enumerate(cands) if len(c) == 3), key
    cands, _masks, containing, odd = _candidates(Signature(4, 4))
    assert len(cands) > 50
    for i, a in enumerate(cands):
        anti = odd if len(a) == 3 else 0
        for x in a:
            anti ^= containing[x]
        assert anti >> len(cands) == 0, a
        for j, b in enumerate(cands):
            assert bool(anti >> j & 1) != words_commute(Word(1, a), Word(1, b)), (a, b)


def test_impossible_system_size_raises():
    for key, k in (((3, 0), 2), ((1, 7), 4)):
        sig = Signature(*key)
        message = r"no involution system of size %d for \(%d,%d\)" % ((k,) + key)
        for search in (find_involution_system, search_oracle.find_involution_system):
            with pytest.raises(ConstructionError, match=message):
                search(sig, k)


def test_build_generators_every_signature():
    for sig in all_signatures():
        system = find_involution_system(sig)
        gens = build_generators(sig, system)
        assert gens.dim == minimal_admissible_dimension(sig.r, sig.s)
        assert len(gens.ops) == sig.n
        reps = coset_reps(sig, system)
        assert len(reps) == gens.dim
        assert reps[0] == 0
        assert verify_generators(sig, gens.ops, gens.form_v) == []


def two_mul_sign_ops(sig, system, reps):
    """J_1 ... J_n on the coset module with representatives reps, each
    cell sign from two mul_sign calls: J_i e_a = mul_sign(i, R_a) J_L v
    for L = R_a xor i, and J_L v = mul_sign(R_b, P) span[P] e_b for
    L = R_b xor P."""
    span = span_products(sig, system)
    coset = {rep ^ p: (b, p) for b, rep in enumerate(reps) for p in span}
    ops = []
    for i in range(1, sig.n + 1):
        perm, signs = [], []
        for rep in reps:
            b, p = coset[rep ^ 1 << i]
            perm.append(b)
            signs.append(mul_sign(sig, 1 << i, rep)
                         * mul_sign(sig, reps[b], p) * span[p])
        ops.append(as_map((perm, signs)))
    return ops


def test_build_generators_matches_two_mul_sign_cells():
    """The popcount cell signs and norm signs against the two-mul_sign
    formula, on all 80 grid signatures and every configured system; the
    slow searches take their pinned systems."""
    cases = []
    for key in ((r, s) for r in range(9) for s in range(9) if r + s):
        system = ([Involution(Word(1, c), 1) for c in PINNED_SYSTEMS[key]]
                  if key in PINNED_SYSTEMS else None)
        cases.append((Signature(*key), system))
    cases += [(Signature(*key), reference_config(Signature(*key)).involutions)
              for key in configured_signatures()]
    assert len(cases) == 80 + 34
    for sig, system in cases:
        if system is None:
            system = find_involution_system(sig)
        gens = build_generators(sig, system)
        reps = coset_reps(sig, system)
        assert list(gens.ops) == two_mul_sign_ops(sig, system, reps), sig
        assert gens.form_v == tuple(norm_sign(sig, Word(1, mask_letters(rep)))
                                    for rep in reps)


def test_negate_generators_still_valid():
    sig = Signature(3, 2)
    system = find_involution_system(sig)
    gens = build_generators(sig, system)
    neg = negated(gens)
    for op, nop in zip(gens.ops, neg.ops):
        assert matrix(nop) == mat_neg(matrix(op))
    assert neg.form_v == gens.form_v
    assert list(neg.ops) == [negated_op(op) for op in
                             two_mul_sign_ops(sig, system, coset_reps(sig, system))]
    assert verify_generators(sig, neg.ops, neg.form_v) == []
    for g in (gens, neg):
        assert clifford_failures([matrix(op) for op in g.ops], sig) == []


def test_apply_word_is_a_homomorphism():
    rng = random.Random(61)
    for key in ((4, 2), (2, 3), (0, 6)):
        sig = Signature(*key)
        gens = build_generators(sig, find_involution_system(sig))
        for _ in range(60):
            u = random_canonical_word(rng, sig.n)
            v = random_canonical_word(rng, sig.n)
            lhs = mat_mul(matrix(as_map(gens.apply_word(u))),
                          matrix(as_map(gens.apply_word(v))))
            rhs = as_map(gens.apply_word(slow_word_mul(sig, u, v)))
            assert lhs == matrix(rhs)
            assert matrix(rhs) == word_matrix(gens, slow_word_mul(sig, u, v))
            assert lhs == mat_mul(word_matrix(gens, u), word_matrix(gens, v))


def test_apply_word_respects_signs():
    sig = Signature(2, 1)
    gens = build_generators(sig, find_involution_system(sig))
    rng = random.Random(67)
    for _ in range(40):
        w = random_canonical_word(rng, sig.n)
        flipped = w._replace(sign=-w.sign)
        assert as_map(gens.apply_word(flipped)) == \
            negated_op(as_map(gens.apply_word(w)))


def test_act_word_agrees_with_apply_word():
    rng = random.Random(73)
    for key in ((4, 2), (0, 6), (3, 4)):
        sig = Signature(*key)
        gens = build_generators(sig, find_involution_system(sig))
        for _ in range(60):
            w = random_canonical_word(rng, sig.n)
            v = (rng.randrange(gens.dim), rng.choice((1, -1)))
            assert gens.act_word(w, v) == \
                exactlin.act(as_map(gens.apply_word(w)), v)


def test_act_word_stops_where_a_map_does_not_act():
    """On generators rebuilt from a table with a missing pair, a word
    whose letter meets a point its map does not reach has no image:
    act_word gives None for that map alone and for a word that applies
    it before another map, and apply_word, with no operator to hand
    out, gives None too."""
    t = derive_table(Signature(2, 0))
    assert t.cells[(1, 2)] == (1, 1)
    cells = {key: val for key, val in t.cells.items() if key not in ((1, 2), (2, 1))}
    partial = replace(t, cells=cells, missing=frozenset({(1, 2), (2, 1)}))
    eta = verify_htype(partial).eta
    gens = GeneratorSet(partial.sig, partial.dim, reconstruct_J(partial, eta), eta)
    assert gens.act_word(Word(-1, (1,)), (0, 1)) is None
    assert gens.act_word(Word(1, (2, 1)), (0, 1)) is None
    assert gens.act_word(Word(1, (1, 2)), (0, 1)) == (2, 1)
    assert gens.apply_word(Word(1, (1,))) is None
    assert gens.apply_word(Word(-1, (2, 1))) is None


def test_form_signature_split():
    sig = Signature(4, 0)
    gens = build_generators(sig, find_involution_system(sig))
    assert gens.form_v.count(1) == gens.dim
    sig = Signature(2, 2)
    gens = build_generators(sig, find_involution_system(sig))
    assert gens.form_v.count(1) == gens.dim // 2
    assert gens.form_v.count(-1) == gens.dim // 2


def test_stored_system_builds_match_dimensions():
    for key in configured_signatures():
        sig = Signature(*key)
        config = reference_config(sig)
        gens = build_generators(sig, system=config.involutions)
        assert gens.dim == minimal_admissible_dimension(sig.r, sig.s)
        assert verify_generators(sig, gens.ops, gens.form_v) == []


def test_generators_rebuilt_from_a_table_carry_its_frame():
    """The route of htype relations: the GeneratorSet over reconstruct_J
    of generate_table, with verify_htype's norm signs, sends v = v_1 to
    v_a = W_a v for every basis word, and sends v where the module route
    does under every stored involution and relation."""
    words = 0
    for key in configured_signatures():
        sig = Signature(*key)
        config = reference_config(sig)
        table = generate_table(sig)
        report = verify_htype(table)
        rebuilt = GeneratorSet(sig, table.dim, reconstruct_J(table, report.eta),
                               report.eta)
        for a, w in enumerate(config.basis_words):
            assert rebuilt.act_word(w, (0, 1)) == (a, 1), (key, w)
        module = build_generators(sig, system=config.involutions)
        for w in [p.word for p in config.involutions] + list(config.relations):
            assert rebuilt.act_word(w, (0, 1)) == module.act_word(w, (0, 1)), (key, w)
            words += 1
    assert words == 112


def test_bad_system_is_rejected():
    """A system one word short leaves 32 cosets where (6,0) needs 8: the
    module route and the table builder both refuse it."""
    sig = Signature(6, 0)
    config = reference_config(sig)
    short = config.involutions[:1]
    message = "coset count 32 does not match minimal dimension 8"
    with pytest.raises(ConstructionError, match=message):
        build_generators(sig, system=short)
    with pytest.raises(ConstructionError, match=message):
        _table_from_words(sig, short, config.basis_words)
