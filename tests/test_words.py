import itertools
import random
import re

import pytest

from conftest import (mask_letters, norm_sign, random_canonical_word,
                      random_signature, slow_word_mul)
from htype.basis_builder import configured_signatures, reference_config
from htype.clifford_rep import find_involution_system
from htype.words import (
    Involution,
    Signature,
    Word,
    check_involution_system,
    format_word,
    letter_mask,
    mul_sign,
    sign_form_transposed,
    span_products,
)
from search_oracle import word_square_sign, words_commute


def test_signature_basics():
    sig = Signature(2, 1)
    assert sig.n == 3
    assert [sig.eps(i) for i in (1, 2, 3)] == [1, 1, -1]
    assert str(sig) == "(2,1)"
    with pytest.raises(ValueError):
        Signature(0, 0)
    with pytest.raises(ValueError):
        Signature(-1, 2)


def test_word_mul_hand_cases():
    sig = Signature(2, 1)
    j1, j2, j3, j12, j23 = map(letter_mask, ((1,), (2,), (3,), (1, 2), (2, 3)))
    assert mul_sign(sig, j1, j1) == -1
    assert mul_sign(sig, j3, j3) == 1
    assert mul_sign(sig, j2, j1) == -1
    assert mul_sign(sig, j1, j2) == 1
    assert mul_sign(sig, j12, j23) == -1
    assert mul_sign(sig, j12, j12) == -1


def test_word_mul_neutral_element():
    rng = random.Random(2)
    for _ in range(100):
        sig = random_signature(rng)
        m = letter_mask(random_canonical_word(rng, sig.n).letters)
        assert mul_sign(sig, m, 0) == mul_sign(sig, 0, m) == 1


def test_word_mul_matches_slow_oracle():
    rng = random.Random(23)
    for _ in range(500):
        sig = random_signature(rng)
        u = random_canonical_word(rng, sig.n)
        v = random_canonical_word(rng, sig.n)
        a, b = letter_mask(u.letters), letter_mask(v.letters)
        prod = Word(u.sign * v.sign * mul_sign(sig, a, b), mask_letters(a ^ b))
        assert prod == slow_word_mul(sig, u, v)


def test_mul_sign_matches_slow_oracle_on_every_mask_pair():
    for key in ((2, 1), (3, 2), (1, 4)):
        sig = Signature(*key)
        for a in range(0, 2 << sig.n, 2):
            for b in range(0, 2 << sig.n, 2):
                u, v = Word(1, mask_letters(a)), Word(1, mask_letters(b))
                want = slow_word_mul(sig, u, v)
                assert want.letters == mask_letters(a ^ b)
                assert mul_sign(sig, a, b) == want.sign, (key, a, b)


def test_mul_sign_rejects_a_shared_letter_out_of_range():
    """ValueError exactly when A and B share a letter outside 1..n, with
    the message Signature.eps gives for the least such letter."""
    sig = Signature(2, 1)
    for a in range(1 << sig.n + 3):
        for b in range(1 << sig.n + 3):
            outside = [x for x in mask_letters(a & b) if not 1 <= x <= sig.n]
            if not outside:
                assert mul_sign(sig, a, b) in (1, -1)
                continue
            with pytest.raises(ValueError) as want:
                sig.eps(outside[0])
            with pytest.raises(ValueError, match=re.escape(str(want.value))):
                mul_sign(sig, a, b)


def test_word_mul_associative():
    rng = random.Random(29)
    for _ in range(500):
        sig = random_signature(rng)
        a, b, c = (letter_mask(random_canonical_word(rng, sig.n).letters)
                   for _ in range(3))
        lhs = mul_sign(sig, a, b) * mul_sign(sig, a ^ b, c)
        rhs = mul_sign(sig, b, c) * mul_sign(sig, a, b ^ c)
        assert lhs == rhs


def test_word_square_sign_formula():
    rng = random.Random(31)
    for _ in range(300):
        sig = random_signature(rng)
        w = random_canonical_word(rng, sig.n)
        k = len(w.letters)
        expect = norm_sign(sig, w)
        if (k * (k + 1) // 2) % 2:
            expect = -expect
        assert word_square_sign(sig, w) == expect


def test_norm_sign_multiplicative():
    rng = random.Random(43)
    for _ in range(300):
        sig = random_signature(rng)
        u = random_canonical_word(rng, sig.n)
        v = random_canonical_word(rng, sig.n)
        prod = slow_word_mul(sig, u, v)
        assert norm_sign(sig, prod) == norm_sign(sig, u) * norm_sign(sig, v)


def test_norm_sign_matches_the_per_letter_product_on_every_letter_tuple():
    # Tuples up to length 3 over the letters -1 .. n + 1, repeats and any
    # order included, so the first letter out of range is the one named.
    for key in ((2, 1), (3, 2), (1, 4)):
        sig = Signature(*key)
        for size in range(4):
            for letters in itertools.product(range(-1, sig.n + 2), repeat=size):
                try:
                    expect = 1
                    for x in letters:
                        expect *= sig.eps(x)
                except ValueError as exc:
                    with pytest.raises(ValueError, match=re.escape(str(exc))):
                        norm_sign(sig, Word(1, letters))
                else:
                    assert norm_sign(sig, Word(1, letters)) == expect, letters
        for mask in range(0, 2 << sig.n, 2):
            w = Word(1, mask_letters(mask))
            expect = 1
            for x in w.letters:
                expect *= sig.eps(x)
            assert norm_sign(sig, w) == expect


def test_sign_form_transposed_is_the_transpose_of_mul_sign():
    """mul_sign(A, B) is -1 to the |A & sign_form_transposed(B)| for every
    pair of masks of letters 1..n, n <= 7, and on random pairs up to
    n = 16; the transpose holds letters 1..n alone."""
    pairs = []
    for key in ((1, 0), (0, 1), (2, 1), (3, 0), (0, 3), (3, 4), (7, 0), (0, 7)):
        sig = Signature(*key)
        masks = range(0, 2 << sig.n, 2)
        pairs += [(sig, a, b) for a in masks for b in masks]
    rng = random.Random(59)
    for _ in range(3000):
        sig = random_signature(rng, 16)
        pairs.append((sig, rng.getrandbits(sig.n) << 1, rng.getrandbits(sig.n) << 1))
    for sig, a, b in pairs:
        g = sign_form_transposed(sig, b)
        assert g & ~((2 << sig.n) - 2) == 0, (sig, b)
        assert mul_sign(sig, a, b) == (-1 if (a & g).bit_count() & 1 else 1), (sig, a, b)


def test_words_commute_matches_products():
    rng = random.Random(47)
    for _ in range(300):
        sig = random_signature(rng)
        u = random_canonical_word(rng, sig.n)
        v = random_canonical_word(rng, sig.n)
        same = slow_word_mul(sig, u, v) == slow_word_mul(sig, v, u)
        assert words_commute(u, v) == same


def test_format_and_parse():
    assert format_word(Word(1, ())) == "1"
    assert format_word(Word(-1, ())) == "-1"
    assert format_word(Word(-1, (1, 3))) == "-J1J3"
    assert format_word(Word(1, (2, 10))) == "J2J10"


def test_is_involution_word():
    sig = Signature(4, 0)
    assert word_square_sign(sig, Word(1, (1, 2, 3, 4))) == 1
    assert word_square_sign(sig, Word(1, (1,))) == -1
    assert word_square_sign(sig, Word(1, (1, 2))) == -1
    assert word_square_sign(Signature(0, 1), Word(1, (1,))) == 1


def test_check_involution_system_accepts_valid():
    sig = Signature(6, 0)
    system = (Involution(Word(1, (1, 2, 3, 4)), 1),
              Involution(Word(1, (1, 2, 5, 6)), 1))
    check_involution_system(sig, system)


def test_check_involution_system_rejects_bad():
    sig = Signature(6, 0)
    with pytest.raises(ValueError):
        check_involution_system(sig, (Involution(Word(1, (1, 2)), 1),))
    with pytest.raises(ValueError):
        check_involution_system(
            sig, (Involution(Word(1, (1, 2, 3, 4)), 2),))
    with pytest.raises(ValueError):
        check_involution_system(
            sig, (Involution(Word(1, (1, 2, 3, 4)), 1),
                  Involution(Word(1, (1, 2, 3, 4)), -1)))
    with pytest.raises(ValueError):
        check_involution_system(
            sig, (Involution(Word(1, (1, 2, 3, 4)), 1),
                  Involution(Word(1, (4, 5, 6)), 1)))


def slow_span(sig, system):
    """{mask P: scalar} for every subset product of the system, each
    multiplied out in system order by the slow word product: prod v =
    scalar v for prod = prod.sign * J_P."""
    products = [(Word(1, ()), 1)]
    for w, sgn in system:
        products += [(slow_word_mul(sig, prod, w), scalar * sgn) for prod, scalar in products]
    return {letter_mask(prod.letters): prod.sign * scalar for prod, scalar in products}


def test_span_products_and_reduce():
    """A word reduces modulo a system to its sign times the span's
    scalar at its mask, and only a member mask reduces.  The span is held
    against the slow word product on random systems, on the 34 stored
    systems and on each with every eigensign flipped, and on the searched
    system of each of the 80 grid signatures."""
    sig = Signature(6, 0)
    system = (Involution(Word(1, (1, 2, 3, 4)), 1),
              Involution(Word(1, (1, 2, 5, 6)), 1))
    table = span_products(sig, system)
    assert len(table) == 4
    assert letter_mask((3, 4, 5, 6)) in table
    assert table[letter_mask((1, 2, 3, 4))] == 1
    assert -table[letter_mask((1, 2, 3, 4))] == -1  # the word -J1J2J3J4
    assert letter_mask((1, 2)) not in table
    dependent = (Involution(Word(1, (1, 2, 3, 4)), 1), Involution(Word(-1, (1, 2, 3, 4)), -1))
    with pytest.raises(ValueError, match="^involution letter sets are not independent$"):
        span_products(sig, dependent)
    rng = random.Random(59)
    cases = []
    for _ in range(50):
        sig = Signature(rng.randint(4, 8), 8)
        cases.append((sig, [Involution(Word(rng.choice((1, -1)), letters), rng.choice((1, -1)))
                            for letters in ((1, 2, 3), (1, 4, 5), (6, 7, 8), (9, 10, 11, 12))]))
    for key in configured_signatures():
        system = reference_config(Signature(*key)).involutions
        flipped = [Involution(w, -sgn) for w, sgn in system]
        cases += [(Signature(*key), system), (Signature(*key), flipped)]
    cases += [(Signature(r, s), find_involution_system(Signature(r, s)))
              for r in range(9) for s in range(9) if r + s]
    assert len(cases) == 50 + 2 * 34 + 80
    for sig, system in cases:
        table = span_products(sig, system)
        assert len(table) == 2 ** len(system)
        assert table == slow_span(sig, system), (sig, system)


def test_reduce_respects_eigensigns():
    sig = Signature(6, 0)
    system = (Involution(Word(1, (1, 2, 3, 4)), -1),
              Involution(Word(1, (1, 2, 5, 6)), 1))
    table = span_products(sig, system)
    assert table[letter_mask((1, 2, 3, 4))] == -1
    product = slow_word_mul(sig, Word(1, (1, 2, 3, 4)), Word(1, (1, 2, 5, 6)))
    scalar = product.sign * table[letter_mask(product.letters)]
    assert scalar == -1


def test_span_products_tests_each_word_for_letters_out_of_range():
    """A lone word with letter 0 or n + 1 raises, naming the least letter
    outside 1..n of the first word, in order, that has one."""
    sig = Signature(3, 0)
    cases = [([(1, 2, 4)], 4), ([(0, 1, 2)], 0), ([(0, 2, 4)], 0),
             ([(1, 2), (2, 3, 4)], 4), ([(1, 4), (0, 2)], 4)]
    for letter_sets, letter in cases:
        system = [Involution(Word(1, letters), 1) for letters in letter_sets]
        with pytest.raises(ValueError) as exc:
            span_products(sig, system)
        assert str(exc.value) == "letter %d out of range for Signature(r=3, s=0)" % letter
