import itertools

import pytest

from conftest import norm_sign
from dense_oracle import (
    build_basis,
    build_generators,
    diagonal,
    fixed_subspace,
    gram,
    initial_vector_candidates,
    is_valid_initial_vector,
    negated,
    vector,
)
from htype.basis_builder import (
    ALIASES,
    ReferenceConfig,
    configured_signatures,
    has_reference_config,
    reference_config,
)
from htype.clifford_rep import ConstructionError, minimal_admissible_dimension
from htype.golden import golden_signatures
from htype.lie_algebra import _table_from_masks, _word_masks
from htype.words import (
    Signature,
    Word,
    check_involution_system,
    letter_mask,
    span_products,
)


def every_config():
    for key in configured_signatures():
        sig = Signature(*key)
        yield sig, reference_config(sig)


def test_configured_signatures_counts():
    keys = configured_signatures()
    assert len(keys) == 34
    assert keys == sorted(set(golden_signatures()) | set(ALIASES))
    assert (0, 7) not in keys


def test_reference_config_lookup():
    assert has_reference_config(Signature(4, 2))
    assert not has_reference_config(Signature(0, 7))
    with pytest.raises(KeyError):
        reference_config(Signature(0, 7))
    assert reference_config(Signature(0, 2)) is reference_config(Signature(2, 0))


def test_every_config_is_well_formed():
    for sig, config in every_config():
        check_involution_system(sig, config.involutions)
        dim = minimal_admissible_dimension(sig.r, sig.s)
        assert len(config.basis_words) == dim
        assert config.basis_words[0] == Word(1, ())
        letter_sets = {w.letters for w in config.basis_words}
        assert len(letter_sets) == dim
        span = span_products(sig, config.involutions)
        for rel in config.relations:
            assert rel.sign * span[letter_mask(rel.letters)] == 1


def test_the_old_zero_pairing_is_a_basis_word():
    """(2,1) and (0,3) once also required <J1J2J3 v, v> = 0.  J1J2J3 is
    one of their basis words and the empty word another, so distinct
    cosets, which the table builder requires, already imply it."""
    for key in ((2, 1), (0, 3)):
        config = reference_config(Signature(*key))
        assert config.basis_words[0] == Word(1, ())
        assert Word(1, (1, 2, 3)) in config.basis_words


def test_initial_vector_is_first_coordinate():
    for sig, config in every_config():
        gens = build_generators(sig, system=config.involutions)
        assert build_basis(gens, config)[0] == (0, 1)
        e1 = [1] + [0] * (gens.dim - 1)
        assert next(initial_vector_candidates(gens, config)) == e1
        assert is_valid_initial_vector(gens, config, e1)
        assert is_valid_initial_vector(gens, config, [-x for x in e1])


def test_scaled_vector_is_invalid():
    sig = Signature(3, 0)
    config = reference_config(sig)
    gens = build_generators(sig, system=config.involutions)
    assert not is_valid_initial_vector(gens, config, [2, 0, 0, 0])
    assert not is_valid_initial_vector(gens, config, [0] * 4)


def test_fixed_subspace_contains_the_initial_vector():
    for key in ((6, 0), (4, 2), (0, 6)):
        sig = Signature(*key)
        config = reference_config(sig)
        gens = build_generators(sig, system=config.involutions)
        basis = fixed_subspace(gens, config.involutions)
        assert basis
        assert basis[0][0] == 1
        assert len(basis) < gens.dim


def test_candidate_stream_is_deterministic_and_valid():
    sig = Signature(2, 1)
    config = reference_config(sig)
    gens = build_generators(sig, system=config.involutions)
    first = list(itertools.islice(
        initial_vector_candidates(gens, config), 12))
    second = list(itertools.islice(
        initial_vector_candidates(gens, config), 12))
    assert first == second
    assert first[0] == [1] + [0] * (gens.dim - 1)
    for v in first:
        assert is_valid_initial_vector(gens, config, v)


def test_build_basis_gram_matrix():
    for key in ((3, 0), (4, 2), (0, 5)):
        sig = Signature(*key)
        config = reference_config(sig)
        gens = build_generators(sig, system=config.involutions)
        vectors = [vector(v, gens.dim) for v in build_basis(gens, config)]
        norms = [norm_sign(sig, w) for w in config.basis_words]
        assert gram(vectors, gens.form_v) == diagonal(norms)


def test_build_basis_is_the_frame_of_e1():
    for sig, config in every_config():
        gens = build_generators(sig, system=config.involutions)
        assert build_basis(gens, config) == [
            gens.act_word(w, (0, 1)) for w in config.basis_words]


def test_negated_module_hint():
    sig = Signature(7, 0)
    config = reference_config(sig)
    gens = negated(build_generators(sig, system=config.involutions))
    with pytest.raises(ConstructionError, match="negated"):
        build_basis(gens, config)


def test_unsatisfiable_config_raises():
    """A zero pairing that the frame breaks, a basis word repeated in
    place of the last, and one repeated on top of the full list: the
    module route's build_basis rejects each, and the table builder
    rejects both repeats."""
    sig = Signature(6, 0)
    config = reference_config(sig)
    repeated = ReferenceConfig(
        involutions=config.involutions,
        basis_words=(Word(1, ()),) + config.basis_words[:-1],
    )
    extra = ReferenceConfig(
        involutions=config.involutions,
        basis_words=config.basis_words + (Word(1, ()),),
    )
    gens = build_generators(sig, system=config.involutions)
    for broken, pairings in ((config, (Word(1, ()),)), (repeated, ()), (extra, ())):
        with pytest.raises(ConstructionError, match="not a valid initial"):
            build_basis(gens, broken, pairings)
    for broken in (repeated, extra):
        with pytest.raises(ConstructionError, match="miss or repeat a coset"):
            _table_from_masks(sig, broken.involutions,
                              _word_masks(broken.involutions, broken.basis_words))
