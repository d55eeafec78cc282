"""The record contract of the package's ten value types.

Signature is a small immutable class; Word and Involution are plain
namedtuples; the other seven are namedtuples with the words.Record
mixin.  The reprs, equalities and hashes below are those the types had
as dataclasses and typing.NamedTuples, so a caller sees the same
values; VerifyReport is now immutable, and _replace replaces
dataclasses.replace.
"""

import copy
import pickle

import pytest

from htype.basis_builder import ReferenceConfig
from htype.clifford_rep import CliffordType, GeneratorSet
from htype.lie_algebra import MissingCell, StructureTable, TableComparison, VerifyReport
from htype.words import Involution, Signature, Word

SIG = Signature(1, 0)
WORD = Word(-1, (1, 2))

# (record, its repr, its field values, one field and a new value for it)
RECORDS = [
    (SIG, "Signature(r=1, s=0)", (1, 0), ("s", 1)),
    (WORD, "Word(sign=-1, letters=(1, 2))", (-1, (1, 2)), ("sign", 1)),
    (Involution(WORD, 1),
     "Involution(word=Word(sign=-1, letters=(1, 2)), eigensign=1)",
     (WORD, 1), ("eigensign", -1)),
    (ReferenceConfig(basis_words=(Word(1, ()),)),
     "ReferenceConfig(involutions=(), basis_words=(Word(sign=1, letters=()),), relations=())",
     ((), (Word(1, ()),), ()), ("relations", (WORD,))),
    (CliffordType("R", 2, False), "CliffordType(kind='R', size=2, doubled=False)",
     ("R", 2, False), ("doubled", True)),
    (GeneratorSet(SIG, 2, ((1, 0, 3, 2),), (1, 1)),
     "GeneratorSet(sig=Signature(r=1, s=0), dim=2, ops=((1, 0, 3, 2),), form_v=(1, 1))",
     (SIG, 2, ((1, 0, 3, 2),), (1, 1)), ("form_v", (1, -1))),
    (StructureTable(SIG, 2, {(1, 2): (1, 1), (2, 1): (1, -1)}),
     "StructureTable(sig=Signature(r=1, s=0), dim=2, cells={(1, 2): (1, 1), (2, 1): (1, -1)}, "
     "missing=frozenset(), label='')",
     (SIG, 2, {(1, 2): (1, 1), (2, 1): (1, -1)}, frozenset(), ""), ("label", "by hand")),
    (MissingCell((1, 2), 0), "MissingCell(cell=(1, 2), suggestion=0)", ((1, 2), 0),
     ("suggestion", None)),
    (VerifyReport(SIG, "x", ["e"], None, [MissingCell((1, 2), None)]),
     "VerifyReport(sig=Signature(r=1, s=0), label='x', errata=['e'], eta=None, "
     "missing=[MissingCell(cell=(1, 2), suggestion=None)])",
     (SIG, "x", ["e"], None, [MissingCell((1, 2), None)]), ("errata", [])),
    (TableComparison("exact", (1, 1)), "TableComparison(status='exact', sigma=(1, 1), diffs=())",
     ("exact", (1, 1), ()), ("status", "sign-equivalent")),
]
# Word and Involution were typing.NamedTuples, equal to a plain tuple.
TUPLE_EQUAL = (Word, Involution)
# A dict or list field makes these unhashable, as before.
UNHASHABLE = (StructureTable, VerifyReport)
IDS = [type(rec).__name__ for rec, *_ in RECORDS]


@pytest.mark.parametrize("rec, text, values, change", RECORDS, ids=IDS)
def test_records_keep_their_contract(rec, text, values, change):
    assert repr(rec) == text
    assert (rec == values) is (values == rec) is isinstance(rec, TUPLE_EQUAL)
    assert (rec != values) is not isinstance(rec, TUPLE_EQUAL)
    if isinstance(rec, UNHASHABLE):
        with pytest.raises(TypeError):
            hash(rec)
    else:
        assert hash(rec) == hash(values)
    name, value = change
    with pytest.raises(AttributeError):
        setattr(rec, name, value)
    changed = rec._replace(**{name: value})
    assert type(changed) is type(rec) and changed != rec
    assert getattr(changed, name) == value and repr(rec) == text
    assert copy.copy(rec) == rec == pickle.loads(pickle.dumps(rec))


def test_records_of_different_types_are_unequal():
    assert Signature(1, 0) != (1, 0)
    assert MissingCell((1, 2), 0) != ((1, 2), 0)
    assert CliffordType("R", 1, False) != TableComparison("R", 1, False)
    assert TableComparison("R", 1, False) != CliffordType("R", 1, False)
    assert StructureTable(SIG, 2, {}) != VerifyReport(SIG, 2, {}, frozenset(), "")


@pytest.mark.parametrize("plain", [Word(1, (1,)), Involution(WORD, 1)], ids=["Word", "Involution"])
def test_tuple_equal_records_are_unequal_to_records_both_ways(plain):
    record = MissingCell(*plain)
    assert tuple(record) == tuple(plain)
    assert not plain == record and not record == plain
    assert plain != record and record != plain
    assert plain == tuple(plain) == plain and not plain != tuple(plain)


def test_signature_keeps_its_checks_and_formats_whole():
    for r, s in ((-1, 0), (0, -1), (0, 0)):
        with pytest.raises(ValueError, match=r"signature needs r, s >= 0 and r \+ s >= 1"):
            Signature(r, s)
    with pytest.raises(ValueError):
        SIG._replace(r=0)
    with pytest.raises(AttributeError):
        del SIG.r
    assert "n%s" % SIG == "n(1,0)"
    assert not isinstance(SIG, tuple)


def test_verify_report_defaults_to_no_missing_cells():
    assert VerifyReport(SIG, "x", [], None).missing == ()
