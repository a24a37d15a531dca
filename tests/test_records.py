"""The immutable records of every module: value equality, hashing, no
assignment, and the error each raises for a bad argument."""

import inspect

import pytest

from nullcert.assemble import (
    AssembledSystem,
    AssembleError,
    DegreeStats,
    NullaOutcome,
    _Packing,
)
from nullcert.certificate import CertEntry, Certificate, CertificateError
from nullcert.encode import EncodeError, EncodingOptions
from nullcert.graphs import Graph, GraphError
from nullcert.linsolve import SolveResult, SparseSystem
from nullcert.poly import FieldSpec, Monomial, PolyError, PolySystem, Polynomial
from nullcert.symmetry import PermutationSet

F2 = FieldSpec(2)
# _Packing has no value equality, so every record holding one shares it
PACKING = _Packing(range(3), 3, 2)


def mono():
    return Monomial(((0, 2), (1, 1)), 3)


def poly():
    return Polynomial(F2, 3, ((mono(), 1), (Monomial((), 3), 1)))


def sparse():
    return SparseSystem(F2, 2, (((0, 1), (1, 1)),))


def assembled():
    return AssembledSystem(sparse(), ((1,),), PACKING, ((0, 0), (0, 1)), (0,), ())


# class: (a fresh instance, a call with a bad argument, its error, its message)
RECORDS = {
    FieldSpec: (lambda: FieldSpec(3), lambda: FieldSpec(4), PolyError, "must be prime"),
    Monomial: (mono, lambda: Monomial(((1, 1), (0, 1)), 3), PolyError, "out of order"),
    Polynomial: (poly, lambda: Polynomial(F2, 3, ((mono(), 2),)), PolyError, r"outside 1\.\.1"),
    PolySystem: (
        lambda: PolySystem(F2, 3, (poly(), poly())),
        lambda: PolySystem(F2, 3, ()),
        PolyError,
        "must be nonempty",
    ),
    CertEntry: (
        lambda: CertEntry("edge:1-2", poly(), poly()),
        lambda: CertEntry("edge:1-2", poly()),
        TypeError,
        r"CertEntry.__init__\(\) missing 1 required positional argument: 'multiplier'",
    ),
    Certificate: (
        lambda: Certificate(F2, 3, poly(), (CertEntry("edge:1-2", poly(), poly()),), {"input": {"kind": "gen"}}),
        lambda: Certificate(FieldSpec(3), 3, poly(), ()),
        CertificateError,
        "target field or n_vars mismatch",
    ),
    EncodingOptions: (
        lambda: EncodingOptions(k=4, field=FieldSpec(3), cutters="cliques"),
        lambda: EncodingOptions(k=2, field=FieldSpec(3), cutters="cliques"),
        EncodeError,
        "each clique cutter x_u\\+x_v is its edge polynomial",
    ),
    Graph: (
        lambda: Graph(3, frozenset({(1, 2), (2, 3)})),
        lambda: Graph(3, frozenset({(2, 1)})),
        GraphError,
        "out of range or unordered",
    ),
    SparseSystem: (
        sparse,
        lambda: SparseSystem(F2, 2),
        TypeError,
        r"SparseSystem.__init__\(\) missing 1 required positional argument: 'rows'",
    ),
    SolveResult: (
        lambda: SolveResult(((0, 1),), (0,)),
        lambda: SolveResult(((0, 1),)),
        TypeError,
        "missing 1 required positional argument: 'pivot_cols'",
    ),
    PermutationSet: (
        lambda: PermutationSet(3, ((1, 2, 0),)),
        lambda: PermutationSet(3),
        TypeError,
        "missing 1 required positional argument: 'generators'",
    ),
    AssembledSystem: (
        assembled,
        lambda: AssembledSystem(sparse(), ((1,),), PACKING, ((0, 0),), (0,), ()),
        AssembleError,
        "column key count does not match system width",
    ),
    DegreeStats: (
        lambda: DegreeStats(1, 6, 8, 12, "consistent", 3),
        lambda: DegreeStats(1, 6, 8, 12, "consistent"),
        TypeError,
        "missing 1 required positional argument: 'millis'",
    ),
    NullaOutcome: (
        lambda: NullaOutcome(None, 4, (DegreeStats(1, 6, 8, 12, "inconsistent", 3),)),
        lambda: NullaOutcome(None, 4),
        TypeError,
        "missing 1 required positional argument: 'per_degree'",
    ),
}


def test_every_record_is_listed():
    assert len(RECORDS) == 14


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_behaves_as_a_frozen_value(cls):
    make, bad, error, message = RECORDS[cls]
    a, b = make(), make()
    assert type(a) is cls and a is not b
    assert a == b and not a != b
    assert a != object() and a != ()
    if cls is Certificate:  # its provenance is a dict
        with pytest.raises(TypeError, match="unhashable"):
            hash(a)
    else:
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
    first = next(iter(inspect.signature(cls).parameters))
    with pytest.raises(AttributeError):
        setattr(a, first, getattr(b, first))
    with pytest.raises(AttributeError):
        delattr(a, first)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert a == b
    with pytest.raises(error, match=message):
        bad()


def test_equal_fields_of_another_record_class_are_not_equal():
    assert DegreeStats(1, 6, 8, 12, "consistent", 3) != SolveResult(1, 6)
    # the same field values (((0, 2), (1, 1)), 3) in two classes
    assert mono() != PermutationSet(((0, 2), (1, 1)), 3)


def test_sparse_system_row_count_is_its_rows():
    assert sparse().n_rows == len(sparse().rows) == 1
    assert SparseSystem(F2, 2, ((), ((1, 1),), ())).n_rows == 3


def test_monomial_order_and_hash_are_those_of_its_fields():
    low, high = Monomial(((0, 1),), 3), mono()
    assert low.sort_key() < high.sort_key() and not high.sort_key() < low.sort_key()
    assert sorted([high, low], key=Monomial.sort_key) == [low, high]
    with pytest.raises(TypeError):
        low < high  # sort_key is the one order
    # the field tuple's hash, on which the order of a set of monomials rests
    assert hash(low) == hash((((0, 1),), 3))


def test_assembled_system_keys_each_column_once():
    # packed_cols[j] is the key of system column j: one key fewer or one
    # more than the system's width is refused
    for keys in (((0, 0),), ((0, 0), (0, 1), (0, 2))):
        with pytest.raises(AssembleError, match="column key count"):
            AssembledSystem(sparse(), ((1,),), PACKING, keys, (0,), ())
