"""The package's records: immutability, keyword construction, equality,
hash and repr, on the records of the B3 golden case."""

import inspect

import pytest

from crflag.chevalley import ChevalleyAlgebra, build_chevalley
from crflag.cralgebra import CaseResult, CRAlgebraData, analyze, evaluate
from crflag.involution import InvolutionData, cayley_update, identity_involution
from crflag.parabolic import ParabolicData, parabolic_from_subset
from crflag.roots import RootSystem, build_root_system
from crflag.survey import SurveyRow, _survey_case


@pytest.fixture(scope="module")
def records():
    rs = build_root_system("B", 3)
    q = parabolic_from_subset(rs, {1, 3})
    sigma = identity_involution(rs)
    for gamma in ((0, 1, 0), (1, 1, 1)):
        sigma = cayley_update(rs, sigma, gamma)
    cr = analyze(rs, q, sigma)
    return {
        RootSystem: rs,
        ParabolicData: q,
        InvolutionData: sigma,
        CRAlgebraData: cr,
        CaseResult: evaluate(cr),
        ChevalleyAlgebra: build_chevalley(rs),
        SurveyRow: _survey_case(rs, q, 2, sigma, False, 0, set()),
    }


def _fields(record) -> dict:
    """The record's constructor arguments, by keyword."""
    return {name: getattr(record, name) for name in inspect.signature(type(record)).parameters}


# records whose equality is identity; the others compare field values
_BY_IDENTITY = (RootSystem, ChevalleyAlgebra)


@pytest.mark.parametrize("cls", [
    RootSystem, ParabolicData, InvolutionData, CRAlgebraData, CaseResult, ChevalleyAlgebra,
    SurveyRow,
], ids=lambda cls: cls.__name__)
def test_record_is_immutable_and_rebuilds_by_keyword(records, cls):
    record = records[cls]
    fields = _fields(record)
    name, value = next(iter(fields.items()))
    with pytest.raises(AttributeError):
        setattr(record, name, None)
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.not_a_field = None
    assert getattr(record, name) is value
    copy = cls(**fields)
    assert _fields(copy) == fields
    assert record != object()
    if cls in _BY_IDENTITY:
        assert copy != record
    else:
        assert copy == record and hash(copy) == hash(record)


def test_build_root_system_returns_one_object_per_type(records):
    rs = records[RootSystem]
    assert build_root_system("B", 3) is rs
    assert RootSystem(**_fields(rs)) != rs


def test_involutions_compare_by_matrix_and_provenance(records):
    sigma = records[InvolutionData]
    other_images = InvolutionData(matrix=sigma.matrix, provenance=sigma.provenance, images={})
    assert other_images == sigma and hash(other_images) == hash(sigma)
    explicit = InvolutionData(matrix=sigma.matrix, provenance="explicit", images=sigma.images)
    assert explicit != sigma


def test_involution_repr_leaves_out_images(records):
    sigma = records[InvolutionData]
    assert repr(sigma) == f"InvolutionData(matrix={sigma.matrix!r}, provenance={sigma.provenance!r})"
