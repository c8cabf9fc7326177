import pytest

from motiveforge.jacobians import (DecompositionError, JacobianDecomposition,
                                   closed_multiplicities, decompose,
                                   factors_from_weight_part)
from motiveforge.laurent import L, LaurentInt
from motiveforge.motive import MotiveClass


def test_decompose_known_cases():
    assert decompose(2, 2).factors == ((1, 1),)  # J² is the jacobian itself
    assert decompose(3, 3).factors == ((1, 1),)
    assert decompose(5, 5).factors == ((1, 2), (2, 1))


def test_closed_multiplicities():
    assert closed_multiplicities(1) == []
    assert closed_multiplicities(2) == [(1, 1)]
    assert closed_multiplicities(4) == [(1, 2)]
    assert closed_multiplicities(5) == [(1, 2), (2, 1)]
    with pytest.raises(ValueError):
        closed_multiplicities(0)


# Closed multiplicities, Betti consistency and the trivial J^1 at g = 2..5
# are written once, as the verify registry's jacobian_decompositions check.


def test_decompose_matches_closed_formula(registry_passes):
    registry_passes("jacobian_decompositions")


def test_betti_consistency(registry_passes):
    registry_passes("jacobian_decompositions")


def test_no_first_jacobian(registry_passes):
    registry_passes("jacobian_decompositions")


def test_decompose_validates_inputs():
    with pytest.raises(ValueError):
        decompose(1, 1)
    with pytest.raises(ValueError):
        decompose(3, 0)
    with pytest.raises(ValueError):
        decompose(3, 4)


def test_shape_mismatch_detection():
    # two terms in one component
    bad = MotiveClass(5, {1: L + L ** 2})
    with pytest.raises(DecompositionError):
        factors_from_weight_part(bad, 2)
    # wrong exponent
    with pytest.raises(DecompositionError):
        factors_from_weight_part(MotiveClass(5, {1: L ** 3}), 2)
    # negative multiplicity
    with pytest.raises(DecompositionError):
        factors_from_weight_part(
            MotiveClass(5, {1: LaurentInt.monomial(1, -2)}), 2)
    # factor index out of range: a λ3 factor needs i >= 5
    with pytest.raises(DecompositionError):
        factors_from_weight_part(MotiveClass(5, {3: L}), 4)


def test_json_shape():
    dec = decompose(5, 5)
    assert dec.to_json_dict() == {
        "schema": "jacobian-decomp/v1",
        "i": 5,
        "factors": [[1, 2], [2, 1]],
    }
    assert isinstance(dec, JacobianDecomposition)
