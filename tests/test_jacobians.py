import pytest

from motiveforge.jacobians import (DecompositionError, JacobianDecomposition,
                                   closed_multiplicities, decompose,
                                   factors_from_weight_part)
from motiveforge.laurent import L, LaurentInt
from motiveforge.moduli import n0_odd
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
    # an even λ-index has even weight: it cannot sit in an odd weight part
    with pytest.raises(DecompositionError, match="^even λ-index 2 "):
        factors_from_weight_part(MotiveClass(5, {2: L}), 3)


def _full_range_factors(genus, i):
    """m(α) = c(n−a) − c(n−g) + [a<g]·(c(n−3g+2a) − c(n−2g+a)), a = 2α−1,
    n = i−α, c(k) = ⌊k/2⌋+1 for k >= 0 and 0 below, for α = 1..⌈g/2⌉ with
    zeros dropped: the factors that n0_odd_closed's λ_a (L^a − L^g)/
    ((1−L)(1−L²)) gives once λ_(2g−a) is folded onto λ_a·L^(g−a)."""
    def c(k):
        return k // 2 + 1 if k >= 0 else 0
    out = []
    for alpha in range(1, (genus + 1) // 2 + 1):
        a, n = 2 * alpha - 1, i - alpha
        mult = c(n - a) - c(n - genus)
        if a < genus:
            mult += c(n - 3 * genus + 2 * a) - c(n - 2 * genus + a)
        if mult:
            out.append((alpha, mult))
    return tuple(out)


def test_odd_weight_parts_over_the_whole_range():
    # every odd weight part of N, not only i <= g where decompose answers
    for g in range(2, 13):
        cls = n0_odd(g)
        top = 3 * g - 3
        found = {i: factors_from_weight_part(cls.weight_part(2 * i - 1), i)
                 for i in range(1, top + 1)}
        for i, factors in found.items():
            assert factors == _full_range_factors(g, i), (g, i)
            assert factors == found[3 * g - 2 - i], (g, i)  # Poincaré duality
            if i <= g:
                assert factors == tuple(closed_multiplicities(i)), (g, i)
    # above g the stable formula no longer holds
    assert factors_from_weight_part(n0_odd(4).weight_part(9), 5) == (
        (1, 1), (2, 1))
    assert closed_multiplicities(5) == [(1, 2), (2, 1)]


def test_json_shape():
    dec = decompose(5, 5)
    assert dec.to_json_dict() == {
        "schema": "jacobian-decomp/v1",
        "i": 5,
        "factors": [[1, 2], [2, 1]],
    }
    assert isinstance(dec, JacobianDecomposition)
