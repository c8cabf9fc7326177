import json

import pytest

from motiveforge.laurent import ExactDivisionError, L, LaurentInt
from motiveforge.motive import (GenusMismatchError, MotiveClass,
                                UnsupportedProductError, _tate_combination,
                                lambda_binomial)


def test_canonicalize_folds_high_indices():
    assert MotiveClass(2, {3: 1}) == MotiveClass(2, {1: L})
    assert MotiveClass(2, {4: 1}) == MotiveClass.tate(2, 2)
    assert (MotiveClass(3, {0: 1, 2: 1, 4: 1, 6: 1})
            == MotiveClass(3, {0: 1 + L ** 3, 2: 1 + L}))


def test_canonicalize_is_idempotent():
    x = MotiveClass(2, {0: 2, 3: LaurentInt({-1: 1})})
    assert MotiveClass(2, x.components()) == x


def test_canonicalize_validates_input():
    with pytest.raises(ValueError):
        MotiveClass(2, {5: 1})
    with pytest.raises(ValueError):
        MotiveClass(2, {-1: 1})
    with pytest.raises(ValueError):
        MotiveClass(0, {0: 1})


def test_addition():
    one = MotiveClass.one(2)
    l1 = MotiveClass.lam(2, 1, L)
    assert one + l1 == MotiveClass(2, {0: 1, 1: L})
    x = MotiveClass(2, {0: 1 + L, 2: 3})
    assert x + MotiveClass.zero(2) == x
    assert x + (-x) == MotiveClass.zero(2)


def test_addition_genus_mismatch():
    with pytest.raises(GenusMismatchError):
        MotiveClass.one(2) + MotiveClass.one(3)


def test_scalar_multiplication():
    x = MotiveClass(2, {0: 1, 1: 1})
    assert x * (1 + L) == MotiveClass(2, {0: 1 + L, 1: 1 + L})
    assert x * 0 == MotiveClass.zero(2)
    # third symmetric product of the curve times a projective plane
    sym3 = MotiveClass(2, {0: 1 + L + L ** 2 + L ** 3,
                           1: 1 + 2 * L + L ** 2,
                           2: 1 + L})
    product = sym3 * (1 + L + L ** 2)
    assert product == MotiveClass(2, {
        0: 1 + 2 * L + 3 * L ** 2 + 3 * L ** 3 + 2 * L ** 4 + L ** 5,
        1: 1 + 3 * L + 4 * L ** 2 + 3 * L ** 3 + L ** 4,
        2: 1 + 2 * L + 2 * L ** 2 + L ** 3})


def test_class_product_requires_a_pure_tate_factor():
    x = MotiveClass.lam(2, 1)
    tate = MotiveClass.tate(2, 3, 2)
    assert x * tate == MotiveClass.lam(2, 1, LaurentInt.monomial(3, 2))
    assert tate * x == x * tate
    with pytest.raises(UnsupportedProductError):
        x * MotiveClass.lam(2, 2)


def test_tate_twist():
    l1 = MotiveClass.lam(2, 1)
    assert l1.twist(-1) == MotiveClass.lam(2, 1, L)
    x = MotiveClass(2, {0: 1 + L, 1: LaurentInt.monomial(-2, 3)})
    assert x.twist(4).twist(-4) == x
    kum = MotiveClass(2, {0: 1 + L ** 2, 2: 1})
    assert kum.twist(-1) == MotiveClass(2, {0: L + L ** 3, 2: L})


def test_dual():
    assert MotiveClass.one(2).dual() == MotiveClass.one(2)
    assert (MotiveClass.lam(2, 1, L).dual()
            == MotiveClass.lam(2, 1, LaurentInt.monomial(-2)))
    x = MotiveClass(3, {0: 1 + 2 * L, 1: LaurentInt.monomial(-1) + L, 3: 5})
    assert x.dual().dual() == x
    assert x.dual().rank() == x.rank()


def test_weight_part():
    n0 = MotiveClass(2, {0: 1 + L + L ** 2 + L ** 3, 1: L})
    assert n0.weight_part(3) == MotiveClass.lam(2, 1, L)
    assert n0.weight_part(5) == MotiveClass.zero(2)
    assert (MotiveClass.lam(2, 2, L).weight_part(4)
            == MotiveClass.lam(2, 2, L))
    assert n0.weights() == [0, 2, 3, 4, 6]
    parts = n0.weight_decomposition()
    assert list(parts) == n0.weights()
    assert all(part == n0.weight_part(m) for m, part in parts.items())
    assert sum(parts.values(), MotiveClass.zero(2)) == n0
    assert MotiveClass.zero(2).weight_decomposition() == {}


def test_truncate_below():
    x = MotiveClass(2, {0: 1 + L + L ** 2, 1: L})
    assert x.truncate_below(3) == MotiveClass(2, {0: 1 + L})
    assert x.truncate_below(100) == x
    assert x.truncate_below(0) == MotiveClass.zero(2)


def test_exact_div_componentwise():
    x = MotiveClass(2, {0: 1 + L, 1: LaurentInt({2: 2})})
    p = 1 + L
    assert (x * p).exact_div(p) == x
    with pytest.raises(ExactDivisionError, match="in λ1 component") as err:
        MotiveClass(2, {1: 1 + L ** 2}).exact_div(1 + L)
    assert err.value.remainder == 2 * L ** 2


def test_series_div_componentwise():
    # λ2 part of the pure even pair class at g=2 against the P^3 factor
    comp = LaurentInt({1: -1, 2: -1, 3: -2, 4: -1})
    x = MotiveClass(2, {2: comp})
    _, flags = x.series_div(1 + L + L ** 2 + L ** 3, 40)
    assert flags == {2: False}
    y = MotiveClass(2, {0: (1 + L) * (1 + L + L ** 2), 1: 1 + L + L ** 2})
    q, flags = y.series_div(1 + L + L ** 2, 30)
    assert flags == {0: True, 1: True}
    assert q == MotiveClass(2, {0: 1 + L, 1: 1})


def test_lambda_binomial_g2():
    b = lambda_binomial(0, 1, 2)
    assert b == MotiveClass(2, {0: 1 + L ** 6, 1: L + L ** 4, 2: L ** 2})
    assert lambda_binomial(0, 0, 2).rank() == 16
    for g in (1, 2, 3):
        assert lambda_binomial(0, 0, g).rank() == 2 ** (2 * g)


def test_lambda_binomial_matches_the_unfolded_expansion():
    # the direct fold against the constructor's fold of all 2g + 1 terms
    for g in range(1, 6):
        for ea in range(-2, 3):
            for eb in range(-2, 3):
                unfolded = MotiveClass(g, {
                    a: LaurentInt.monomial(ea * (2 * g - a) + eb * a)
                    for a in range(2 * g + 1)})
                assert lambda_binomial(ea, eb, g) == unfolded, (g, ea, eb)


def test_tate_combination_cancels_to_the_zero_class():
    x = MotiveClass(2, {0: 1 + L, 1: LaurentInt.monomial(-1), 2: 3})
    total = _tate_combination(
        2, [(x, 1 + L), (x * L, LaurentInt(1)), (x, -1 - 2 * L)])
    assert total == MotiveClass.zero(2)
    assert total.components() == {}
    assert _tate_combination(2, []) == MotiveClass.zero(2)


def test_tate_combination_with_coinciding_shifts():
    # a chain factor L^j - L^(top-2j) with j = top - 2j is zero: a dict
    # {j: 1, top - 2j: -1} would keep -L^j
    x = lambda_binomial(0, 1, 3)
    factor = L ** 4 - L ** (12 - 2 * 4)
    assert _tate_combination(3, [(x, factor)]) == MotiveClass.zero(3)
    assert (_tate_combination(3, [(x, L ** 4 + L ** 4)])
            == MotiveClass(3, {a: x.component(a) * LaurentInt.monomial(4, 2)
                               for a in x.lambda_indices()}))


def test_main_lemma_identity(registry_passes):
    registry_passes("main_lemma_binomial_symmetry")


def test_rank_weight_bookkeeping():
    x = MotiveClass(2, {1: L})
    assert x.rank() == 4
    assert x.weights() == [3]
    assert MotiveClass.zero(2).weights() == []


def test_render_grouped_by_lambda_index():
    n0 = MotiveClass(2, {0: 1 + L + L ** 2 + L ** 3, 1: L})
    assert n0.render() == "1 + L + L^2 + L^3 + λ1·L"
    kum = MotiveClass(2, {0: 1 + L ** 2, 2: 1})
    assert kum.render() == "1 + L^2 + λ2"
    assert MotiveClass.zero(2).render() == "0"
    multi = MotiveClass(2, {0: 1 + 2 * L ** 2, 1: L + L ** 3})
    assert multi.render() == "1 + 2·L^2 + λ1·(L + L^3)"
    neg = MotiveClass(2, {1: LaurentInt({2: -1, 3: -2})})
    assert neg.render() == "λ1·(-L^2 - 2·L^3)"


def test_json_round_trip():
    x = MotiveClass(2, {0: 1 + L + L ** 2 + L ** 3, 1: L})
    blob = x.to_json_dict()
    assert blob == {
        "schema": "motive-class/v1",
        "genus": 2,
        "lambda": {"0": {"0": 1, "1": 1, "2": 1, "3": 1}, "1": {"1": 1}},
    }
    assert MotiveClass.from_json_dict(json.loads(json.dumps(blob))) == x


def test_json_accepts_uncanonical_indices():
    blob = {"schema": "motive-class/v1", "genus": 2, "lambda": {"3": {"0": 1}}}
    assert MotiveClass.from_json_dict(blob) == MotiveClass(2, {1: L})


def test_json_rejects_garbage():
    # a wrong schema, a missing or misspelled "lambda", an extra key
    for blob in ({"schema": "something-else/v1"},
                 {"schema": "motive-class/v1", "genus": 2},
                 {"schema": "motive-class/v1", "genus": 3,
                  "lamda": {"1": {"0": 5}}},
                 {"schema": "motive-class/v1", "genus": 2,
                  "lambda": {"0": {"0": 1}}, "extra": 0}):
        with pytest.raises(ValueError, match="expected a motive-class/v1"):
            MotiveClass.from_json_dict(blob)
    for key in ("x", "0_1", " 1", "1 ", "١", "¹", "", 1):
        with pytest.raises(ValueError, match="malformed lambda map"):
            MotiveClass.from_json_dict({"schema": "motive-class/v1",
                                        "genus": 2, "lambda": {key: {}}})
    with pytest.raises(ValueError):
        MotiveClass.from_json_dict({"schema": "motive-class/v1", "genus": True,
                                    "lambda": {"0": {"0": 1}}})
    for coeff in (1.5, True, "1"):
        with pytest.raises(ValueError):
            MotiveClass.from_json_dict({"schema": "motive-class/v1", "genus": 2,
                                        "lambda": {"1": {"0": coeff}}})
    # two keys naming one λ-index, or one exponent, are rejected
    for lam in ({"1": {"0": 1}, "01": {"0": 2}},
                {"0": {"0": 1}, "1": {"2": 1, "02": 1}}):
        with pytest.raises(ValueError):
            MotiveClass.from_json_dict({"schema": "motive-class/v1", "genus": 2,
                                        "lambda": lam})
    # distinct indices that fold onto one canonical index are not duplicates
    folded = {"schema": "motive-class/v1", "genus": 2,
              "lambda": {"1": {"1": 1}, "3": {"0": 1}}}
    assert (MotiveClass.from_json_dict(folded)
            == MotiveClass(2, {1: LaurentInt.monomial(1, 2)}))


def test_randomized_dual_twist_serialization(registry_passes):
    registry_passes("twist_inverse", "dual_involution",
                    "serialization_round_trip")
