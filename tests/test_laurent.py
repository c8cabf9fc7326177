import random

import pytest

from motiveforge.laurent import (DivisorUnitError, ExactDivisionError, L,
                                 LaurentInt, lpow)


def test_construction_prunes_zeros():
    assert LaurentInt({0: 1, 3: 0, -2: 5}) == LaurentInt({0: 1, -2: 5})
    assert not LaurentInt(0)
    assert LaurentInt() == 0


def test_construction_rejects_non_ints():
    with pytest.raises(TypeError):
        LaurentInt({0: 1.5})
    with pytest.raises(TypeError):
        LaurentInt("L")


def test_basic_arithmetic_with_negative_exponents():
    p = 1 + L + lpow(-1)
    assert p * L == L + L ** 2 + 1
    assert (p - p) == 0
    assert (-p) + p == 0
    assert lpow(-3) * lpow(3) == 1


def test_pow_square_and_chain():
    assert (1 + L) ** 2 == 1 + 2 * L + L ** 2
    assert (1 - L) * (1 + L + L ** 2 + L ** 3) == 1 - L ** 4
    with pytest.raises(ValueError):
        (1 + L) ** -1


def test_scale_exponents_and_evaluate():
    p = 1 + 2 * L + lpow(-2, 3)
    assert p.scale_exponents(2) == 1 + 2 * L ** 2 + lpow(-4, 3)
    assert p.scale_exponents(-1) == 1 + lpow(-1, 2) + lpow(2, 3)
    assert p.evaluate(1) == 6
    assert (1 + L ** 2).evaluate(2) == 5
    with pytest.raises(ValueError):
        p.scale_exponents(0)


def test_exact_div_worked_example():
    # this quotient is the scalar component of the last odd pair space at g=2
    num = 1 + 2 * L + 3 * L ** 2 + 3 * L ** 3 + 2 * L ** 4 + L ** 5
    quo = num.exact_div(1 + L + L ** 2)
    assert quo == 1 + L + L ** 2 + L ** 3
    assert quo * (1 + L + L ** 2) == num


def test_exact_div_remainder_error():
    with pytest.raises(ExactDivisionError) as err:
        (1 + L ** 2).exact_div(1 + L)
    assert err.value.remainder == 2 * L ** 2


def test_exact_div_laurent_divisor():
    num = lpow(-2) - lpow(2)
    assert num.exact_div(lpow(-1) - L) == lpow(-1) + L


def test_exact_div_zero_cases():
    assert LaurentInt().exact_div(1 + L) == 0
    with pytest.raises(ZeroDivisionError):
        (1 + L).exact_div(0)


def test_series_div_geometric():
    q, exact = (1 + L).series_div(1 - L, 4)
    assert q == 1 + 2 * L + 2 * L ** 2 + 2 * L ** 3 + 2 * L ** 4
    assert not exact


def test_series_div_terminating():
    q, exact = (1 - L ** 4).series_div(1 - L, 10)
    assert q == 1 + L + L ** 2 + L ** 3
    assert exact


def test_series_div_needs_unit_bottom():
    with pytest.raises(DivisorUnitError):
        (1 + L).series_div(2 + L, 5)
    with pytest.raises(DivisorUnitError):
        (1 + L).series_div(LaurentInt(), 5)
    # a -1 bottom coefficient is fine
    q, exact = (1 - L ** 2).series_div(-1 + L, 10)
    assert q == -1 - L
    assert exact


def test_series_div_truncates_exact_quotients_past_order():
    # the true quotient ends above the order, so the flag stays down
    q, exact = (1 - L ** 100).series_div(1 - L, 5)
    assert q == 1 + L + L ** 2 + L ** 3 + L ** 4 + L ** 5
    assert not exact


def test_random_division_round_trip():
    rng = random.Random(7)
    for _ in range(300):
        x = LaurentInt({rng.randint(-5, 8): rng.randint(-9, 9)
                        for _ in range(rng.randint(0, 5))})
        p = LaurentInt()
        while not p:
            p = LaurentInt({rng.randint(-3, 4): rng.randint(-6, 6)
                            for _ in range(rng.randint(1, 4))})
        assert (x * p).exact_div(p) == x


def test_render():
    assert LaurentInt().render() == "0"
    assert (1 + 2 * L ** 2).render() == "1 + 2·L^2"
    assert (L - L ** 3).render() == "L - L^3"
    assert (-L + lpow(-1)).render() == "L^-1 - L"
    assert lpow(0, -4).render() == "-4"
    assert (1 + L).render("t") == "1 + t"


def test_json_fragment_round_trip():
    p = 1 + 2 * L + lpow(-3, 5)
    blob = p.to_coeff_json()
    assert blob == {"-3": 5, "0": 1, "1": 2}
    assert LaurentInt.from_coeff_json(blob) == p
    with pytest.raises(ValueError):
        LaurentInt.from_coeff_json({"x": 1})
    # floats, bools and numeric strings are rejected, never coerced
    for bad in ({"0": 1.5, "1": True}, {"0": 1.5}, {"1": True}, {"0": "3"},
                {"0.5": 1}, [1, 2]):
        with pytest.raises(ValueError):
            LaurentInt.from_coeff_json(bad)
    # two keys naming one exponent are rejected, not overwritten
    for dup in ({"1": 1, "01": 2}, {"-2": 1, "-02": 1}, {"3": 1, "+3": -1}):
        with pytest.raises(ValueError, match="duplicate exponent"):
            LaurentInt.from_coeff_json(dup)
