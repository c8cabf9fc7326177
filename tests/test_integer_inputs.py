"""Every integer parameter of the public entry points takes exact ints only:
a bool, a float or a numeric string is refused before any work, with
``ValueError`` (``TypeError`` where it would be a polynomial entry)."""

import re

import pytest

from motiveforge import (BiLaurent, LaurentInt, MotiveClass, MotiveSeries,
                         big_f, binomial_series, closed_multiplicities,
                         curve_ranks, decompose, factors_from_weight_part,
                         geometric, hn_closed, hodge_closed, kummer,
                         lambda_binomial, n0_even, n0_odd, n0_odd_chain,
                         n0_odd_closed, omega_index, pair_moduli,
                         projective_series, pw_classes, range_sum,
                         ss_preimage, sym_power_bruteforce, sym_power_curve,
                         sym_power_ranks, sym_power_walls)
from motiveforge import verify

BAD = (True, 2.0, "2")
RANKS = {0: 1, 1: 4, 2: 1}

# one call per integer parameter, taking the bad value there; kummer,
# sym_power_curve and decompose used to write a bool genus or index into the
# JSON, MotiveClass rendered λTrue, weight_part(4.0) and
# scale_exponents(1.5) wrote float exponent keys, and a series kept a bool
# genus; a bool or float kernel exponent, series index, evaluation point,
# degree or jacobian index was read as a number, and binomial_series
# compared a string genus
VALUE_ERRORS = {
    "MotiveClass genus": lambda v: MotiveClass(v, {0: 1}),
    "MotiveClass.tate genus": lambda v: MotiveClass.tate(v, 1),
    "MotiveClass λ-index": lambda v: MotiveClass(2, {v: 1}),
    "MotiveClass.lam λ-index": lambda v: MotiveClass.lam(2, v),
    "MotiveClass.weight_part weight":
        lambda v: MotiveClass(2, {0: 1, 1: 1}).weight_part(v),
    "MotiveClass.truncate_below weight":
        lambda v: MotiveClass(2, {0: 1, 1: 1}).truncate_below(v),
    "MotiveClass.twist twist": lambda v: MotiveClass(2, {1: 1}).twist(v),
    "lambda_binomial genus": lambda v: lambda_binomial(0, 1, v),
    "lambda_binomial exponent of A": lambda v: lambda_binomial(v, 0, 2),
    "lambda_binomial exponent of B": lambda v: lambda_binomial(0, v, 2),
    "range_sum lower exponent": lambda v: range_sum(v, 3),
    "range_sum upper exponent": lambda v: range_sum(0, v),
    "MotiveSeries genus": lambda v: MotiveSeries(v, [MotiveClass(1)]),
    "big_f genus series": lambda v: big_f(0, 1, 2, v, "series"),
    "big_f genus closed": lambda v: big_f(0, 1, 2, v, "closed"),
    "big_f first exponent": lambda v: big_f(v, 0, -1, 2, "series"),
    "big_f second exponent": lambda v: big_f(0, v, -1, 2, "series"),
    "big_f third exponent": lambda v: big_f(0, -1, v, 2, "series"),
    "geometric exponent": lambda v: geometric(v, 2, 3),
    "MotiveSeries index": lambda v: geometric(1, 2, 3)[v],
    "binomial_series genus": lambda v: binomial_series(v, 3),
    "geometric order": lambda v: geometric(1, 2, v),
    "binomial_series order": lambda v: binomial_series(2, v),
    "projective_series order": lambda v: projective_series(2, v),
    "series_div order": lambda v: LaurentInt({0: 1, 1: 1}).series_div(1, v),
    "LaurentInt.evaluate point":
        lambda v: LaurentInt({0: 1, 1: 1}).evaluate(v),
    "LaurentInt power": lambda v: LaurentInt({0: 1, 1: 1}) ** v,
    "LaurentInt.scale_exponents scale":
        lambda v: LaurentInt({0: 1, 1: 2}).scale_exponents(v),
    "BiLaurent power": lambda v: BiLaurent({(0, 1): 1}) ** v,
    "curve_ranks genus": curve_ranks,
    "sym_power_curve genus": lambda v: sym_power_curve(v, 2),
    "sym_power_curve power": lambda v: sym_power_curve(2, v),
    "sym_power_walls genus": lambda v: sym_power_walls(v, 2),
    "sym_power_walls top": lambda v: sym_power_walls(2, v),
    "sym_power_ranks power": lambda v: sym_power_ranks(RANKS, v),
    "sym_power_ranks degree": lambda v: sym_power_ranks({v: 1}, 2),
    "sym_power_ranks rank": lambda v: sym_power_ranks({1: v}, 2),
    "sym_power_bruteforce power": lambda v: sym_power_bruteforce(RANKS, v),
    "sym_power_bruteforce degree": lambda v: sym_power_bruteforce({v: 1}, 2),
    "sym_power_bruteforce rank": lambda v: sym_power_bruteforce({1: v}, 2),
    "pw_classes genus": lambda v: pw_classes(v, 6, 1),
    "pw_classes degree": lambda v: pw_classes(2, v, 1),
    "pw_classes wall": lambda v: pw_classes(2, 6, v),
    "pair_moduli genus": lambda v: pair_moduli(v, 6, 1),
    "pair_moduli degree": lambda v: pair_moduli(2, v, 1),
    "pair_moduli index": lambda v: pair_moduli(2, 6, v),
    "omega_index degree": omega_index,
    "n0_odd_chain genus": n0_odd_chain,
    "n0_odd_chain degree": lambda v: n0_odd_chain(2, v),
    "n0_odd_closed genus": n0_odd_closed,
    "n0_odd genus": n0_odd,
    "kummer genus": kummer,
    "ss_preimage genus": ss_preimage,
    "n0_even genus": n0_even,
    "hn_closed genus": hn_closed,
    "hodge_closed genus": hodge_closed,
    "decompose genus": lambda v: decompose(v, 1),
    "decompose index": lambda v: decompose(2, v),
    "factors_from_weight_part index":
        lambda v: factors_from_weight_part(MotiveClass(2), v),
    "closed_multiplicities index": closed_multiplicities,
    "verify.run cases": lambda v: verify.run("lambda", None, v),
    "verify.run genus range start": lambda v: verify.run("lambda", (v, 3)),
    "verify.run genus range end": lambda v: verify.run("lambda", (2, v)),
}

# a bool coefficient or exponent used to reach the JSON as true or "True";
# a bool operand or divisor used to be read as 0 or 1 (L + True gave 1 + L)
TYPE_ERRORS = {
    "LaurentInt constant": LaurentInt,
    "LaurentInt exponent": lambda v: LaurentInt({v: 1}),
    "LaurentInt coefficient": lambda v: LaurentInt({0: v}),
    "LaurentInt.monomial exponent": LaurentInt.monomial,
    "BiLaurent constant": BiLaurent,
    "BiLaurent exponent": lambda v: BiLaurent({(0, v): 1}),
    "BiLaurent coefficient": lambda v: BiLaurent({(0, 0): v}),
    "MotiveClass coefficient": lambda v: MotiveClass(2, {1: v}),
    "MotiveClass.tate exponent": lambda v: MotiveClass.tate(2, v),
    "LaurentInt + operand": lambda v: LaurentInt({0: 1, 1: 1}) + v,
    "operand + LaurentInt": lambda v: v + LaurentInt({0: 1, 1: 1}),
    "LaurentInt - operand": lambda v: LaurentInt({0: 1, 1: 1}) - v,
    "operand - LaurentInt": lambda v: v - LaurentInt({0: 1, 1: 1}),
    "LaurentInt.exact_div divisor": lambda v: LaurentInt(6).exact_div(v),
    "LaurentInt.series_div divisor":
        lambda v: LaurentInt(6).series_div(v, 3),
    "BiLaurent + operand": lambda v: BiLaurent.monomial(1, 0) + v,
    "MotiveClass * operand": lambda v: MotiveClass(2, {1: 1}) * v,
    "MotiveClass.exact_div divisor":
        lambda v: MotiveClass(2, {1: 6}).exact_div(v),
}

# the helper's one message format
MESSAGE = re.compile(
    r"^\S.* must be an integer( in -?\d+\.\.-?\d+| >= -?\d+| <= -?\d+)?, got ")


@pytest.fixture
def no_work(monkeypatch):
    """Make products, divisions and series products fail the test."""
    def refuse(*args, **kwargs):
        raise AssertionError("work began before the integer check")
    for cls in (LaurentInt, BiLaurent):
        monkeypatch.setattr(cls, "__mul__", refuse)
        monkeypatch.setattr(cls, "__rmul__", refuse)
    monkeypatch.setattr(LaurentInt, "_long_div", refuse)
    monkeypatch.setattr(MotiveSeries, "__mul__", refuse)


@pytest.mark.parametrize("bad", BAD, ids=repr)
@pytest.mark.parametrize("name", list(VALUE_ERRORS))
def test_integer_parameters_refuse_non_ints(name, bad, no_work):
    with pytest.raises(ValueError) as exc:
        VALUE_ERRORS[name](bad)
    assert MESSAGE.match(str(exc.value)), str(exc.value)


@pytest.mark.parametrize("bad", BAD, ids=repr)
@pytest.mark.parametrize("name", list(TYPE_ERRORS))
def test_polynomial_entries_refuse_non_ints(name, bad, no_work):
    with pytest.raises(TypeError):
        TYPE_ERRORS[name](bad)


def test_bools_are_not_polynomials():
    # LaurentInt(1) == True used to hold
    for poly, flag in ((LaurentInt(1), True), (LaurentInt(), False),
                       (BiLaurent({(0, 0): 1}), True)):
        assert poly.__eq__(flag) is NotImplemented
        assert not poly == flag


def test_verify_refuses_bad_cases_and_ranges_before_any_check(monkeypatch):
    # "0 randomized cases" used to pass, and so did -3; (2.5, 3) was taken
    ran = []
    monkeypatch.setattr(verify, "_CHECKS", [
        ("probe", "lambda", lambda ctx: ran.append(ctx) or ("pass", ""))])
    for cases, genus_range in ((0, None), (-3, None), (5, (2.5, 3)),
                               (5, (3, 2))):
        with pytest.raises(ValueError) as exc:
            verify.run("lambda", genus_range, cases)
        assert MESSAGE.match(str(exc.value)), str(exc.value)
    assert ran == []
    assert not verify.run("lambda", (2, 2), 1).failed
    assert len(ran) == 1
