"""The closed realizations and the one-symbol divisions against sympy.

sympy divides by its own polynomial arithmetic over Q, so these checks share
no code with ``LaurentInt.exact_div``, ``LaurentInt.series_div`` or the
level split of ``realize.hodge_closed``.  Laurent polynomials are shifted to
nonnegative exponents before they reach sympy.
"""

import random

import pytest

sympy = pytest.importorskip("sympy")

from motiveforge.laurent import ExactDivisionError, LaurentInt  # noqa: E402
from motiveforge.realize import hn_closed, hodge_closed  # noqa: E402

t, x, y = sympy.symbols("t x y")


def _terms(quotient, *gens) -> dict:
    """{exponent: int coefficient} of a sympy polynomial; a one-symbol
    exponent is an int, a two-symbol one an (i, j) tuple."""
    out = {}
    for m, c in sympy.Poly(quotient, *gens).terms():
        if c:
            assert c.is_integer, (m, c)
            out[m if len(m) > 1 else m[0]] = int(c)
    return out


@pytest.mark.parametrize("g", range(2, 9))
def test_closed_forms_match_sympy(g):
    num = ((1 + x ** 2 * y) ** g * (1 + x * y ** 2) ** g
           - (x * y) ** g * (1 + x) ** g * (1 + y) ** g)
    quo, rem = sympy.div(sympy.expand(num),
                         sympy.expand((1 - x * y) * (1 - x ** 2 * y ** 2)), x, y)
    assert rem == 0
    assert dict(hodge_closed(g).items()) == _terms(quo, x, y)
    num = (1 + t ** 3) ** (2 * g) - t ** (2 * g) * (1 + t) ** (2 * g)
    quo, rem = sympy.div(sympy.expand(num),
                         sympy.expand((1 - t ** 2) * (1 - t ** 4)), t)
    assert rem == 0
    assert dict(hn_closed(g).items()) == _terms(quo, t)


def _random_map(rng, n_max) -> dict:
    """A nonzero {exponent: coefficient} map with exponents in -4..8."""
    while True:
        m = {rng.randint(-4, 8): rng.randint(-9, 9)
             for _ in range(rng.randint(1, n_max))}
        m = {e: c for e, c in m.items() if c}
        if m:
            return m


def _shifted(coeffs: dict):
    """(lowest exponent, the sympy polynomial coeffs·t^-lowest over Q)."""
    lo = min(coeffs)
    return lo, sympy.Poly.from_dict({(e - lo,): c for e, c in coeffs.items()},
                                    t, domain=sympy.QQ)


def _unshifted(lo: int, p) -> dict:
    """The integer map of p·t^lo."""
    assert all(c.is_integer for c in p.coeffs()), p
    return {m[0] + lo: int(c) for m, c in p.terms() if c}


def _exact_pairs(rng, unit_bottom: bool):
    """Seeded (numerator, divisor) maps: an exact product, then a pair that
    is almost never exact."""
    for _ in range(100):
        den = _random_map(rng, 4)
        if unit_bottom:
            den[min(den)] = rng.choice((1, -1))
        lo_x, px = _shifted(_random_map(rng, 5))
        lo_d, pd = _shifted(den)
        yield _unshifted(lo_x + lo_d, px * pd), den
        yield _random_map(rng, 6), den


def test_exact_div_matches_sympy():
    for num, den in _exact_pairs(random.Random(404), unit_bottom=False):
        (lo_n, pn), (lo_d, pd) = _shifted(num), _shifted(den)
        quo, rem = pn.div(pd)
        exact = rem.is_zero and all(c.is_integer for c in quo.coeffs())
        if exact:
            want = _unshifted(lo_n - lo_d, quo)
            assert dict(LaurentInt(num).exact_div(LaurentInt(den)).items()) == want
        else:
            with pytest.raises(ExactDivisionError):
                LaurentInt(num).exact_div(LaurentInt(den))


def test_series_div_matches_sympy():
    for num, den in _exact_pairs(random.Random(505), unit_bottom=True):
        (lo_n, pn), (lo_d, pd) = _shifted(num), _shifted(den)
        quo, rem = pn.div(pd)
        # the series t^(lo_n - lo_d)·pn/pd up to t^15: pn/pd mod t^m
        m = max(15 - (lo_n - lo_d) + 1, 1)
        cut = sympy.Poly(t ** m, t)
        series = _unshifted(lo_n - lo_d, (pn * pd.invert(cut)).rem(cut))
        for order in (0, 3, 7, 15):
            want = {e: c for e, c in series.items() if e <= order}
            ends = rem.is_zero and quo.degree() + lo_n - lo_d <= order
            got, exact = LaurentInt(num).series_div(LaurentInt(den), order)
            assert dict(got.items()) == want, (num, den, order)
            assert exact is ends, (num, den, order)
