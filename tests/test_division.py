"""Long division against a schoolbook reference, and a bound on its work.

The reference below works on plain dicts and finds each bottom term by
sorting the whole remainder, so it shares no code with ``laurent.py``.
"""

import random

import pytest

from motiveforge.laurent import ExactDivisionError, LaurentInt
from motiveforge.realize import BiLaurent, X, Y, hodge_closed

# one symbol: int exponents in their own order
ONE = dict(add=lambda m, n: m + n, sub=lambda m, n: m - n,
           axes=lambda m: (m,), order=lambda m: m)
# two symbols: graded lex, total degree first, then the x exponent
TWO = dict(add=lambda m, n: (m[0] + n[0], m[1] + n[1]),
           sub=lambda m, n: (m[0] - n[0], m[1] - n[1]),
           axes=lambda m: m, order=lambda m: (m[0] + m[1], m[0]))


def schoolbook(num: dict, den: dict, inside, ring: dict):
    """(quotient, remainder) of dividing from the bottom term until the next
    quotient exponent fails ``inside``, or until a bottom coefficient is
    not divisible; the remainder is the one at that point."""
    order = ring["order"]
    lo = sorted(den, key=order)[0]
    unit = den[lo]
    rem = {e: c for e, c in num.items() if c}
    quo = {}
    while rem:
        e = sorted(rem, key=order)[0]
        qe = ring["sub"](e, lo)
        if not inside(qe):
            break
        if rem[e] % unit:
            return quo, rem
        t = rem[e] // unit
        quo[qe] = t
        for de, dc in den.items():
            ee = ring["add"](qe, de)
            rem[ee] = rem.get(ee, 0) - t * dc
            if not rem[ee]:
                del rem[ee]
    return quo, rem


def newton_box(num: dict, den: dict, ring: dict):
    """Test of a quotient exponent against [min(num) - min(den),
    max(num) - max(den)] on every axis and on the total degree, lower ends
    included."""
    def coords(e):
        axes = ring["axes"](e)
        return (*axes, sum(axes))
    box = [(min(n) - min(d), max(n) - max(d)) for n, d in
           zip(zip(*map(coords, num)), zip(*map(coords, den)))]
    return lambda q: all(lo <= a <= hi for (lo, hi), a in zip(box, coords(q)))


def reference_exact_div(num: dict, den: dict, ring: dict):
    """(quotient or None, remainder) as ``exact_div`` defines them."""
    if not num:
        return {}, {}
    quo, rem = schoolbook(num, den, newton_box(num, den, ring), ring)
    return (None if rem else quo), rem


def _one(rng):
    return rng.randint(-4, 8)


def _two(rng):
    return rng.randint(0, 4), rng.randint(0, 4)


def _random_map(rng, exponent, n_max):
    return {exponent(rng): rng.randint(-9, 9)
            for _ in range(rng.randint(0, n_max))}


def _closed_hodge_numerator(g):
    xy = X * Y
    return ((1 + X ** 2 * Y) ** g * (1 + X * Y ** 2) ** g
            - xy ** g * (1 + X) ** g * (1 + Y) ** g)


def _nonzero(make):
    while True:
        p = make()
        if p:
            return p


def _check_exact_div(cls, num_map, den_map, ring):
    num, den = cls(num_map), cls(den_map)
    quo, rem = reference_exact_div(dict(num.items()), dict(den.items()), ring)
    if quo is not None:
        assert dict(num.exact_div(den).items()) == quo
    else:
        with pytest.raises(ExactDivisionError) as err:
            num.exact_div(den)
        assert dict(err.value.remainder.items()) == rem


def test_one_symbol_exact_div_matches_schoolbook():
    rng = random.Random(101)
    for _ in range(400):
        den = _nonzero(lambda: LaurentInt(_random_map(rng, _one, 4)))
        x = LaurentInt(_random_map(rng, _one, 5))
        # an exact pair, then a pair that is almost never exact
        _check_exact_div(LaurentInt, dict((x * den).items()), dict(den.items()), ONE)
        _check_exact_div(LaurentInt, _random_map(rng, _one, 6),
                         dict(den.items()), ONE)


def test_two_symbol_exact_div_matches_schoolbook():
    rng = random.Random(202)
    for _ in range(300):
        den = _nonzero(lambda: BiLaurent(_random_map(rng, _two, 4)))
        x = BiLaurent(_random_map(rng, _two, 5))
        _check_exact_div(BiLaurent, dict((x * den).items()), dict(den.items()), TWO)
        _check_exact_div(BiLaurent, _random_map(rng, _two, 6),
                         dict(den.items()), TWO)


def test_two_symbol_division_ends_on_tied_bottom_terms():
    # x/(x + y): graded lex would emit x^k·y^-k at total degree 0 forever;
    # the first term, y^0, already leaves the box x in [1, 0]
    with pytest.raises(ExactDivisionError) as err:
        X.exact_div(X + Y)
    assert err.value.remainder == X
    for num, den in ((X, X + Y), (X * X + Y, X - Y), (1 + X ** 3, X * Y + Y * Y)):
        _check_exact_div(BiLaurent, dict(num.items()), dict(den.items()), TWO)


def test_two_symbol_division_stops_at_the_total_degree_bound():
    # every term of num has total degree 4 and those of den 5 and 7, so an
    # exact quotient would have total degree in [-1, -3]: none.  The box on
    # each axis alone let the step y^-1 through, leaving -8·x^4 + 4·x^3·y^3
    num = 8 * X * Y ** 3 - 8 * X ** 4
    den = -2 * X * Y ** 4 + X ** 3 * Y ** 4
    with pytest.raises(ExactDivisionError) as err:
        num.exact_div(den)
    assert err.value.remainder == num
    _check_exact_div(BiLaurent, dict(num.items()), dict(den.items()), TWO)


def test_closed_hodge_division_matches_schoolbook():
    num = _closed_hodge_numerator(5)
    den = (1 - X * Y) * (1 - (X * Y) ** 2)
    _check_exact_div(BiLaurent, dict(num.items()), dict(den.items()), TWO)
    _check_exact_div(BiLaurent, dict((num + X).items()), dict(den.items()), TWO)


def test_series_div_matches_schoolbook():
    rng = random.Random(303)
    for _ in range(300):
        den = _nonzero(lambda: LaurentInt(_random_map(rng, _one, 4)))
        den = den + LaurentInt({den.min_exp: rng.choice((1, -1)) - den.coeff(den.min_exp)})
        x = LaurentInt(_random_map(rng, _one, 5))
        for num in (x * den, LaurentInt(_random_map(rng, _one, 6))):
            for order in (0, 3, 7, 15):
                quo, rem = schoolbook(dict(num.items()), dict(den.items()),
                                      lambda q: q <= order, ONE)
                got, exact = num.series_div(den, order)
                assert dict(got.items()) == quo
                assert exact is (not rem)


def test_division_work_is_near_linear():
    """Dividing the closed Hodge numerator at g = 16 evaluates the bottom
    order's key once per numerator term, once per term that enters the
    remainder and once per divisor term; a scan of the whole remainder per
    step would take hundreds of times more."""
    calls = [0]
    key = BiLaurent._EXP.bottom

    def counting_key(m):
        calls[0] += 1
        return key(m)

    class Counted(BiLaurent):
        __slots__ = ()
        _EXP = BiLaurent._EXP._replace(bottom=counting_key)

    num = _closed_hodge_numerator(16)
    den = (1 - X * Y) * (1 - (X * Y) ** 2)
    quo = Counted(dict(num.items())).exact_div(Counted(dict(den.items())))
    assert quo.items() == hodge_closed(16).items()
    n_num, n_den, n_quo = len(num.items()), len(den.items()), len(quo.items())
    # each step cancels a term and adds at most one per other divisor term
    pushed = n_quo * (n_den - 1)
    assert calls[0] <= n_num + pushed + n_den, (calls[0], n_num, n_quo, n_den)
