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
           degree=lambda m: m, order=lambda m: m)
# two symbols: graded lex, total degree first, then the x exponent
TWO = dict(add=lambda m, n: (m[0] + n[0], m[1] + n[1]),
           sub=lambda m, n: (m[0] - n[0], m[1] - n[1]),
           degree=lambda m: m[0] + m[1], order=lambda m: (m[0] + m[1], m[0]))


def schoolbook(num: dict, den: dict, top: int, ring: dict):
    """(quotient, remainder) of dividing from the bottom term until the next
    quotient term passes degree ``top``, or until a bottom coefficient is
    not divisible; the remainder is the one at that point."""
    order = ring["order"]
    lo = sorted(den, key=order)[0]
    unit = den[lo]
    rem = {e: c for e, c in num.items() if c}
    quo = {}
    while rem:
        e = sorted(rem, key=order)[0]
        qe = ring["sub"](e, lo)
        if ring["degree"](qe) > top:
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


def reference_exact_div(num: dict, den: dict, ring: dict):
    """(quotient or None, remainder) as ``exact_div`` defines them."""
    if not num:
        return {}, {}
    top = max(map(ring["degree"], num)) - max(map(ring["degree"], den))
    quo, rem = schoolbook(num, den, top, ring)
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
    # Graded-lex division by a divisor with two bottom-degree terms need not
    # stop on a non-exact pair, so those divisors only meet exact pairs.
    rng = random.Random(202)
    for _ in range(300):
        den = _nonzero(lambda: BiLaurent(_random_map(rng, _two, 4)))
        x = BiLaurent(_random_map(rng, _two, 5))
        _check_exact_div(BiLaurent, dict((x * den).items()), dict(den.items()), TWO)
        bottom = min(TWO["degree"](m) for m, _ in den.items())
        if sum(TWO["degree"](m) == bottom for m, _ in den.items()) == 1:
            _check_exact_div(BiLaurent, _random_map(rng, _two, 6),
                             dict(den.items()), TWO)


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
                                         order, ONE)
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
