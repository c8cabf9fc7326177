"""Long division against a schoolbook reference, and a bound on its work.

The reference below works on plain dicts and finds each bottom term by
sorting the whole remainder, so it shares no code with ``laurent.py``.  Its
two-symbol form divides the closed Hodge numerator as a whole, which
``realize.hodge_closed`` does level by level in one symbol.
"""

import random

import pytest

from motiveforge import laurent, realize
from motiveforge.laurent import ExactDivisionError, LaurentInt
from motiveforge.moduli import PipelineIntegrityError
from motiveforge.realize import X, Y, hodge_closed

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


def _check_exact_div(num_map, den_map):
    num, den = LaurentInt(num_map), LaurentInt(den_map)
    quo, rem = reference_exact_div(dict(num.items()), dict(den.items()), ONE)
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
        _check_exact_div(dict((x * den).items()), dict(den.items()))
        _check_exact_div(_random_map(rng, _one, 6), dict(den.items()))


def test_closed_hodge_division_matches_schoolbook():
    den = dict(((1 - X * Y) * (1 - (X * Y) ** 2)).items())
    for g in range(2, 7):
        num = _closed_hodge_numerator(g)
        quo, rem = reference_exact_div(dict(num.items()), den, TWO)
        assert not rem and dict(hodge_closed(g).items()) == quo, g
    off = num + X
    assert reference_exact_div(dict(off.items()), den, TWO)[0] is None
    with pytest.raises(PipelineIntegrityError, match="not exact at genus 6"):
        realize._divide_levels(off, 6)


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


def test_division_work_is_near_linear(monkeypatch):
    """The one-symbol divisions of ``hodge_closed(16)`` push a remainder
    exponent on the heap once, when it first appears: at most one per other
    divisor term for each quotient term.  Each quotient term comes from a
    pop, and every pop is of a numerator term or a pushed one."""
    counts = {"push": 0, "pop": 0}

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(laurent, "heappush", counted("push", laurent.heappush))
    monkeypatch.setattr(laurent, "heappop", counted("pop", laurent.heappop))
    quo = hodge_closed(16)
    n_num = len(_closed_hodge_numerator(16).items())
    n_den, n_quo = 4, len(quo.items())  # (1 - u)(1 - u²) = 1 - u - u² + u³
    assert counts["push"] <= n_quo * (n_den - 1), (counts, n_quo)
    assert n_quo <= counts["pop"] <= n_num + counts["push"], (counts, n_num)
