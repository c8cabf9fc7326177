"""Long division against a schoolbook reference, and a bound on its work.

The reference below works on plain dicts and finds each bottom term by
sorting the whole remainder, so it shares no code with ``laurent.py``.  Its
two-symbol form divides the closed Hodge numerator as a whole, which
``realize.hodge_closed`` does level by level in one symbol.
"""

import heapq
import random

import pytest

from motiveforge import laurent, realize
from motiveforge.laurent import ExactDivisionError, L, LaurentInt
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


def _binomial(rng, u, v):
    s = rng.choice((-5, -2, -1, 0, 3, 6))
    return LaurentInt({s: u, s + rng.randint(1, 6): v})


def _check_long_div(num, den, top):
    """``_long_div``'s quotient and remainder up to the quotient exponent
    ``top``, and ``exact_div``'s quotient or remainder, against the
    schoolbook."""
    quo, rem = schoolbook(dict(num.items()), dict(den.items()), top.__ge__, ONE)
    try:
        got, left = num._long_div(den, top)
    except ExactDivisionError as err:  # a bottom term the unit cannot divide
        assert dict(err.remainder.items()) == rem, (num, den)
    else:
        assert (dict(got.items()), left) == (quo, rem), (num, den)
    _check_exact_div(dict(num.items()), dict(den.items()))


def test_binomial_division_matches_schoolbook():
    """u·L^s + v·L^t with u, v = ±1: exact, non-exact and zero numerators,
    with negative and nonzero s, through ``_long_div``, ``exact_div`` and
    ``series_div``."""
    rng = random.Random(404)
    for u, v in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        for _ in range(60):
            den = _binomial(rng, u, v)
            x = LaurentInt(_random_map(rng, _one, 5))
            for num in (x * den, LaurentInt(_random_map(rng, _one, 6)),
                        LaurentInt()):
                for order in (0, 3, 7, 15):
                    _check_long_div(num, den, order)
                    quo, rem = schoolbook(dict(num.items()), dict(den.items()),
                                          order.__ge__, ONE)
                    got, exact = num.series_div(den, order)
                    assert (dict(got.items()), exact) == (quo, not rem)
                if num:
                    _check_long_div(num, den, num.max_exp - den.max_exp)


def test_every_divisor_divides_through_the_heap(monkeypatch):
    """Unit binomials (v = ±1 or 3), non-unit binomials and a trinomial all
    take the one heap division, and match the schoolbook."""
    pops = []
    monkeypatch.setattr(laurent, "heappop",
                        lambda heap: pops.append(1) or heapq.heappop(heap))
    rng = random.Random(505)
    dens = [_binomial(rng, u, v)
            for u in (1, -1) for v in (1, -1, 3) for _ in range(5)]
    dens += [2 - 2 * L, 3 + 3 * L ** 2, 1 - L - L ** 2]
    for den in dens:
        for num in (den * (1 + 2 * L ** 3 - L ** 5), 7 * L ** 4 + L):
            del pops[:]
            _check_long_div(num, den, num.max_exp - den.max_exp)
            _check_long_div(num, den, 5)
            assert pops, den


def test_heap_work_is_bounded(monkeypatch):
    """Each quotient term pushes at most (divisor terms - 1) exponents, as
    the term it cancels is already in the heap, and every pop takes a
    numerator exponent or a pushed one: on exact and non-exact divisions,
    binomials included."""
    work = {"push": 0, "pop": 0}

    def push(heap, e):
        work["push"] += 1
        heapq.heappush(heap, e)

    def pop(heap):
        work["pop"] += 1
        return heapq.heappop(heap)

    monkeypatch.setattr(laurent, "heappush", push)
    monkeypatch.setattr(laurent, "heappop", pop)
    rng = random.Random(606)
    pushed = 0
    for _ in range(300):
        den = _nonzero(lambda: LaurentInt(_random_map(rng, _one, 5)))
        unit = den + LaurentInt(
            {den.min_exp: rng.choice((1, -1)) - den.coeff(den.min_exp)})
        x = LaurentInt(_random_map(rng, _one, 6))
        cases = [(x * den, den), (x * unit, unit),
                 (LaurentInt(_random_map(rng, _one, 8)), unit),
                 (x * (1 - L ** 3), 1 - L ** 3),
                 (LaurentInt(_random_map(rng, _one, 8)), 1 + L ** 2),
                 ((1 - L) ** 6 + L ** 9, 1 - L)]
        for num, d in cases:
            for top in ((num.max_exp - d.max_exp) if num else 0, 4, 20):
                work.update(push=0, pop=0)
                quo, _ = num._long_div(d, top)
                n_quo, n_den = len(quo.items()), len(d.items())
                assert work["push"] <= n_quo * (n_den - 1), (num, d, work)
                assert work["pop"] <= len(num.items()) + work["push"], (num, d)
                pushed += work["push"]
    assert pushed  # the counters saw the division's heap


def test_sparse_binomial_division_is_immediate():
    # a walk over the exponents would take seconds: 5·10^7 of them
    k = 10 ** 7
    unit = 1 - L ** k
    assert (unit * (1 + L ** (5 * k))).exact_div(unit) == 1 + L ** (5 * k)
    quo, exact = (unit * (1 - L ** (5 * k))).series_div(unit, 5 * k)
    assert exact and quo == 1 - L ** (5 * k)
    with pytest.raises(ExactDivisionError) as err:
        (1 + L ** (5 * k)).exact_div(unit)
    assert err.value.remainder == 1 + L ** (5 * k) - (1 - L ** (5 * k))


class _Counted(int):
    """An int that counts the sums, differences and products made with it,
    so that a division over such coefficients reports its work."""

    ops = 0

    def _op(fn):
        def op(self, other):
            _Counted.ops += 1
            return _Counted(fn(int(self), int(other)))
        return op

    __add__ = _op(lambda a, b: a + b)
    __radd__ = _op(lambda a, b: b + a)
    __sub__ = _op(lambda a, b: a - b)
    __rsub__ = _op(lambda a, b: b - a)
    __mul__ = _op(lambda a, b: a * b)
    __rmul__ = _op(lambda a, b: b * a)
    del _op

    def __neg__(self):
        return _Counted(-int(self))


def test_division_work_is_near_linear():
    """The level division of ``hodge_closed(16)`` makes at most four
    coefficient operations per numerator or quotient term, and at least one
    per numerator term."""
    num = _closed_hodge_numerator(16)
    counted = realize.BiLaurent._raw({m: _Counted(c) for m, c in num.items()})
    _Counted.ops = 0
    quo = realize._divide_levels(counted, 16)
    assert quo == hodge_closed(16)
    n_num, n_quo = len(num.items()), len(quo.items())
    assert n_num <= _Counted.ops <= 4 * (n_num + n_quo), (_Counted.ops, n_num)
