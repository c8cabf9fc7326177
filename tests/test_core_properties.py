"""Property tests of the core types on random inputs (hypothesis): the ring
laws of ``LaurentInt``, the module laws of ``MotiveClass`` over it, duality
as an involution, exact-division round trips, ``series_div`` against
the schoolbook oracle of ``tests/test_division.py``, the private
combination kernel of ``motive.py`` (which ``*`` by a Tate factor runs
through) against a per-component product through the validating
constructor, its weight match against ``weight_part``, and the canonical
form of every class operator's result, which is built unchecked by
``MotiveClass._raw``."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from motiveforge.laurent import LaurentInt  # noqa: E402
from motiveforge.motive import (MotiveClass, _tate_combination,  # noqa: E402
                                _weight_match)
from test_division import ONE, schoolbook  # noqa: E402

# per test, not a profile: a profile loaded by another module would win
bounded = settings(deadline=None, database=None, max_examples=40)

coeff_maps = st.dictionaries(st.integers(-4, 6), st.integers(-9, 9), max_size=4)
laurents = coeff_maps.map(LaurentInt)
nonzero_laurents = laurents.filter(bool)


@st.composite
def classes(draw, genus):
    """A class of the given genus; λ-indices run over 0..2g, so the
    duality fold of the constructor is exercised too."""
    return MotiveClass(genus, draw(st.dictionaries(
        st.integers(0, 2 * genus), coeff_maps, max_size=2 * genus + 1)))


@st.composite
def class_pairs(draw):
    g = draw(st.integers(1, 4))
    return draw(classes(g)), draw(classes(g))


@bounded
@given(laurents, laurents, laurents)
def test_laurent_ring_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + 0 == a and a * 1 == a and a * 0 == 0
    assert a - a == 0 and -(-a) == a


@bounded
@given(class_pairs(), laurents, laurents)
def test_motive_module_laws(pair, a, b):
    x, y = pair
    zero = MotiveClass.zero(x.genus)
    assert x + y == y + x
    assert x + zero == x and x - x == zero
    assert (x + y) * a == x * a + y * a
    assert x * (a + b) == x * a + x * b
    assert x * (a * b) == (x * a) * b
    assert x * LaurentInt(1) == x and x * LaurentInt() == zero


@bounded
@given(class_pairs(), st.integers(-5, 5))
def test_dual_is_an_involution(pair, k):
    x, y = pair
    assert x.dual().dual() == x
    assert (x + y).dual() == x.dual() + y.dual()
    assert x.twist(k).dual() == x.dual().twist(-k)
    assert x.dual().rank() == x.rank()


@bounded
@given(laurents, nonzero_laurents)
def test_laurent_exact_div_round_trip(x, p):
    assert (x * p).exact_div(p) == x


@bounded
@given(st.integers(1, 4).flatmap(classes), nonzero_laurents)
def test_motive_exact_div_round_trip(x, p):
    assert (x * p).exact_div(p) == x


@bounded
@given(laurents, nonzero_laurents, st.sampled_from((1, -1)),
       st.integers(0, 15))
def test_series_div_matches_schoolbook(num, den, unit, order):
    den = den + LaurentInt({den.min_exp: unit - den.coeff(den.min_exp)})
    quo, rem = schoolbook(dict(num.items()), dict(den.items()),
                          lambda q: q <= order, ONE)
    got, exact = num.series_div(den, order)
    assert dict(got.items()) == quo
    assert exact is (not rem)


@st.composite
def combinations(draw):
    """A genus and (class, Tate polynomial) parts; half the time each part
    is followed by its negative, so that the sum cancels to zero."""
    g = draw(st.integers(1, 4))
    parts = draw(st.lists(st.tuples(classes(g), laurents), max_size=4))
    if draw(st.booleans()):
        parts = [q for x, t in parts for q in ((x, t), (x, -t))]
    return g, parts


def _times_tate(x, t):
    """x·t built per component through the validating constructor, not by
    ``*``, which runs through the kernel under test."""
    return MotiveClass(x.genus, {a: x.component(a) * t
                                 for a in x.lambda_indices()})


@bounded
@given(combinations())
def test_tate_combination_matches_class_arithmetic(case):
    g, parts = case
    expected = MotiveClass.zero(g)
    for x, t in parts:
        expected = expected + _times_tate(x, t)
    got = _tate_combination(g, parts)
    assert got == expected
    assert all(p for p in got.components().values())


@bounded
@given(class_pairs())
def test_weight_match_matches_weight_parts(pair):
    x, y = pair
    weights = sorted(set(x.weights()) | set(y.weights()))
    assert _weight_match(x, y) == {
        m: x.weight_part(m) == y.weight_part(m) for m in weights}


def _assert_canonical(x):
    """``x`` is what the validating constructor makes of its own map:
    indices in 0..g, no zero component, no zero coefficient."""
    g = x.genus
    comps = x.components()
    for a, p in comps.items():
        assert 0 <= a <= g and p, (a, p)
        assert all(c for _, c in p.items()), (a, p)
    assert x == MotiveClass(g, {a: dict(p.items()) for a, p in comps.items()})


@bounded
@given(st.integers(1, 5).flatmap(lambda g: st.tuples(classes(g), classes(g))),
       laurents, st.integers(-3, 3), nonzero_laurents, st.integers(-12, 12))
def test_class_operators_return_canonical_classes(pair, t, n, unit_den, m):
    x, y = pair
    g = x.genus
    tate = MotiveClass(g, {0: t})
    # series_div needs a unit bottom coefficient
    lo = unit_den.min_exp
    den = unit_den + LaurentInt.monomial(lo, 1 - unit_den.coeff(lo))
    results = [x + y, x - y, -x, x * t, t * x, x * n, n * x, x * tate,
               tate * x, x.dual(), x.twist(n), (x * unit_den).exact_div(
                   unit_den), x.series_div(den, 6)[0], x.truncate_below(m),
               x.weight_part(m)]
    for r in results:
        _assert_canonical(r)
    assert not x - x and x - x == MotiveClass.zero(g)
    assert x + y - y == x and -(-x) == x and x.dual().dual() == x


@bounded
@given(st.integers(1, 5).flatmap(classes), laurents, st.integers(-9, 9))
def test_product_by_a_tate_factor_matches_the_per_component_oracle(x, t, n):
    # a zero factor, an int, a Laurent polynomial and a pure-Tate class on
    # either side: each runs through the kernel, and each result is canonical
    g = x.genus
    tate = MotiveClass(g, {0: t})
    cases = [(x * LaurentInt(), LaurentInt()), (x * 0, LaurentInt()),
             (x * n, LaurentInt(n)), (n * x, LaurentInt(n)), (x * t, t),
             (x * tate, t), (tate * x, t)]
    for got, factor in cases:
        assert got == _times_tate(x, factor)
        _assert_canonical(got)
    assert not x * LaurentInt() and not x * tate * 0


def test_monomial_is_checked_and_canonical():
    assert not LaurentInt.monomial(5, 0) and LaurentInt.monomial(5, 0) == 0
    assert LaurentInt.monomial(-2, 3) == LaurentInt({-2: 3})
    for bad in ((True, 1), (1.0, 1), (1, False), (1, 2.0)):
        with pytest.raises(TypeError, match="^bad LaurentInt entry"):
            LaurentInt.monomial(*bad)
