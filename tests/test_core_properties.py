"""Property tests of the core types on random inputs (hypothesis): the ring
laws of ``LaurentInt``, the module laws of ``MotiveClass`` over it, duality
as an involution, exact-division round trips, and ``series_div`` against
the schoolbook oracle of ``tests/test_division.py``."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from motiveforge.laurent import LaurentInt  # noqa: E402
from motiveforge.motive import MotiveClass  # noqa: E402
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
