import pytest

from motiveforge.laurent import L, LaurentInt
from motiveforge.motive import (GenusMismatchError, MotiveClass,
                                UnsupportedProductError)
from motiveforge import series
from motiveforge.series import (DegenerateDenominatorError, MotiveSeries,
                                SeriesOrderError, big_f, binomial_series,
                                geometric, projective_series)


def _tate_series(genus, scalars):
    return MotiveSeries(genus, [MotiveClass(genus, {0: s}) for s in scalars])


def test_polynomial_product():
    one_plus_t = _tate_series(2, [1, 1, 0])
    one_minus_t = _tate_series(2, [1, -1, 0])
    assert one_plus_t * one_minus_t == _tate_series(2, [1, 0, -1])


def test_product_truncates_to_min_order():
    f = _tate_series(1, [1, 1, 1, 1, 1])
    g = _tate_series(1, [1, 1])
    assert (f * g).order == 1


def test_product_refuses_a_genus_mismatch():
    # the same type as every class operation raises for the same fault
    with pytest.raises(GenusMismatchError,
                       match="^series genus mismatch: 2 vs 3$"):
        _tate_series(2, [1, 1]) * _tate_series(3, [1, 1])


def test_product_with_a_non_series_is_not_implemented():
    f = _tate_series(2, [1, 1])
    assert f.__mul__(3) is NotImplemented
    with pytest.raises(TypeError):
        f * 3


def test_multiplicative_identity():
    f = MotiveSeries(2, [MotiveClass.lam(2, 1), MotiveClass.lam(2, 2),
                         MotiveClass.one(2)])
    one = _tate_series(2, [1, 0, 0])
    assert f * one == f


def test_geometric_coefficients():
    f = geometric(0, 2, 6)
    assert all(f[n] == MotiveClass.one(2) for n in range(7))
    assert geometric(1, 2, 5)[3] == MotiveClass.tate(2, 3)
    conv = geometric(0, 2, 4) * geometric(1, 2, 4)
    assert conv[2] == MotiveClass(2, {0: 1 + L + L ** 2})


def test_binomial_series_coefficients():
    f = binomial_series(2, 6)
    assert f[0] == MotiveClass.one(2)
    assert f[1] == MotiveClass.lam(2, 1)
    assert f[2] == MotiveClass.lam(2, 2)
    assert f[3] == MotiveClass.lam(2, 1, L)  # canonicalized
    assert f[4] == MotiveClass.tate(2, 2)
    assert f[5] == MotiveClass.zero(2)  # exterior powers vanish above rank 2g
    assert f[6] == MotiveClass.zero(2)


def test_projective_series_is_the_geometric_product():
    for g in (1, 3):
        for n in range(31):
            assert (projective_series(g, n)
                    == geometric(0, g, n) * geometric(1, g, n)), (g, n)


def test_series_order_guard(monkeypatch):
    assert series.SERIES_ORDER_GUARD == 1_000
    monkeypatch.setattr(series, "SERIES_ORDER_GUARD", 6)
    for make in (lambda g, n: geometric(1, g, n), binomial_series,
                 projective_series):
        assert make(2, 6).order == 6
        with pytest.raises(SeriesOrderError):
            make(2, 7)
        with pytest.raises(ValueError):
            make(2, -1)


def test_binomial_times_geometric_low_coefficient():
    f = binomial_series(2, 3) * geometric(0, 2, 3)
    assert f[1] == MotiveClass(2, {0: 1, 1: 1})


def test_index_range_error():
    f = geometric(1, 2, 4)
    assert f[4] == MotiveClass.tate(2, 4)
    with pytest.raises(IndexError):
        f[5]
    with pytest.raises(IndexError):
        f[-1]


def test_product_rejects_two_exterior_factors():
    f = binomial_series(2, 4)
    with pytest.raises(UnsupportedProductError, match=(
            r"^coefficients at T\^1 and T\^1 both carry exterior parts; the "
            "Cauchy product leaves the λ-linear module$")):
        f * f


def _cauchy(f, h):
    """The truncated product of two series by the definition: coefficient
    maps multiplied term by term in plain dicts, one factor pure Tate, and
    each T^k coefficient built by the public constructor.  It shares no code
    with ``MotiveSeries.__mul__`` or the class operators."""
    g = f.genus
    out = []
    for k in range(min(f.order, h.order) + 1):
        acc = {}
        for i in range(k + 1):
            x, y = f[i], h[k - i]
            if not x.is_pure_tate():
                x, y = y, x
            assert x.is_pure_tate() or not y, (i, k - i)
            for a, p in y.components().items():
                row = acc.setdefault(a, {})
                for e1, c1 in x.component(0).items():
                    for e2, c2 in p.items():
                        row[e1 + e2] = row.get(e1 + e2, 0) + c1 * c2
        out.append(MotiveClass(g, acc))
    return out


@pytest.mark.parametrize("genus", range(1, 6))
def test_product_matches_the_cauchy_definition(genus):
    pairs = [(binomial_series(genus, n), projective_series(genus, m))
             for n in (0, 3, 2 * genus, 12) for m in (1, 5, 12)]
    pairs += [(geometric(u, genus, n), geometric(v, genus, m))
              for u in (-2, 0, 1, 3) for v in (-1, 0, 2)
              for n, m in ((12, 12), (4, 9))]
    pairs += [(projective_series(genus, 12), binomial_series(genus, 12))]
    for f, h in pairs:
        got = f * h
        assert got.order == min(f.order, h.order)
        assert [got[k] for k in range(got.order + 1)] == _cauchy(f, h)


def test_big_f_series_value_g1():
    # hand extraction using complete homogeneous kernels in 1, L, L^2
    expected = MotiveClass(1, {
        0: 1 + 2 * L + 2 * L ** 2 + L ** 3 + L ** 4,
        1: 1 + L + L ** 2})
    assert big_f(0, 1, 2, 1, "series") == expected
    assert big_f(0, 1, 2, 1, "closed") == expected


def test_big_f_cross_mode(registry_passes):
    # every distinct exponent triple in -2..2, genera 1..4
    registry_passes("big_f_cross_mode")


def test_big_f_degenerate_closed_mode():
    with pytest.raises(DegenerateDenominatorError):
        big_f(0, 0, 1, 2, "closed")
    # series mode has no such restriction
    assert big_f(0, 0, 1, 2, "series")


def test_big_f_rejects_unknown_mode():
    with pytest.raises(ValueError):
        big_f(0, 1, 2, 2, "fast")


def test_big_f_modes_share_the_order_guard(monkeypatch):
    # closed mode does no series work, but its size grows with g² as the
    # series mode's does: both refuse an order 2g above the guard at once
    with pytest.raises(SeriesOrderError, match="^series order 1002 exceeds"):
        big_f(0, 1, 2, 501, "closed")
    monkeypatch.setattr(series, "SERIES_ORDER_GUARD", 4)
    for mode in ("series", "closed"):
        assert big_f(0, 1, 2, 2, mode) == big_f(0, 1, 2, 2, "series")
        with pytest.raises(SeriesOrderError):
            big_f(0, 1, 2, 3, mode)


def test_series_validates_genus_consistency():
    with pytest.raises(ValueError):
        MotiveSeries(2, [MotiveClass.one(3)])
    with pytest.raises(ValueError):
        MotiveSeries(2, [])
