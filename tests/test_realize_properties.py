"""Property tests of the realizations on random classes (hypothesis)."""

from math import comb

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from motiveforge.laurent import LaurentInt  # noqa: E402
from motiveforge.motive import MotiveClass  # noqa: E402
from motiveforge.realize import (BiLaurent, X, Y, _diamonds,  # noqa: E402
                                 betti, hodge, hodge_diamond_rows,
                                 level_per_weight)

settings.register_profile("realize", deadline=None, database=None)
settings.load_profile("realize")


@st.composite
def classes(draw, genus=None):
    """Any class of genus 1..6; λ-indices run over 0..2g, so the duality
    fold of the constructor is exercised too."""
    g = draw(st.integers(1, 6)) if genus is None else genus
    comps = draw(st.dictionaries(
        st.integers(0, 2 * g),
        st.dictionaries(st.integers(-4, 6), st.integers(-20, 20), max_size=4),
        max_size=2 * g + 1))
    return MotiveClass(g, comps)


@st.composite
def class_pairs(draw):
    g = draw(st.integers(1, 6))
    return draw(classes(g)), draw(classes(g))


@given(class_pairs())
def test_hodge_is_additive(pair):
    x, y = pair
    assert hodge(x + y) == hodge(x) + hodge(y)
    assert hodge(x - y) == hodge(x) - hodge(y)


@given(classes())
def test_hodge_on_the_diagonal_is_betti(x):
    assert hodge(x).specialize_diagonal() == betti(x)


@given(classes())
def test_weight_parts_sum_to_the_class(x):
    parts = x.weight_decomposition()
    assert list(parts) == x.weights()
    assert sum(parts.values(), MotiveClass.zero(x.genus)) == x
    for m, part in parts.items():
        assert part.weights() == [m]
        assert part == MotiveClass(x.genus, part.components())


@given(classes())
def test_levels_and_rows_are_the_slices_of_one_hodge(x):
    h = hodge(x)
    levels: dict[int, int] = {}
    for (i, j), _ in h.items():
        levels[i + j] = max(levels.get(i + j, 0), abs(i - j))
    assert level_per_weight(x) == levels
    assert hodge_diamond_rows(x) == sorted(
        (i + j, i, j, c) for (i, j), c in h.items())


@st.composite
def cancelling_classes(draw):
    """Any class of genus 2..6 plus λ_a·L^e and λ_b·L^f of one weight whose
    coefficients cancel its h^(p, m-p)."""
    g = draw(st.integers(2, 6))
    a = draw(st.integers(0, g - 2))
    b = a + 2 * draw(st.integers(1, (g - a) // 2))
    e = draw(st.integers(-4, 4))
    f = e - (b - a) // 2  # both terms have weight a + 2e
    p = draw(st.integers(e, a + e))  # h^(p, q) is nonzero for both terms
    ra = comb(g, p - e) * comb(g, a + e - p)
    rb = comb(g, p - f) * comb(g, b + f - p)
    pair = MotiveClass(g, {a: {e: rb}, b: {f: -ra}})
    return pair + draw(classes(g))


def _two_symbol_route(x):
    """The reference: each weight part realized as a two-symbol polynomial
    and read as {p: h}."""
    return {m: {i: c for (i, _), c in hodge(x.weight_part(m)).items()}
            for m in x.weights()}


@given(st.one_of(classes(), cancelling_classes()))
def test_weight_kernel_matches_the_two_symbol_route(x):
    ref = _two_symbol_route(x)
    assert _diamonds(x) == ref
    assert level_per_weight(x) == {m: max(abs(2 * p - m) for p in h)
                                   for m, h in ref.items() if h}
    assert hodge_diamond_rows(x) == [(m, p, m - p, h[p]) for m, h in
                                     ref.items() for p in sorted(h)]


def _weil_specialization(x, one, ax, ay, lefschetz):
    """``x`` under λ_a ↦ the T^a coefficient of (1 + ax·T)^g·(1 + ay·T)^g
    and L^e ↦ ``lefschetz(e)``: the point count at the Weil numbers
    α_i = −ax for i ≤ g and −ay above, with q = ax·ay.  The exterior ranks
    come from repeated products of the target ring, not from binomials."""
    poly = [one]
    for alpha in [ax] * x.genus + [ay] * x.genus:
        poly = [c + alpha * prev for c, prev in zip(poly + [0], [0] + poly)]
    total = 0 * one
    for a in x.lambda_indices():
        for e, c in x.component(a).items():
            total += c * poly[a] * lefschetz(e)
    return total


@given(st.one_of(classes(), cancelling_classes()))
def test_realizations_are_the_weil_number_specialization(x):
    """The realization kernel against a ring map built here: Hodge at
    α = −x, −y and q = xy, Betti at x = y = t, and Betti at t = 1 is the
    rank."""
    assert hodge(x) == _weil_specialization(
        x, BiLaurent(1), X, Y, lambda e: BiLaurent.monomial(e, e))
    t = LaurentInt.monomial(1)
    assert betti(x) == _weil_specialization(
        x, LaurentInt(1), t, t, lambda e: LaurentInt.monomial(2 * e))
    assert betti(x).evaluate(1) == x.rank()
