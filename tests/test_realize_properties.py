"""Property tests of the realizations on random classes (hypothesis)."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from motiveforge.motive import MotiveClass  # noqa: E402
from motiveforge.realize import (betti, hodge, hodge_diamond_rows,  # noqa: E402
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
    parts = [x.weight_part(m) for m in x.weights()]
    assert sum(parts, MotiveClass.zero(x.genus)) == x
    for part in parts:
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
