import random

import pytest

from motiveforge.laurent import ExactDivisionError, L, LaurentInt, lpow
from motiveforge.moduli import (PipelineIntegrityError, kummer, n0_odd,
                                n0_odd_closed)
from motiveforge.motive import MotiveClass
from motiveforge.realize import (BiLaurent, X, Y, betti, hodge, hodge_closed,
                                 hodge_diamond_rows, hn_closed,
                                 level_per_weight)


def _random_class(rng, genus=None):
    g = genus if genus is not None else rng.randint(1, 4)
    comps = {a: LaurentInt({rng.randint(-3, 5): rng.randint(-9, 9)
                            for _ in range(rng.randint(0, 3))})
             for a in range(g + 1)}
    return MotiveClass(g, comps)


def test_bilaurent_arithmetic():
    assert (1 + X) * (1 + Y) == 1 + X + Y + X * Y
    assert (X - Y) * (X + Y) == X ** 2 - Y ** 2
    p = (1 + X ** 2 * Y) ** 2
    assert p.coeff(2, 1) == 2 and p.coeff(4, 2) == 1
    assert p.swap() == (1 + X * Y ** 2) ** 2


def test_bilaurent_exact_div():
    num = 1 - (X * Y) ** 3
    assert num.exact_div(1 - X * Y) == 1 + X * Y + (X * Y) ** 2
    with pytest.raises(ExactDivisionError):
        (1 + X).exact_div(1 + X * Y)
    with pytest.raises(ZeroDivisionError):
        (1 + X).exact_div(BiLaurent())


def test_bilaurent_specialize_diagonal():
    p = 2 * X ** 2 * Y + 2 * X * Y ** 2 + 1
    assert p.specialize_diagonal() == 1 + 4 * lpow(3)


def test_betti_basics():
    assert betti(MotiveClass.lam(2, 1, lpow(1))) == lpow(3, 4)
    assert betti(kummer(2)) == 1 + 6 * lpow(2) + lpow(4)
    assert betti(n0_odd(2)) == LaurentInt({0: 1, 2: 1, 3: 4, 4: 1, 6: 1})


def test_betti_additive_and_tate_multiplicative():
    rng = random.Random(5)
    for _ in range(150):
        x = _random_class(rng)
        y = _random_class(rng, x.genus)
        assert betti(x + y) == betti(x) + betti(y)
        p = LaurentInt({rng.randint(-2, 3): rng.randint(-5, 5)})
        assert betti(x * p) == betti(x) * p.scale_exponents(2)


def test_hodge_basics():
    assert hodge(MotiveClass.lam(2, 2)) == X ** 2 + 4 * X * Y + Y ** 2
    assert hodge(MotiveClass.tate(2, 3)) == (X * Y) ** 3
    assert hodge(n0_odd(2).weight_part(3)) == 2 * X ** 2 * Y + 2 * X * Y ** 2


def test_hodge_additive_and_tate_multiplicative():
    rng = random.Random(17)
    for _ in range(150):
        x = _random_class(rng)
        y = _random_class(rng, x.genus)
        assert hodge(x + y) == hodge(x) + hodge(y)
        k = rng.randint(-3, 3)
        c = rng.randint(-5, 5)
        assert (hodge(x * LaurentInt({k: c}))
                == hodge(x) * BiLaurent({(k, k): c}))


def test_hn_closed():
    assert hn_closed(2) == LaurentInt({0: 1, 2: 1, 3: 4, 4: 1, 6: 1})
    for g in range(2, 7):
        poly = hn_closed(g)
        assert poly.coeff(0) == 1
        assert poly.max_exp == 2 * (3 * g - 3)
        assert betti(n0_odd(g)) == poly, g
    with pytest.raises(ValueError):
        hn_closed(1)


def test_hodge_closed():
    h = hodge_closed(2)
    assert h.coeff(2, 1) == 2
    assert h.coeff(0, 0) == 1
    assert h.swap() == h
    for g in (2, 3, 4):
        assert hodge(n0_odd(g)) == hodge_closed(g), g
        assert hodge_closed(g).specialize_diagonal() == hn_closed(g), g


def test_closed_forms_reject_bad_genus():
    for closed in (hn_closed, hodge_closed):
        for genus in (2.0, 1, 0, -3, True, "2"):
            with pytest.raises(ValueError, match="genus must be an integer >= 2"):
                closed(genus)


@pytest.mark.parametrize("g", [8, 12, 16, 20, 24])
def test_large_genus_realization_cross_checks(g):
    closed = n0_odd_closed(g)
    h = hodge_closed(g)
    assert h == hodge(closed)
    assert h.specialize_diagonal() == hn_closed(g) == betti(closed)


def test_weight_split_matches_hodge_slices():
    rng = random.Random(29)
    for _ in range(150):
        x = _random_class(rng)
        for m in range(-8, 20):
            picked = {a: LaurentInt({e: c for e, c in p.items() if a + 2 * e == m})
                      for a, p in x.components().items()}
            assert x.weight_part(m) == MotiveClass(x.genus, picked), (x, m)
        h = hodge(x)
        levels: dict[int, int] = {}
        for (i, j), _ in h.items():
            levels[i + j] = max(levels.get(i + j, 0), abs(i - j))
        assert level_per_weight(x) == levels
        assert hodge_diamond_rows(x) == sorted(
            (i + j, i, j, c) for (i, j), c in h.items())


def test_hodge_specializes_to_betti():
    rng = random.Random(11)
    for _ in range(200):
        x = _random_class(rng)
        assert hodge(x).specialize_diagonal() == betti(x)
        assert hodge(x).swap() == hodge(x)


def test_level_per_weight():
    levels = level_per_weight(n0_odd(2))
    assert levels == {0: 0, 2: 0, 3: 1, 4: 0, 6: 0}
    assert level_per_weight(MotiveClass.lam(2, 1, lpow(4))) == {9: 1}
    assert level_per_weight(MotiveClass.tate(3, 5)) == {10: 0}
    assert level_per_weight(MotiveClass.zero(2)) == {}


def test_level_bound_for_moduli_classes():
    for g in (2, 3, 4, 5):
        c = n0_odd(g)
        h = hodge(c)
        assert all(v > 0 for _, v in h.items()), g
        for m, lv in level_per_weight(c).items():
            assert lv <= m // 3, (g, m)


def test_hodge_diamond_rows():
    rows = hodge_diamond_rows(n0_odd(2).weight_part(3))
    assert rows == [(3, 1, 2, 2), (3, 2, 1, 2)]


def test_bilaurent_render():
    assert (1 + X * Y).render() == "1 + x·y"
    assert (2 * X ** 2 * Y - Y).render() == "-y + 2·x^2·y"
    assert BiLaurent().render() == "0"


def test_one_and_two_symbol_polynomials_never_mix():
    assert not issubclass(BiLaurent, LaurentInt)
    assert not issubclass(LaurentInt, BiLaurent)
    for lhs, rhs in ((L, X), (X, L)):
        with pytest.raises(TypeError):
            lhs + rhs
        with pytest.raises(TypeError):
            lhs - rhs
        with pytest.raises(TypeError):
            lhs * rhs
        with pytest.raises(TypeError):
            lhs.exact_div(rhs)
        assert (lhs == rhs) is False
        assert (lhs != rhs) is True
    assert (LaurentInt(1) == BiLaurent(1)) is False
    with pytest.raises(TypeError):
        MotiveClass(2, {0: BiLaurent(1)})
    with pytest.raises(TypeError):
        MotiveClass(2, {1: X * Y})
    with pytest.raises(TypeError):
        LaurentInt(X)
    with pytest.raises(TypeError):
        BiLaurent(L)
    with pytest.raises(TypeError):
        LaurentInt({(1, 0): 1})
    with pytest.raises(TypeError):
        BiLaurent({1: 1})
