from math import comb

import pytest

from motiveforge import macdonald, series
from motiveforge.laurent import L
from motiveforge.macdonald import (ENUMERATION_GUARD, EnumerationGuardError,
                                   RankSizeError, curve_ranks,
                                   sym_power_bruteforce, sym_power_curve,
                                   sym_power_ranks, sym_power_walls)
from motiveforge.motive import MotiveClass, lambda_binomial
from motiveforge.moduli import range_sum
from motiveforge.series import (MotiveSeries, SeriesOrderError,
                                binomial_series, geometric)


def test_sym_power_curve_small():
    assert sym_power_curve(2, 0) == MotiveClass.one(2)
    assert sym_power_curve(2, 1) == MotiveClass(2, {0: 1 + L, 1: 1})


def test_sym_power_curve_g2():
    assert sym_power_curve(2, 2) == MotiveClass(2, {
        0: 1 + L + L ** 2, 1: 1 + L, 2: 1})
    assert sym_power_curve(2, 3) == MotiveClass(2, {
        0: 1 + L + L ** 2 + L ** 3, 1: 1 + 2 * L + L ** 2, 2: 1 + L})


def test_sym_power_curve_projective_bundle_over_jacobian():
    # at n = 2g-1 the symmetric product fibers over the jacobian in P^(g-1)
    for g in (1, 2, 3):
        assert (sym_power_curve(g, 2 * g - 1)
                == lambda_binomial(0, 0, g) * range_sum(0, g - 1))


def test_sym_power_curve_matches_two_products_and_closed_form():
    top = 29
    for g in range(1, 7):
        # truncation leaves lower coefficients alone, so one product serves
        # every n up to its order
        two = binomial_series(g, top) * geometric(0, g, top) * geometric(1, g, top)
        for n in range(top + 1):
            # Macdonald: the T^n coefficient is sum_a λ_a·[P^(n-a)]
            closed = MotiveClass(g, {a: range_sum(0, n - a)
                                     for a in range(min(n, 2 * g) + 1)})
            got = sym_power_curve(g, n)
            assert got == two[n] == closed, (g, n)


def test_sym_power_curve_multiplies_series_once(monkeypatch):
    calls = []
    mul = MotiveSeries.__mul__

    def counting_mul(self, other):
        calls.append(other.order)
        return mul(self, other)

    monkeypatch.setattr(MotiveSeries, "__mul__", counting_mul)
    g = 9
    for n in range(2 * g + 2):
        calls.clear()
        sym_power_curve(g, n)
        if n < g:
            assert calls == [n], n
        elif n <= 2 * g - 2:  # Riemann–Roch from S_(2g-2-n)
            assert calls == [2 * g - 2 - n], n
        else:  # a projective bundle over the jacobian
            assert calls == [], n


def test_sym_power_curve_validates():
    with pytest.raises(ValueError):
        sym_power_curve(0, 2)
    with pytest.raises(ValueError):
        sym_power_curve(2, -1)


def test_sym_power_walls_match_series_route():
    # from g on the walls come by Riemann–Roch, S_(2g-1) on being the
    # projective bundles over the jacobian; the kernel product, which
    # shares no code with the Riemann–Roch builder, is the oracle
    for g in range(1, 9):
        top = 2 * g + 2
        two = (binomial_series(g, top) * geometric(0, g, top)
               * geometric(1, g, top))
        series_route = [two[n] for n in range(top + 1)]
        assert sym_power_walls(g, top) == series_route, g
        for short in (0, g - 1, g, 2 * g - 2):
            if short >= 0:
                assert (sym_power_walls(g, short)
                        == series_route[:short + 1]), (g, short)


def test_sym_power_walls_use_series_route_below_genus_only(monkeypatch):
    calls = []

    def counted(genus, n):
        calls.append(n)
        return sym_power_curve(genus, n)
    monkeypatch.setattr(macdonald, "sym_power_curve", counted)
    sym_power_walls(5, 12)
    assert calls == [0, 1, 2, 3, 4]
    calls.clear()
    sym_power_walls(5, 2)
    assert calls == [0, 1, 2]


def test_sym_power_walls_validate(monkeypatch):
    with pytest.raises(ValueError):
        sym_power_walls(0, 2)
    with pytest.raises(ValueError):
        sym_power_walls(2, -1)
    monkeypatch.setattr(series, "SERIES_ORDER_GUARD", 5)
    assert len(sym_power_walls(2, 5)) == 6
    with pytest.raises(SeriesOrderError):
        sym_power_walls(2, 6)
    # the Riemann–Roch path builds no series, and is guarded all the same
    with pytest.raises(SeriesOrderError):
        sym_power_curve(2, 6)


def test_sym_power_ranks_curve_square():
    assert (sym_power_ranks(curve_ranks(2), 2)
            == {0: 1, 1: 4, 2: 7, 3: 4, 4: 1})


def test_sym_power_ranks_point_and_odd_line():
    assert sym_power_ranks({0: 1}, 5) == {0: 1}
    # a single odd generator squares to zero
    assert sym_power_ranks({1: 1}, 2) == {}


def test_sym_power_ranks_rejects_bad_input():
    with pytest.raises(ValueError):
        sym_power_ranks({0: -1}, 2)
    with pytest.raises(ValueError):
        sym_power_ranks({0: 1}, -2)


def test_sym_power_ranks_order_guard(monkeypatch):
    # the rank route and its brute-force oracle share the series-order cap
    # of the motive-level route
    monkeypatch.setattr(series, "SERIES_ORDER_GUARD", 5)
    for fn in (sym_power_ranks, sym_power_bruteforce):
        assert fn({0: 1, 2: 1}, 5) == {0: 1, 2: 1, 4: 1, 6: 1, 8: 1, 10: 1}
        with pytest.raises(SeriesOrderError):
            fn({0: 1, 2: 1}, 6)


def test_sym_power_ranks_size_guard(monkeypatch):
    # a 4 000-digit rank (13 288 bits) has a printable first power; its
    # higher powers are refused before the product, not after it
    big = int("9" * 4000)
    assert sym_power_ranks({1: big}, 1) == {1: big}
    for n in (2, 50, 200, 1000):
        with pytest.raises(RankSizeError, match="RANK_BITS_GUARD"):
            sym_power_ranks({1: big}, n)
    # the bound is an upper bound: a guard one bit below the binomial
    # C(R + n - 1, n) that bounds every entry refuses the case
    for b, n in (({0: 3}, 4), ({1: 5, 2: 2}, 3), ({0: 40, 3: 7}, 6)):
        total = sum(b.values())
        ranks = sym_power_ranks(b, n)
        assert max(ranks.values()) <= comb(total + n - 1, n)
        monkeypatch.setattr(macdonald, "RANK_BITS_GUARD",
                            comb(total + n - 1, n).bit_length() - 1)
        with pytest.raises(RankSizeError):
            sym_power_ranks(b, n)
        monkeypatch.undo()


def test_bruteforce_matches_ranks():
    cases = [
        ({0: 1, 1: 4, 2: 1}, 2),
        ({0: 1, 1: 4, 2: 1}, 3),
        ({0: 2, 1: 3, 2: 2}, 4),
        ({-1: 2, 0: 1, 3: 1}, 3),
        ({1: 5}, 3),
        ({2: 2, 4: 1}, 5),
    ]
    for b, n in cases:
        assert sym_power_bruteforce(b, n) == sym_power_ranks(b, n), (b, n)


def test_bruteforce_pure_exterior():
    from math import comb
    for g in (1, 2, 3):
        for k in range(2 * g + 2):
            expected = {k: comb(2 * g, k)} if comb(2 * g, k) else {}
            assert sym_power_bruteforce({1: 2 * g}, k) == expected


def test_bruteforce_pure_symmetric():
    assert sym_power_bruteforce({2: 1}, 3) == {6: 1}


def test_bruteforce_guard_trips(monkeypatch):
    assert ENUMERATION_GUARD == 10_000_000
    # r odd generators of degree 1: after j of them the tally at k holds one
    # degree for k <= j, so the next one visits min(n, j) + min(n, j + 1)
    r, n = 6, 3
    work = sum(min(n, j) + min(n, j + 1) for j in range(r))
    monkeypatch.setattr(macdonald, "ENUMERATION_GUARD", work)
    assert sym_power_bruteforce({1: r}, n) == {3: 20}
    monkeypatch.setattr(macdonald, "ENUMERATION_GUARD", work - 1)
    with pytest.raises(EnumerationGuardError, match=f"exceeded {work - 1} steps"):
        sym_power_bruteforce({1: r}, n)


def test_triple_agreement(registry_passes):
    # motive, rank and brute-force routes: a check of the verify registry
    registry_passes("macdonald_triple_agreement")


def test_top_degree_bound():
    # with an even top generator the top degree is exactly n times it
    b = {0: 1, 1: 2, 2: 1}
    for n in (1, 2, 3, 4):
        assert max(sym_power_ranks(b, n)) == 2 * n
    assert max(sym_power_ranks({1: 3, 4: 2}, 3)) == 12


def test_bruteforce_guard_trips_before_listing_generators(monkeypatch):
    # a rank of 10^4300 used to be expanded into a list of generators
    # before the step guard was ever consulted
    with pytest.raises(EnumerationGuardError, match=(
            f"more than {ENUMERATION_GUARD} generators to enumerate")):
        sym_power_bruteforce({0: 10 ** 4300}, 0)
    monkeypatch.setattr(macdonald, "ENUMERATION_GUARD", 5)
    assert sym_power_bruteforce({0: 2, 1: 3}, 0) == {0: 1}  # no tally step
    with pytest.raises(EnumerationGuardError, match="more than 5 generators"):
        sym_power_bruteforce({0: 3, 1: 3}, 1)
