from types import FunctionType

import pytest

from motiveforge import macdonald, moduli, series
from motiveforge.jacobians import closed_multiplicities, decompose
from motiveforge.laurent import L, LaurentInt
from motiveforge.macdonald import sym_power_curve
from motiveforge.moduli import (ChainDegreeError, ClosedGenusError,
                                n0_even, n0_odd, n0_odd_chain, n0_odd_closed,
                                kummer, omega_index, pair_moduli, pw_classes,
                                range_sum, ss_preimage)
from motiveforge.motive import MotiveClass, lambda_binomial
from motiveforge.realize import BiLaurent, betti, hn_closed, hodge_closed


def test_range_sum():
    assert range_sum(0, 3) == 1 + L + L ** 2 + L ** 3
    assert range_sum(2, 2) == L ** 2
    assert range_sum(2, 1) == 0
    # past the midpoint the telescoped sum subtracts the gap
    assert range_sum(4, 2) == -L ** 3
    assert range_sum(5, 1) == -(L ** 2 + L ** 3 + L ** 4)
    # the telescoping identity itself
    for lo, hi in ((0, 4), (3, 3), (3, 2), (6, 1), (-2, 1)):
        assert (range_sum(lo, hi) * (1 - L)
                == LaurentInt.monomial(lo) - LaurentInt.monomial(hi + 1))


def test_omega_index():
    assert omega_index(5) == 2
    assert omega_index(6) == 2
    assert omega_index(7) == 3


def test_pw_classes():
    plus, minus = pw_classes(2, 6, 3)
    assert minus == sym_power_curve(2, 3) * (1 + L + L ** 2)
    plus, minus = pw_classes(2, 5, 2)
    assert plus == minus  # the last odd wall at g=2 cancels exactly
    plus, minus = pw_classes(2, 5, 0)
    assert minus == MotiveClass.zero(2)
    assert plus == MotiveClass(2, {0: range_sum(0, 5)})


def test_pw_classes_refuse_negative_plus_dimension():
    # the plus side is a P^(d-2i+g-2)-bundle: i may reach (d+g-2)/2
    for g, d, i in ((2, 5, 7), (2, 6, 4), (3, 5, 4)):
        with pytest.raises(ValueError, match="wall index"):
            pw_classes(g, d, i)
    plus, _ = pw_classes(3, 5, 3)
    assert plus == sym_power_curve(3, 3)  # over P^0


def test_pair_moduli_projective_space():
    assert pair_moduli(2, 5, 0) == MotiveClass(2, {0: range_sum(0, 5)})


def test_pair_moduli_g2_d5():
    assert pair_moduli(2, 5, 2) == MotiveClass(2, {
        0: 1 + 2 * L + 3 * L ** 2 + 3 * L ** 3 + 2 * L ** 4 + L ** 5,
        1: L + L ** 2 + L ** 3})


def test_pair_moduli_g2_d6():
    cls = pair_moduli(2, 6, 2)
    assert cls == MotiveClass(2, {
        0: 1 + 2 * L + 4 * L ** 2 + 4 * L ** 3 + 4 * L ** 4 + 2 * L ** 5 + L ** 6,
        1: L + 2 * L ** 2 + 2 * L ** 3 + L ** 4,
        2: L ** 2})
    assert betti(cls).coeff(6) == 10


def test_pair_chains_refuse_degrees_without_pair_spaces():
    # a degree below 1 used to pass as an empty index range ("pair index at
    # degree 0 must be an integer in 0..-1"), and omega_index(-7) was -4
    for call in (lambda: pair_moduli(2, 0, 0), lambda: pw_classes(2, -5, 0),
                 lambda: omega_index(-7), lambda: pw_classes(2, 0, 0),
                 lambda: pw_classes(2, -1, 0),
                 # the degree is checked first
                 lambda: pair_moduli(1, 0, -1), lambda: pw_classes(1, 0, 9)):
        with pytest.raises(ValueError,
                           match=r"^degree must be an integer >= 1, got -?\d+$"):
            call()
    assert omega_index(1) == 0
    assert pair_moduli(2, 1, 0) == MotiveClass(2, {0: range_sum(0, 1)})


def test_pair_moduli_validates_index():
    with pytest.raises(ValueError):
        pair_moduli(2, 5, 3)
    with pytest.raises(ValueError):
        pair_moduli(2, 5, -1)
    with pytest.raises(ValueError):
        pair_moduli(1, 5, 0)


# A test taking ``registry_passes`` reads the result of the verify registry
# check that states its invariant (tests/conftest.py).


def test_flip_additivity(registry_passes):
    registry_passes("flip_additivity")


def test_n0_odd_g2_value(registry_passes):
    registry_passes("n0_odd_poincare_duality")


def test_n0_odd_two_paths_agree(registry_passes):
    registry_passes("n0_odd_two_path")


def test_n0_odd_degree_independence(registry_passes):
    registry_passes("n0_odd_degree_independence")


def test_n0_odd_poincare_duality(registry_passes):
    registry_passes("n0_odd_poincare_duality")


def test_n0_odd_weight_two_part():
    assert n0_odd(2).weight_part(2) == MotiveClass.tate(2, 1)


def test_telescoped_chain_matches_flip_terms():
    # one running-sum division by 1 - L against one range_sum per wall
    for g in range(2, 8):
        walls = [sym_power_curve(g, j) for j in range(2 * g + 1)]
        for d in range(1, 4 * g + 1):
            for i in range(omega_index(d) + 1):
                per_wall = MotiveClass.zero(g)
                for j in range(i + 1):
                    per_wall = (per_wall
                                + walls[j] * range_sum(j, d + g - 2 - 2 * j))
                assert moduli._chain(g, d, walls[:i + 1]) == per_wall, (g, d, i)
                assert pair_moduli(g, d, i) == per_wall, (g, d, i)


def test_n0_odd_chain_matches_closed_form():
    for g in range(2, 11):
        assert n0_odd_chain(g) == n0_odd_closed(g), g


def test_n0_odd_validates_degree():
    with pytest.raises(ValueError):
        n0_odd_chain(2, 6)  # even degree
    with pytest.raises(ValueError):
        n0_odd_chain(3, 5)  # below 4g-3


def test_kummer(registry_passes):
    registry_passes("kummer_classes")


def test_ss_preimage_g2():
    cls = ss_preimage(2)
    assert cls == MotiveClass(2, {
        0: 1 + 2 * L + 3 * L ** 2 + 3 * L ** 3 + 2 * L ** 4 + L ** 5,
        1: 1 + 3 * L + 4 * L ** 2 + 3 * L ** 3 + L ** 4,
        2: 1 + 2 * L + 2 * L ** 2 + L ** 3})
    assert betti(cls).coeff(1) == 4
    assert cls.weights()[-1] == 2 * (4 * 2 - 3)


def test_ss_preimage_via_jacobian_bundle():
    # P^(2g-2) times P^(g-1) over the jacobian, no symmetric-power kernel
    for g in range(2, 21):
        direct = (lambda_binomial(0, 0, g) * range_sum(0, g - 1)
                  * range_sum(0, 2 * g - 2))
        assert ss_preimage(g) == direct, g


def test_m_omega_s_g2(registry_passes):
    registry_passes("even_pipeline_intermediates")


def test_n0_even_stable_g2_nonterminating():
    rep = n0_even(2)
    cls = rep.stage("n0_even_stable").value
    flags = rep.stage("stable_division_exact").value
    assert flags == {0: False, 1: False, 2: False}
    assert cls.weight_part(0) == MotiveClass.one(2)


def test_n0_even_stable_is_the_series_quotient_by_the_fibration():
    # the pipeline divides m_omega_s·(1 - L) by 1 - L^(2g); the oracle
    # divides m_omega_s by [P^(2g-1)] itself, at the report's order 8g
    for g in range(2, 7):
        rep = n0_even(g)
        assert rep.order == 8 * g
        quo, flags = rep.stage("m_omega_s").value.series_div(
            range_sum(0, 2 * g - 1), 8 * g)
        assert rep.stage("n0_even_stable").value == quo, g
        assert rep.stage("stable_division_exact").value == flags, g


def test_n0_even_stable_contract_when_exact():
    # a manufactured projective bundle divides out exactly
    base = MotiveClass(3, {0: 1 + L, 1: L, 2: 2})
    bundle = base * range_sum(0, 5)
    quotient, exact = bundle.series_div(range_sum(0, 5), 60)
    assert all(exact.values())
    assert quotient == base
    assert quotient * range_sum(0, 5) == bundle


def test_n0_even_report_g2():
    rep = n0_even(2)
    assert rep.genus == 2 and rep.degree == 6 and rep.order == 16
    names = [s.name for s in rep.stages]
    assert names == ["m_omega", "ss_preimage", "m_omega_s", "n0_even_stable",
                     "stable_division_exact", "kummer_twisted", "n0_even",
                     "truncation_vs_odd", "m_omega_closed_form",
                     "n0_stable_closed_form"]
    assert rep.stage("m_omega").value == pair_moduli(2, 6, 2)
    assert rep.stage("kummer_twisted").value == MotiveClass(2, {
        0: L + L ** 3, 2: L})
    cut, diffs = rep.stage("truncation_vs_odd").value
    assert cut == 2
    assert 0 not in diffs  # both classes start with the unit
    with pytest.raises(KeyError):
        rep.stage("nope")


def test_n0_even_truncation_comparison_g3_g4():
    for g in (3, 4):
        rep = n0_even(g)
        cut, diffs = rep.stage("truncation_vs_odd").value
        assert cut == 2 * g - 2
        # finding at these genera: the pure even class agrees below the cut
        assert diffs == {}, g


def test_n0_even_report_deterministic(registry_passes):
    registry_passes("even_report_deterministic")


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "recorded finding: for g = 2, N_0 is P^3 (Narasimhan-Ramanan 1969), "
    "but the even pipeline returns an alternating tail up to L^16"))
def test_n0_even_g2_is_p3():
    p3 = sum((MotiveClass.tate(2, k) for k in range(4)), MotiveClass.zero(2))
    assert n0_even(2).stage("n0_even").value == p3


def test_n0_even_comparators_are_reported():
    rep = n0_even(2)
    for name in ("m_omega_closed_form", "n0_stable_closed_form"):
        data = rep.stage(name).to_json_dict()
        assert data["status"] in ("pass", "fail")
        assert data["match_by_weight"]


def _displayed_closed_forms(g, sign):
    """Right-hand sides of m_omega·den and m_omega_s·den for the two
    displayed closed forms, den = (1-L)²(1-L²), written with
    (1 + sign·L^g) where the report has (1 + L^g): built from
    ``lambda_binomial`` and the class operators only."""
    head = lambda_binomial(0, 1, g) * (1 - L ** (2 * g))
    jac = lambda_binomial(0, 0, g)
    twist = (1 + sign * L ** g) * (1 + L ** (g - 2))
    mo_rhs = head - jac * (L ** (g + 1) * twist)
    kernel = (L * twist + LaurentInt.monomial(-1) * (1 - L ** g)
              * (1 - L ** (2 * g - 1)) * (1 - L ** 2))
    return mo_rhs, head - jac * (L ** g * kernel)


def test_displayed_closed_forms_hold_with_one_minus_l_to_the_g():
    # a recorded finding, no output change: with (1 - L^g) both displayed
    # closed forms hold exactly; the report's (1 + L^g) leaves the residual
    # 2·L^(2g+1)·J·(1 + L^(g-2)), which its comparators show as failing
    den = (1 - L) ** 2 * (1 - L ** 2)
    for g in range(2, 7):
        rep = n0_even(g)
        mo = rep.stage("m_omega").value
        mos = rep.stage("m_omega_s").value
        mo_rhs, stable_rhs = _displayed_closed_forms(g, -1)
        assert mo * den == mo_rhs, g
        assert mos * den == stable_rhs, g
        reported, _ = _displayed_closed_forms(g, 1)
        residual = (lambda_binomial(0, 0, g)
                    * (2 * L ** (2 * g + 1) * (1 + L ** (g - 2))))
        assert mo * den - reported == residual, g
        assert not all(rep.stage("m_omega_closed_form").value.values()), g


def test_pipeline_genus_validation():
    for fn in (ss_preimage, n0_even):
        with pytest.raises(ValueError):
            fn(1)
    with pytest.raises(ValueError):
        kummer(0)
    with pytest.raises(ValueError):
        n0_odd(1)


def test_n0_even_stages_match_the_public_routes():
    # the last even pair space and the comparison with the odd class
    # equal their routes through the public functions
    for g in range(2, 7):
        rep = n0_even(g)
        mo = pair_moduli(g, 4 * g - 2, 2 * g - 2)
        assert rep.stage("m_omega").value == mo, g
        cut = 2 * g - 2
        delta = (rep.stage("n0_even").value.truncate_below(cut)
                 - n0_odd(g).truncate_below(cut))
        assert rep.stage("truncation_vs_odd").value == (
            cut, {m: delta.weight_part(m) for m in delta.weights()}), g


@pytest.fixture
def sym_power_calls(monkeypatch):
    """The (genus, n) of every symmetric power the moduli layer builds by
    the series route: ``pw_classes`` directly, the chains through
    ``sym_power_walls`` below the genus."""
    calls = []

    def counted(genus, n):
        calls.append((genus, n))
        return sym_power_curve(genus, n)
    monkeypatch.setattr(moduli, "sym_power_curve", counted)
    monkeypatch.setattr(macdonald, "sym_power_curve", counted)
    return calls


def test_symmetric_power_guard_trips_before_any_work(monkeypatch,
                                                     sym_power_calls):
    monkeypatch.setattr(series, "SERIES_ORDER_GUARD", 5)
    too_high = (
        lambda: n0_odd_chain(3, 13),  # S_0..S_6
        lambda: pair_moduli(2, 13, 6),
        lambda: pw_classes(2, 13, 6),
        lambda: ss_preimage(4),       # S_7
        lambda: n0_even(2),           # S_3 is fine, order 16 is not
    )
    for call in too_high:
        with pytest.raises(series.SeriesOrderError):
            call()
    assert sym_power_calls == []
    # the odd class is the closed form: it reads no symmetric power
    assert n0_odd(4) == n0_odd_closed(4)
    assert sym_power_calls == []
    # at the guard they run
    pair_moduli(2, 13, 5)
    assert max(n for _, n in sym_power_calls) == 1  # S_2.. by Riemann–Roch
    monkeypatch.setattr(series, "SERIES_ORDER_GUARD", 24)
    with pytest.raises(series.SeriesOrderError):
        n0_even(4)  # S_7 is fine, order 32 is not
    assert max(n for _, n in sym_power_calls) == 1
    n0_even(3)  # S_0..S_5, order 24
    assert max(n for _, n in sym_power_calls) == 2  # S_3.. by Riemann–Roch


def test_chain_degree_guard_trips_before_any_work(monkeypatch,
                                                  sym_power_calls):
    assert moduli.CHAIN_DEGREE_GUARD == 10_000
    monkeypatch.setattr(moduli, "CHAIN_DEGREE_GUARD", 20)
    # the guard bounds d + g - 2, the dimension of the first space P^(d+g-2)
    too_long = (
        lambda: pair_moduli(2, 21, 0),
        lambda: pair_moduli(19, 5, 0),
        lambda: pw_classes(2, 21, 3),
        lambda: n0_odd_chain(3, 21),
        lambda: n0_even(6),           # degree 22
    )
    for call in too_long:
        with pytest.raises(ChainDegreeError):
            call()
    assert sym_power_calls == []
    assert issubclass(ChainDegreeError, ValueError)
    assert pair_moduli(2, 20, 0) == MotiveClass(2, {0: range_sum(0, 20)})
    n0_even(4)  # degree 14: P^16
    assert sym_power_calls


def test_closed_genus_guard_trips_before_any_work(monkeypatch,
                                                 sym_power_calls):
    assert moduli.CLOSED_GENUS_GUARD == 200  # the bench realizes up to 24
    assert issubclass(ClosedGenusError, ValueError)
    monkeypatch.setattr(moduli, "CLOSED_GENUS_GUARD", 3)
    too_large = (
        lambda: n0_odd_closed(4),
        lambda: kummer(4),
        lambda: hn_closed(4),
        lambda: hodge_closed(4),
        lambda: n0_odd(4),   # n0_odd_closed(4)
        lambda: n0_even(4),  # adds kummer(4)
    )
    with monkeypatch.context() as no_work:
        def refuse(*args, **kwargs):
            raise AssertionError("work began before the genus guard")
        for cls in (LaurentInt, BiLaurent):
            no_work.setattr(cls, "__mul__", refuse)
            no_work.setattr(cls, "__rmul__", refuse)
        for call in too_large:
            with pytest.raises(ClosedGenusError):
                call()
    assert sym_power_calls == []
    # at the guard they run
    assert n0_odd(3) == n0_odd_closed(3)
    assert hodge_closed(3).specialize_diagonal() == hn_closed(3)
    assert kummer(3).rank() == 2 ** 5


# n0_odd keeps the closed odd class of each genus for the process.  Each
# test below fills or clears the memo itself, so none depends on the order
# the tests run in.

def test_odd_readers_never_build_the_chain(monkeypatch):
    closed = []
    real_chain, real_closed = moduli._chain, moduli.n0_odd_closed

    def refuse_oracle(genus, degree=None):
        raise AssertionError(f"n0_odd_chain({genus}) was called")

    def chain_below_odd_degree(genus, d, walls):
        if d == 4 * genus - 3:
            raise AssertionError(f"the degree-{d} odd chain was built")
        return real_chain(genus, d, walls)

    def counted_closed(genus):
        closed.append(genus)
        return real_closed(genus)
    with monkeypatch.context() as patched:
        patched.setattr(moduli, "n0_odd_chain", refuse_oracle)
        patched.setattr(moduli, "_chain", chain_below_odd_degree)
        patched.setattr(moduli, "n0_odd_closed", counted_closed)
        moduli._odd_class.cache_clear()
        odd = n0_odd(4)
        parts = [decompose(4, i) for i in range(1, 5)]
        n0_even(4)
    # the closed class is built once per genus and process
    assert closed == [4]
    assert odd == n0_odd_chain(4) == real_closed(4)
    assert [list(p.factors) for p in parts] == [
        closed_multiplicities(i) for i in range(1, 5)]
    # the oracles stay unmemoized: each call builds its own class
    assert n0_odd_chain(2) is not n0_odd_chain(2)
    assert n0_odd_closed(2) is not n0_odd_closed(2)


def test_warm_n0_even_builds_one_chain(monkeypatch):
    # the odd class comes from the memo; only the degree-(4g-2) chain is built
    n0_odd(3)
    chains = []
    real = moduli._chain

    def counted(genus, d, walls):
        chains.append((genus, d, len(walls)))
        return real(genus, d, walls)
    monkeypatch.setattr(moduli, "_chain", counted)
    n0_even(3)
    assert chains == [(3, 10, 5)]


def test_warm_odd_memo_keeps_the_guards(monkeypatch):
    n0_odd(4)
    with monkeypatch.context() as patched:
        patched.setattr(moduli, "CLOSED_GENUS_GUARD", 3)
        with pytest.raises(ClosedGenusError):
            n0_odd(4)
        with pytest.raises(ClosedGenusError):
            decompose(4, 1)
    assert n0_odd(4) == n0_odd_closed(4)


def test_warm_odd_memo_refuses_non_int_genus():
    # an lru_cache key takes 2.0 for 2 and True for 1
    n0_odd(2)
    n0_odd(3)
    for bad in (2.0, True, "2", 3.0):
        with pytest.raises(ValueError, match="genus must be an integer"):
            n0_odd(bad)


def test_odd_memo_is_bounded_and_public_names_stay_plain():
    assert moduli._odd_class.cache_info().maxsize == moduli.ODD_MEMO_SIZE
    assert moduli.ODD_MEMO_SIZE == 32
    # per-function instrumentation wraps plain functions only
    for name in ("n0_odd", "n0_odd_chain", "n0_odd_closed", "n0_even",
                 "pair_moduli", "pw_classes", "sym_power_curve"):
        assert type(getattr(moduli, name)) is FunctionType, name
