"""Point counts as an oracle for the motive-level classes.

Over F_q a curve of genus g has Frobenius eigenvalues α_1..α_2g, paired as
α_(g+i) = q/α_i, and zeta function

    Z(t) = Π(1 − α_i t) / ((1 − t)(1 − qt)).

Sending λ_a to (−1)^a e_a(α_1..α_2g), the t^a coefficient of Π(1 − α_i t),
and L to q turns every class into its point count.  The identities below
hold as rational functions of the α_i and q, so rational values stand in
for Weil numbers.  They use ``fractions`` and the public API only: no code
is shared with the flip chain, the closed forms or the series.  The odd
class is checked twice: as ``n0_odd``, the closed form, and as
``n0_odd_chain``, the flip chain that is its oracle.
"""

import random
from fractions import Fraction

import pytest

from motiveforge import MotiveClass, n0_odd, n0_odd_chain, sym_power_curve

SEEDS = (0, 1, 2)


def _point(genus, seed):
    """(q, Π(1 − α_i t) as a coefficient list) at seeded rational α_1..α_g
    and α_(g+i) = q/α_i.  No α_i is 1 or q, which would make |J| vanish,
    nor q² or 1/q, which would make Z(q^−2) vanish and hide Siegel's term."""
    rng = random.Random(seed * 1000 + genus)
    q = Fraction(rng.randint(2, 9))
    alphas = []
    while len(alphas) < genus:
        alpha = Fraction(rng.choice((-1, 1)) * rng.randint(1, 12),
                         rng.randint(1, 7))
        if alpha not in (1, q, q * q, 1 / q):
            alphas.append(alpha)
    poly = [Fraction(1)]
    for alpha in alphas + [q / alpha for alpha in alphas]:
        poly = [c - alpha * prev for c, prev in zip(poly + [0], [0] + poly)]
    return q, poly


def _count(cls, q, poly):
    """The point count of ``cls``: λ_a ↦ poly[a], L ↦ q."""
    return sum(poly[a] * sum(c * q ** e for e, c in cls.component(a).items())
               for a in cls.lambda_indices())


def _n0_odd_count(genus, q, poly, siegel_exp):
    """(q − 1)(B − U)/|J|: B = |J|·q^siegel_exp·Z(q^−2)/(q − 1) is the mass
    of all rank-2 bundles of odd degree (Siegel's formula, whose exponent is
    3g − 3), U = |J|²·q^(g−2)/((q − 1)²(1 − q^−2)) that of the unstable
    ones (Harder–Narasimhan), and every stable bundle has automorphisms
    F_q^*; |J| = Π(1 − α_i) counts the jacobian."""
    jac = sum(poly)
    t = q ** -2
    zeta = sum(c * t ** a for a, c in enumerate(poly)) / ((1 - t) * (1 - q * t))
    mass = jac * q ** siegel_exp * zeta / (q - 1)
    unstable = jac ** 2 * q ** (genus - 2) / ((q - 1) ** 2 * (1 - t))
    return (q - 1) * (mass - unstable) / jac


@pytest.mark.parametrize("genus", range(2, 9))
def test_n0_odd_counts_stable_bundles(genus):
    cls = n0_odd(genus)
    for seed in SEEDS:
        q, poly = _point(genus, seed)
        assert _count(cls, q, poly) == _n0_odd_count(
            genus, q, poly, 3 * genus - 3), (genus, seed)


@pytest.mark.parametrize("genus", range(2, 9))
def test_n0_odd_count_control_fails(genus):
    # the same identity with a wrong Siegel exponent misses at every point
    cls = n0_odd(genus)
    for seed in SEEDS:
        q, poly = _point(genus, seed)
        assert _count(cls, q, poly) != _n0_odd_count(
            genus, q, poly, 4 * genus - 4), (genus, seed)


@pytest.mark.parametrize("genus", range(2, 6))
def test_n0_odd_chain_counts_stable_bundles(genus):
    # the flip chain, with its q^(4g−4) control
    cls = n0_odd_chain(genus)
    for seed in SEEDS:
        q, poly = _point(genus, seed)
        count = _count(cls, q, poly)
        assert count == _n0_odd_count(
            genus, q, poly, 3 * genus - 3), (genus, seed)
        assert count != _n0_odd_count(
            genus, q, poly, 4 * genus - 4), (genus, seed)


@pytest.mark.parametrize("genus", range(1, 7))
def test_lambda_fold_is_the_functional_equation(genus):
    # a > g folds to λ_(2g−a)·L^(a−g); e_(2g−a)·q^(a−g) = e_a holds because
    # the α_i pair off as α and q/α
    for seed in SEEDS:
        q, poly = _point(genus, seed)
        for a in range(genus + 1, 2 * genus + 1):
            cls = MotiveClass(genus, {a: 1})
            assert cls.lambda_indices() == [2 * genus - a], (genus, a)
            assert _count(cls, q, poly) == poly[a], (genus, seed, a)


@pytest.mark.parametrize("genus", range(1, 6))
def test_sym_power_counts_are_zeta_coefficients(genus):
    # the T^n coefficient of Z(t): Σ_a (−1)^a e_a·(1 + q + … + q^(n−a))
    for seed in SEEDS:
        q, poly = _point(genus, seed)
        for n in range(3 * genus):
            expected = sum(poly[a] * sum(q ** k for k in range(n - a + 1))
                           for a in range(min(n, 2 * genus) + 1))
            assert _count(sym_power_curve(genus, n), q, poly) == expected, (
                genus, seed, n)
