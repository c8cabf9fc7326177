"""Truncated formal power series in an auxiliary variable T with motive-class
coefficients, and the rational kernels whose T-coefficients drive the
moduli pipelines.

Series are truncated at construction; every quantity of interest is a single
finite coefficient, so the completed ring is never materialized.  Products
keep the coefficients inside the λ-linear module by requiring one factor to be
pure Tate wherever coefficient classes actually meet.
"""

from __future__ import annotations

from .laurent import LaurentInt, _check_int, range_sum
from .motive import (GenusMismatchError, MotiveClass, UnsupportedProductError,
                     _tate_combination, lambda_binomial)


#: highest truncation order the series constructors build; far above the
#: 8g the pipelines use, and low enough that ``projective_series``, whose
#: size grows with the square of the order, stays small
SERIES_ORDER_GUARD = 1_000


class DegenerateDenominatorError(ZeroDivisionError):
    """Closed-form kernel evaluation with coinciding denominator factors."""


class SeriesOrderError(ValueError):
    """A series constructor was asked for an order above SERIES_ORDER_GUARD."""


class MotiveSeries:
    __slots__ = ("_g", "_coeffs")

    def __init__(self, genus: int, coeffs):
        _check_int(genus, "genus", 1)
        coeffs = list(coeffs)
        if not coeffs:
            raise ValueError("a series needs at least the T^0 coefficient")
        for c in coeffs:
            if not isinstance(c, MotiveClass) or c.genus != genus:
                raise ValueError("coefficients must be MotiveClass of the series genus")
        self._g = genus
        self._coeffs = coeffs

    @property
    def genus(self) -> int:
        return self._g

    @property
    def order(self) -> int:
        return len(self._coeffs) - 1

    def __getitem__(self, n: int) -> MotiveClass:
        """The T^n coefficient; an n outside 0..order is an ``IndexError``."""
        _check_int(n, "coefficient index")
        if not 0 <= n <= self.order:
            raise IndexError(f"coefficient T^{n} outside order {self.order}")
        return self._coeffs[n]

    def __eq__(self, other) -> bool:
        if not isinstance(other, MotiveSeries):
            return NotImplemented
        return self._g == other._g and self._coeffs == other._coeffs

    __hash__ = None

    def __mul__(self, other: "MotiveSeries") -> "MotiveSeries":
        if not isinstance(other, MotiveSeries):
            return NotImplemented
        if self._g != other._g:
            raise GenusMismatchError(
                f"series genus mismatch: {self._g} vs {other._g}")
        n = min(self.order, other.order)
        out = []
        for k in range(n + 1):
            parts = []  # the T^k coefficient as (class, Tate polynomial) parts
            for i in range(k + 1):
                x, y = self._coeffs[i], other._coeffs[k - i]
                if not x or not y:
                    continue
                if y.is_pure_tate():
                    parts.append((x, y.component(0)))
                elif x.is_pure_tate():
                    parts.append((y, x.component(0)))
                else:
                    raise UnsupportedProductError(
                        f"coefficients at T^{i} and T^{k - i} both carry "
                        "exterior parts; the Cauchy product leaves the "
                        "λ-linear module")
            out.append(_tate_combination(self._g, parts))
        return MotiveSeries(self._g, out)

    def __repr__(self) -> str:
        inner = " , ".join(c.render() for c in self._coeffs)
        return f"MotiveSeries(g={self._g}, [{inner}])"


def _check_order(order: int) -> None:
    _check_int(order, "series order", 0)
    if order > SERIES_ORDER_GUARD:
        raise SeriesOrderError(
            f"series order {order} exceeds the guard {SERIES_ORDER_GUARD}")


def geometric(u_exp: int, genus: int, order: int) -> MotiveSeries:
    """(1 - L^u_exp · T)^-1 up to T^order: the coefficient of T^n is
    L^(n·u_exp)."""
    _check_int(u_exp, "geometric exponent")
    _check_order(order)
    return MotiveSeries(genus, [MotiveClass.tate(genus, n * u_exp)
                                for n in range(order + 1)])


def binomial_series(genus: int, order: int) -> MotiveSeries:
    """(1 + T)^(h¹C) up to T^order: the coefficient of T^a is λ_a, zero
    above 2g."""
    _check_int(genus, "genus", 1)
    _check_order(order)
    return MotiveSeries(genus, [
        MotiveClass(genus, {a: 1} if a <= 2 * genus else {})
        for a in range(order + 1)])


def projective_series(genus: int, order: int) -> MotiveSeries:
    """1/((1 - T)(1 - L·T)) up to T^order: the coefficient of T^k is the
    class 1 + L + ... + L^k of P^k."""
    _check_order(order)
    return MotiveSeries(genus, [
        MotiveClass(genus, {0: range_sum(0, k)})
        for k in range(order + 1)])


def big_f(e1: int, e2: int, e3: int, genus: int, mode: str = "series") -> MotiveClass:
    """Coefficient of T^(2g) in (1+T)^(h¹C) / ((1-aT)(1-bT)(1-cT)) with
    a, b, c = L^e1, L^e2, L^e3.

    ``mode="series"`` extracts the coefficient from the truncated product of
    kernels; ``mode="closed"`` evaluates the partial-fraction identity over
    the common denominator (a-b)(a-c)(b-c) with a single exact division,
    which requires the three exponents to be pairwise distinct.  Both modes
    refuse 2g above ``SERIES_ORDER_GUARD`` and agree where both are defined.
    """
    for e in (e1, e2, e3):
        _check_int(e, "kernel exponent")
    _check_int(genus, "genus", 1)
    _check_order(2 * genus)
    if mode == "series":
        n = 2 * genus
        f = binomial_series(genus, n)
        for e in (e1, e2, e3):
            f = f * geometric(e, genus, n)
        return f[n]
    if mode == "closed":
        if len({e1, e2, e3}) < 3:
            raise DegenerateDenominatorError(
                f"kernel exponents must be pairwise distinct, got "
                f"({e1}, {e2}, {e3})")
        a, b, c = (LaurentInt.monomial(e) for e in (e1, e2, e3))
        # residue of 1/((1-aT)(1-bT)(1-cT)) at the a-pole is a²/((a-b)(a-c))
        num = (lambda_binomial(e1, 0, genus) * (a * a * (b - c))
               - lambda_binomial(e2, 0, genus) * (b * b * (a - c))
               + lambda_binomial(e3, 0, genus) * (c * c * (a - b)))
        den = (a - b) * (a - c) * (b - c)
        return num.exact_div(den)
    raise ValueError(f"unknown mode {mode!r}, expected 'series' or 'closed'")
