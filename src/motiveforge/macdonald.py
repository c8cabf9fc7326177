"""Symmetric powers of graded objects.

Three routes, deliberately independent of each other:

* ``sym_power_curve`` works at motive level for a genus-g curve, extracting
  the T^n coefficient of the MacDonald kernel (1+T)^(h¹C)/((1-T)(1-LT)) from
  one Cauchy product: the binomial series (1+T)^(h¹C) times the projective
  series 1/((1-T)(1-LT)), whose T^k coefficient is the class of P^k.
* ``sym_power_ranks`` works at rank level for an arbitrary graded object,
  multiplying the classical product kernel with binomial coefficients.
* ``sym_power_bruteforce`` counts invariants directly: multisets of n basis
  generators, odd-degree generators used at most once, even-degree ones
  without bound, tallied by total degree.  No closed formula enters, so it
  serves as the oracle for the other two.
"""

from __future__ import annotations

from math import comb

from .laurent import LaurentInt, _check_int
from .motive import MotiveClass
from .series import _check_order, binomial_series, projective_series

#: work ceiling for the direct enumeration
ENUMERATION_GUARD = 10_000_000


class EnumerationGuardError(RuntimeError):
    """Direct invariant counting exceeded the enumeration guard."""


def curve_ranks(genus: int) -> dict[int, int]:
    """Betti ranks of a genus-g curve: 1, 2g, 1."""
    _check_int(genus, "genus", 1)
    return {0: 1, 1: 2 * genus, 2: 1}


def sym_power_curve(genus: int, n: int) -> MotiveClass:
    """Class of the n-th symmetric product of a genus-g curve."""
    _check_int(genus, "genus", 1)
    _check_int(n, "symmetric power index", 0)
    return (binomial_series(genus, n) * projective_series(genus, n))[n]


def _validated_ranks(b: dict) -> dict[int, int]:
    out = {}
    for deg, cnt in b.items():
        _check_int(deg, "rank degree")
        _check_int(cnt, "rank", 0)
        if cnt:
            out[deg] = cnt
    return out


def sym_power_ranks(b: dict[int, int], n: int) -> dict[int, int]:
    """Ranks of the n-th symmetric power of a graded object with ranks b.

    Extracts the T^n coefficient of
    prod_odd (1 + t^i T)^(b_i) / prod_even (1 - t^i T)^(b_i),
    returning {degree: rank} with zero entries dropped.  The power n is a
    truncation order, bounded by ``series.SERIES_ORDER_GUARD`` like those of
    the motive-level route.
    """
    _check_int(n, "symmetric power index", 0)
    _check_order(n)
    ranks = _validated_ranks(b)
    series: list[LaurentInt] = [LaurentInt(1)] + [LaurentInt()] * n
    for deg in sorted(ranks):
        cnt = ranks[deg]
        if deg % 2:
            factor = [LaurentInt.monomial(deg * k, comb(cnt, k))
                      for k in range(min(cnt, n) + 1)]
        else:
            factor = [LaurentInt.monomial(deg * k, comb(cnt + k - 1, k))
                      for k in range(n + 1)]
        nxt = [LaurentInt() for _ in range(n + 1)]
        for i, coeff in enumerate(series):
            if not coeff:
                continue
            for j, fac in enumerate(factor):
                if i + j > n:
                    break
                nxt[i + j] = nxt[i + j] + coeff * fac
        series = nxt
    return {deg: c for deg, c in series[n].items()}


def sym_power_bruteforce(b: dict[int, int], n: int) -> dict[int, int]:
    """Invariant dimensions of the n-th symmetric power, counted directly.

    Tallies generator by generator over the expanded basis (each of the b_i
    generators of degree i separately, memoized by suffix), so no binomial
    identities are shared with ``sym_power_ranks``.  Raises when the tally
    work would exceed ENUMERATION_GUARD.
    """
    _check_int(n, "symmetric power index", 0)
    ranks = _validated_ranks(b)
    gens = [deg for deg in sorted(ranks) for _ in range(ranks[deg])]
    work = 0
    # table[k]: degree tally over multisets of k generators from the suffix
    table: list[dict[int, int]] = [{0: 1}] + [{} for _ in range(n)]
    for deg in reversed(gens):
        cap = 1 if deg % 2 else n
        nxt: list[dict[int, int]] = [{0: 1}]
        for k in range(1, n + 1):
            out: dict[int, int] = {}
            for m in range(min(cap, k) + 1):
                for d, cnt in table[k - m].items():
                    work += 1
                    if work > ENUMERATION_GUARD:
                        raise EnumerationGuardError(
                            f"multiset enumeration exceeded "
                            f"{ENUMERATION_GUARD} steps")
                    dd = d + m * deg
                    out[dd] = out.get(dd, 0) + cnt
            nxt.append(out)
        table = nxt
    return {deg: c for deg, c in sorted(table[n].items()) if c}
