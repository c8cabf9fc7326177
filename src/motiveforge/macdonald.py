"""Symmetric powers of graded objects.

Three routes, deliberately independent of each other:

* ``sym_power_curve`` works at motive level for a genus-g curve.  Below g
  it extracts the T^n coefficient of the MacDonald kernel
  (1+T)^(h¹C)/((1-T)(1-LT)) from one Cauchy product: the binomial series
  (1+T)^(h¹C) times the projective series 1/((1-T)(1-LT)), whose T^k
  coefficient is the class of P^k.  From g on it takes S_n by Riemann–Roch,
  S_n = L^(n-g+1)·S_(2g-2-n) + J·[P^(n-g)], from one power below g (none
  from n = 2g-1 on).
* ``sym_power_ranks`` works at rank level for an arbitrary graded object,
  multiplying the classical product kernel with binomial coefficients.
* ``sym_power_bruteforce`` counts invariants directly: multisets of n basis
  generators, odd-degree generators used at most once, even-degree ones
  without bound, tallied by total degree.  No closed formula enters, so it
  serves as the oracle for the other two.

``sym_power_walls`` is not a fourth route: it lists S_0, ..., S_top for a
flip chain, the powers from g on by the same Riemann–Roch builder.
"""

from __future__ import annotations

from math import comb

from .laurent import LaurentInt, _check_int, range_sum
from .motive import MotiveClass, _folded_binomial, _tate_combination
from .series import _check_order, binomial_series, projective_series

#: work ceiling for the direct enumeration
ENUMERATION_GUARD = 10_000_000


class EnumerationGuardError(RuntimeError):
    """Direct invariant counting exceeded the enumeration guard."""


def curve_ranks(genus: int) -> dict[int, int]:
    """Betti ranks of a genus-g curve: 1, 2g, 1."""
    _check_int(genus, "genus", 1)
    return {0: 1, 1: 2 * genus, 2: 1}


def _rr_wall(genus: int, n: int, jac: MotiveClass,
             below: MotiveClass | None) -> MotiveClass:
    """S_n for n >= g by Riemann–Roch: the parts (J, [P^(n-g)]) and
    (S_(2g-2-n), L^(n-g+1)), with jac the Jacobian class J and below the
    class S_(2g-2-n), or None from n = 2g-1 on."""
    m = n - genus
    parts = [(jac, range_sum(0, m))]
    if below is not None:
        parts.append((below, LaurentInt.monomial(m + 1)))
    return _tate_combination(genus, parts)


def sym_power_curve(genus: int, n: int) -> MotiveClass:
    """Class of the n-th symmetric product of a genus-g curve: one kernel
    product of order n below g, and from g on S_n by Riemann–Roch from
    S_(2g-2-n) (see ``sym_power_walls``), without a series."""
    _check_int(genus, "genus", 1)
    _check_int(n, "symmetric power index", 0)
    _check_order(n)
    if n < genus:
        return (binomial_series(genus, n) * projective_series(genus, n))[n]
    mirror = 2 * genus - 2 - n
    return _rr_wall(genus, n, _folded_binomial(0, 0, genus),
                    sym_power_curve(genus, mirror) if mirror >= 0 else None)


def sym_power_walls(genus: int, top: int) -> list[MotiveClass]:
    """The classes S_0, ..., S_top of the symmetric products of a genus-g
    curve, the walls of a flip chain.

    Below g each S_n is one ``sym_power_curve`` call.  From g on,
    S_n = L^(n-g+1)·S_(2g-2-n) + J·[P^(n-g)], with J = λ_0 + ... + λ_2g the
    class of the Jacobian and S_m = 0 for m < 0.  Derivation: the
    Abel–Jacobi map Sym^n C -> Pic^n C has fibre P(H⁰(M)) over a line bundle
    M, and by Riemann–Roch h⁰(M) = n - g + 1 + h⁰(K - M).  Where
    h⁰(K - M) = 0 the fibre is P^(n-g), which gives J·[P^(n-g)].  Where
    h⁰(K - M) = r + 1 > 0 the fibre is P^(n-g+r+1), whose excess over
    P^(n-g) is L^(n-g+1)·[P^r]; and P^r is the fibre of
    Sym^(2g-2-n) C -> Pic^(2g-2-n) C over K - M.  Summed over the strata the
    excess is L^(n-g+1)·S_(2g-2-n).  This is Macdonald's formula (Topology 1,
    1962) read as the functional equation of the motivic zeta function; from
    n = 2g-1 on the map is a P^(n-g)-bundle and the first term is absent.
    """
    _check_int(genus, "genus", 1)
    _check_int(top, "symmetric power index", 0)
    _check_order(top)
    walls = [sym_power_curve(genus, n) for n in range(min(top + 1, genus))]
    jac = _folded_binomial(0, 0, genus)
    for n in range(genus, top + 1):
        mirror = 2 * genus - 2 - n
        walls.append(_rr_wall(genus, n, jac,
                              walls[mirror] if mirror >= 0 else None))
    return walls


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
    identities are shared with ``sym_power_ranks``.  The power n is bounded
    by ``series.SERIES_ORDER_GUARD`` as there, and the tally work by
    ENUMERATION_GUARD.
    """
    _check_int(n, "symmetric power index", 0)
    _check_order(n)
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
