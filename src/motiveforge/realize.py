"""Betti and Hodge realizations: one ring map, three targets.

A realization sends λ_a to an image and L to a monomial, additively and
multiplicatively against Tate-polynomial scalars.  ``_specialize`` is that
map, the one loop that sums a class's terms.  Its targets are ``betti``
(λ_a to C(2g,a)·t^a, L to t²), ``hodge`` (λ_a to
``sum_{i+j=a} C(g,i)C(g,j) x^i y^j``, L to xy) and the per-weight Hodge
numbers behind ``level_per_weight`` and ``hodge_diamond_rows`` (within one
weight, x^p alone carries h^(p,q)).  Setting x = y = t in a Hodge
realization recovers the Betti one (Vandermonde).  The closed Betti and
Hodge expressions for the odd-degree moduli space are provided as
independent cross-checks.

Division is one-symbol: the closed Hodge divisor lies in Z[xy], which keeps
each level i - j, so ``hodge_closed`` splits its numerator by level and
divides each level in u = xy alone, by two running sums.
"""

from __future__ import annotations

from math import comb

from .laurent import (ExactDivisionError, LaurentInt, _check_int, _Exponents,
                      _SparseLaurent)
from .motive import MotiveClass
from .moduli import (CLOSED_GENUS_GUARD, PipelineIntegrityError,
                     _check_closed_genus)


class BiLaurent(_SparseLaurent):
    """Integer Laurent polynomials in two symbols x, y; sparse {(i, j): c}.

    The arithmetic is ``laurent._SparseLaurent``'s; there is no division.
    """

    __slots__ = ()
    _EXP = _Exponents(
        zero=(0, 0),
        valid=lambda m: (type(m) is tuple and len(m) == 2
                         and type(m[0]) is int and type(m[1]) is int),
        add=lambda m, n: (m[0] + n[0], m[1] + n[1]))

    # Bound on the class itself, so that per-class instrumentation
    # (bench/tracing.py) patches the two-symbol type alone.
    __mul__ = __rmul__ = _SparseLaurent.__mul__

    @classmethod
    def monomial(cls, i: int, j: int, coeff: int = 1) -> "BiLaurent":
        return cls({(i, j): coeff})

    def coeff(self, i: int, j: int) -> int:
        return self._c.get((i, j), 0)

    def swap(self) -> "BiLaurent":
        """Exchange the two symbols."""
        return self._raw({(j, i): c for (i, j), c in self._c.items()})

    def specialize_diagonal(self) -> LaurentInt:
        """Set both symbols to a single one: (i, j) collapses to i + j."""
        out: dict[int, int] = {}
        for (i, j), c in self._c.items():
            e = i + j
            out[e] = out.get(e, 0) + c
        return LaurentInt(out)

    def render(self) -> str:
        def spell(m: tuple[int, int], mag: int) -> str:
            i, j = m
            factors = [str(mag)] if mag != 1 or m == (0, 0) else []
            if i:
                factors.append("x" if i == 1 else f"x^{i}")
            if j:
                factors.append("y" if j == 1 else f"y^{j}")
            return "·".join(factors)
        return self._render(spell)

    def to_terms_json(self) -> list[list[int]]:
        """Sorted [i, j, coeff] triples."""
        return [[i, j, c] for (i, j), c in self.items()]


X = BiLaurent.monomial(1, 0)
Y = BiLaurent.monomial(0, 1)


#: bound on a realized class's top λ-index times ``genus.bit_length()``.
#: The exterior ranks C(2g, a) < (2g)^a and C(g, i)·C(g, a - i) < g^a of
#: an index a <= top have about that many bits, so it bounds the size of a
#: realization's binomials: genus 10⁹ (30 bits) at top index 200 is 6 000
REALIZATION_BITS_GUARD = 10_000


class RealizationSizeError(ValueError):
    """A class whose realization would exceed REALIZATION_BITS_GUARD."""


def _check_top_index(x: MotiveClass) -> None:
    """Refuse, before any binomial, a class whose top λ-index passes
    ``moduli.CLOSED_GENUS_GUARD``, or whose top index times the genus's bit
    length passes REALIZATION_BITS_GUARD: the exterior ranks C(2g, a) and
    the Hodge table's C(g, 0..top) grow with both."""
    if x._lam:
        top = max(x._lam)
        _check_int(top, "top λ-index", 0, CLOSED_GENUS_GUARD)
        genus_bits = x.genus.bit_length()
        bits = top * genus_bits
        if bits > REALIZATION_BITS_GUARD:
            raise RealizationSizeError(
                f"top λ-index {top} at a genus of {genus_bits} bits "
                f"gives binomials of about {bits} bits, above the guard "
                f"REALIZATION_BITS_GUARD ({REALIZATION_BITS_GUARD})")


def _specialize(x: MotiveClass, table, key) -> dict:
    """The one ring map behind every realization: λ_a·L^e goes to
    Σ r·key(a, i, e) over the (i, r) of ``table[a]``, summed into a sparse
    map with zeros dropped.  ``table`` holds the image of each λ-index of
    ``x``; ``key`` names the monomial of its i-th term times the image of
    L^e."""
    out: dict = {}
    get = out.get
    for a, p in x._lam.items():
        row = table[a]
        for e, c in p._c.items():
            for i, r in row:
                k = key(a, i, e)
                out[k] = get(k, 0) + r * c
    return {k: c for k, c in out.items() if c}


def betti(x: MotiveClass) -> LaurentInt:
    """Betti realization: λ_a·L^b goes to C(2g,a)·t^(a+2b)."""
    _check_top_index(x)
    g2 = 2 * x.genus
    table = {a: ((a, comb(g2, a)),) for a in x._lam}
    return LaurentInt._raw(_specialize(x, table, lambda a, i, e: i + 2 * e))


def _hodge_table(x: MotiveClass) -> dict[int, list[tuple[int, int]]]:
    """λ_a -> its (i, C(g,i)·C(g,a-i)) Hodge terms x^i·y^(a-i), for each
    λ-index of ``x``; its weight parts need no other index.  Both i and
    a - i stay at or below the top λ-index, so C(g, 0..top) suffice: top + 1
    binomials, whatever the genus."""
    _check_top_index(x)
    lam = x._lam
    if not lam:
        return {}
    row = [comb(x.genus, i) for i in range(max(lam) + 1)]
    return {a: [(i, row[i] * row[a - i]) for i in range(a + 1)] for a in lam}


def hodge(x: MotiveClass) -> BiLaurent:
    """Hodge realization: λ_a goes to the (g,g)-bigraded exterior ranks,
    L to xy."""
    return BiLaurent._raw(_specialize(
        x, _hodge_table(x), lambda a, i, e: (i + e, a - i + e)))


def hn_closed(genus: int) -> LaurentInt:
    """Closed Betti polynomial of the odd-determinant moduli space:
    ((1+t³)^2g - t^2g (1+t)^2g) / ((1-t²)(1-t⁴))."""
    _check_closed_genus(genus, 2)
    t = LaurentInt.monomial(1)
    num = (1 + t ** 3) ** (2 * genus) - t ** (2 * genus) * (1 + t) ** (2 * genus)
    try:
        return num.exact_div(1 - t ** 2).exact_div(1 - t ** 4)
    except ExactDivisionError as exc:
        raise PipelineIntegrityError(
            f"closed Betti division not exact at genus {genus}") from exc


def hodge_closed(genus: int) -> BiLaurent:
    """Closed Hodge polynomial of the odd-determinant moduli space:
    ((1+x²y)^g (1+xy²)^g - (xy)^g (1+x)^g (1+y)^g) / ((1-xy)(1-x²y²))."""
    _check_closed_genus(genus, 2)
    num = ((1 + X ** 2 * Y) ** genus * (1 + X * Y ** 2) ** genus
           - (X * Y) ** genus * (1 + X) ** genus * (1 + Y) ** genus)
    return _divide_levels(num, genus)


def _divide_levels(num: BiLaurent, genus: int) -> BiLaurent:
    """num / ((1-xy)(1-x²y²)), one level k = i - j at a time: x^i·y^j is
    x^k·u^j in u = xy, and a divisor in u keeps each level.

    A level n is divided in one pass as two running sums: p_j = n_j +
    p_(j-1) is n/(1-u), and q_j = p_j + q_(j-2) is that over (1-u²).  The
    division is exact when the series ends at the level's top h minus 3,
    that is when p_h, q_h and q_(h-1) are zero."""
    levels: dict[int, dict[int, int]] = {}
    for (i, j), c in num._c.items():
        levels.setdefault(i - j, {})[j] = c
    out = {}
    for k, terms in levels.items():
        hi = max(terms)
        p = q = q_prev = 0  # p_(j-1), q_(j-1), q_(j-2)
        for j in range(min(terms), hi + 1):
            p += terms.get(j, 0)
            q, q_prev = p + q_prev, q
            if q and j <= hi - 3:
                out[j + k, j] = q
        if p or q or q_prev:
            raise PipelineIntegrityError(
                f"closed Hodge division not exact at genus {genus}")
    return BiLaurent._raw(out)


def _diamonds(x: MotiveClass) -> dict[int, dict[int, int]]:
    """{m: {p: h^(p, m-p)}} per weight part of ``x``, in ascending weight,
    against one ``_hodge_table``: what the levels and diamond rows read."""
    table = _hodge_table(x)
    # within one weight p fixes q, so one symbol carries a part
    return {m: _specialize(part, table, lambda a, i, e: i + e)
            for m, part in x.weight_decomposition().items()}


def level_per_weight(x: MotiveClass) -> dict[int, int]:
    """Maximum |p - q| over the Hodge support of each weight part.

    Computed on the realization support, signs included; for virtual classes
    interpret with care (a cancelling pair of signs hides its level).
    """
    return {m: max(abs(2 * p - m) for p in h)
            for m, h in _diamonds(x).items() if h}


def hodge_diamond_rows(x: MotiveClass) -> list[tuple[int, int, int, int]]:
    """(weight, p, q, h) rows of the per-weight Hodge diamonds, sorted."""
    return [(m, p, m - p, h[p])
            for m, h in _diamonds(x).items() for p in sorted(h)]
