"""Betti and Hodge realizations.

Both are additive maps on classes and multiplicative against Tate-polynomial
scalars: λ_a goes to C(2g,a)·t^a on the Betti side and to
``sum_{i+j=a} C(g,i)C(g,j) x^i y^j`` on the Hodge side, while L goes to t²
and xy.  Setting x = y = t in a Hodge realization recovers the Betti one
(Vandermonde).  The closed Betti and Hodge expressions for the odd-degree
moduli space are provided as independent cross-checks.
"""

from __future__ import annotations

from math import comb

from .laurent import (ExactDivisionError, LaurentInt, _check_int, _Exponents,
                      _SparseLaurent)
from .motive import MotiveClass
from .moduli import PipelineIntegrityError


def _two_symbol_box(num, den):
    """Test of a quotient exponent against the box [min(num) - min(den),
    max(num) - max(den)] on each axis and on the total degree: the Newton
    polytope of an exact quotient q is that of num less that of den, so q's
    exponents stay inside it."""
    (nx, ny), (dx, dy) = zip(*num), zip(*den)
    nt, dt = [i + j for i, j in num], [i + j for i, j in den]
    x0, x1 = min(nx) - min(dx), max(nx) - max(dx)
    y0, y1 = min(ny) - min(dy), max(ny) - max(dy)
    t0, t1 = min(nt) - min(dt), max(nt) - max(dt)
    return lambda m: (x0 <= m[0] <= x1 and y0 <= m[1] <= y1
                      and t0 <= m[0] + m[1] <= t1)


class BiLaurent(_SparseLaurent):
    """Integer Laurent polynomials in two symbols x, y; sparse {(i, j): c}.

    The arithmetic is ``laurent._SparseLaurent``'s; long division takes the
    bottom term in graded-lex order (total degree, then the x exponent) and
    stops once a quotient exponent leaves the Newton box of exact quotients.
    """

    __slots__ = ()
    _EXP = _Exponents(
        zero=(0, 0),
        valid=lambda m: (type(m) is tuple and len(m) == 2
                         and type(m[0]) is int and type(m[1]) is int),
        add=lambda m, n: (m[0] + n[0], m[1] + n[1]),
        sub=lambda m, n: (m[0] - n[0], m[1] - n[1]),
        quotient_box=_two_symbol_box, bottom=lambda m: (m[0] + m[1], m[0]))

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

    def render(self, sx: str = "x", sy: str = "y") -> str:
        def spell(m: tuple[int, int], mag: int) -> str:
            i, j = m
            factors = [str(mag)] if mag != 1 or m == (0, 0) else []
            if i:
                factors.append(sx if i == 1 else f"{sx}^{i}")
            if j:
                factors.append(sy if j == 1 else f"{sy}^{j}")
            return "·".join(factors)
        return self._render(spell)

    def to_terms_json(self) -> list[list[int]]:
        """Sorted [i, j, coeff] triples."""
        return [[i, j, c] for (i, j), c in self.items()]


X = BiLaurent.monomial(1, 0)
Y = BiLaurent.monomial(0, 1)


def betti(x: MotiveClass) -> LaurentInt:
    """Betti realization: λ_a·L^b goes to C(2g,a)·t^(a+2b)."""
    g2 = 2 * x.genus
    out: dict[int, int] = {}
    for a, p in x.components().items():
        rank = comb(g2, a)
        for e, c in p.items():
            k = a + 2 * e
            out[k] = out.get(k, 0) + rank * c
    return LaurentInt._raw({k: c for k, c in out.items() if c})


def _hodge_table(x: MotiveClass) -> dict[int, list[tuple[int, int, int]]]:
    """λ_a -> its (i, a - i, C(g,i)·C(g,a-i)) Hodge terms, for each λ-index
    of ``x``; its weight parts need no other index."""
    g = x.genus
    row = [comb(g, i) for i in range(g + 1)]
    # canonical indices run over 0..g, so i and a - i both stay in 0..g
    return {a: [(i, a - i, row[i] * row[a - i]) for i in range(a + 1)]
            for a in x.lambda_indices()}


def _hodge(x: MotiveClass, table) -> BiLaurent:
    """Hodge realization of ``x`` against a ``_hodge_table`` that covers
    its λ-indices."""
    out: dict[tuple[int, int], int] = {}
    for a, p in x.components().items():
        base = table[a]
        for e, c in p.items():
            for i, j, r in base:
                k = (i + e, j + e)
                out[k] = out.get(k, 0) + r * c
    return BiLaurent._raw({k: c for k, c in out.items() if c})


def hodge(x: MotiveClass) -> BiLaurent:
    """Hodge realization: λ_a goes to the (g,g)-bigraded exterior ranks,
    L to xy."""
    return _hodge(x, _hodge_table(x))


def hn_closed(genus: int) -> LaurentInt:
    """Closed Betti polynomial of the odd-determinant moduli space:
    ((1+t³)^2g - t^2g (1+t)^2g) / ((1-t²)(1-t⁴))."""
    _check_int(genus, "genus", 2)
    t = LaurentInt.monomial(1)
    num = (1 + t ** 3) ** (2 * genus) - t ** (2 * genus) * (1 + t) ** (2 * genus)
    den = (1 - t ** 2) * (1 - t ** 4)
    try:
        return num.exact_div(den)
    except ExactDivisionError as exc:
        raise PipelineIntegrityError(
            f"closed Betti division not exact at genus {genus}") from exc


def hodge_closed(genus: int) -> BiLaurent:
    """Closed Hodge polynomial of the odd-determinant moduli space:
    ((1+x²y)^g (1+xy²)^g - (xy)^g (1+x)^g (1+y)^g) / ((1-xy)(1-x²y²))."""
    _check_int(genus, "genus", 2)
    xy = X * Y
    num = ((1 + X ** 2 * Y) ** genus * (1 + X * Y ** 2) ** genus
           - xy ** genus * (1 + X) ** genus * (1 + Y) ** genus)
    den = (1 - xy) * (1 - xy ** 2)
    try:
        return num.exact_div(den)
    except ExactDivisionError as exc:
        raise PipelineIntegrityError(
            f"closed Hodge division not exact at genus {genus}") from exc


def level_per_weight(x: MotiveClass) -> dict[int, int]:
    """Maximum |p - q| over the Hodge support of each weight part.

    Computed on the realization support, signs included; for virtual classes
    interpret with care (a cancelling pair of signs hides its level).
    """
    table = _hodge_table(x)
    out: dict[int, int] = {}
    for m in x.weights():
        support = _hodge(x.weight_part(m), table)._c
        if support:
            out[m] = max(abs(i - j) for i, j in support)
    return out


def hodge_diamond_rows(x: MotiveClass) -> list[tuple[int, int, int, int]]:
    """(weight, p, q, h) rows of the per-weight Hodge diamonds, sorted."""
    table = _hodge_table(x)
    rows = []
    for m in x.weights():
        for (i, j), c in _hodge(x.weight_part(m), table).items():
            rows.append((m, i, j, c))
    return rows
