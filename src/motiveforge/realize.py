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

from .laurent import (ExactDivisionError, LaurentInt, _Exponents,
                      _SparseLaurent)
from .motive import MotiveClass
from .moduli import PipelineIntegrityError, _check_genus


class BiLaurent(_SparseLaurent):
    """Integer Laurent polynomials in two symbols x, y; sparse {(i, j): c}.

    The arithmetic is ``laurent._SparseLaurent``'s; long division takes the
    bottom term in graded-lex order (total degree, then the x exponent).
    """

    __slots__ = ()
    _EXP = _Exponents(
        zero=(0, 0),
        valid=lambda m: (isinstance(m, tuple) and len(m) == 2
                         and all(isinstance(e, int) for e in m)),
        add=lambda m, n: (m[0] + n[0], m[1] + n[1]),
        sub=lambda m, n: (m[0] - n[0], m[1] - n[1]),
        degree=sum, bottom=lambda m: (m[0] + m[1], m[0]))

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


def hodge(x: MotiveClass) -> BiLaurent:
    """Hodge realization: λ_a goes to the (g,g)-bigraded exterior ranks,
    L to xy."""
    g = x.genus
    out: dict[tuple[int, int], int] = {}
    for a, p in x.components().items():
        base = [(i, a - i, comb(g, i) * comb(g, a - i))
                for i in range(max(0, a - g), min(a, g) + 1)]
        for e, c in p.items():
            for i, j, r in base:
                k = (i + e, j + e)
                out[k] = out.get(k, 0) + r * c
    return BiLaurent._raw({k: c for k, c in out.items() if c})


def hn_closed(genus: int) -> LaurentInt:
    """Closed Betti polynomial of the odd-determinant moduli space:
    ((1+t³)^2g - t^2g (1+t)^2g) / ((1-t²)(1-t⁴))."""
    _check_genus(genus)
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
    _check_genus(genus)
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
    out: dict[int, int] = {}
    for m in x.weights():
        h = hodge(x.weight_part(m))
        if h:
            out[m] = max(abs(i - j) for (i, j), _ in h.items())
    return out


def hodge_diamond_rows(x: MotiveClass) -> list[tuple[int, int, int, int]]:
    """(weight, p, q, h) rows of the per-weight Hodge diamonds, sorted."""
    rows = []
    for m in x.weights():
        for (i, j), c in hodge(x.weight_part(m)).items():
            rows.append((m, i, j, c))
    return rows
