"""Classes in the Grothendieck ring spanned by exterior powers of a curve's
weight-one part, with Laurent-polynomial coefficients in the Lefschetz class L.

A class is a genus-tagged sparse map {a: LaurentInt} representing
``sum_a [Λ^a h¹C] · p_a(L)``.  Indices are reduced to the canonical range
0..g with the Jacobian duality rewrite ``λ_a = λ_{2g-a} · L^{a-g}`` for a > g,
so equality of classes is equality of the stored maps.  The term λ_a·L^b is
homogeneous of weight a + 2b and has rank C(2g, a).  The pipelines read no
stored map: a product ``x * t`` by a Tate polynomial runs through the one
kernel ``_tate_combination``, which also sums several such parts;
``lambda_binomial`` is the one Newton binomial, and ``_weight_match`` compares.

Canonical in, ``_raw`` out: the constructor validates and folds external
input once; every operation whose inputs are already classes or
``LaurentInt``s drops its zero components itself and wraps its result with
``MotiveClass._raw``, unchecked.

Only the module structure over Z[L, L^-1] is provided.  Products λ_a·λ_b are
deliberately absent (they would need plethysm data none of the pipelines use);
multiplying two classes is a typed error unless one of them is pure Tate.
"""

from __future__ import annotations

from math import comb

from .laurent import (ExactDivisionError, LaurentInt, _check_int, _int_key,
                      _signed_sum, _spell_power)

JSON_SCHEMA = "motive-class/v1"


class GenusMismatchError(ValueError):
    """Classes over curves of different genus cannot be combined."""


class UnsupportedProductError(TypeError):
    """Product would need λ·λ multiplication, which this module excludes."""


class MotiveClass:
    __slots__ = ("_g", "_lam")

    def __init__(self, genus: int, components=None):
        """Build a class from a map λ-index -> coefficient, canonicalizing.

        Indices may run over 0..2g; anything above g is folded down with the
        duality rewrite.  Coefficients may be ints, dicts or LaurentInt.
        """
        _check_int(genus, "genus", 1)
        self._g = genus
        acc: dict[int, LaurentInt] = {}
        for a, p in (components or {}).items():
            _check_int(a, "λ-index", 0, 2 * genus)
            p = LaurentInt(p)
            if not p:
                continue
            if a > genus:
                p = p * LaurentInt.monomial(a - genus)
                a = 2 * genus - a
            acc[a] = acc.get(a, LaurentInt()) + p
        self._lam = {a: p for a, p in acc.items() if p}

    @classmethod
    def _raw(cls, genus: int, lam: dict) -> "MotiveClass":
        """Wrap a canonical map (indices 0..g, nonzero coefficients),
        unchecked.  The public constructor validates external input; an
        operation on canonical inputs builds its result here."""
        obj = object.__new__(cls)
        obj._g = genus
        obj._lam = lam
        return obj

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, genus: int) -> "MotiveClass":
        return cls(genus)

    @classmethod
    def one(cls, genus: int) -> "MotiveClass":
        return cls(genus, {0: 1})

    @classmethod
    def tate(cls, genus: int, exp: int, coeff: int = 1) -> "MotiveClass":
        """The class coeff·L^exp."""
        return cls(genus, {0: LaurentInt.monomial(exp, coeff)})

    @classmethod
    def lam(cls, genus: int, a: int, scalar=1) -> "MotiveClass":
        """The class λ_a times a Tate polynomial."""
        return cls(genus, {a: LaurentInt(scalar)})

    # -- inspection -----------------------------------------------------------

    @property
    def genus(self) -> int:
        return self._g

    def components(self) -> dict[int, LaurentInt]:
        """Copy of the canonical λ-index -> coefficient map."""
        return dict(self._lam)

    def component(self, a: int) -> LaurentInt:
        return self._lam.get(a, LaurentInt())

    def lambda_indices(self) -> list[int]:
        return sorted(self._lam)

    def is_pure_tate(self) -> bool:
        return set(self._lam) <= {0}

    def rank(self) -> int:
        return sum(comb(2 * self._g, a) * p.evaluate(1)
                   for a, p in self._lam.items())

    def __bool__(self) -> bool:
        return bool(self._lam)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MotiveClass):
            return NotImplemented
        return self._g == other._g and self._lam == other._lam

    __hash__ = None

    def __repr__(self) -> str:
        return f"MotiveClass(g={self._g}, '{self.render()}')"

    # -- module structure -------------------------------------------------------

    def _require_same_genus(self, other: "MotiveClass") -> None:
        if self._g != other._g:
            raise GenusMismatchError(
                f"genus mismatch: {self._g} vs {other._g}")

    def __add__(self, other: "MotiveClass") -> "MotiveClass":
        if not isinstance(other, MotiveClass):
            return NotImplemented
        self._require_same_genus(other)
        out = dict(self._lam)
        for a, p in other._lam.items():
            s = out[a] + p if a in out else p
            if s:
                out[a] = s
            else:
                del out[a]
        return MotiveClass._raw(self._g, out)

    def __neg__(self) -> "MotiveClass":
        return MotiveClass._raw(self._g, {a: -p for a, p in self._lam.items()})

    def __sub__(self, other: "MotiveClass") -> "MotiveClass":
        if not isinstance(other, MotiveClass):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "MotiveClass":
        if isinstance(other, MotiveClass):
            self._require_same_genus(other)
            if other.is_pure_tate():
                other = other.component(0)
            elif self.is_pure_tate():
                other, self = self.component(0), other
            else:
                raise UnsupportedProductError(
                    "product of two classes with exterior parts needs λ·λ "
                    "multiplication, which is not defined here")
        if isinstance(other, int):
            other = LaurentInt(other)
        if not isinstance(other, LaurentInt):
            return NotImplemented
        return _tate_combination(self._g, [(self, other)])

    __rmul__ = __mul__

    # -- twists, duality, weights -------------------------------------------------

    def twist(self, n: int) -> "MotiveClass":
        """Tate twist by (n): multiply by L^(-n), shifting weights by -2n."""
        _check_int(n, "twist")
        return self * LaurentInt.monomial(-n)

    def dual(self) -> "MotiveClass":
        """Dualise: λ_a·L^b goes to λ_a·L^(-a-b)."""
        return MotiveClass._raw(self._g, {
            a: LaurentInt._raw({-a - e: c for e, c in p._c.items()})
            for a, p in self._lam.items()})

    def weight_part(self, m: int) -> "MotiveClass":
        """The terms λ_a·L^b with a + 2b = m: one b per λ-index."""
        _check_int(m, "weight")
        out = {}
        for a, p in self._lam.items():
            b, odd = divmod(m - a, 2)
            c = 0 if odd else p.coeff(b)
            if c:
                out[a] = LaurentInt._raw({b: c})
        return MotiveClass._raw(self._g, out)

    def weights(self) -> list[int]:
        """Sorted weights with a nonzero homogeneous part."""
        seen = set()
        for a, p in self._lam.items():
            for e, _ in p.items():
                seen.add(a + 2 * e)
        return sorted(seen)

    def weight_decomposition(self) -> dict[int, "MotiveClass"]:
        """The split into weight parts, {m: weight_part(m)} in ascending
        weight over the weights with a nonzero part; they sum to the class."""
        return {m: self.weight_part(m) for m in self.weights()}

    def truncate_below(self, m: int) -> "MotiveClass":
        """Keep the weight parts strictly below m."""
        _check_int(m, "weight")
        out = {}
        for a, p in self._lam.items():
            picked = {e: c for e, c in p.items() if a + 2 * e < m}
            if picked:
                out[a] = LaurentInt._raw(picked)
        return MotiveClass._raw(self._g, out)

    # -- division ------------------------------------------------------------------

    def exact_div(self, p) -> "MotiveClass":
        """Divide every λ-component exactly by a Tate polynomial."""
        out = {}
        for a, comp in sorted(self._lam.items()):
            try:
                out[a] = comp.exact_div(p)
            except ExactDivisionError as exc:
                raise ExactDivisionError(
                    f"non-exact division in λ{a} component: {exc}",
                    remainder=exc.remainder) from None
        return MotiveClass._raw(self._g, out)

    def series_div(self, p, order: int) -> tuple["MotiveClass", dict[int, bool]]:
        """Divide componentwise as a series in L up to the given exponent.

        Returns the truncated quotient and, per λ-index, whether that
        component's division terminated (then it agrees with exact_div).
        """
        out = {}
        flags: dict[int, bool] = {}
        for a, comp in sorted(self._lam.items()):
            q, exact = comp.series_div(p, order)
            flags[a] = exact
            if q:
                out[a] = q
        return MotiveClass._raw(self._g, out), flags

    # -- presentation and interchange -------------------------------------------------

    def render(self) -> str:
        chunks: list[tuple[bool, str]] = []
        for a, p in sorted(self._lam.items()):
            terms = p.items()
            if a == 0:
                chunks += [(c < 0, _spell_power(e, abs(c))) for e, c in terms]
            elif len(terms) == 1 and abs(terms[0][1]) == 1:
                (e, c), = terms
                body = f"λ{a}" if e == 0 else f"λ{a}·{_spell_power(e, 1)}"
                chunks.append((c < 0, body))
            else:
                chunks.append((False, f"λ{a}·({p.render()})"))
        return _signed_sum(chunks)

    def to_json_dict(self) -> dict:
        return {
            "schema": JSON_SCHEMA,
            "genus": self._g,
            "lambda": {str(a): self._lam[a].to_coeff_json()
                       for a in sorted(self._lam)},
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "MotiveClass":
        if (not isinstance(data, dict) or data.get("schema") != JSON_SCHEMA
                or data.keys() != {"schema", "genus", "lambda"}):
            raise ValueError(f"expected a {JSON_SCHEMA} record: exactly the "
                             f"keys schema, genus and lambda")
        raw = data["lambda"]
        try:
            items = [(_int_key(a, "λ-index"), LaurentInt.from_coeff_json(p))
                     for a, p in raw.items()]
        except (TypeError, ValueError, AttributeError) as exc:
            raise ValueError(f"malformed lambda map: {raw!r}") from exc
        components = dict(items)
        if len(components) != len(items):  # "1" and "01" name one index
            raise ValueError(f"duplicate λ-index in lambda map: {raw!r}")
        return cls(data["genus"], components)


def lambda_binomial(exp_a: int, exp_b: int, genus: int) -> MotiveClass:
    """The Newton binomial (A+B)^(h¹C) with A = L^exp_a, B = L^exp_b.

    Expands to ``sum_a λ_a · A^(2g-a) · B^a``, folded directly: with
    e_a = exp_a·(2g-a) + exp_b·a, λ_a carries L^(e_a) and, for a < g,
    L^(e_(2g-a) + g-a), never the same exponent: they differ by
    (g-a)·(2exp_a - 2exp_b - 1).  Swapping the arguments is NOT symmetric;
    instead the two orders are related by ``(A+B)^M = L^-g · (B·L + A)^M``.
    """
    _check_int(exp_a, "exponent of A")
    _check_int(exp_b, "exponent of B")
    _check_int(genus, "genus", 1)
    g = genus
    lam = {a: LaurentInt._raw({exp_a * (2 * g - a) + exp_b * a: 1,
                               exp_a * a + exp_b * (2 * g - a) + g - a: 1})
           for a in range(g)}
    lam[g] = LaurentInt._raw({(exp_a + exp_b) * g: 1})
    return MotiveClass._raw(g, lam)


def _tate_combination(genus: int, parts) -> MotiveClass:
    """The class Σ X·t over the (X, t) parts, X a class of this genus and t
    a ``LaurentInt``: one {exponent: coefficient} map per λ-index, the longer
    term run in the inner loop, then zero terms and empty components
    dropped.  A Tate factor moves no λ-index, so the result is canonical."""
    acc: dict[int, dict[int, int]] = {}
    for cls, tate in parts:
        t_terms = tate._c.items()
        for a, p in cls._lam.items():
            outer, inner = p._c.items(), t_terms
            if len(outer) > len(inner):
                outer, inner = inner, outer
            row = acc.get(a)
            for k, x in outer:
                if row is None:  # the first run is a shifted copy
                    row = acc[a] = (dict(inner) if k == 0 and x == 1 else
                                    {e + k: c * x for e, c in inner})
                    continue
                get = row.get
                for e, c in inner:
                    e += k
                    row[e] = get(e, 0) + c * x
    out = {}
    for a in sorted(acc):
        row = acc[a]
        if 0 in row.values():
            row = {e: c for e, c in row.items() if c}
        if row:
            out[a] = LaurentInt._raw(row)
    return MotiveClass._raw(genus, out)


def _weight_match(lhs: MotiveClass, rhs: MotiveClass) -> dict[int, bool]:
    """Per weight a + 2e of a term λ_a·L^e of either class, in ascending
    order: whether the two classes agree on every term of that weight."""
    match: dict[int, bool] = {}
    for a in lhs._lam.keys() | rhs._lam.keys():
        x, y = lhs.component(a)._c, rhs.component(a)._c
        for e in x.keys() | y.keys():
            m = a + 2 * e
            match[m] = match.get(m, True) and x.get(e, 0) == y.get(e, 0)
    return dict(sorted(match.items()))
