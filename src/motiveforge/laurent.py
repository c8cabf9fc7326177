"""Exact sparse integer Laurent polynomials.

A polynomial is a sparse map {exponent: coefficient}.  Exponents may be
negative, coefficients are Python ints (so nothing ever overflows), and zero
coefficients are never stored.  Values are immutable and safe to share.

``_SparseLaurent`` implements validation, coercion, ``+ - * **`` and ``==``
once, over the exponent monoid (``_Exponents``) that a subclass names:
``LaurentInt`` in the one symbol L, ``realize.BiLaurent`` in two.  The types
never mix; combining them raises ``TypeError``.

Division is one-symbol only.  ``LaurentInt.exact_div`` divides from the
bottom term and fails loudly, carrying the remainder, when the quotient is
not an integer Laurent polynomial; it stops once a quotient exponent passes
max(self) - max(other), where every exact quotient ends, so it always ends.
``LaurentInt.series_div`` expands ``self/other`` as a power series in L up to
a requested exponent, which only needs the divisor's bottom coefficient to be
a unit.  Both run the one long division, ``_long_div``, over a heap of
remainder exponents.
"""

from __future__ import annotations

import operator
import re
from fractions import Fraction
from heapq import heapify, heappop, heappush
from typing import Callable, NamedTuple


class ExactDivisionError(ArithmeticError):
    """A quotient that was required to be exact left a remainder."""

    def __init__(self, message: str, remainder=None):
        super().__init__(message)
        self.remainder = remainder


class DivisorUnitError(ValueError):
    """Series division needs a divisor whose lowest coefficient is +1 or -1."""


def _check_int(value, what: str, lo: int | None = None,
               hi: int | None = None) -> None:
    """Raise ``ValueError`` unless ``value`` is an exact ``int`` (bools,
    floats and strings are not) in lo..hi, a bound left None being open:
    the one integer-input rule of the public entry points."""
    if (type(value) is not int or (lo is not None and value < lo)
            or (hi is not None and value > hi)):
        bound = (f" in {lo}..{hi}" if lo is not None and hi is not None
                 else f" >= {lo}" if lo is not None
                 else f" <= {hi}" if hi is not None else "")
        raise ValueError(f"{what} must be an integer{bound}, got {value!r}")


_INT_KEY = re.compile(r"[+-]?[0-9]+")


def _int_key(key, what: str) -> int:
    """The int that a JSON key spells in ASCII decimal, ``[+-]?[0-9]+``:
    ``int`` alone would also read "1_0", " 3" and "٣"."""
    if not isinstance(key, str) or not _INT_KEY.fullmatch(key):
        raise ValueError(f"malformed {what} {key!r}")
    return int(key)


def _signed_sum(terms) -> str:
    """Join (negative, body) pairs as a signed sum, "0" when there are
    none: the one layout of every rendered polynomial and class."""
    parts: list[str] = []
    for negative, body in terms:
        if not parts:
            parts.append(f"-{body}" if negative else body)
        else:
            parts.append(f"- {body}" if negative else f"+ {body}")
    return " ".join(parts) or "0"


def _spell_power(e: int, mag: int, symbol: str = "L") -> str:
    """One unsigned term mag·symbol^e: "3", "L", "2·L^-1"."""
    if e == 0:
        return str(mag)
    sym = symbol if e == 1 else f"{symbol}^{e}"
    return sym if mag == 1 else f"{mag}·{sym}"


class _Exponents(NamedTuple):
    """The exponent monoid of a polynomial type."""

    zero: object  # exponent of the constant term
    valid: Callable[[object], bool]  # accepted by the public constructor
    add: Callable


class _SparseLaurent:
    """Integer Laurent polynomial over the exponent monoid ``_EXP``.

    Results are built by ``_raw``, which does not check its map; only the
    public constructor validates.
    """

    __slots__ = ("_c",)
    _EXP: _Exponents

    def __init__(self, value=0):
        cls = type(self)
        if isinstance(value, cls):
            self._c = value._c  # never mutated, safe to share
        elif type(value) is int:  # bools are refused, not read as 0 and 1
            self._c = {cls._EXP.zero: value} if value else {}
        elif isinstance(value, dict):
            valid = cls._EXP.valid
            for e, c in value.items():
                if not valid(e) or type(c) is not int:
                    raise TypeError(f"bad {cls.__name__} entry {e!r}: {c!r}")
            self._c = {e: c for e, c in value.items() if c}
        else:
            raise TypeError(
                f"cannot build a {cls.__name__} from {type(value).__name__}")

    @classmethod
    def _raw(cls, coeffs: dict):
        """Wrap a map of valid exponents to nonzero ints, unchecked."""
        obj = object.__new__(cls)
        obj._c = coeffs
        return obj

    def _coerce(self, value):
        if isinstance(value, type(self)):
            return value
        if type(value) is int:  # bools are refused, as in the constructor
            return self._raw({self._EXP.zero: value} if value else {})
        return NotImplemented

    # -- inspection ---------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self._c)

    def items(self) -> list:
        """Terms as (exponent, coefficient), in ascending exponent order."""
        return sorted(self._c.items())

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._c == other._c

    __hash__ = None  # sparse-map values; not usable as dict keys

    def __repr__(self) -> str:
        return f"{type(self).__name__}('{self.render()}')"

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self._c)
        for e, c in other._c.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                del out[e]
        return self._raw(out)

    __radd__ = __add__

    def __neg__(self):
        return self._raw({e: -c for e, c in self._c.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        add = self._EXP.add
        out: dict = {}
        for e1, c1 in self._c.items():
            for e2, c2 in other._c.items():
                e = add(e1, e2)
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                else:
                    del out[e]
        return self._raw(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        _check_int(n, "exponent", 0)
        result = self._coerce(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- presentation ---------------------------------------------------------

    def _render(self, spell) -> str:
        """Signed sum of the terms in ascending order; ``spell(exponent,
        magnitude)`` writes one term without its sign."""
        return _signed_sum((c < 0, spell(e, abs(c))) for e, c in self.items())


class LaurentInt(_SparseLaurent):
    """Integer Laurent polynomials in the single symbol L; sparse {e: c}."""

    __slots__ = ()
    _EXP = _Exponents(zero=0,
                      valid=lambda e: type(e) is int,
                      add=operator.add)

    # Bound on the class itself, so that per-class instrumentation
    # (bench/tracing.py) patches the one-symbol type alone.
    __init__ = _SparseLaurent.__init__
    __mul__ = __rmul__ = _SparseLaurent.__mul__

    @classmethod
    def monomial(cls, exp: int, coeff: int = 1) -> "LaurentInt":
        if type(exp) is not int or type(coeff) is not int:
            raise TypeError(f"bad {cls.__name__} entry {exp!r}: {coeff!r}")
        return cls._raw({exp: coeff} if coeff else {})

    def coeff(self, exp: int) -> int:
        return self._c.get(exp, 0)

    @property
    def min_exp(self) -> int | None:
        return min(self._c) if self._c else None

    @property
    def max_exp(self) -> int | None:
        return max(self._c) if self._c else None

    def scale_exponents(self, k: int) -> "LaurentInt":
        """Substitute the symbol by its k-th power (k nonzero)."""
        _check_int(k, "exponent scale")
        if k == 0:
            raise ValueError("exponent scale must be nonzero")
        return self._raw({e * k: c for e, c in self._c.items()})

    def evaluate(self, value: int):
        """Evaluate at an integer; exact, returns an int when it is one.
        The terms are summed in ints, scaled by value^(-lo) for the lowest
        exponent lo < 0, and that power divides the sum once."""
        _check_int(value, "evaluation point")
        lo = min(0, min(self._c, default=0))
        total = sum(c * value ** (e - lo) for e, c in self._c.items())
        if not lo:
            return total
        quo = Fraction(total, value ** -lo)
        return quo.numerator if quo.denominator == 1 else quo

    def _long_div(self, other: "LaurentInt", top: int):
        """(quotient, remainder map) of dividing by nonzero ``other`` from
        the bottom term until the next quotient exponent exceeds ``top``.

        The bottom terms come from a heap of remainder exponents.  Each
        division step only adds terms strictly above the term it cancels,
        so an exponent is pushed once, when it first enters the remainder;
        a cancelled one stays in the map as 0 and is skipped when popped."""
        lo = min(other._c)
        unit = other._c[lo]
        terms = other._c.items()
        rem = dict(self._c)
        heap = list(rem)
        heapify(heap)
        quo: dict = {}
        while heap:
            e = heappop(heap)
            c = rem[e]
            if not c:
                continue
            qe = e - lo
            if qe > top:
                return self._raw(quo), {k: v for k, v in rem.items() if v}
            if c % unit:
                raise ExactDivisionError(
                    f"non-exact division: coefficient {c} at exponent {e} not "
                    f"divisible by {unit}",
                    remainder=self._raw({k: v for k, v in rem.items() if v}))
            t = c // unit
            quo[qe] = t
            for de, dc in terms:
                ee = qe + de
                if ee in rem:
                    rem[ee] -= t * dc
                else:
                    rem[ee] = -t * dc
                    heappush(heap, ee)
        return self._raw(quo), {}

    def exact_div(self, other) -> "LaurentInt":
        """Long division from the bottom term; the remainder must vanish.
        Quotient exponents only grow, and an exact quotient ends at
        max(self) - max(other), so the division stops there."""
        other = self._coerce(other)
        if other is NotImplemented:
            raise TypeError("divisor must be a LaurentInt or int")
        if not other:
            raise ZeroDivisionError("division by the zero polynomial")
        if not self:
            return self._raw({})
        quo, rem = self._long_div(other, max(self._c) - max(other._c))
        if rem:
            left = self._raw(rem)
            raise ExactDivisionError(
                f"non-exact division: remainder {left.render()}", remainder=left)
        return quo

    def series_div(self, other, order: int) -> tuple["LaurentInt", bool]:
        """Expand self/other as a series up to the given exponent.

        Returns (quotient, exact): exact is True when the remainder vanished
        within the requested order, in which case the quotient equals
        ``exact_div``; otherwise the division did not terminate at this order.
        """
        other = self._coerce(other)
        if other is NotImplemented:
            raise TypeError("divisor must be a LaurentInt or int")
        _check_int(order, "series order", 0)
        if not other:
            raise DivisorUnitError("series division by zero")
        unit = other._c[other.min_exp]
        if unit not in (1, -1):
            raise DivisorUnitError(
                f"series division needs a unit bottom coefficient, got {unit}")
        quo, rem = self._long_div(other, order)
        return quo, not rem

    def render(self, symbol: str = "L") -> str:
        return self._render(lambda e, mag: _spell_power(e, mag, symbol))

    def to_coeff_json(self) -> dict[str, int]:
        """Coefficient map with decimal string keys, lowest exponent first."""
        return {str(e): c for e, c in self.items()}

    @classmethod
    def from_coeff_json(cls, data: dict) -> "LaurentInt":
        """Read a coefficient map: ASCII decimal string keys, int values.
        Floats, bools and strings are rejected, never coerced, and so are
        two keys naming one exponent ("1" and "01")."""
        if not isinstance(data, dict):
            raise ValueError(f"malformed coefficient map: {data!r}")
        coeffs = {}
        for e, c in data.items():
            if not isinstance(e, str) or type(c) is not int:  # bools are ints
                raise ValueError(f"malformed coefficient entry {e!r}: {c!r}")
            exp = _int_key(e, "exponent")
            if exp in coeffs:
                raise ValueError(f"duplicate exponent {e!r} in {data!r}")
            coeffs[exp] = c
        return cls(coeffs)


def range_sum(lo: int, hi: int) -> LaurentInt:
    """The telescoped sum (L^lo - L^(hi+1))/(1 - L).

    Equals L^lo + ... + L^hi for hi >= lo, so range_sum(0, k) is the class
    of P^k, and zero for hi = lo-1.  For hi < lo-1 it is
    -(L^(hi+1) + ... + L^(lo-1)): flip terms past the midpoint of a pair
    chain subtract cells, and the telescoped value is what keeps the chain
    consistent with the closed form.
    """
    _check_int(lo, "lower exponent")
    _check_int(hi, "upper exponent")
    if hi >= lo:
        return LaurentInt({e: 1 for e in range(lo, hi + 1)})
    if hi == lo - 1:
        return LaurentInt()
    return LaurentInt({e: -1 for e in range(hi + 1, lo)})


#: the Lefschetz symbol itself, for building polynomials by arithmetic
L = LaurentInt.monomial(1)
