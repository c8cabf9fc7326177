"""Isogeny decompositions of intermediate jacobians.

The odd-weight parts of the odd-determinant moduli class are sums of terms
λ_(2α-1)·L^(i-α); each such term is the class of the (2α-1)-st exterior power
of the curve's jacobian data, so the (2i-1)-weight part determines the i-th
intermediate jacobian up to isogeny as a product of factors J^α Jac(C) with
multiplicities.  A closed multiplicity formula is provided and cross-checked
against the classes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .laurent import _check_int
from .motive import MotiveClass
from .moduli import n0_odd

JSON_SCHEMA = "jacobian-decomp/v1"


class DecompositionError(ValueError):
    """Weight part is not a non-negative combination of the expected shapes."""


@dataclass(frozen=True)
class JacobianDecomposition:
    index: int
    factors: tuple[tuple[int, int], ...]  # (alpha, multiplicity), alpha ascending

    def to_json_dict(self) -> dict:
        return {
            "schema": JSON_SCHEMA,
            "i": self.index,
            "factors": [[a, m] for a, m in self.factors],
        }


def factors_from_weight_part(part: MotiveClass, i: int) -> tuple[tuple[int, int], ...]:
    """Read (alpha, multiplicity) factors off a weight-(2i-1) class.

    Every component must be a single positive multiple of λ_(2α-1)·L^(i-α)
    with 1 <= α <= ⌊(i+1)/3⌋; anything else is a shape mismatch.
    """
    _check_int(i, "jacobian index", 1)
    alpha_max = (i + 1) // 3
    factors = []
    for a in part.lambda_indices():
        if a % 2 == 0:
            raise DecompositionError(
                f"even λ-index {a} in an odd weight part")
        alpha = (a + 1) // 2
        if not 1 <= alpha <= alpha_max:
            raise DecompositionError(
                f"factor index {alpha} outside 1..{alpha_max} for i={i}")
        p = part.component(a)
        terms = p.items()
        if len(terms) != 1 or terms[0][0] != i - alpha or terms[0][1] < 1:
            raise DecompositionError(
                f"λ{a} coefficient {p.render()} is not a positive multiple "
                f"of L^{i - alpha}")
        factors.append((alpha, terms[0][1]))
    return tuple(factors)


def decompose(genus: int, i: int) -> JacobianDecomposition:
    """Isogeny type of the i-th intermediate jacobian of the odd-determinant
    moduli space, read off the weight-(2i-1) part of its class."""
    _check_int(genus, "genus", 2)
    _check_int(i, "jacobian index", 1, genus)
    part = n0_odd(genus).weight_part(2 * i - 1)
    return JacobianDecomposition(i, factors_from_weight_part(part, i))


def closed_multiplicities(i: int) -> list[tuple[int, int]]:
    """Closed factor list for the i-th intermediate jacobian:
    multiplicity ⌊(i+3-3α)/2⌋ for α = 1..⌊(i+1)/3⌋, zeros dropped."""
    _check_int(i, "jacobian index", 1)
    out = []
    for alpha in range(1, (i + 1) // 3 + 1):
        mult = (i + 3 - 3 * alpha) // 2
        if mult > 0:
            out.append((alpha, mult))
    return out
