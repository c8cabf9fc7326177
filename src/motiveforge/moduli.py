"""Flip-chain pipelines for the moduli classes.

The pair-moduli chain M_0, ..., M_ω (ω = ⌊(d-1)/2⌋) starts at a projective
space and changes by one flip term per wall; summing the terms gives the class
of any M_i.  Dividing the last one by a projective-space factor yields the
class of the odd-degree bundle moduli space; that chain is an oracle, and the
class every reader gets is the closed binomial expression it is checked
against.  The even-degree case runs the four-step pipeline:
strictly-semistable preimage, Gysin subtraction, series division by the
projective fibration, Kummer correction; its known rough edges (a division
that fails to terminate, closed forms that disagree with the stepwise
classes) are surfaced as diagnostics in the report rather than hidden.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache

from .laurent import LaurentInt, _check_int, range_sum
from .motive import (MotiveClass, _tate_combination, _weight_match,
                     lambda_binomial)
from .macdonald import sym_power_curve, sym_power_walls
from .series import _check_order

REPORT_SCHEMA = "pipeline-report/v1"

#: largest dimension d + g - 2 of the first pair space P^(d+g-2) that a chain
#: may start from; its range sums hold one term per exponent, and the
#: pipelines use at most 5g - 4 (the even chain at degree 4g - 2)
CHAIN_DEGREE_GUARD = 10_000

#: largest genus the closed forms (``n0_odd_closed``, ``kummer``,
#: ``realize.hn_closed`` and ``realize.hodge_closed``) and the pipelines that
#: read them build.  At 200 the closed forms take at most about 0.16 s
#: (Python 3.11.7, shared 2-vCPU host, best of 5), and
#: ``jacobians --genus 200 --index 3`` about 0.16 s and 22 MB peak RSS as a
#: command; ``n0_even(125)``, the series order guard's ceiling, takes about
#: 2.6 s
CLOSED_GENUS_GUARD = 200

#: genera whose odd class ``n0_odd`` keeps for the process
ODD_MEMO_SIZE = 32


class PipelineIntegrityError(ArithmeticError):
    """Two computation paths that must agree did not."""


class ChainDegreeError(ValueError):
    """A pair chain was asked for beyond CHAIN_DEGREE_GUARD."""


class ClosedGenusError(ValueError):
    """A closed form was asked for beyond CLOSED_GENUS_GUARD."""


def omega_index(d: int) -> int:
    """Index of the last pair-moduli space in the chain of degree d."""
    _check_int(d, "degree", 1)
    return (d - 1) // 2


def _check_chain(genus: int, d: int, top: int) -> None:
    """Refuse, before any work, a degree-d chain whose first space is too
    large or whose walls need symmetric powers S_0..S_top above the series
    order guard."""
    if d + genus - 2 > CHAIN_DEGREE_GUARD:
        raise ChainDegreeError(
            f"pair chain of degree {d} at genus {genus} starts at "
            f"P^{d + genus - 2}, above the guard {CHAIN_DEGREE_GUARD}")
    _check_order(top)


def _check_closed_genus(genus: int, lo: int) -> None:
    """Refuse, before any work, a genus outside lo..CLOSED_GENUS_GUARD:
    the size of a closed form grows with its genus."""
    _check_int(genus, "genus", lo)
    if genus > CLOSED_GENUS_GUARD:
        raise ClosedGenusError(
            f"genus {genus} exceeds the closed-form guard {CLOSED_GENUS_GUARD}")


def pw_classes(genus: int, d: int, i: int) -> tuple[MotiveClass, MotiveClass]:
    """Classes of the two flip centers at wall i of the degree-d chain.

    The plus side is a P^(d-2i+g-2)-bundle and the minus side a
    P^(i-1)-bundle, both over the i-th symmetric product of the curve; a
    wall index whose plus side would have negative dimension is refused.
    """
    _check_int(d, "degree", 1)
    _check_int(genus, "genus", 2)
    _check_int(i, f"wall index at degree {d}", 0, (d + genus - 2) // 2)
    _check_chain(genus, d, i)
    base = sym_power_curve(genus, i)
    plus = base * range_sum(0, d - 2 * i + genus - 2)
    minus = base * range_sum(0, i - 1)
    return plus, minus


def _chain(genus: int, d: int, walls: list[MotiveClass]) -> MotiveClass:
    """Class of M_i in the degree-d chain, i = len(walls) - 1, from the
    symmetric powers walls[j] = S_j: P^(d+g-2) plus one flip term per wall.

    The flip term of wall j is S_j·range_sum(j, d+g-2-2j), and range_sum is
    (L^lo - L^(hi+1))/(1 - L): one combination of the parts
    (S_j, L^j - L^(d+g-1-2j)), a zero factor where the shifts coincide,
    divided once by 1 - L.
    """
    top = d + genus - 1
    parts = [(sym, LaurentInt.monomial(j) - LaurentInt.monomial(top - 2 * j))
             for j, sym in enumerate(walls)]
    return _tate_combination(genus, parts).exact_div(
        1 - LaurentInt.monomial(1))


def pair_moduli(genus: int, d: int, i: int) -> MotiveClass:
    """Class of the i-th moduli space of pairs in the degree-d chain."""
    _check_int(d, "degree", 1)
    _check_int(genus, "genus", 2)
    _check_int(i, f"pair index at degree {d}", 0, omega_index(d))
    _check_chain(genus, d, i)
    return _chain(genus, d, sym_power_walls(genus, i))


def n0_odd_chain(genus: int, degree: int | None = None) -> MotiveClass:
    """Odd-determinant moduli class via the flip chain.

    Uses degree 4g-3 by default; any odd degree >= 4g-3 gives the same class
    because the last pair space fibers over the bundle moduli space in
    projective spaces of dimension d-2g+1.
    """
    _check_int(genus, "genus", 2)
    if degree is None:
        degree = 4 * genus - 3
    _check_int(degree, "degree", 4 * genus - 3)
    if degree % 2 == 0:
        raise ValueError(f"degree must be odd, got {degree}")
    last = pair_moduli(genus, degree, omega_index(degree))
    # [P^m] = (1 - L^(m+1))/(1 - L): a product by 1 - L, then one division
    # by a binomial
    lef = LaurentInt.monomial(1)
    return (last * (1 - lef)).exact_div(1 - lef ** (degree - 2 * genus + 2))


def n0_odd_closed(genus: int) -> MotiveClass:
    """Odd-determinant moduli class from the closed binomial expression:
    ((1 + L)^(h¹) - L^g (1 + 1)^(h¹)) / ((1-L)(1-L²))."""
    _check_closed_genus(genus, 2)
    num = (lambda_binomial(0, 1, genus)
           - lambda_binomial(0, 0, genus) * LaurentInt.monomial(genus))
    return (num.exact_div(1 - LaurentInt.monomial(1))
            .exact_div(1 - LaurentInt.monomial(2)))


@lru_cache(maxsize=ODD_MEMO_SIZE)
def _odd_class(genus: int) -> MotiveClass:
    """``n0_odd_closed(genus)``, kept for the process."""
    return n0_odd_closed(genus)


def n0_odd(genus: int) -> MotiveClass:
    """Odd-determinant moduli class, the closed binomial class
    ``n0_odd_closed(genus)``: the one source of the odd class for
    ``n0_even``, ``decompose`` and ``verify``.  The gates run on every call
    (the memo's key would take 2.0 and True for 2 and 1); the class is built
    once per genus and process.  The flip chain ``n0_odd_chain`` is never
    built here: it is the oracle that checks this class.
    """
    _check_closed_genus(genus, 2)
    return _odd_class(genus)


def kummer(genus: int) -> MotiveClass:
    """Class of the Kummer variety of the curve: the even exterior algebra,
    of rank 2^(2g-1)."""
    _check_closed_genus(genus, 1)
    return MotiveClass(genus, {a: 1 for a in range(0, 2 * genus + 1, 2)})


def ss_preimage(genus: int) -> MotiveClass:
    """Class of the preimage of the singular locus in the last pair space of
    the even chain: a P^(2g-2)-bundle over the (2g-1)-st symmetric product,
    itself a P^(g-1)-bundle over the Jacobian (``sym_power_walls``).  So it
    is J·([P^(g-1)]·[P^(2g-2)]), with J = Σ_a λ_a the Jacobian."""
    _check_int(genus, "genus", 2)
    _check_order(2 * genus - 1)
    return lambda_binomial(0, 0, genus) * (
        range_sum(0, genus - 1) * range_sum(0, 2 * genus - 2))


@dataclass(frozen=True)
class Stage:
    """One named entry of a pipeline report."""
    name: str
    kind: str  # "class" | "flags" | "diff" | "weight_match"
    value: object

    def to_json_dict(self) -> dict:
        out: dict = {"name": self.name, "kind": self.kind}
        if self.kind == "class":
            out["class"] = self.value.to_json_dict()
        elif self.kind == "flags":
            out["exact_by_lambda"] = {
                str(a): bool(v) for a, v in sorted(self.value.items())}
        elif self.kind == "diff":
            cut, diffs = self.value
            out["cut"] = cut
            out["diff_by_weight"] = {
                str(m): diffs[m].to_json_dict() for m in sorted(diffs)}
        elif self.kind == "weight_match":
            out["match_by_weight"] = {
                str(m): bool(v) for m, v in sorted(self.value.items())}
            out["status"] = "pass" if all(self.value.values()) else "fail"
        else:
            raise ValueError(f"unknown stage kind {self.kind!r}")
        return out

    def render_text(self) -> str:
        """One line: the stage name and its value, as the text report
        shows it."""
        if self.kind == "class":
            return f"{self.name}: {self.value.render()}"
        if self.kind == "flags":
            flat = ", ".join(f"λ{a}={'exact' if v else 'nonterminating'}"
                             for a, v in sorted(self.value.items()))
            return f"{self.name}: {flat}"
        if self.kind == "diff":
            cut, diffs = self.value
            body = "; ".join(f"weight {m}: {diffs[m].render()}"
                             for m in sorted(diffs)) or "agree"
            return f"{self.name} (cut {cut}): {body}"
        if self.kind == "weight_match":
            bad = [m for m, ok in sorted(self.value.items()) if not ok]
            status = f"fail (weights {bad})" if bad else "pass"
            return f"{self.name}: {status}"
        raise ValueError(f"unknown stage kind {self.kind!r}")


@dataclass(frozen=True)
class PipelineReport:
    genus: int
    stages: tuple[Stage, ...]

    @property
    def degree(self) -> int:  # of the even chain
        return 4 * self.genus - 2

    @property
    def order(self) -> int:  # of the series division by the fibration
        return 8 * self.genus

    def stage(self, name: str) -> Stage:
        for st in self.stages:
            if st.name == name:
                return st
        raise KeyError(f"no stage named {name!r}")

    def to_json_dict(self) -> dict:
        return {
            "schema": REPORT_SCHEMA,
            "genus": self.genus,
            "degree": self.degree,
            "order": self.order,
            "stages": [st.to_json_dict() for st in self.stages],
        }

    def render_text(self) -> str:
        """A header line, then one line per stage."""
        head = (f"even pipeline: genus {self.genus}, degree {self.degree}, "
                f"order {self.order}")
        return "\n".join([head] + [st.render_text() for st in self.stages])

    def csv_rows(self) -> list[tuple[str, str, str]]:
        """(stage, field, value) rows: each JSON field of each stage but
        its name and kind, the value as sort-keyed JSON."""
        return [(st.name, key, json.dumps(value, sort_keys=True))
                for st in self.stages
                for key, value in st.to_json_dict().items()
                if key not in ("name", "kind")]


def n0_even(genus: int) -> PipelineReport:
    """Run the even-determinant pipeline and assemble the full report.

    Stages: the last pair space of the degree-(4g-2) chain, the semistable
    boundary, the Gysin-pure stable pair class, the series division by the
    fibration factor with per-component exactness, the twisted Kummer term,
    the assembled class, the truncation comparison against the odd case below
    weight 2g-2, and the two closed-form comparators (diagnostic only: they
    are checked per weight, never used as the computation path).  The series
    division runs to order 8g, so the series order guard bounds the genus.
    The walls S_0..S_(2g-2) of the degree-(4g-2) chain come from
    ``sym_power_walls``: the powers from g on by Riemann–Roch from those
    below g.  The odd class is ``n0_odd(genus)``, the closed class, built
    once per genus and process.
    """
    _check_closed_genus(genus, 2)
    _check_order(8 * genus)
    d = 4 * genus - 2
    _check_chain(genus, d, 2 * genus - 1)
    lef = LaurentInt.monomial(1)

    mo = _chain(genus, d, sym_power_walls(genus, 2 * genus - 2))
    odd = n0_odd(genus)
    ss = ss_preimage(genus)
    mos = _tate_combination(genus, [(mo, LaurentInt(1)),
                                    (ss, -lef ** (genus - 1))])
    # [P^(2g-1)] = (1 - L^(2g))/(1 - L): the same truncated series and
    # flags, as the remainder only gains the unit factor 1 - L
    stable, flags = (mos * (1 - lef)).series_div(
        1 - lef ** (2 * genus), 8 * genus)
    kum_twisted = kummer(genus) * LaurentInt.monomial(2 * genus - 3)
    total = stable + kum_twisted

    cut = 2 * genus - 2
    delta = total.truncate_below(cut) - odd.truncate_below(cut)

    # the two displayed closed forms, cross-multiplied by
    # (1-L)²(1-L²) = 1 - 2L + 2L³ - L⁴ and compared weight by weight:
    # (1+L)^(h¹) and J = (1+1)^(h¹) are ``lambda_binomial`` classes
    g = genus
    den = LaurentInt({0: 1, 1: -2, 3: 2, 4: -1})
    head = (lambda_binomial(0, 1, g), 1 - lef ** (2 * g))
    jac = lambda_binomial(0, 0, g)
    # for the last even pair space
    mo_tail = -(LaurentInt.monomial(g + 1) * (1 + lef ** g)
                * (1 + LaurentInt.monomial(g - 2)))
    mo_match = _weight_match(mo * den,
                             _tate_combination(g, [head, (jac, mo_tail)]))
    # for the stable-locus quotient
    kernel = (lef * (1 + lef ** g) * (1 + LaurentInt.monomial(g - 2))
              + LaurentInt.monomial(-1) * (1 - lef ** g)
              * (1 - lef ** (2 * g - 1)) * (1 - lef ** 2))
    stable_tail = -LaurentInt.monomial(g) * kernel
    stable_match = _weight_match(
        mos * den, _tate_combination(g, [head, (jac, stable_tail)]))

    stages = (
        Stage("m_omega", "class", mo),
        Stage("ss_preimage", "class", ss),
        Stage("m_omega_s", "class", mos),
        Stage("n0_even_stable", "class", stable),
        Stage("stable_division_exact", "flags", flags),
        Stage("kummer_twisted", "class", kum_twisted),
        Stage("n0_even", "class", total),
        Stage("truncation_vs_odd", "diff", (cut, delta.weight_decomposition())),
        Stage("m_omega_closed_form", "weight_match", mo_match),
        Stage("n0_stable_closed_form", "weight_match", stable_match),
    )
    return PipelineReport(genus=genus, stages=stages)
