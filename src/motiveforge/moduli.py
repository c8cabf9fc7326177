"""Flip-chain pipelines for the moduli classes.

The pair-moduli chain M_0, ..., M_ω (ω = ⌊(d-1)/2⌋) starts at a projective
space and changes by one flip term per wall; summing the terms gives the class
of any M_i.  Dividing the last one by a projective-space factor yields the
class of the odd-degree bundle moduli space, which is also computed from a
closed binomial expression as an independent path.  The even-degree case runs
the four-step pipeline: strictly-semistable preimage, Gysin subtraction,
series division by the projective fibration, Kummer correction; its known
rough edges (a division that fails to terminate, closed forms that disagree
with the stepwise classes) are surfaced as diagnostics in the report rather
than hidden.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .laurent import ExactDivisionError, LaurentInt, _check_int
from .motive import MotiveClass, lambda_binomial
from .macdonald import sym_power_curve
from .series import _check_order

REPORT_SCHEMA = "pipeline-report/v1"

#: largest dimension d + g - 2 of the first pair space P^(d+g-2) that a chain
#: may start from; its range sums hold one term per exponent, and the
#: pipelines use at most 5g - 4 (the even chain at degree 4g - 2)
CHAIN_DEGREE_GUARD = 10_000


class PipelineIntegrityError(ArithmeticError):
    """Two computation paths that must agree did not."""


class ChainDegreeError(ValueError):
    """A pair chain was asked for beyond CHAIN_DEGREE_GUARD."""


def omega_index(d: int) -> int:
    """Index of the last pair-moduli space in the chain of degree d."""
    return (d - 1) // 2


def range_sum(lo: int, hi: int) -> LaurentInt:
    """The telescoped sum (L^lo - L^(hi+1))/(1 - L).

    Equals L^lo + ... + L^hi for hi >= lo and zero for hi = lo-1.  For
    hi < lo-1 it is -(L^(hi+1) + ... + L^(lo-1)): flip terms past the
    midpoint of the chain subtract cells, and the telescoped value is what
    keeps the chain consistent with the closed form.
    """
    if hi >= lo:
        return LaurentInt({e: 1 for e in range(lo, hi + 1)})
    if hi == lo - 1:
        return LaurentInt()
    return LaurentInt({e: -1 for e in range(hi + 1, lo)})


def _check_chain(genus: int, d: int, top: int) -> None:
    """Refuse, before any work, a degree-d chain whose first space is too
    large or whose walls need symmetric powers S_0..S_top above the series
    order guard."""
    if d + genus - 2 > CHAIN_DEGREE_GUARD:
        raise ChainDegreeError(
            f"pair chain of degree {d} at genus {genus} starts at "
            f"P^{d + genus - 2}, above the guard {CHAIN_DEGREE_GUARD}")
    _check_order(top)


def pw_classes(genus: int, d: int, i: int) -> tuple[MotiveClass, MotiveClass]:
    """Classes of the two flip centers at wall i of the degree-d chain.

    The plus side is a P^(d-2i+g-2)-bundle and the minus side a
    P^(i-1)-bundle, both over the i-th symmetric product of the curve.
    """
    _check_int(genus, "genus", 2)
    _check_int(d, "degree")
    _check_int(i, "wall index", 0)
    _check_chain(genus, d, i)
    base = sym_power_curve(genus, i)
    plus = base * range_sum(0, d - 2 * i + genus - 2)
    minus = base * range_sum(0, i - 1)
    return plus, minus


def _chain(genus: int, d: int, walls: list[MotiveClass]) -> MotiveClass:
    """Class of M_i in the degree-d chain, i = len(walls) - 1, from the
    symmetric powers walls[j] = S_j: P^(d+g-2) plus one flip term per wall."""
    total = MotiveClass.zero(genus)
    for j, sym in enumerate(walls):
        total = total + sym * range_sum(j, d + genus - 2 - 2 * j)
    return total


def pair_moduli(genus: int, d: int, i: int) -> MotiveClass:
    """Class of the i-th moduli space of pairs in the degree-d chain."""
    _check_int(genus, "genus", 2)
    _check_int(d, "degree")
    _check_int(i, f"pair index at degree {d}", 0, omega_index(d))
    _check_chain(genus, d, i)
    return _chain(genus, d, [sym_power_curve(genus, j) for j in range(i + 1)])


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
    return _odd_quotient(genus, degree, last)


def _odd_quotient(genus: int, degree: int, last: MotiveClass) -> MotiveClass:
    """The last pair space of an odd chain, divided by its fibre
    P^(d-2g+1) over the bundle moduli space."""
    return last.exact_div(range_sum(0, degree - 2 * genus + 1))


def n0_odd_closed(genus: int) -> MotiveClass:
    """Odd-determinant moduli class from the closed binomial expression:
    ((1 + L)^(h¹) - L^g (1 + 1)^(h¹)) / ((1-L)(1-L²))."""
    _check_int(genus, "genus", 2)
    num = (lambda_binomial(0, 1, genus)
           - lambda_binomial(0, 0, genus) * LaurentInt.monomial(genus))
    den = (1 - LaurentInt.monomial(1)) * (1 - LaurentInt.monomial(2))
    return num.exact_div(den)


def _agreeing_with_closed(genus: int, chain: MotiveClass) -> MotiveClass:
    """The flip-chain odd class, once it equals the closed one."""
    closed = n0_odd_closed(genus)
    if chain != closed:
        raise PipelineIntegrityError(
            f"flip-chain and closed classes disagree at genus {genus}: "
            f"{chain.render()} vs {closed.render()}")
    return chain


def n0_odd(genus: int) -> MotiveClass:
    """Odd-determinant moduli class, with the two computation paths compared."""
    return _agreeing_with_closed(genus, n0_odd_chain(genus))


def kummer(genus: int) -> MotiveClass:
    """Class of the Kummer variety of the curve: the even exterior algebra,
    of rank 2^(2g-1)."""
    _check_int(genus, "genus", 1)
    return MotiveClass(genus, {a: 1 for a in range(0, 2 * genus + 1, 2)})


def ss_preimage(genus: int) -> MotiveClass:
    """Class of the preimage of the singular locus in the last pair space of
    the even chain: a P^(2g-2)-bundle over the (2g-1)-st symmetric product."""
    _check_int(genus, "genus", 2)
    _check_order(2 * genus - 1)
    return sym_power_curve(genus, 2 * genus - 1) * range_sum(0, 2 * genus - 2)


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
    degree: int
    order: int
    stages: tuple[Stage, ...]

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


def _weight_match(lhs: MotiveClass, rhs: MotiveClass) -> dict[int, bool]:
    weights = sorted(set(lhs.weights()) | set(rhs.weights()))
    return {m: lhs.weight_part(m) == rhs.weight_part(m) for m in weights}


def n0_even(genus: int, order: int | None = None) -> PipelineReport:
    """Run the even-determinant pipeline and assemble the full report.

    Stages: the last pair space of the degree-(4g-2) chain, the semistable
    boundary, the Gysin-pure stable pair class, the series division by the
    fibration factor with per-component exactness, the twisted Kummer term,
    the assembled class, the truncation comparison against the odd case below
    weight 2g-2, and the two closed-form comparators (diagnostic only: they
    are checked per weight, never used as the computation path).  The series
    order defaults to 8g, the one default the command line also uses.  The
    walls S_0..S_(2g-2) are built once: the degree-(4g-2) chain and the
    degree-(4g-3) odd chain both end at index 2g - 2 and share them.
    """
    _check_int(genus, "genus", 2)
    if order is None:
        order = 8 * genus
    _check_order(order)
    d = 4 * genus - 2
    _check_chain(genus, d, 2 * genus - 1)
    lef = LaurentInt.monomial(1)

    walls = [sym_power_curve(genus, j) for j in range(2 * genus - 1)]
    mo = _chain(genus, d, walls)
    odd = _agreeing_with_closed(
        genus, _odd_quotient(genus, d - 1, _chain(genus, d - 1, walls)))
    ss = ss_preimage(genus)
    mos = mo - ss * LaurentInt.monomial(genus - 1)
    stable, flags = mos.series_div(range_sum(0, 2 * genus - 1), order)
    kum_twisted = kummer(genus) * LaurentInt.monomial(2 * genus - 3)
    total = stable + kum_twisted

    cut = 2 * genus - 2
    delta = total.truncate_below(cut) - odd.truncate_below(cut)
    diffs = {m: delta.weight_part(m) for m in delta.weights()}

    b01 = lambda_binomial(0, 1, genus)
    b00 = lambda_binomial(0, 0, genus)
    den = (1 - lef) ** 2 * (1 - lef ** 2)
    # displayed closed form for the last even pair space, cross-multiplied
    mo_rhs = (b01 * (1 - lef ** (2 * genus))
              - b00 * (LaurentInt.monomial(genus + 1)
                       * (1 + lef ** genus)
                       * (1 + LaurentInt.monomial(genus - 2))))
    mo_match = _weight_match(mo * den, mo_rhs)
    # displayed closed form for the stable-locus quotient, cross-multiplied
    kernel = (lef * (1 + lef ** genus) * (1 + LaurentInt.monomial(genus - 2))
              + LaurentInt.monomial(-1) * (1 - lef ** genus)
              * (1 - lef ** (2 * genus - 1)) * (1 - lef ** 2))
    stable_rhs = (b01 * (1 - lef ** (2 * genus))
                  - b00 * (LaurentInt.monomial(genus) * kernel))
    stable_match = _weight_match(mos * den, stable_rhs)

    stages = (
        Stage("m_omega", "class", mo),
        Stage("ss_preimage", "class", ss),
        Stage("m_omega_s", "class", mos),
        Stage("n0_even_stable", "class", stable),
        Stage("stable_division_exact", "flags", flags),
        Stage("kummer_twisted", "class", kum_twisted),
        Stage("n0_even", "class", total),
        Stage("truncation_vs_odd", "diff", (cut, diffs)),
        Stage("m_omega_closed_form", "weight_match", mo_match),
        Stage("n0_stable_closed_form", "weight_match", stable_match),
    )
    return PipelineReport(genus=genus, degree=d, order=order, stages=stages)
