"""Verification harness.

Re-runs the engine's invariants and acceptance checks and assembles a
deterministic report.  Statuses: ``pass``/``fail`` for checks with a defined
answer, ``diagnostic`` for findings that are recorded but never fail a run
(the even-pipeline closed-form comparators and truncation findings, and any
check that the requested genus range leaves without a genus).
Checks state their requirements with ``_require``, not ``assert``, so they
still fail under ``python -O``; a check that raises is recorded as ``fail``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from math import comb

from .laurent import LaurentInt, _check_int
from .motive import MotiveClass, lambda_binomial
from . import macdonald, moduli, realize, jacobians
from .series import big_f, binomial_series, geometric

REPORT_SCHEMA = "verify-report/v1"
RNG_SEED = 811


@dataclass(frozen=True)
class CheckResult:
    name: str
    suite: str
    status: str  # "pass" | "fail" | "diagnostic"
    details: str


@dataclass(frozen=True)
class VerifyReport:
    results: tuple[CheckResult, ...]

    @property
    def failed(self) -> bool:
        return any(r.status == "fail" for r in self.results)

    def counts(self) -> dict[str, int]:
        out = {"pass": 0, "fail": 0, "diagnostic": 0}
        for r in self.results:
            out[r.status] += 1
        return out

    def to_json_dict(self) -> dict:
        return {
            "schema": REPORT_SCHEMA,
            "checks": [
                {"name": r.name, "suite": r.suite, "status": r.status,
                 "details": r.details}
                for r in self.results
            ],
            "summary": self.counts(),
        }

    def render_text(self) -> str:
        lines = []
        for r in self.results:
            lines.append(f"{r.status.upper():10s} [{r.suite}] {r.name}: {r.details}")
        c = self.counts()
        lines.append(
            f"summary: {c['pass']} pass, {c['fail']} fail, "
            f"{c['diagnostic']} diagnostic")
        return "\n".join(lines)


class _Ctx:
    def __init__(self, genus_range, cases):
        self.genus_range = genus_range
        self.cases = cases
        self._even: dict[int, moduli.PipelineReport] = {}

    def genera(self, default_list):
        """Clip a check's own genus list by the user-requested range; a
        range that leaves none raises ``_NoGenera``."""
        if self.genus_range is None:
            return list(default_list)
        lo, hi = self.genus_range
        genera = [g for g in default_list if lo <= g <= hi]
        if not genera:
            raise _NoGenera(f"no genera in range {lo}..{hi}")
        return genera

    def rng(self) -> random.Random:
        return random.Random(RNG_SEED)

    def even_report(self, genus: int) -> moduli.PipelineReport:
        """``moduli.n0_even(genus)``, which the checks share, built once per
        run; the odd class needs no such sharing, since ``moduli.n0_odd``
        keeps the closed class for the process."""
        if genus not in self._even:
            self._even[genus] = moduli.n0_even(genus)
        return self._even[genus]


def _random_laurent(rng, lo=-4, hi=6, terms=4, allow_zero=True) -> LaurentInt:
    n = rng.randint(0 if allow_zero else 1, terms)
    return LaurentInt({rng.randint(lo, hi): rng.randint(-9, 9) for _ in range(n)})


def _random_nonzero_laurent(rng) -> LaurentInt:
    while True:
        p = _random_laurent(rng, allow_zero=False)
        if p:
            return p


def _random_class(rng, genus=None) -> MotiveClass:
    g = genus if genus is not None else rng.randint(1, 4)
    comps = {}
    for a in range(0, g + 1):
        if rng.random() < 0.6:
            comps[a] = _random_laurent(rng)
    return MotiveClass(g, comps)


class _CheckFailed(Exception):
    """A requirement of a check did not hold."""


class _NoGenera(Exception):
    """The genus range leaves a check nothing to run on: recorded as a
    diagnostic, never as a pass."""


def _require(cond, what) -> None:
    """Fail the running check unless ``cond`` holds; ``what`` says which
    requirement, for the report.  Unlike ``assert``, ``python -O`` keeps it."""
    if not cond:
        raise _CheckFailed(what)


# ---------------------------------------------------------------------------
# individual checks; each returns (status, details)


def _check_laurent_ring_laws(ctx):
    rng = ctx.rng()
    for _ in range(ctx.cases):
        a, b, c = (_random_laurent(rng) for _ in range(3))
        _require((a + b) + c == a + (b + c), "associativity of +")
        _require(a + b == b + a, "commutativity of +")
        _require((a * b) * c == a * (b * c), "associativity of *")
        _require(a * b == b * a, "commutativity of *")
        _require(a * (b + c) == a * b + a * c, "distributivity")
    return "pass", f"{ctx.cases} randomized cases"


def _check_canonicalize(ctx):
    rng = ctx.rng()
    for _ in range(ctx.cases):
        g = rng.randint(1, 4)
        raw = {a: _random_laurent(rng) for a in range(0, 2 * g + 1)
               if rng.random() < 0.5}
        x = MotiveClass(g, raw)
        _require(MotiveClass(g, x.components()) == x, ("idempotence", g))
        _require(max(x.lambda_indices(), default=0) <= g,
                 ("λ-index above genus", g))
        raw_rank = sum(comb(2 * g, a) * p.evaluate(1) for a, p in raw.items())
        _require(x.rank() == raw_rank, ("rank not preserved", g))
    return "pass", f"{ctx.cases} randomized cases"


def _check_module_axioms(ctx):
    rng = ctx.rng()
    for _ in range(ctx.cases):
        g = rng.randint(1, 4)
        x, y = _random_class(rng, g), _random_class(rng, g)
        a, b = _random_laurent(rng), _random_laurent(rng)
        _require((x + y) * a == x * a + y * a, "(x + y)·a")
        _require(x * (a * b) == (x * a) * b, "x·(a·b)")
        _require(x * (a + b) == x * a + x * b, "x·(a + b)")
    return "pass", f"{ctx.cases} randomized cases"


def _check_weight_homogeneity(ctx):
    rng = ctx.rng()
    for _ in range(ctx.cases):
        x = _random_class(rng)
        k = rng.randint(-3, 3)
        m = rng.randint(-6, 12)
        lk = LaurentInt.monomial(k)
        _require((x * lk).weight_part(m) == x.weight_part(m - 2 * k) * lk,
                 ("weight shift", k, m))
        _require(sum((x.weight_part(w) for w in x.weights()),
                     MotiveClass.zero(x.genus)) == x, "sum of weight parts")
    return "pass", f"{ctx.cases} randomized cases"


def _check_dual_involution(ctx):
    rng = ctx.rng()
    for _ in range(ctx.cases):
        x = _random_class(rng)
        y = _random_class(rng, x.genus)
        _require(x.dual().dual() == x, "double dual")
        _require((x + y).dual() == x.dual() + y.dual(), "dual of a sum")
        k = rng.randint(-4, 4)
        _require(MotiveClass.tate(x.genus, k).dual()
                 == MotiveClass.tate(x.genus, -k), ("dual of L^k", k))
        a = rng.randint(0, x.genus)
        _require(MotiveClass.lam(x.genus, a).dual()
                 == MotiveClass.lam(x.genus, a, LaurentInt.monomial(-a)),
                 ("dual of λ_a", a))
        _require(x.dual().rank() == x.rank(), "rank of the dual")
    return "pass", f"{ctx.cases} randomized cases"


def _check_twist_inverse(ctx):
    rng = ctx.rng()
    for _ in range(ctx.cases):
        x = _random_class(rng)
        n = rng.randint(-5, 5)
        _require(x.twist(n).twist(-n) == x, ("twist", n))
    return "pass", f"{ctx.cases} randomized cases"


def _check_exact_division_round_trip(ctx):
    rng = ctx.rng()
    for _ in range(ctx.cases):
        x = _random_class(rng)
        p = _random_nonzero_laurent(rng)
        _require((x * p).exact_div(p) == x, "(x·p)/p")
    return "pass", f"{ctx.cases} randomized cases"


def _check_series_exact_agreement(ctx):
    rng = ctx.rng()
    for _ in range(ctx.cases):
        x = _random_class(rng)
        while True:
            p = _random_laurent(rng, lo=0, hi=4, allow_zero=False)
            if p:
                break
        p = p + LaurentInt.monomial(p.min_exp) * (1 - p.coeff(p.min_exp))  # force unit bottom
        y = x * p
        hi = max((c.max_exp for c in y.components().values() if c), default=0)
        q, flags = y.series_div(p, hi + 8)
        _require(all(flags.values()), "series division terminated")
        _require(q == x, "series quotient")
    return "pass", f"{ctx.cases} randomized cases"


def _check_main_lemma(ctx):
    genera = ctx.genera(range(1, 6))
    count = 0
    for g in genera:
        for ea in range(-2, 3):
            for eb in range(-2, 3):
                lhs = lambda_binomial(ea, eb, g)
                rhs = lambda_binomial(eb + 1, ea, g) * LaurentInt.monomial(-g)
                _require(lhs == rhs, (g, ea, eb))
                count += 1
    return "pass", f"genera {list(genera)}, {count} exponent pairs"


def _check_series_algebra(ctx):
    rng = ctx.rng()
    from .series import MotiveSeries
    for _ in range(min(ctx.cases, 200)):
        g = rng.randint(1, 3)
        order = rng.randint(0, 6)
        def tate_series():
            return MotiveSeries(g, [
                MotiveClass.tate(g, rng.randint(-2, 3), rng.randint(-4, 4))
                for _ in range(order + 1)])
        f1, f2, f3 = tate_series(), tate_series(), tate_series()
        _require(f1 * f2 == f2 * f1, "commutativity")
        _require((f1 * f2) * f3 == f1 * (f2 * f3), "associativity")
    return "pass", "commutative and associative on random Tate series"


def _check_geometric_coefficients(ctx):
    for u in range(-2, 3):
        f = geometric(u, 2, 10)
        for n in range(11):
            _require(f[n] == MotiveClass.tate(2, n * u), (u, n))
    conv = geometric(0, 2, 4) * geometric(1, 2, 4)
    _require(conv[2] == MotiveClass.tate(2, 0) + MotiveClass.tate(2, 1)
             + MotiveClass.tate(2, 2), "convolution T^2 coefficient")
    return "pass", "coefficients L^(n·u) and convolution spot value"


def _check_big_f_cross_mode(ctx):
    genera = ctx.genera(range(1, 5))
    count = 0
    for g in genera:
        for e1 in range(-2, 3):
            for e2 in range(-2, 3):
                for e3 in range(-2, 3):
                    if len({e1, e2, e3}) < 3:
                        continue
                    _require(big_f(e1, e2, e3, g, "series")
                             == big_f(e1, e2, e3, g, "closed"), (g, e1, e2, e3))
                    count += 1
    return "pass", f"genera {list(genera)}, {count} distinct triples"


def _check_macdonald_kernel_identity(ctx):
    genera = ctx.genera(range(1, 4))
    for g in genera:
        for n in range(7):
            f = binomial_series(g, n) * geometric(0, g, n) * geometric(1, g, n)
            _require(f[n] == macdonald.sym_power_curve(g, n), (g, n))
    return "pass", f"genera {list(genera)}, n = 0..6"


def _check_macdonald_triple(ctx):
    genera = ctx.genera(range(1, 4))
    for g in genera:
        ranks = macdonald.curve_ranks(g)
        for n in range(7):
            via_motive = realize.betti(macdonald.sym_power_curve(g, n))
            via_ranks = macdonald.sym_power_ranks(ranks, n)
            via_count = macdonald.sym_power_bruteforce(ranks, n)
            _require(via_ranks == via_count, (g, n))
            _require(via_motive == LaurentInt(via_ranks), (g, n))
    spot = realize.betti(macdonald.sym_power_curve(2, 2))
    _require(spot == LaurentInt({0: 1, 1: 4, 2: 7, 3: 4, 4: 1}),
             "g=2 n=2 Betti spot value")
    return "pass", f"genera {list(genera)}, n = 0..6, plus the g=2 n=2 spot value"


def _check_macdonald_stability(ctx):
    genera = ctx.genera(range(1, 5))
    for g in genera:
        # the left side comes from the kernel product, which shares no code
        # with the Riemann–Roch builder ``sym_power_curve`` uses from g on
        n = 2 * g - 1
        lhs = (binomial_series(g, n) * geometric(0, g, n)
               * geometric(1, g, n))[n]
        rhs = lambda_binomial(0, 0, g) * moduli.range_sum(0, g - 1)
        _require(lhs == rhs, g)
        _require(macdonald.sym_power_curve(g, n) == lhs, g)
    return "pass", f"projective-bundle identity at n = 2g-1, genera {list(genera)}"


def _check_flip_additivity(ctx):
    genera = ctx.genera((2, 3))
    count = 0
    for g in genera:
        for d in range(2, 10):
            chain = [moduli.pair_moduli(g, d, i)
                     for i in range(moduli.omega_index(d) + 1)]
            for i in range(1, len(chain)):
                step = chain[i] - chain[i - 1]
                plus, minus = moduli.pw_classes(g, d, i)
                _require(step == plus - minus, (g, d, i))
                _require(step == (macdonald.sym_power_curve(g, i)
                                  * moduli.range_sum(i, d + g - 2 - 2 * i)),
                         (g, d, i))
                count += 1
    return "pass", f"genera {list(genera)}, degrees 2..9, {count} walls"


def _check_n0_two_path(ctx):
    genera = ctx.genera((2, 3, 4))
    for g in genera:
        _require(moduli.n0_odd_chain(g) == moduli.n0_odd_closed(g), g)
    return "pass", f"genera {list(genera)}"


def _check_n0_duality(ctx):
    genera = ctx.genera((2, 3, 4, 5))
    for g in genera:
        c = moduli.n0_odd(g)
        _require(c == c.dual() * LaurentInt.monomial(3 * g - 3), g)
        _require(c.weights()[-1] == 6 * g - 6, (g, "max weight"))
    _require(moduli.n0_odd(2) == MotiveClass(2, {
        0: {0: 1, 1: 1, 2: 1, 3: 1}, 1: {1: 1}}), "n0_odd(2)")
    return "pass", f"genera {list(genera)}"


def _check_degree_independence(ctx):
    genera = ctx.genera((2, 3))
    for g in genera:
        _require(moduli.n0_odd_chain(g, 4 * g - 3)
                 == moduli.n0_odd_chain(g, 4 * g - 1), g)
    return "pass", f"degrees 4g-3 and 4g-1 agree, genera {list(genera)}"


def _check_kummer(ctx):
    genera = ctx.genera(range(1, 7))
    for g in genera:
        k = moduli.kummer(g)
        _require(k.rank() == 2 ** (2 * g - 1), g)
        half_sum = MotiveClass(g, {a: (1 + (-1) ** a) // 2
                                   for a in range(2 * g + 1)})
        _require(k == half_sum, g)
    _require(moduli.kummer(2)
             == MotiveClass(2, {0: LaurentInt({0: 1, 2: 1}), 2: 1}), "kummer(2)")
    _require(moduli.kummer(3)
             == MotiveClass(3, {0: LaurentInt({0: 1, 3: 1}),
                                2: LaurentInt({0: 1, 1: 1})}), "kummer(3)")
    return "pass", f"rank 2^(2g-1) and even-part identity, genera {list(genera)}"


def _check_even_intermediates(ctx):
    rep = ctx.even_report(2)
    mo = rep.stage("m_omega").value
    _require(mo == MotiveClass(2, {
        0: {0: 1, 1: 2, 2: 4, 3: 4, 4: 4, 5: 2, 6: 1},
        1: {1: 1, 2: 2, 3: 2, 4: 1}, 2: {2: 1}}), "m_omega at g=2")
    ss = rep.stage("ss_preimage").value
    _require(ss == MotiveClass(2, {
        0: {0: 1, 1: 2, 2: 3, 3: 3, 4: 2, 5: 1},
        1: {0: 1, 1: 3, 2: 4, 3: 3, 4: 1},
        2: {0: 1, 1: 2, 2: 2, 3: 1}}), "ss_preimage at g=2")
    mos = rep.stage("m_omega_s").value
    _require(mos == MotiveClass(2, {
        0: {0: 1, 1: 1, 2: 2, 3: 1, 4: 1},
        1: {2: -1, 3: -2, 4: -2, 5: -1},
        2: {1: -1, 2: -1, 3: -2, 4: -1}}), "m_omega_s at g=2")
    _require(mos.weight_part(0) == MotiveClass.one(2),
             "weight-0 part of m_omega_s at g=2")
    return "pass", "g=2 table frozen from independent hand expansion"


def _check_step3_nonterminating(ctx):
    rep = ctx.even_report(2)
    flags = rep.stage("stable_division_exact").value
    _require(flags == {0: False, 1: False, 2: False}, "exactness flags at g=2")
    mos = rep.stage("m_omega_s").value
    _require(mos.component(2) == LaurentInt({1: -1, 2: -1, 3: -2, 4: -1}),
             "λ2 component of m_omega_s at g=2")
    # the report divides at order 8g = 16; every component runs on to 40
    _, exact = mos.series_div(moduli.range_sum(0, 3), 40)
    _require(exact == {0: False, 1: False, 2: False},
             "division by [P^3] terminated by order 40")
    return "pass", "division at g=2 does not terminate by order 40 in any component"


def _check_even_report_deterministic(ctx):
    genera = ctx.genera((3, 4))
    for g in genera:
        # the shared report against a fresh build: two independent runs
        a = json.dumps(ctx.even_report(g).to_json_dict())
        b = json.dumps(moduli.n0_even(g).to_json_dict())
        _require(a == b, g)
    return "pass", f"byte-identical reports on re-run, genera {list(genera)}"


def _check_even_truncation_findings(ctx):
    genera = ctx.genera((3, 4))
    notes = []
    for g in genera:
        rep = ctx.even_report(g)
        cut, diffs = rep.stage("truncation_vs_odd").value
        _require(cut == 2 * g - 2, (g, "truncation weight"))
        if diffs:
            notes.append(
                f"g={g}: below weight {cut} the even class differs at weights "
                f"{sorted(diffs)}")
        else:
            notes.append(f"g={g}: even and odd classes agree below weight {cut}")
    return "diagnostic", "; ".join(notes)


def _check_closed_form_comparators(ctx):
    genera = ctx.genera((2, 3, 4))
    notes = []
    for g in genera:
        rep = ctx.even_report(g)
        for name in ("m_omega_closed_form", "n0_stable_closed_form"):
            match = rep.stage(name).value
            bad = sorted(m for m, ok in match.items() if not ok)
            if bad:
                notes.append(f"g={g} {name}: mismatch at weights {bad}")
            else:
                notes.append(f"g={g} {name}: matches at every weight")
    return "diagnostic", "; ".join(notes)


def _check_hn_reproduction(ctx):
    genera = ctx.genera(range(2, 7))
    for g in genera:
        _require(realize.betti(moduli.n0_odd(g))
                 == realize.hn_closed(g), g)
    _require(realize.hn_closed(2)
             == LaurentInt({0: 1, 2: 1, 3: 4, 4: 1, 6: 1}), "hn_closed(2)")
    return "pass", f"genera {list(genera)}, plus the g=2 polynomial"


def _check_hodge_reproduction(ctx):
    genera = ctx.genera((2, 3, 4))
    for g in genera:
        _require(realize.hodge(moduli.n0_odd(g))
                 == realize.hodge_closed(g), g)
    _require(realize.hodge_closed(2).coeff(2, 1) == 2, "h^(2,1) at g=2")
    return "pass", f"genera {list(genera)}, plus h^(2,1) = 2 at g=2"


def _check_hodge_specialization(ctx):
    rng = ctx.rng()
    n = max(200, min(ctx.cases, 1000))
    for _ in range(n):
        x = _random_class(rng)
        h = realize.hodge(x)
        _require(h.specialize_diagonal() == realize.betti(x),
                 "x = y = t specialization")
        _require(h.swap() == h, "x <-> y symmetry")
    return "pass", f"{n} random classes (x=y=t recovers Betti; x<->y symmetry)"


def _check_level_bound(ctx):
    genera = ctx.genera((2, 3, 4, 5))
    for g in genera:
        c = moduli.n0_odd(g)
        h = realize.hodge(c)
        _require(all(v > 0 for _, v in h.items()), (g, "not effective"))
        for m, lv in realize.level_per_weight(c).items():
            _require(lv <= m // 3, (g, m, lv))
    return "pass", f"level <= weight/3 at genera {list(genera)}"


def _check_jacobian_decompositions(ctx):
    genera = ctx.genera((2, 3, 4, 5))
    for g in genera:
        bet = realize.betti(moduli.n0_odd(g))
        for i in range(1, g + 1):
            d = jacobians.decompose(g, i)
            _require(list(d.factors) == jacobians.closed_multiplicities(i),
                     (g, i))
            _require(i > 1 or d.factors == (), (g, "J^1 is trivial"))
            total = sum(m * comb(2 * g, 2 * a - 1) for a, m in d.factors)
            _require(total == bet.coeff(2 * i - 1), (g, i))
    _require(jacobians.decompose(5, 5).factors == ((1, 2), (2, 1)),
             "decompose(5, 5)")
    return "pass", f"factors match the closed multiplicities, genera {list(genera)}"


def _check_serialization_round_trip(ctx):
    rng = ctx.rng()
    for _ in range(ctx.cases):
        x = _random_class(rng)
        blob = json.dumps(x.to_json_dict())
        _require(MotiveClass.from_json_dict(json.loads(blob)) == x,
                 "JSON round trip")
    return "pass", f"{ctx.cases} randomized cases"


_CHECKS = (
    ("laurent_ring_laws", "lambda", _check_laurent_ring_laws),
    ("canonicalize_idempotent_rank_preserving", "lambda", _check_canonicalize),
    ("module_axioms", "lambda", _check_module_axioms),
    ("weight_homogeneity", "lambda", _check_weight_homogeneity),
    ("dual_involution", "lambda", _check_dual_involution),
    ("twist_inverse", "lambda", _check_twist_inverse),
    ("exact_division_round_trip", "lambda", _check_exact_division_round_trip),
    ("series_division_exact_agreement", "lambda", _check_series_exact_agreement),
    ("main_lemma_binomial_symmetry", "lambda", _check_main_lemma),
    ("series_product_algebra", "series", _check_series_algebra),
    ("geometric_coefficients", "series", _check_geometric_coefficients),
    ("big_f_cross_mode", "series", _check_big_f_cross_mode),
    ("macdonald_kernel_identity", "series", _check_macdonald_kernel_identity),
    ("macdonald_triple_agreement", "macdonald", _check_macdonald_triple),
    ("macdonald_curve_stability", "macdonald", _check_macdonald_stability),
    ("flip_additivity", "moduli", _check_flip_additivity),
    ("n0_odd_two_path", "moduli", _check_n0_two_path),
    ("n0_odd_poincare_duality", "moduli", _check_n0_duality),
    ("n0_odd_degree_independence", "moduli", _check_degree_independence),
    ("kummer_classes", "moduli", _check_kummer),
    ("even_pipeline_intermediates", "moduli", _check_even_intermediates),
    ("step3_division_nonterminating", "moduli", _check_step3_nonterminating),
    ("even_report_deterministic", "moduli", _check_even_report_deterministic),
    ("even_truncation_findings", "moduli", _check_even_truncation_findings),
    ("closed_form_comparators", "moduli", _check_closed_form_comparators),
    ("harder_narasimhan_reproduction", "realizations", _check_hn_reproduction),
    ("hodge_reproduction", "realizations", _check_hodge_reproduction),
    ("hodge_specialization", "realizations", _check_hodge_specialization),
    ("hodge_level_bound", "realizations", _check_level_bound),
    ("jacobian_decompositions", "jacobians", _check_jacobian_decompositions),
    ("serialization_round_trip", "serialization", _check_serialization_round_trip),
)

SUITES = tuple(sorted({suite for _, suite, _ in _CHECKS})) + ("all",)


def run(suite: str = "all", genus_range: tuple[int, int] | None = None,
        cases: int = 1000) -> VerifyReport:
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITES}")
    _check_int(cases, "cases", 1)
    if genus_range is not None:
        lo, hi = genus_range
        _check_int(lo, "genus range start")
        _check_int(hi, "genus range end", lo)
    ctx = _Ctx(genus_range, cases)
    results = []
    for name, check_suite, fn in _CHECKS:
        if suite != "all" and check_suite != suite:
            continue
        try:
            status, details = fn(ctx)
        except _NoGenera as exc:
            status, details = "diagnostic", str(exc)
        except _CheckFailed as exc:
            status, details = "fail", f"requirement failed: {exc}"
        except Exception as exc:  # a check that crashes fails; the run goes on
            status, details = "fail", f"{type(exc).__name__}: {exc}"
        results.append(CheckResult(name, check_suite, status, details))
    return VerifyReport(tuple(results))
