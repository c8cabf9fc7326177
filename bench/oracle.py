"""Output checks written against the benchmark's own arithmetic.

Nothing here imports motiveforge.  Polynomials are plain ``{exponent: int}``
dicts, and every expected value is derived from a published closed form or
from the benchmark's input, never from the program's code paths:

* Betti of a class: λ_a·L^e goes to C(2g, a)·t^(a+2e).
* Symmetric products of a curve: Macdonald's Poincaré polynomial.
* Pair spaces: the flip-chain sum of those polynomials.
* Odd-determinant bundle moduli: the Harder–Narasimhan closed form.
* Intermediate jacobians: the closed multiplicity ⌊(i+3-3α)/2⌋.
* Hodge polynomials: symmetric under x↔y and equal to Betti at x = y.

Each ``check_*`` takes the request's JSON text and returns ``None`` when the
invariant holds, or a one-line description of the first mismatch.
"""

from __future__ import annotations

import json
from math import comb

NONZERO = tuple(c for c in range(-9, 10) if c)


def _add(out: dict, k: int, c: int) -> None:
    s = out.get(k, 0) + c
    if s:
        out[k] = s
    else:
        out.pop(k, None)


def _mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            _add(out, e1 + e2, c1 * c2)
    return out


def _binomial_poly(n: int, step: int) -> dict:
    """(1 + t^step)^n."""
    return {k * step: comb(n, k) for k in range(n + 1)}


def _divide_one_minus(p: dict, k: int) -> dict | None:
    """p / (1 - t^k) when exact, else None."""
    if not p:
        return {}
    top = max(p)
    q: dict = {}
    for n in range(min(p), top - k + 1):
        c = p.get(n, 0) + q.get(n - k, 0)
        if c:
            q[n] = c
    return q if _mul(q, {0: 1, k: -1}) == p else None


def betti_of_class(blob: dict) -> dict:
    """Betti polynomial of a motive-class/v1 record."""
    g = blob["genus"]
    out: dict = {}
    for a, coeffs in blob["lambda"].items():
        a = int(a)
        rank = comb(2 * g, a)
        for e, c in coeffs.items():
            _add(out, a + 2 * int(e), rank * c)
    return out


def sym_poincare(g: int, n: int) -> dict:
    """Poincaré polynomial of the n-th symmetric product of a genus-g curve:
    the T^n coefficient of (1 + tT)^(2g) / ((1 - T)(1 - t²T))."""
    out: dict = {}
    for a in range(min(n, 2 * g) + 1):
        for k in range(n - a + 1):
            _add(out, a + 2 * k, comb(2 * g, a))
    return out


def _tate_range(lo: int, hi: int) -> dict:
    """Betti of L^lo + ... + L^hi, telescoped as (L^lo - L^(hi+1))/(1 - L)."""
    if hi >= lo - 1:
        return {2 * e: 1 for e in range(lo, hi + 1)}
    return {2 * e: -1 for e in range(hi + 1, lo)}


def pair_poincare(g: int, d: int, i: int) -> dict:
    """Poincaré polynomial of the i-th pair space of the degree-d chain."""
    out: dict = {}
    for j in range(i + 1):
        for k, c in _mul(sym_poincare(g, j),
                         _tate_range(j, d + g - 2 - 2 * j)).items():
            _add(out, k, c)
    return out


def hn_poincare(g: int) -> dict:
    """Harder–Narasimhan: ((1+t³)^2g - t^2g (1+t)^2g) / ((1-t²)(1-t⁴))."""
    num = _binomial_poly(2 * g, 3)
    for k, c in _binomial_poly(2 * g, 1).items():
        _add(num, k + 2 * g, -c)
    q = _divide_one_minus(num, 2)
    q = _divide_one_minus(q, 4) if q is not None else None
    if q is None:
        raise ArithmeticError(f"Harder–Narasimhan division not exact at g={g}")
    return q


def closed_multiplicities(i: int) -> list:
    return [[a, (i + 3 - 3 * a) // 2] for a in range(1, (i + 1) // 3 + 1)
            if (i + 3 - 3 * a) // 2 > 0]


def random_dense_class(rng, genus: int, width: int) -> dict:
    """A motive-class/v1 record with every λ-index 0..g present and `width`
    consecutive nonzero Lefschetz coefficients each."""
    lam = {}
    for a in range(genus + 1):
        lo = rng.randint(-2, 2)
        lam[str(a)] = {str(e): rng.choice(NONZERO) for e in range(lo, lo + width)}
    return {"schema": "motive-class/v1", "genus": genus, "lambda": lam}


def _coeffs(record: dict) -> dict:
    return {int(e): c for e, c in record.items()}


def _mismatch(what: str, got, want) -> str | None:
    return None if got == want else f"{what}: got {got!r}, expected {want!r}"


# -- per-request checks -------------------------------------------------------


def _check_betti(text: str, expected: dict) -> str | None:
    return _mismatch("Betti", betti_of_class(json.loads(text)), expected)


def check_n0_odd(g: int, text: str) -> str | None:
    return _check_betti(text, hn_poincare(g))


def check_pair_moduli(g: int, d: int, i: int, text: str) -> str | None:
    return _check_betti(text, pair_poincare(g, d, i))


def check_sym_power(g: int, n: int, text: str) -> str | None:
    return _check_betti(text, sym_poincare(g, n))


def check_decompose(i: int, text: str) -> str | None:
    return _mismatch(f"J^{i} factors", json.loads(text)["factors"],
                     closed_multiplicities(i))


def check_realization(source: str, odd_genus: int | None, text: str) -> str | None:
    """Realizations of the class record `source`, as the realize request
    returns them."""
    out = json.loads(text)
    betti = _coeffs(out["betti"])
    hodge = {(i, j): c for i, j, c in out["hodge"]}
    diagonal: dict = {}
    for (i, j), c in hodge.items():
        _add(diagonal, i + j, c)
    rows = [[i + j, i, j, c] for (i, j), c in sorted(
        hodge.items(), key=lambda t: (t[0][0] + t[0][1], t[0]))]
    levels: dict = {}
    for m, i, j, _ in rows:
        levels[str(m)] = max(levels.get(str(m), 0), abs(i - j))
    problems = [
        _mismatch("Betti", betti, betti_of_class(json.loads(source))),
        _mismatch("Hodge at x=y", diagonal, betti),
        _mismatch("Hodge x<->y symmetry", {(j, i): c for (i, j), c in hodge.items()},
                  hodge),
        _mismatch("diamond rows", out["rows"], rows),
        _mismatch("level per weight", out["level_per_weight"], levels),
    ]
    if odd_genus is not None:
        problems += [
            _mismatch("Harder–Narasimhan", betti, hn_poincare(odd_genus)),
            _mismatch("hn_closed", _coeffs(out["hn_closed"]), betti),
            _mismatch("hodge_closed", out["hodge_closed"], out["hodge"]),
        ]
    return next((p for p in problems if p), None)


def check_verify(suite: str, expected: list, text: str) -> str | None:
    """The report lists the suite's checks with the statuses of the reference."""
    report = json.loads(text)
    got = [[c["name"], c["status"]] for c in report["checks"]]
    if any(c["suite"] != suite for c in report["checks"]):
        return f"report for suite {suite} holds checks of another suite"
    counts = {"pass": 0, "fail": 0, "diagnostic": 0}
    for _, status in expected:
        counts[status] += 1
    return (_mismatch(f"verify {suite} statuses", got, expected)
            or _mismatch(f"verify {suite} summary", report["summary"], counts))


def output_size(text: str) -> tuple[int, int]:
    """(integer leaves, largest bit length) of a JSON output."""
    terms, bits = 0, 0
    stack = [json.loads(text)]
    while stack:
        node = stack.pop()
        if isinstance(node, dict):
            stack.extend(node.values())
        elif isinstance(node, list):
            stack.extend(node)
        elif isinstance(node, int) and not isinstance(node, bool):
            terms += 1
            bits = max(bits, node.bit_length())
    return terms, bits
