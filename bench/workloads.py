"""Request lists of the benchmark workloads.

Each workload is a closed loop with one client: the runner sends a request
only after the previous one returned, as a user running the command line one
command after another would.  A request calls the program through its public
API, at call time (so the tracer's wrappers are seen), and returns the JSON
text of the result serialised as the command line prints it.  Inputs are
drawn from the benchmark seed; the program only ever sees the inputs.

Why these three workloads:

* ``moduli_sweep`` puts the series, MacDonald and moduli layers under large
  operands, and its requests share work (``decompose`` recomputes
  ``n0_odd(g)`` for every i, ``pair_moduli`` recomputes every symmetric
  power below it).  Closed-form symmetric powers, a one-pass chain or
  caching show here.
* ``realize_batch`` spends its time in ``realize.BiLaurent`` and motive
  weight splitting; the series and moduli layers do no timed work.  A change
  to symmetric powers or the chain should leave it unchanged.
* ``verify_all`` builds millions of tiny Laurent and motive objects, the
  opposite use of the same layers: construction and validation cost more
  than term products.  A change that speeds large products but slows small
  objects shows here.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import oracle

WORKLOADS = ("moduli_sweep", "realize_batch", "verify_all")

#: the seed whose request outputs all have reference digests
DEFAULT_SEED = 0

#: representative command line per workload, run cold by the runner
CLI_COMMANDS = {
    "moduli_sweep": ["moduli", "n0", "--genus", "4", "--parity", "even"],
    "realize_batch": ["realize", "--hodge", "--level", "--in",
                      "bench/n0_odd_g8.json"],
    "verify_all": ["verify", "--suite", "moduli"],
}

#: the verify suites that together make up `verify --suite all`
SUITES = ("jacobians", "lambda", "macdonald", "moduli", "realizations",
          "serialization", "series")

#: width of the Lefschetz window of each λ-component of a random dense class
DENSE_WIDTH = 4


@dataclass(frozen=True)
class Request:
    rid: str  # identifies the request's content; key of the reference digests
    run: Callable[[], str]
    check: Callable[[str], "str | None"] | None = None


def dump(payload) -> str:
    """Serialise as the command line does."""
    return json.dumps(payload, indent=2) + "\n"


def load_reference() -> dict:
    """Digests and verify statuses recorded by make_reference.py."""
    with open(Path(__file__).with_name("reference.json"), encoding="utf-8") as fh:
        return json.load(fh)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def build(mf, workload: str, seed: int, tiny: bool, reference: dict) -> list[Request]:
    """The workload's request list for one pass; `mf` is the imported package."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "moduli_sweep":
        return _moduli_sweep(mf, rng, tiny)
    if workload == "realize_batch":
        return _realize_batch(mf, rng, tiny)
    if workload == "verify_all":
        return _verify_all(mf, rng, tiny, reference["verify_statuses"])
    raise ValueError(f"unknown workload {workload!r}")


def _moduli_sweep(mf, rng, tiny):
    moduli, jacobians, macdonald = mf.moduli, mf.jacobians, mf.macdonald
    genera = [2, 3] if tiny else list(range(2, 10))
    rng.shuffle(genera)
    reqs = []
    for g in genera:
        reqs.append(Request(f"n0_even:g={g}",
                            lambda g=g: dump(moduli.n0_even(g).to_json_dict())))
        reqs.append(Request(f"n0_odd:g={g}",
                            lambda g=g: dump(moduli.n0_odd(g).to_json_dict()),
                            partial(oracle.check_n0_odd, g)))
        for i in range(1, g + 1):
            reqs.append(Request(
                f"decompose:g={g}:i={i}",
                lambda g=g, i=i: dump(jacobians.decompose(g, i).to_json_dict()),
                partial(oracle.check_decompose, i)))
        # one seeded draw of each: more would let the seed move the median
        # request across the gaps between the per-genus clusters of
        # decompose requests, and req_p50_ms with it
        d = rng.randint(2 * g, 4 * g - 2)
        i = rng.randint(0, (d - 1) // 2)
        reqs.append(Request(
            f"pair_moduli:g={g}:d={d}:i={i}",
            lambda g=g, d=d, i=i: dump(moduli.pair_moduli(g, d, i).to_json_dict()),
            partial(oracle.check_pair_moduli, g, d, i)))
        n = rng.randint(0, 2 * g)
        reqs.append(Request(
            f"sym_power_curve:g={g}:n={n}",
            lambda g=g, n=n: dump(macdonald.sym_power_curve(g, n).to_json_dict()),
            partial(oracle.check_sym_power, g, n)))
    return reqs


def _realize_request(mf, rid: str, blob: str, odd_genus: int | None) -> Request:
    """Parse a motive-class/v1 blob and realize it as `realize --hodge --level`
    does, plus Betti and the diamond rows; odd classes also run the closed
    Harder–Narasimhan and Hodge forms."""
    realize, motive = mf.realize, mf.motive

    def run() -> str:
        cls = motive.MotiveClass.from_json_dict(json.loads(blob))
        levels = realize.level_per_weight(cls)
        out = {
            "betti": realize.betti(cls).to_coeff_json(),
            "hodge": realize.hodge(cls).to_terms_json(),
            "level_per_weight": {str(m): levels[m] for m in sorted(levels)},
            "rows": [list(r) for r in realize.hodge_diamond_rows(cls)],
        }
        if odd_genus is not None:
            out["hodge_closed"] = realize.hodge_closed(odd_genus).to_terms_json()
            out["hn_closed"] = realize.hn_closed(odd_genus).to_coeff_json()
        return dump(out)

    return Request(rid, run, partial(oracle.check_realization, blob, odd_genus))


def _realize_batch(mf, rng, tiny):
    odd = (8,) if tiny else (8, 12, 16, 20, 24)
    dense = [4, 5] if tiny else list(range(4, 25)) * 3
    rng.shuffle(dense)
    reqs = []
    for g in odd:
        blob = dump(mf.moduli.n0_odd_closed(g).to_json_dict())
        reqs.append(_realize_request(mf, f"realize:n0_odd:g={g}", blob, g))
    for g in dense:
        blob = dump(oracle.random_dense_class(rng, g, DENSE_WIDTH))
        reqs.append(_realize_request(
            mf, f"realize:dense:g={g}:{digest(blob)[:16]}", blob, None))
    return reqs


def _verify_all(mf, rng, tiny, statuses):
    verify = mf.verify
    cases = 10 if tiny else 1000
    suites = list(SUITES)
    rng.shuffle(suites)
    return [Request(f"verify:{s}:cases={cases}",
                    lambda s=s: dump(verify.run(s, None, cases).to_json_dict()),
                    partial(oracle.check_verify, s, statuses[s]))
            for s in suites]
