"""Command-line front end.

Subcommands: sym-power, moduli (pairs | n0), realize, jacobians, big-f,
verify.  Output goes to stdout or --out, in json (default), text or csv.
Identical invocations produce byte-identical output.  Exit status: 0 on
success, 1 on computation integrity errors, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .laurent import DivisorUnitError, ExactDivisionError, LaurentInt
from .motive import GenusMismatchError, MotiveClass, UnsupportedProductError
from .series import DegenerateDenominatorError, big_f
from .macdonald import (EnumerationGuardError, sym_power_bruteforce,
                        sym_power_curve, sym_power_ranks)
from . import moduli, realize, verify
from .jacobians import DecompositionError, decompose

ENV_ORDER = "MOTIVE_FORGE_ORDER"


class UsageError(Exception):
    """A command line that parses but cannot run: exit status 2."""


_COMPUTE_ERRORS = (
    ExactDivisionError, DivisorUnitError, DegenerateDenominatorError,
    EnumerationGuardError, GenusMismatchError, UnsupportedProductError,
    moduli.PipelineIntegrityError, DecompositionError, ValueError,
)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def _genus_range(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition("..")
    try:
        return int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a range like 2..5, got {text!r}") from None


def _dump_json(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _csv_lines(header: str, rows) -> str:
    return "\n".join([header] + [",".join(str(v) for v in row) for row in rows]) + "\n"


def _class_output(cls: MotiveClass, fmt: str) -> str:
    if fmt == "json":
        return _dump_json(cls.to_json_dict())
    if fmt == "text":
        return cls.render() + "\n"
    rows = [(a, e, c) for a in cls.lambda_indices()
            for e, c in cls.component(a).items()]
    return _csv_lines("lambda,exp,coeff", rows)


def _ranks_output(ranks: dict[int, int], fmt: str) -> str:
    if fmt == "json":
        return _dump_json({"schema": "graded-ranks/v1",
                           "ranks": {str(d): ranks[d] for d in sorted(ranks)}})
    if fmt == "text":
        return "\n".join(f"{d}\t{ranks[d]}" for d in sorted(ranks)) + "\n"
    return _csv_lines("degree,rank", [(d, ranks[d]) for d in sorted(ranks)])


def _report_text(rep: moduli.PipelineReport) -> str:
    lines = [f"even pipeline: genus {rep.genus}, degree {rep.degree}, "
             f"order {rep.order}"]
    for st in rep.stages:
        data = st.to_json_dict()
        if st.kind == "class":
            lines.append(f"{st.name}: {st.value.render()}")
        elif st.kind == "flags":
            flat = ", ".join(f"λ{a}={'exact' if v else 'nonterminating'}"
                             for a, v in sorted(st.value.items()))
            lines.append(f"{st.name}: {flat}")
        elif st.kind == "diff":
            cut, diffs = st.value
            if diffs:
                body = "; ".join(f"weight {m}: {diffs[m].render()}"
                                 for m in sorted(diffs))
            else:
                body = "agree"
            lines.append(f"{st.name} (cut {cut}): {body}")
        else:
            bad = [m for m, ok in sorted(st.value.items()) if not ok]
            lines.append(f"{st.name}: {data['status']}"
                         + (f" (weights {bad})" if bad else ""))
    return "\n".join(lines) + "\n"


def _report_csv(rep: moduli.PipelineReport) -> str:
    rows = []
    for st in rep.stages:
        data = st.to_json_dict()
        for key, value in data.items():
            if key in ("name", "kind"):
                continue
            rows.append((st.name, key, json.dumps(value, sort_keys=True)))
    return _csv_lines("stage,field,value", rows)


def _read_class(path: str | None) -> MotiveClass:
    if path in (None, "-"):
        blob = sys.stdin.read()
    else:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                blob = fh.read()
        except OSError as exc:
            raise UsageError(f"cannot read {path}: {exc.strerror}") from None
    return MotiveClass.from_json_dict(json.loads(blob))


def _write_output(body: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(body)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(body)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror}") from None


def _order_override(explicit: int | None) -> int | None:
    """--order, else $MOTIVE_FORGE_ORDER, else None: the pipeline's default."""
    if explicit is not None:
        return explicit
    env = os.environ.get(ENV_ORDER)
    if env is None:
        return None
    try:
        return int(env)
    except ValueError:
        raise ValueError(f"{ENV_ORDER} must be an integer, got {env!r}") from None


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "text", "csv"),
                        default="json", help="output format (default json)")
    common.add_argument("--out", metavar="PATH",
                        help="write output to a file instead of stdout")

    parser = argparse.ArgumentParser(
        prog="motiveforge",
        description="Exact Grothendieck-ring classes for moduli of rank-2 "
                    "bundles on curves")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sym-power", parents=[common],
                       help="symmetric power of a curve (motive level) or of "
                            "a graded rank vector")
    p.add_argument("--genus", type=_positive_int)
    p.add_argument("-n", "--power", type=int, required=True)
    p.add_argument("--ranks", metavar="JSON",
                   help="graded rank vector {degree: rank}; switches to rank level")
    p.add_argument("--bruteforce", action="store_true",
                   help="with --ranks: use the direct enumeration oracle")

    p = sub.add_parser("moduli", parents=[common],
                       help="pair-moduli and bundle-moduli classes")
    p.add_argument("kind", choices=("pairs", "n0"))
    p.add_argument("--genus", type=_positive_int, required=True)
    p.add_argument("--degree", type=int)
    p.add_argument("--index", type=int)
    p.add_argument("--parity", choices=("odd", "even"))
    p.add_argument("--order", type=int)

    p = sub.add_parser("realize", parents=[common],
                       help="Betti or Hodge realization of a class read from "
                            "stdin or --in")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--betti", action="store_true")
    mode.add_argument("--hodge", action="store_true")
    p.add_argument("--level", action="store_true",
                   help="also emit the per-weight Hodge level")
    p.add_argument("--in", dest="infile", metavar="PATH",
                   help="read the class from a file instead of stdin")

    p = sub.add_parser("jacobians", parents=[common],
                       help="isogeny decomposition of an intermediate jacobian")
    p.add_argument("--genus", type=_positive_int, required=True)
    p.add_argument("--index", type=int, required=True)

    p = sub.add_parser("big-f", parents=[common],
                       help="coefficient extraction against three geometric "
                            "kernels (debugging aid)")
    p.add_argument("--genus", type=_positive_int, required=True)
    p.add_argument("--exponents", type=int, nargs=3, required=True,
                   metavar=("E1", "E2", "E3"))
    p.add_argument("--mode", choices=("series", "closed", "both"),
                   default="both")

    p = sub.add_parser("verify", parents=[common],
                       help="run invariant and acceptance checks")
    p.add_argument("--suite", default="all", choices=verify.SUITES)
    p.add_argument("--genus-range", type=_genus_range, metavar="A..B")
    p.add_argument("--cases", type=_positive_int, default=1000,
                   help="randomized cases per property check (default 1000)")
    return parser


def _run_sym_power(args) -> str:
    if args.ranks is not None:
        # a rank vector is read as its Poincaré polynomial: int ranks only
        poly = LaurentInt.from_coeff_json(json.loads(args.ranks))
        fn = sym_power_bruteforce if args.bruteforce else sym_power_ranks
        return _ranks_output(fn(dict(poly.items()), args.power), args.format)
    if args.genus is None:
        raise UsageError("sym-power needs --genus unless --ranks is given")
    return _class_output(sym_power_curve(args.genus, args.power), args.format)


def _run_moduli(args) -> str:
    if args.kind == "pairs":
        if args.degree is None or args.index is None:
            raise UsageError("moduli pairs needs --degree and --index")
        cls = moduli.pair_moduli(args.genus, args.degree, args.index)
        return _class_output(cls, args.format)
    if args.parity is None:
        raise UsageError("moduli n0 needs --parity odd|even")
    if args.parity == "odd":
        if args.degree is not None:
            cls = moduli.n0_odd_chain(args.genus, args.degree)
        else:
            cls = moduli.n0_odd(args.genus)
        return _class_output(cls, args.format)
    if args.degree is not None:
        raise ValueError("the even pipeline fixes degree 4g-2; "
                         "--degree only applies to --parity odd")
    rep = moduli.n0_even(args.genus, _order_override(args.order))
    if args.format == "json":
        return _dump_json(rep.to_json_dict())
    if args.format == "text":
        return _report_text(rep)
    return _report_csv(rep)


def _run_realize(args) -> str:
    cls = _read_class(args.infile)
    levels = realize.level_per_weight(cls) if args.level else None
    if args.betti:
        poly = realize.betti(cls)
        if args.format == "json":
            payload = {"schema": "realization/v1", "kind": "betti",
                       "coeffs": poly.to_coeff_json()}
            if levels is not None:
                payload["level_per_weight"] = {
                    str(m): levels[m] for m in sorted(levels)}
            return _dump_json(payload)
        if args.format == "text":
            body = poly.render("t") + "\n"
            if levels is not None:
                body += "levels: " + ", ".join(
                    f"w{m}={levels[m]}" for m in sorted(levels)) + "\n"
            return body
        return _csv_lines("degree,rank", poly.items())
    poly = realize.hodge(cls)
    if args.format == "json":
        payload = {"schema": "realization/v1", "kind": "hodge",
                   "terms": poly.to_terms_json()}
        if levels is not None:
            payload["level_per_weight"] = {
                str(m): levels[m] for m in sorted(levels)}
        return _dump_json(payload)
    if args.format == "text":
        body = poly.render() + "\n"
        if levels is not None:
            body += "levels: " + ", ".join(
                f"w{m}={levels[m]}" for m in sorted(levels)) + "\n"
        return body
    rows = realize.hodge_diamond_rows(cls)
    return _csv_lines("weight,p,q,h", rows)


def _run_jacobians(args) -> str:
    dec = decompose(args.genus, args.index)
    if args.format == "json":
        return _dump_json(dec.to_json_dict())
    if args.format == "text":
        if not dec.factors:
            return f"J^{dec.index}: trivial (no odd-weight part)\n"
        body = " x ".join(f"J^{a}Jac(C)^{m}" for a, m in dec.factors)
        return f"J^{dec.index} ~ {body}\n"
    return _csv_lines("alpha,mult", dec.factors)


def _run_big_f(args) -> str:
    e1, e2, e3 = args.exponents
    if args.mode in ("series", "closed"):
        return _class_output(big_f(e1, e2, e3, args.genus, args.mode),
                             args.format)
    via_series = big_f(e1, e2, e3, args.genus, "series")
    via_closed = big_f(e1, e2, e3, args.genus, "closed")
    agree = via_series == via_closed
    if args.format == "json":
        return _dump_json({"schema": "big-f/v1",
                           "series": via_series.to_json_dict(),
                           "closed": via_closed.to_json_dict(),
                           "agree": agree})
    if args.format == "text":
        return (f"series: {via_series.render()}\n"
                f"closed: {via_closed.render()}\n"
                f"agree: {agree}\n")
    rows = [("series", via_series.render()), ("closed", via_closed.render()),
            ("agree", agree)]
    return _csv_lines("mode,value", rows)


def _run_verify(args) -> tuple[str, int]:
    rep = verify.run(args.suite, args.genus_range, args.cases)
    if args.format == "json":
        body = _dump_json(rep.to_json_dict())
    elif args.format == "text":
        body = rep.render_text() + "\n"
    else:
        body = _csv_lines("name,suite,status",
                          [(r.name, r.suite, r.status) for r in rep.results])
    return body, (1 if rep.failed else 0)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    status = 0
    try:
        if args.command == "sym-power":
            body = _run_sym_power(args)
        elif args.command == "moduli":
            body = _run_moduli(args)
        elif args.command == "realize":
            body = _run_realize(args)
        elif args.command == "jacobians":
            body = _run_jacobians(args)
        elif args.command == "big-f":
            body = _run_big_f(args)
        else:
            body, status = _run_verify(args)
        _write_output(body, args.out)
    except _COMPUTE_ERRORS as exc:
        print(f"motiveforge: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as exc:
        print(f"motiveforge: malformed JSON input: {exc}", file=sys.stderr)
        return 1
    except UsageError as exc:
        print(f"motiveforge: usage error: {exc}", file=sys.stderr)
        return 2
    return status


if __name__ == "__main__":
    sys.exit(main())
