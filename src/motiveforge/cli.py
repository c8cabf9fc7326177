"""Command-line front end.

Forms: sym-power, moduli pairs, moduli n0, realize, jacobians, big-f and
verify.  The parser states which options each form takes and which it
requires; each form computes one result and hands it to ``_emit``, which
writes it to stdout or --out in json (default), text or csv.  Identical
invocations produce byte-identical output.  Exit status: 0 on success, 1 on
computation integrity errors and bad input values, 2 on usage errors:
argparse's own for the grammar, one ``usage error`` line for an unreadable
--in or unwritable --out and for ``realize --format csv --level``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, Iterable, NamedTuple

from .laurent import ExactDivisionError, LaurentInt, _int_key
from .motive import MotiveClass, UnsupportedProductError
from .series import DegenerateDenominatorError, big_f
from .macdonald import sym_power_curve, sym_power_ranks
from . import moduli, realize, verify
from .jacobians import decompose


#: most decimal digits of an integer literal in the JSON the command line
#: reads (a class record or a rank vector), whatever the interpreter's own
#: int-string limit is
INPUT_DIGIT_GUARD = 4300


class UsageError(Exception):
    """A command line that parses but cannot run: exit status 2."""


# every typed refusal of bad input (json.JSONDecodeError and the library's
# guard errors among them) is a ValueError
_COMPUTE_ERRORS = (
    ExactDivisionError, DegenerateDenominatorError, UnsupportedProductError,
    moduli.PipelineIntegrityError, ValueError,
)


class _Result(NamedTuple):
    """One subcommand result in each output format.  A form is built only
    when its format is asked for; ``text`` has no trailing newline and
    ``csv`` gives (header, rows)."""
    json: Callable[[], dict]
    text: Callable[[], str]
    csv: Callable[[], tuple[str, Iterable[tuple]]]
    status: int = 0


def _int(text: str) -> int:
    """An integer option, spelled as JSON keys are: ASCII ``[+-]?[0-9]+``."""
    try:
        return _int_key(text, "integer")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _positive_int(text: str) -> int:
    value = _int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def _genus_range(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition("..")
    try:
        lo, hi = _int_key(lo, "range start"), _int_key(hi, "range end")
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a range like 2..5, got {text!r}") from None
    if lo > hi:
        raise argparse.ArgumentTypeError(f"empty range {text!r}: {lo} > {hi}")
    return lo, hi


def _check_digits(what: str, size: int, unit: str) -> None:
    if size > INPUT_DIGIT_GUARD:
        raise ValueError(f"{what} of {size} {unit} exceeds the guard "
                         f"INPUT_DIGIT_GUARD ({INPUT_DIGIT_GUARD})")


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    out: dict = {}
    for key, value in pairs:
        # a key may spell an index or exponent: the same bound as a literal
        _check_digits("JSON key", len(key), "characters")
        if key in out:
            raise ValueError(f"repeated JSON key {key!r}")
        out[key] = value
    return out


def _bounded_int(literal: str) -> int:
    _check_digits("JSON integer", len(literal.lstrip("-")), "digits")
    return int(literal)


def _read_json(blob: str):
    """The one JSON reader of the command line: a repeated key, a key or
    integer literal longer than INPUT_DIGIT_GUARD and nesting beyond the
    interpreter's recursion limit are each a ``ValueError``."""
    try:
        return json.loads(blob, object_pairs_hook=_unique_keys,
                          parse_int=_bounded_int)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None


def _read_class(path: str | None) -> MotiveClass:
    if path in (None, "-"):
        blob = sys.stdin.read()
    else:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                blob = fh.read()
        except OSError as exc:
            raise UsageError(f"cannot read {path}: {exc.strerror}") from None
    return MotiveClass.from_json_dict(_read_json(blob))


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    common.add_argument("--format", choices=("json", "text", "csv"),
                        default="json", help="output format (default json)")
    common.add_argument("--out", metavar="PATH",
                        help="write output to a file instead of stdout")

    parser = argparse.ArgumentParser(
        prog="motiveforge", allow_abbrev=False,
        description="Exact Grothendieck-ring classes for moduli of rank-2 "
                    "bundles on curves")
    sub = parser.add_subparsers(dest="command", required=True)

    def form(parent, name, run, help):
        p = parent.add_parser(name, parents=[common], help=help,
                              allow_abbrev=False)
        p.set_defaults(run=run)
        return p

    p = form(sub, "sym-power", _run_sym_power,
             "symmetric power of a curve (motive level) or of a graded rank "
             "vector")
    p.add_argument("-n", "--power", type=_int, required=True)
    operand = p.add_mutually_exclusive_group(required=True)
    operand.add_argument("--genus", type=_positive_int)
    operand.add_argument("--ranks", metavar="JSON",
                         help="graded rank vector {degree: rank}; switches to "
                              "rank level")

    kinds = sub.add_parser(
        "moduli", help="pair-moduli and bundle-moduli classes",
        allow_abbrev=False).add_subparsers(required=True)
    p = form(kinds, "pairs", _run_pairs,
             "class of the --index-th pair space in the --degree chain")
    p.add_argument("--genus", type=_positive_int, required=True)
    p.add_argument("--degree", type=_int, required=True)
    p.add_argument("--index", type=_int, required=True)
    p = form(kinds, "n0", _run_n0,
             "class of N_0 (odd) or the even pipeline report")
    p.add_argument("--genus", type=_positive_int, required=True)
    p.add_argument("--parity", choices=("odd", "even"), required=True)

    p = form(sub, "realize", _run_realize,
             "Betti or Hodge realization of a class read from stdin or --in")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--betti", action="store_true")
    mode.add_argument("--hodge", action="store_true")
    p.add_argument("--level", action="store_true",
                   help="also emit the per-weight Hodge level")
    p.add_argument("--in", dest="infile", metavar="PATH",
                   help="read the class from a file instead of stdin")

    p = form(sub, "jacobians", _run_jacobians,
             "isogeny decomposition of an intermediate jacobian")
    p.add_argument("--genus", type=_positive_int, required=True)
    p.add_argument("--index", type=_int, required=True)

    p = form(sub, "big-f", _run_big_f,
             "coefficient extraction against three geometric kernels by the "
             "series and the closed route (debugging aid)")
    p.add_argument("--genus", type=_positive_int, required=True)
    p.add_argument("--exponents", type=_int, nargs=3, required=True,
                   metavar=("E1", "E2", "E3"))

    p = form(sub, "verify", _run_verify, "run invariant and acceptance checks")
    p.add_argument("--suite", default="all", choices=verify.SUITES)
    p.add_argument("--genus-range", type=_genus_range, metavar="A..B")
    p.add_argument("--cases", type=_positive_int, default=1000,
                   help="randomized cases per property check (default 1000)")
    return parser


def _class_result(cls: MotiveClass) -> _Result:
    return _Result(cls.to_json_dict, cls.render, lambda: (
        "lambda,exp,coeff", [(a, e, c) for a in cls.lambda_indices()
                             for e, c in cls.component(a).items()]))


def _run_sym_power(args) -> _Result:
    if args.ranks is None:
        return _class_result(sym_power_curve(args.genus, args.power))
    # a rank vector is read as its Poincaré polynomial: int ranks only
    poly = LaurentInt.from_coeff_json(_read_json(args.ranks))
    ranks = sym_power_ranks(dict(poly.items()), args.power)
    rows = [(d, ranks[d]) for d in sorted(ranks)]
    return _Result(
        lambda: {"schema": "graded-ranks/v1",
                 "ranks": {str(d): r for d, r in rows}},
        lambda: "\n".join(f"{d}\t{r}" for d, r in rows),
        lambda: ("degree,rank", rows))


def _run_pairs(args) -> _Result:
    return _class_result(moduli.pair_moduli(args.genus, args.degree, args.index))


def _run_n0(args) -> _Result:
    if args.parity == "odd":
        return _class_result(moduli.n0_odd(args.genus))
    rep = moduli.n0_even(args.genus)
    return _Result(rep.to_json_dict, rep.render_text,
                   lambda: ("stage,field,value", rep.csv_rows()))


def _run_realize(args) -> _Result:
    if args.format == "csv" and args.level:
        # the csv rows have no column for the levels
        raise UsageError("realize --format csv does not take --level")
    cls = _read_class(args.infile)
    if args.betti:
        poly = realize.betti(cls)
        result = _Result(
            lambda: {"schema": "realization/v1", "kind": "betti",
                     "coeffs": poly.to_coeff_json()},
            lambda: poly.render("t"),
            lambda: ("degree,rank", poly.items()))
    else:
        # the csv rows are per-weight diamonds, not the Hodge polynomial
        result = _Result(
            lambda: {"schema": "realization/v1", "kind": "hodge",
                     "terms": realize.hodge(cls).to_terms_json()},
            lambda: realize.hodge(cls).render(),
            lambda: ("weight,p,q,h", realize.hodge_diamond_rows(cls)))
    if not args.level:
        return result

    def levels():
        lv = realize.level_per_weight(cls)
        return [(m, lv[m]) for m in sorted(lv)]
    return result._replace(
        json=lambda: {**result.json(),
                      "level_per_weight": {str(m): v for m, v in levels()}},
        text=lambda: result.text() + "\nlevels: " + ", ".join(
            f"w{m}={v}" for m, v in levels()))


def _run_jacobians(args) -> _Result:
    dec = decompose(args.genus, args.index)

    def text():
        if not dec.factors:
            return f"J^{dec.index}: trivial (no odd-weight part)"
        body = " x ".join(f"J^{a}Jac(C)^{m}" for a, m in dec.factors)
        return f"J^{dec.index} ~ {body}"
    return _Result(dec.to_json_dict, text, lambda: ("alpha,mult", dec.factors))


def _run_big_f(args) -> _Result:
    e1, e2, e3 = args.exponents
    via_series = big_f(e1, e2, e3, args.genus, "series")
    via_closed = big_f(e1, e2, e3, args.genus, "closed")
    agree = via_series == via_closed

    def rows():
        return [("series", via_series.render()),
                ("closed", via_closed.render()), ("agree", agree)]
    return _Result(
        lambda: {"schema": "big-f/v1", "series": via_series.to_json_dict(),
                 "closed": via_closed.to_json_dict(), "agree": agree},
        lambda: "\n".join(f"{mode}: {value}" for mode, value in rows()),
        lambda: ("mode,value", rows()))


def _run_verify(args) -> _Result:
    rep = verify.run(args.suite, args.genus_range, args.cases)
    return _Result(
        rep.to_json_dict, rep.render_text,
        lambda: ("name,suite,status",
                 [(r.name, r.suite, r.status) for r in rep.results]),
        status=1 if rep.failed else 0)


def _emit(result: _Result, fmt: str, path: str | None) -> None:
    """Build the asked-for form of ``result`` and write it, newline-ended,
    to ``path`` or stdout: the one place output is produced."""
    if fmt == "json":
        body = json.dumps(result.json(), indent=2)
    elif fmt == "text":
        body = result.text()
    else:
        header, rows = result.csv()
        body = "\n".join([header] + [",".join(map(str, row)) for row in rows])
    body += "\n"
    if path is None:
        sys.stdout.write(body)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(body)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror}") from None


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        result = args.run(args)
        _emit(result, args.format, args.out)
    except _COMPUTE_ERRORS as exc:
        print(f"motiveforge: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except UsageError as exc:
        print(f"motiveforge: usage error: {exc}", file=sys.stderr)
        return 2
    return result.status


if __name__ == "__main__":
    sys.exit(main())
