"""Property tests of the command line's JSON boundary and grammar
(hypothesis).

Class records (stdin and ``--in``) and ``sym-power --ranks`` vectors are
built as JSON text, so they can hold what a dict cannot: repeated keys.
Whatever the text, ``cli.main`` ends with an exit status, never a
traceback, and a failure is one ``motiveforge:`` line on stderr.  The
enumeration oracle ``sym_power_bruteforce``, which the command line does
not run, is fuzzed on the same rank vectors in process.  Command lines
drawn per form from its own options, other forms' options, abbreviations
and repeats end in an exit status or argparse's exit 2, and succeed only
with every option the form needs and none it does not take.
"""

import contextlib
import io
import json
import sys

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from motiveforge import cli  # noqa: E402
from motiveforge.laurent import LaurentInt  # noqa: E402
from motiveforge.macdonald import (EnumerationGuardError,  # noqa: E402
                                   sym_power_bruteforce, sym_power_ranks)

settings.register_profile("cli", deadline=None, database=None,
                          max_examples=150)
settings.load_profile("cli")

GUARD = cli.INPUT_DIGIT_GUARD

# keys: the record's own names, decimal indices (two spellings of one),
# non-ASCII digits and letters, and line breaks
KEYS = st.one_of(
    st.sampled_from(["schema", "genus", "lambda", "0", "1", "01", "2",
                     "-1", "٣", "λ", " ", "a\nb"]),
    st.text(max_size=3))
# integer literals: small ones, and long ones on either side of the guard
INTS = st.one_of(
    st.integers(-30, 30).map(str),
    st.integers(GUARD - 2, GUARD + 2).map(lambda n: "7" * n),
    st.integers(GUARD - 2, GUARD + 2).map(lambda n: "-" + "3" * n))
SCALARS = st.one_of(INTS, st.sampled_from(
    ["true", "null", "1.5", "1e400", '"motive-class/v1"', '"x"']))


def _object(items) -> str:
    return "{" + ",".join(f"{json.dumps(k, ensure_ascii=False)}:{v}"
                          for k, v in items) + "}"


def _json(children):
    return st.one_of(
        st.lists(st.tuples(KEYS, children), max_size=4).map(_object),
        st.lists(children, max_size=3).map(lambda xs: "[" + ",".join(xs) + "]"))


ANY_JSON = st.recursive(SCALARS, _json, max_leaves=12)
# nesting on either side of the recursion limit
DEEP = st.integers(1, 3000).map(lambda n: "[" * n + "]" * n)
# records close to valid ones: small genus, λ-maps with repeated indices
COEFF_MAPS = st.lists(st.tuples(st.sampled_from(["0", "1", "01", "-2"]),
                                INTS), max_size=3).map(_object)
RECORDS = st.builds(
    lambda head, lam: _object(head + [("lambda", lam)]),
    st.lists(st.tuples(st.sampled_from(["schema", "genus"]), st.sampled_from(
        ['"motive-class/v1"', "1", "2", "3", '"2"', "2.0"])),
        max_size=3),
    st.lists(st.tuples(st.sampled_from(["0", "1", "2", "01", "١"]),
                       COEFF_MAPS), max_size=3).map(_object))
BLOBS = st.one_of(RECORDS, ANY_JSON, DEEP)
RANKS = st.one_of(COEFF_MAPS, ANY_JSON, DEEP)


def _run(argv, stdin=""):
    """(status, stdout, stderr) of ``cli.main(argv)``; an argparse refusal
    gives its ``SystemExit`` as the status."""
    out, err = io.StringIO(), io.StringIO()
    real_stdin = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                status = cli.main(argv)
            except SystemExit as exc:
                status = exc
    finally:
        sys.stdin = real_stdin
    return status, out.getvalue(), err.getvalue()


def _check(status, out, err):
    assert status in (0, 1, 2), status
    assert "Traceback" not in err, err
    if status == 0:
        assert err == "" and out, err
    else:
        assert out == "", out
        assert len(err.splitlines()) == 1 and err.endswith("\n"), err
        assert err.startswith("motiveforge: "), err


@given(BLOBS, st.sampled_from(["--betti", "--hodge"]))
def test_realize_stdin_never_raises(blob, mode):
    _check(*_run(["realize", mode], blob))


@given(BLOBS)
def test_realize_in_file_never_raises(tmp_path_factory, blob):
    path = tmp_path_factory.mktemp("record") / "class.json"
    path.write_text(blob, encoding="utf-8")
    _check(*_run(["realize", "--hodge", "--level", "--in", str(path)]))


@given(RANKS, st.integers(0, 3))
def test_sym_power_ranks_never_raises(ranks, power):
    _check(*_run(["sym-power", "-n", str(power), f"--ranks={ranks}"]))


@given(RANKS, st.integers(0, 3))
def test_sym_power_bruteforce_agrees_or_refuses(ranks, power):
    # the enumeration oracle on the same vectors, read as the CLI reads them:
    # it refuses with a type, or it agrees with Macdonald's formula
    try:
        b = dict(LaurentInt.from_coeff_json(cli._read_json(ranks)).items())
    except ValueError:
        return
    try:
        counted = sym_power_bruteforce(b, power)
    except (EnumerationGuardError, ValueError):
        return
    assert counted == sym_power_ranks(b, power)


# -- the grammar --------------------------------------------------------------

GENUS, SMALL = st.integers(1, 3).map(str), st.integers(0, 3).map(str)
FLAG = st.just([])


def _one(values):
    return values.map(lambda v: [v])


#: form -> (argv prefix, {option: value tokens}, option groups of which the
#: form needs one each, options always given).  Values are small, so each
#: run takes milliseconds; verify always names one suite, one genus and a
#: few cases, as its defaults are the full 1000-case run.
FORMS = {
    "sym-power": (["sym-power"],
                  {"--genus": _one(GENUS), "-n": _one(SMALL),
                   "--power": _one(SMALL), "--ranks": _one(COEFF_MAPS)},
                  [{"-n", "--power"}, {"--genus", "--ranks"}], []),
    "moduli pairs": (["moduli", "pairs"],
                     {"--genus": _one(GENUS),
                      "--degree": _one(st.integers(1, 6).map(str)),
                      "--index": _one(SMALL)},
                     [{"--genus"}, {"--degree"}, {"--index"}], []),
    "moduli n0": (["moduli", "n0"],
                  {"--genus": _one(GENUS),
                   "--parity": _one(st.sampled_from(["odd", "even"]))},
                  [{"--genus"}, {"--parity"}], []),
    "realize": (["realize"], {"--betti": FLAG, "--hodge": FLAG, "--level": FLAG},
                [{"--betti", "--hodge"}], []),
    "jacobians": (["jacobians"], {"--genus": _one(GENUS), "--index": _one(SMALL)},
                  [{"--genus"}, {"--index"}], []),
    "big-f": (["big-f"],
              {"--genus": _one(GENUS), "--exponents": st.lists(
                  st.integers(-1, 3).map(str), min_size=3, max_size=3)},
              [{"--genus"}, {"--exponents"}], []),
    "verify": (["verify"],
               {"--suite": st.just(["jacobians"]),
                "--genus-range": st.just(["2..2"]),
                "--cases": _one(st.integers(1, 3).map(str))},
               [], ["--suite", "--genus-range", "--cases"]),
}
FORMATS = _one(st.sampled_from(["json", "text", "csv"]))
# options of every form, and ones no form takes (retired or never there)
ALL_OPTIONS = {name: values for _, own, _, _ in FORMS.values()
               for name, values in own.items()}
ALL_OPTIONS.update({"--mode": _one(st.sampled_from(["series", "closed"])),
                    "--bruteforce": FLAG, "--order": st.just(["8"])})
ABBREVIATIONS = st.sampled_from([
    ["--gen", "2"], ["--par", "odd"], ["--deg", "3"], ["--ind", "1"],
    ["--pow", "2"], ["--rank", "{}"], ["--form", "text"], ["--f", "csv"],
    ["--lev"], ["--bet"], ["--hod"], ["--exp", "0", "1", "2"],
    ["--genus-r", "2..2"], ["--cas", "2"], ["--suit", "jacobians"]])
# a small genus-2 class for realize's stdin
RECORD = ('{"schema":"motive-class/v1","genus":2,'
          '"lambda":{"0":{"0":1,"1":2},"1":{"0":1},"2":{"2":-1}}}')


def _option_names(tokens) -> set:
    # values are never option-like: numbers, JSON, names and ranges
    return {t for t in tokens if t.startswith("-") and not t.lstrip("-").isdigit()}


@st.composite
def _command(draw):
    form = draw(st.sampled_from(sorted(FORMS)))
    prefix, own, _, always = FORMS[form]
    own = {**own, "--format": FORMATS}
    # each option of the form absent, given once (most often) or repeated
    names = always + [name for name in sorted(own)
                      for _ in range(draw(st.sampled_from([0, 1, 1, 1, 2])))]
    groups = [[name, *draw(own[name])] for name in names]
    foreign = sorted(set(ALL_OPTIONS) - set(own))
    groups += draw(st.lists(st.one_of(
        ABBREVIATIONS,
        st.sampled_from(foreign).flatmap(
            lambda name: ALL_OPTIONS[name].map(lambda v: [name, *v]))),
        max_size=2))
    return form, prefix + [t for g in draw(st.permutations(groups)) for t in g]


@given(_command())
def test_grammar_never_raises(command):
    form, argv = command
    status, out, err = _run(argv, RECORD)
    if isinstance(status, SystemExit):
        # argparse's refusal: its usage line and error, nothing on stdout
        assert status.code == 2, status.code
        assert out == "" and "error: " in err and "Traceback" not in err, err
        return
    _check(status, out, err)
    if status == 0:
        prefix, own, needs, _ = FORMS[form]
        given_names = _option_names(argv[len(prefix):])
        assert given_names <= set(own) | {"--format"}, argv
        assert all(group & given_names for group in needs), argv
