"""Property tests of the command line's JSON boundary (hypothesis).

Class records (stdin and ``--in``) and ``sym-power --ranks`` vectors are
built as JSON text, so they can hold what a dict cannot: repeated keys.
Whatever the text, ``cli.main`` ends with an exit status, never a
traceback, and a failure is one ``motiveforge:`` line on stderr.  The
enumeration oracle ``sym_power_bruteforce``, which the command line does
not run, is fuzzed on the same rank vectors in process.
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
    out, err = io.StringIO(), io.StringIO()
    real_stdin = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = cli.main(argv)
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
