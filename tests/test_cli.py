import hashlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import motiveforge
from motiveforge import cli, moduli, realize, series
from motiveforge.macdonald import (sym_power_bruteforce, sym_power_curve,
                                   sym_power_ranks)
from motiveforge.motive import MotiveClass

# the child process runs the package this test imported
_SRC = str(Path(motiveforge.__file__).resolve().parents[1])


def run_cli(*args, stdin=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (_SRC, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "motiveforge", *args],
        input=stdin, capture_output=True, text=True, env=env)


def test_n0_odd_text():
    res = run_cli("moduli", "n0", "--genus", "2", "--parity", "odd",
                  "--format", "text")
    assert res.returncode == 0
    assert res.stdout == "1 + L + L^2 + L^3 + λ1·L\n"


def test_sym_power_json_round_trip():
    res = run_cli("sym-power", "--genus", "2", "-n", "3")
    assert res.returncode == 0
    cls = MotiveClass.from_json_dict(json.loads(res.stdout))
    assert cls == sym_power_curve(2, 3)


def test_sym_power_rank_table():
    res = run_cli("sym-power", "-n", "2", "--ranks", '{"0":1,"1":4,"2":1}',
                  "--format", "csv")
    assert res.returncode == 0
    assert res.stdout.splitlines() == [
        "degree,rank", "0,1", "1,4", "2,7", "3,4", "4,1"]
    # the enumeration oracle is a library function, not a command-line route
    assert sym_power_bruteforce({0: 1, 1: 4, 2: 1}, 2) == {
        0: 1, 1: 4, 2: 7, 3: 4, 4: 1}


def test_realize_betti_pipe():
    cls = run_cli("moduli", "n0", "--genus", "2", "--parity", "odd")
    res = run_cli("realize", "--betti", "--format", "text", stdin=cls.stdout)
    assert res.returncode == 0
    assert res.stdout == "1 + t^2 + 4·t^3 + t^4 + t^6\n"


def test_realize_hodge_csv_diamond():
    cls = run_cli("moduli", "n0", "--genus", "2", "--parity", "odd")
    res = run_cli("realize", "--hodge", "--format", "csv", stdin=cls.stdout)
    assert res.returncode == 0
    lines = res.stdout.splitlines()
    assert lines[0] == "weight,p,q,h"
    assert "3,1,2,2" in lines and "3,2,1,2" in lines


def test_realize_hodge_csv_builds_no_hodge_polynomial(tmp_path, monkeypatch,
                                                     capsys):
    # the csv form prints the per-weight diamond rows alone
    cls = moduli.n0_odd(2)
    target = tmp_path / "class.json"
    target.write_text(json.dumps(cls.to_json_dict()))

    def no_hodge(_):
        raise AssertionError("a Hodge polynomial for the csv form")

    rows = realize.hodge_diamond_rows(cls)
    monkeypatch.setattr(realize, "hodge", no_hodge)
    assert cli.main(["realize", "--hodge", "--format", "csv",
                     "--in", str(target)]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out.splitlines() == ["weight,p,q,h"] + [
        ",".join(map(str, row)) for row in rows]


def test_realize_level_flag():
    cls = run_cli("moduli", "n0", "--genus", "2", "--parity", "odd")
    res = run_cli("realize", "--betti", "--level", stdin=cls.stdout)
    data = json.loads(res.stdout)
    assert data["level_per_weight"] == {"0": 0, "2": 0, "3": 1, "4": 0, "6": 0}


def test_emitted_class_reparses_everywhere(capsys):
    for args in (("sym-power", "--genus", "3", "-n", "4"),
                 ("moduli", "pairs", "--genus", "2", "--degree", "6",
                  "--index", "2"),
                 ("moduli", "n0", "--genus", "3", "--parity", "odd"),
                 ("big-f", "--genus", "2", "--exponents", "0", "1", "2",
                  "--mode", "closed")):
        assert cli.main(list(args)) == 0, args
        parsed = MotiveClass.from_json_dict(json.loads(capsys.readouterr().out))
        cli.main(list(args))
        again = capsys.readouterr().out
        assert MotiveClass.from_json_dict(json.loads(again)) == parsed


def test_byte_identical_reruns():
    first = run_cli("moduli", "n0", "--genus", "3", "--parity", "even")
    second = run_cli("moduli", "n0", "--genus", "3", "--parity", "even")
    assert first.stdout == second.stdout
    assert first.returncode == 0
    report = json.loads(first.stdout)
    assert report["schema"] == "pipeline-report/v1"
    assert [s["name"] for s in report["stages"]][:3] == [
        "m_omega", "ss_preimage", "m_omega_s"]


def test_jacobians_schema():
    res = run_cli("jacobians", "--genus", "5", "--index", "5")
    assert json.loads(res.stdout) == {
        "schema": "jacobian-decomp/v1", "i": 5, "factors": [[1, 2], [2, 1]]}


def test_big_f_both_modes():
    res = run_cli("big-f", "--genus", "2", "--exponents", "0", "1", "2")
    data = json.loads(res.stdout)
    assert data["agree"] is True


def test_verify_macdonald_suite():
    res = run_cli("verify", "--suite", "macdonald", "--genus-range", "1..3",
                  "--format", "text")
    assert res.returncode == 0
    assert "FAIL" not in res.stdout
    assert "macdonald_triple_agreement" in res.stdout


# Every subcommand form in every format, pinned byte for byte: the exit
# status and the SHA-256 of stdout.  A digest that stops matching means the
# output changed.  "CLASS" stands for a class file.
_FORMS = {
    "sym-power-class": ["sym-power", "--genus", "2", "-n", "3"],
    "sym-power-ranks": ["sym-power", "-n", "2", "--ranks", '{"0":1,"1":4,"2":1}'],
    "moduli-pairs": ["moduli", "pairs", "--genus", "2", "--degree", "6",
                     "--index", "2"],
    "moduli-n0-odd": ["moduli", "n0", "--genus", "3", "--parity", "odd"],
    "moduli-n0-even": ["moduli", "n0", "--genus", "2", "--parity", "even"],
    "realize-betti": ["realize", "--betti", "--in", "CLASS"],
    "realize-betti-level": ["realize", "--betti", "--level", "--in", "CLASS"],
    "realize-hodge": ["realize", "--hodge", "--in", "CLASS"],
    "realize-hodge-level": ["realize", "--hodge", "--level", "--in", "CLASS"],
    "jacobians-trivial": ["jacobians", "--genus", "3", "--index", "1"],
    "jacobians": ["jacobians", "--genus", "5", "--index", "5"],
    "big-f-both": ["big-f", "--genus", "2", "--exponents", "0", "1", "2"],
    "big-f-closed": ["big-f", "--genus", "2", "--exponents", "0", "1", "2",
                     "--mode", "closed"],
    "verify": ["verify", "--suite", "jacobians", "--genus-range", "2..3"],
}

# a genus-2 class with several weights and a negative coefficient
_CLASS = {"schema": "motive-class/v1", "genus": 2,
          "lambda": {"0": {"0": 1, "1": 2, "2": 1}, "1": {"0": 1, "1": 1},
                     "2": {"2": -1}}}

_DIGESTS = {
    ("sym-power-class", "json"): (0, "862684297519d102400a9297457b680fc236bc27821c458424fe7cf024eb0fae"),
    ("sym-power-class", "text"): (0, "0bc57cf6d560fb18494d10f69d2705bda2813ffda13e8b1e5bb9aa43af23f026"),
    ("sym-power-class", "csv"): (0, "8d40a202382f9f62ca5db8829f0b3a9a688f4192c81a60520806eb477bd94e80"),
    ("sym-power-ranks", "json"): (0, "776ca661aafcfc5a7dde9ca7792735f384b2eb2a31aed1b4403579f7453fca73"),
    ("sym-power-ranks", "text"): (0, "7617d6e0c906a2ae6e0c0ab9f2024d8e495973ed79d793ee0c8268cace71f727"),
    ("sym-power-ranks", "csv"): (0, "72739680a29f1f5efb46da483a7c127ff99949c66d2f17adad2e29d854d8b70f"),
    ("moduli-pairs", "json"): (0, "5c8298a804df417a74e033a640986e40e6527ff2db3b2fcacf3e07887db89155"),
    ("moduli-pairs", "text"): (0, "b20da5fc4989a92a146076f7597cb4534b939d00f7ca4e9bef32302949133014"),
    ("moduli-pairs", "csv"): (0, "e43e9aaea1828cec3a947077550e886cde4dc007d1a7d4d66e458b037676421d"),
    ("moduli-n0-odd", "json"): (0, "0a5659fee84df8317afca8befa1c4f04a69a6d5addfa1a544fc7d37886bab56a"),
    ("moduli-n0-odd", "text"): (0, "9b14f47731ea7187bf59a3c6abddee9895647d482758023c89a4a154b013045c"),
    ("moduli-n0-odd", "csv"): (0, "66449556d58fed851acbe8a495306a3d10897f68ecc238c12d19faed1d2b0db8"),
    ("moduli-n0-even", "json"): (0, "89e7d2090ee60bbbbca77d8dd8fc2f370d1230f2a223ae24f683dc9adee1a7bb"),
    ("moduli-n0-even", "text"): (0, "d24464849c7b1759b892ee7e5ecb88e7900ce93d1d730239556da359cba6dabb"),
    ("moduli-n0-even", "csv"): (0, "85554a296956698f6a1916b44bb7373d65ed58cd4a04892cb2da9c777bb251c3"),
    ("realize-betti", "json"): (0, "ddad5722d47d5fc04449af6e3e97a14556923cf3f81e8579a8ccde169c3d0363"),
    ("realize-betti", "text"): (0, "e58ebde95bad0e6727b547dec965c6490b046b0f38c637d9b592df903ab9acfc"),
    ("realize-betti", "csv"): (0, "7f8350c2ea1bec3bb315f338049c83ea21a4ca66924ceecc1b28b989abd60364"),
    ("realize-betti-level", "json"): (0, "1dccfc4f608f5d8642d1e28bfc8eef979027208bdc5c3e4d4a315500b0bc5ad6"),
    ("realize-betti-level", "text"): (0, "57a90ee71cb991c36124a3e345b289e8eb86c40228123974dba432e3e41bc890"),
    ("realize-betti-level", "csv"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("realize-hodge", "json"): (0, "fedb706b1b8265c8f29da11820f3864d9e0c8064185849971de1d1bf409747bc"),
    ("realize-hodge", "text"): (0, "bc2c67d3a882839e8f4e4cf1346e38a3f60f4b47f34eeab0cb13ba3927688c59"),
    ("realize-hodge", "csv"): (0, "26748f9d4bdc305022ee0e60ac5f9e60f9cbc9cfadb5c2232098bfb289b4e252"),
    ("realize-hodge-level", "json"): (0, "be4ac2f236e441c47465d823e7df2a52bebe9771ea27a4a12bbc835ee8bf7d8f"),
    ("realize-hodge-level", "text"): (0, "db2bb195a102fbc8a78d8e6b7fabcfd7048fac541b947aff1e64c47ba196ffde"),
    ("realize-hodge-level", "csv"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("jacobians-trivial", "json"): (0, "a91e21f6411a3f36f99b782c3de0edd63e9550ee1a861c66c1f90b9fde975be3"),
    ("jacobians-trivial", "text"): (0, "537adc34299107fc7277356a107baa6f11142eb2792a972c0d96b6e421c0a752"),
    ("jacobians-trivial", "csv"): (0, "78482074c0673f74897042ef35b176cb3aaf4616660003e22ac6ec4ed1dab2c2"),
    ("jacobians", "json"): (0, "3368223044f42f159067e432efcdbf2843cfad133e480f491f679dc6cc84b2eb"),
    ("jacobians", "text"): (0, "d09d7c151d796ccd7111528c5377495df177d625b1d1e72ad34f654fb02768ce"),
    ("jacobians", "csv"): (0, "f6ef08461fbef8cc8e60ebd02efb2919344afa584bc94bb562be19a3af77fbba"),
    ("big-f-both", "json"): (0, "c39ec82d6af9595be91412de2eaab0729eaf8d6ce9e5cae777d5bad704ef86f9"),
    ("big-f-both", "text"): (0, "0df445765cd4289439b9d07fc2e388a98d262a167680397febb8b0cb20360511"),
    ("big-f-both", "csv"): (0, "4abf7513e1ee01a6944aa3e1f11a67d13740ed0cda60e0512c9c93eb42dcae5d"),
    ("big-f-closed", "json"): (0, "a858b357a57541698f59c3ba89ab694d3e37bcf0c58a50e4ebe2205e67c3c04a"),
    ("big-f-closed", "text"): (0, "cf5ccbc09d5abb6a5570ecdc85a230e2185a526e80d5fa15abed9091174926f0"),
    ("big-f-closed", "csv"): (0, "8de064588630fa50b7af9f8e42e0f7ac042fd2bcfbe10a64884713c3ddb83932"),
    ("verify", "json"): (0, "ad2683e1614d0f02a6f9dccc733d32bb79df4f01abeada2de981ef4d6c25aaa0"),
    ("verify", "text"): (0, "dc3c4dfda813dec552b07dd42b409b41e42fe5d4ecd3047c462a5744d2dcf9ea"),
    ("verify", "csv"): (0, "71c5635808c22184793047a8d696506e2e346ab0ec2842f9c311540ad03218d4"),
}


@pytest.mark.parametrize("form,fmt", list(_DIGESTS),
                         ids=[f"{form}-{fmt}" for form, fmt in _DIGESTS])
def test_output_bytes(form, fmt, tmp_path, capsys):
    path = tmp_path / "class.json"
    path.write_text(json.dumps(_CLASS))
    argv = [str(path) if a == "CLASS" else a for a in _FORMS[form]]
    status = cli.main(argv + ["--format", fmt])
    out, err = capsys.readouterr()
    assert (status, hashlib.sha256(out.encode()).hexdigest()) == _DIGESTS[form, fmt], out
    if status == 2:
        # the csv rows have no column for --level: a usage error
        assert err.startswith("motiveforge: usage error: "), err
    else:
        assert err == ""


def test_exit_codes(tmp_path, capsys, monkeypatch):
    # one cold process per exit status; the cases below run in process
    ok = run_cli("moduli", "n0", "--genus", "2", "--parity", "odd")
    assert ok.returncode == 0 and ok.stderr == ""
    integrity = run_cli("big-f", "--genus", "2", "--exponents", "0", "0", "1",
                        "--mode", "closed")
    assert integrity.returncode == 1
    assert "DegenerateDenominatorError" in integrity.stderr
    usage = run_cli("moduli", "n0", "--genus", "2", "--nope")
    assert usage.returncode == 2
    monkeypatch.setattr(sys, "stdin", io.StringIO("{not json"))
    assert cli.main(["realize", "--betti"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("motiveforge: JSONDecodeError: ")
    # a record must hold exactly the keys schema, genus and lambda: a
    # misspelled "lambda" is not the zero class
    typo = {"schema": "motive-class/v1", "genus": 3, "lamda": {"1": {"0": 5}}}
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(typo)))
    assert cli.main(["realize", "--betti"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(
        "motiveforge: ValueError: expected a motive-class/v1 record"), err
    # usage errors the parser cannot see: exit 2 with one line on stderr
    for args in (("moduli", "pairs", "--genus", "2"),
                 ("moduli", "pairs", "--genus", "2", "--degree", "6"),
                 ("moduli", "n0", "--genus", "2"),
                 ("sym-power", "-n", "2"),
                 ("realize", "--betti", "--in", str(tmp_path / "missing.json")),
                 ("sym-power", "--genus", "2", "-n", "2",
                  "--out", str(tmp_path / "no-such-dir" / "class.json")),
                 # an option the chosen form would not read is refused too
                 ("moduli", "n0", "--genus", "2", "--parity", "odd",
                  "--index", "1"),
                 ("moduli", "n0", "--genus", "2", "--parity", "even",
                  "--degree", "6"),
                 ("moduli", "n0", "--genus", "2", "--parity", "even",
                  "--index", "0"),
                 ("moduli", "pairs", "--genus", "2", "--degree", "6",
                  "--index", "2", "--parity", "even"),
                 ("realize", "--betti", "--level", "--format", "csv"),
                 ("sym-power", "--genus", "2", "-n", "2",
                  "--ranks", '{"0":1,"1":4,"2":1}')):
        assert cli.main(list(args)) == 2, args
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1, err
        assert err.startswith("motiveforge: usage error: "), err
    # integer options are spelled as JSON keys are, ASCII [+-]?[0-9]+; the
    # parser refuses any other spelling with exit 2
    for args in (("jacobians", "--genus", " 3", "--index", "2"),
                 ("jacobians", "--genus", "\u0663", "--index", "2"),
                 ("jacobians", "--genus", "3", "--index", "1_0"),
                 ("sym-power", "--genus", "2", "-n", " 2"),
                 ("moduli", "pairs", "--genus", "2", "--degree", "6.0",
                  "--index", "1"),
                 ("big-f", "--genus", "2", "--exponents", "0", "1", "2 "),
                 ("verify", "--suite", "series", "--genus-range", " 2..3"),
                 ("verify", "--suite", "series", "--genus-range", "2..\u0663"),
                 ("verify", "--suite", "series", "--cases", "1_0")):
        with pytest.raises(SystemExit) as exc:
            cli.main(list(args))
        assert exc.value.code == 2, args
        out, err = capsys.readouterr()
        assert out == "" and "error: argument" in err, err
    # the parser also refuses a zero where a positive integer belongs, and
    # --bruteforce, which no form takes
    zero, brute = ("expected a positive integer, got 0",
                   "unrecognized arguments: --bruteforce")
    for args, why in ((("jacobians", "--genus", "0", "--index", "1"), zero),
                      (("verify", "--suite", "series", "--cases", "0"), zero),
                      (("sym-power", "--genus", "2", "-n", "2",
                        "--bruteforce"), brute),
                      (("sym-power", "-n", "2", "--ranks",
                        '{"0":1,"1":4,"2":1}', "--bruteforce"), brute)):
        with pytest.raises(SystemExit) as exc:
            cli.main(list(args))
        assert exc.value.code == 2, args
        out, err = capsys.readouterr()
        assert out == "" and why in err, err
    # rank vectors hold ints only
    for ranks in ('{"0":1.5}', '{"0":true}', '[1, 2]'):
        assert cli.main(["sym-power", "-n", "2", "--ranks", ranks]) == 1, ranks
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("motiveforge: ValueError: "), err


def test_input_beyond_the_pipelines_exits_1(monkeypatch, capsys):
    # a pair chain of degree 0 has no spaces; it used to be refused as an
    # index out of the empty range 0..-1
    assert cli.main(["moduli", "pairs", "--genus", "2", "--degree", "0",
                     "--index", "0"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == (
        "motiveforge: ValueError: degree must be an integer >= 1, got 0\n")
    # without the guard one λ_8000 term takes about 8 s per realization;
    # every form refuses it before any binomial
    record = json.dumps({"schema": "motive-class/v1", "genus": 8000,
                         "lambda": {"8000": {"0": 1}}}, separators=(",", ":"))
    for args in (["--betti"], ["--hodge"], ["--hodge", "--level"],
                 ["--hodge", "--format", "csv"]):
        monkeypatch.setattr(sys, "stdin", io.StringIO(record))
        assert cli.main(["realize", *args]) == 1, args
        out, err = capsys.readouterr()
        assert out == "" and err == (
            "motiveforge: ValueError: top λ-index must be an integer in "
            f"0..{moduli.CLOSED_GENUS_GUARD}, got 8000\n"), args


def test_out_file(tmp_path):
    target = tmp_path / "class.json"
    res = run_cli("sym-power", "--genus", "2", "-n", "2", "--out", str(target))
    assert res.returncode == 0 and res.stdout == ""
    assert MotiveClass.from_json_dict(
        json.loads(target.read_text())) == sym_power_curve(2, 2)


def test_realize_in_file(tmp_path):
    target = tmp_path / "class.json"
    run_cli("sym-power", "--genus", "2", "-n", "2", "--out", str(target))
    res = run_cli("realize", "--betti", "--format", "text", "--in", str(target))
    assert res.returncode == 0
    assert res.stdout == "1 + 4·t + 7·t^2 + 4·t^3 + t^4\n"


def test_series_order_guard_is_a_bad_value(monkeypatch, capsys):
    monkeypatch.setattr(series, "SERIES_ORDER_GUARD", 4)
    assert cli.main(["sym-power", "--genus", "2", "-n", "4"]) == 0
    capsys.readouterr()
    assert cli.main(["sym-power", "--genus", "2", "-n", "5"]) == 1
    err = capsys.readouterr().err
    assert err == ("motiveforge: SeriesOrderError: series order 5 exceeds "
                   "the guard 4\n")
    ranks = ["sym-power", "--ranks", '{"0": 1, "2": 1}']
    assert cli.main(ranks + ["-n", "4"]) == 0
    capsys.readouterr()
    assert cli.main(ranks + ["-n", "5"]) == 1
    assert capsys.readouterr().err == err
    # the enumeration oracle shares the guard
    assert sym_power_bruteforce({0: 1, 2: 1}, 4) == sym_power_ranks(
        {0: 1, 2: 1}, 4)
    with pytest.raises(series.SeriesOrderError,
                       match="^series order 5 exceeds the guard 4$"):
        sym_power_bruteforce({0: 1, 2: 1}, 5)
    # the even pipeline divides at order 8g, so the guard bounds its genus
    even = ["moduli", "n0", "--parity", "even", "--genus"]
    assert cli.main(even + ["2"]) == 1
    assert capsys.readouterr().err == ("motiveforge: SeriesOrderError: series "
                                       "order 16 exceeds the guard 4\n")
    monkeypatch.setattr(series, "SERIES_ORDER_GUARD", 16)
    assert cli.main(even + ["2"]) == 0
    capsys.readouterr()
    assert cli.main(even + ["3"]) == 1
    assert capsys.readouterr().err == ("motiveforge: SeriesOrderError: series "
                                       "order 24 exceeds the guard 16\n")


def test_chain_degree_guard_is_a_bad_value(monkeypatch, capsys):
    monkeypatch.setattr(moduli, "CHAIN_DEGREE_GUARD", 20)
    pairs = ["moduli", "pairs", "--genus", "2", "--index", "0", "--degree"]
    assert cli.main(pairs + ["20"]) == 0
    capsys.readouterr()
    assert cli.main(pairs + ["21"]) == 1
    assert capsys.readouterr().err == (
        "motiveforge: ChainDegreeError: pair chain of degree 21 at genus 2 "
        "starts at P^21, above the guard 20\n")


def test_even_pipeline_rejects_degree_override(capsys):
    # neither class depends on a degree: moduli n0 takes none at any parity
    for parity, degree in (("even", "8"), ("odd", "7")):
        assert cli.main(["moduli", "n0", "--genus", "2", "--parity", parity,
                         "--degree", degree]) == 2
        assert capsys.readouterr() == (
            "", "motiveforge: usage error: moduli n0 does not take --degree\n")


def test_env_order_default():
    # the even report's series order is 8g; no option sets another
    res = run_cli("moduli", "n0", "--genus", "3", "--parity", "even")
    assert res.returncode == 0
    assert json.loads(res.stdout)["order"] == 24
    res = run_cli("moduli", "n0", "--genus", "3", "--parity", "even",
                  "--order", "32")
    assert res.returncode == 2 and res.stdout == ""
    assert "unrecognized arguments: --order 32" in res.stderr


def test_genus_range_must_not_be_empty(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--genus-range", "5..2"])
    assert exc.value.code == 2
    assert "empty range '5..2': 5 > 2" in capsys.readouterr().err


def _realize_stdin(monkeypatch, blob, *args):
    monkeypatch.setattr(sys, "stdin", io.StringIO(blob))
    return cli.main(["realize", "--betti", *args])


def test_repeated_json_keys_are_refused(monkeypatch, capsys, tmp_path):
    # the last of two equal keys used to win silently: λ1·5 realized as
    # 20·t, and the rank vector below read rank 4
    twice = ('{"schema":"motive-class/v1","genus":2,'
             '"lambda":{"1":{"0":1},"1":{"0":5}}}')
    assert _realize_stdin(monkeypatch, twice) == 1
    assert capsys.readouterr() == (
        "", "motiveforge: ValueError: repeated JSON key '1'\n")
    path = tmp_path / "class.json"
    path.write_text('{"schema":"motive-class/v1","genus":2,"genus":3,'
                    '"lambda":{}}')
    assert cli.main(["realize", "--hodge", "--in", str(path)]) == 1
    assert capsys.readouterr() == (
        "", "motiveforge: ValueError: repeated JSON key 'genus'\n")
    assert cli.main(["sym-power", "-n", "2",
                     "--ranks", '{"0":1,"1":2,"1":4,"2":1}']) == 1
    assert capsys.readouterr() == (
        "", "motiveforge: ValueError: repeated JSON key '1'\n")


def test_deep_nesting_is_a_value_error(monkeypatch, capsys):
    # 200 000 brackets used to end in an uncaught RecursionError traceback
    deep = "[" * 200_000
    assert _realize_stdin(monkeypatch, deep) == 1
    assert capsys.readouterr() == (
        "", "motiveforge: ValueError: JSON nested too deeply\n")
    assert cli.main(["sym-power", "-n", "2", f"--ranks={deep}"]) == 1
    assert capsys.readouterr() == (
        "", "motiveforge: ValueError: JSON nested too deeply\n")


def test_input_digit_guard(monkeypatch, capsys):
    guard = cli.INPUT_DIGIT_GUARD
    assert guard == 4300

    def record(coeff, key="0"):
        return ('{"schema":"motive-class/v1","genus":2,'
                f'"lambda":{{"0":{{"{key}":{coeff}}}}}}}')
    assert _realize_stdin(monkeypatch, record("-" + "9" * guard)) == 0
    capsys.readouterr()
    for blob, what in ((record("9" * (guard + 1)), "JSON integer of 4301 "
                        "digits"),
                       (record("1", "1" * (guard + 1)), "JSON key of 4301 "
                        "characters")):
        assert _realize_stdin(monkeypatch, blob) == 1
        assert capsys.readouterr() == ("", f"motiveforge: ValueError: {what} "
                                       "exceeds the guard INPUT_DIGIT_GUARD "
                                       "(4300)\n")


def test_output_keeps_the_interpreter_digit_limit(monkeypatch, capsys):
    # INPUT_DIGIT_GUARD bounds what is read; the interpreter's int-string
    # limit, left in force, bounds what is printed.  A 4 290-digit
    # coefficient on λ_100 at genus 200 realizes to C(400, 100)·c, 4 387
    # digits, and exits 1 with nothing on stdout, not a long print.  (Large
    # ranks stop earlier, at REALIZATION_BITS_GUARD: see the next test.)
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("no int-string limit before Python 3.10.7")
    record = ('{"schema":"motive-class/v1","genus":200,'
              f'"lambda":{{"100":{{"0":{"7" * 4290}}}}}}}')
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(4300)
        for fmt in ("json", "text", "csv"):
            assert _realize_stdin(monkeypatch, record, "--format", fmt) == 1
            out, err = capsys.readouterr()
            # 3.10 spells the limit "(4300)", later releases "(4300 digits)"
            assert out == "" and err.startswith(
                "motiveforge: ValueError: Exceeds the limit (4300")
            assert len(err.splitlines()) == 1
            assert sys.get_int_max_str_digits() == 4300
    finally:
        sys.set_int_max_str_digits(limit)


def test_realization_size_guard(monkeypatch, capsys):
    # λ_200 terms at a 4 300-digit genus (14 285 bits) would realize to
    # ranks of some 860 000 digits: --hodge ran 72 s before the output
    # limit stopped it.  The guard refuses it before any binomial.
    record = ('{"schema":"motive-class/v1","genus":' + "9" * 4300
              + ',"lambda":{"200":{' + ",".join(f'"{e}":1' for e in range(200))
              + "}}}")
    for mode in ("--hodge", "--betti"):
        monkeypatch.setattr(sys, "stdin", io.StringIO(record))
        start = time.perf_counter()
        assert cli.main(["realize", mode]) == 1, mode
        assert time.perf_counter() - start < 1.0, mode
        out, err = capsys.readouterr()
        assert out == "" and err == (
            "motiveforge: RealizationSizeError: top λ-index 200 at a genus "
            "of 14285 bits gives binomials of about 2857000 bits, above the "
            f"guard REALIZATION_BITS_GUARD ({realize.REALIZATION_BITS_GUARD})"
            "\n"), mode


def test_big_f_order_guard_covers_closed_mode(capsys):
    # closed mode at genus 2000 ran 15.5 s and printed 230 MB: every mode
    # now refuses an order 2g above SERIES_ORDER_GUARD before any work
    refusal = ("motiveforge: SeriesOrderError: series order 1002 exceeds "
               "the guard 1000\n")
    big_f = ["big-f", "--genus", "501", "--exponents", "0", "1", "2"]
    for mode in ("closed", "series", "both"):
        start = time.perf_counter()
        assert cli.main(big_f + ["--mode", mode]) == 1, mode
        assert time.perf_counter() - start < 1.0, mode
        assert capsys.readouterr() == ("", refusal), mode
    res = run_cli(*big_f, "--mode", "closed")
    assert (res.returncode, res.stdout, res.stderr) == (1, "", refusal)


def test_sym_power_rank_size_guard(capsys):
    # -n 200 with a 4 000-digit rank ran 38 s before the output digit limit
    # refused its result; the guard refuses it before the product
    ranks = '{"1": ' + "9" * 4000 + "}"
    for n in ("2", "50", "200"):
        start = time.perf_counter()
        assert cli.main(["sym-power", "-n", n, "--ranks", ranks]) == 1, n
        assert time.perf_counter() - start < 1.0, n
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1, n
        assert err.startswith("motiveforge: RankSizeError: "), n
    # the first power is the rank itself, printable and printed as before
    assert cli.main(["sym-power", "-n", "1", "--ranks", ranks]) == 0
    assert capsys.readouterr().out == (
        '{\n  "schema": "graded-ranks/v1",\n  "ranks": {\n    "1": '
        + "9" * 4000 + "\n  }\n}\n")
