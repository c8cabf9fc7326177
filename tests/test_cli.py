import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import motiveforge
from motiveforge import cli, moduli, series
from motiveforge.macdonald import sym_power_curve
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
    brute = run_cli("sym-power", "-n", "2", "--ranks", '{"0":1,"1":4,"2":1}',
                    "--bruteforce", "--format", "csv")
    assert brute.stdout == res.stdout


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


def test_realize_level_flag():
    cls = run_cli("moduli", "n0", "--genus", "2", "--parity", "odd")
    res = run_cli("realize", "--betti", "--level", stdin=cls.stdout)
    data = json.loads(res.stdout)
    assert data["level_per_weight"] == {"0": 0, "2": 0, "3": 1, "4": 0, "6": 0}


def test_emitted_class_reparses_everywhere():
    for args in (("sym-power", "--genus", "3", "-n", "4"),
                 ("moduli", "pairs", "--genus", "2", "--degree", "6",
                  "--index", "2"),
                 ("moduli", "n0", "--genus", "3", "--parity", "odd"),
                 ("big-f", "--genus", "2", "--exponents", "0", "1", "2",
                  "--mode", "closed")):
        res = run_cli(*args)
        assert res.returncode == 0, args
        parsed = MotiveClass.from_json_dict(json.loads(res.stdout))
        again = run_cli(*args)
        assert MotiveClass.from_json_dict(json.loads(again.stdout)) == parsed


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
    "moduli-n0-odd-degree": ["moduli", "n0", "--genus", "2", "--parity", "odd",
                             "--degree", "7"],
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
    ("moduli-n0-odd-degree", "json"): (0, "03054dbfb90d905c41e5aaa420ec64dd8107594161d81723b84d0e395ef09589"),
    ("moduli-n0-odd-degree", "text"): (0, "1aeb61ddcad136a2c9da42db5bf61d55c1c5eac517bc475c042d93c68a558aa0"),
    ("moduli-n0-odd-degree", "csv"): (0, "941fb82e28a2f2f58f5793e5a39e8596b4ef50a7420be9d3620aac02e252af02"),
    ("moduli-n0-even", "json"): (0, "89e7d2090ee60bbbbca77d8dd8fc2f370d1230f2a223ae24f683dc9adee1a7bb"),
    ("moduli-n0-even", "text"): (0, "d24464849c7b1759b892ee7e5ecb88e7900ce93d1d730239556da359cba6dabb"),
    ("moduli-n0-even", "csv"): (0, "85554a296956698f6a1916b44bb7373d65ed58cd4a04892cb2da9c777bb251c3"),
    ("realize-betti", "json"): (0, "ddad5722d47d5fc04449af6e3e97a14556923cf3f81e8579a8ccde169c3d0363"),
    ("realize-betti", "text"): (0, "e58ebde95bad0e6727b547dec965c6490b046b0f38c637d9b592df903ab9acfc"),
    ("realize-betti", "csv"): (0, "7f8350c2ea1bec3bb315f338049c83ea21a4ca66924ceecc1b28b989abd60364"),
    ("realize-betti-level", "json"): (0, "1dccfc4f608f5d8642d1e28bfc8eef979027208bdc5c3e4d4a315500b0bc5ad6"),
    ("realize-betti-level", "text"): (0, "57a90ee71cb991c36124a3e345b289e8eb86c40228123974dba432e3e41bc890"),
    ("realize-betti-level", "csv"): (0, "7f8350c2ea1bec3bb315f338049c83ea21a4ca66924ceecc1b28b989abd60364"),
    ("realize-hodge", "json"): (0, "fedb706b1b8265c8f29da11820f3864d9e0c8064185849971de1d1bf409747bc"),
    ("realize-hodge", "text"): (0, "bc2c67d3a882839e8f4e4cf1346e38a3f60f4b47f34eeab0cb13ba3927688c59"),
    ("realize-hodge", "csv"): (0, "26748f9d4bdc305022ee0e60ac5f9e60f9cbc9cfadb5c2232098bfb289b4e252"),
    ("realize-hodge-level", "json"): (0, "be4ac2f236e441c47465d823e7df2a52bebe9771ea27a4a12bbc835ee8bf7d8f"),
    ("realize-hodge-level", "text"): (0, "db2bb195a102fbc8a78d8e6b7fabcfd7048fac541b947aff1e64c47ba196ffde"),
    ("realize-hodge-level", "csv"): (0, "26748f9d4bdc305022ee0e60ac5f9e60f9cbc9cfadb5c2232098bfb289b4e252"),
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
                  "--order", "99999"),
                 ("moduli", "n0", "--genus", "2", "--parity", "odd",
                  "--degree", "7", "--order", "20"),
                 ("moduli", "n0", "--genus", "2", "--parity", "odd",
                  "--index", "1"),
                 ("moduli", "n0", "--genus", "2", "--parity", "even",
                  "--degree", "6"),
                 ("moduli", "n0", "--genus", "2", "--parity", "even",
                  "--index", "0"),
                 ("moduli", "pairs", "--genus", "2", "--degree", "6",
                  "--index", "2", "--order", "0"),
                 ("moduli", "pairs", "--genus", "2", "--degree", "6",
                  "--index", "2", "--parity", "even"),
                 ("moduli", "pairs", "--genus", "2", "--degree", "6",
                  "--index", "2", "--parity", "odd", "--order", "-5"),
                 ("sym-power", "--genus", "2", "-n", "2", "--bruteforce"),
                 ("sym-power", "--genus", "2", "-n", "2",
                  "--ranks", '{"0":1,"1":4,"2":1}')):
        assert cli.main(list(args)) == 2, args
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1, err
        assert err.startswith("motiveforge: usage error: "), err
    # rank vectors hold ints only
    for ranks in ('{"0":1.5}', '{"0":true}', '[1, 2]'):
        assert cli.main(["sym-power", "-n", "2", "--ranks", ranks]) == 1, ranks
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("motiveforge: ValueError: "), err


def test_pipeline_disagreement_exits_1(monkeypatch, capsys):
    # the flip chain and the closed formula must agree; make them differ
    monkeypatch.setattr(moduli, "n0_odd_closed",
                        lambda genus: MotiveClass.tate(genus, 99))
    assert cli.main(["moduli", "n0", "--genus", "2", "--parity", "odd"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("motiveforge: PipelineIntegrityError: flip-chain and "
                          "closed classes disagree at genus 2: "), err
    assert len(err.splitlines()) == 1


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
    ranks = '{"0": 1, "2": 1}'
    assert cli.main(["sym-power", "--ranks", ranks, "-n", "4"]) == 0
    capsys.readouterr()
    assert cli.main(["sym-power", "--ranks", ranks, "-n", "5"]) == 1
    assert capsys.readouterr().err == err
    even = ["moduli", "n0", "--genus", "2", "--parity", "even"]
    assert cli.main(even + ["--order", "4"]) == 0
    capsys.readouterr()
    assert cli.main(even + ["--order", "5"]) == 1
    assert capsys.readouterr().err == err
    # the default order, 8g = 16, is guarded too
    assert cli.main(even) == 1
    assert "series order 16 exceeds the guard 4" in capsys.readouterr().err


def test_chain_degree_guard_is_a_bad_value(monkeypatch, capsys):
    monkeypatch.setattr(moduli, "CHAIN_DEGREE_GUARD", 20)
    pairs = ["moduli", "pairs", "--genus", "2", "--index", "0", "--degree"]
    assert cli.main(pairs + ["20"]) == 0
    capsys.readouterr()
    assert cli.main(pairs + ["21"]) == 1
    assert capsys.readouterr().err == (
        "motiveforge: ChainDegreeError: pair chain of degree 21 at genus 2 "
        "starts at P^21, above the guard 20\n")


def test_even_pipeline_rejects_degree_override():
    res = run_cli("moduli", "n0", "--genus", "2", "--parity", "even",
                  "--degree", "8")
    assert res.returncode == 2
    assert "usage error: the even pipeline" in res.stderr


def test_env_order_default():
    # --order is the one source of the series order; without it, 8g
    res = run_cli("moduli", "n0", "--genus", "2", "--parity", "even",
                  "--order", "32")
    assert json.loads(res.stdout)["order"] == 32
    res = run_cli("moduli", "n0", "--genus", "2", "--parity", "even")
    assert json.loads(res.stdout)["order"] == 16


def test_genus_range_must_not_be_empty(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--genus-range", "5..2"])
    assert exc.value.code == 2
    assert "empty range '5..2': 5 > 2" in capsys.readouterr().err
