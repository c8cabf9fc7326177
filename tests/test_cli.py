import json
import os
import subprocess
import sys
from pathlib import Path

import motiveforge
from motiveforge.macdonald import sym_power_curve
from motiveforge.motive import MotiveClass

# the child process runs the package this test imported
_SRC = str(Path(motiveforge.__file__).resolve().parents[1])


def run_cli(*args, stdin=None, env_extra=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (_SRC, os.environ.get("PYTHONPATH"))))
    if env_extra:
        env.update(env_extra)
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


def test_exit_codes(tmp_path):
    usage = run_cli("moduli", "n0", "--genus", "2", "--nope")
    assert usage.returncode == 2
    integrity = run_cli("big-f", "--genus", "2", "--exponents", "0", "0", "1",
                        "--mode", "closed")
    assert integrity.returncode == 1
    assert "DegenerateDenominatorError" in integrity.stderr
    bad_parse = run_cli("realize", "--betti", stdin="{not json")
    assert bad_parse.returncode == 1
    # usage errors the parser cannot see: exit 2 with one line on stderr
    for args in (("moduli", "pairs", "--genus", "2"),
                 ("moduli", "pairs", "--genus", "2", "--degree", "6"),
                 ("moduli", "n0", "--genus", "2"),
                 ("sym-power", "-n", "2"),
                 ("realize", "--betti", "--in", str(tmp_path / "missing.json")),
                 ("sym-power", "--genus", "2", "-n", "2",
                  "--out", str(tmp_path / "no-such-dir" / "class.json"))):
        res = run_cli(*args)
        assert res.returncode == 2, args
        assert res.stdout == ""
        assert len(res.stderr.splitlines()) == 1, res.stderr
        assert "usage error" in res.stderr
    # rank vectors hold ints only
    for ranks in ('{"0":1.5}', '{"0":true}', '[1, 2]'):
        res = run_cli("sym-power", "-n", "2", "--ranks", ranks)
        assert res.returncode == 1, ranks
        assert "ValueError" in res.stderr


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


def test_even_pipeline_rejects_degree_override():
    res = run_cli("moduli", "n0", "--genus", "2", "--parity", "even",
                  "--degree", "8")
    assert res.returncode == 1
    assert "even pipeline" in res.stderr


def test_env_order_default():
    res = run_cli("moduli", "n0", "--genus", "2", "--parity", "even",
                  env_extra={"MOTIVE_FORGE_ORDER": "24"})
    assert json.loads(res.stdout)["order"] == 24
    # explicit flag wins over the environment
    res = run_cli("moduli", "n0", "--genus", "2", "--parity", "even",
                  "--order", "32", env_extra={"MOTIVE_FORGE_ORDER": "24"})
    assert json.loads(res.stdout)["order"] == 32
    # and without either the default is 8g
    res = run_cli("moduli", "n0", "--genus", "2", "--parity", "even")
    assert json.loads(res.stdout)["order"] == 16
