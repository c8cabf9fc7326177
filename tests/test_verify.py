import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import motiveforge
from motiveforge import jacobians, macdonald, moduli
from motiveforge.verify import SUITES, run


def test_suite_names():
    assert "all" in SUITES
    for name in ("lambda", "series", "macdonald", "moduli", "realizations",
                 "jacobians", "serialization"):
        assert name in SUITES


def test_macdonald_suite_passes():
    rep = run("macdonald", (1, 3), cases=50)
    assert not rep.failed
    assert {r.suite for r in rep.results} == {"macdonald"}


def test_report_schema_and_determinism():
    rep = run("jacobians", (2, 3), cases=10)
    blob = rep.to_json_dict()
    assert blob["schema"] == "verify-report/v1"
    assert set(blob["summary"]) == {"pass", "fail", "diagnostic"}
    again = run("jacobians", (2, 3), cases=10)
    assert json.dumps(blob) == json.dumps(again.to_json_dict())


def test_full_run_has_diagnostics_but_no_failures(verify_report):
    counts = verify_report.counts()
    assert counts["fail"] == 0
    assert counts["diagnostic"] == 2  # truncation findings, closed-form comparators
    assert counts["pass"] >= 25


def test_genus_range_clips_checks():
    rep = run("realizations", (2, 2), cases=10)
    by_name = {r.name: r for r in rep.results}
    assert "genera [2]" in by_name["harder_narasimhan_reproduction"].details
    assert not rep.failed


def test_genus_range_without_genera_is_a_diagnostic():
    # a check left with no genus checked nothing: it must not read "pass"
    rep = run("all", (9, 12), cases=5)
    empty = [r for r in rep.results if r.details == "no genera in range 9..12"]
    assert len(empty) == 17
    assert {r.status for r in empty} == {"diagnostic"}
    assert not any("genera []" in r.details for r in rep.results)
    assert not rep.failed


def test_moduli_suite_builds_each_even_report_once(monkeypatch):
    # g = 3, 4 twice on purpose: the determinism check compares the shared
    # report with a fresh build; every other even check reads the shared one
    builds = Counter()
    real = moduli.n0_even

    def counted(genus, order=None):
        builds[genus, order] += 1
        return real(genus, order)
    monkeypatch.setattr(moduli, "n0_even", counted)
    rep = run("moduli")
    assert not rep.failed
    assert builds == {(3, None): 2, (4, None): 2, (2, None): 1, (2, 40): 1}


def test_full_run_builds_each_odd_class_once_per_reader(monkeypatch):
    # the odd-class checks share one n0_odd(g) per genus; decompose(g, i)
    # builds its own for each i, once per run
    builds = Counter()
    real = moduli.n0_odd

    def counted(genus):
        builds[genus] += 1
        return real(genus)
    monkeypatch.setattr(moduli, "n0_odd", counted)
    monkeypatch.setattr(jacobians, "n0_odd", counted)
    rep = run("all", cases=5)
    assert not rep.failed
    assert builds == {2: 1 + 2, 3: 1 + 3, 4: 1 + 4, 5: 1 + 5, 6: 1}


def test_render_text_one_line_per_check():
    rep = run("serialization", None, cases=10)
    lines = rep.render_text().splitlines()
    assert len(lines) == len(rep.results) + 1  # plus the summary line
    assert lines[0].startswith("PASS")


# A planted defect: every symmetric power gains a spurious +1.
_PLANTED = """
import json
import motiveforge.macdonald as macdonald
from motiveforge import verify
real = macdonald.sym_power_curve
macdonald.sym_power_curve = lambda g, n: real(g, n) + real(g, 0)
rep = verify.run("macdonald", (1, 2), cases=5)
print(json.dumps({r.name: r.status for r in rep.results}))
"""


def test_planted_defect_fails_under_optimize():
    # python -O strips assert statements; the checks must still fail
    src = str(Path(motiveforge.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    res = subprocess.run([sys.executable, "-O", "-c", _PLANTED],
                         capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout) == {"macdonald_triple_agreement": "fail",
                                      "macdonald_curve_stability": "fail"}


def test_crashing_check_is_recorded_as_fail(monkeypatch):
    def crash(genus, n):
        raise KeyError("planted")
    monkeypatch.setattr(macdonald, "sym_power_curve", crash)
    rep = run("macdonald", (1, 2), cases=5)
    assert [r.status for r in rep.results] == ["fail", "fail"]
    assert all(r.details == "KeyError: 'planted'" for r in rep.results)
    # the other suites still run and pass
    assert not run("jacobians", (2, 2), cases=5).failed
