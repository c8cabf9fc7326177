"""Each demo runs in a fresh interpreter, with this run's optimization flag,
and its stdout is pinned by SHA-256: a digest that stops matching means the
demo prints something else."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import motiveforge

_SRC = str(Path(motiveforge.__file__).resolve().parents[1])
_DEMOS = Path(__file__).resolve().parents[1] / "demos"

_DIGESTS = {
    "01_lambda_arithmetic.py": "f0d2bc95bfec8946a0e909c3dbdf1386e249f7cdfad6c8527f150f6dd871b790",
    "02_symmetric_powers.py": "5c7a6da44a6f64fb73444df8a2de6097f7ebbd72f552e22b955407b3bdbbd529",
    "03_bundle_moduli.py": "41e12d32cec4c70d03719c5c56e6f852661655a9cc63f125ff5210b70be94174",
    "04_hodge_realizations.py": "8ef4e2c2d37203fcb478f09758bc6b0e49a73193e878460371cb3c38ed957b99",
    "05_intermediate_jacobians.py": "c13c73df31f2aefbab634af4d77e7aa3b037fda3615d9d178ea9bcc057a72fc0",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in _DEMOS.glob("*.py")) == sorted(_DIGESTS)


@pytest.mark.parametrize("name", sorted(_DIGESTS))
def test_demo_output(name):
    env = {**os.environ, "PYTHONIOENCODING": "utf-8", "PYTHONPATH":
           os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))}
    argv = [sys.executable] + ["-O"] * sys.flags.optimize + [str(_DEMOS / name)]
    res = subprocess.run(argv, capture_output=True, env=env)
    assert res.returncode == 0, res.stderr.decode()
    assert hashlib.sha256(res.stdout).hexdigest() == _DIGESTS[name], (
        res.stdout.decode())
