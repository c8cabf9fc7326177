"""Regenerate ``reference.json`` and the command-line input ``n0_odd_g8.json``.

    PYTHONPATH=src python3 bench/make_reference.py

The reference holds the SHA-256 of every request's JSON output at the default
seed, for the full and the tiny size, the statuses of every verify check and
the digest of each workload's command-line output.  Run it only on a commit
whose outputs are trusted: the benchmark fails any run whose outputs differ.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
from pathlib import Path
from types import SimpleNamespace

import tracing
import workloads

BENCH = Path(__file__).resolve().parent


def main() -> None:
    mods = {layer: importlib.import_module(f"motiveforge.{layer}")
            for layer in tracing.LAYERS}
    mf = SimpleNamespace(**mods)
    (BENCH / "n0_odd_g8.json").write_text(
        workloads.dump(mf.moduli.n0_odd_closed(8).to_json_dict()), encoding="utf-8")

    statuses = {}
    for suite in workloads.SUITES:
        report = mf.verify.run(suite, None, 1000)
        statuses[suite] = [[r.name, r.status] for r in report.results]

    partial = {"verify_statuses": statuses}
    digests = {}
    for workload in workloads.WORKLOADS:
        for tiny in (False, True):
            for req in workloads.build(mf, workload, workloads.DEFAULT_SEED, tiny, partial):
                digests[req.rid] = workloads.digest(req.run())

    cli = {}
    for workload, argv in workloads.CLI_COMMANDS.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            if mf.cli.main(argv) != 0:
                raise SystemExit(f"command line for {workload} failed")
        cli[workload] = workloads.digest(out.getvalue())

    reference = {"default_seed": workloads.DEFAULT_SEED, "cli": cli,
                 "verify_statuses": statuses, "digests": dict(sorted(digests.items()))}
    (BENCH / "reference.json").write_text(
        json.dumps(reference, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
