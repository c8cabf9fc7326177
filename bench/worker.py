"""One benchmark process: set up a workload, run it, report raw samples.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's ``src``;
prints one JSON object as its last line.  Modes:

* ``setup``: time from ``import motiveforge`` until the inputs are ready.
* ``measure``: one warm pass, then passes until ``--seconds`` have gone by.
  Every output is checked; the GC stays on, as for a user.
* ``trace``: as ``measure``, then one pass and the workload's command line
  run in process, under the tracer.
* ``profile``: one warm pass, then one pass under cProfile.  Diagnostic
  only; nothing it prints is a metric.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import importlib
import io
import json
import pstats
import resource
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

import calibration  # noqa: E402  (the bench directory is on sys.path as the script's own)
import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

#: functions listed by the profile mode
PROFILE_TOP = 25


def setup(workload: str, seed: int, tiny: bool, reference: dict):
    """Import every layer and build the inputs; returns (modules, requests, seconds)."""
    t0 = time.perf_counter()
    mods = {layer: importlib.import_module(f"motiveforge.{layer}")
            for layer in tracing.LAYERS}
    requests = workloads.build(SimpleNamespace(**mods), workload, seed, tiny, reference)
    elapsed = time.perf_counter() - t0
    src = Path(mods["laurent"].__file__).resolve()
    if ROOT / "src" not in src.parents:
        raise RuntimeError(f"motiveforge imported from {src}, not from this checkout")
    return mods, requests, elapsed


class Pass:
    """Runs request lists one request at a time and checks every output.

    While a pass runs, a calibration sampler times the reference loop at a
    fixed interval; each request's time is calibrated by the timings taken
    around it."""

    def __init__(self, reference: dict):
        self.digests = reference["digests"]
        self.attempted = 0
        self.failures: list[str] = []
        self.walls: list[float] = []  # calibrated, per recorded pass
        self.walls_raw: list[float] = []
        self.latencies_ms: list[float] = []  # calibrated
        self.by_rid: dict[str, list[float]] = {}  # calibrated seconds

    def problem(self, req, text: str) -> str | None:
        """Why an output is wrong, or None; a request with neither a reference
        digest nor an invariant fails, so no output goes unchecked."""
        want = self.digests.get(req.rid)
        if want is None and req.check is None:
            return "no reference digest and no invariant"
        if want is not None and workloads.digest(text) != want:
            return "output differs from the reference digest"
        return req.check(text) if req.check is not None else None

    def run(self, requests, record: bool = True, sizes: list | None = None) -> float:
        """One pass; returns its raw summed request time in seconds."""
        clock = time.perf_counter
        times: list[tuple[str, float, float, float]] = []  # rid, start, end, busy
        with calibration.Sampler() as sampler:
            for req in requests:
                self.attempted += 1
                stolen, t0 = sampler.stolen, clock()
                try:
                    text = req.run()
                except Exception as exc:  # a failed request is counted, not fatal
                    self.failures.append(
                        f"{req.rid}: raised {type(exc).__name__}: {exc}")
                    continue
                t1 = clock()
                times.append((req.rid, t0, t1, t1 - t0 - (sampler.stolen - stolen)))
                try:
                    why = self.problem(req, text)
                    if sizes is not None:
                        sizes.append(oracle.output_size(text))
                except Exception as exc:  # malformed output fails its check
                    why = f"check raised {type(exc).__name__}: {exc}"
                if why:
                    self.failures.append(f"{req.rid}: {why}")
        raw = sum(dt for *_, dt in times)
        if record and times:
            fallback = sampler.samples or calibration.sample_for(0.05)
            wall = 0.0
            for rid, t0, t1, dt in times:
                dt *= calibration.factor(sampler.around(t0, t1) or fallback)
                wall += dt
                self.latencies_ms.append(dt * 1e3)
                self.by_rid.setdefault(rid, []).append(dt)
            self.walls_raw.append(raw)
            self.walls.append(wall)
        return raw


def measure(requests, reference: dict, seconds: float) -> Pass:
    runner = Pass(reference)
    runner.run(requests, record=False)  # warm pass: checked, not timed
    start = time.perf_counter()
    # start a pass only when it should end inside the window, judged by the
    # last pass; stop after a pass in which every request failed (0 s timed)
    last = runner.run(requests)
    while last and time.perf_counter() - start + last <= seconds:
        last = runner.run(requests)
    return runner


def run_cli(mods, argv: list[str], reference: dict, workload: str) -> str | None:
    """The workload's command line, in process; returns a problem or None."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = mods["cli"].main(argv)
    if status != 0:
        return f"cli exited {status}"
    if workloads.digest(out.getvalue()) != reference["cli"][workload]:
        return "cli output differs from the reference digest"
    return None


def traced(mods, requests, reference: dict, workload: str, runner: Pass) -> dict:
    """Per-layer metrics from one pass and the workload's command line under
    the tracer; `runner` holds the untraced passes measured before."""
    sizes: list = []
    tracer = tracing.Tracer()
    tracer.install(mods)
    try:
        checker = Pass(reference)
        wall = checker.run(requests, sizes=sizes)
        layers = tracer.metrics()
        tracer.reset()
        cli_problem = run_cli(mods, workloads.CLI_COMMANDS[workload], reference,
                              workload)
        cli = tracer.metrics()
    finally:
        tracer.uninstall()
    runner.attempted += checker.attempted + 1
    runner.failures += checker.failures + ([f"cli in process: {cli_problem}"]
                                           if cli_problem else [])
    layers["cli.calls"], layers["cli.self_s"] = cli["cli.calls"], cli["cli.self_s"]
    for suite in workloads.SUITES:
        times = next((t for rid, t in runner.by_rid.items()
                      if rid.startswith(f"verify:{suite}:")), [])
        layers[f"verify.{suite}_s"] = statistics.median(times) if times else 0.0
    layers["result.terms"] = sum(t for t, _ in sizes)
    layers["result.max_coeff_bits"] = max((b for _, b in sizes), default=0)
    layers["trace.overhead_s"] = wall - statistics.median(runner.walls_raw)
    return layers


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("mode", choices=("setup", "measure", "trace", "profile"))
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--tiny", action="store_true")
    args = p.parse_args(argv)

    reference = workloads.load_reference()
    loops = calibration.sample_for(0.05)
    mods, requests, setup_s = setup(args.workload, args.seed, args.tiny, reference)
    if args.mode == "setup":
        loops += calibration.sample_for(0.05)
        print(json.dumps({"setup_s": setup_s * calibration.factor(loops),
                          "setup_raw_s": setup_s,
                          "inputs": workloads.digest(" ".join(r.rid for r in requests))}))
        return 0
    if args.mode == "profile":
        Pass(reference).run(requests, record=False)
        prof = cProfile.Profile()
        prof.runcall(Pass(reference).run, requests, False)
        print(f"DIAGNOSTIC ONLY: cProfile of one warm {args.workload} pass "
              f"(seed {args.seed}); profiling distorts timings, so nothing "
              "here is a benchmark metric.  bench/calibration.py entries are "
              "the benchmark's own calibration kernels.")
        pstats.Stats(prof, stream=sys.stdout).sort_stats("tottime").print_stats(PROFILE_TOP)
        return 0

    runner = measure(requests, reference, args.seconds)
    result = {
        "walls_s": runner.walls,
        "walls_raw_s": runner.walls_raw,
        "latencies_ms": runner.latencies_ms,
    }
    if args.mode == "trace" and runner.walls_raw:  # else every request failed
        result["layers"] = traced(mods, requests, reference, args.workload, runner)
    result.update(attempted=runner.attempted, failures=runner.failures,
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
