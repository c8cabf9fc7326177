"""motiveforge benchmark.

    python3 bench/run.py --workload moduli_sweep --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --profile verify_all        # cProfile table, diagnostic

Run from the root of a checkout; the program is imported from its ``src``.
One client runs each workload as a closed loop in a single process with no
threads.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a separate traced pass.  Every output is checked; the
last line of stdout is the JSON summary.  See README.md for the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

import calibration  # noqa: E402  (the bench directory is on sys.path as the script's own)
import tracing  # noqa: E402
import workloads  # noqa: E402

#: fresh processes per run for the set-up and cold command-line timings
SETUP_RUNS = 7
CLI_RUNS = 15
#: percentiles tried for the tail, highest first.  Coarse on purpose: the
#: sample count of a run scales with machine speed, and within a 2x speed
#: range each workload stays on one rung (p95 for moduli_sweep and
#: realize_batch, p50 for the seven requests per pass of verify_all, whose
#: 5 to 11 passes per run would switch between p50 and p75).
TAIL_LADDER = (95.0, 90.0, 50.0)
#: a run must end within this many seconds
DEADLINE_S = 170.0

END_TO_END_UNITS = {"wall_s": "s", "req_p50_ms": "ms", "req_tail_ms": "ms",
                    "setup_s": "s", "cli_cold_s": "s", "peak_rss_mb": "MB"}

#: per-layer metrics and their units, printed by the traced run
PER_LAYER_UNITS = {
    **{f"{layer}.{kind}": unit for layer in tracing.LAYERS
       for kind, unit in (("calls", "count"), ("self_s", "s"))},
    **dict.fromkeys(tracing.COUNTERS, "count"),
    **dict.fromkeys(tracing.REPEATS, "ratio"),
    **{f"verify.{suite}_s": "s" for suite in workloads.SUITES},
    "result.terms": "count", "result.max_coeff_bits": "bits",
    "trace.overhead_s": "s",
}

_RESULT = ("result.terms", "result.max_coeff_bits")
#: per-layer metrics that must not read zero on a workload that exercises them
MUST_MOVE = {
    "moduli_sweep": [f"{layer}.calls" for layer in (
        "laurent", "motive", "series", "macdonald", "moduli", "jacobians", "cli")]
    + [c for c in tracing.COUNTERS if not c.startswith("realize.")]
    + list(tracing.REPEATS) + list(_RESULT),
    "realize_batch": [f"{layer}.calls" for layer in (
        "laurent", "motive", "realize", "cli")]
    + [c for c in tracing.COUNTERS if not c.startswith("series.")] + list(_RESULT),
    "verify_all": [f"{layer}.calls" for layer in tracing.LAYERS]
    + list(tracing.COUNTERS) + list(tracing.REPEATS) + list(_RESULT)
    + [f"verify.{suite}_s" for suite in workloads.SUITES],
}


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def environment() -> dict:
    return {
        "git_rev": git_rev(),
        "src_sha256": src_digest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
    }


def git_rev() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("MOTIVE_FORGE_ORDER", None)  # the command line would honour it
    return env


def run_child(argv: list[str], deadline: float) -> tuple[subprocess.CompletedProcess, float]:
    """Run a child to completion from the checkout root; returns it and its wall time."""
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("out of time before starting a child process")
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=left)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise BenchError(f"child timed out: {argv}") from exc
    return proc, time.perf_counter() - t0


def worker(mode: str, args, deadline: float) -> dict:
    argv = [sys.executable, str(BENCH / "worker.py"), mode, "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds)]
    if args.tiny:
        argv.append("--tiny")
    proc, _ = run_child(argv, deadline)
    if proc.returncode != 0:
        raise BenchError(f"worker {mode} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(samples: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest ladder percentile with at least ten
    samples beyond it, by nearest rank."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in TAIL_LADDER:
        rank = max(1, -(-round(p * 10) * n // 1000))  # ceil(p·n/100)
        if n - rank >= 10:
            return p, ordered[rank - 1]
    return 100.0, ordered[-1]


def end_to_end(args, deadline: float) -> tuple[dict | None, int, list[str], list[str]]:
    """Metrics, attempted, failures, notes; metrics is None if no measured
    request succeeded."""
    failures: list[str] = []
    notes: list[str] = []

    setups, setups_raw, inputs = [], [], set()
    for _ in range(SETUP_RUNS):
        out = worker("setup", args, deadline)
        setups.append(out["setup_s"])
        setups_raw.append(out["setup_raw_s"])
        inputs.add(out["inputs"])
    if len(inputs) != 1:
        failures.append("set-up built different inputs from the same seed")

    argv = [sys.executable, "-m", "motiveforge", *workloads.CLI_COMMANDS[args.workload]]
    want = workloads.load_reference()["cli"][args.workload]
    colds, colds_raw = [], []
    cpus = os.sched_getaffinity(0)
    # the child inherits one CPU with this process, so the loop timings
    # around it see the contention it sees
    os.sched_setaffinity(0, {max(cpus)})
    try:
        for _ in range(CLI_RUNS):
            loops = calibration.sample_for(0.1)
            proc, wall = run_child(argv, deadline)
            loops += calibration.sample_for(0.1)
            colds.append(wall * calibration.factor(loops))
            colds_raw.append(wall)
            if proc.returncode != 0 or workloads.digest(proc.stdout) != want:
                failures.append(f"cold command line: exit {proc.returncode}, "
                                "output differs from the reference digest")
    finally:
        os.sched_setaffinity(0, cpus)

    res = worker("measure", args, deadline)
    failures += res["failures"]
    attempted = res["attempted"] + SETUP_RUNS + CLI_RUNS
    lat = res["latencies_ms"]
    if not lat:
        return None, attempted, failures, []
    pct, tail_ms = tail(lat)
    metrics = {
        "wall_s": statistics.median(res["walls_s"]),
        "req_p50_ms": statistics.median(lat),
        "req_tail_ms": tail_ms,
        "setup_s": statistics.median(setups),
        "cli_cold_s": statistics.median(colds),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    notes += [f"wall_s: median of {len(res['walls_s'])} warm passes",
              f"req_tail_ms: p{pct:g} of {len(lat)} request samples",
              f"setup_s: median of {SETUP_RUNS} fresh processes",
              f"cli_cold_s: median of {CLI_RUNS} runs of "
              f"`python -m motiveforge {' '.join(workloads.CLI_COMMANDS[args.workload])}`",
              "times are calibrated (calibration.py); raw medians: "
              f"wall_s {statistics.median(res['walls_raw_s']):.4g}, "
              f"setup_s {statistics.median(setups_raw):.4g}, "
              f"cli_cold_s {statistics.median(colds_raw):.4g}"]
    return metrics, attempted, failures, notes


def per_layer(args, deadline: float) -> tuple[dict | None, int, list[str], list[str]]:
    res = worker("trace", args, deadline)
    failures = list(res["failures"])
    layers = res.get("layers")
    if layers is None:  # no request of the untraced passes succeeded
        return None, res["attempted"], failures, []
    zero = [name for name in MUST_MOVE[args.workload] if not layers[name]]
    if zero:
        failures.append(f"per-layer counters read zero on {args.workload}: {zero}")
    notes = [f"trace.overhead_s: traced pass {layers['trace.overhead_s']:+.4f} s "
             f"against the median of {len(res['walls_s'])} untraced passes"]
    return layers, res["attempted"], failures, notes


def report(failures: list[str], attempted: int, env: dict) -> None:
    print(f"  fail_frac {len(failures) / attempted:.6g} "
          f"({len(failures)} of {attempted} attempted)")
    for line in failures[:20]:
        print(f"  FAILED {line}")
    print("env " + json.dumps(env))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=int, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--profile", metavar="WORKLOAD", choices=workloads.WORKLOADS,
                   help="print the top cProfile functions of one pass "
                        "(diagnostic only, never a source of metrics)")
    p.add_argument("--tiny", action="store_true",
                   help="tiny inputs, for the self-test only")
    args = p.parse_args(argv)
    if (args.workload is None) == (args.profile is None):
        p.error("give exactly one of --workload and --profile")

    if not (ROOT / "src" / "motiveforge" / "__init__.py").is_file():
        print(f"bench: no motiveforge sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S

    if args.profile:
        cmd = [sys.executable, str(BENCH / "worker.py"), "profile", "--workload",
               args.profile, "--seed", str(args.seed)]
        return subprocess.run(cmd, cwd=ROOT, env=child_env(),
                              timeout=DEADLINE_S).returncode

    env = environment()
    try:
        if args.trace:
            metrics, attempted, failures, notes = per_layer(args, deadline)
            units = PER_LAYER_UNITS
        else:
            metrics, attempted, failures, notes = end_to_end(args, deadline)
            units = END_TO_END_UNITS
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    env["loadavg_end"] = os.getloadavg()

    print(f"workload {args.workload}, seed {args.seed}, {args.seconds} s, "
          f"trace {args.trace}")
    if metrics is None:
        report(failures, attempted, env)
        print("bench: no measured request succeeded, so nothing was timed",
              file=sys.stderr)
        return 1
    for name, unit in units.items():
        print(f"  {name:34s} {metrics[name]:>16.6g} {unit}")
    for line in notes:
        print(f"  ({line})")
    report(failures, attempted, env)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
