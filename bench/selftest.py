"""Self-test of the benchmark.

    python3 bench/selftest.py

Runs every workload at a tiny size in both trace modes and asserts that each
metric named in BENCHMARK.json is printed with its unit and that every output
passed its check.  Then shows that the checks bite: a tampered reference
digest, and a corrupted output on a request checked only by its invariant,
each count as a failed request; that a run in which every request raises
still ends; and that a request made slower by extra pure-Python work reads
slower by the same ratio after calibration as before it.
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def require(ok, what) -> None:
    """Like assert, but kept under python -O."""
    if not ok:
        raise AssertionError(what)


def run_tiny(workload: str, trace: int) -> tuple[dict, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = run.main(["--workload", workload, "--seed", "0", "--seconds", "1",
                           "--trace", str(trace), "--tiny"])
    text = out.getvalue()
    require(status == 0, f"{workload} trace {trace} exited {status}:\n{text}")
    return json.loads(text.strip().splitlines()[-1]), text


def check_metrics() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    require([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS),
            "BENCHMARK.json lists other workloads than workloads.py")
    for workload in workloads.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result, text = run_tiny(workload, trace)
            require(set(result) == {"correct", "attempted", "failed", "metrics"}, result)
            require(result["correct"] and result["failed"] == 0, text)
            require(result["attempted"] >= 1, result)
            names = [m["name"] for m in spec[key]]
            require(list(result["metrics"]) == names, (workload, trace))
            for m in spec[key]:
                got = result["metrics"][m["name"]]
                require(got["unit"] == m["unit"], (m, got))
                require(isinstance(got["value"], (int, float)), (m, got))
                require(f"{m['name']} " in text and f" {m['unit']}\n" in text, m)
            print(f"ok   {workload} trace {trace}: {len(names)} metrics, "
                  f"{result['attempted']} attempted, 0 failed")


def check_tampering() -> None:
    reference = workloads.load_reference()
    _, requests, _ = worker.setup("moduli_sweep", 0, True, reference)

    clean = worker.Pass(reference)
    clean.run(requests)
    require(clean.attempted == len(requests) and not clean.failures, clean.failures)

    victim = requests[0].rid
    tampered = dict(reference, digests=dict(reference["digests"]))
    tampered["digests"][victim] = "0" * 64
    runner = worker.Pass(tampered)
    runner.run(requests)
    require(runner.failures and runner.failures[0].startswith(victim),
            runner.failures)
    print(f"ok   tampered digest of {victim}: fail_frac "
          f"{len(runner.failures)}/{runner.attempted}")

    # a seed off the reference relies on the invariants alone
    unchecked = dict(reference, digests={})
    req = next(r for r in requests if r.rid.startswith("sym_power_curve:"))
    blob = json.loads(req.run())
    component = next(iter(blob["lambda"].values()))
    component[next(iter(component))] += 1
    bad = workloads.Request(req.rid, lambda: workloads.dump(blob), req.check)
    runner = worker.Pass(unchecked)
    runner.run([req, bad])
    require(len(runner.failures) == 1 and "Betti" in runner.failures[0],
            runner.failures)
    print(f"ok   corrupted {req.rid} caught by its invariant: "
          f"{runner.failures[0][:80]}")


def check_all_failing() -> None:
    def broken() -> str:
        raise ValueError("broken on purpose")

    reference = workloads.load_reference()
    runner = worker.measure([workloads.Request("broken", broken, None)],
                            reference, 0.2)
    require(runner.attempted == 2 and len(runner.failures) == 2
            and not runner.walls, (runner.attempted, runner.failures[:2]))
    print(f"ok   every request raising: the run ends, fail_frac "
          f"{len(runner.failures)}/{runner.attempted}")


def spin(n: int) -> int:
    total = 0
    for i in range(n):
        total += i * i
    return total


def elapsed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def check_calibration() -> None:
    """The calibration kernels must not absorb a real slowdown: give one
    request a fixed amount of extra pure-Python work, with a large heap
    alive (as a cache would leave), and its calibrated latency must rise by
    the ratio its raw latency rises by."""
    reference = workloads.load_reference()
    _, requests, _ = worker.setup("moduli_sweep", 0, True, reference)
    req = max(requests, key=lambda r: elapsed(r.run))
    # repeated to span several sampler intervals, as the passes of a run do
    reps = max(1, round(0.1 / elapsed(req.run)))
    base = workloads.Request(req.rid, lambda: [req.run() for _ in range(reps)][-1],
                             req.check)
    # extra work of about twice the request's own
    extra = int(100_000 * 2 * elapsed(base.run) / elapsed(lambda: spin(100_000)))
    slow = workloads.Request(req.rid, lambda: (spin(extra), base.run())[1], req.check)

    heap = [(i, [i]) for i in range(300_000)]  # noqa: F841  (kept alive on purpose)
    light = worker.Pass(reference)
    heavy = worker.Pass(reference)
    for _ in range(15):
        light.run([base])
        heavy.run([slow])
    require(not light.failures and not heavy.failures,
            light.failures + heavy.failures)
    raw = statistics.median(heavy.walls_raw) / statistics.median(light.walls_raw)
    cal = statistics.median(heavy.walls) / statistics.median(light.walls)
    require(raw > 1.5 and 0.8 < cal / raw < 1.25, (req.rid, raw, cal))
    print(f"ok   extra work on {req.rid}: raw latency x{raw:.2f}, "
          f"calibrated x{cal:.2f}")


if __name__ == "__main__":
    check_calibration()
    check_all_failing()
    check_tampering()
    check_metrics()
    print("selftest passed")
