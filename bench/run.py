"""gluecount benchmark: run one workload for a fixed time and report metrics.

    python3 bench/run.py --workload brute-oracle --seed 1 --seconds 28 --trace 0

Run it from anywhere inside a checkout; it imports gluecount from the
checkout's src/. Each run of the workload is a fresh interpreter (child.py),
one at a time, so every run pays for the import, the factorial table and
the memo as a CLI user does. Runs start while the next one is expected to
end within --seconds (at least three). The last line of stdout is one JSON
object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (medians over the runs);
with --trace 1, plain and traced runs alternate and the metrics are the
per-module ones from the traced runs, plus the tracing overhead. See
bench/README.md for the workloads and every metric.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
MIN_RUNS = 3
SETUP_SAMPLES = 3
WORK_MODES = ("plain", "traced")

# Per-module metrics reported by --trace 1: (name, unit, where the value
# comes from). Spans give calls, busy and self seconds; counters come from
# the workload's checks.
PER_LAYER = (
    ("gluing.count_brute.calls", "count", ("span", "gluing.count_brute", "calls")),
    ("gluing.count_brute.busy_s", "s", ("span", "gluing.count_brute", "busy_s")),
    ("gluing.enumerate_classes.busy_s", "s", ("span", "gluing.enumerate_classes", "busy_s")),
    ("gluing.classes", "count", ("counter", "gluing.classes")),
    ("verify.suite_structural.busy_s", "s", ("span", "verify.suite_structural", "busy_s")),
    ("verify.checks", "count", ("counter", "verify.checks")),
    ("formula.count_closed.calls", "count", ("span", "formula.count_closed", "calls")),
    ("formula.count_closed.busy_s", "s", ("span", "formula.count_closed", "busy_s")),
    ("hz.hz_sum.busy_s", "s", ("span", "hz.hz_sum", "busy_s")),
    ("hz.hz_from_gluing_counts.busy_s", "s", ("span", "hz.hz_from_gluing_counts", "busy_s")),
    ("hz.hz_tanh.busy_s", "s", ("span", "hz.hz_tanh", "busy_s")),
    ("hz.gf_identity_check.busy_s", "s", ("span", "hz.gf_identity_check", "busy_s")),
    ("hz.gf_identity_check.self_s", "s", ("span", "hz.gf_identity_check", "self_s")),
    ("recursion.count_recursive.calls", "count", ("span", "recursion.count_recursive", "calls")),
    ("recursion.count_recursive.busy_s", "s", ("span", "recursion.count_recursive", "busy_s")),
    ("recursion.memo_entries", "count", ("counter", "recursion.memo_entries")),
    ("recursion.memo_store_load_verify.busy_s", "s", ("span", "recursion.memo_store_load_verify", "busy_s")),
    ("recursion.memo_store_load.busy_s", "s", ("span", "recursion.memo_store_load", "busy_s")),
    ("recursion.memo_store_save.busy_s", "s", ("span", "recursion.memo_store_save", "busy_s")),
    ("recursion.cache_bytes", "bytes", ("counter", "recursion.cache_bytes")),
    ("cli.main.calls", "count", ("span", "cli.main", "calls")),
    ("cli.main.busy_s", "s", ("span", "cli.main", "busy_s")),
    ("cli.main.self_s", "s", ("span", "cli.main", "self_s")),
    ("cli.output_bytes", "bytes", ("counter", "cli.output_bytes")),
)


def environment() -> dict:
    """Machine, interpreter and the size of the code under test."""
    cpu = platform.processor()
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        for line in cpuinfo.read_text(encoding="utf-8", errors="replace").splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    src_lines = sum(
        len(path.read_bytes().splitlines()) for path in sorted((ROOT / "src").rglob("*.py"))
    )
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "src_lines": src_lines,
    }


class Run:
    """Outcome of one child interpreter."""

    def __init__(self, mode: str) -> None:
        self.mode = mode
        self.timed_out = False
        self.error = ""
        self.result: dict | None = None
        self.spawned = 0.0
        self.maxrss_kb = 0

    @property
    def ok(self) -> bool:
        return self.result is not None

    @property
    def wall_s(self) -> float:
        """Seconds from the end of set-up to the last checked output, at the
        reference speed (see REFERENCE_S in child.py)."""
        return self.result["wall_s"]

    @property
    def setup_raw_s(self) -> float:
        """Seconds from starting the child to the end of its set-up."""
        return self.result["ready"] - self.spawned

    @property
    def setup_s(self) -> float:
        """setup_raw_s at the reference speed."""
        return self.setup_raw_s * self.result["setup_scale"]


def run_child(config: dict, timeout: float) -> Run:
    """Start child.py, wait for it at most `timeout` seconds (then kill it),
    and read its result and its own peak RSS from wait4."""
    run = Run(config["mode"])
    result_path = Path(config["result"])
    result_path.unlink(missing_ok=True)
    stderr_path = result_path.with_suffix(".stderr")
    with open(stderr_path, "wb") as stderr:
        run.spawned = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "child.py"), json.dumps(config)],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=stderr,
        )
        status: list = []
        waiter = threading.Thread(target=lambda: status.append(os.wait4(proc.pid, 0)))
        waiter.start()
        try:
            waiter.join(timeout)
            run.timed_out = waiter.is_alive()
        finally:  # also when SIGTERM or Ctrl-C interrupts the wait
            if waiter.is_alive():
                proc.kill()
                waiter.join()
    _, wait_status, usage = status[0]
    proc.returncode = os.waitstatus_to_exitcode(wait_status)
    run.maxrss_kb = usage.ru_maxrss
    if run.timed_out:
        run.error = f"timed out after {timeout:g} s"
    elif proc.returncode != 0 or not result_path.exists():
        tail = stderr_path.read_text(encoding="utf-8", errors="replace").strip().splitlines()[-5:]
        run.error = f"exit code {proc.returncode}: " + " | ".join(tail)
    else:
        run.result = json.loads(result_path.read_text(encoding="utf-8"))
    return run


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def describe(name: str, unit: str, values: list[float]) -> str:
    q1, q2, q3 = (str(int(q)) if float(q).is_integer() else f"{q:.6g}" for q in quartiles(values))
    return f"{name} = {q2} {unit} (median of {len(values)}; quartiles {q1}..{q3})"


def layer_value(run: Run, source: tuple) -> float:
    if source[0] == "counter":
        return run.result["counters"].get(source[1], 0)
    return run.result["spans"].get(source[1], {}).get(source[2], 0)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28.0, help="how long to keep starting runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=tuple(workloads.SIZES), default="full",
                        help="'smoke' shrinks every workload for the benchmark's own tests")
    parser.add_argument("--timeout", type=float, default=60.0,
                        help="seconds one child interpreter may take before it is killed")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "gluecount" / "__init__.py").is_file():
        print(f"error: no gluecount sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = environment()
    print("env " + json.dumps(env, sort_keys=True), flush=True)
    planned = len(workloads.make_plan(args.workload, args.seed, args.scale))
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".bench_work"))
    try:
        runs = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another invocation
            workdir.parent.rmdir()

    # Every plain or traced run attempts the whole plan; a prepare or set-up
    # child that fails counts as one run whose every operation failed.
    attempted = planned * sum(1 for r in runs if r.mode in WORK_MODES or not r.ok)
    failed = 0
    for run in runs:
        if run.ok:
            failures = run.result.get("failures", [])
            failed += len(failures)
            for message in failures[:5]:
                print(f"FAILED ({run.mode} run): {message}")
        else:
            failed += planned
            print(f"FAILED ({run.mode} run): {run.error}")
    plain = [r for r in runs if r.ok and r.mode == "plain"]
    traced = [r for r in runs if r.ok and r.mode == "traced"]
    setups = [r for r in runs if r.ok and r.mode in ("plain", "setup")]
    print(f"workload {args.workload}, seed {args.seed}, scale {args.scale}: "
          f"{len(plain)} plain, {len(traced)} traced and {len(setups) - len(plain)} set-up-only runs")
    print(f"failed_frac = {failed / attempted:.6g} ({failed} of {attempted} operations)")

    metrics: dict[str, dict] = {}
    if plain:
        e2e = {
            "wall_s": ("s", [r.wall_s for r in plain]),
            "setup_s": ("s", [r.setup_s for r in setups]),
            "peak_rss_mb": ("MB", [r.maxrss_kb / 1024 for r in plain]),
        }
        for name, (unit, values) in e2e.items():
            print(describe(name, unit, values))
            if not args.trace:
                metrics[name] = {"value": statistics.median(values), "unit": unit}
        print(describe("wall_raw_s", "s", [r.result["wall_raw_s"] for r in plain]))
        print(describe("setup_raw_s", "s", [r.setup_raw_s for r in setups]))
    if args.trace and traced and plain:
        for name, unit, source in PER_LAYER:
            values = [layer_value(r, source) for r in traced]
            print(describe(name, unit, values))
            metrics[name] = {"value": statistics.median(values), "unit": unit}
        print(describe("traced wall_raw_s", "s", [r.result["wall_raw_s"] for r in traced]))
        overhead = statistics.median([r.wall_s for r in traced]) - statistics.median([r.wall_s for r in plain])
        print(f"trace.overhead_s = {overhead:.6g} s (median traced wall_s - median plain wall_s)")
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def measure(args: argparse.Namespace, workdir: Path) -> list[Run]:
    """Prepare once, then start children one at a time, a cycle of modes at
    a time, while the next cycle is expected to end within --seconds, and
    until at least MIN_RUNS cycles are done. Stops at the first child that
    fails to finish."""
    config = {
        "root": str(ROOT),
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "workdir": str(workdir),
        "result": str(workdir / "result.json"),
        "timeout": args.timeout,
    }
    prepared = run_child({**config, "mode": "prepare", "run": 0}, args.timeout)
    if not prepared.ok:
        return [prepared]
    # A plain run is followed by SETUP_SAMPLES set-up-only children, so that
    # setup_s is a median of many samples.
    cycle = ("plain", "traced") if args.trace else ("plain",) + ("setup",) * SETUP_SAMPLES
    runs: list[Run] = []
    durations: list[float] = []
    start = time.monotonic()
    while len(runs) < MIN_RUNS * len(cycle) or (
        time.monotonic() - start + statistics.median(durations) <= args.seconds
    ):
        began = time.monotonic()
        for mode in cycle:
            run = run_child({**config, "mode": mode, "run": len(runs)}, args.timeout)
            runs.append(run)
            if not run.ok:
                return runs
        durations.append(time.monotonic() - began)
    return runs


if __name__ == "__main__":
    sys.exit(main())
