"""One run of one workload, in a fresh interpreter started by run.py.

    python3 bench/child.py '<json config>'

The config names the checkout root, the workload, seed and scale, the mode
(`prepare`, `setup`, `plain` or `traced`; a `setup` child stops at the
end of set-up), a scratch directory, the result file and the timeout.
The child imports gluecount from the checkout's src/, builds the run's
inputs, notes the time (the end of set-up), runs and checks every operation
and writes one JSON object to the result file: the end of set-up, the time
the operations took (as measured and scaled to a reference speed, see
REFERENCE_S), the failures, counters and spans.

In `traced` mode, spans are recorded around every call into the public
functions listed in TRACED. Each function is replaced, in every gluecount
module that holds it, by a wrapper that records (name, start, end, parent);
so a span also opens when one gluecount module calls another's public
function (cli -> recursion, hz -> formula, hz.gf_identity_check -> hz_sum).
Private helpers are never wrapped, and neither is `exact`: formula and hz
call it once per term of their inner sums, where a wrapper would time
itself. The spans stay in memory until the run ends.
"""

from __future__ import annotations

import json
import math
import signal
import sys
import time
from pathlib import Path

# The machine's speed drifts by 10-60 % over seconds to minutes, because
# other tenants share its cores; CPU time drifts with it. So each child
# times a fixed reference loop right after its set-up, between operations
# at most every SAMPLE_EVERY_S, and after its last operation. The work
# between two samples is scaled by REFERENCE_S / (mean of the two loop
# times), and the set-up by REFERENCE_S / (first loop time): the results are
# seconds at the speed at which the loop takes REFERENCE_S, about its time
# on the 2-vCPU Xeon the benchmark was defined on. The loop keeps no object
# beyond an iteration (its table is built once, at import), so it does not
# move peak RSS.
REFERENCE_S = 0.015
SAMPLE_EVERY_S = 0.5
_TABLE = {(a, b): 0 for a in range(128) for b in range(11)}

# (module, public function) pairs that get a span in traced runs.
TRACED = (
    ("gluing", "count_brute"),
    ("gluing", "enumerate_classes"),
    ("formula", "count_closed"),
    ("hz", "hz_sum"),
    ("hz", "hz_tanh"),
    ("hz", "hz_from_gluing_counts"),
    ("hz", "gf_identity_check"),
    ("recursion", "count_recursive"),
    ("recursion", "memo_store_load"),
    ("recursion", "memo_store_save"),
    ("verify", "suite_structural"),
    ("cli", "main"),
)


class Tracer:
    """Spans kept in memory as [name, start, end, parent index]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        spans, open_spans, clock = self.spans, self._open, time.perf_counter

        def traced(*args, **kwargs):
            span_name = name
            if name == "recursion.memo_store_load" and (kwargs.get("verify") or args[1:2] == (True,)):
                span_name = "recursion.memo_store_load_verify"
            record = [span_name, 0.0, 0.0, open_spans[-1] if open_spans else -1]
            open_spans.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                open_spans.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "gluecount" or n.startswith("gluecount.")]
        for module_name, func_name in TRACED:
            fn = getattr(sys.modules[f"gluecount.{module_name}"], func_name)
            wrapper = self.wrap(f"{module_name}.{func_name}", fn)
            for module in modules:
                if getattr(module, func_name, None) is fn:
                    setattr(module, func_name, wrapper)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy seconds (sum of durations) and self
        seconds (durations minus the time their child spans cover)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for index, (name, start, end, _) in enumerate(self.spans):
            entry = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["busy_s"] += end - start
            entry["self_s"] += end - start - child_time[index]
        return out


def reference_loop() -> float:
    """Seconds this fixed mix of tuple, dict, list and big-int work takes.
    Every object it makes is freed within its iteration."""
    start = time.perf_counter()
    table, acc = _TABLE, 1
    for i in range(20000):
        key = (i & 127, i % 11)
        table[key] = table.get(key, 0) + 1
        acc = (acc * 6364136223846793005 + i) % (1 << 89)
        parts = [key[0], key[1], i]
        parts.append(len(parts))
    return time.perf_counter() - start


class Speedometer:
    """Reference-loop samples of one run, and the work time between them."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.gaps: list[float] = []
        self._last: float | None = None

    def sample(self) -> None:
        start = time.monotonic()
        if self._last is not None:
            self.gaps.append(start - self._last)
        self.samples.append(reference_loop())
        self._last = time.monotonic()

    def between(self) -> None:
        if time.monotonic() - self._last >= SAMPLE_EVERY_S:
            self.sample()

    def setup_scale(self) -> float:
        return REFERENCE_S / self.samples[0]

    def work(self) -> tuple[float, float]:
        """Seconds of work between the first and last sample, as measured
        and at the reference speed."""
        scaled = sum(
            gap * 2 * REFERENCE_S / (before + after)
            for gap, before, after in zip(self.gaps, self.samples, self.samples[1:])
        )
        return sum(self.gaps), scaled


def main() -> None:
    config = json.loads(sys.argv[1])
    # run.py kills a child at its timeout; this ends an orphan whose parent died.
    signal.alarm(math.ceil(config["timeout"]) + 5)
    src = Path(config["root"]) / "src"
    sys.path.insert(0, str(src))
    import gluecount
    from gluecount import cli, verify  # noqa: F401  (cli and verify are not imported by the package)

    if not Path(gluecount.__file__).resolve().is_relative_to(src.resolve()):
        sys.exit(f"gluecount was imported from {gluecount.__file__}, not from {src}")
    import workloads

    workdir = Path(config["workdir"])
    workload, scale = config["workload"], config["scale"]
    result: dict = {}
    if config["mode"] == "prepare":
        workloads.prepare(workload, scale, workdir)
    else:
        tracer = Tracer() if config["mode"] == "traced" else None
        if tracer is not None:
            tracer.install()
        plan = workloads.make_plan(workload, config["seed"], scale)
        ctx = workloads.Context(workload, scale, workdir, config["run"])
        result["ready"] = time.monotonic()
        speed = Speedometer()
        speed.sample()
        result["setup_scale"] = speed.setup_scale()
        if config["mode"] != "setup":
            failures = workloads.execute(plan, ctx, speed.between)
            speed.sample()
            result["wall_raw_s"], result["wall_s"] = speed.work()
            result.update(
                failures=failures,
                counters=ctx.counters,
                spans=tracer.summary() if tracer is not None else {},
            )
        ctx.cache.unlink(missing_ok=True)
    Path(config["result"]).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
