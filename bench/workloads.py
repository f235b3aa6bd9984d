"""The benchmark's workloads: their inputs, their calls into gluecount and
the check on every output.

A plan is a list of operations, built from the seed alone. The seed shuffles
the operations and picks inputs from fixed pools whose members cost the same,
so every seed does the same amount of work. Importing this module does not
import gluecount: run.py builds plans here only to count operations, and
child.py imports gluecount from the working tree before calling `prepare`,
building a `Context` and calling `execute`.

Oracles that live in this file, independent of gluecount:
  * the Harer-Zagier three-term recurrence for eps_g(N);
  * the number of raw gluing words on up to N slots;
  * SHA-256 digests, recorded at a known-good commit, of the stdout of
    every CLI invocation and of every cache file the workloads write.
The other checks compare two routes of the program: brute against closed,
and recursive against closed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
import shutil
from pathlib import Path

WORKLOADS = ("brute-oracle", "closed-forms", "recursion-cold", "recursion-warm")

GOLDEN_PATH = Path(__file__).with_name("golden.json")

# Sizes per scale. "full" is what the benchmark measures; "smoke" is a tiny
# version of each workload for the benchmark's own tests.
SIZES = {
    "full": {
        "brute-oracle": {"max_polygon": 8, "structural": 8, "enumerate": ((8, 4), (9, 3))},
        "closed-forms": {
            "table": (6, 5, 3),
            "hz_sum": 23,
            "hz_from_gluing_counts": 19,
            "hz_tanh": (12, 50),
            "gf_order": 16,
        },
        "recursion-cold": {"grid": (3, 4, 5)},
        "recursion-warm": {"grid": (3, 5, 4), "pool": 32, "queries": 6, "table": (2, 3, 4)},
    },
    "smoke": {
        "brute-oracle": {"max_polygon": 5, "structural": 5, "enumerate": ((5, 1), (6, 2))},
        "closed-forms": {
            "table": (1, 2, 2),
            "hz_sum": 8,
            "hz_from_gluing_counts": 8,
            "hz_tanh": (3, 10),
            "gf_order": 6,
        },
        "recursion-cold": {"grid": (1, 2, 3)},
        "recursion-warm": {"grid": (1, 2, 3), "pool": 4, "queries": 2, "table": (1, 2, 2)},
    },
}

CACHE_TOKEN = "{cache}"


# ---------------------------------------------------------------- inputs


def _sized_tuples(length: int, bound: int):
    """Non-increasing tuples of `length` sizes in 0..bound, not all zero."""
    for parts in itertools.combinations_with_replacement(range(bound, -1, -1), length):
        if any(parts):
            yield parts


def polygon_signatures(max_polygon: int) -> list[tuple[int, tuple[int, ...]]]:
    """Every (genus, sizes) whose polygon has at most `max_polygon` edges."""
    sigs = []
    for genus in range((max_polygon + 2) // 4 + 1):
        for holes in range(1, (max_polygon + 2 - 4 * genus) // 2 + 1):
            budget = max_polygon + 2 - 4 * genus - 2 * holes
            for sizes in _sized_tuples(holes, budget):
                if sum(sizes) <= budget:
                    sigs.append((genus, sizes))
    return sigs


def grid_signatures(max_genus: int, max_holes: int, max_n: int) -> list[tuple[int, tuple[int, ...]]]:
    """Every (genus, sizes) with genus <= max_genus, at most max_holes
    boundaries, each of size <= max_n."""
    return [
        (genus, sizes)
        for genus in range(max_genus + 1)
        for holes in range(1, max_holes + 1)
        for sizes in _sized_tuples(holes, max_n)
    ]


def label_pool(count: int) -> list[tuple[int, ...]]:
    """Four sets of `count` distinct free labels; each costs the same to
    enumerate, and each prints different classes."""
    return [
        tuple(range(1, count + 1)),
        tuple(range(count, 0, -1)),
        tuple(range(2, 2 * count + 1, 2)),
        tuple(range(count + 3, 3, -1)),
    ]


def warm_pool(size: dict) -> list[tuple[int, tuple[int, ...]]]:
    """The fixed pool of `count` queries of recursion-warm: every grid
    signature is in the prepared cache, so each query is a memo hit."""
    sigs = grid_signatures(*size["grid"])
    step = max(1, len(sigs) // size["pool"])
    pool = []
    for index, (genus, sizes) in enumerate(sigs[::step][: size["pool"]]):
        shift = index % len(sizes)
        pool.append((genus, sizes[shift:] + sizes[:shift]))
    return pool


def _join(values) -> str:
    return ",".join(str(v) for v in values)


def _grid_args(grid) -> list[str]:
    max_genus, max_holes, max_n = grid
    return ["--max-genus", str(max_genus), "--max-holes", str(max_holes), "--max-n", str(max_n)]


def count_argv(genus: int, sizes: tuple[int, ...]) -> list[str]:
    return [
        "count", "--genus", str(genus), "--holes", _join(sizes),
        "--method", "recursive", "--cache", CACHE_TOKEN,
    ]


def enumerate_argv(polygon: int, labels: tuple[int, ...]) -> list[str]:
    return ["enumerate", "--N", str(polygon), "--labels", _join(labels)]


def table_argv(grid, cache: bool = False) -> list[str]:
    return ["table", *_grid_args(grid), *(["--cache", CACHE_TOKEN] if cache else [])]


def cache_key(grid) -> str:
    """Golden key of the cache file that the recursion writes for `grid`."""
    return " ".join(["cache-file", *_grid_args(grid)])


def cli_pool(workload: str, scale: str) -> list[list[str]]:
    """Every CLI invocation a plan of this workload can contain."""
    size = SIZES[scale][workload]
    if workload == "brute-oracle":
        return [
            enumerate_argv(polygon, labels)
            for polygon, count in size["enumerate"]
            for labels in label_pool(count)
        ]
    if workload == "closed-forms":
        return [table_argv(size["table"])]
    if workload == "recursion-warm":
        return [count_argv(g, s) for g, s in warm_pool(size)] + [table_argv(size["table"], cache=True)]
    return []


def _permuted(rng: random.Random, sizes: tuple[int, ...]) -> tuple[int, ...]:
    order = list(sizes)
    rng.shuffle(order)
    return tuple(order)


def make_plan(workload: str, seed: int, scale: str = "full") -> list[tuple]:
    """The operations of one run, in order. Each is a tuple (kind, *args)."""
    rng = random.Random(f"{workload}/{seed}")
    size = SIZES[scale][workload]
    tail: list[tuple] = []
    if workload == "brute-oracle":
        ops = [("brute", g, _permuted(rng, s)) for g, s in polygon_signatures(size["max_polygon"])]
        ops += [("cli", enumerate_argv(n, rng.choice(label_pool(k)))) for n, k in size["enumerate"]]
        ops.append(("structural", size["structural"]))
    elif workload == "closed-forms":
        ops = [("cli", table_argv(size["table"]))]
        for route in ("hz_sum", "hz_from_gluing_counts"):
            ops += [("hz", route, g, n) for n in range(1, size[route] + 1) for g in range(n // 2 + 1)]
        max_genus, max_n = size["hz_tanh"]
        ops += [
            ("hz", "hz_tanh", g, n)
            for n in range(1, max_n + 1)
            for g in range(min(max_genus, n // 2) + 1)
        ]
        ops.append(("gf", size["gf_order"]))
    elif workload == "recursion-cold":
        ops = [("recursive", g, _permuted(rng, s)) for g, s in grid_signatures(*size["grid"])]
        tail = [("save",), ("load_verify",)]
    elif workload == "recursion-warm":
        picks = rng.sample(warm_pool(size), size["queries"])
        ops = [("count_cli", g, s) for g, s in picks]
        ops.append(("cli", table_argv(size["table"], cache=True)))
        tail = [("cache_intact",)]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(ops)
    return ops + tail


# ---------------------------------------------------------------- oracles


def hz_recurrence(max_genus: int, max_n: int) -> dict[tuple[int, int], int]:
    """eps_g(N) for g <= max_genus, N <= max_n, by the Harer-Zagier recurrence

        (N+1) eps_g(N) = 2(2N-1) eps_g(N-1) + (N-1)(2N-1)(2N-3) eps_{g-1}(N-2)

    from eps_0(0) = 1 (Harer & Zagier, Invent. Math. 85, 1986)."""
    eps = {(0, 0): 1}
    for n in range(1, max_n + 1):
        for g in range(min(max_genus, n // 2) + 1):
            total = 2 * (2 * n - 1) * eps.get((g, n - 1), 0)
            total += (n - 1) * (2 * n - 1) * (2 * n - 3) * eps.get((g - 1, n - 2), 0)
            value, rem = divmod(total, n + 1)
            if rem:
                raise ArithmeticError(f"recurrence not integral at g={g}, N={n}")
            eps[(g, n)] = value
    return eps


def raw_word_count(max_polygon: int) -> int:
    """Raw gluing words on 1..max_polygon slots: for f distinct free labels
    on n slots, n!/(n-f)! placements times (n-f-1)!! pairings of the rest."""
    total = 0
    for n in range(1, max_polygon + 1):
        for free in range(n % 2, n + 1, 2):
            placements = 1
            for k in range(n - free + 1, n + 1):
                placements *= k
            pairings = 1
            for k in range(n - free - 1, 0, -2):
                pairings *= k
            total += placements * pairings
    return total


def load_golden() -> dict[str, str]:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))["digests"]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------- running


def run_cli(argv: list[str]) -> tuple[int, str]:
    """gluecount.cli.main(argv) with its stdout captured."""
    from gluecount import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def build_cache(grid, path: Path) -> None:
    """Fill a memo over `grid` by the recursion and save it to `path`."""
    from gluecount import formula, recursion

    memo = recursion.CountTable()
    for genus, sizes in grid_signatures(*grid):
        recursion.count_recursive(formula.SurfaceSignature(genus, sizes), memo)
    recursion.memo_store_save(memo, path)


def prepare(workload: str, scale: str, workdir: Path) -> None:
    """Once per benchmark invocation, before any timed run."""
    if workload == "recursion-warm":
        build_cache(SIZES[scale][workload]["grid"], workdir / "prepared-cache.txt")


class Context:
    """What the operations of one run share: inputs, state and counters."""

    def __init__(self, workload: str, scale: str, workdir: Path, run_index: int) -> None:
        from gluecount import recursion

        self.size = SIZES[scale][workload]
        self.golden = load_golden()
        self.cache = workdir / f"cache-{run_index}.txt"
        self.cache.unlink(missing_ok=True)
        self.memo = recursion.CountTable()
        self.counters = {
            "gluing.classes": 0,
            "verify.checks": 0,
            "recursion.memo_entries": 0,
            "recursion.cache_bytes": 0,
            "cli.output_bytes": 0,
        }
        if workload == "closed-forms":
            max_n = max(self.size["hz_sum"], self.size["hz_from_gluing_counts"], self.size["hz_tanh"][1])
            self.eps = hz_recurrence(max_n // 2, max_n)
        if workload == "recursion-warm":
            shutil.copyfile(workdir / "prepared-cache.txt", self.cache)


def _golden_check(ctx: Context, key: str, data: bytes) -> str | None:
    expected = ctx.golden.get(key)
    if expected is None:
        return f"no golden digest for {key!r}"
    if sha256(data) != expected:
        return f"output of {key!r} differs from its golden digest"
    return None


def _invoke(ctx: Context, template: list[str]) -> tuple[str | None, str]:
    """Run the CLI on `template` with the run's cache file filled in; return
    (problem, stdout), checking the exit code and the golden digest."""
    code, out = run_cli([str(ctx.cache) if arg == CACHE_TOKEN else arg for arg in template])
    data = out.encode("utf-8")
    ctx.counters["cli.output_bytes"] += len(data)
    if code != 0:
        return f"exit code {code}", out
    return _golden_check(ctx, " ".join(template), data), out


def _cli(ctx: Context, template: list[str]) -> str | None:
    problem, out = _invoke(ctx, template)
    if template[0] == "enumerate":
        ctx.counters["gluing.classes"] += out.count("\n")
    return problem


def _count_cli(ctx: Context, genus: int, sizes: tuple[int, ...]) -> str | None:
    from gluecount import formula

    problem, out = _invoke(ctx, count_argv(genus, sizes))
    closed = formula.count_closed(formula.SurfaceSignature(genus, sizes))
    if out != f"{closed}\n":
        return f"recursive CLI printed {out!r}, closed gives {closed}"
    return problem


def _brute(ctx: Context, genus: int, sizes: tuple[int, ...]) -> str | None:
    from gluecount import formula, gluing

    sig = formula.SurfaceSignature(genus, sizes)
    brute = gluing.count_brute(sig)
    closed = formula.count_closed(sig)
    return None if brute == closed else f"brute {brute} != closed {closed}"


def _structural(ctx: Context, max_polygon: int) -> str | None:
    from gluecount import verify

    result = verify.suite_structural(max_polygon)
    ctx.counters["verify.checks"] += result.checked
    if not result.passed:
        return f"suite failed: {result.failure}"
    expected = raw_word_count(max_polygon)
    return None if result.checked == expected else f"checked {result.checked} words, expected {expected}"


def _hz(ctx: Context, route: str, genus: int, n: int) -> str | None:
    from gluecount import hz

    value = getattr(hz, route)(genus, n)
    expected = ctx.eps[(genus, n)]
    return None if value == expected else f"{route} gives {value}, recurrence {expected}"


def _gf(ctx: Context, order: int) -> str | None:
    from gluecount import hz

    report = hz.gf_identity_check(order)
    if report.holds and report.first_discrepancy is None and report.order == order:
        return None
    return f"identity fails: {report}"


def _recursive(ctx: Context, genus: int, sizes: tuple[int, ...]) -> str | None:
    from gluecount import formula, recursion

    sig = formula.SurfaceSignature(genus, sizes)
    value = recursion.count_recursive(sig, ctx.memo)
    closed = formula.count_closed(sig)
    return None if value == closed else f"recursive {value} != closed {closed}"


def _save(ctx: Context) -> str | None:
    from gluecount import recursion

    recursion.memo_store_save(ctx.memo, ctx.cache)
    data = ctx.cache.read_bytes()
    ctx.counters["recursion.memo_entries"] = len(ctx.memo)
    ctx.counters["recursion.cache_bytes"] = len(data)
    return _golden_check(ctx, cache_key(ctx.size["grid"]), data)


def _load_verify(ctx: Context) -> str | None:
    from gluecount import recursion

    loaded = recursion.memo_store_load(ctx.cache, verify=True)
    return None if loaded == ctx.memo else f"loaded {loaded!r}, saved {ctx.memo!r}"


def _cache_intact(ctx: Context) -> str | None:
    """The queries hit the cache only, so every save rewrote it unchanged."""
    data = ctx.cache.read_bytes()
    ctx.counters["recursion.memo_entries"] = data.count(b"\n") - 1
    ctx.counters["recursion.cache_bytes"] = len(data)
    return _golden_check(ctx, cache_key(ctx.size["grid"]), data)


OPERATIONS = {
    "brute": _brute,
    "cli": _cli,
    "count_cli": _count_cli,
    "structural": _structural,
    "hz": _hz,
    "gf": _gf,
    "recursive": _recursive,
    "save": _save,
    "load_verify": _load_verify,
    "cache_intact": _cache_intact,
}


def execute(plan: list[tuple], ctx: Context, between=lambda: None) -> list[str]:
    """Run every operation and check its output; return one message per
    operation that raised or produced a wrong output. `between` is called
    before each operation."""
    failures = []
    for op in plan:
        between()
        try:
            problem = OPERATIONS[op[0]](ctx, *op[1:])
        except Exception as exc:  # a raising operation is a failed operation
            problem = f"{type(exc).__name__}: {exc}"
        if problem is not None:
            failures.append(f"{op[0]}{op[1:]}: {problem}")
    return failures
