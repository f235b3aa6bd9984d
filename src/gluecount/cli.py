"""Command-line interface.

Subcommands: count (one signature), hz (closed-surface numbers), table
(bulk CSV/JSON emission), enumerate (class dumps), verify (consistency
suites). Exit codes: 0 success, 1 verification or consistency failure or
I/O error (a closed output pipe included), 2 usage error, 130 interrupted
(Ctrl-C). All output is deterministic and every count is printed as a
decimal integer, never a float.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Iterable, Sequence

from .errors import (
    CacheError,
    ConsistencyError,
    DomainError,
    GluecountError,
)
from .formula import SurfaceSignature, _closed_columns, count_closed
from .gluing import count_brute, enumerate_classes
from .hz import hz_from_gluing_counts, hz_sum, hz_tanh
from .recursion import count_recursive, memo_store_load, memo_store_save
from .verify import iter_bounded_signatures, run_suites

__all__ = ["main", "run"]


def _int_arg(text: str) -> int:
    """int(text) with argparse's own message for a bad value, refusing the
    `_` that int() reads as a digit separator: it takes `1_0` for ten, where
    `1,0` was almost surely meant."""
    if "_" not in text:
        try:
            return int(text)
        except ValueError:
            pass
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


def _sizes_arg(text: str) -> tuple[int, ...]:
    try:
        parts = tuple(_int_arg(p) for p in text.split(","))
    except argparse.ArgumentTypeError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    return parts


def _labels_arg(text: str) -> tuple[int, ...]:
    return _sizes_arg(text) if text else ()


def _path_arg(text: str) -> str:
    if not text:
        raise argparse.ArgumentTypeError("expected a file path, got ''")
    return text


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gluecount",
        description="Exact counts of polygon edge gluings by target surface.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_count = sub.add_parser("count", help="count gluings for one signature")
    p_count.add_argument("--genus", type=_int_arg, required=True)
    p_count.add_argument(
        "--holes", type=_sizes_arg, required=True,
        help="comma-separated boundary sizes, e.g. 1,0,0",
    )
    p_count.add_argument(
        "--method", choices=("closed", "recursive", "brute"), default="closed"
    )
    p_count.add_argument(
        "--cache", type=_path_arg, help="memo file to load before / save after (recursive)"
    )
    p_count.set_defaults(func=_cmd_count)

    p_hz = sub.add_parser("hz", help="closed-surface gluing numbers")
    p_hz.add_argument("--genus", type=_int_arg, required=True)
    p_hz.add_argument("--N", type=_int_arg, required=True, help="half the polygon size")
    p_hz.add_argument("--method", choices=("sum", "series", "gluing"), default="sum")
    p_hz.set_defaults(func=_cmd_hz)

    p_table = sub.add_parser("table", help="emit all counts within bounds")
    p_table.add_argument("--max-genus", type=_int_arg, default=0)
    p_table.add_argument("--max-holes", type=_int_arg, default=0)
    p_table.add_argument("--max-n", type=_int_arg, default=0)
    p_table.add_argument("--format", choices=("csv", "json"), default="csv")
    p_table.add_argument("--out", type=_path_arg, help="output path (default: stdout)")
    p_table.add_argument("--cache", type=_path_arg, help="warm this memo file while tabulating")
    p_table.set_defaults(func=_cmd_table)

    p_enum = sub.add_parser("enumerate", help="dump gluing-word classes")
    p_enum.add_argument("--N", type=_int_arg, required=True, help="polygon size")
    p_enum.add_argument(
        "--labels", type=_labels_arg, default=(),
        help="comma-separated distinct free labels (default: none)",
    )
    p_enum.add_argument("--out", type=_path_arg, help="output path (default: stdout)")
    p_enum.set_defaults(func=_cmd_enumerate)

    p_verify = sub.add_parser("verify", help="run consistency suites")
    p_verify.add_argument("--level", choices=("quick", "full"), default="quick")
    p_verify.set_defaults(func=_cmd_verify)

    return parser


def _emit(text: str, out: str | None) -> None:
    if out is not None:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _cached_recursive(sigs: list[SurfaceSignature], closed: Iterable[int], cache: str) -> list[int]:
    """Each signature's count by the recursion on the memo in `cache`,
    saved if it grew. Entries loaded from the file are trusted as written,
    so every answer is checked against its count in `closed`, taken only
    after its recursion has refused any signature out of range, and nothing
    is printed or saved before all of them agree."""
    memo = memo_store_load(cache)
    loaded = len(memo)
    values = []
    closed = iter(closed)
    for sig in sigs:
        value = count_recursive(sig, memo)
        if value != (expected := next(closed)):
            raise ConsistencyError(
                f"closed and recursive disagree at g={sig.genus}, "
                f"ns={list(sig.sorted_sizes())}: {expected} vs {value}"
            )
        values.append(value)
    if len(memo) > loaded:
        memo_store_save(memo, cache)
    return values


def _cmd_count(args: argparse.Namespace) -> int:
    if args.cache is not None and args.method != "recursive":
        raise DomainError(f"--cache needs --method recursive, not {args.method}")
    sig = SurfaceSignature(args.genus, args.holes)
    if args.method == "closed":
        value = count_closed(sig)
    elif args.method == "brute":
        value = count_brute(sig)
    elif args.cache is None:
        value = count_recursive(sig)
    else:
        [value] = _cached_recursive([sig], map(count_closed, [sig]), args.cache)
    print(value)
    return 0


def _cmd_hz(args: argparse.Namespace) -> int:
    route = {"sum": hz_sum, "series": hz_tanh, "gluing": hz_from_gluing_counts}
    print(route[args.method](args.genus, args.N))
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    bounds = (
        ("--max-genus", args.max_genus),
        ("--max-holes", args.max_holes),
        ("--max-n", args.max_n),
    )
    for flag, bound in bounds:
        if bound < 0:
            raise DomainError(f"{flag} must be >= 0, got {bound}")
    # Every genus lists the same size tuples, non-increasing, in the same order.
    tuples = [sig.boundary_sizes for sig in iter_bounded_signatures(0, args.max_holes, args.max_n)]
    columns = list(_closed_columns(args.max_genus, tuples))
    genera = range(args.max_genus + 1)
    if args.cache is not None:
        sigs = [SurfaceSignature(g, sizes) for g in genera for sizes in tuples]
        _cached_recursive(sigs, (column[g] for g in genera for column in columns), args.cache)

    if args.format == "csv":
        # Every field is digits and "|", which CSV never quotes.
        joined = ["|".join(map(str, sizes)) for sizes in tuples]
        lines = ["g,ns,count\n"]
        for g in genera:
            lines += [f"{g},{ns},{column[g]}\n" for ns, column in zip(joined, columns)]
        text = "".join(lines)
    else:
        payload = [
            {"g": g, "ns": list(sizes), "count": str(column[g])}
            for g in genera
            for sizes, column in zip(tuples, columns)
        ]
        text = json.dumps(payload, indent=2) + "\n"

    _emit(text, args.out)
    return 0


def _cmd_enumerate(args: argparse.Namespace) -> int:
    lines = []
    for canon, surface in enumerate_classes(args.N, args.labels):
        boundaries = ",".join(
            "(" + ",".join(str(lab) for lab in cycle) + ")"
            for cycle in surface.boundary_cycles
        )
        lines.append(
            f"canon={canon.text()};g={surface.genus};"
            f"boundaries=[{boundaries}];punctures={surface.puncture_count}"
        )
    _emit("\n".join(lines) + ("\n" if lines else ""), args.out)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    results = run_suites(args.level)
    for result in results:
        print(result.line())
    failed = [r for r in results if not r.passed]
    if failed:
        print(f"{len(failed)} of {len(results)} suites failed")
        return 1
    print(f"all {len(results)} suites passed")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    # Counts outgrow the 4300-digit default limit on int <-> str conversion
    # (CPython 3.10.7+, 3.11+); lift it so every count prints exactly, and
    # give a library caller its own limit back afterwards.
    if not hasattr(sys, "set_int_max_str_digits"):
        return _main(argv)
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _main(argv)
    finally:
        sys.set_int_max_str_digits(previous)


def _main(argv: Sequence[str] | None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError as exc:
        # The reader closed the pipe. Point stdout at devnull so the
        # interpreter's final flush of what is still buffered cannot fail.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(f"io error: {exc}", file=sys.stderr)
        return 1
    except (DomainError, CacheError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConsistencyError as exc:
        print(f"consistency failure: {exc}", file=sys.stderr)
        return 1
    except GluecountError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
