"""CLI behaviour: outputs, formats, exit codes."""

import errno
import hashlib
import json
import math
import os
import random
import subprocess
import sys
import time
import tracemalloc
from collections import Counter

import pytest
from cache_text import cache_table

from gluecount import (
    CacheError,
    ConsistencyError,
    CountTable,
    SurfaceSignature,
    count_closed,
    count_recursive,
    hz_tanh,
    memo_store_load,
    memo_store_save,
    recursion,
)
from gluecount import cli, formula
from gluecount.cli import main
from gluecount.verify import iter_bounded_signatures


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_closed(capsys):
    code, out, err = run(capsys, "count", "--genus", "0", "--holes", "1,1")
    assert (code, out, err) == (0, "1\n", "")
    code, out, _ = run(capsys, "count", "--genus", "2", "--holes", "1")
    assert (code, out) == (0, "21\n")


def test_count_methods_agree(capsys):
    for method in ("closed", "recursive", "brute"):
        code, out, _ = run(
            capsys, "count", "--genus", "1", "--holes", "2,0", "--method", method
        )
        assert (code, out) == (0, "49\n"), method


def test_count_rejects_all_punctures(capsys):
    code, out, err = run(capsys, "count", "--genus", "1", "--holes", "0,0")
    assert code == 2
    assert out == ""
    assert "all-punctures unsupported" in err


def test_count_brute_past_twelve_edges(capsys):
    # N = 15 with m = 12 glued edges: within the work budget, whatever N.
    code, out, err = run(
        capsys, "count", "--genus", "3", "--holes", "3", "--method", "brute"
    )
    assert (code, out, err) == (0, f"{count_closed(SurfaceSignature(3, (3,)))}\n", "")


def test_count_recursive_cache_roundtrip(capsys, tmp_path):
    cache = tmp_path / "memo.txt"
    code, out, _ = run(
        capsys, "count", "--genus", "1", "--holes", "2",
        "--method", "recursive", "--cache", str(cache),
    )
    assert (code, out) == (0, "5\n")
    assert cache.read_text().startswith("#gluecount-cache v1\n")
    loaded = memo_store_load(cache, verify=True)
    assert len(loaded) > 0
    # Second run answers from the saved file, identically.
    code, out, _ = run(
        capsys, "count", "--genus", "1", "--holes", "2",
        "--method", "recursive", "--cache", str(cache),
    )
    assert (code, out) == (0, "5\n")


@pytest.mark.parametrize(
    "argv",
    [
        ("count", "--genus", "1", "--holes", "2,1", "--method", "recursive"),
        ("table", "--max-genus", "1", "--max-holes", "2", "--max-n", "2"),
    ],
)
def test_warm_cache_query_leaves_the_file_alone(capsys, tmp_path, argv):
    cache = tmp_path / "memo.txt"
    code, first, _ = run(capsys, *argv, "--cache", str(cache))
    assert code == 0
    os.chmod(cache, 0o640)
    os.utime(cache, ns=(1_000_000_000, 1_000_000_000))
    before = cache.stat()
    data = cache.read_bytes()
    # Every entry the query needs is now in the file, so nothing is saved.
    code, again, _ = run(capsys, *argv, "--cache", str(cache))
    assert (code, again) == (0, first)
    after = cache.stat()
    assert cache.read_bytes() == data
    assert (after.st_mode, after.st_mtime_ns, after.st_ino) == (
        before.st_mode, before.st_mtime_ns, before.st_ino,
    )


@pytest.mark.parametrize(
    "argv, method",
    [([], "closed"), (["--method", "closed"], "closed"), (["--method", "brute"], "brute")],
)
def test_count_refuses_a_cache_without_the_recursion(capsys, tmp_path, argv, method):
    # Only the recursion reads or warms a memo, so a cache given to another
    # route would be ignored while the user took it as warmed.
    cache = tmp_path / "memo.txt"
    code, out, err = run(
        capsys, "count", "--genus", "1", "--holes", "2", *argv, "--cache", str(cache)
    )
    assert (code, out) == (2, "")
    assert err == f"error: --cache needs --method recursive, not {method}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--genus", "1", "--holes", "2", "--method", "recursive"],
        ["count", "--genus", "1", "--holes", "2"],
        ["table", "--max-genus", "1", "--max-holes", "1", "--max-n", "2"],
    ],
    ids=["count-recursive", "count-closed", "table"],
)
def test_empty_cache_path_is_refused(capsys, tmp_path, monkeypatch, argv):
    # An unset shell variable passed as --cache "$MEMO" used to run the
    # query uncached, and a closed count past the recursion-only refusal.
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv, "--cache", "")
    assert (code, out) == (2, "")
    assert err.splitlines()[-1] == (
        f"gluecount {argv[0]}: error: argument --cache: expected a file path, got ''"
    )
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["table", "--max-genus", "1", "--max-holes", "1", "--max-n", "2"],
        ["enumerate", "--N", "2"],
    ],
    ids=["table", "enumerate"],
)
def test_empty_out_path_is_refused(capsys, tmp_path, monkeypatch, argv):
    # An unset shell variable passed as --out "$FILE" used to print the
    # output to stdout and exit 0.
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv, "--out", "")
    assert (code, out) == (2, "")
    assert err.splitlines()[-1] == (
        f"gluecount {argv[0]}: error: argument --out: expected a file path, got ''"
    )
    assert list(tmp_path.iterdir()) == []


def test_cache_save_into_missing_directory_names_the_cache(capsys, tmp_path):
    # The save comes before any output, so a failed one prints no count or
    # table and writes no --out file.
    cache = tmp_path / "missing" / "memo.txt"
    table = ["table", "--max-genus", "1", "--max-holes", "1", "--max-n", "2"]
    for argv in (
        ["count", "--genus", "1", "--holes", "2", "--method", "recursive"],
        table,
        [*table, "--out", str(tmp_path / "table.csv")],
    ):
        code, out, err = run(capsys, *argv, "--cache", str(cache))
        assert (code, out) == (1, ""), argv
        assert err == f"io error: [Errno 2] No such file or directory: '{cache}'\n"
        assert list(tmp_path.iterdir()) == []


def test_cache_errors_name_the_path_as_given(capsys, tmp_path):
    # Not normalised: "./" stays in the message as typed.
    (tmp_path / "memo.txt").write_bytes(b"#gluecount-cache v1\n\xff\n")
    count = ["count", "--genus", "1", "--holes", "2", "--method", "recursive"]
    cache = f"{tmp_path}/./memo.txt"
    code, out, err = run(capsys, *count, "--cache", cache)
    assert (code, out) == (2, "")
    assert err == f"error: {cache}: not UTF-8 text: invalid start byte at byte offset 20\n"
    cache = f"{tmp_path}/./missing/memo.txt"
    code, out, err = run(capsys, *count, "--cache", cache)
    assert (code, out) == (1, "")
    assert err == f"io error: [Errno 2] No such file or directory: '{cache}'\n"


def test_count_recursive_too_deep_is_exit_two(capsys):
    holes = ",".join(["1"] * 600)
    code, out, err = run(
        capsys, "count", "--genus", "0", "--holes", holes, "--method", "recursive"
    )
    assert (code, out) == (2, "")
    assert err == "error: recursion too deep for g=0, L=600\n"


def test_count_recursive_over_the_state_budget_is_exit_two(capsys, tmp_path, monkeypatch):
    # The memo that grew up to the refusal is not saved.
    monkeypatch.setattr(recursion, "_STATE_BUDGET", 1000)
    cache = tmp_path / "memo.txt"
    code, out, err = run(
        capsys, "count", "--genus", "20", "--holes", "2,2,2", "--method", "recursive",
        "--cache", str(cache),
    )
    assert (code, out) == (2, "")
    assert err == "error: recursion too large: more than 1000 new states\n"
    assert not cache.exists()


def test_count_recursive_out_of_range_is_exit_two(capsys):
    code, out, err = run(
        capsys, "count", "--genus", "65536", "--holes", "1", "--method", "recursive"
    )
    assert (code, out) == (2, "")
    assert err == (
        "error: g=65536, L=1 is out of range for the recursion: its polygon "
        "has 262145 edges, and the memo keys allow at most 4095\n"
    )


def test_count_recursive_cache_out_of_range_is_exit_two(capsys, tmp_path):
    cache = tmp_path / "memo.txt"
    cache.write_text("#gluecount-cache v1\ng=65536;ns=1;count=1\n")
    code, out, err = run(
        capsys, "count", "--genus", "0", "--holes", "1,1",
        "--method", "recursive", "--cache", str(cache),
    )
    assert (code, out) == (2, "")
    assert err.endswith("line 2: genus 65536 is out of range: it must be below 65536\n")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_table_cache_out_of_range_is_exit_two(capsys, tmp_path, fmt):
    # Size 4096 is the grid's last row: the refusal still comes before any
    # output, and the memo grown up to it is not saved.
    out_path, cache = tmp_path / "t.txt", tmp_path / "c.txt"
    code, out, err = run(
        capsys, "table", "--max-genus", "0", "--max-holes", "1", "--max-n", "4096",
        "--cache", str(cache), "--out", str(out_path), "--format", fmt,
    )
    assert (code, out) == (2, "")
    assert err == (
        "error: g=0, L=1 is out of range for the recursion: its polygon "
        "has 4096 edges, and the memo keys allow at most 4095\n"
    )
    assert not out_path.exists()
    assert not cache.exists()


def test_count_recursive_rejects_corrupt_cache(capsys, tmp_path):
    cache = tmp_path / "memo.txt"
    cache.write_text("#gluecount-cache v9\n")
    code, _, err = run(
        capsys, "count", "--genus", "0", "--holes", "1,1",
        "--method", "recursive", "--cache", str(cache),
    )
    assert code == 2
    assert "v9" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--genus", "1", "--holes", "2", "--method", "recursive"],
        ["table", "--max-genus", "1", "--max-holes", "1", "--max-n", "2"],
    ],
    ids=["count", "table"],
)
def test_undecodable_cache_is_exit_two(argv, src_env, tmp_path):
    cache = tmp_path / "memo.txt"
    data = b"#gluecount-cache v1\ng=1;ns=2;count=5\xff\n"
    cache.write_bytes(data)
    os.utime(cache, ns=(1_000_000_000, 1_000_000_000))
    proc = subprocess.run(
        [sys.executable, "-m", "gluecount", *argv, "--cache", str(cache)],
        capture_output=True, text=True, env=src_env, timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == (
        f"error: {cache}: not UTF-8 text: invalid start byte at byte offset {len(data) - 2}\n"
    )
    assert cache.read_bytes() == data
    assert cache.stat().st_mtime_ns == 1_000_000_000
    assert list(tmp_path.iterdir()) == [cache]


@pytest.mark.parametrize(
    "data, code, out, err",
    [
        (b"#gluecount-cache v1\ng=1;ns=2;count=5\n", 0, "5\n", ""),
        (
            b"#gluecount-cache v1\ng=1;ns=2;count=5\xff\n", 2, "",
            "error: /dev/stdin: not UTF-8 text: invalid start byte at byte offset 36\n",
        ),
    ],
    ids=["utf-8", "undecodable"],
)
def test_cache_read_from_a_pipe(data, code, out, err, src_env):
    # A pipe has no file position, so the offset of an undecodable byte
    # must be counted from the bytes read.
    proc = subprocess.run(
        [
            sys.executable, "-m", "gluecount", "count", "--genus", "1", "--holes", "2",
            "--method", "recursive", "--cache", "/dev/stdin",
        ],
        input=data, capture_output=True, env=src_env, timeout=60,
    )
    assert (proc.returncode, proc.stdout.decode(), proc.stderr.decode()) == (code, out, err)


def test_cache_saved_onto_a_pipe_is_refused(src_env):
    # The count grows the empty memo read from the pipe, whose save is
    # refused: one io error line, and no count on stdout.
    proc = subprocess.run(
        [
            sys.executable, "-m", "gluecount", "count", "--genus", "2", "--holes", "1",
            "--method", "recursive", "--cache", "/dev/stdin",
        ],
        input=b"#gluecount-cache v1\n", capture_output=True, env=src_env, timeout=60,
    )
    assert (proc.returncode, proc.stdout.decode(), proc.stderr.decode()) == (
        1, "", f"io error: [Errno {errno.EINVAL}] not a regular file: '/dev/stdin'\n"
    )


# Bytes a mutation writes: the cache format's own, a CR, a tab, a NUL, a
# non-ASCII digit and bytes that are not UTF-8 (a lone continuation byte,
# a lead byte cut short, and bytes no UTF-8 text holds).
_FUZZ_BYTES = b"0123456789g=;,ns-count#v \r\t\x00\x80\xc3\xfe\xff" + "٣".encode()


def _mutant(rng, data):
    """`data` after one to three random byte flips, insertions, deletions,
    truncations or duplicated lines."""
    data = bytearray(data)
    for _ in range(rng.randint(1, 3)):
        kind, at = rng.randrange(5), rng.randrange(len(data) + 1)
        if kind == 0:
            if at < len(data):
                data[at] = rng.choice(_FUZZ_BYTES)
        elif kind == 1:
            data[at:at] = bytes(rng.choices(_FUZZ_BYTES, k=rng.randint(1, 3)))
        elif kind == 2:
            del data[at : at + rng.randint(1, 4)]
        elif kind == 3:
            del data[at:]
        else:
            lines = data.splitlines(keepends=True) or [b""]
            line = rng.randrange(len(lines))
            lines.insert(line, lines[line])
            data = bytearray().join(lines)
    return bytes(data)


def test_mutated_caches_never_print_a_wrong_count(capsys, tmp_path):
    """A cached query on a corrupted memo prints the true count or nothing.

    The memo is loaded with verify=False, as the CLI does, so a changed
    count is trusted until the answer is checked against the closed formula.
    test_mutated_caches_never_verify_a_wrong_count loads the same mutants
    with verify=True.
    """
    argv = ["count", "--genus", "2", "--holes", "2,1,0", "--method", "recursive"]
    true = f"{count_closed(SurfaceSignature(2, (2, 1, 0)))}\n"
    cache = tmp_path / "memo.txt"
    assert run(capsys, *argv, "--cache", str(cache)) == (0, true, "")
    saved = cache.read_bytes()
    rng = random.Random(35)
    codes = Counter()
    for _ in range(250):
        data = _mutant(rng, saved)
        cache.write_bytes(data)
        code, out, err = run(capsys, *argv, "--cache", str(cache))
        assert (code, out) in ((0, true), (1, ""), (2, "")), (data, err)
        codes[code] += 1
    # A count trusted from the file and refused by the check exits 1.
    assert codes.keys() == {0, 1, 2}, codes


def test_mutated_caches_never_verify_a_wrong_count(tmp_path, monkeypatch):
    """A verified load of a corrupted memo refuses it or holds true counts.

    The mutants are those of test_mutated_caches_never_print_a_wrong_count;
    none of them is accepted, so the saved memo itself is loaded too. A
    file that names a far larger signature, such as the 42-byte
    `#gluecount-cache v1` plus `g=20;ns=2,2,2;count=1`, is refused by the
    recompute's state budget, lowered here so that each load takes
    milliseconds.
    """
    monkeypatch.setattr(recursion, "_STATE_BUDGET", 2000)
    memo = CountTable()
    count_recursive(SurfaceSignature(2, (2, 1, 0)), memo)
    cache = tmp_path / "memo.txt"
    memo_store_save(memo, cache)
    saved = cache.read_bytes()
    rng = random.Random(35)
    outcomes = Counter()
    far = b"#gluecount-cache v1\ng=20;ns=2,2,2;count=1\n"
    for data in [saved, far] + [_mutant(rng, saved) for _ in range(250)]:
        cache.write_bytes(data)
        try:
            table = memo_store_load(cache, verify=True)
        except (CacheError, ConsistencyError) as exc:
            outcomes[type(exc).__name__] += 1
            continue
        for (genus, sizes), count in table.entries.items():
            assert count == count_closed(SurfaceSignature(genus, sizes)), data
        outcomes["accepted"] += 1
    assert outcomes.keys() == {
        "accepted", "CacheError", "CacheVersionError", "ConsistencyError"
    }, outcomes


def test_count_recursive_checks_cached_answer(capsys, tmp_path):
    cache = tmp_path / "memo.txt"
    cache.write_text("#gluecount-cache v1\ng=1;ns=2;count=999\n")
    code, out, err = run(
        capsys, "count", "--genus", "1", "--holes", "2",
        "--method", "recursive", "--cache", str(cache),
    )
    assert (code, out) == (1, "")
    assert err == "consistency failure: closed and recursive disagree at g=1, ns=[2]: 5 vs 999\n"
    assert cache.read_text() == "#gluecount-cache v1\ng=1;ns=2;count=999\n"


def test_table_cache_checks_cached_answers(capsys, tmp_path):
    # The bad entry fails the check before anything is printed or written,
    # and the cache the table warmed in memory is not saved.
    cache = tmp_path / "memo.txt"
    cache.write_text("#gluecount-cache v1\ng=1;ns=2;count=999\n")
    data = cache.read_bytes()
    out_path = tmp_path / "table.csv"
    code, out, err = run(
        capsys, "table", "--max-genus", "1", "--max-holes", "1", "--max-n", "2",
        "--cache", str(cache), "--out", str(out_path),
    )
    assert (code, out) == (1, "")
    assert err == "consistency failure: closed and recursive disagree at g=1, ns=[2]: 5 vs 999\n"
    assert not out_path.exists()
    assert cache.read_bytes() == data


def test_counts_print_at_any_length(capsys, default_int_digit_limit):
    n = 8000
    code, out, _ = run(capsys, "hz", "--genus", "0", "--N", str(n))
    sig = SurfaceSignature(0, (1,) * 1500)
    code2, out2, _ = run(
        capsys, "count", "--genus", "0", "--holes", ",".join(["1"] * 1500)
    )
    assert len(out) > 4300 and len(out2) > 4300
    # The runs gave the default limit back; lift it to convert the expected
    # values (the fixture restores it).
    sys.set_int_max_str_digits(0)
    assert (code, out) == (0, f"{math.comb(2 * n, n) // (n + 1)}\n")
    assert (code2, out2) == (0, f"{count_closed(sig)}\n")


def test_main_gives_back_the_callers_digit_limit(capsys, tmp_path, default_int_digit_limit):
    # A library caller keeps its own limit after every exit path of main.
    for argv, expected in [
        (("hz", "--genus", "0", "--N", "8000"), 0),
        (("count", "--genus", "-1", "--holes", "1"), 2),
        (("count", "--holes", "1"), 2),
    ]:
        assert run(capsys, *argv)[0] == expected, argv
        assert sys.get_int_max_str_digits() == sys.int_info.default_max_str_digits, argv
    # So memo_store_save still refuses a count it could not read back.
    memo = cache_table("g=0;ns=1;count=1" + "0" * 4400)
    with pytest.raises(CacheError, match="limit of 4300"):
        memo_store_save(memo, tmp_path / "memo.txt")
    sys.set_int_max_str_digits(5000)
    assert run(capsys, "hz", "--genus", "0", "--N", "8000")[0] == 0
    assert sys.get_int_max_str_digits() == 5000


def test_hz_routes(capsys):
    assert run(capsys, "hz", "--genus", "2", "--N", "5")[:2] == (0, "483\n")
    assert run(
        capsys, "hz", "--genus", "2", "--N", "5", "--method", "series"
    )[:2] == (0, "483\n")
    assert run(
        capsys, "hz", "--genus", "1", "--N", "3", "--method", "gluing"
    )[:2] == (0, "10\n")


def test_python_dash_m_runs_the_cli(src_env):
    for module in ("gluecount", "gluecount.cli"):
        proc = subprocess.run(
            [sys.executable, "-m", module, "hz", "--genus", "2", "--N", "5"],
            capture_output=True, text=True, env=src_env, timeout=60,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "483\n", ""), module


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--genus", "1", "--holes", "2"],
        ["table", "--max-genus", "3", "--max-holes", "4", "--max-n", "5"],
    ],
    ids=["small-output", "large-output"],
)
def test_closed_output_pipe_is_one_io_error(argv, src_env):
    # With default (block) buffering a small output only reaches the pipe
    # at the final flush, a large one while the command writes; both must
    # end the same way, with no "Exception ignored" message.
    env = {k: v for k, v in src_env.items() if k != "PYTHONUNBUFFERED"}
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the CLI writes anything
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "gluecount", *argv],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=60,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, "io error: [Errno 32] Broken pipe\n")


@pytest.mark.parametrize("method", ["sum", "series", "gluing"])
def test_hz_high_genus_is_fast(capsys, method, hz_recurrence):
    start = time.perf_counter()
    code, out, _ = run(capsys, "hz", "--genus", "8", "--N", "60", "--method", method)
    assert time.perf_counter() - start < 2
    assert (code, out) == (0, f"{hz_recurrence[8][60]}\n")


def test_hz_domain_error(capsys):
    code, _, err = run(capsys, "hz", "--genus", "-1", "--N", "3")
    assert code == 2
    assert "genus" in err


def test_bad_usage_is_exit_two(capsys):
    assert run(capsys, "hz", "--genus", "1", "--N", "3", "--method", "nope")[0] == 2
    assert run(capsys, "count", "--genus", "0", "--holes", "x,y")[0] == 2
    assert run(capsys, "nonsense")[0] == 2
    for argv in (
        ("count", "--genus", "0", "--holes", "2", "--method", "brute", "--cap", "12"),
        ("enumerate", "--N", "4", "--cap", "12"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert "unrecognized arguments: --cap 12" in err, argv


@pytest.mark.parametrize(
    "argv, flag, message",
    [
        (["count", "--genus", "0", "--holes", "1_0"], "--holes",
         "expected comma-separated integers, got '1_0'"),
        (["count", "--genus", "1_0", "--holes", "1"], "--genus", "invalid int value: '1_0'"),
        (["hz", "--genus", "1_0", "--N", "30"], "--genus", "invalid int value: '1_0'"),
        (["hz", "--genus", "1", "--N", "3_0"], "--N", "invalid int value: '3_0'"),
        (["table", "--max-genus", "1_0"], "--max-genus", "invalid int value: '1_0'"),
        (["table", "--max-holes", "1_0"], "--max-holes", "invalid int value: '1_0'"),
        (["table", "--max-n", "1_0"], "--max-n", "invalid int value: '1_0'"),
        (["enumerate", "--N", "1_0"], "--N", "invalid int value: '1_0'"),
        (["enumerate", "--N", "4", "--labels", "1_0,2"], "--labels",
         "expected comma-separated integers, got '1_0,2'"),
    ],
    ids=["holes", "count-genus", "hz-genus", "hz-N", "max-genus", "max-holes", "max-n",
         "enumerate-N", "labels"],
)
def test_an_underscore_in_an_integer_is_a_usage_error(capsys, argv, flag, message):
    # int() reads `1_0` as ten, so `--holes 1_0` printed the count of one
    # boundary of size 10, where `1,0` was almost surely meant.
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.splitlines()[-1] == f"gluecount {argv[0]}: error: argument {flag}: {message}"


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["count", "--genus", " 2 ", "--holes", "1"], "21\n"),
        (["count", "--genus", "+2", "--holes", " 1"], "21\n"),
        (["count", "--genus", "٢", "--holes", "١,0"], "483\n"),
        (["hz", "--genus", "1", "--N", "３"], "10\n"),
    ],
    ids=["spaces", "signs", "arabic-indic-digits", "fullwidth-digit"],
)
def test_other_int_spellings_still_count(capsys, argv, expected):
    assert run(capsys, *argv) == (0, expected, "")


def test_table_csv(capsys):
    code, out, _ = run(
        capsys, "table", "--max-genus", "1", "--max-holes", "1", "--max-n", "4"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "g,ns,count"
    assert len(lines) == 9
    assert "1,4,35" in lines
    assert lines[1] == "0,1,1"
    # Determinism: byte-identical on a second run.
    assert run(
        capsys, "table", "--max-genus", "1", "--max-holes", "1", "--max-n", "4"
    )[1] == out


def test_table_empty_bounds_is_header_only(capsys):
    code, out, _ = run(capsys, "table")
    assert (code, out) == (0, "g,ns,count\n")


@pytest.mark.parametrize("flag", ["--max-genus", "--max-holes", "--max-n"])
def test_table_rejects_negative_bounds(capsys, tmp_path, flag):
    cache = tmp_path / "memo.txt"
    argv = ["table", "--max-genus", "1", "--max-holes", "1", "--max-n", "1"]
    argv[argv.index(flag) + 1] = "-1"
    code, out, err = run(capsys, *argv, "--cache", str(cache))
    assert (code, out, err) == (2, "", f"error: {flag} must be >= 0, got -1\n")
    assert not cache.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["--max-genus", "1000000000", "--max-holes", "0"],
        ["--max-genus", "1000000000", "--max-n", "0", "--max-holes", "2"],
    ],
    ids=["no-holes", "all-punctures"],
)
def test_table_empty_grid_computes_no_series(capsys, monkeypatch, argv):
    # No size tuple, so no scale row is fetched, at any --max-genus.
    def fail(top):
        raise AssertionError("a scale row was fetched")

    monkeypatch.setattr(formula, "_scales", fail)
    assert run(capsys, "table", *argv) == (0, "g,ns,count\n", "")
    assert run(capsys, "table", *argv, "--format", "json") == (0, "[]\n", "")


def test_table_empty_grid_leaves_the_cache_unread(capsys, tmp_path):
    # A grid with no row needs no count, so a malformed cache is neither
    # read nor written: the header alone, exit 0.
    cache = tmp_path / "bad.txt"
    cache.write_bytes(b"garbage\n")
    os.utime(cache, ns=(10**18, 10**18))
    argv = ["table", "--max-genus", "1000000000", "--max-holes", "0", "--cache", str(cache)]
    assert run(capsys, *argv) == (0, "g,ns,count\n", "")
    assert run(capsys, *argv, "--format", "json") == (0, "[]\n", "")
    assert cache.read_bytes() == b"garbage\n"
    assert cache.stat().st_mtime_ns == 10**18


class _Writes:
    """A stdout that records each write."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)

    def flush(self):
        pass


@pytest.mark.parametrize(
    "fmt, digest",
    [
        ("csv", "5d6a2700cb87b9bd5eab950927c4149d2e7af93732fa3f6c2d32e7980f907a99"),
        ("json", "280ba2d4e9fe2a54b8cceb2dbdd9ea57a05d0fb7baf9dbd536c94095628ac87b"),
    ],
)
def test_table_is_written_as_it_is_formatted(monkeypatch, fmt, digest):
    # The 20/5/6 table of CI's digests, 16,506 rows, comes out in many
    # writes, none holding the whole text, and joins to the same bytes.
    stdout = _Writes()
    monkeypatch.setattr(sys, "stdout", stdout)
    argv = ["table", "--max-genus", "20", "--max-holes", "5", "--max-n", "6", "--format", fmt]
    assert main(argv) == 0
    text = "".join(stdout.writes)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    assert max(map(len, stdout.writes)) <= len(text) / 4


class _Counts:
    """A stdout that keeps only the number of characters written."""

    def __init__(self):
        self.chars = 0

    def write(self, text):
        self.chars += len(text)
        return len(text)

    def flush(self):
        pass


def test_table_json_peaks_like_csv(monkeypatch):
    # JSON rows are formatted as they are written, as CSV's are, with no
    # object per row: the 20/5/6 table peaks within 1.25x of CSV's. JSON
    # runs first, so any shared series row the grid grows counts against it.
    argv = ["table", "--max-genus", "20", "--max-holes", "5", "--max-n", "6", "--format"]
    peaks = {}
    for fmt in ("json", "csv"):
        monkeypatch.setattr(sys, "stdout", _Counts())
        tracemalloc.start()
        try:
            assert main([*argv, fmt]) == 0
            peaks[fmt] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks["json"] <= 1.25 * peaks["csv"], peaks


@pytest.mark.parametrize(
    "bounds", [(0, 1, 1), (3, 2, 2), (2, 3, 4), (1, 4, 3), (0, 5, 1)],
    ids=lambda bounds: "/".join(map(str, bounds)),
)
def test_table_row_budget_counts_the_grid(monkeypatch, bounds):
    # The budget check's count, (G+1)(C(n+1+L, L) - 1 - L), is the grid's.
    rows = sum(1 for _ in iter_bounded_signatures(*bounds))
    monkeypatch.setattr(cli, "_ROW_BUDGET", rows)
    assert not cli._over_row_budget(*bounds)
    monkeypatch.setattr(cli, "_ROW_BUDGET", rows - 1)
    assert cli._over_row_budget(*bounds)


def _no_columns(max_genus, size_tuples):
    raise ConsistencyError("the grid was computed")


def test_table_at_the_row_budget_runs(capsys, monkeypatch):
    # 1,000 genera of the sizes 1..1000: exactly 1,000,000 rows.
    monkeypatch.setattr(cli, "_closed_columns", _no_columns)
    code, out, err = run(
        capsys, "table", "--max-genus", "999", "--max-holes", "1", "--max-n", "1000"
    )
    assert (code, out, err) == (1, "", "consistency failure: the grid was computed\n")


@pytest.mark.parametrize(
    "bounds",
    # 1,001,000 rows, one genus over; 1,410,820 rows; and bounds whose count
    # is never made, for the check stops at the first hole count over.
    [(1000, 1, 1000), (3, 10, 10), (10**9, 10**9, 10**9), (0, 10**9, 1)],
    ids=["one-genus-over", "3/10/10", "huge", "huge-holes"],
)
def test_table_over_the_row_budget_is_refused(capsys, monkeypatch, tmp_path, bounds):
    monkeypatch.setattr(cli, "_closed_columns", _no_columns)
    out_path, cache = tmp_path / "table.csv", tmp_path / "memo.txt"
    # A malformed cache would fail its load: the refusal comes first.
    cache.write_text("not a cache\n")
    genus, holes, n = bounds
    start = time.perf_counter()
    code, out, err = run(
        capsys, "table", "--max-genus", str(genus), "--max-holes", str(holes), "--max-n", str(n),
        "--out", str(out_path), "--cache", str(cache),
    )
    assert time.perf_counter() - start < 1
    assert (code, out, err) == (
        2, "",
        f"error: --max-genus {genus}, --max-holes {holes} and --max-n {n} give more than "
        "1000000 table rows\n",
    )
    assert not out_path.exists()
    assert cache.read_text() == "not a cache\n"


def test_table_multi_hole_rows_join_sizes(capsys):
    code, out, _ = run(
        capsys, "table", "--max-genus", "0", "--max-holes", "2", "--max-n", "2"
    )
    assert code == 0
    assert "0,2|1,2" in out.splitlines()


def test_table_json(capsys):
    code, out, _ = run(
        capsys, "table", "--format", "json",
        "--max-genus", "0", "--max-holes", "2", "--max-n", "2",
    )
    assert code == 0
    rows = json.loads(out)
    assert {"g": 0, "ns": [1, 1], "count": "1"} in rows
    assert {"g": 0, "ns": [2, 2], "count": "4"} in rows
    assert all(isinstance(r["count"], str) for r in rows)


@pytest.mark.parametrize(
    "bounds",
    # 45/2/2 runs past genus 40; 12/4/4, 1,573 rows, takes prefix products
    # of up to four sizes past genus 6; the last four are edge grids.
    [(6, 5, 3), (45, 2, 2), (12, 4, 4), (0, 0, 0), (2, 0, 3), (3, 4, 0), (0, 1, 1)],
    ids=lambda bounds: "/".join(map(str, bounds)),
)
def test_table_rows_equal_per_row_counts(capsys, bounds):
    # `table` takes each size tuple's counts at every genus from one product;
    # each row must be what `count_closed` gives for that signature alone.
    rows = [(sig, count_closed(sig)) for sig in iter_bounded_signatures(*bounds)]
    argv = ["table", *(f"--max-{k}={v}" for k, v in zip(("genus", "holes", "n"), bounds))]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out == "g,ns,count\n" + "".join(
        f"{sig.genus},{'|'.join(map(str, sig.boundary_sizes))},{value}\n" for sig, value in rows
    )
    code, out, err = run(capsys, *argv, "--format", "json")
    assert (code, err) == (0, "")
    payload = [
        {"g": sig.genus, "ns": list(sig.boundary_sizes), "count": str(value)}
        for sig, value in rows
    ]
    assert out == json.dumps(payload, indent=2) + "\n"


def test_table_out_file_and_cache(capsys, tmp_path):
    out_path = tmp_path / "table.csv"
    cache = tmp_path / "memo.txt"
    code, out, _ = run(
        capsys, "table", "--max-genus", "1", "--max-holes", "2", "--max-n", "3",
        "--out", str(out_path), "--cache", str(cache),
    )
    assert code == 0
    assert out == ""
    text = out_path.read_text()
    assert text.startswith("g,ns,count\n")
    assert "1,3,15" in text.splitlines()
    loaded = memo_store_load(cache, verify=True)
    assert len(loaded) > 0


def test_enumerate_output(capsys):
    code, out, _ = run(capsys, "enumerate", "--N", "4", "--labels", "1,2")
    assert code == 0
    assert out == (
        "canon=a,a,1,2;g=0;boundaries=[(1,2)];punctures=1\n"
        "canon=a,a,2,1;g=0;boundaries=[(1,2)];punctures=1\n"
        "canon=a,1,a,2;g=0;boundaries=[(1),(2)];punctures=0\n"
    )
    # A label past 255 is kept verbatim.
    code, out, _ = run(capsys, "enumerate", "--N", "3", "--labels", "300")
    assert (code, out) == (0, "canon=a,a,300;g=0;boundaries=[(300)];punctures=1\n")


def test_enumerate_closed_square(capsys):
    code, out, _ = run(capsys, "enumerate", "--N", "4")
    assert code == 0
    assert out == (
        "canon=a,a,b,b;g=0;boundaries=[];punctures=3\n"
        "canon=a,b,a,b;g=1;boundaries=[];punctures=1\n"
    )


def test_enumerate_errors(capsys):
    code, _, err = run(capsys, "enumerate", "--N", "3")
    assert code == 2
    assert "odd" in err
    assert run(capsys, "enumerate", "--N", "20")[0] == 2
    code, _, err = run(capsys, "enumerate", "--N", "13", "--labels", "1,2")
    assert (code, err) == (
        2, "error: 13 slots minus 2 free labels leaves an odd number to pair\n"
    )


def test_enumerate_word_budget_exit(capsys):
    code, out, err = run(capsys, "enumerate", "--N", "12", "--labels", "1,2,3,4,5,6,7,8,9,10")
    assert (code, out) == (2, "")
    assert err == (
        "error: 12 slots with 10 free labels give more than 200000 words to canonicalize\n"
    )


def test_interrupt_is_exit_130(capsys, monkeypatch):
    def interrupted(args):
        raise KeyboardInterrupt

    monkeypatch.setattr("gluecount.cli._cmd_count", interrupted)
    code, out, err = run(capsys, "count", "--genus", "0", "--holes", "1")
    assert (code, out, err) == (130, "", "interrupted\n")


def test_verify_quick(capsys):
    code, out, _ = run(capsys, "verify", "--level", "quick")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 4
    assert all(line.startswith("PASS ") for line in lines[:3])
    assert lines[3] == "all 3 suites passed"


def test_verify_failure_is_exit_one(capsys, monkeypatch):
    def off_by_one(genus, n):
        return hz_tanh(genus, n) + ((genus, n) == (1, 3))

    monkeypatch.setattr("gluecount.verify.hz_tanh", off_by_one)
    code, out, _ = run(capsys, "verify", "--level", "quick")
    lines = out.splitlines()
    assert code == 1
    assert lines[0] == (
        "FAIL hz-table-three-routes: series route gives 11 at g=1, N=3, expected 10"
    )
    assert len(lines) == 4
    assert all(line.startswith("PASS ") for line in lines[1:3])
    assert lines[-1] == "1 of 3 suites failed"
