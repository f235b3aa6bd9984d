"""Cut recursion, memo transparency, and the persistent table format."""

import errno
import itertools
import math
import os
import random
import sys
import time
import tracemalloc

import pytest
import reference_loader
from cache_text import cache_table

from gluecount import (
    CacheError,
    CacheVersionError,
    ConsistencyError,
    CountTable,
    DomainError,
    SurfaceSignature,
    count_closed,
    count_recursive,
    memo_store_load,
    memo_store_save,
)
from gluecount import recursion


def test_known_values():
    assert count_recursive(SurfaceSignature(0, (1, 1))) == 1
    assert count_recursive(SurfaceSignature(1, (1,))) == 1
    # 1*2*3*(1+2+3+3) for three sphere boundaries.
    assert count_recursive(SurfaceSignature(0, (1, 2, 3))) == 54
    assert count_recursive(SurfaceSignature(2, (1,))) == 21


def test_matches_closed_formula():
    memo = CountTable()
    for genus in range(0, 3):
        for holes in range(1, 4):
            for sizes in itertools.product(range(0, 5), repeat=holes):
                if sum(sizes) == 0:
                    continue
                sig = SurfaceSignature(genus, sizes)
                assert count_recursive(sig, memo) == count_closed(sig)


def _pairwise_scaled(genus, sizes, entries):
    """T(genus; sizes) by the identity in the recursion module's docstring,
    one index pair and one x at a time, storing plain counts in `entries`
    under the keys count_recursive uses."""
    if genus < 0 or not sizes:
        return 0
    sizes = tuple(sorted(sizes, reverse=True))
    if genus == 0 and len(sizes) == 1:
        return 1
    zeros = math.factorial(sizes.count(0))
    key = (genus, sizes)
    if key not in entries:
        m = [max(n, 1) for n in sizes]
        total = 0
        for i, j in itertools.combinations(range(len(sizes)), 2):
            rest = [n for k, n in enumerate(sizes) if k not in (i, j)]
            merged = (sizes[i] + sizes[j] + 2, *rest)
            total += 2 * m[i] * m[j] * _pairwise_scaled(genus, merged, entries)
        for i, n in enumerate(sizes):
            rest = sizes[:i] + sizes[i + 1 :]
            for x in range(1, n + 2):
                total += m[i] * _pairwise_scaled(genus - 1, (n + 2 - x, x, *rest), entries)
        scaled, rem = divmod(total, 2 * (len(sizes) + 2 * genus - 1))
        assert rem == 0 and scaled % zeros == 0
        entries[key] = scaled // zeros
    return entries[key] * zeros


def test_memo_matches_pairwise_reference():
    memo = CountTable()
    reference = {}
    for genus in range(3):
        for holes in range(1, 5):
            for sizes in itertools.combinations_with_replacement(range(5), holes):
                if sum(sizes) == 0:
                    continue
                count = count_recursive(SurfaceSignature(genus, sizes), memo)
                scaled = _pairwise_scaled(genus, sizes, reference)
                assert count * math.factorial(sizes.count(0)) == scaled
    assert memo.entries == reference


@pytest.mark.parametrize(
    "genus, sizes",
    [
        (2, (4,) * 5),
        (1, (1, 1, 1, 1, 0, 0)),
        (0, (3,) * 6),
        # Many punctures: their group weights in every kind of step.
        (2, (3,) + (0,) * 6),
        (3, (2, 0, 0, 0)),
        (0, (1,) + (0,) * 8),
    ],
)
def test_repeated_sizes(genus, sizes):
    memo = CountTable()
    sig = SurfaceSignature(genus, sizes)
    assert count_recursive(sig, memo) == count_closed(sig)
    reference = {}
    _pairwise_scaled(genus, sizes, reference)
    assert memo.entries == reference


def test_boundary_order_irrelevant():
    memo = CountTable()
    for sizes in itertools.permutations((3, 1, 0)):
        assert count_recursive(SurfaceSignature(1, sizes), memo) == count_recursive(
            SurfaceSignature(1, (3, 1, 0)), memo
        )


def test_memo_transparency(tmp_path):
    sig = SurfaceSignature(2, (2, 1))
    cold = count_recursive(sig)

    memo = CountTable()
    first = count_recursive(sig, memo)
    assert len(memo) > 0
    warm = count_recursive(sig, memo)

    path = tmp_path / "counts.txt"
    memo_store_save(memo, path)
    reloaded = memo_store_load(path)
    rewarmed = count_recursive(sig, reloaded)

    assert cold == first == warm == rewarmed


def test_store_roundtrip_and_determinism(tmp_path):
    memo = CountTable()
    for genus in range(0, 3):
        for holes in range(1, 3):
            for sizes in itertools.product(range(0, 4), repeat=holes):
                if sum(sizes) == 0:
                    continue
                count_recursive(SurfaceSignature(genus, sizes), memo)
    path_a = tmp_path / "a.txt"
    path_b = tmp_path / "b.txt"
    memo_store_save(memo, path_a)
    memo_store_save(memo_store_load(path_a), path_b)
    assert path_a.read_bytes() == path_b.read_bytes()
    assert memo_store_load(path_a) == memo


def test_too_deep_recursion_is_a_domain_error():
    memo = CountTable()
    count_recursive(SurfaceSignature(1, (2, 1)), memo)
    before = dict(memo.entries)
    with pytest.raises(DomainError, match=r"g=0, L=600"):
        count_recursive(SurfaceSignature(0, (1,) * 600), memo)
    # Whatever the memo holds afterwards was fully computed.
    assert memo.entries.items() >= before.items()
    for (genus, sizes), count in memo.entries.items():
        assert count == count_closed(SurfaceSignature(genus, sizes))


@pytest.mark.parametrize("genus, holes", [(250, 1), (0, 501)])
def test_too_deep_recursion_is_refused_before_any_work(monkeypatch, genus, holes):
    # 2g + L levels, one frame each, must fit in half of the recursion
    # limit. g=0 with 501 ones would otherwise fit under the default limit
    # of 1000 frames and walk an unbounded state space.
    monkeypatch.setattr(recursion, "_count", _fail)
    memo = CountTable()
    start = time.perf_counter()
    with pytest.raises(DomainError) as info:
        count_recursive(SurfaceSignature(genus, (1,) * holes), memo)
    assert time.perf_counter() - start < 0.5
    assert str(info.value) == f"recursion too deep for g={genus}, L={holes}"
    assert len(memo) == 0


def test_depth_guard_follows_the_recursion_limit(monkeypatch):
    # g=10 with one boundary is 21 levels: refused under a limit of 41,
    # computed under 42.
    sig = SurfaceSignature(10, (1,))
    monkeypatch.setattr(recursion.sys, "getrecursionlimit", lambda: 41)
    with pytest.raises(DomainError, match=r"^recursion too deep for g=10, L=1$"):
        count_recursive(sig)
    monkeypatch.setattr(recursion.sys, "getrecursionlimit", lambda: 42)
    assert count_recursive(sig) == count_closed(sig)


def test_recursion_error_from_a_deep_caller_is_a_domain_error():
    # 2g + L = 400 passes the guard, but a caller already deep in its own
    # stack leaves too few frames: the RecursionError becomes the same
    # DomainError.
    sig = SurfaceSignature(0, (1,) * 400)

    def nested(depth):
        return nested(depth - 1) if depth else count_recursive(sig)

    with pytest.raises(DomainError, match=r"^recursion too deep for g=0, L=400$"):
        nested(sys.getrecursionlimit() - 300)


def test_a_held_count_answers_past_the_depth_guard_but_not_the_polygon_size(
    tmp_path, monkeypatch
):
    # The polygon size is checked before the memo is probed, the depth only
    # on a miss: g=250 with one boundary is 501 levels, over the guard, yet
    # a table that holds its count answers it without running the kernel.
    monkeypatch.setattr(recursion, "_count", _fail)
    deep = SurfaceSignature(250, (1,))
    path = tmp_path / "deep.txt"
    path.write_text(f"#gluecount-cache v1\ng=250;ns=1;count={count_closed(deep)}\n")
    assert count_recursive(deep, memo_store_load(path)) == count_closed(deep)
    with pytest.raises(DomainError, match=r"^recursion too deep for g=250, L=1$"):
        count_recursive(deep, CountTable())
    # g=1100 with one boundary has a polygon of 4401 edges: refused though
    # the table holds a count for it.
    path.write_text("#gluecount-cache v1\ng=1100;ns=1;count=7\n")
    with pytest.raises(DomainError) as info:
        count_recursive(SurfaceSignature(1100, (1,)), memo_store_load(path))
    assert str(info.value) == (
        "g=1100, L=1 is out of range for the recursion: its polygon has 4401 edges, "
        "and the memo keys allow at most 4095"
    )


def test_failed_save_keeps_old_file(tmp_path, monkeypatch):
    path = tmp_path / "memo.txt"
    memo_store_save(CountTable(), path)
    old = path.read_bytes()
    memo = CountTable()
    count_recursive(SurfaceSignature(1, (2,)), memo)

    def refuse(src, dst):
        raise OSError("disk full")

    with monkeypatch.context() as patch:
        patch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="disk full"):
            memo_store_save(memo, path)
    assert path.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["memo.txt"]

    memo_store_save(memo, path)
    assert memo_store_load(path) == memo
    assert [p.name for p in tmp_path.iterdir()] == ["memo.txt"]


def test_save_reports_overlong_count(tmp_path, default_int_digit_limit):
    path = tmp_path / "memo.txt"
    memo_store_save(CountTable(), path)
    old = path.read_bytes()
    memo = cache_table("g=0;ns=1;count=1" + "0" * 4400)
    with pytest.raises(CacheError, match=r"g=0, ns=\(1,\).*limit of 4300"):
        memo_store_save(memo, path)
    assert path.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["memo.txt"]


def test_save_gives_the_mode_of_a_plain_open(tmp_path):
    previous = os.umask(0o022)
    try:
        path = tmp_path / "memo.txt"
        memo_store_save(CountTable(), path)
        assert path.stat().st_mode & 0o777 == 0o644
        path.chmod(0o600)
        memo_store_save(CountTable(), path)
        assert path.stat().st_mode & 0o777 == 0o600
    finally:
        os.umask(previous)


def test_save_accepts_a_count_at_the_digit_limit(tmp_path, default_int_digit_limit):
    # 10**4299 has 4300 digits, the limit; 10**4300 has one more.
    path = tmp_path / "memo.txt"
    memo = cache_table("g=0;ns=1;count=1" + "0" * 4299)
    memo_store_save(memo, path)
    assert path.read_text() == f"#gluecount-cache v1\ng=0;ns=1;count=1{'0' * 4299}\n"
    memo = cache_table(
        "g=0;ns=1;count=1" + "0" * 4299,
        "g=0;ns=2;count=1" + "0" * 4300,
        "g=1;ns=1;count=1" + "0" * 4400,
    )
    with pytest.raises(CacheError, match=r"g=0, ns=\(2,\).*limit of 4300"):
        memo_store_save(memo, path)


def test_save_writes_through_a_symlink(tmp_path):
    (tmp_path / "real").mkdir()
    target = tmp_path / "real" / "memo.txt"
    memo_store_save(CountTable(), target)
    link = tmp_path / "link.txt"
    link.symlink_to("real/memo.txt")
    memo = CountTable()
    count_recursive(SurfaceSignature(1, (2, 1)), memo)
    memo_store_save(memo, link)
    assert os.readlink(link) == "real/memo.txt"
    assert memo_store_load(target) == memo
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.txt", "real"]
    assert [p.name for p in target.parent.iterdir()] == ["memo.txt"]


def test_save_through_a_dangling_symlink_makes_its_target(tmp_path):
    (tmp_path / "real").mkdir()
    link = tmp_path / "link.txt"
    link.symlink_to("real/memo.txt")
    memo = CountTable()
    count_recursive(SurfaceSignature(1, (2, 1)), memo)
    memo_store_save(memo, link)
    assert os.readlink(link) == "real/memo.txt"
    assert memo_store_load(tmp_path / "real" / "memo.txt") == memo
    # A link into a directory that does not exist fails as a plain open
    # would, naming the path the caller gave.
    far = tmp_path / "far.txt"
    far.symlink_to("missing/memo.txt")
    with pytest.raises(FileNotFoundError) as info:
        memo_store_save(memo, far)
    assert info.value.filename == str(far)
    # So does a loop of links.
    (tmp_path / "loop-a.txt").symlink_to("loop-b.txt")
    (tmp_path / "loop-b.txt").symlink_to("loop-a.txt")
    with pytest.raises(OSError) as info:
        memo_store_save(memo, tmp_path / "loop-a.txt")
    assert info.value.filename == str(tmp_path / "loop-a.txt")
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "far.txt", "link.txt", "loop-a.txt", "loop-b.txt", "real"
    ]
    assert (tmp_path / "loop-a.txt").is_symlink()


def test_save_onto_a_directory_opens_no_file(tmp_path, monkeypatch):
    # Refused as a missing directory is, naming the path as the caller gave
    # it, before the memo is written anywhere: directly, through a symlink,
    # and as "" for the working directory.
    (tmp_path / "dir").mkdir()
    (tmp_path / "link").symlink_to("dir")
    monkeypatch.chdir(tmp_path / "dir")
    opened = []
    monkeypatch.setattr(recursion, "open", lambda *args, **kw: opened.append(args), raising=False)
    memo = CountTable()
    count_recursive(SurfaceSignature(1, (2, 1)), memo)
    for path in (tmp_path / "dir", str(tmp_path / "link"), ""):
        with pytest.raises(IsADirectoryError) as info:
            memo_store_save(memo, path)
        assert (info.value.errno, info.value.filename) == (errno.EISDIR, str(path)), path
        assert str(info.value) == f"[Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: '{path}'"
    assert opened == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dir", "link"]
    assert list((tmp_path / "dir").iterdir()) == []


def test_save_onto_a_fifo_is_refused(tmp_path):
    # Replacing a pipe with a regular file would leave its readers and
    # writers hanging on a file that is gone.
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    memo = CountTable()
    count_recursive(SurfaceSignature(1, (2, 1)), memo)
    with pytest.raises(OSError, match="not a regular file") as info:
        memo_store_save(memo, fifo)
    assert info.value.filename == str(fifo)
    assert list(tmp_path.iterdir()) == [fifo]
    assert fifo.is_fifo()


def test_store_exact_format(tmp_path):
    memo = CountTable()
    count_recursive(SurfaceSignature(0, (1, 1)), memo)
    path = tmp_path / "one.txt"
    memo_store_save(memo, path)
    assert path.read_text() == "#gluecount-cache v1\ng=0;ns=1,1;count=1\n"


def test_saved_sizes_text_is_the_joined_sizes(tmp_path):
    # The saver writes each line's sizes straight from its code's fields;
    # here they hold two-digit sizes, repeated sizes and punctures, and each
    # must read as the plain join of the sizes the table keys it by.
    memo = CountTable()
    count_recursive(SurfaceSignature(1, (12, 3, 3, 0, 0)), memo)
    path = tmp_path / "memo.txt"
    memo_store_save(memo, path)
    header, *lines = path.read_text(encoding="utf-8").splitlines()
    keys = sorted(memo.entries)
    assert header == "#gluecount-cache v1" and len(lines) == len(keys) == 264
    for line, (genus, sizes) in zip(lines, keys):
        genus_text, sizes_text, _ = line.split(";")
        assert genus_text == f"g={genus}"
        assert sizes_text == "ns=" + ",".join(map(str, sizes))
    assert any(
        sizes[0] >= 10 and sizes[-1] == 0 and len(set(sizes)) < len(sizes) for _, sizes in keys
    )


def test_empty_table_serializes_to_header_only(tmp_path):
    path = tmp_path / "empty.txt"
    memo_store_save(CountTable(), path)
    assert path.read_text() == "#gluecount-cache v1\n"
    assert len(memo_store_load(path)) == 0


def test_load_missing_file_gives_empty_table(tmp_path):
    # pathlib's exists() rule: a stat that fails with ENOENT, ENOTDIR, ELOOP
    # or EBADF, or a path that cannot be encoded, means no file; any other
    # error propagates.
    (tmp_path / "file.txt").write_text("")
    (tmp_path / "loop-a.txt").symlink_to("loop-b.txt")
    (tmp_path / "loop-b.txt").symlink_to("loop-a.txt")
    for path in (
        tmp_path / "absent.txt",
        tmp_path / "file.txt" / "memo.txt",
        tmp_path / "loop-a.txt",
        f"{tmp_path}/nul\0.txt",
    ):
        assert len(memo_store_load(path)) == 0, path
    with pytest.raises(OSError) as info:
        memo_store_load(tmp_path / ("x" * 300))
    assert info.value.errno == errno.ENAMETOOLONG


def test_load_file_gone_at_the_open_gives_empty_table(tmp_path, monkeypatch):
    # The missing-file rule holds at the open: a file removed after any
    # earlier look at the path loads as an empty table, as an absent one does.
    path = tmp_path / "memo.txt"
    path.write_text("#gluecount-cache v1\ng=1;ns=2;count=5\n")

    def gone(file, mode):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), file)

    monkeypatch.setattr(recursion, "open", gone, raising=False)
    assert len(memo_store_load(path)) == 0


def test_load_rejects_unknown_version(tmp_path):
    path = tmp_path / "future.txt"
    path.write_text("#gluecount-cache v2\ng=0;ns=1,1;count=1\n")
    with pytest.raises(CacheVersionError):
        memo_store_load(path)


def test_load_rejects_malformed_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("#gluecount-cache v1\ng=0;ns=1,1;count=1\nwhat is this\n")
    with pytest.raises(CacheError, match="line 3"):
        memo_store_load(path)


def test_load_rejects_overlong_count(tmp_path, default_int_digit_limit):
    path = tmp_path / "long.txt"
    path.write_text("#gluecount-cache v1\ng=0;ns=1,1;count=1\ng=1;ns=2;count=" + "9" * 5000 + "\n")
    with pytest.raises(CacheError, match="line 3"):
        memo_store_load(path)


def test_load_rejects_unsorted_sizes(tmp_path):
    path = tmp_path / "unsorted.txt"
    path.write_text("#gluecount-cache v1\ng=0;ns=1,2;count=2\n")
    with pytest.raises(CacheError, match="non-increasing"):
        memo_store_load(path)


def test_load_rejects_duplicate_key(tmp_path):
    path = tmp_path / "twice.txt"
    path.write_text("#gluecount-cache v1\ng=0;ns=1,1;count=1\ng=0;ns=1,1;count=1\n")
    with pytest.raises(CacheError, match=r"line 3: duplicate key g=0, ns=\(1, 1\)$"):
        memo_store_load(path)


def test_load_rejects_all_zero_key(tmp_path):
    path = tmp_path / "zeros.txt"
    path.write_text("#gluecount-cache v1\ng=0;ns=0,0;count=1\n")
    with pytest.raises(CacheError, match=r"line 2: all-zero size key \(0, 0\)$"):
        memo_store_load(path)


def test_a_table_starts_empty_and_takes_no_entries():
    # Only count_recursive and memo_store_load fill a table.
    assert CountTable().entries == {} and len(CountTable()) == 0
    with pytest.raises(TypeError):
        CountTable({(0, (1,)): 1})


def test_load_verify_names_the_file_for_an_entry_it_cannot_recompute(tmp_path):
    path = tmp_path / "far.txt"
    path.write_text("#gluecount-cache v1\ng=0;ns=4000,4000;count=1\n")
    assert len(memo_store_load(path)) == 1
    with pytest.raises(CacheError) as info:
        memo_store_load(path, verify=True)
    assert str(info.value) == (
        f"{path}: entry g=0, ns=(4000, 4000) cannot be recomputed: g=0, L=2 is out of "
        "range for the recursion: its polygon has 8002 edges, and the memo keys allow "
        "at most 4095"
    )


def test_load_rejects_empty_file(tmp_path):
    path = tmp_path / "blank.txt"
    path.write_text("")
    with pytest.raises(CacheError, match="empty file"):
        memo_store_load(path)


def test_load_skips_blank_lines_between_entries(tmp_path):
    path = tmp_path / "spaced.txt"
    path.write_text("#gluecount-cache v1\ng=0;ns=1,1;count=1\n\n  \ng=0;ns=2;count=1\n\n")
    assert memo_store_load(path).entries == {(0, (1, 1)): 1, (0, (2,)): 1}


def test_load_verify_accepts_true_entries(tmp_path):
    memo = CountTable()
    count_recursive(SurfaceSignature(1, (2, 1)), memo)
    path = tmp_path / "good.txt"
    memo_store_save(memo, path)
    assert memo_store_load(path, verify=True) == memo


def test_load_verify_rejects_corrupt_entry(tmp_path):
    path = tmp_path / "corrupt.txt"
    path.write_text("#gluecount-cache v1\ng=0;ns=1,1;count=2\n")
    with pytest.raises(ConsistencyError):
        memo_store_load(path, verify=True)


def test_poisoned_memo_is_caught_by_verify(tmp_path):
    # The wrong entry is no one step over the others, so verify recomputes
    # from scratch, and it cannot hide behind the other, correct ones.
    memo = CountTable()
    count_recursive(SurfaceSignature(1, (2, 1)), memo)
    path = tmp_path / "poisoned.txt"
    memo_store_save(memo, path)
    count = memo.entries[1, (2, 1)]
    text = path.read_text()
    line = f"\ng=1;ns=2,1;count={count}\n"
    assert line in text
    path.write_text(text.replace(line, f"\ng=1;ns=2,1;count={count + 1}\n"))
    assert memo_store_load(path) != memo
    with pytest.raises(ConsistencyError, match=r"entry g=1, ns=\(2, 1\) holds"):
        memo_store_load(path, verify=True)


def test_entries_is_a_read_only_snapshot():
    memo = CountTable()
    count_recursive(SurfaceSignature(1, (2, 1)), memo)
    view = memo.entries
    with pytest.raises(TypeError):
        view[1, (2, 1)] = 0
    with pytest.raises(TypeError):
        del view[1, (2, 1)]
    assert memo.entries == view


def test_verify_names_the_least_disagreeing_key(tmp_path):
    # (1, (2,)) has the lesser code but the greater (g, ns), and comes first
    # in the file.
    path = tmp_path / "two.txt"
    path.write_text("#gluecount-cache v1\ng=1;ns=2;count=6\ng=0;ns=2,1;count=7\n")
    with pytest.raises(ConsistencyError, match=r"entry g=0, ns=\(2, 1\) holds 7, recomputed 2$"):
        memo_store_load(path, verify=True)


def test_verify_checks_genus_zero_one_boundary_entries(tmp_path):
    # The recursion returns 1 for a disk without storing it, so verify must
    # keep the recomputed value itself.
    path = tmp_path / "disk.txt"
    path.write_text("#gluecount-cache v1\ng=0;ns=3;count=1\n")
    assert memo_store_load(path, verify=True).entries == {(0, (3,)): 1}
    path.write_text("#gluecount-cache v1\ng=0;ns=3;count=2\n")
    with pytest.raises(ConsistencyError) as info:
        memo_store_load(path, verify=True)
    assert str(info.value) == f"{path}: entry g=0, ns=(3,) holds 2, recomputed 1"


def test_verify_of_a_saved_memo_recomputes_nothing(tmp_path, monkeypatch):
    # Every entry of a saved memo is one kernel step over the others, so the
    # fixed-point check accepts it and no scratch table is built.
    memo = CountTable()
    count_recursive(SurfaceSignature(3, (2, 1)), memo)
    path = tmp_path / "memo.txt"
    memo_store_save(memo, path)
    calls = []
    recompute = recursion.count_recursive

    def spy(*args):
        calls.append(args[0])
        return recompute(*args)

    monkeypatch.setattr(recursion, "count_recursive", spy)
    assert memo_store_load(path, verify=True) == memo
    assert calls == []
    # A file that is not a fixed point still goes to the recompute.
    path.write_text(path.read_text().replace(f"count={memo.entries[3, (2, 1)]}", "count=1"))
    with pytest.raises(ConsistencyError, match=r"entry g=3, ns=\(2, 1\) holds 1, recomputed "):
        memo_store_load(path, verify=True)
    assert calls


def test_verify_counts_only_a_disk_as_one(tmp_path):
    # (1, (5,)) is missing from the file, and its parent holds the count
    # that a step reading 1 for it gives: the check must not take that.
    memo = CountTable()
    count_recursive(SurfaceSignature(1, (2, 1)), memo)
    true, child = memo.entries[1, (2, 1)], memo.entries[1, (5,)]
    # The merge of 2 and 1 enters the step of (1, (2, 1)) with the weight
    # 2 * 2 * 1 / (2 * 3), all other children held.
    forged = true - 2 * (child - 1) // 3
    assert (forged, true) == (38, 84)
    path = tmp_path / "forged.txt"
    memo_store_save(memo, path)
    text = path.read_text()
    text = text.replace(f"g=1;ns=5;count={child}\n", "")
    text = text.replace(f"g=1;ns=2,1;count={true}\n", f"g=1;ns=2,1;count={forged}\n")
    path.write_text(text)
    assert len(memo_store_load(path)) == len(memo) - 1
    with pytest.raises(ConsistencyError) as info:
        memo_store_load(path, verify=True)
    assert str(info.value) == f"{path}: entry g=1, ns=(2, 1) holds {forged}, recomputed {true}"


def test_verify_accepts_a_true_entry_without_its_children(tmp_path):
    true = count_closed(SurfaceSignature(1, (2, 1)))
    path = tmp_path / "alone.txt"
    path.write_text(f"#gluecount-cache v1\ng=1;ns=2,1;count={true}\n")
    assert memo_store_load(path, verify=True).entries == {(1, (2, 1)): true}


def test_verify_of_a_deep_memo_follows_the_recursion_limit(tmp_path, monkeypatch):
    # A saved memo is a fixed point however deep its entries, but under a
    # limit of 41 the recompute refuses g=10 with one boundary (21 levels):
    # so does the verified load.
    memo = CountTable()
    count_recursive(SurfaceSignature(10, (1,)), memo)
    path = tmp_path / "deep.txt"
    memo_store_save(memo, path)
    assert memo_store_load(path, verify=True) == memo
    monkeypatch.setattr(recursion.sys, "getrecursionlimit", lambda: 41)
    with pytest.raises(CacheError) as info:
        memo_store_load(path, verify=True)
    assert str(info.value) == (
        f"{path}: entry g=10, ns=(1,) cannot be recomputed: recursion too deep for g=10, L=1"
    )


def test_verify_refuses_a_true_pair_past_the_key_range(tmp_path):
    # (2047, 2047) is one step from a disk of 4096 edges: its count is a
    # fixed point, but its polygon is past what the recompute takes.
    path = tmp_path / "wide.txt"
    path.write_text(f"#gluecount-cache v1\ng=0;ns=2047,2047;count={2047**2}\n")
    with pytest.raises(CacheError) as info:
        memo_store_load(path, verify=True)
    assert str(info.value) == (
        f"{path}: entry g=0, ns=(2047, 2047) cannot be recomputed: g=0, L=2 is out of "
        "range for the recursion: its polygon has 4096 edges, and the memo keys allow "
        "at most 4095"
    )


def test_state_budget_refuses_a_large_recursion(tmp_path, monkeypatch):
    monkeypatch.setattr(recursion, "_STATE_BUDGET", 30)
    memo = CountTable()
    # 23 new entries, then 27: the budget counts per call, so both fit.
    count_recursive(SurfaceSignature(2, (2, 1)), memo)
    count_recursive(SurfaceSignature(2, (2, 2)), memo)
    assert len(memo) == 50
    # g=4 with one boundary of size 1 needs 62.
    with pytest.raises(DomainError) as info:
        count_recursive(SurfaceSignature(4, (1,)), CountTable())
    assert str(info.value) == "recursion too large: more than 30 new states"
    with pytest.raises(DomainError):
        count_recursive(SurfaceSignature(5, (2, 1)), memo)
    # The entries kept stay valid: 30 more, each one true.
    assert len(memo) == 80
    for (genus, sizes), count in memo.entries.items():
        assert count == count_closed(SurfaceSignature(genus, sizes))
    # A verified load cannot recompute the 42-byte file of g=20 with three
    # boundaries of size 2.
    path = tmp_path / "far.txt"
    path.write_text("#gluecount-cache v1\ng=20;ns=2,2,2;count=1\n")
    assert path.stat().st_size == 42
    monkeypatch.setattr(recursion, "_STATE_BUDGET", 1000)
    start = time.perf_counter()
    with pytest.raises(CacheError) as info:
        memo_store_load(path, verify=True)
    assert time.perf_counter() - start < 2
    assert str(info.value) == (
        f"{path}: entry g=20, ns=(2, 2, 2) cannot be recomputed: "
        "recursion too large: more than 1000 new states"
    )


POWER = [1 << 16 * (size + 1) for size in range(64)]


def _code(genus, sizes):
    """The code of (genus, sizes): genus plus 2^(16(s+1)) per size s."""
    return genus + sum(map(POWER.__getitem__, sizes))


def test_codec_round_trip_and_child_codes():
    memo = CountTable()
    for genus in range(4):
        for holes in range(1, 5):
            for sizes in itertools.combinations_with_replacement(range(6), holes):
                if sum(sizes):
                    count_recursive(SurfaceSignature(genus, sizes), memo)
    assert len(memo) > 1000
    power = POWER
    for genus, sizes in memo.entries:
        code = _code(genus, sizes)
        assert code in memo._codes
        assert (code & 0xFFFF, recursion._sizes(code >> 16)) == (genus, sizes)
        # Equal sizes give equal children, so each distinct size is enough.
        distinct = sorted(set(sizes), reverse=True)
        for a, u in enumerate(distinct):
            for v in distinct[a:]:
                if v == u and sizes.count(u) < 2:
                    continue
                rest = list(sizes)
                rest.remove(u)
                rest.remove(v)
                child = sorted([u + v + 2, *rest], reverse=True)
                assert code - power[u] - power[v] + power[u + v + 2] == _code(genus, child)
        if genus:
            for u in distinct:
                rest = list(sizes)
                rest.remove(u)
                for x in range(1, u // 2 + 2):
                    child = sorted([x, u + 2 - x, *rest], reverse=True)
                    cut = code - 1 - power[u] + power[x] + power[u + 2 - x]
                    assert cut == _code(genus - 1, child)


def _fail(*args):
    raise AssertionError("the kernel ran")


@pytest.mark.parametrize(
    "genus, sizes",
    [(2**16, (1,)), (0, (1,) * 2**16), (2**15, (1,) * 2**15), (0, (2**12 - 3, 1))],
    ids=["genus", "holes", "holes-plus-genus", "polygon"],
)
def test_count_recursive_refuses_keys_out_of_range(monkeypatch, genus, sizes):
    monkeypatch.setattr(recursion, "_count", _fail)
    start = time.perf_counter()
    with pytest.raises(DomainError, match=f"g={genus}, L={len(sizes)} is out of range"):
        count_recursive(SurfaceSignature(genus, sizes))
    assert time.perf_counter() - start < 1
    assert recursion._POWERS[-1].bit_length() <= 16 * 2**12 + 1


def test_count_recursive_range_is_inclusive():
    # A polygon of 4092 + 1 + 2 = 4095 edges.
    sig = SurfaceSignature(0, (4092, 1))
    assert count_recursive(sig) == count_closed(sig)


@pytest.mark.parametrize(
    "line, message",
    [
        ("g=65536;ns=1;count=1", r"genus 65536 is out of range"),
        ("g=0;ns=" + ",".join(["1"] * 2**16) + ";count=1", r"size 1 occurs 65536 times"),
        ("g=0;ns=4096;count=1", r"size 4096 is out of range"),
    ],
    ids=["genus", "multiplicity", "size"],
)
def test_load_refuses_keys_out_of_range(tmp_path, line, message):
    path = tmp_path / "range.txt"
    path.write_text(f"#gluecount-cache v1\ng=0;ns=1,1;count=1\n{line}\n")
    start = time.perf_counter()
    with pytest.raises(CacheError, match=f"line 3: {message}"):
        memo_store_load(path)
    assert time.perf_counter() - start < 1


def test_load_accepts_keys_at_the_edge_of_the_range(tmp_path):
    path = tmp_path / "edge.txt"
    ones = ",".join(["1"] * (2**16 - 1))
    path.write_text(f"#gluecount-cache v1\ng=65535;ns=4095;count=1\ng=0;ns={ones};count=1\n")
    assert set(memo_store_load(path).entries) == {(65535, (4095,)), (0, (1,) * (2**16 - 1))}


def test_load_refuses_undecodable_file(tmp_path):
    path = tmp_path / "latin1.txt"
    data = b"#gluecount-cache v1\ng=0;ns=1,1;count=1\ng=\xff;ns=2;count=1\n"
    path.write_bytes(data)
    with pytest.raises(CacheError) as info:
        memo_store_load(path)
    offset = data.index(b"\xff")
    assert str(info.value) == f"{path}: not UTF-8 text: invalid start byte at byte offset {offset}"


@pytest.fixture(scope="module")
def grid_files(tmp_path_factory):
    """The lines of the files memo_store_save writes for a few memos, each of
    every signature with genus <= G, at most L boundaries, each of size <= n."""
    path = tmp_path_factory.mktemp("grids") / "grid.txt"
    files = []
    for max_genus, max_holes, max_n in [(1, 3, 3), (0, 5, 2), (3, 2, 2)]:
        memo = CountTable()
        for genus in range(max_genus + 1):
            for holes in range(1, max_holes + 1):
                for sizes in itertools.product(range(max_n + 1), repeat=holes):
                    if any(sizes):
                        count_recursive(SurfaceSignature(genus, sizes), memo)
        memo_store_save(memo, path)
        files.append(path.read_text(encoding="utf-8").splitlines())
    return files


def _load_outcome(load, path):
    """The table `load` reads from `path`, or its exception's type and message."""
    try:
        return load(path)
    except Exception as exc:
        return type(exc), str(exc)


def _assert_loads_like_reference(path):
    expected = _load_outcome(reference_loader.load, path)
    assert _load_outcome(memo_store_load, path) == expected
    return expected


def _mutate_sizes(rng, sizes):
    """`sizes`, a list of size tokens, with one seeded change."""
    sizes = list(sizes)
    i = rng.randrange(len(sizes))
    kind = rng.randrange(9)
    if kind == 0 and len(sizes) > 1:
        j = rng.randrange(len(sizes))
        sizes[i], sizes[j] = sizes[j], sizes[i]
    elif kind == 1:
        sizes[i] = "0"
    elif kind == 2:
        sizes[i] = "4096"
    elif kind == 3:
        sizes[i] = "0" + sizes[i]
    elif kind == 4:
        sizes.insert(0, "")
    elif kind == 5:
        sizes.append("")
    elif kind == 6:
        sizes.insert(i, "")
    elif kind == 7:
        # An Arabic-Indic digit: a decimal digit, but not an ASCII one.
        sizes[i] = "".join(chr(0x660 + int(d)) for d in sizes[i])
    else:
        sizes.insert(0, str(rng.randrange(7)))
    return sizes


def _mutate(rng, lines):
    """`lines` with one to three seeded changes of the kinds a damaged or
    hand-edited cache file shows."""
    header, body = lines[0], list(lines[1:])
    for _ in range(rng.randrange(1, 4)):
        at = rng.randrange(len(body))
        kind = rng.randrange(6)
        if kind == 0:
            body.insert(rng.randrange(len(body) + 1), body[at])
        elif kind == 1:
            rng.shuffle(body)
        elif kind == 2:
            body.insert(at, rng.choice(["", " ", "\t ", "  "]))
        elif kind == 3 and body[at].startswith("g="):
            body[at] = "g=65536;" + body[at].split(";", 1)[1]
        elif body[at].startswith("g="):
            genus, sizes, count = body[at].split(";")
            sizes = _mutate_sizes(rng, sizes[len("ns="):].split(","))
            body[at] = f"{genus};ns={','.join(sizes)};{count}"
    return [header, *body]


def _check_saved_files(grid_files, path):
    for lines in grid_files:
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert isinstance(_assert_loads_like_reference(path), CountTable)


def _check_mutated_files(grid_files, path, seed):
    rng = random.Random(seed)
    outcomes = set()
    for _ in range(60):
        lines = _mutate(rng, rng.choice(grid_files))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        expected = _assert_loads_like_reference(path)
        if isinstance(expected, CountTable):
            outcomes.add("table")
        else:
            # "<path>: line <n>: <kind> ...": the word after the line number.
            outcomes.add(expected[1].removeprefix(f"{path}: ").split()[2])
    # The mutations reach both accepted files and several kinds of refusal.
    assert "table" in outcomes and len(outcomes) >= 4, outcomes


def _check_edge_case(path, body, outcome):
    """Load `body` after the header: both loaders agree, and give `outcome`,
    the entries loaded or the (line number, message) of the refusal."""
    path.write_text("\n".join(["#gluecount-cache v1", *body]) + "\n", encoding="utf-8")
    loaded = _assert_loads_like_reference(path)
    if isinstance(outcome, dict):
        assert isinstance(loaded, CountTable) and loaded.entries == outcome
    else:
        lineno, message = outcome
        assert loaded == (CacheError, f"{path}: line {lineno}: {message}")


def test_load_matches_reference_on_saved_files(grid_files, tmp_path):
    _check_saved_files(grid_files, tmp_path / "grid.txt")


@pytest.mark.parametrize("seed", range(4))
def test_load_matches_reference_on_mutated_files(grid_files, tmp_path, seed):
    _check_mutated_files(grid_files, tmp_path / "mutated.txt", seed)


def _int_refusal(text):
    """What int() says of `text` at CPython's default digit limit, which
    Python versions word differently; None on a Python without the limit."""
    if not hasattr(sys, "set_int_max_str_digits"):
        return None
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    try:
        int(text)
    except ValueError as exc:
        return str(exc)
    finally:
        sys.set_int_max_str_digits(previous)


ONES = ",".join(["1"] * (2**16 - 1))

# Files that probe the loader's fast path and its refusals; each body
# follows the header, one entry a line, and is paired with its outcome.
EDGE_CASES = [
    (["g=0;ns=1;count=1", "g=0;ns=1,1;count=1", "g=0;ns=1,1,1;count=1"],
     {(0, (1,)): 1, (0, (1, 1)): 1, (0, (1, 1, 1)): 1}),
    (["g=0;ns=2;count=1", "g=0;ns=1,2;count=1"],
     (3, "sizes must be non-increasing, got (1, 2)")),
    (["g=0;ns=0,1;count=1"],
     (2, "sizes must be non-increasing, got (0, 1)")),
    (["g=0;ns=1;count=1", "g=0;ns=0,1;count=1"],
     (3, "sizes must be non-increasing, got (0, 1)")),
    (["g=0;ns=1;count=1", "g=0;ns=4096,1;count=1"],
     (3, "size 4096 is out of range: sizes must be in 0..4095")),
    (["g=0;ns=1;count=1", "g=0;ns=4095,1;count=1"],
     {(0, (1,)): 1, (0, (4095, 1)): 1}),
    (["g=0;ns=1;count=1", "g=0;ns=00002,1;count=1"],
     {(0, (1,)): 1, (0, (2, 1)): 1}),
    (["g=0;ns=1;count=1", "g=0;ns=01,1;count=1", "g=0;ns=1,1;count=1"],
     (4, "duplicate key g=0, ns=(1, 1)")),
    (["g=0;ns=1;count=1", "g=0;ns=,1;count=1"],
     (3, "malformed entry 'g=0;ns=,1;count=1'")),
    (["g=0;ns=1;count=1", "g=0;ns=1,;count=1"],
     (3, "malformed entry 'g=0;ns=1,;count=1'")),
    (["g=0;ns=1,1;count=1", "g=0;ns=2,,1,1;count=1"],
     (3, "malformed entry 'g=0;ns=2,,1,1;count=1'")),
    (["g=0;ns=,;count=1"],
     (2, "malformed entry 'g=0;ns=,;count=1'")),
    (["g=0;ns=1;count=1", "g=65536;ns=2,1;count=1"],
     (3, "genus 65536 is out of range: it must be below 65536")),
    (["g=0;ns=1;count=1", "g=0;ns=" + "9" * 5000 + ",1;count=1"],
     (3, f"unreadable number: {_int_refusal('9' * 5000)}")),
    (["g=0;ns=" + ONES + ";count=1", "g=0;ns=1," + ONES + ";count=1"],
     (3, "size 1 occurs 65536 times, more than 65535")),
    (["g=0;ns=" + ONES + ";count=1", "g=0;ns=2," + ONES + ";count=1"],
     {(0, (1,) * (2**16 - 1)): 1, (0, (2,) + (1,) * (2**16 - 1)): 1}),
    (["g=0;ns=1;count=1", "g=0;ns=0,0;count=1"],
     (3, "all-zero size key (0, 0)")),
    (["g=0;ns=1;count=0"],
     {(0, (1,)): 0}),
    (["g=0;ns=1;count=1", "g=0;ns=2;count=-5"],
     (3, "malformed entry 'g=0;ns=2;count=-5'")),
    (["g=0;ns=1;count=1", "g=0;ns=2;count=x"],
     (3, "malformed entry 'g=0;ns=2;count=x'")),
    (["g=0;ns=1;count=1", "g=0;ns=2;count=2.5"],
     (3, "malformed entry 'g=0;ns=2;count=2.5'")),
    (["g=0;ns=1;count=1", "g=1.5;ns=1;count=1"],
     (3, "malformed entry 'g=1.5;ns=1;count=1'")),
    (["g=0;ns=1;count=1", "g=0;ns=1.0;count=1"],
     (3, "malformed entry 'g=0;ns=1.0;count=1'")),
]
EDGE_IDS = [
    "tails", "increasing", "increasing-from-zero", "zero-head", "head-4096", "head-4095",
    "long-head", "leading-zero", "leading-comma", "trailing-comma", "double-comma",
    "only-comma", "genus-65536", "overlong-head", "multiplicity-65536", "long-tail",
    "zero-sizes", "zero-count", "negative-count", "letter-count", "fraction-count",
    "fraction-genus", "fraction-size",
]


@pytest.mark.parametrize("body, outcome", EDGE_CASES, ids=EDGE_IDS)
def test_load_matches_reference_on_edge_cases(tmp_path, body, outcome, default_int_digit_limit):
    _check_edge_case(tmp_path / "edge.txt", body, outcome)


def test_load_memory_stays_linear_in_the_line_length(tmp_path):
    # A loader that kept the code of every suffix of a sizes text would hold
    # 65,535 suffixes of up to 128 KiB each here.
    ones = ",".join(["1"] * (2**16 - 1))
    path = tmp_path / "long.txt"
    path.write_text(f"#gluecount-cache v1\ng=0;ns={ones};count=1\ng=0;ns=2,{ones};count=1\n")
    tracemalloc.start()
    try:
        table = memo_store_load(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(table) == 2
    assert peak < 64 * 2**20, peak


def _traced(call):
    """The result of `call()` and the traced memory (current, peak) as it
    returned."""
    tracemalloc.start()
    try:
        return call(), *tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()


def test_cache_io_holds_one_block_of_lines(tmp_path, monkeypatch):
    # A save that built every line and joined them peaked at 8.0 times the
    # file's size here, and a load that kept every line at 5.8 times it
    # above the table it returned; verify then recomputed with the file's
    # text, its lines and its sizes-text index, 5.5 times the file, still
    # held. Writing a block at a time, a save that kept the text of every
    # distinct sizes tuple until its end peaked at 4.3 times; one that
    # formats each line's sizes afresh holds only the sorted codes and a
    # block, 1.6 times. Splitting a block at a time, a load stays below 3.5 times, and
    # verify holds no more than the table when it starts its fixed-point
    # check (2.7 and -0.03 times the file, as where the recompute started).
    memo = CountTable()
    for genus in range(6):
        for holes in range(1, 3):
            for sizes in itertools.product(range(4), repeat=holes):
                if any(sizes):
                    count_recursive(SurfaceSignature(genus, sizes), memo)
    path = tmp_path / "memo.txt"
    memo_store_save(memo, path)
    size = path.stat().st_size
    assert len(memo) == 4098 and size > 3 * 32 * recursion._BLOCK
    _, held, peak = _traced(lambda: memo_store_save(memo, path))
    assert peak - held < 2 * size, (peak - held) / size
    table, held, peak = _traced(lambda: memo_store_load(path))
    assert peak - held < 5 * size
    # Read and decoded a chunk at a time, with the sizes-text index sharing
    # the genus-0 codes of the table, a plain load stays below 3.5 times;
    # the loader that decoded the whole file and kept its own codes peaked
    # at 4.1 times.
    assert peak - held < 3.5 * size, (peak - held) / size

    # Tracing stops where the fixed-point check starts, which it would slow
    # 30-fold.
    at_start = []
    fixed_point = recursion._fixed_point

    def traced_fixed_point(entries):
        at_start.append(tracemalloc.get_traced_memory())
        tracemalloc.stop()
        return fixed_point(entries)

    monkeypatch.setattr(recursion, "_fixed_point", traced_fixed_point)
    assert _traced(lambda: memo_store_load(path, verify=True))[0] == table
    [(current, peak)] = at_start
    assert peak - held < 5 * size
    assert current - held < size / 2


@pytest.fixture
def small_blocks(monkeypatch):
    """Save two lines a block and load 64 bytes a read, two to four lines
    of the test files, so that block and read edges fall all over them."""
    monkeypatch.setattr(recursion, "_BLOCK", 2)


@pytest.fixture(params=[False, True], ids=["real-blocks", "small-blocks"])
def blocks(request):
    """Run the test at the real block size, then at the small one."""
    if request.param:
        request.getfixturevalue("small_blocks")


def test_save_reports_an_overlong_count_in_a_later_block(
    tmp_path, default_int_digit_limit, small_blocks
):
    # Two lines a block: the first two blocks are written before the
    # third, which holds the first overlong count in file order, fails.
    path = tmp_path / "memo.txt"
    memo_store_save(CountTable(), path)
    old = path.read_bytes()
    memo = cache_table(
        *(f"g=0;ns={size};count={size}" for size in range(1, 6)),
        "g=0;ns=6;count=1" + "0" * 4300,
        "g=1;ns=1;count=1" + "0" * 4300,
    )
    with pytest.raises(CacheError, match=r"g=0, ns=\(6,\).*limit of 4300"):
        memo_store_save(memo, path)
    assert path.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["memo.txt"]


def test_small_blocks_save_the_same_bytes(grid_files, tmp_path, small_blocks):
    path = tmp_path / "grid.txt"
    for lines in grid_files:
        data = ("\n".join(lines) + "\n").encode()
        path.write_bytes(data)
        memo_store_save(memo_store_load(path), path)
        assert path.read_bytes() == data


def test_small_blocks_load_saved_files_like_reference(grid_files, tmp_path, small_blocks):
    _check_saved_files(grid_files, tmp_path / "grid.txt")


@pytest.mark.parametrize("seed", range(4))
def test_small_blocks_load_mutated_files_like_reference(grid_files, tmp_path, small_blocks, seed):
    _check_mutated_files(grid_files, tmp_path / "mutated.txt", seed)


@pytest.mark.parametrize("body, outcome", EDGE_CASES, ids=EDGE_IDS)
def test_small_blocks_load_edge_cases_like_reference(
    tmp_path, small_blocks, body, outcome, default_int_digit_limit
):
    _check_edge_case(tmp_path / "edge.txt", body, outcome)


# The line breaks that str.splitlines() knows besides "\n" and "\r\n".
BREAKS = {"vt": "\x0b", "ff": "\x0c", "cr": "\r", "line-separator": "\u2028"}


def _line_ends(lines, kind):
    """The text of a cache file of `lines` (header first) whose line ends
    are of `kind`: "crlf", "no-final-newline" or a key of BREAKS, which
    then ends every third line."""
    if kind == "crlf":
        return "\r\n".join(lines) + "\r\n"
    if kind == "no-final-newline":
        return "\n".join(lines)
    return "".join(line + (BREAKS[kind] if i % 3 == 2 else "\n") for i, line in enumerate(lines))


@pytest.mark.parametrize("kind", ["crlf", "no-final-newline", *BREAKS])
def test_load_matches_reference_on_line_ends(grid_files, tmp_path, blocks, kind):
    path = tmp_path / "ends.txt"
    lines = grid_files[0][:16]
    path.write_bytes(_line_ends(lines, kind).encode())
    outcome = _assert_loads_like_reference(path)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert outcome == memo_store_load(path)
    # A malformed last line is named by its number, counted across blocks.
    path.write_bytes(_line_ends([*lines[:-1], "g=0;ns=1;count=x"], kind).encode())
    outcome = _assert_loads_like_reference(path)
    assert outcome[1].startswith(f"{path}: line 16: malformed entry"), outcome


@pytest.mark.parametrize("kind", BREAKS)
def test_load_matches_reference_on_a_break_inside_an_entry(grid_files, tmp_path, blocks, kind):
    path = tmp_path / "split.txt"
    lines = grid_files[0][:16]
    lines[9] = lines[9].replace(";count=", BREAKS[kind] + ";count=")
    path.write_bytes(("\n".join(lines) + "\n").encode())
    outcome = _assert_loads_like_reference(path)
    assert outcome[1].startswith(f"{path}: line 10: malformed entry"), outcome


@pytest.mark.parametrize("odd", ["", " \t", "g=0;ns=1;count=x"], ids=["blank", "spaces", "malformed"])
def test_load_matches_reference_with_an_odd_line_anywhere(grid_files, tmp_path, blocks, odd):
    # Slid over the first lines, the odd line falls first, last and in the
    # middle of a small block.
    path = tmp_path / "odd.txt"
    lines = grid_files[0][:16]
    for at in range(1, len(lines) + 1):
        path.write_text("\n".join([*lines[:at], odd, *lines[at:]]) + "\n", encoding="utf-8")
        outcome = _assert_loads_like_reference(path)
        if odd.startswith("g="):
            assert outcome[1].startswith(f"{path}: line {at + 1}: malformed entry"), outcome
        else:
            assert isinstance(outcome, CountTable)


def _cut_by_a_read(data, piece, keep):
    """`data`, the bytes of a cache file, with blank lines put in before the
    line that holds the first `piece`, so that one of the loader's reads
    ends just after the first `keep` bytes of that `piece`."""
    at = data.index(piece)
    start = data.rindex(b"\n", 0, at) + 1
    return data[:start] + b"\n" * (-(at + keep) % (recursion._BLOCK * 32)) + data[start:]


# A line whose end, or whose sizes, hold a character or line break that a
# read can cut: (the line, the piece to cut, how many of its bytes go first).
CUT = {
    "arabic-indic-digit": ("g=0;ns=\u0663;count=1\n", "\u0663", 1),
    "line-separator-1": ("g=0;ns=3;count=1\u2028", "\u2028", 1),
    "line-separator-2": ("g=0;ns=3;count=1\u2028", "\u2028", 2),
    "crlf": ("g=0;ns=3;count=1\r\n", "\r\n", 1),
}


@pytest.mark.parametrize("kind", CUT)
def test_a_character_or_crlf_cut_by_a_read_loads_as_before(tmp_path, blocks, kind):
    line, piece, keep = CUT[kind]
    path = tmp_path / "cut.txt"
    head = "#gluecount-cache v1\ng=0;ns=1;count=1\ng=0;ns=2;count=1\n" + line
    data = _cut_by_a_read((head + "g=0;ns=4;count=1\n").encode(), piece.encode(), keep)
    data.decode("utf-8")  # only a read cuts the character
    path.write_bytes(data)
    outcome = _assert_loads_like_reference(path)
    assert outcome.entries == {(0, (size,)): 1 for size in range(1, 5)}
    # The line after the cut is counted as one line, not two.
    data = _cut_by_a_read((head + "g=0;ns=4;count=x\n").encode(), piece.encode(), keep)
    path.write_bytes(data)
    lineno = len(data.decode("utf-8").splitlines())
    assert _assert_loads_like_reference(path) == (
        CacheError, f"{path}: line {lineno}: malformed entry 'g=0;ns=4;count=x'"
    )


# Undecodable bytes, each after a chunk's worth of blank lines so that it is
# read after the line that holds the file's first line error: (the bytes
# with the fault, the piece a read cuts or None, how many of its bytes go
# first). A cut sequence is refused at its first byte, in the read before.
UNDECODABLE = {
    "invalid-start": (b"g=0;ns=1;count=1\xff\n", None, 0),
    "cut-sequence": (b"g=0;ns=1;count=1\xe2\x82;\n", b"\xe2\x82;", 2),
    "truncated-at-end": (b"g=0;ns=1;count=1\xf0\x9f", None, 0),
}
LINE_FAULTS = {
    "header": ("#gluecount-cache v2", "g=0;ns=2;count=1"),
    "malformed": ("#gluecount-cache v1", "g=0;ns=2;count=x"),
    "duplicate": ("#gluecount-cache v1", "g=0;ns=1;count=1"),
}


@pytest.mark.parametrize("fault", LINE_FAULTS)
@pytest.mark.parametrize("bad", UNDECODABLE)
def test_an_undecodable_byte_read_after_a_line_error_comes_first(tmp_path, blocks, fault, bad):
    chunk = recursion._BLOCK * 32
    header, faulty = LINE_FAULTS[fault]
    tail, piece, keep = UNDECODABLE[bad]
    # The euro sign straddles the end of the first read, whose lines hold
    # the line error, so the rest of the file decodes only in the same
    # decoder that holds its first byte.
    data = _cut_by_a_read(
        f"{header}\ng=0;ns=1;count=1\n{faulty}\n\u20ac\n".encode(), "\u20ac".encode(), 1
    ) + b"\n" * chunk + tail
    assert data.index("\u20ac".encode()) == chunk - 1
    if piece is not None:
        data = _cut_by_a_read(data, piece, keep)
    path = tmp_path / "bad.txt"
    path.write_bytes(data)
    with pytest.raises(UnicodeDecodeError) as decoded:
        data.decode("utf-8")
    assert decoded.value.start >= 2 * chunk
    with pytest.raises(CacheError) as info:
        memo_store_load(path)
    assert str(info.value) == (
        f"{path}: not UTF-8 text: {decoded.value.reason} at byte offset {decoded.value.start}"
    )
    with pytest.raises(UnicodeDecodeError, match=decoded.value.reason):
        reference_loader.load(path)
