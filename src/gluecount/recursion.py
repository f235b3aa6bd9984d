"""Cut recursion for the gluing counts, with a persistent memo table.

The paper states the recursion on a scaled variant T(g; n_1..n_L) = count * z!,
where z is the number of punctures (zero sizes). With m_k = max(n_k, 1):

    (L + 2g - 1) * T(g; n_1..n_L)
        = sum_{i<j} m_i m_j T(g; n_i+n_j+2, rest)
        + (1/2) * sum_i m_i sum_{x=1}^{n_i+1} T(g-1; n_i+2-x, x, rest)

with T(0; n) = 1 for a single boundary, and T = 0 whenever the genus goes
negative or no boundary remains. Merging two boundaries drops L by one;
cutting a handle drops g by one, so 2g + L shrinks at every step and the
recursion terminates.

New sizes are never 0, so z! cancels term by term: a step that removes one
puncture occurs z times and the child's T carries (z-1)!, a merge of two
punctures z(z-1)/2 times with the child's (z-2)!, and every other step keeps
z. So the kernel sums plain counts, in which the punctures weigh as one
group. The sums run over distinct sizes, not indices: each child is computed
once and weighted by how often it occurs. Doubled to clear the 1/2, a merge
of sizes u > v > 0 held by c_u and c_v boundaries weighs 2 c_u c_v u v, of u
with itself c_u(c_u - 1) u^2, of u with the punctures 2 c_u u, and of two
punctures 1; a cut of u > 0 weighs c_u u, and of a puncture 1. Within a cut,
x and n_i+2-x split off the same pair of sizes, so x runs only to
floor(n_i/2)+1 and each term counts twice unless x = n_i+2-x. The total goes
through one `exact._divide` by 2(L+2g-1), which raises ConsistencyError if
it is not exact.

Memo keys: the memo holds one integer code per signature, with 16-bit
fields: field 0 is the genus and field s+1 the number of boundaries of size
s. With P[s] = 2^(16(s+1)), a child's code is its parent's code plus a few
powers:

    merge u, v:        code - P[u] - P[v] + P[u+v+2]
    cut u into x, y:   code - 1 - P[u] + P[x] + P[y]

so a memo hit is one integer sum and one dict probe. On a miss the kernel
reads the state's (size, multiplicity, P[size]) groups straight off the
fields, largest first, and builds no sizes tuple; it decodes the sizes
only to name them when a division fails. A save, likewise, writes each
line's sizes text straight from the fields, with no sizes tuple: the text
of each distinct size, made once per save, repeated by its multiplicity.
Every step keeps the polygon size N = n_1 + ... + n_L + 4g + 2L - 2 fixed,
so no size reached exceeds N, no genus exceeds g and no size occurs more
than L + g times. count_recursive refuses a signature with N >= 4096
before any work: every field then stays below 2^16 and a code below 8 KiB.

Persistence: `memo_store_save` and `memo_store_load` keep a CountTable in a
versioned UTF-8 text format,

    #gluecount-cache v1
    g=<int>;ns=<comma-separated sizes, non-increasing>;count=<decimal integer>

with entry lines sorted by (g, ns). Each states its own contract: what it
writes or reads, and what it refuses. `_blocks` and `_parse` say how a load
reads the text, and `_fixed_point` what `verify=True` checks.

State budget: one top-level call of the kernel stores at most
_STATE_BUDGET new entries, the counterpart of `gluing._WORD_BUDGET` (see
`count_recursive`).
"""

from __future__ import annotations

import errno
import os
import re
import sys
from collections import Counter, deque
from collections.abc import Iterator, Mapping, Sequence
from contextlib import suppress
from io import BufferedReader
from itertools import chain
from types import MappingProxyType

from .errors import CacheError, CacheVersionError, ConsistencyError, DomainError
from .exact import _divide, _grown
from .formula import SurfaceSignature, polygon_size

__all__ = ["CountTable", "count_recursive", "memo_store_load", "memo_store_save"]

_HEADER = "#gluecount-cache v1"
_LINE_RE = re.compile(r"g=(\d+);ns=([\d,]+);count=(\d+)")
# A save formats and writes _BLOCK lines at a time; a load reads _BLOCK * 32
# bytes at a time, about as many lines of a saved file.
_BLOCK = 1024

# A decoded memo key: (genus, sizes sorted non-increasing).
MemoKey = tuple[int, tuple[int, ...]]

_BITS = 16
_FIELD = 1 << _BITS  # every field of a code stays below this
_MASK = _FIELD - 1
_SIZE_LIMIT = 1 << 12  # sizes stay below this, so a code stays below 8 KiB
# The most entries one top-level call of the kernel may add to a memo.
_STATE_BUDGET = 300_000

# _POWERS[s] = P[s] = 2^(16(s+1)), grown through `exact._grown` up to the
# largest size reached (at most _SIZE_LIMIT entries, about 16 MiB).
_POWERS = [_FIELD]


def _grow_powers(powers: list[int], top: int) -> None:
    for _ in range(len(powers), top + 1):
        powers.append(powers[-1] << _BITS)


def _sizes_code(sizes: Sequence[int]) -> int:
    """The code of genus 0 with `sizes`, non-empty, non-increasing and >= 0;
    DomainError when a size or its multiplicity does not fit its field, or
    when no size is positive."""
    if sizes[0] >= _SIZE_LIMIT:
        raise DomainError(
            f"size {sizes[0]} is out of range: sizes must be in 0..{_SIZE_LIMIT - 1}"
        )
    if not sizes[0]:
        raise DomainError(f"all-zero size key {tuple(sizes)}")
    if len(sizes) > _MASK:
        size, times = Counter(sizes).most_common(1)[0]
        if times > _MASK:
            raise DomainError(f"size {size} occurs {times} times, more than {_MASK}")
    powers = _grown(_POWERS, sizes[0], _grow_powers, _SIZE_LIMIT - 1)
    return sum(map(powers.__getitem__, sizes))


def _sizes(part: int) -> tuple[int, ...]:
    """The sizes, non-increasing, held by `part`, a code shifted past its
    genus field."""
    sizes: tuple[int, ...] = ()
    while part:
        size = (part.bit_length() - 1) // _BITS
        times = part >> size * _BITS
        part ^= times << size * _BITS
        sizes += (size,) * times
    return sizes


def _sizes_text(part: int, texts: Sequence[str]) -> str:
    """The sizes of `_sizes(part)` comma-separated, as a cache line writes
    them, made straight from the fields: `texts[size]`, the text of `size`
    and a comma, is taken once per distinct size and repeated by its
    multiplicity."""
    text = ""
    while part:
        size = (part.bit_length() - 1) // _BITS
        times = part >> size * _BITS
        part ^= times << size * _BITS
        text += texts[size] * times
    return text[:-1]


class CountTable:
    """Memoized plain counts, one per signature, keyed by its code; only
    `count_recursive` and `memo_store_load` fill a table."""

    def __init__(self) -> None:
        self._codes: dict[int, int] = {}

    @property
    def entries(self) -> Mapping[MemoKey, int]:
        """A read-only snapshot {(genus, sizes non-increasing): count}."""
        return MappingProxyType(
            {(code & _MASK, _sizes(code >> _BITS)): n for code, n in self._codes.items()}
        )

    def __len__(self) -> int:
        return len(self._codes)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CountTable):
            return NotImplemented
        return self._codes == other._codes

    def __repr__(self) -> str:
        return f"CountTable({len(self._codes)} entries)"


def count_recursive(sig: SurfaceSignature, memo: CountTable | None = None) -> int:
    """Count gluings for `sig` by the cut recursion.

    Passing the same CountTable across calls shares all intermediate results.
    A loaded table is trusted as written: use memo_store_load(path,
    verify=True) when provenance is in doubt.
    A signature whose polygon has 4096 edges or more raises DomainError
    before any work. The recursion nests 2g + L levels, one frame each; a
    signature with 2g + L above half of Python's recursion limit (500 of
    the default 1000) raises DomainError before any work too. Should a
    caller's own deep stack make the recursion overflow anyway, the
    DomainError is the same and the entries the table keeps stay valid.
    The polygon size is checked before the memo is probed, and the depth
    and the state budget only on a miss, so a table that holds the count
    answers it.

    The table gains one entry per (genus, sorted sizes) reachable from `sig`,
    so time and memory grow with the number of such partitions: from an
    empty table, g=0 with 20 boundaries of size 1 adds 626 entries, with 40
    37,337, g=6 with five boundaries of size 4 22,522, and g=16 with one
    boundary of size 1 201,590. A call that would add more than
    _STATE_BUDGET (300,000) entries raises DomainError when it reaches the
    next one, and the entries the table keeps stay valid: g=20 with three
    boundaries of size 2, and g=0 with 100 boundaries of size 1, are
    refused. A key takes 2 bytes per size up to the largest size it holds,
    so boundaries of hundreds of edges cost more memory and time per entry
    (g=2 with one boundary of size 800 adds 54,674 entries).
    """
    entries = memo._codes if memo is not None else {}
    genus = sig.genus
    sizes = sig.sorted_sizes()
    # N, the largest size the recursion reaches, must fit a code.
    edges = polygon_size(sig)
    if edges >= _SIZE_LIMIT:
        raise DomainError(
            f"g={genus}, L={len(sizes)} is out of range for the recursion: its polygon "
            f"has {edges} edges, and the memo keys allow at most {_SIZE_LIMIT - 1}"
        )
    _grown(_POWERS, edges, _grow_powers, _SIZE_LIMIT - 1)
    code = genus + _sizes_code(sizes)
    hit = entries.get(code)
    if hit is not None:
        return hit
    if 2 * (2 * genus + len(sizes)) <= sys.getrecursionlimit():
        try:
            return _count(genus, code, entries, len(entries) + _STATE_BUDGET)
        except RecursionError:
            pass
    raise DomainError(f"recursion too deep for g={genus}, L={len(sizes)}")


class _StepName(str):
    """The name of a kernel step, `_divide`'s `what`: formatted from the
    genus and the code, whose sizes are decoded only when a division fails
    and its message is made."""

    __slots__ = ()

    def format(self, genus: int, code: int) -> str:  # type: ignore[override]
        return super().format(genus, _sizes(code >> _BITS))


_STEP = _StepName("cut recursion at g={}, ns={}")


def _count(genus: int, code: int, entries: dict[int, int], limit: int) -> int:
    """The plain count for the state `code` of genus `genus`, computed and
    stored; the caller has found no memo entry for it. A child the memo
    misses is computed by a call to this function, so each level of the
    recursion is one frame. A disk counts 1 and is neither looked up nor
    stored; any other state that finds `limit` entries in the memo raises
    DomainError before it reads a child. `entries` is read through its
    `get` and written once, at the end: the fixed-point check of
    memo_store_load passes a view of a loaded file that takes no entry."""
    # The (size u, multiplicity c_u, weight w_u, power P[u]) of each
    # distinct size, largest first, read off the code's fields: w_u = c_u u,
    # and 1 for the punctures, which enter every step as a group (see the
    # module docstring).
    powers = _POWERS
    part = code >> _BITS
    holes = 0
    groups = []
    while part:
        u = (part.bit_length() - 1) // _BITS
        cu = part >> u * _BITS
        part -= cu << u * _BITS
        holes += cu
        groups.append((u, cu, cu * u or 1, powers[u]))
    if genus == 0 and holes == 1:
        return 1
    if len(entries) >= limit:
        raise DomainError(f"recursion too large: more than {_STATE_BUDGET} new states")
    get = entries.get

    # total = 2 * (the merge sum) + (the cut sum).
    total = 0
    for a, (u, cu, wu, pu) in enumerate(groups):
        without_u = code - pu
        u2 = u + 2
        if cu > 1:
            child = without_u - pu + powers[u + u2]
            plain = get(child)
            if plain is None:
                plain = _count(genus, child, entries, limit)
            # 2 C(c_u, 2) u^2, or 1 for two punctures.
            total += (cu * (cu - 1) * u * u if u else 1) * plain
        # u > v, so only v can be the punctures; when u is, no v follows.
        inner = 0
        for v, _, wv, pv in groups[a + 1 :]:
            child = without_u - pv + powers[u2 + v]
            plain = get(child)
            if plain is None:
                plain = _count(genus, child, entries, limit)
            inner += wv * plain
        total += 2 * wu * inner

    if genus:
        lower = genus - 1
        for u, _, wu, pu in groups:
            without_u = code - 1 - pu
            u2 = u + 2
            acc = 0
            for x in range(1, u // 2 + 2):
                child = without_u + powers[x] + powers[u2 - x]
                plain = get(child)
                if plain is None:
                    plain = _count(lower, child, entries, limit)
                acc += plain
            # x and u + 2 - x cut off the same pair of sizes, so each term
            # counts twice, but the last one once when u is even: then
            # x = u + 2 - x.
            total += wu * (2 * acc - (0 if u % 2 else plain))

    entries[code] = plain = _divide(total, 2 * (holes + 2 * genus - 1), _STEP, genus, code)
    return plain


def memo_store_save(memo: CountTable, path: str | os.PathLike[str]) -> None:
    """Write `memo` to `path` in the versioned text format (sorted, stable),
    through a temporary file in the same directory that replaces `path` in
    one step: a failed save leaves the old file as it was. A symlinked
    `path` is written through: its target is replaced, and the link kept. A
    directory, or any other existing target that is not a regular file
    (such as a pipe), is refused before any file is opened. A count longer
    than the int-to-str conversion limit raises CacheError naming its
    entry. Lines are formatted and written _BLOCK at a time, each line's
    sizes text made from its code's fields by `_sizes_text`, so above the
    memo a save holds only the sorted codes, the text of each size up to
    the largest, and one block of lines."""
    target = os.fspath(path)
    # Within a genus, codes shifted past the genus field sort as their
    # non-increasing size tuples do: the first size field, from the top,
    # where two codes differ is the first position where the tuples differ.
    # So the entries sort by code, then stably by genus.
    codes = memo._codes
    ordered = sorted(codes)
    # The text of each size up to the largest held, made once per save.
    texts = [f"{size}," for size in range((ordered[-1].bit_length() - 1) // _BITS if codes else 0)]
    ordered.sort(key=_MASK.__and__)
    # The temporary file sits next to the file a symlink resolves to, so
    # the replace writes through the link; a dangling link gets its target
    # made, as a plain open(path, "w") would make it.
    real = os.path.realpath(target)
    if os.path.isdir(real):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), target)
    # A pipe or a device, such as /dev/stdin, would be replaced by a file.
    if os.path.exists(target) and not os.path.isfile(target):
        raise OSError(errno.EINVAL, "not a regular file", target)
    folder, name = os.path.split(real)
    tmp = os.path.join(folder, f".{name}.{os.urandom(8).hex()}.tmp")
    # The saved file gets the mode a plain open(path, "w") would give it: an
    # existing file keeps its mode, a new one gets 0o666 less the umask.
    try:
        handle = open(tmp, "x", encoding="utf-8")
    except OSError as exc:
        # Name the file the caller asked for, not the temporary one.
        raise OSError(exc.errno, exc.strerror, target) from exc
    try:
        with handle:
            handle.write(_HEADER + "\n")
            for start in range(0, len(ordered), _BLOCK):
                lines = []
                # A count over the int-to-str limit fails to format: the first, in file order.
                try:
                    for code in ordered[start : start + _BLOCK]:
                        sizes = _sizes_text(code >> _BITS, texts)
                        lines.append(f"g={code & _MASK};ns={sizes};count={codes[code]}\n")
                except ValueError as exc:
                    raise CacheError(
                        f"{target}: cannot save entry g={code & _MASK}, "
                        f"ns={_sizes(code >> _BITS)}: its count has more digits than the "
                        f"int-to-str conversion limit of {sys.get_int_max_str_digits()} "
                        f"(see sys.set_int_max_str_digits)"
                    ) from exc
                handle.write("".join(lines))
        with suppress(FileNotFoundError):
            os.chmod(tmp, os.stat(target).st_mode & 0o7777)
        os.replace(tmp, real)
    except BaseException:
        with suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def memo_store_load(path: str | os.PathLike[str], verify: bool = False) -> CountTable:
    """Read a CountTable back from `path`. A path that fails to open as
    missing, by the rule of pathlib's exists(), yields an empty table.

    The file must be UTF-8: an undecodable byte raises CacheError naming
    its byte offset, ahead of any error of a line. An unknown header raises
    CacheVersionError. A malformed line, sizes out of order, a duplicate
    key, or a key that does not fit a code (a genus of 65536 or more, a
    size of 4096 or more, or a size repeated 65536 times or more) raises
    CacheError naming the line. The text is read in blocks of whole lines
    (`_blocks`) and never held whole. Entries are trusted as written
    unless verify=True.

    With verify=True the entries are checked as a fixed point of the
    recursion (see `_fixed_point`), which holds no table but the one
    returned. A file that fails that check is recomputed entry by entry by
    `count_recursive` into a scratch table, never seeded from the file, and
    compared: that raises ConsistencyError naming the least (g, ns) that
    disagrees, or CacheError naming the first entry that cannot be
    recomputed, its polygon too large, its recursion too deep or over the
    state budget. A file the check accepts holds only true counts, each in
    the range and depth that the recompute takes: the recompute would
    return the same table, unless one entry's recursion passed the state
    budget.
    """
    file = os.fspath(path)
    # Missing by the rule of pathlib's exists(): a path that fails to open
    # for one of these reasons, or cannot be encoded, holds no table.
    try:
        handle = open(file, "rb")
    except ValueError:
        return CountTable()
    except OSError as exc:
        if exc.errno not in (errno.ENOENT, errno.ENOTDIR, errno.EBADF, errno.ELOOP):
            raise
        return CountTable()
    # The file's text blocks, their lines and the sizes-text index are gone
    # once _read returns, before the check.
    with handle:
        entries = _read(file, handle)
    if verify and not _fixed_point(entries):
        scratch = CountTable()
        # The kernel does not store a disk, so each entry's own count is kept.
        recomputed = scratch._codes
        for code in entries:
            genus, sizes = code & _MASK, _sizes(code >> _BITS)
            try:
                recomputed[code] = count_recursive(SurfaceSignature(genus, sizes), scratch)
            except DomainError as exc:
                raise CacheError(
                    f"{file}: entry g={genus}, ns={sizes} cannot be recomputed: {exc}"
                ) from None
        wrong = [code for code, stored in entries.items() if recomputed[code] != stored]
        if wrong:
            code = min(wrong, key=lambda code: (code & _MASK, code >> _BITS))
            raise ConsistencyError(
                f"{file}: entry g={code & _MASK}, ns={_sizes(code >> _BITS)} "
                f"holds {entries[code]}, recomputed {recomputed[code]}"
            )
    table = CountTable()
    table._codes = entries
    return table


class _Closed:
    """The entries of a loaded file as the kernel sees them in the
    fixed-point check: found as stored, with a store that keeps an entry
    the file holds and raises KeyError for any other."""

    __slots__ = ("get", "_entries")

    def __init__(self, entries: dict[int, int]) -> None:
        self._entries = entries
        self.get = entries.get

    def __len__(self) -> int:
        return len(self._entries)

    def __setitem__(self, code: int, count: int) -> None:
        if code not in self._entries:
            raise KeyError(code)


def _fixed_point(entries: dict[int, int]) -> bool:
    """Whether every entry equals one kernel step over `entries`, the
    entries of a loaded file, with each child of the step in the file or a
    disk; the kernel runs once per entry and stores nothing.

    Such a file holds true counts, by induction on 2g + L: a disk counts 1,
    and an entry whose children hold true counts equals its true count. It
    also passes the recompute: every non-disk state has a child that keeps
    the polygon size N, merging its largest size with another or, with one
    boundary, cutting a handle, and its code arithmetic cannot overflow a
    field, for the new size exceeds every size the state holds. So a file
    that passes holds, below each entry, a genus-0 pair (a, b) with
    a + b + 2 = N, and its largest size s is at least (N - 2) / 2. The
    check runs only when 2s + 2 < 4096, so every N is below 4096, as the
    recompute requires; then no state holds more than N/2 + 1 boundaries,
    no field of a step overflows, and the step reads true children. It runs
    only when 2(s + 2) is within the recursion limit too, so the depth
    2g + L <= N/2 + 1 of every entry passes `count_recursive`'s depth
    guard. Any other outcome, a count that differs, an inexact division, a
    child missing from the file or a size past the powers grown, returns
    False.
    """
    if not entries:
        return True
    top = (max(entries).bit_length() - 1) // _BITS - 1  # the largest size held
    if 2 * top + 2 >= _SIZE_LIMIT or 2 * (top + 2) > sys.getrecursionlimit():
        return False
    _grown(_POWERS, 2 * top + 2, _grow_powers, _SIZE_LIMIT - 1)
    # The view never grows, so the state budget is never reached.
    closed, limit = _Closed(entries), len(entries) + 1
    try:
        return all(
            _count(code & _MASK, code, closed, limit) == count for code, count in entries.items()
        )
    except (ConsistencyError, LookupError, RecursionError):
        return False


def _read(file: str, handle: BufferedReader) -> dict[int, int]:
    """The entries {code: count} that `handle`, open on the cache file
    `file`, holds."""
    # A line's error waits until the rest of the file is decoded, so an
    # undecodable byte anywhere is reported, with its offset, before it.
    blocks = _blocks(file, handle)
    try:
        return _parse(file, chain.from_iterable(map(str.splitlines, blocks)))
    except CacheError as exc:
        error = exc
    deque(blocks, maxlen=0)
    raise error


def _blocks(file: str, handle: BufferedReader) -> Iterator[str]:
    """The text of the cache file `file` from `handle`, a block of about
    _BLOCK * 32 bytes at a time. Each read runs on to the end of its line,
    so a block ends just after a "\\n" or at the end of the file: it holds
    whole characters, no "\\r\\n" spans two blocks, and the blocks' lines
    are the lines of the file's text. An undecodable byte raises CacheError
    naming its offset in the file, counted from the blocks read before: a
    pipe, such as /dev/stdin, has no position to ask the handle for."""
    offset = 0
    while data := handle.read(_BLOCK * 32) + handle.readline():
        try:
            text = data.decode()
        except UnicodeDecodeError as exc:
            raise CacheError(
                f"{file}: not UTF-8 text: {exc.reason} at byte offset {offset + exc.start}"
            ) from None
        offset += len(data)
        yield text


def _parse(file: str, lines: Iterator[str]) -> dict[int, int]:
    """The entries {code: count} that the lines of the cache file `file` hold."""
    header = next(lines, None)
    if header is None:
        raise CacheError(f"{file}: empty file, expected header {_HEADER!r}")
    if header != _HEADER:
        raise CacheVersionError(
            f"{file}: unsupported cache header {header!r}, expected {_HEADER!r}"
        )
    entries: dict[int, int] = {}
    # Each distinct sizes text is read and checked once, at its first line.
    # A new text whose tail (what follows its first comma) an earlier line
    # holds is coded as the tail's code plus P[head]. The tail passed every
    # check, so the text has no empty token and is not all zero, and the sum
    # stays below P[head + 1] exactly when the head is no less than the
    # tail's sizes and occurs fewer than 2^16 times. Only the texts of lines
    # are kept, never a suffix that no line holds. Any other text is checked
    # for the empty tokens that the pattern lets through, then split and
    # checked in full, which names what is wrong.
    parts: dict[str, int] = {}
    powers = _POWERS
    match_line = _LINE_RE.fullmatch
    for lineno, line in enumerate(lines, start=2):
        match = match_line(line)
        if match is None:
            if not line.strip():
                continue
            raise CacheError(f"{file}: line {lineno}: malformed entry {line!r}")
        genus_text, sizes_text, count_text = match.groups()
        part = parts.get(sizes_text)
        if part is None:
            head, _, tail = sizes_text.partition(",")
            rest = parts.get(tail)
            # A head of one to four digits converts without error, and
            # _POWERS never grows past _SIZE_LIMIT entries, so a head it
            # covers is in range; any other head goes the full way.
            if rest is not None and 0 < len(head) < 5 and (size := int(head)) < len(powers):
                code = rest + powers[size]
                if code.bit_length() <= _BITS * (size + 2):  # code < P[size + 1]
                    part = parts[sizes_text] = code
            if part is None and (
                sizes_text[0] == "," or sizes_text[-1] == "," or ",," in sizes_text
            ):
                raise CacheError(f"{file}: line {lineno}: malformed entry {line!r}")
        try:
            genus = int(genus_text)
            if part is None:
                sizes = list(map(int, sizes_text.split(",")))
            count = int(count_text)
        except ValueError as exc:
            raise CacheError(f"{file}: line {lineno}: unreadable number: {exc}") from exc
        if part is None:
            if sizes != sorted(sizes, reverse=True):
                raise CacheError(
                    f"{file}: line {lineno}: sizes must be non-increasing, got {tuple(sizes)}"
                )
            try:
                part = parts[sizes_text] = _sizes_code(sizes)
            except DomainError as exc:
                raise CacheError(f"{file}: line {lineno}: {exc}") from None
        if genus >= _FIELD:
            raise CacheError(
                f"{file}: line {lineno}: genus {genus} is out of range: it must be below {_FIELD}"
            )
        known = len(entries)
        # A genus-0 key is the index's own code: the index holds no copy of it.
        entries[genus + part if genus else part] = count
        if len(entries) == known:
            raise CacheError(
                f"{file}: line {lineno}: duplicate key g={genus}, ns={_sizes(part >> _BITS)}"
            )
    return entries

