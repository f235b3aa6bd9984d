"""Cut recursion for the gluing counts, with a persistent memo table.

The recursion works on a scaled variant T(g; n_1..n_L) = count * z! where z is
the number of zero boundary sizes (T is what satisfies the clean identity; the
plain count is recovered by dividing z! back out). With m_k = max(n_k, 1):

    (L + 2g - 1) * T(g; n_1..n_L)
        = sum_{i<j} m_i m_j T(g; n_i+n_j+2, rest)
        + (1/2) * sum_i m_i sum_{x=1}^{n_i+1} T(g-1; n_i+2-x, x, rest)

with T(0; n) = 1 for a single boundary, and T = 0 whenever the genus goes
negative or no boundary remains. Merging two boundaries drops L by one;
cutting a handle drops g by one, so 2g + L shrinks at every step and the
recursion terminates. Both divisions (by 2(L+2g-1) and by z!) go through
`exact._divide`, which raises ConsistencyError if one is not exact.

The sums are taken over distinct sizes, not over indices: equal sizes give
equal children, so each child is computed once and weighted by how often it
occurs. A merge of sizes u >= v that occur c_u and c_v times weighs
C(c_u, 2) m_u^2 when u = v and c_u c_v m_u m_v otherwise; a cut of size u
weighs c_u m_u. Within a cut, x and n_i+2-x split off the same pair of
sizes, so x runs only to floor(n_i/2)+1 and each term counts twice unless
x = n_i+2-x.

Persistence: a CountTable can be saved to / loaded from a small text format,

    #gluecount-cache v1
    g=<int>;ns=<comma-separated sizes, non-increasing>;count=<decimal integer>

with entry lines sorted by (g, ns). Unknown versions are refused; malformed
lines are reported with their line number. `memo_store_load(path, verify=True)`
re-derives every entry with a scratch table (never seeded from the file) and
raises ConsistencyError on the first disagreement.
"""

from __future__ import annotations

import os
import re
import sys
from pathlib import Path

from .errors import CacheError, CacheVersionError, ConsistencyError, DomainError, SignatureError
from .exact import _divide, factorial
from .formula import SurfaceSignature

__all__ = ["CountTable", "count_recursive", "memo_store_load", "memo_store_save"]

_HEADER = "#gluecount-cache v1"
_LINE_RE = re.compile(r"^g=(\d+);ns=(\d+(?:,\d+)*);count=(\d+)$")

# Memo keys are (genus, sizes sorted non-increasing); values are plain counts.
MemoKey = tuple[int, tuple[int, ...]]


class CountTable:
    """Dict of memoized counts keyed by normalized signature."""

    def __init__(self, entries: dict[MemoKey, int] | None = None) -> None:
        self.entries: dict[MemoKey, int] = dict(entries or {})

    def __len__(self) -> int:
        return len(self.entries)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CountTable):
            return NotImplemented
        return self.entries == other.entries

    def __repr__(self) -> str:
        return f"CountTable({len(self.entries)} entries)"


def count_recursive(sig: SurfaceSignature, memo: CountTable | None = None) -> int:
    """Count gluings for `sig` by the cut recursion.

    Passing the same CountTable across calls shares all intermediate results.
    The table is trusted as-is: fill it only through this function, and load
    files with memo_store_load(path, verify=True) when provenance is in doubt.
    Signatures too deep for Python's recursion limit (2g + L nested levels)
    raise DomainError; the entries the table keeps stay valid.

    The table gains one entry per (genus, sorted sizes) reachable from `sig`,
    so time and memory grow with the number of such partitions, and no bound
    is set in advance. On a 2-vCPU Xeon with CPython 3.11, g=0 with 20
    boundaries of size 1 takes 0.01 s (626 entries), with 40 about 2.5 s
    (37k entries); g=6 with five boundaries of size 4 takes 1.2 s (22.5k
    entries). g=0 with 100 boundaries of size 1 is out of practical reach.
    """
    entries = memo.entries if memo is not None else {}
    sizes = sig.sorted_sizes()
    hit = entries.get((sig.genus, sizes))
    if hit is not None:
        return hit
    try:
        return _count_normalized(sig.genus, sizes, entries)
    except RecursionError:
        raise DomainError(f"recursion too deep for g={sig.genus}, L={sig.holes}") from None


def _scaled(genus: int, child: tuple[int, ...], entries: dict[MemoKey, int]) -> int:
    """T(genus; child) for an unsorted child: sort once, then probe the memo
    here, the one probe of the recursion, so that a hit costs no further call."""
    sizes = tuple(sorted(child, reverse=True))
    plain = entries.get((genus, sizes))
    if plain is None:
        plain = _count_normalized(genus, sizes, entries)
    zeros = sizes.count(0)
    return plain * factorial(zeros) if zeros else plain


def _count_normalized(genus: int, sizes: tuple[int, ...], entries: dict[MemoKey, int]) -> int:
    """The plain count for sorted `sizes`, computed and stored; the callers
    have already found no memo entry for it."""
    holes = len(sizes)
    if genus == 0 and holes == 1:
        return 1

    # Equal sizes give equal children, so each distinct size u is visited
    # once, at its first index, and weighted by its multiplicity.
    groups = [
        (u, u if u > 0 else 1, sizes.count(u), sizes.index(u)) for u in dict.fromkeys(sizes)
    ]

    merge_total = 0
    for a, (u, mu, cu, iu) in enumerate(groups):
        if cu > 1:
            rest = sizes[:iu] + sizes[iu + 2 :]
            pairs = cu * (cu - 1) // 2
            merge_total += pairs * mu * mu * _scaled(genus, (2 * u + 2,) + rest, entries)
        for v, mv, cv, iv in groups[a + 1 :]:
            rest = sizes[:iu] + sizes[iu + 1 : iv] + sizes[iv + 1 :]
            merge_total += cu * cv * mu * mv * _scaled(genus, (u + v + 2,) + rest, entries)

    cut_total = 0
    if genus > 0:
        for u, mu, cu, iu in groups:
            rest = sizes[:iu] + sizes[iu + 1 :]
            acc = 0
            # x and u + 2 - x cut off the same pair of sizes.
            for x in range(1, u // 2 + 2):
                term = _scaled(genus - 1, (u + 2 - x, x) + rest, entries)
                acc += term if 2 * x == u + 2 else 2 * term
            cut_total += cu * mu * acc

    where = "cut recursion at g={}, ns={}"
    scaled = _divide(
        2 * merge_total + cut_total, 2 * (holes + 2 * genus - 1), where, genus, sizes
    )
    plain = _divide(scaled, factorial(sizes.count(0)), where, genus, sizes)
    entries[genus, sizes] = plain
    return plain


def memo_store_save(memo: CountTable, path: str | Path) -> None:
    """Write `memo` to `path` in the versioned text format (sorted, stable),
    through a temporary file in the same directory that replaces `path` in
    one step: a failed save leaves the old file as it was."""
    target = Path(path)
    lines = [_HEADER]
    for (genus, sizes), count in sorted(memo.entries.items()):
        try:
            lines.append(f"g={genus};ns={','.join(map(str, sizes))};count={count}")
        except ValueError as exc:
            raise CacheError(
                f"{target}: cannot save entry g={genus}, ns={sizes}: its count has more "
                f"digits than the int-to-str conversion limit of "
                f"{sys.get_int_max_str_digits()} (see sys.set_int_max_str_digits)"
            ) from exc
    tmp = target.with_name(f".{target.name}.{os.urandom(8).hex()}.tmp")
    # The saved file gets the mode a plain open(path, "w") would give it: an
    # existing file keeps its mode, a new one gets 0o666 less the umask.
    try:
        handle = open(tmp, "x", encoding="utf-8")
    except OSError as exc:
        # Name the file the caller asked for, not the temporary one.
        raise OSError(exc.errno, exc.strerror, str(target)) from exc
    try:
        with handle:
            handle.write("\n".join(lines) + "\n")
        try:
            os.chmod(tmp, os.stat(target).st_mode & 0o7777)
        except FileNotFoundError:
            pass
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def memo_store_load(path: str | Path, verify: bool = False) -> CountTable:
    """Read a CountTable back from `path`; a missing file yields an empty table.

    With verify=True every entry is recomputed from scratch and compared.
    """
    file = Path(path)
    if not file.exists():
        return CountTable()
    lines = file.read_text(encoding="utf-8").splitlines()
    if not lines:
        raise CacheError(f"{file}: empty file, expected header {_HEADER!r}")
    if lines[0] != _HEADER:
        raise CacheVersionError(
            f"{file}: unsupported cache header {lines[0]!r}, expected {_HEADER!r}"
        )
    entries: dict[MemoKey, int] = {}
    match_line = _LINE_RE.match
    for lineno, line in enumerate(lines[1:], start=2):
        match = match_line(line)
        if match is None:
            if not line.strip():
                continue
            raise CacheError(f"{file}: line {lineno}: malformed entry {line!r}")
        genus_text, sizes_text, count_text = match.groups()
        try:
            genus = int(genus_text)
            sizes = tuple(map(int, sizes_text.split(",")))
            count = int(count_text)
        except ValueError as exc:
            raise CacheError(f"{file}: line {lineno}: unreadable number: {exc}") from exc
        if list(sizes) != sorted(sizes, reverse=True):
            raise CacheError(
                f"{file}: line {lineno}: sizes must be non-increasing, got {sizes}"
            )
        if not sizes[0]:
            raise CacheError(f"{file}: line {lineno}: all-zero size key {sizes}")
        key = (genus, sizes)
        if key in entries:
            raise CacheError(f"{file}: line {lineno}: duplicate key g={genus}, ns={sizes}")
        entries[key] = count

    if verify:
        scratch = CountTable()
        for (genus, sizes), stored in sorted(entries.items()):
            try:
                actual = count_recursive(SurfaceSignature(genus, sizes), scratch)
            except SignatureError as exc:
                raise CacheError(f"{file}: invalid signature g={genus}, ns={sizes}") from exc
            if actual != stored:
                raise ConsistencyError(
                    f"{file}: entry g={genus}, ns={sizes} holds {stored}, "
                    f"recomputed {actual}"
                )
    return CountTable(entries)
