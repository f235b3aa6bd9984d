"""The cache-file parsing loop that gluecount's loader replaced, kept as a
test reference.

It splits, sorts and codes every distinct sizes text in full, and matches
each line against a pattern that spells out the comma-separated numbers.
Its result, or the exception type and message it raises, is what
`memo_store_load` (without verify) must reproduce for every UTF-8 file.
"""

import re
from pathlib import Path

from gluecount import CacheError, CacheVersionError, CountTable, DomainError
from gluecount.recursion import _BITS, _FIELD, _HEADER, _sizes, _sizes_code

_LINE_RE = re.compile(r"^g=(\d+);ns=(\d+(?:,\d+)*);count=(\d+)$")


def load(path):
    """The CountTable that `path` holds, as `memo_store_load(path)` read it."""
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
    entries = {}
    parts = {}
    for lineno, line in enumerate(lines[1:], start=2):
        match = _LINE_RE.match(line)
        if match is None:
            if not line.strip():
                continue
            raise CacheError(f"{file}: line {lineno}: malformed entry {line!r}")
        genus_text, sizes_text, count_text = match.groups()
        part = parts.get(sizes_text)
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
            if not sizes[0]:
                raise CacheError(f"{file}: line {lineno}: all-zero size key {tuple(sizes)}")
            try:
                part = parts[sizes_text] = _sizes_code(sizes)
            except DomainError as exc:
                raise CacheError(f"{file}: line {lineno}: {exc}") from None
        if genus >= _FIELD:
            raise CacheError(
                f"{file}: line {lineno}: genus {genus} is out of range: it must be below {_FIELD}"
            )
        known = len(entries)
        entries[genus + part] = count
        if len(entries) == known:
            raise CacheError(
                f"{file}: line {lineno}: duplicate key g={genus}, ns={_sizes(part >> _BITS)}"
            )
    table = CountTable()
    table._codes = entries
    return table
