"""Tables for tests, built the way a caller builds one from outside
entries: by loading a cache file."""

import sys
import tempfile
from pathlib import Path

from gluecount import memo_store_load


def cache_table(*lines):
    """The CountTable that `memo_store_load` reads from a cache file of the
    entry `lines`. The int-to-str digit limit is lifted while it loads, so
    a count may have any number of digits; the file is gone afterwards."""
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "memo.txt"
        path.write_text("\n".join(["#gluecount-cache v1", *lines]) + "\n", encoding="utf-8")
        if not hasattr(sys, "set_int_max_str_digits"):
            return memo_store_load(path)
        previous = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            return memo_store_load(path)
        finally:
            sys.set_int_max_str_digits(previous)
