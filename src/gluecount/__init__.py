"""gluecount: exact counts of polygon edge gluings into bordered surfaces.

Glue some edges of an N-gon together in pairs (respecting orientation) and
the result is an orientable surface of some genus whose unglued edges form
polygonal boundary components. This package counts the inequivalent gluings
that produce a prescribed surface, exactly:

* `count_closed`     - closed formula (the fast route)
* `count_recursive`  - boundary-merging / handle-cutting recursion with a
                       persistent memo table
* `count_brute`      - walk of the chord diagrams of the glued edges (few of them)
* `hz_sum` / `hz_tanh` / `hz_from_gluing_counts`
                     - the classical closed-surface (Harer-Zagier) numbers by
                       three routes that share the closed formula's series
                       code; `verify` checks them against the Harer-Zagier
                       recurrence, which shares none of it

All arithmetic is on integers and exact; nothing here ever rounds.
"""

from .errors import (
    AllPuncturesError,
    CacheError,
    CacheVersionError,
    CapExceededError,
    ConsistencyError,
    DomainError,
    GluecountError,
    ParityError,
    SignatureError,
)
from .formula import SurfaceSignature, count_closed, polygon_size
from .gluing import (
    CanonicalWord,
    GluedSurface,
    GluingWord,
    canonicalize,
    count_brute,
    enumerate_classes,
    glue,
)
from .hz import (
    GfIdentityReport,
    catalan,
    gf_identity_check,
    hz_from_gluing_counts,
    hz_sum,
    hz_tanh,
    hz_toric,
)
from .recursion import CountTable, count_recursive, memo_store_load, memo_store_save

__version__ = "0.1.0"

__all__ = [
    "AllPuncturesError",
    "CacheError",
    "CacheVersionError",
    "CanonicalWord",
    "CapExceededError",
    "ConsistencyError",
    "CountTable",
    "DomainError",
    "GfIdentityReport",
    "GluecountError",
    "GluedSurface",
    "GluingWord",
    "ParityError",
    "SignatureError",
    "SurfaceSignature",
    "canonicalize",
    "catalan",
    "count_brute",
    "count_closed",
    "count_recursive",
    "enumerate_classes",
    "gf_identity_check",
    "glue",
    "hz_from_gluing_counts",
    "hz_sum",
    "hz_tanh",
    "hz_toric",
    "memo_store_load",
    "memo_store_save",
    "polygon_size",
    "__version__",
]
