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

from . import errors, formula, gluing, hz, recursion
from .errors import *
from .formula import *
from .gluing import *
from .hz import *
from .recursion import *

__version__ = "0.1.0"

# Each module's __all__ is the one list of its public names.
__all__ = sorted(
    errors.__all__ + formula.__all__ + gluing.__all__ + hz.__all__ + recursion.__all__
) + ["__version__"]
