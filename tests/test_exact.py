"""Exact integer helpers, and the exact division behind every count."""

import ast
import math
import re
import subprocess
import sys
from functools import reduce
from operator import mul
from pathlib import Path

import pytest
from cache_text import cache_table

import gluecount
from gluecount import (
    ConsistencyError,
    DomainError,
    SurfaceSignature,
    catalan,
    count_closed,
    count_recursive,
    exact,
    hz_sum,
    hz_tanh,
    hz_toric,
)
from gluecount.exact import _divide, _double_factorial_odd, _factorial
from gluecount.formula import _power, _scales, _weight_rows
from gluecount.recursion import _sizes_code
from gluecount.verify import _hz_recurrence, _sphere_reference, _torus_reference


def test_factorial_small_values():
    assert _factorial(0) == 1
    assert _factorial(1) == 1
    assert _factorial(6) == 720


def test_factorial_twenty_matches_iterated_product():
    oracle = reduce(mul, range(1, 21), 1)
    assert oracle == 2432902008176640000
    assert _factorial(20) == oracle


def test_factorial_recurrence():
    for n in range(1, 200):
        assert _factorial(n) == n * _factorial(n - 1)


def test_factorial_table_is_bounded():
    # A large argument is computed without storing every k! below it.
    assert _factorial(5000) == math.factorial(5000)
    assert len(exact._FACTORIALS) <= 1024
    for n in (1023, 1024, 1025, 5000):
        assert _factorial(n) == math.factorial(n), n
    assert len(exact._FACTORIALS) <= 1024


def test_factorial_rejects_negative():
    # -1 would otherwise read the table's last row.
    with pytest.raises(DomainError) as info:
        _factorial(-1)
    assert str(info.value) == "factorial requires n >= 0, got -1"


def test_double_factorial_examples():
    assert _double_factorial_odd(0) == 1
    assert _double_factorial_odd(1) == 1
    assert _double_factorial_odd(2) == 3
    # 1*3*5*7
    assert _double_factorial_odd(4) == 105


def test_double_factorial_against_factorials():
    # (2n-1)!! * 2^n * n! = (2n)!
    for n in range(0, 60):
        assert _double_factorial_odd(n) * 2**n * math.factorial(n) == math.factorial(2 * n)


def test_divide_returns_the_exact_quotient():
    assert _divide(math.factorial(10), math.factorial(7), "unused {}", 1) == 720
    assert _divide(0, 9, "unused") == 0
    assert _divide(-12, 4, "unused") == -3


def test_divide_names_the_failed_division():
    with pytest.raises(ConsistencyError) as info:
        _divide(14, 3, "count at g={}, ns={}", 1, (2, 1))
    assert str(info.value) == "count at g=1, ns=(2, 1): 14/3 is not an integer"


def _skewed_factorial(at, factor):
    """k!, but `factor` times too large at k = `at`."""
    def skewed(k):
        return math.factorial(k) * (factor if k == at else 1)
    return skewed


def _skewed_divide(at):
    """_divide with a numerator one too large when its format arguments are `at`."""
    def skewed(numerator, denominator, what, *args):
        return _divide(numerator + (args == at), denominator, what, *args)
    return skewed


# One case per exact division in the package: what feeds it is patched so
# that the division cannot cancel, and the call must raise, not round.
EXACT_DIVISIONS = [
    pytest.param(
        # A splitting sum of 1 over the scale 3.
        "gluecount.formula._split_sum", lambda genus, sizes: (1, 3),
        lambda: count_closed(SurfaceSignature(0, (1,))),
        "closed formula for SurfaceSignature(genus=0, boundary_sizes=(1,)): "
        "1/3 is not an integer",
        id="count_closed",
    ),
    pytest.param(
        "gluecount.hz._split_sum", lambda genus, sizes: (1, 3), lambda: hz_sum(0, 1),
        "hz_sum at g=0, N=1: 2/6 is not an integer",
        id="hz_sum",
    ),
    pytest.param(
        # The scaled x^2 coefficient of the power is 1 where eps_1(2) = 1
        # needs 3; its scale is s_1 = 12.
        "gluecount.hz._power", lambda a, exponent, w: [1] * len(a),
        lambda: hz_tanh(1, 2),
        "hz_tanh at g=1, N=2: 24/72 is not an integer",
        id="hz_tanh",
    ),
    pytest.param(
        # (1 + t + t^2)^2 with unit weights: the t^2 step sums to 6, skewed
        # to 7, over i = 2.
        "gluecount.formula._divide", _skewed_divide((2, 2)),
        lambda: _power([1, 1, 1], 2, [[1], [1, 1], [1, 1, 1]]),
        "Miller's power step at t^2, exponent 2: 7/2 is not an integer",
        id="power-step",
    ),
    pytest.param(
        # The same step inside the closed formula: F_1(t)^2 through t^2 is
        # the factor of (1, 1) at genus 2.
        "gluecount.formula._divide", _skewed_divide((2, 2)),
        lambda: count_closed(SurfaceSignature(2, (1, 1))),
        "Miller's power step at t^2, exponent 2: 4321/2 is not an integer",
        id="power-step-closed",
    ),
    pytest.param(
        # C_1 = (12 * 3 - 12) / (4 * 3!) = 1 at g=1, skewed to 25/24.
        "gluecount.formula._divide", _skewed_divide((1, 1)), lambda: hz_tanh(1, 2),
        "tanh coefficient 1 at g=1: 25/24 is not an integer",
        id="tanh-coefficient",
    ),
    pytest.param(
        # w[2][1] = s_2 / s_1^2 = 720/144, skewed to 721/144. A weight's
        # format arguments are (i, j) with j <= i/2, so the (2, 2) and
        # (1, 1) skews above never reach a weight.
        "gluecount.formula._divide", _skewed_divide((2, 1)),
        lambda: _weight_rows(2, _scales(2)),
        "weight w[2][1]: 721/144 is not an integer",
        id="weight-row",
    ),
    pytest.param(
        # The check that 2i+1 divides each new scale: s_1 = 12 over 3,
        # skewed to 13/3. A scale's format arguments are (i,).
        "gluecount.formula._divide", _skewed_divide((1,)), lambda: _scales(1),
        "scale s_1 over 2i+1: 13/3 is not an integer",
        id="scale-row",
    ),
    pytest.param(
        "gluecount.hz.factorial", _skewed_factorial(1, 7), lambda: catalan(1),
        "catalan at N=1: 2/14 is not an integer",
        id="catalan",
    ),
    pytest.param(
        "gluecount.hz.factorial", _skewed_factorial(2, 7), lambda: hz_toric(2),
        "hz_toric at N=2: 24/168 is not an integer",
        id="hz_toric",
    ),
    pytest.param(
        # (1, 0) merges to (3,), a disc, which needs no division: the one
        # division is the state's own, of 2 by 2 * (L + 2g - 1) = 2. Its
        # format arguments are the genus and the state's code; the sizes
        # are decoded from the code only when the message is made.
        "gluecount.recursion._divide",
        lambda numerator, *rest: _divide(numerator + 1, *rest),
        lambda: count_recursive(SurfaceSignature(0, (1, 0))),
        "cut recursion at g=0, ns=(1, 0): 3/2 is not an integer",
        id="recursion-zeros",
    ),
    pytest.param(
        # The genus-1 step of (10, 0), whose cuts reach genus 0 and whose
        # count is 11725, skewed by its (genus, code) format arguments:
        # 6 * 11725 + 1 over 2 * (L + 2g - 1) = 6.
        "gluecount.recursion._divide", _skewed_divide((1, 1 + _sizes_code((10, 0)))),
        lambda: count_recursive(SurfaceSignature(1, (10, 0))),
        "cut recursion at g=1, ns=(10, 0): 70351/6 is not an integer",
        id="recursion-cut-two-digits",
    ),
    pytest.param(
        "gluecount.verify._divide", _skewed_divide((1, 3)), lambda: _hz_recurrence(5),
        "Harer-Zagier recurrence at g=1, N=3: 41/4 is not an integer",
        id="hz-recurrence",
    ),
    pytest.param(
        "gluecount.verify.factorial", _skewed_factorial(6, 3),
        lambda: _sphere_reference((2, 1, 1)),
        "sphere reference at ns=(2, 1, 1): 10080/2160 is not an integer",
        id="sphere-reference",
    ),
    pytest.param(
        "gluecount.verify.factorial", _skewed_factorial(3, 7),
        lambda: _torus_reference((1,)),
        "torus reference at ns=(1,): 144/1008 is not an integer",
        id="torus-reference",
    ),
]


@pytest.mark.parametrize("target, replacement, call, message", EXACT_DIVISIONS)
def test_inexact_division_raises(monkeypatch, empty_tables, target, replacement, call, message):
    # Empty shared tables: a row an earlier call computed would skip its
    # division. The call first runs unpatched, and fills them, so the case
    # fails if emptying misses one.
    call()
    empty_tables()
    monkeypatch.setattr(target, replacement)
    with pytest.raises(ConsistencyError) as info:
        call()
    assert str(info.value) == message


def test_inexact_recursion_step_raises():
    # A table that holds 1 for (g=0, ns=[4,1]), where the count is 2: then
    # (g=0, ns=[1,1,1]) merges to 3 * 1, and 2 * 3 does not divide by
    # 2 * (L + 2g - 1) = 4.
    memo = cache_table("g=0;ns=4,1;count=1")
    with pytest.raises(ConsistencyError) as info:
        count_recursive(SurfaceSignature(0, (1, 1, 1)), memo)
    assert str(info.value) == "cut recursion at g=0, ns=(1, 1, 1): 6/4 is not an integer"
    assert memo.entries == {(0, (4, 1)): 1}


def test_inexact_division_raises_without_asserts(src_env):
    # python -O strips assert statements; the exactness check must survive.
    script = (
        "import sys\n"
        "from gluecount import ConsistencyError, verify\n"
        "from math import factorial\n"
        "assert False, 'asserts are on'\n"
        "verify.factorial = lambda k: factorial(k) * (3 if k == 6 else 1)\n"
        "try:\n"
        "    print(verify._sphere_reference((2, 1, 1)))\n"
        "except ConsistencyError as exc:\n"
        "    print(f'ConsistencyError: {exc}')\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, env=src_env, timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == (
        "ConsistencyError: sphere reference at ns=(2, 1, 1): "
        "10080/2160 is not an integer\n"
    )


def test_import_leaves_fractions_unloaded(src_env):
    # Every count is integer arithmetic; the package never needs Fraction.
    script = "import sys, gluecount, gluecount.cli\nprint('fractions' in sys.modules)\n"
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=src_env, timeout=60,
    )
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "False\n")


def test_no_source_file_imports_fractions():
    # Nor does any module divide with `/` or `/=`, or call float or round:
    # every count stays an integer.
    package = Path(gluecount.__file__).resolve().parent
    sources = sorted(package.glob("*.py"))
    assert len(sources) >= 10
    importing = re.compile(r"^\s*(?:from|import)\s+fractions\b", re.MULTILINE)
    assert [p.name for p in sources if importing.search(p.read_text(encoding="utf-8"))] == []
    inexact = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
                inexact.append((path.name, node.lineno, "/"))
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("float", "round")
            ):
                inexact.append((path.name, node.lineno, node.func.id))
    assert inexact == []
