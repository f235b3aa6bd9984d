"""The public surface: what `gluecount` exports, how its value classes
behave, what importing it loads, and the README's Python example and command
lines run as written."""

import copy
import pickle
import re
import subprocess
import sys
from pathlib import Path

import pytest

import gluecount
from gluecount import cli, errors, formula, gluing, hz, recursion
from gluecount.gluing import _chord_classes
from gluecount.verify import SuiteResult

README = Path(__file__).resolve().parent.parent / "README.md"

PUBLIC = [
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


def test_public_names_are_pinned():
    assert gluecount.__all__ == PUBLIC
    for name in PUBLIC:
        assert getattr(gluecount, name) is not None, name
    # The package publishes exactly its modules' public names, as themselves.
    modules = (errors, formula, gluing, hz, recursion)
    assert sorted(name for module in modules for name in module.__all__) == PUBLIC[:-1]
    for module in modules:
        for name in module.__all__:
            assert getattr(gluecount, name) is getattr(module, name), name
    assert cli.__all__ == ["main", "run"]
    assert not hasattr(cli, "build_parser")


def test_word_level_helpers_stay_out_of_the_package():
    assert not hasattr(gluecount, "iter_words")
    assert not hasattr(gluecount.GluingWord, "rotated")
    assert gluecount.GluedSurface.__match_args__ == ("boundary_cycles", "puncture_count", "genus")
    surface = gluecount.glue(gluecount.GluingWord.from_letters("a,x,a,y"))
    for name in ("vertex_classes", "euler_char", "boundary_count", "boundary_profile"):
        assert not hasattr(surface, name), name
    assert not hasattr(formula, "_weights")


# Each value class with two unequal instances, its field names and the repr
# of the first, as a dataclass wrote it.
VALUES = [
    (
        gluecount.SurfaceSignature,
        ("genus", "boundary_sizes"),
        ((1, (2, 0)), (1, (0, 2))),
        "SurfaceSignature(genus=1, boundary_sizes=(2, 0))",
    ),
    (
        gluecount.GluingWord,
        ("pairing", "labels"),
        (((1, 0, -1), (0, 0, 1)), ((-1, 2, 1), (1, 0, 0))),
        "GluingWord(pairing=(1, 0, -1), labels=(0, 0, 1))",
    ),
    (
        gluecount.GluedSurface,
        ("boundary_cycles", "puncture_count", "genus"),
        ((((1,), (2,)), 0, 0), (((1, 2),), 0, 0)),
        "GluedSurface(boundary_cycles=((1,), (2,)), puncture_count=0, genus=0)",
    ),
    (
        gluecount.CanonicalWord,
        ("size", "encoded"),
        ((4, (0, 0, 3, 4)), (4, (0, 1, 0, 1))),
        "CanonicalWord(size=4, encoded=(0, 0, 3, 4))",
    ),
    (
        gluecount.GfIdentityReport,
        ("holds", "first_discrepancy", "order"),
        ((False, (3, 2), 6), (True, None, 6)),
        "GfIdentityReport(holds=False, first_discrepancy=(3, 2), order=6)",
    ),
    (
        SuiteResult,
        ("name", "passed", "checked", "failure"),
        (("s", True, 3, None), ("s", False, 3, "boom")),
        "SuiteResult(name='s', passed=True, checked=3, failure=None)",
    ),
]


@pytest.mark.parametrize("cls, names, values, text", VALUES, ids=[v[0].__name__ for v in VALUES])
def test_value_classes_are_frozen_and_compared_by_their_fields(cls, names, values, text):
    first, second = values
    value = cls(*first)
    assert value == cls(**dict(zip(names, first)))
    assert repr(value) == text
    assert cls.__match_args__ == names
    assert tuple(getattr(value, name) for name in names) == first
    assert not hasattr(value, "__dict__")

    same = cls(*first)
    other = cls(*second)
    assert same is not value and same == value and not same != value
    assert hash(same) == hash(value) == hash(first)
    assert other != value and not other == value
    # Never equal to its fields as a tuple, nor to a value of another class.
    assert value != first and value.__eq__(first) is NotImplemented
    for other_cls, _, (other_first, _), _ in VALUES:
        if other_cls is not cls:
            assert value != other_cls(*other_first)

    for name in (*names, "extra"):
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
            setattr(value, name, 0)
        with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
            delattr(value, name)
    assert tuple(getattr(value, name) for name in names) == first

    copies = [copy.copy(value), copy.deepcopy(value)]
    copies += [pickle.loads(pickle.dumps(value, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    for twin in copies:
        assert type(twin) is cls and twin == value and repr(twin) == text


def test_value_classes_match_by_position_and_keep_defaults():
    match gluecount.SurfaceSignature(2, [1, 0]):
        case gluecount.SurfaceSignature(genus, (size, 0)):
            assert (genus, size) == (2, 1)
        case _:
            pytest.fail("no match")
    assert SuiteResult("s", True, 3) == SuiteResult("s", True, 3, None)


def test_import_loads_no_heavy_standard_modules(src_env):
    # Every command is a fresh interpreter, so every module the package
    # imports is paid on each call. -S keeps site from preloading any.
    heavy = ("dataclasses", "inspect", "ast", "dis", "tokenize", "typing", "csv", "pathlib")
    code = (
        "import sys, gluecount, gluecount.cli, gluecount.verify; "
        f"print(*sorted(set({heavy!r}) & sys.modules.keys()))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True, text=True, env=src_env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def test_readme_python_block_does_what_its_comments_say():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    namespace = {}
    stated = []
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        if not comment:
            exec(code, namespace)
            continue
        value = eval(code, namespace)
        assert re.match(re.escape(repr(value)) + "(,|$)", comment.strip()), line
        stated.append(value)
    assert stated == [49, 49, 49, (0, ((1,), (2,)), 0), "a,a,2,1", (483, 483, 483)]
    # "by walking the 15 chord diagrams of its 6 glued edges"
    assert "the 15 chord diagrams of its 6 glued edges" in block
    assert sum(_chord_classes(6).values()) == 15


def test_readme_command_lines_print_what_is_shown(capsys, monkeypatch, tmp_path):
    # Every `$ gluecount ...` line but `verify --level full`, whose suites
    # test_acceptance.py runs at the same sizes; `...` stands for any run of
    # lines. The cache file lands in tmp_path.
    text = README.read_text(encoding="utf-8")
    (block,) = re.findall(r"## Command line\n.*?```\n(.*?)```", text, re.S)
    commands = re.split(r"^\$ gluecount (.*)\n", block, flags=re.M)[1:]
    monkeypatch.chdir(tmp_path)
    ran = []
    for command, shown in zip(commands[::2], commands[1::2]):
        if command == "verify --level full":
            continue
        assert cli.main(command.split()) == 0, command
        pattern = "".join(
            r"(?:.*\n)*" if line == "..." else re.escape(line) + r"\n"
            for line in shown.splitlines()
        )
        assert re.fullmatch(pattern, capsys.readouterr().out), command
        ran.append(command.split()[0])
    assert ran == ["count", "count", "count", "hz", "hz", "table", "enumerate"]


def test_readme_states_the_bounds_the_code_enforces():
    # Each refusal bound where the README gives it, in prose and in the
    # quoted messages: changing a constant fails here until the README follows.
    text = " ".join(README.read_text(encoding="utf-8").split())
    states, words = recursion._STATE_BUDGET, gluing._WORD_BUDGET
    stated = [
        f"at most {states:,} entries",
        f"more than {states} new states",
        f"the recursion's {states:,}-state budget",
        f"passes the {states:,}-state budget",
        f"more than {words:,} diagrams",
        f"more than {words:,} chord diagrams to walk",
        f"more than {words:,} words to canonicalize",
        f"more than {words} words to canonicalize",
        f"polygon has {recursion._SIZE_LIMIT} edges or more, the largest size",
        f"polygon has {recursion._SIZE_LIMIT} edges or more, whose recursion",
        f"whose sizes reach {recursion._SIZE_LIMIT}",
        f"genus is {recursion._FIELD} or more",
        f"repeats a size {recursion._FIELD} times or more",
    ]
    assert [phrase for phrase in stated if phrase not in text] == []
