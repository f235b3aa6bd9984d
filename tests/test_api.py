"""The public surface: what `gluecount` exports, and the README's Python
example and command lines run as written."""

import dataclasses
import re
from pathlib import Path

import gluecount
from gluecount import cli, formula
from gluecount.gluing import _chord_classes

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


def test_word_level_helpers_stay_out_of_the_package():
    assert not hasattr(gluecount, "iter_words")
    assert not hasattr(gluecount.GluingWord, "rotated")
    assert [f.name for f in dataclasses.fields(gluecount.GluedSurface)] == [
        "boundary_cycles",
        "puncture_count",
        "genus",
    ]
    surface = gluecount.glue(gluecount.GluingWord.from_letters("a,x,a,y"))
    for name in ("vertex_classes", "euler_char", "boundary_count", "boundary_profile"):
        assert not hasattr(surface, name), name
    assert not hasattr(formula, "_weights")


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
