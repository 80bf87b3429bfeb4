"""The README's examples, run against the output it shows: the Library
block, and each `$ lunenn ...` line of the command-line transcript."""

import ast
import math
import re
import shlex
from pathlib import Path

from lunenn.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")

#: Results the Library block describes in words rather than as a literal.
_DESCRIBED = {
    "four entries of pi/2": lambda v: len(v.entries) == 4
    and all(abs(a - math.pi / 2) <= 1e-12 for a in v.angles),
    "uniform 1/4": lambda v: v.weights == (0.25,) * 4,
}


def _blocks(language):
    return re.findall(r"```%s\n(.*?)```" % language, README, re.S)


def test_library_block():
    (block,) = _blocks("python")
    lines = block.splitlines()
    namespace = {}
    checked = 0
    for stmt in ast.parse(block).body:
        if isinstance(stmt, ast.Expr):
            value = eval(compile(ast.Expression(stmt.value), "README", "eval"), namespace)
        else:
            exec(compile(ast.Module([stmt], []), "README", "exec"), namespace)
            value = namespace[stmt.targets[0].id] if isinstance(stmt, ast.Assign) else None
        shown = lines[stmt.end_lineno - 1].partition("#")[2].strip()
        if not shown:
            continue
        if shown in _DESCRIBED:
            assert _DESCRIBED[shown](value), shown
        else:
            assert value == ast.literal_eval(shown), shown
        checked += 1
    assert checked == 3


def test_command_line_transcript(tmp_path, monkeypatch, capsys):
    (transcript,) = [b for b in _blocks("sh") if "$ lunenn" in b]
    steps = []
    for line in transcript.splitlines():
        if line.startswith("$ "):
            steps.append((shlex.split(line[2:]), []))
        elif steps:
            steps[-1][1].append(line)
    monkeypatch.chdir(tmp_path)
    ran = 0
    for argv, shown in steps:
        text = "\n".join(shown).strip("\n")
        expected = text + "\n" if text else ""
        if argv[0] == "cat":
            (tmp_path / argv[1]).write_text(expected, encoding="utf-8")
            continue
        assert argv[0] == "lunenn"
        assert main(argv[1:]) == 0, argv
        assert capsys.readouterr().out == expected, argv
        ran += 1
    assert ran == 5
