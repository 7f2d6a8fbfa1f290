"""README.md's transcripts and library example, replayed so they cannot drift."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

from cupgame.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _section(title):
    text = README.read_text()
    start = text.index(f"\n## {title}\n")
    end = text.find("\n## ", start + 1)
    return text[start:end]


def _transcripts():
    """(argv, stdout lines) of each Quick start `$ cupgame` command shown with output."""
    for block in re.findall(r"^```\n(.*?)^```", _section("Quick start"), re.M | re.S):
        for chunk in re.split(r"^\$ ", block, flags=re.M)[1:]:
            command, _, output = chunk.replace("\\\n", "").partition("\n")
            lines = output.rstrip("\n").splitlines()
            if lines:  # the montecarlo block shows commands only
                program, *argv = shlex.split(command)
                assert program == "cupgame", command
                yield argv, lines


def test_quick_start_transcripts_match_the_cli(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # the commands write demo/ and sweep/ here
    transcripts = list(_transcripts())
    assert [argv[0] for argv, _ in transcripts] == ["run", "check", "lowerbound", "sweep"]
    for argv, lines in transcripts:
        capsys.readouterr()
        assert main(argv) == 0, argv
        assert capsys.readouterr().out.splitlines() == lines, argv


def test_library_use_block_runs():
    (block,) = re.findall(r"^```python\n(.*?)^```", _section("Library use"), re.M | re.S)
    exec(compile(block, str(README), "exec"), {})
