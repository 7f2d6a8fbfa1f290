"""The CLI as a separate process: exit codes and stderr as a shell sees them.

`python -m cupgame` runs a C3 fuzz game, a p = 1 greedy game (top_cups(1)),
a 5-step p = 1 harmonic game, C8's two oblivious games and a config file
whose n comes from a flag; each runs and checks clean (0), reporting its
steps and PASSes.  A threshold-blind game runs (0), and its check, which no
checker covers, exits 2.  That check, malformed config files and a
trace.csv with a byte that is not UTF-8, a quoted cell or a carriage return
within a line exit 2 with a message naming the file and line and no
traceback.  The games' bytes are pinned in tests/test_artifact_digests.py.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import cupgame

# the package's own source root, so the tests need no installed cupgame
ENV = dict(
    os.environ,
    PYTHONPATH=os.pathsep.join(
        filter(None, [str(Path(cupgame.__file__).resolve().parents[1]),
                      os.environ.get("PYTHONPATH", "")])
    ),
)

GAMES = {
    "fuzz": ["--n", 16, "--p", 2, "--steps", 500, "--seed", 0, "--filler", "random:1/2",
             "--emptier", "smoothed-greedy", "--svg"],
    "greedy-p1": ["--n", 16, "--p", 1, "--steps", 500, "--filler", "random:1/2",
                  "--emptier", "greedy", "--svg"],
    "harmonic-p1": ["--n", 4, "--p", 1, "--steps", 5, "--filler", "harmonic"],
    "anchor-swap": ["--n", 16, "--p", 8, "--steps", 300, "--seed", 0,
                    "--filler", "anchor-swap:8,64,2", "--emptier", "smoothed-greedy"],
    "anti-greedy": ["--n", 32, "--p", 8, "--steps", 300, "--seed", 0,
                    "--filler", "anti-greedy:16,3/4,128", "--emptier", "smoothed-greedy"],
}


def cupgame_process(*argv, code: int) -> subprocess.CompletedProcess:
    """Run `python -m cupgame argv`, require exit code and no traceback."""
    done = subprocess.run(
        [sys.executable, "-m", "cupgame", *map(str, argv)],
        env=ENV, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == code, done.stderr
    assert "Traceback" not in done.stderr
    return done


def run_game_process(name: str, out):
    done = cupgame_process("run", *GAMES[name], "--out", out, code=0)
    steps = GAMES[name][GAMES[name].index("--steps") + 1]
    assert done.stdout.startswith(f"ran {steps}/{steps} steps")


@pytest.fixture(scope="module")
def fuzz_game(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "game"
    run_game_process("fuzz", out)
    return out


@pytest.mark.parametrize("name", GAMES)
def test_game_runs_and_checks_clean(tmp_path, fuzz_game, name):
    out = fuzz_game
    if name != "fuzz":
        out = tmp_path / name
        run_game_process(name, out)
    report = cupgame_process("check", out, code=0).stdout
    assert ": PASS" in report and "FAIL" not in report


def test_threshold_blind_game_runs_but_no_checker_covers_it(tmp_path):
    out = tmp_path / "blind"
    cupgame_process("run", "--n", 16, "--p", 4, "--steps", 200, "--seed", 0,
                    "--filler", "random:1/2", "--emptier", "threshold-blind", "--out", out, code=0)
    assert "threshold-blind" in cupgame_process("check", out, code=2).stderr


@pytest.mark.parametrize(
    "text",
    [
        "[game]\nn = 4\nn = 5\np = 1\nsteps = 5\n",
        "[DEFAULT]\nn = 4\n[game]\np = 1\nsteps = 5\n",
    ],
    ids=["duplicate-key", "default-section"],
)
def test_malformed_config_file_exits_2(tmp_path, text):
    ini = tmp_path / "run.ini"
    ini.write_text(text)
    done = cupgame_process("run", "--config", ini, "--out", tmp_path / "out", code=2)
    assert str(ini) in done.stderr
    assert not (tmp_path / "out").exists()


def test_config_file_takes_n_from_a_flag(tmp_path):
    ini = tmp_path / "no-n.ini"
    ini.write_text("[game]\np = 2\nsteps = 50\n[strategies]\nfiller = random:1/2\n")
    out = tmp_path / "no-n"
    cupgame_process("run", "--config", ini, "--n", 4, "--out", out, code=0)
    cupgame_process("check", out, code=0)


def test_byte_that_is_not_utf_8_is_located(tmp_path, fuzz_game):
    out = tmp_path / "byte"
    shutil.copytree(fuzz_game, out, ignore=shutil.ignore_patterns("report.json"))
    path = out / "trace.csv"
    data = bytearray(path.read_bytes())
    at = 30_000  # past the first chunks a text layer would decode ahead
    data[at] = 0xFF
    path.write_bytes(data)
    line = data.count(b"\n", 0, at) + 1
    column = at - data.rfind(b"\n", 0, at)
    assert cupgame_process("check", out, code=2).stderr == (
        f"error: {path}: line {line}: byte {column} (0xff) is not UTF-8\n"
    )
    assert not (out / "report.json").exists()


@pytest.mark.parametrize(
    "at, edit", [(4, '"{}"'), (5, "{}\r")], ids=["quoted-cup-cell", "carriage-return-mid-line"]
)
def test_quote_or_carriage_return_within_a_line_is_located(tmp_path, fuzz_game, at, edit):
    out = tmp_path / "quoted"
    shutil.copytree(fuzz_game, out, ignore=shutil.ignore_patterns("report.json"))
    path = out / "trace.csv"
    lines = path.read_bytes().split(b"\n")
    cells = lines[6].decode().split(",")  # step 3's inter row, file line 7
    cells[at] = edit.format(cells[at])
    lines[6] = ",".join(cells).encode()
    path.write_bytes(b"\n".join(lines))
    assert cupgame_process("check", out, code=2).stderr == (
        f"error: {path}: line 7: a quote or a carriage return within the line; "
        "trace.csv is not quoted\n"
    )
    assert not (out / "report.json").exists()
