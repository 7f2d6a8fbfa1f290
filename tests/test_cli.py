"""End-to-end CLI coverage: exit codes, file outputs, determinism."""

from __future__ import annotations

import json

import pytest

from cupgame.cli import build_parser, main
from cupgame.emptiers import ThresholdBlindEmptier
from cupgame.engine import GameConfig, run_game
from cupgame.rational import parse_rat, rat
from cupgame.traceio import write_trace

from test_invariants import forge


def run_cli(*argv):
    return main([str(part) for part in argv])


def test_parser_is_built_once():
    assert build_parser() is build_parser()


# ---------------------------------------------------------------------------
# run


def test_run_harmonic_attack_exceeds_harmonic_sum(tmp_path, capsys):
    code = run_cli(
        "run", "--n", 8, "--p", 1, "--steps", 7,
        "--filler", "harmonic", "--emptier", "greedy", "--out", tmp_path,
    )
    assert code == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    top = parse_rat(summary["max_backlog"]["exact"])
    assert top >= rat(481, 280)  # 1/2 + 1/3 + ... + 1/8
    out = capsys.readouterr().out
    assert "max backlog" in out


def test_run_zero_filler_stays_empty(tmp_path):
    code = run_cli("run", "--n", 4, "--p", 1, "--steps", 10, "--out", tmp_path)
    assert code == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["max_backlog"]["exact"] == "0/1"


def test_run_twice_is_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    argv = [
        "run", "--n", 6, "--p", 2, "--steps", 40, "--seed", 9,
        "--filler", "random:1/2", "--emptier", "smoothed-greedy", "--svg",
    ]
    assert run_cli(*argv, "--out", a) == 0
    assert run_cli(*argv, "--out", b) == 0
    for name in ("trace.csv", "summary.json", "backlog.svg"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_run_config_file_with_override(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text(
        "[game]\nn = 4\np = 1\nsteps = 5\n[strategies]\nfiller = harmonic\n"
    )
    out = tmp_path / "out"
    assert run_cli("run", "--config", ini, "--steps", 8, "--out", out) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["steps"] == 8
    assert summary["config"]["filler"] == "harmonic"


def test_run_missing_required_settings_exits_2(tmp_path, capsys):
    assert run_cli("run", "--n", 4, "--p", 1, "--out", tmp_path) == 2
    assert capsys.readouterr().err == (
        "error: missing required settings (flag or config file): ['steps']\n"
    )


def test_run_bad_strategy_spec_exits_2(tmp_path):
    code = run_cli(
        "run", "--n", 4, "--p", 1, "--steps", 5,
        "--filler", "mystery", "--out", tmp_path,
    )
    assert code == 2


def test_run_oblivious_conflict_exits_2(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text(
        "[game]\nn = 4\np = 1\nsteps = 5\nvisibility = oblivious\n"
        "[strategies]\nfiller = harmonic\n"
    )
    assert run_cli("run", "--config", ini, "--out", tmp_path / "out") == 2


def test_run_visibility_flag_refuses_a_filler_that_needs_adaptive(tmp_path, capsys):
    # a truncation cap makes random:1/2 read the state
    code = run_cli("run", "--n", 4, "--p", 1, "--steps", 5, "--filler", "random:1/2",
                   "--truncate", 3, "--visibility", "oblivious", "--out", tmp_path / "out")
    assert code == 2
    assert "filler 'random:1/2' needs adaptive visibility" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_run_visibility_flag_plays_an_oblivious_filler_the_same(tmp_path):
    # C8's anchor-swap game: the filler never reads its view
    game = ("--n", 16, "--p", 8, "--steps", 300, "--seed", 0,
            "--filler", "anchor-swap:8,64,2", "--emptier", "smoothed-greedy")
    for visibility in ("adaptive", "oblivious"):
        assert run_cli("run", *game, "--visibility", visibility,
                       "--out", tmp_path / visibility) == 0
    adaptive, oblivious = (tmp_path / name for name in ("adaptive", "oblivious"))
    assert (adaptive / "trace.csv").read_bytes() == (oblivious / "trace.csv").read_bytes()
    summaries = [json.loads((out / "summary.json").read_text()) for out in (adaptive, oblivious)]
    assert [summary["config"].pop("visibility") for summary in summaries] == ["adaptive",
                                                                              "oblivious"]
    assert summaries[0] == summaries[1]
    assert run_cli("check", oblivious) == 0
@pytest.mark.parametrize(
    "text, message",
    [
        ("[game]\nn = 4\nn = 5\np = 1\nsteps = 5\n",
         "option 'n' in section 'game' already exists"),
        ("[game]\nn = 4\np = 1\nsteps = 5\n[game]\nseed = 1\n", "section 'game' already exists"),
        ("n = 4\np = 1\nsteps = 5\n", "File contains no section headers"),
        ("[game]\nn = 4\np = 1\nsteps = 5\n[strategies]\nfiller = %(x)s\n",
         "unknown filler spec '%(x)s'"),
    ],
    ids=["duplicate-option", "duplicate-section", "no-section-header", "interpolation"],
)
def test_run_malformed_config_file_exits_2(tmp_path, capsys, text, message):
    ini = tmp_path / "run.ini"
    ini.write_text(text)
    assert run_cli("run", "--config", ini, "--out", tmp_path / "out") == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "text",
    ["[game]\nn = 4\np = 8\nsteps = 5\n", "[game]\np = 2\nsteps = 5\n"],
    ids=["p-over-the-file-n", "no-n"],
)
def test_run_flags_override_the_config_file_before_it_is_validated(tmp_path, text):
    ini = tmp_path / "run.ini"
    ini.write_text(text)
    out = tmp_path / "out"
    assert run_cli("run", "--config", ini, "--n", 16, "--out", out) == 0
    assert json.loads((out / "summary.json").read_text())["config"]["n"] == 16
    assert run_cli("check", out) == 0


@pytest.mark.parametrize(
    "text, message",
    [
        (b"[game]\np = 2\nsteps = 5\n", "[game] needs n\n"),
        (b"[game]\nn = 4\np = 2\nsteps = 5\nvisibility = sideways\n",
         "unknown visibility 'sideways'\n"),
        (b"[game]\nn = 4\np = 2\nsteps = 5\n# \xff\n", "'utf-8' codec can't decode byte 0xff"),
        # configparser would merge [DEFAULT]'s keys into every section
        (b"[DEFAULT]\nn = 4\n[game]\np = 1\nsteps = 5\n", "unknown sections ['DEFAULT']\n"),
        (b"[DEFAULT]\nseed = 3\n[game]\nn = 4\np = 1\nsteps = 5\n[strategies]\nfiller = zero\n",
         "unknown sections ['DEFAULT']\n"),
    ],
    ids=["no-n", "bad-visibility", "not-utf-8", "default-n", "default-seed-with-strategies"],
)
def test_run_config_file_errors_name_the_file_once(tmp_path, capsys, text, message):
    ini = tmp_path / "run.ini"
    ini.write_bytes(text)
    assert run_cli("run", "--config", ini, "--out", tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {ini}: {message}")
    assert err.count(str(ini)) == 1


# ---------------------------------------------------------------------------
# check


def test_check_greedy_trace_all_pass(tmp_path, capsys):
    src = tmp_path / "game"
    assert run_cli(
        "run", "--n", 8, "--p", 2, "--steps", 60, "--seed", 3,
        "--filler", "random:1/2", "--out", src,
    ) == 0
    capsys.readouterr()
    assert run_cli("check", src) == 0
    out = capsys.readouterr().out
    assert "cup-reset: PASS" in out
    assert "record-gap: PASS" in out
    report = json.loads((src / "report.json").read_text())
    assert report["passed"] is True
    assert {entry["check"] for entry in report["reports"]} == {
        "cup-reset",
        "record-gap",
    }


def test_check_smoothed_trace_all_pass(tmp_path):
    src = tmp_path / "game"
    assert run_cli(
        "run", "--n", 6, "--p", 2, "--steps", 80, "--seed", 5,
        "--filler", "random:1/2", "--emptier", "smoothed-greedy", "--out", src,
    ) == 0
    assert run_cli("check", src, "--window", 32) == 0
    report = json.loads((src / "report.json").read_text())
    names = {entry["check"] for entry in report["reports"]}
    assert "level-conservation" in names
    assert "working-set" in names
    assert "fractional" in names


def test_check_failing_trace_exits_1(tmp_path, capsys):
    # a legal step that breaks cup-reset: cup 1 rises from 1 to 2, nothing drained
    bad = forge(
        2,
        1,
        "greedy",
        [({1: rat(1)}, (), (rat(2), rat(0)))],
        initial=(1, 0),
    )
    write_trace(bad, tmp_path)
    assert run_cli("check", tmp_path, "--checkers", "cup-reset") == 1
    out = capsys.readouterr().out
    assert "cup-reset: FAIL" in out
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["passed"] is False
    assert report["reports"][0]["witness"]["t"] == 1


def test_check_default_runs_every_checker_whose_hypotheses_hold(tmp_path, capsys):
    # the (1, 0) start rules out single-av, not the other greedy checkers
    bad = forge(
        2,
        1,
        "greedy",
        [({1: rat(1)}, (), (rat(2), rat(0)))],
        initial=(1, 0),
    )
    write_trace(bad, tmp_path)
    assert run_cli("check", tmp_path) == 1
    out = capsys.readouterr().out
    assert "cup-reset: FAIL" in out
    report = json.loads((tmp_path / "report.json").read_text())
    names = [entry["check"] for entry in report["reports"]]
    assert names == ["cup-reset", "record-gap"]


def test_check_unknown_checker_exits_2(tmp_path):
    src = tmp_path / "game"
    run_cli("run", "--n", 4, "--p", 1, "--steps", 5, "--out", src)
    assert run_cli("check", src, "--checkers", "bogus") == 2


@pytest.mark.parametrize("names", [",", "", ",,"])
def test_check_list_naming_no_checker_exits_2(tmp_path, capsys, names):
    src = tmp_path / "game"
    run_cli("run", "--n", 4, "--p", 1, "--steps", 5, "--filler", "random:1/2", "--out", src)
    with pytest.raises(SystemExit) as info:
        run_cli("check", src, "--checkers", names)
    assert info.value.code == 2
    assert f"argument --checkers: names no checker: {names!r}" in capsys.readouterr().err
    assert not (src / "report.json").exists()


@pytest.mark.parametrize("window", ["0", "-1", "x"])
@pytest.mark.parametrize("emptier", ["greedy", "smoothed-greedy"])
def test_check_rejects_a_window_below_one_before_reading_the_trace(
    tmp_path, capsys, emptier, window
):
    # working-set reads the window on smoothed-greedy traces only; both exit 2
    src = tmp_path / "game"
    run_cli("run", "--n", 4, "--p", 1, "--steps", 5, "--filler", "random:1/2",
            "--emptier", emptier, "--out", src)
    for trace in (src, tmp_path / "absent"):
        with pytest.raises(SystemExit) as info:
            run_cli("check", trace, f"--window={window}")
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --window: must be an integer >= 1, got {window!r}" in err
    assert not (src / "report.json").exists()


def test_check_inapplicable_checker_exits_2(tmp_path):
    src = tmp_path / "game"
    run_cli("run", "--n", 4, "--p", 2, "--steps", 5, "--out", src)
    assert run_cli("check", src, "--checkers", "single-av") == 2


@pytest.mark.parametrize("emptier", ["threshold-blind", "threshold-blind:2,2"])
def test_check_with_no_applicable_checker_exits_2(tmp_path, capsys, emptier):
    # "threshold-blind:2,2" stands for a trace saved while that spec took L,C:
    # it still loads, because loading a trace never builds its emptier
    config = GameConfig(n=8, p=3, steps=40, seed=3, filler="random:1", emptier=emptier)
    write_trace(run_game(config, emptier=ThresholdBlindEmptier()), tmp_path)
    assert run_cli("check", tmp_path) == 2
    assert f"no checker covers emptier {emptier!r}" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_check_malformed_trace_exits_2(tmp_path):
    src = tmp_path / "game"
    run_cli(
        "run", "--n", 4, "--p", 1, "--steps", 5,
        "--filler", "harmonic", "--out", src,
    )
    path = src / "trace.csv"
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:3]) + "\n")  # dangling inter row
    assert run_cli("check", src) == 2


def test_check_missing_directory_exits_2(tmp_path):
    assert run_cli("check", tmp_path / "absent") == 2


def test_check_illegal_trace_exits_2_naming_the_step(tmp_path, capsys):
    # the rows put 2 units into one cup at p=1: the replay rejects step 1
    bad = forge(
        2,
        1,
        "greedy",
        [({1: rat(2)}, (), (rat(2), rat(0)))],
    )
    write_trace(bad, tmp_path)
    assert run_cli("check", tmp_path) == 2
    err = capsys.readouterr().err
    assert "step 1" in err
    assert "exceeds 1" in err
    assert not (tmp_path / "report.json").exists()


def test_check_summary_missing_key_exits_2(tmp_path, capsys):
    src = tmp_path / "game"
    run_cli("run", "--n", 4, "--p", 1, "--steps", 5, "--out", src)
    path = src / "summary.json"
    summary = json.loads(path.read_text())
    del summary["config"]["seed"]
    path.write_text(json.dumps(summary))
    assert run_cli("check", src) == 2
    err = capsys.readouterr().err
    assert "summary.json" in err
    assert "seed" in err


@pytest.mark.parametrize(
    "violation",
    [
        {"step": 2, "source": "psychic", "reasons": ["made up"]},
        {"step": "x", "source": 7, "reasons": "abc"},
        {"step": 2, "source": "filler", "reasons": ["made up"]},  # mid-run
        {"step": 6, "source": "emptier", "reasons": ["made up"]},  # after the last step
        {"step": 6, "source": "filler", "reasons": [1]},
    ],
    ids=["psychic-source", "wrong-types", "mid-run", "past-the-end", "reason-not-text"],
)
def test_check_rejects_a_violation_the_replay_cannot_have(tmp_path, capsys, violation):
    src = tmp_path / "game"
    run_cli("run", "--n", 4, "--p", 1, "--steps", 5, "--filler", "random:1/2", "--out", src)
    path = src / "summary.json"
    summary = json.loads(path.read_text())
    summary["violation"] = violation
    path.write_text(json.dumps(summary))
    capsys.readouterr()
    assert run_cli("check", src) == 2
    assert "summary.json" in capsys.readouterr().err


def test_check_cell_over_the_csv_field_limit_exits_2(tmp_path, capsys):
    src = tmp_path / "game"
    run_cli("run", "--n", 4, "--p", 1, "--steps", 3, "--filler", "random:1/2", "--out", src)
    path = src / "trace.csv"
    lines = path.read_text().splitlines()
    cells = lines[3].split(",")
    cells[4] = "1" * 200_000  # csv's default field size limit is 131,072
    lines[3] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert run_cli("check", src) == 2
    assert "trace.csv: line 4: field larger than field limit" in capsys.readouterr().err
    assert not (src / "report.json").exists()


def test_check_names_the_line_of_a_byte_that_is_not_utf_8(tmp_path, capsys):
    src = tmp_path / "game"
    run_cli("run", "--n", 16, "--p", 2, "--steps", 300, "--filler", "random:1/2", "--out", src)
    path = src / "trace.csv"
    lines = path.read_bytes().split(b"\n")
    # a line past the text layer's first 8 KiB chunks, which decode ahead of the rows
    at = next(at for at in range(len(lines)) if len(b"\n".join(lines[:at])) > 3 * 8192)
    lines[at] = lines[at][:4] + b"\xff" + lines[at][5:]
    path.write_bytes(b"\n".join(lines))
    capsys.readouterr()
    assert run_cli("check", src) == 2
    assert capsys.readouterr().err == (
        f"error: {path}: line {at + 1}: byte 5 (0xff) is not UTF-8\n"
    )
    assert not (src / "report.json").exists()


def test_check_empty_trace_csv_exits_2(tmp_path, capsys):
    src = tmp_path / "game"
    run_cli("run", "--n", 4, "--p", 1, "--steps", 5, "--out", src)
    (src / "trace.csv").write_text("")
    assert run_cli("check", src) == 2
    assert "trace.csv" in capsys.readouterr().err


def _game_with_summary(tmp_path, edit, flags=("--filler", "random:1/2")):
    """A 25-step n=6 p=2 game whose summary.json went through edit(summary)."""
    src = tmp_path / "game"
    run_cli("run", "--n", 6, "--p", 2, "--steps", 25, *flags, "--out", src)
    path = src / "summary.json"
    summary = json.loads(path.read_text())
    edit(summary)
    path.write_text(json.dumps(summary))
    return src


@pytest.mark.parametrize(
    "key, value",
    [("n", 6.0), ("p", 2.0), ("steps", 25.0), ("seed", 1.5), ("p", True), ("seed", False)],
    ids=["float-n", "float-p", "float-steps", "float-seed", "bool-p", "bool-seed"],
)
def test_check_rejects_a_config_entry_that_is_not_an_int(tmp_path, capsys, key, value):
    src = _game_with_summary(tmp_path, lambda summary: summary["config"].update({key: value}))
    capsys.readouterr()
    assert run_cli("check", src) == 2
    err = capsys.readouterr().err
    assert "summary.json" in err
    assert f"{key} must be an integer" in err
    assert not (src / "report.json").exists()


def test_check_rejects_fewer_config_steps_than_the_trace_holds(tmp_path, capsys):
    src = _game_with_summary(tmp_path, lambda summary: summary["config"].update(steps=3))
    capsys.readouterr()
    assert run_cli("check", src) == 2
    err = capsys.readouterr().err
    assert "summary.json: steps is 3" in err
    assert "holds 25 steps" in err


@pytest.mark.parametrize("key", ["steps_executed", "record_setting_steps"])
def test_check_compares_summary_types_as_well_as_values(tmp_path, capsys, key):
    def edit(summary):  # 25.0 == 25, but a float is not what the replay gives
        value = summary[key]
        summary[key] = float(value) if key == "steps_executed" else [float(t) for t in value]

    src = _game_with_summary(tmp_path, edit)
    capsys.readouterr()
    assert run_cli("check", src) == 2
    err = capsys.readouterr().err
    assert f"summary.json: {key} is 25.0" in err or f"summary.json: {key} is [1.0" in err


@pytest.mark.parametrize("flag", ["", "2", "x", " 0", "00"])
def test_check_rejects_a_post_row_skip_flag_other_than_0_or_1(tmp_path, capsys, flag):
    src = _game_with_summary(tmp_path, lambda summary: None)
    path = src / "trace.csv"
    lines = path.read_text().splitlines()
    cells = lines[3].split(",")  # line 4: the step 1 post row
    assert cells[:2] == ["1", "post"] and cells[3] == "0"
    cells[3] = flag
    lines[3] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert run_cli("check", src) == 2
    err = capsys.readouterr().err
    assert f"line 4: step 1: malformed skip flag {flag!r}" in err


@pytest.mark.parametrize(
    "line, cell, text",
    [(2, 2, "1"), (2, 3, "0"), (3, 2, "1 2"), (3, 3, "1"), (5, 3, "0")],
    ids=["t0-selected", "t0-skip", "inter-selected", "inter-skip", "step-2-inter-skip"],
)
def test_check_rejects_text_in_cells_the_writer_leaves_empty(tmp_path, capsys, line, cell, text):
    src = _game_with_summary(tmp_path, lambda summary: None)
    path = src / "trace.csv"
    lines = path.read_text().splitlines()
    cells = lines[line - 1].split(",")
    assert cells[1] in ("post", "inter") and cells[2:4] == ["", ""]
    cells[cell] = text
    lines[line - 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert run_cli("check", src) == 2
    err = capsys.readouterr().err
    assert f"trace.csv: line {line}: step {cells[0]}: {cells[1]} row's selected and skip " in err
    assert not (src / "report.json").exists()


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("filler", "no-such-filler", "unknown filler spec 'no-such-filler'"),
        ("filler", True, "filler must be a spec string, got True"),
        ("filler", 1.5, "filler must be a spec string, got 1.5"),
        ("filler", [1], "filler must be a spec string, got [1]"),
        ("filler", "random:x", "bad parameters in filler spec 'random:x'"),
        ("emptier", "no-such-emptier", "unknown emptier spec 'no-such-emptier'"),
        ("emptier", 7, "emptier must be a spec string, got 7"),
    ],
    ids=["unknown-filler", "bool-filler", "float-filler", "list-filler", "bad-parameter",
         "unknown-emptier", "int-emptier"],
)
def test_check_rejects_a_strategy_spec_no_table_names(tmp_path, capsys, key, value, message):
    src = _game_with_summary(tmp_path, lambda summary: summary["config"].update({key: value}))
    capsys.readouterr()
    assert run_cli("check", src) == 2
    err = capsys.readouterr().err
    assert "summary.json" in err and message in err
    assert not (src / "report.json").exists()


# anchor-swap breaches the cap at step 15, so this 25-step game aborts there
ABORTED = ("--filler", "anchor-swap", "--truncate", "3/2")


@pytest.mark.parametrize(
    "filler, key, value, message",
    [  # each spec parses, but run refuses it at n=6 p=2 with this visibility
        ("random:1/2", "filler", "random:2", "random filler density must be in [0, 1], got 2"),
        ("random:1/2", "filler", "anti-greedy", "anti-greedy needs ELL <= n - p = 4"),
        ("growth", "visibility", "oblivious", "filler 'growth' needs adaptive visibility"),
    ],
    ids=["random-density-2", "anti-greedy-ell-8", "oblivious-growth"],
)
def test_check_rejects_a_config_run_refuses(tmp_path, capsys, filler, key, value, message):
    src = _game_with_summary(
        tmp_path, lambda summary: summary["config"].update({key: value}), ("--filler", filler)
    )
    capsys.readouterr()
    assert run_cli("check", src) == 2
    err = capsys.readouterr().err
    assert "summary.json" in err and message in err
    assert not (src / "report.json").exists()


@pytest.mark.parametrize(
    "value, written", [(6, "6/1"), ("4/2", "2/1")], ids=["json-number", "not-lowest-terms"]
)
def test_check_rejects_a_truncation_run_does_not_write(tmp_path, capsys, value, written):
    src = _game_with_summary(
        tmp_path, lambda summary: summary["config"].update(truncation=value), ABORTED
    )
    capsys.readouterr()
    assert run_cli("check", src) == 2
    err = capsys.readouterr().err
    assert 'summary.json: config is {"emptier": "greedy", "filler": "anchor-swap", ' in err
    assert f'"truncation": {json.dumps(value)}' in err and f'"truncation": "{written}"' in err


@pytest.mark.parametrize(
    "where, message",
    [
        ((), "summary.json: extra is 1, but the replay of"),
        (("config",), "unexpected keyword argument 'extra'"),
        (("violation",), "unexpected keyword argument 'extra'"),
    ],
    ids=["top-level", "config", "violation"],
)
def test_check_rejects_a_key_run_does_not_write(tmp_path, capsys, where, message):
    def edit(summary):
        for key in where:
            summary = summary[key]
        summary["extra"] = 1

    src = _game_with_summary(tmp_path, edit, ABORTED)
    capsys.readouterr()
    assert run_cli("check", src) == 2
    err = capsys.readouterr().err
    assert "summary.json" in err and message in err
    assert not (src / "report.json").exists()


@pytest.mark.parametrize(
    "flags, edit, message",
    [
        (ABORTED, lambda summary: summary.update(violation=None),
         "holds 14 of 25 steps, so violation must be a filler or emptier abort at step 15, "),
        (("--filler", "random:1/2"), lambda summary: summary["config"].update(steps=26),
         "holds 25 of 26 steps, so violation must be a filler or emptier abort at step 26, "),
    ],
    ids=["aborted-run-without-violation", "steps-above-a-full-run"],
)
def test_check_rejects_a_run_short_of_its_steps_with_no_violation(
    tmp_path, capsys, flags, edit, message
):
    src = _game_with_summary(tmp_path, edit, flags)
    capsys.readouterr()
    assert run_cli("check", src) == 2
    err = capsys.readouterr().err
    assert "summary.json: " in err and f"trace.csv {message}with text reasons, not null" in err
    assert not (src / "report.json").exists()


# ---------------------------------------------------------------------------
# sweep


def test_sweep_writes_table_and_slope(tmp_path, capsys):
    code = run_cli(
        "sweep", "--n", "4,8,16,32", "--p", "1", "--seeds", "0:2",
        "--steps", 25, "--out", tmp_path,
    )
    assert code == 0
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert len(lines) == 1 + 4 * 2
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["rows"] == 8
    assert isinstance(report["slope_vs_ln_n"], float)
    assert "slope" in capsys.readouterr().out


def test_sweep_small_grid_exits_2(tmp_path):
    code = run_cli(
        "sweep", "--n", "4,8,16", "--p", "1", "--steps", 10, "--out", tmp_path
    )
    assert code == 2


# ---------------------------------------------------------------------------
# lowerbound


def test_lowerbound_reports_exact_threshold(tmp_path, capsys):
    code = run_cli("lowerbound", "--n", 4, "--p", 1, "--out", tmp_path)
    assert code == 0
    out = capsys.readouterr().out
    assert "13/12" in out
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["reached"] is True
    assert report["threshold"]["exact"] == "13/12"


def test_lowerbound_bad_shape_exits_2(tmp_path):
    assert run_cli("lowerbound", "--n", 4, "--p", 4) == 2


# ---------------------------------------------------------------------------
# montecarlo


def test_montecarlo_crossing_prob(tmp_path, capsys):
    code = run_cli(
        "montecarlo", "crossing-prob", "--y", "1/2", "--seeds", 400,
        "--out", tmp_path,
    )
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    frequency = parse_rat(report["frequency"]["exact"])
    assert rat(3, 10) < frequency < rat(7, 10)
    assert report["seeds"] == 400
    assert "crossing frequency" in capsys.readouterr().out


def test_montecarlo_rejects_few_seeds():
    assert run_cli("montecarlo", "crossing-prob", "--seeds", 99) == 2


@pytest.mark.parametrize("experiment", ["crossing-prob", "anchor-swap-backlog"])
def test_montecarlo_experiments_refuse_fewer_than_100_seeds(capsys, experiment):
    assert run_cli("montecarlo", experiment, "--seeds", 99) == 2
    assert "at least 100 seeds" in capsys.readouterr().err


def test_montecarlo_anchor_swap_zero_threshold(tmp_path):
    code = run_cli(
        "montecarlo", "anchor-swap-backlog", "--n", 6, "--p", 2,
        "--steps", 30, "--seeds", 100, "--threshold", "0", "--out", tmp_path,
    )
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["frequency"]["exact"] == "1/1"
    assert report["hits"] == 100


def test_montecarlo_anti_greedy_runs(tmp_path):
    code = run_cli(
        "montecarlo", "anti-greedy-backlog", "--n", 8, "--p", 2,
        "--ell", 4, "--c", "1/2", "--steps", 30, "--seeds", 100,
        "--out", tmp_path,
    )
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["experiment"] == "anti-greedy-backlog"
    assert 0 <= parse_rat(report["frequency"]["exact"]) <= 1


@pytest.mark.parametrize("bad", [["--c", "0"], ["--ell", "0"], ["--ell=-3"], ["--c=-1/2"]])
def test_montecarlo_anti_greedy_rejects_bad_ell_or_c(bad, capsys):
    # log(ELL / C) in the cutoff must not see these before the spec's checks do
    code = run_cli("montecarlo", "anti-greedy-backlog", "--n", 8, "--p", 2,
                   "--steps", 30, "--seeds", 100, *bad)
    assert code == 2
    assert "anti-greedy needs ELL >= 1 and C > 0" in capsys.readouterr().err


def test_missing_subcommand_exits_2():
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2

