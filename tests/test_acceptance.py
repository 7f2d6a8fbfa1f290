"""Release gates: one end-to-end test per headline claim of the laboratory.

Each test prints a single "ACCEPTANCE <id> <name>: PASS/FAIL" line that
bypasses pytest's capture, so a log scrape of any run yields the complete
scorecard.  The Monte Carlo gates pin frozen seeds; where a gate is a
regression baseline rather than a theorem, the frozen number is called out
next to the assertion.
"""

from __future__ import annotations

import contextlib
import json
import math
from collections import Counter

from cupgame.cli import main as cli_main
from cupgame.engine import GameConfig, run_game
from cupgame.experiments import backlog_frequency_experiment, crossing_probability_experiment, run_lower_bound
from cupgame.fillers import make_filler
from cupgame.invariants import (
    CHECKERS,
    check_fractional_preservation,
    run_checkers,
)
from cupgame.rational import rat
from cupgame.rng import FILLER_LABEL, stream

from conftest import forge


class _Verdict:
    def __init__(self):
        self.ok = False

    def conclude(self, ok, detail=None):
        self.ok = bool(ok)
        assert ok, detail


@contextlib.contextmanager
def scored(capsys, tag: str):
    """Print the scorecard line whether the body passes, fails, or blows up."""
    verdict = _Verdict()
    try:
        yield verdict
    finally:
        with capsys.disabled():
            print(f"\nACCEPTANCE {tag}: {'PASS' if verdict.ok else 'FAIL'}")


# ---------------------------------------------------------------------------
# 1: the growth construction reaches its exact harmonic target


def test_c1_growth_reaches_harmonic_backlog_exactly(capsys):
    with scored(capsys, "C1 lower-bound-exactness") as verdict:
        failures = []
        for n, p in ((4, 1), (8, 2), (16, 4), (64, 8)):
            result = run_lower_bound(n, p, emptier="greedy")
            target = sum((rat(1, j) for j in range(2, n - p + 2)), rat(0))
            if not (
                result.reached
                and result.threshold == target
                and result.steps_to_threshold <= 20 * n * (n - p)
            ):
                failures.append((n, p, result.to_jsonable()))
        verdict.conclude(not failures, failures)


# ---------------------------------------------------------------------------
# 2: greedy keeps backlog logarithmic against both stock fillers


def test_c2_greedy_backlog_stays_logarithmic(capsys, tmp_path):
    with scored(capsys, "C2 upper-bound-conformance") as verdict:
        failures = []
        for n in (8, 16, 32, 64, 128):
            bound = 4 * (1 + math.log(n))
            for p in (1, 2, 4):
                for seed in range(200):
                    trace = run_game(
                        GameConfig(n=n, p=p, steps=500, seed=seed,
                                   filler="random:1/2", emptier="greedy")
                    )
                    if trace.violation is not None:
                        failures.append((n, p, seed, "violation"))
                    elif float(trace.max_backlog()) > bound:
                        failures.append((n, p, seed, float(trace.max_backlog())))
                # growth never reads its rng stream, so one run covers
                # every seed of the deterministic half
                trace = run_game(
                    GameConfig(n=n, p=p, steps=500, seed=0,
                               filler="growth", emptier="greedy")
                )
                if float(trace.max_backlog()) > bound:
                    failures.append((n, p, "growth", float(trace.max_backlog())))
        code = cli_main(
            ["sweep", "--n", "8,16,32,64,128", "--p", "1", "--seeds", "0",
             "--steps", "500", "--filler", "growth", "--emptier", "greedy",
             "--out", str(tmp_path)]
        )
        slope = json.loads((tmp_path / "report.json").read_text())["slope_vs_ln_n"]
        verdict.conclude(
            not failures and code == 0 and 0.5 <= slope <= 2.0,
            (failures[:5], code, slope),
        )


# ---------------------------------------------------------------------------
# 3: checker suite is clean on fuzz games and trips on forged breaches

FUZZ_CONFIGS = (
    # truncation caps are 3 * (p + log2 n)
    dict(n=8, p=1, emptier="greedy", truncation=12),
    dict(n=16, p=2, emptier="greedy", truncation=18),
    dict(n=32, p=4, emptier="greedy", truncation=27),
    dict(n=8, p=1, emptier="smoothed-greedy"),
    dict(n=16, p=2, emptier="smoothed-greedy"),
    dict(n=32, p=4, emptier="smoothed-greedy"),
)


def _forged_breaches():
    """One hand-assembled trace per checker, each violating its clause."""
    yield "truncated-tail", forge(
        3, 1, "greedy",
        [({1: rat(1)}, (), (3, 2, 0))],
        truncation=2,
    )
    yield "cup-reset", forge(
        2, 1, "greedy",
        [({1: rat(1)}, (), (2, 0))],
    )
    yield "record-gap", forge(
        2, 1, "greedy",
        [({1: rat(1)}, (), (3, 0))],
    )
    yield "single-av", forge(
        2, 1, "greedy",
        [({1: rat(1)}, (), (rat(3, 2), rat(3, 2)))],
    )
    yield "level-conservation", forge(
        1, 1, "smoothed-greedy",
        [({1: rat(1, 2)}, (), (5,))],
    )
    idle = []
    fill = rat(0)
    for _ in range(20):
        fill += 1
        idle.append(({1: rat(1)}, (), (fill, 0)))
    yield "level-progress", forge(2, 1, "smoothed-greedy", idle)
    sprint = []
    fills = [rat(0)] * 4
    for _ in range(4):
        fills = [fill + 1 for fill in fills]
        sprint.append(
            ({cup: rat(1) for cup in range(1, 5)}, (), tuple(fills))
        )
    yield "working-set", forge(4, 1, "smoothed-greedy", sprint)
    yield "fractional", forge(
        1, 1, "smoothed-greedy",
        [({}, (), (rat(1, 2),))],
        initial=(rat(1, 3),),
    )


def test_c3_checkers_clean_on_fuzz_and_tripped_by_forgeries(capsys):
    with scored(capsys, "C3 checker-suite") as verdict:
        failures = []
        for spec in FUZZ_CONFIGS:
            for seed in range(100):
                trace = run_game(
                    GameConfig(steps=500, seed=seed, filler="random:1/2", **spec)
                )
                if trace.violation is not None:
                    failures.append(("violation", spec, seed))
                    continue
                for report in run_checkers(trace):
                    if not report.passed:
                        failures.append((report.check, spec, seed, report.witness))
        tripped = {}
        for name, trace in _forged_breaches():
            reports = run_checkers(trace, [name], window=8)
            tripped[name] = any(not report.passed for report in reports)
        fixtures_ok = set(tripped) == set(CHECKERS) and all(tripped.values())
        verdict.conclude(
            not failures and fixtures_ok,
            (failures[:5], {k: v for k, v in tripped.items() if not v}),
        )


# ---------------------------------------------------------------------------
# 4: a deposit of y crosses the next integer with probability y


def test_c4_crossing_probability_matches_deposit(capsys):
    with scored(capsys, "C4 crossing-probability") as verdict:
        seeds = 10_000
        failures = []
        for y in (rat(1, 4), rat(1, 2), rat(3, 4)):
            frequency = crossing_probability_experiment([y], seeds)
            tolerance = 4 * math.sqrt(float(y) * (1 - float(y)) / seeds)
            if abs(float(frequency - y)) > tolerance:
                failures.append((y, frequency, tolerance))
        verdict.conclude(not failures, failures)


# ---------------------------------------------------------------------------
# 5: smoothed greedy only ever moves water in whole units


def test_c5_random_offsets_preserved_exactly(capsys):
    with scored(capsys, "C5 fractional-preservation") as verdict:
        failures = []
        for seed in range(50):
            trace = run_game(
                GameConfig(n=12, p=3, steps=300, seed=seed,
                           filler="random:3/5", emptier="smoothed-greedy")
            )
            report = check_fractional_preservation(trace)
            if not report.passed:
                failures.append((seed, report.witness))
        verdict.conclude(not failures, failures)


# ---------------------------------------------------------------------------
# 6: oblivious fillers play the same moves whoever empties


def test_c6_oblivious_moves_ignore_the_emptier(capsys):
    with scored(capsys, "C6 obliviousness") as verdict:
        failures = []
        plans = (
            ("anchor-swap:3,5,2", dict(n=8, p=3, steps=30)),
            ("anti-greedy:6,1/2,10", dict(n=10, p=3, steps=20)),
        )
        for spec, dims in plans:
            for seed in (0, 1, 2):
                rendered = {}
                for emptier in ("greedy", "smoothed-greedy"):
                    trace = run_game(
                        GameConfig(seed=seed, filler=spec, emptier=emptier, **dims)
                    )
                    if trace.violation is not None:
                        failures.append((spec, seed, emptier, "violation"))
                    rendered[emptier] = "\n".join(
                        repr(record.fill.amounts) for record in trace.records
                    )
                if rendered["greedy"] != rendered["smoothed-greedy"]:
                    failures.append((spec, seed, "moves diverge"))
        verdict.conclude(not failures, failures)


# ---------------------------------------------------------------------------
# 7: the same CLI invocation twice gives byte-identical artifacts


def test_c7_cli_artifacts_are_byte_deterministic(capsys, tmp_path):
    with scored(capsys, "C7 determinism") as verdict:
        outs = []
        codes = []
        for tag in ("first", "second"):
            out = tmp_path / tag
            codes.append(
                cli_main(
                    ["run", "--n", "10", "--p", "2", "--steps", "80",
                     "--seed", "5", "--filler", "random:1/2",
                     "--emptier", "smoothed-greedy", "--out", str(out)]
                )
            )
            codes.append(cli_main(["check", str(out)]))
            outs.append(out)
        identical = {
            name: (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
            for name in ("trace.csv", "summary.json", "report.json")
        }
        verdict.conclude(
            codes == [0, 0, 0, 0] and all(identical.values()),
            (codes, identical),
        )


# ---------------------------------------------------------------------------
# 8: randomized constructions at desk scale, with frozen frequency baselines


def test_c8_randomized_constructions_smoke(capsys):
    with scored(capsys, "C8 randomized-lower-bound-smoke") as verdict:
        problems = []

        config = GameConfig(n=16, p=8, steps=1024, seed=0,
                            filler="anchor-swap:8,64,2",
                            emptier="smoothed-greedy")
        filler = make_filler(config.filler, config, stream(config.seed, FILLER_LABEL))
        trace = run_game(config, filler=filler)
        if trace.violation is not None or trace.steps_executed != filler.natural_steps:
            problems.append("anchor-swap run did not complete")
        for idx, record in enumerate(trace.records):
            anchors = [cup for cup, amount in record.fill.amounts if amount == 1]
            spread = [cup for cup, amount in record.fill.amounts if amount != 1]
            if len(anchors) != config.p - 1 or len(spread) != 3 - idx % 2:
                problems.append(f"anchor-swap step {idx + 1} move shape")
                break
        swaps = Counter(
            event["phase"] for event in filler.events
            if event["type"] == "anchor_swap"
        )
        if dict(swaps) != {phase: 1 for phase in range(filler.phases)}:
            problems.append(f"swap rounds per phase: {dict(swaps)}")
        starts = [e for e in filler.events if e["type"] == "phase_start"]
        if len(starts) != 8 or any(len(e["anchors"]) != config.p - 1 for e in starts):
            problems.append("anchor-swap phase bookkeeping off")
        stats = backlog_frequency_experiment(config, 100, rat(3, 2))
        if stats["hits"] != 98:  # frozen baseline at the 3/2 cutoff
            problems.append(f"anchor-swap hits {stats['hits']}/100")
        if not stats["frequency"] > 0:
            problems.append("anchor-swap frequency not positive")

        config = GameConfig(n=32, p=8, steps=1408, seed=0,
                            filler="anti-greedy:16,3/4,128",
                            emptier="smoothed-greedy")
        filler = make_filler(config.filler, config, stream(config.seed, FILLER_LABEL))
        if filler.phase_steps != 11:  # floor(c * ell) - 1
            problems.append(f"anti-greedy phase length {filler.phase_steps}")
        trace = run_game(config, filler=filler)
        if trace.violation is not None or trace.steps_executed != filler.natural_steps:
            problems.append("anti-greedy run did not complete")
        for idx, record in enumerate(trace.records):
            anchors = [cup for cup, amount in record.fill.amounts if amount == 1]
            spread = [cup for cup, amount in record.fill.amounts if amount != 1]
            if anchors != list(range(1, 8)) or len(spread) != 12 - idx % 11:
                problems.append(f"anti-greedy step {idx + 1} move shape")
                break
        starts = [e for e in filler.events if e["type"] == "phase_start"]
        ends = [e for e in filler.events if e["type"] == "phase_end"]
        if (
            len(starts) != 128
            or len(ends) != 128
            or any(len(e["working"]) != 12 for e in starts)
        ):
            problems.append("anti-greedy phase bookkeeping off")
        threshold = math.log(64 / 3) - 1.5  # ln(ell / c) - 3/2
        stats = backlog_frequency_experiment(config, 100, threshold)
        if stats["hits"] != 100:  # frozen baseline at the analytic cutoff
            problems.append(f"anti-greedy hits {stats['hits']}/100")
        if not stats["frequency"] > 0:
            problems.append("anti-greedy frequency not positive")

        verdict.conclude(not problems, problems)
