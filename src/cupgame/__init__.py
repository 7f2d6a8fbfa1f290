"""Exact-rational simulation and checking laboratory for the p-processor cup game."""

from .engine import (
    ConfigError,
    EmptyMove,
    FillMove,
    GameConfig,
    StepRecord,
    Trace,
    Violation,
    run_game,
)
from .invariants import InvariantReport, PreconditionError, run_checkers
from .rational import format_rat, parse_rat, rat
from .state import CupState, harmonic_number

__all__ = [
    "ConfigError",
    "CupState",
    "EmptyMove",
    "FillMove",
    "GameConfig",
    "InvariantReport",
    "PreconditionError",
    "StepRecord",
    "Trace",
    "Violation",
    "format_rat",
    "harmonic_number",
    "parse_rat",
    "rat",
    "run_checkers",
    "run_game",
]
