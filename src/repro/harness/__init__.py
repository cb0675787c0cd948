"""Experiment harness: closed-loop clients, runners, figures, reports."""

from repro.harness.runner import ExperimentResult, run_experiment
from repro.harness.report import ascii_chart, format_table

__all__ = [
    "ExperimentResult",
    "ascii_chart",
    "format_table",
    "run_experiment",
]
