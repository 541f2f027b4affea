"""The alignment settings, kept free of numpy.

The command line reads ``AlignConfig.beta``, ``DEFAULT_SEED`` and
``check_seed`` for its ``--beta`` and ``--seed`` flags when it loads, and
``capgraph eval``, ``stats`` and ``--help`` never load numpy, so these live
apart from ``align``, which re-exports ``AlignConfig`` and ``SELECTION_MODES``.
"""

from __future__ import annotations

from dataclasses import dataclass

SELECTION_MODES = ("steepest_decline", "fixed_gap")
# The k-means seed of ``PipelineConfig``, ``capgraph align`` and ``align``.
DEFAULT_SEED = 0


def check_seed(seed: int) -> int:
    """``seed`` if numpy can seed a generator with it, that is if it is not
    negative; ``PipelineConfig`` and both ``--seed`` flags check it here."""
    if seed < 0:
        raise ValueError("seed must be >= 0")
    return seed


@dataclass
class AlignConfig:
    """Alignment hyperparameters. ``beta`` divides the frame count to pick K."""

    beta: int = 4
    selection: str = "steepest_decline"
    gap_tau: float = 0.2

    def __post_init__(self):
        if self.beta < 1:
            raise ValueError("beta must be >= 1")
        if self.selection not in SELECTION_MODES:
            raise ValueError(f"unknown selection mode {self.selection!r}")
        if self.selection == "fixed_gap" and not (0.0 < self.gap_tau < 1.0):
            raise ValueError("gap_tau must lie in (0, 1)")
