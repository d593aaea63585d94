"""Popularity-based exposure propensities and posterior exposure probability.

Per-item propensities are the square roots of normalized click counts,
theta_click = max((n_i / max n_i)^POWER, FLOOR) with POWER = 0.5 and
FLOOR = 0.01: inverse-propensity weights divide by these numbers, so a
zero-click item gets the floor.  Every command estimates them this one way.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .datasets import write_tsv
from .errors import EstimationError, SingularityError

POWER = 0.5
FLOOR = 1e-2


def estimate_click_propensity(click_counts):
    """(n_i / max_i n_i)^POWER per item, floored at FLOOR for zero-click items."""
    counts = np.asarray(click_counts, dtype=np.float64)
    # written so that NaN fails the check
    if not np.all((counts >= 0) & (counts < np.inf)):
        raise ValueError("click counts must be finite and non-negative")
    if counts.size == 0 or counts.max() == 0:
        raise EstimationError("all click counts are zero")
    theta = (counts / counts.max()) ** POWER
    return np.maximum(theta, FLOOR)


def posterior_exposure(theta, gamma):
    """P(exposed | not clicked) = theta * (1 - gamma) / (1 - theta * gamma).

    Elementwise; scalars give a numpy scalar.  Raises SingularityError when theta*gamma >= 1
    (only reachable at theta = gamma = 1, where a non-click is impossible).
    """
    theta = np.asarray(theta, dtype=np.float64)
    gamma = np.asarray(gamma, dtype=np.float64)
    if np.any(theta <= 0) or np.any(theta > 1):
        raise ValueError("theta must be in (0, 1]")
    if np.any(gamma < 0) or np.any(gamma > 1):
        raise ValueError("gamma must be in [0, 1]")
    denom = 1.0 - theta * gamma
    if np.any(denom <= 0):
        raise SingularityError("theta * gamma >= 1")
    return theta * (1.0 - gamma) / denom


@dataclass
class PropensityTable:
    """Per-item exposure propensities of clicked data."""

    theta_click: np.ndarray

    @classmethod
    def from_click_counts(cls, click_counts):
        return cls(theta_click=estimate_click_propensity(click_counts))

    def save(self, out_dir):
        """Two-column (item_index, value) text file for audit."""
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_tsv(out / "theta_click.tsv", None,
                  ((idx, f"{v:.17g}") for idx, v in enumerate(self.theta_click)))
