"""Loss estimators for implicit-feedback ranking, with analytic gradients.

Pairwise base loss is L(s_i, s_j) = -log sigmoid(s_i - s_j), ``pair_loss``,
which the trainer's step and the oracle's pair tables both call.  The estimators
differ only in the weight each (i: clicked, j != i) pair receives, and
``pair_weights`` is the one place that weight is computed, for the trainer's
sampled pairs and the oracle's full pair sums alike:

* bpr:         1 when c_j=0, 0 when j is clicked
* ubpr:        (1/theta_i) * (1 - c_j/theta_j); negative when c_j=1 and
               theta_j<1
* ubpr_clipped: the ubpr term truncated below at a threshold in [-10, 0]
* upl:         (1 - gamma_j) / (theta_i * (1 - theta_j*gamma_j)) when c_j=0,
               0 when j is clicked; non-negative by construction

A pair whose i is not clicked weighs 0 under every estimator.

Pointwise baselines (wmf, relmf) are logistic losses on single cells: wmf
weights a click's loss by the constant ``WMF_WEIGHT``, relmf by inverse
propensity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SettingError, SingularityError

PAIRWISE_METHODS = ("bpr", "ubpr", "ubpr_clipped", "upl")
POINTWISE_METHODS = ("wmf", "relmf")
METHODS = PAIRWISE_METHODS + POINTWISE_METHODS

GAMMA_HAT_MIN = 1e-6
GAMMA_HAT_MAX = 1.0 - 1e-6
# wmf's confidence in a click (Hu, Koren & Volinsky 2008): a clicked cell's
# loss counts this many times an unclicked one's
WMF_WEIGHT = 10.0


def sigmoid(x):
    """Numerically stable logistic function."""
    x = np.asarray(x, dtype=np.float64)
    z = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + z), z / (1.0 + z))


def softplus(x):
    """log(1 + exp(x)), stable for |x| up to at least 700."""
    return np.logaddexp(0.0, np.asarray(x, dtype=np.float64))


def pair_loss(s_i, s_j):
    """The pair loss L(s_i, s_j) = -log sigmoid(s_i - s_j) = softplus(s_j - s_i),
    elementwise and broadcasting: what the trainer steps on and the oracle
    sums."""
    return softplus(np.asarray(s_j, dtype=np.float64) - np.asarray(s_i, dtype=np.float64))


def sigmoid_pair_loss(s_i, s_j):
    """``pair_loss(s_i, s_j)`` and its gradients w.r.t. both scores.

    Returns (loss, dloss_dsi, dloss_dsj) where dloss_dsi = -(1 - sigmoid(d))
    and dloss_dsj = +(1 - sigmoid(d)) for d = s_i - s_j.
    """
    d = np.asarray(s_i, dtype=np.float64) - np.asarray(s_j, dtype=np.float64)
    g = sigmoid(-d)  # = 1 - sigmoid(d)
    return pair_loss(s_i, s_j), -g, +g


def upl_pair_weight(theta_i, theta_j, gamma_hat_j):
    """(1 - gamma_j) / (theta_i * (1 - theta_j * gamma_j)); never negative."""
    theta_i = np.asarray(theta_i, dtype=np.float64)
    theta_j = np.asarray(theta_j, dtype=np.float64)
    gamma_hat_j = np.asarray(gamma_hat_j, dtype=np.float64)
    if np.any(theta_i <= 0):
        raise SingularityError("theta_i must be positive")
    denom = 1.0 - theta_j * gamma_hat_j
    if np.any(denom <= 0):
        raise SingularityError("theta_j * gamma_j >= 1")
    return (1.0 - gamma_hat_j) / (theta_i * denom)


def upl_pair_weight_from_posterior(theta_i, theta_j, posterior_j):
    """Equivalent weight written with the posterior exposure of j:
    posterior_j / (theta_i * theta_j).

    Feeding posterior_exposure(theta_j, gamma_j) reproduces upl_pair_weight;
    feeding theta_j itself gives 1/theta_i, the zero-clipped ubpr weight.
    """
    theta_i = np.asarray(theta_i, dtype=np.float64)
    theta_j = np.asarray(theta_j, dtype=np.float64)
    if np.any(theta_i <= 0) or np.any(theta_j <= 0):
        raise SingularityError("propensities must be positive")
    return np.asarray(posterior_j, dtype=np.float64) / (theta_i * theta_j)


def ubpr_pair_weight(c_i, c_j, theta_i, theta_j):
    """(c_i / theta_i) * (1 - c_j / theta_j); negative when c_j=1, theta_j<1."""
    theta_i = np.asarray(theta_i, dtype=np.float64)
    theta_j = np.asarray(theta_j, dtype=np.float64)
    if np.any(theta_i <= 0) or np.any(theta_j <= 0):
        raise SingularityError("propensities must be positive")
    return (np.asarray(c_i) / theta_i) * (1.0 - np.asarray(c_j) / theta_j)


def clip_term(weighted_loss, threshold):
    """max(weighted_loss, threshold) with threshold <= 0."""
    if np.any(np.asarray(threshold) > 0):
        raise ValueError("clip threshold must be <= 0")
    return np.maximum(np.asarray(weighted_loss, dtype=np.float64), threshold)


def pointwise_loss(method, c, s, theta_click=1.0):
    """Pointwise losses of cells, with gradients w.r.t. their scores.

    With p = sigmoid(s):
      wmf:    WMF_WEIGHT*c*(-log p) + (1-c)*(-log(1-p))
      relmf:  (c/theta_click)*(-log p) + (1 - c/theta_click)*(-log(1-p))
    Returns (loss, dloss_ds).
    """
    c = np.asarray(c, dtype=np.float64)
    s = np.asarray(s, dtype=np.float64)
    nlog_p = softplus(-s)  # -log sigmoid(s)
    nlog_1mp = softplus(s)  # -log(1 - sigmoid(s))
    p = sigmoid(s)

    if method == "wmf":
        w_pos = WMF_WEIGHT * c
        w_neg = 1.0 - c
    elif method == "relmf":
        theta_click = np.asarray(theta_click, dtype=np.float64)
        if np.any(theta_click <= 0):
            raise SingularityError("theta_click must be positive")
        w_pos = c / theta_click
        w_neg = 1.0 - c / theta_click
    else:
        raise ValueError(f"unknown pointwise method {method!r}")

    return w_pos * nlog_p + w_neg * nlog_1mp, w_pos * (p - 1.0) + w_neg * p


@dataclass(frozen=True)
class LossSpec:
    """Selects an estimator: its method and, for ubpr_clipped alone, the clip
    threshold the grid tunes.  Frozen, so that with a TrainConfig it names
    one training run."""

    method: str
    clip_threshold: float | None = None

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.method == "ubpr_clipped":
            if self.clip_threshold is None:
                raise ValueError("ubpr_clipped requires clip_threshold")
            if not -10.0 <= self.clip_threshold <= 0.0:  # NaN fails it too
                raise SettingError("clip_threshold", self.clip_threshold,
                                   "clip_threshold must be in [-10, 0]")
        elif self.clip_threshold is not None:
            raise ValueError("clip_threshold only valid for ubpr_clipped")

    @property
    def is_pairwise(self) -> bool:
        return self.method in PAIRWISE_METHODS


def pair_weights(spec: LossSpec, c_j, theta_i, theta_j, gamma_j, loss):
    """Terms of (clicked i, candidate j) pairs and the factor multiplying
    dL/ds in their gradients: (terms, grad_factor).

    ``loss`` holds L(f(u,i), f(u,j)); clipping acts on the weighted loss, and
    a clipped term has no gradient.
    """
    method = spec.method
    if method == "bpr":
        w = np.where(np.asarray(c_j) == 0, 1.0, 0.0)
    elif method == "upl":
        w = np.where(np.asarray(c_j) == 0, upl_pair_weight(theta_i, theta_j, gamma_j), 0.0)
    elif method in ("ubpr", "ubpr_clipped"):
        w = ubpr_pair_weight(1, c_j, theta_i, theta_j)
    else:
        raise ValueError(f"{method!r} is not a pairwise method")
    terms = w * loss
    if method == "ubpr_clipped":
        return clip_term(terms, spec.clip_threshold), w * (terms > spec.clip_threshold)
    return terms, w
