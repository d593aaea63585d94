"""Mini-batch training of the factor ranker under any of the loss estimators.

One pairwise epoch is a shuffled pass over the clicked cells with one
candidate j per positive, drawn uniformly over the items other than i for
every estimator; ``losses.pair_weights`` weights each pair, so the expected
epoch term sum is the estimator's full-batch risk divided by I - 1.  One
pointwise epoch is a pass over the exposed cells with unexposed cells sampled
1:1.  Updates use Adam restricted to the rows touched by the batch; runs are
deterministic per seed.  The gradient scatter keeps ``np.add.at``'s
summation order, so trained factors are bit-identical to an ``np.add.at``
implementation.  Early stopping watches validation DCG@k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix

from .datasets import ImplicitDataset
from .errors import TrainingDivergedError
from .evaluation import validation_dcg
from .factor_model import FactorModel, TrainConfig, init_model
from .losses import (
    GAMMA_HAT_MAX,
    GAMMA_HAT_MIN,
    LossSpec,
    pair_weights,
    pointwise_loss,
    sigmoid,
    sigmoid_pair_loss,
)
from .propensity import PropensityTable

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """Per-row first/second moment accumulators for both factor matrices."""

    user_m: np.ndarray
    user_v: np.ndarray
    item_m: np.ndarray
    item_v: np.ndarray
    step: int = 0
    beta1: float = ADAM_BETA1
    beta2: float = ADAM_BETA2
    eps: float = ADAM_EPS

    @classmethod
    def for_model(cls, model: FactorModel) -> "AdamState":
        return cls(
            user_m=np.zeros_like(model.user_factors),
            user_v=np.zeros_like(model.user_factors),
            item_m=np.zeros_like(model.item_factors),
            item_v=np.zeros_like(model.item_factors),
        )

    def update(self, model: FactorModel, user_rows, user_grads, item_rows, item_grads,
               learning_rate: float):
        """One Adam step on the touched rows (grads are per unique row)."""
        self.step += 1
        bc1 = 1.0 - self.beta1**self.step
        bc2 = 1.0 - self.beta2**self.step
        for param, m, v, rows, grads in (
            (model.user_factors, self.user_m, self.user_v, user_rows, user_grads),
            (model.item_factors, self.item_m, self.item_v, item_rows, item_grads),
        ):
            if len(rows) == 0:
                continue
            m_rows = self.beta1 * m[rows] + (1.0 - self.beta1) * grads
            v_rows = self.beta2 * v[rows] + (1.0 - self.beta2) * grads**2
            m[rows] = m_rows
            v[rows] = v_rows
            param[rows] -= learning_rate * (m_rows / bc1) / (np.sqrt(v_rows / bc2) + self.eps)


@dataclass
class PairBatch:
    """Struct-of-arrays batch of pairwise samples: user u, clicked item i and
    candidate j, with j's click, both propensities and j's relevance estimate."""

    u: np.ndarray
    i: np.ndarray
    j: np.ndarray
    c_j: np.ndarray
    theta_i: np.ndarray
    theta_j: np.ndarray
    gamma_hat_j: np.ndarray

    def __len__(self):
        return len(self.u)


@dataclass
class PointBatch:
    u: np.ndarray
    i: np.ndarray
    c: np.ndarray
    theta_click: np.ndarray

    def __len__(self):
        return len(self.u)


@dataclass
class TrainRun:
    """Outcome of one training run."""

    config: TrainConfig
    loss_spec: LossSpec
    final_model: FactorModel
    validation_curve: list = field(default_factory=list)
    epochs_trained: int = 0
    best_epoch: int = -1
    epoch_log: list = field(default_factory=list)  # (epoch, train_loss, val_metric|None)


def relevance_predictor(model: FactorModel):
    """Clamped-sigmoid relevance estimates from a trained pointwise model."""

    def gamma_hat(users, items):
        users = np.asarray(users)
        items = np.asarray(items)
        s = np.sum(model.user_factors[users] * model.item_factors[items], axis=-1)
        return np.clip(sigmoid(s), GAMMA_HAT_MIN, GAMMA_HAT_MAX)

    return gamma_hat


# ---------------------------------------------------------------------------
# Sampling


class _PositivePool:
    """The clicked (u, i) pairs a pairwise epoch draws, and the j rule every
    pairwise estimator shares: j uniform over the items other than i, clicked
    or not.  The estimator weights a clicked j (0 under bpr and upl), so the
    expected epoch term sum is the full-batch risk divided by I - 1.
    """

    def __init__(self, dataset: ImplicitDataset):
        self.dataset = dataset
        self.users, self.items = dataset.click_pairs
        if len(self.users) == 0 or dataset.num_items < 2:
            raise ValueError("no positive with an admissible candidate j")

    def __len__(self):
        return len(self.users)

    def sample_negatives(self, i, rng) -> np.ndarray:
        """One candidate j per positive, uniform over the items != i."""
        j = rng.integers(0, self.dataset.num_items - 1, size=len(i))
        j += j >= i
        return j


def _enrich_pair_batch(dataset, u, i, j, propensities, gamma_hat) -> PairBatch:
    if propensities is not None:
        theta_i = propensities.theta_click[i]
        theta_j = propensities.theta_click[j]
    else:
        theta_i = np.ones(len(i))
        theta_j = np.ones(len(j))
    gh = gamma_hat(u, j) if gamma_hat is not None else np.zeros(len(j))
    return PairBatch(
        u=u, i=i, j=j,
        c_j=dataset.is_clicked(u, j).astype(np.int8),
        theta_i=theta_i, theta_j=theta_j,
        gamma_hat_j=np.asarray(gh, dtype=np.float64),
    )


def _sample_unexposed(dataset: ImplicitDataset, count: int, rng):
    if len(dataset) >= dataset.num_users * dataset.num_items:
        # fully exposed matrix: there is nothing unexposed to sample
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    u = rng.integers(0, dataset.num_users, size=count)
    i = rng.integers(0, dataset.num_items, size=count)
    bad = dataset.is_exposed(u, i)
    while bad.any():
        n = int(bad.sum())
        u[bad] = rng.integers(0, dataset.num_users, size=n)
        i[bad] = rng.integers(0, dataset.num_items, size=n)
        bad[bad] = dataset.is_exposed(u[bad], i[bad])
    return u, i


def _make_point_batch(u, i, c, propensities) -> PointBatch:
    tc = propensities.theta_click[i] if propensities is not None else np.ones(len(i))
    return PointBatch(u=u, i=i, c=c, theta_click=tc)


# ---------------------------------------------------------------------------
# Gradient steps


def _scatter_rows(index, rows):
    """Sum ``rows`` that share an ``index``: (sorted unique index, row sums).

    A CSR indicator over a stable argsort adds each group's rows one at a
    time in input order, starting from zero, exactly as ``np.add.at`` does,
    so the sums are bit-identical to it (``np.add.reduceat`` is not).
    """
    order = np.argsort(index, kind="stable")
    keys = index[order]
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    starts = np.flatnonzero(first)
    indicator = csr_matrix((np.ones(len(keys)), order, np.append(starts, len(keys))),
                           shape=(len(starts), len(keys)))
    return keys[starts], indicator @ rows


def _apply_pair_batch(model, adam, batch: PairBatch, spec, config) -> float:
    m = len(batch)
    pu = model.user_factors[batch.u]
    qi = model.item_factors[batch.i]
    qj = model.item_factors[batch.j]
    s_i = np.sum(pu * qi, axis=1)
    s_j = np.sum(pu * qj, axis=1)
    loss, dsi, dsj = sigmoid_pair_loss(s_i, s_j)
    terms, gf = pair_weights(spec, batch.c_j, batch.theta_i, batch.theta_j,
                             batch.gamma_hat_j, loss)
    lam = config.lam

    reg = np.sum(pu**2, axis=1) + np.sum(qi**2, axis=1) + np.sum(qj**2, axis=1)
    batch_loss = float(np.mean(terms) + lam * np.mean(reg))

    gi = gf * dsi
    gj = gf * dsj
    gu_rows = (gi[:, None] * qi + gj[:, None] * qj + 2.0 * lam * pu) / m
    gqi_rows = (gi[:, None] * pu + 2.0 * lam * qi) / m
    gqj_rows = (gj[:, None] * pu + 2.0 * lam * qj) / m

    uu, gu = _scatter_rows(batch.u, gu_rows)
    ii, gq = _scatter_rows(np.concatenate([batch.i, batch.j]),
                           np.concatenate([gqi_rows, gqj_rows]))
    adam.update(model, uu, gu, ii, gq, config.learning_rate)
    return batch_loss


def _apply_point_batch(model, adam, batch: PointBatch, spec, config) -> float:
    m = len(batch)
    pu = model.user_factors[batch.u]
    qi = model.item_factors[batch.i]
    s = np.sum(pu * qi, axis=1)
    kwargs = {}
    if spec.method == "wmf":
        kwargs["weight"] = spec.wmf_weight
    loss, ds = pointwise_loss(spec.method, batch.c, s, theta_click=batch.theta_click,
                              **kwargs)
    lam = config.lam
    reg = np.sum(pu**2, axis=1) + np.sum(qi**2, axis=1)
    batch_loss = float(np.mean(loss) + lam * np.mean(reg))

    gu_rows = (ds[:, None] * qi + 2.0 * lam * pu) / m
    gq_rows = (ds[:, None] * pu + 2.0 * lam * qi) / m
    uu, gu = _scatter_rows(batch.u, gu_rows)
    ii, gq = _scatter_rows(batch.i, gq_rows)
    adam.update(model, uu, gu, ii, gq, config.learning_rate)
    return batch_loss


# ---------------------------------------------------------------------------
# Epoch loops


def _pairwise_epoch(pool, model, adam, spec, config, rng, propensities, gamma_hat):
    dataset = pool.dataset
    perm = rng.permutation(len(pool))
    losses = []
    for start in range(0, len(perm), config.batch_size):
        sel = perm[start:start + config.batch_size]
        u, i = pool.users[sel], pool.items[sel]
        j = pool.sample_negatives(i, rng)
        batch = _enrich_pair_batch(dataset, u, i, j, propensities, gamma_hat)
        losses.append((_apply_pair_batch(model, adam, batch, spec, config), len(batch)))
    return losses


def _pointwise_epoch(dataset, model, adam, spec, config, rng, propensities):
    half = max(1, config.batch_size // 2)
    perm = rng.permutation(len(dataset))
    losses = []
    for start in range(0, len(perm), half):
        sel = perm[start:start + half]
        eu, ei = dataset.users[sel], dataset.items[sel]
        ec = dataset.rel[sel].astype(np.float64)
        nu, ni = _sample_unexposed(dataset, len(sel), rng)
        u = np.concatenate([eu, nu])
        i = np.concatenate([ei, ni])
        c = np.concatenate([ec, np.zeros(len(nu))])
        batch = _make_point_batch(u, i, c, propensities)
        losses.append((_apply_point_batch(model, adam, batch, spec, config), len(batch)))
    return losses


def train(dataset: ImplicitDataset, config: TrainConfig, loss_spec: LossSpec,
          propensities: PropensityTable | None = None, gamma_hat=None,
          validation: ImplicitDataset | None = None, val_k: int = 5) -> TrainRun:
    """Run one training job; deterministic given config.seed.

    With a validation split, stops once validation DCG@val_k has not improved
    for ``config.patience`` epochs and returns the best-validation snapshot;
    otherwise runs ``config.max_epochs`` epochs and returns the final model.
    """
    if (gamma_hat is not None) != (loss_spec.method == "upl"):
        raise ValueError("gamma_hat must be supplied exactly for the upl method")
    rng = np.random.default_rng(config.seed)
    model = init_model(dataset.num_users, dataset.num_items, config.d, seed=config.seed)
    adam = AdamState.for_model(model)
    if loss_spec.is_pairwise:
        pool = _PositivePool(dataset)

    best_val = -math.inf
    best_model = None
    best_epoch = -1
    stale = 0
    curve = []
    epoch_log = []

    for epoch in range(config.max_epochs):
        if loss_spec.is_pairwise:
            losses = _pairwise_epoch(pool, model, adam, loss_spec, config, rng,
                                     propensities, gamma_hat)
        else:
            losses = _pointwise_epoch(dataset, model, adam, loss_spec, config, rng,
                                      propensities)
        total = sum(n for _, n in losses)
        train_loss = sum(l * n for l, n in losses) / max(total, 1)
        if not math.isfinite(train_loss):
            bad = next(k for k, (l, _) in enumerate(losses) if not math.isfinite(l))
            raise TrainingDivergedError(epoch, bad)

        val_metric = None
        if validation is not None:
            val_metric = validation_dcg(model, validation, k=val_k)
            curve.append(val_metric)
            if val_metric > best_val:
                best_val = val_metric
                best_model = model.copy()
                best_epoch = epoch
                stale = 0
            else:
                stale += 1
        epoch_log.append((epoch, train_loss, val_metric))
        if validation is not None and stale >= config.patience:
            break

    final = best_model if best_model is not None else model
    return TrainRun(
        config=config,
        loss_spec=loss_spec,
        final_model=final,
        validation_curve=curve,
        epochs_trained=len(epoch_log),
        best_epoch=best_epoch,
        epoch_log=epoch_log,
    )


def run_upl_pipeline(dataset: ImplicitDataset, config: TrainConfig,
                     propensities: PropensityTable,
                     validation: ImplicitDataset | None = None,
                     val_k: int = 5) -> TrainRun:
    """Two-stage pipeline: train relmf, then train upl with its clamped
    sigmoid predictions as the relevance estimates for sampled negatives.
    Both stages use ``config``."""
    relmf_run = train(dataset, config, LossSpec("relmf"), propensities,
                      validation=validation, val_k=val_k)
    gamma_hat = relevance_predictor(relmf_run.final_model)
    return train(dataset, config, LossSpec("upl"), propensities,
                 gamma_hat=gamma_hat, validation=validation, val_k=val_k)
