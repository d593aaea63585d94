"""Mini-batch training of the factor ranker under any of the loss estimators.

Each sampling rule is one generator of an epoch's batches; neither reads
exposure, which implicit feedback hides.  ``_pair_batches`` makes a shuffled
pass over the clicks with one candidate j per click, uniform over the items
other than i (``_sample_j``), weighted by ``losses.pair_weights``: the
expected epoch term sum is the estimator's full-batch risk over I - 1; j's
click is a search of the split's N1 click codes (``is_clicked``).
``_point_batches`` tops each half batch of shuffled clicks up with as many
non-clicks, drawn uniformly at rate N1/N0 (half clicks, one draw per click)
and weighted N0/N1: the expected epoch term sum is the full-batch pointwise
risk over every cell.  It draws ranks among the non-clicks and maps them to
cells through ``ImplicitDataset.non_click_at``, from the clicks' gaps.  Both
read O(N1) click views; nothing grows with U * I.  ``train`` loops over the
generator once per epoch.

Every estimator trains through the one step ``_step``: a batch is the users
u and one item array per score (i for a pointwise batch, i and j for a
pairwise one), and the generator hands it an objective that maps the scores to
the terms and each term's derivative by each score.  The step adds the L2
penalty, scatters the row gradients and makes one Adam update restricted to
the rows the batch touched; runs are deterministic per seed.  The gradient
scatter keeps ``np.add.at``'s summation order, so trained factors are
bit-identical to an ``np.add.at`` implementation.  Early stopping watches
validation DCG@5.
``uplrec train`` and the experiment both train a (LossSpec, TrainConfig) key
through ``train_key``, which for upl first trains the relmf stage that
``stage_spec`` names, unless it is given that model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

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
        bc1 = 1.0 - ADAM_BETA1**self.step
        bc2 = 1.0 - ADAM_BETA2**self.step
        for param, m, v, rows, grads in (
            (model.user_factors, self.user_m, self.user_v, user_rows, user_grads),
            (model.item_factors, self.item_m, self.item_v, item_rows, item_grads),
        ):
            if len(rows) == 0:
                continue
            # in place on the gathered rows, with the float operations of
            # m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g**2 and
            # param -= lr * (m/bc1) / (sqrt(v/bc2) + eps), in that order
            scratch = np.multiply(grads, 1.0 - ADAM_BETA1)
            m_rows = m[rows]
            m_rows *= ADAM_BETA1
            m_rows += scratch
            m[rows] = m_rows
            np.square(grads, out=scratch)
            scratch *= 1.0 - ADAM_BETA2
            v_rows = v[rows]
            v_rows *= ADAM_BETA2
            v_rows += scratch
            v[rows] = v_rows
            m_rows /= bc1
            m_rows *= learning_rate
            v_rows /= bc2
            np.sqrt(v_rows, out=v_rows)
            v_rows += ADAM_EPS
            m_rows /= v_rows
            param[rows] -= m_rows


@dataclass
class TrainRun:
    """Outcome of one training run."""

    config: TrainConfig
    loss_spec: LossSpec
    final_model: FactorModel
    epoch_log: list  # (epoch, train_loss, validation DCG@5)

    @property
    def epochs_trained(self) -> int:
        return len(self.epoch_log)


def relevance_predictor(model: FactorModel):
    """Clamped-sigmoid relevance estimates from a trained pointwise model."""

    def gamma_hat(users, items):
        users = np.asarray(users)
        items = np.asarray(items)
        s = np.sum(model.user_factors[users] * model.item_factors[items], axis=-1)
        return np.clip(sigmoid(s), GAMMA_HAT_MIN, GAMMA_HAT_MAX)

    return gamma_hat


# ---------------------------------------------------------------------------
# Epoch batches: one generator per sampling rule


def _sample_j(i, num_items: int, rng) -> np.ndarray:
    """One candidate j per positive i, uniform over the items other than i."""
    j = rng.integers(0, num_items - 1, size=len(i))
    j += j >= i
    return j


def _pair_batches(dataset: ImplicitDataset, spec, batch_size: int, theta, gamma_hat, rng):
    """One pairwise epoch's batches (u, (i, j), objective): the clicked (u, i)
    pairs shuffled, each with one candidate j from ``_sample_j``, clicked or
    not.  The estimator weights a clicked j (0 under bpr and upl), so the
    expected epoch term sum is the full-batch risk divided by I - 1.  The
    objective binds j's click, the propensities of i and j and j's relevance
    estimate (0 without one)."""
    users, items = dataset.click_pairs
    if len(users) == 0 or dataset.num_items < 2:
        raise ValueError("no positive with an admissible candidate j")
    perm = rng.permutation(len(users))
    for start in range(0, len(perm), batch_size):
        sel = perm[start:start + batch_size]
        u, i = users[sel], items[sel]
        j = _sample_j(i, dataset.num_items, rng)
        gamma_j = gamma_hat(u, j) if gamma_hat is not None else np.zeros(len(j))
        yield u, (i, j), partial(_pair_objective, spec,
                                 dataset.is_clicked(u, j).astype(np.int8), theta[i],
                                 theta[j], np.asarray(gamma_j, dtype=np.float64))


def _point_batches(dataset: ImplicitDataset, spec, batch_size: int, theta, rng):
    """One pointwise epoch's batches (u, (i,), objective): the N1 clicks
    shuffled, each half batch topped up with as many cells drawn uniformly,
    with replacement, from the N0 non-clicks, exposed or not (rate N1/N0: half
    clicks, one draw per click as in ``_pair_batches``).  A draw is a rank k
    in [0, N0), which ``non_click_at`` maps to the k-th non-click cell.  The
    objective weights a draw N0/N1, so the expected epoch term sum is the
    full-batch pointwise risk over every cell.  With no non-click, the clicks
    train alone."""
    users, items = dataset.click_pairs
    if len(users) == 0:
        raise ValueError("no click to train on")
    num_non_clicks = dataset.num_users * dataset.num_items - len(users)
    rate = num_non_clicks / len(users)  # N0/N1
    half = max(1, batch_size // 2)
    perm = rng.permutation(len(users))
    for start in range(0, len(perm), half):
        sel = perm[start:start + half]
        drawn = dataset.non_click_at(rng.integers(0, num_non_clicks,
                                                  size=len(sel) if rate else 0))
        nu, ni = np.divmod(drawn, dataset.num_items)
        i = np.concatenate([items[sel], ni])
        c = np.concatenate([np.ones(len(sel)), np.zeros(len(drawn))])
        yield (np.concatenate([users[sel], nu]), (i,),
               partial(_point_objective, spec, c, theta[i], np.where(c == 1, 1.0, rate)))


# ---------------------------------------------------------------------------
# Gradient steps


def _scatter_rows(index, rows):
    """Sum ``rows`` that share an ``index``: (sorted unique index, row sums).

    Each group's rows are added one at a time in input order, starting from
    zero, exactly as ``np.add.at`` does, so the sums are bit-identical to it
    (``np.add.reduceat`` is not).  The rows are laid out pass-major over a
    stable argsort, with the groups ordered by size: pass p holds the p-th
    member of every group with more than p members, which are the first
    groups, so each pass is one contiguous slice add and there are as many
    passes as the largest group has members.
    """
    order = np.argsort(index, kind="stable")
    keys = index[order]
    edge = np.empty(len(keys) + 1, dtype=bool)
    edge[0] = edge[-1] = True
    np.not_equal(keys[1:], keys[:-1], out=edge[1:-1])
    bounds = np.flatnonzero(edge)  # the group starts, then len(keys)
    starts = bounds[:-1]
    sizes = bounds[1:] - starts
    by_size = np.argsort(-sizes, kind="stable")
    passes = np.arange(sizes.max(initial=0))[:, None]
    member = passes < sizes[by_size]  # (pass, group by size): has a p-th member
    laid = rows[order[(starts[by_size] + passes)[member]]]
    sums = laid[:len(starts)]
    sums += 0.0  # pass 0 adds each first member to zero, as np.add.at does (-0.0 -> 0.0)
    lo = len(starts)
    for width in np.count_nonzero(member[1:], axis=1).tolist():
        sums[:width] += laid[lo:lo + width]
        lo += width
    out = np.empty_like(sums)
    out[by_size] = sums
    return keys[starts], out


def _pair_objective(spec, c_j, theta_i, theta_j, gamma_j, s_i, s_j):
    """The estimator's pair terms and their derivatives by s_i and s_j."""
    loss, dsi, dsj = sigmoid_pair_loss(s_i, s_j)
    terms, gf = pair_weights(spec, c_j, theta_i, theta_j, gamma_j, loss)
    return terms, (gf * dsi, gf * dsj)


def _point_objective(spec, c, theta_click, weight, s):
    """The estimator's pointwise terms and their derivatives by s, times each row's weight."""
    loss, ds = pointwise_loss(spec.method, c, s, theta_click=theta_click)
    return weight * loss, (weight * ds,)


def _step(model, adam, u, items, objective, config) -> float:
    """One Adam step on a batch; returns the batch's mean term plus penalty.

    Row r scores user ``u[r]`` against ``items[k][r]`` for each k, and
    ``objective(*scores)`` returns the terms and, per score, each term's
    derivative by it.  Sums run in item order (the user term first in the
    penalty, the L2 part last in the user gradient), and the item rows are
    scattered all i rows first, which fixes every float operation's order.
    """
    m = len(u)
    lam = config.lam
    pu = model.user_factors[u]
    qs = [model.item_factors[k] for k in items]
    terms, grads = objective(*(np.sum(pu * q, axis=1) for q in qs))

    reg = np.sum(pu**2, axis=1)
    for q in qs:
        reg = reg + np.sum(q**2, axis=1)
    batch_loss = float(np.mean(terms) + lam * np.mean(reg))

    gu_rows = grads[0][:, None] * qs[0]
    for g, q in zip(grads[1:], qs[1:]):
        gu_rows = gu_rows + g[:, None] * q
    gu_rows = (gu_rows + 2.0 * lam * pu) / m
    gq_rows = [(g[:, None] * pu + 2.0 * lam * q) / m for g, q in zip(grads, qs)]

    uu, gu = _scatter_rows(u, gu_rows)
    ii, gq = _scatter_rows(np.concatenate(items), np.concatenate(gq_rows))
    adam.update(model, uu, gu, ii, gq, config.learning_rate)
    return batch_loss


def train(dataset: ImplicitDataset, config: TrainConfig, loss_spec: LossSpec,
          propensities: PropensityTable, validation: ImplicitDataset,
          gamma_hat=None) -> TrainRun:
    """Run one training job; deterministic given config.seed.

    Stops once validation DCG@5 has not improved for ``config.patience``
    epochs, or after ``config.max_epochs``, and returns the best-validation
    snapshot.
    """
    if (gamma_hat is not None) != (stage_spec(loss_spec) is not None):
        raise ValueError("gamma_hat must be supplied exactly for the upl method")
    rng = np.random.default_rng(config.seed)
    model = init_model(dataset.num_users, dataset.num_items, config.d, seed=config.seed)
    adam = AdamState.for_model(model)
    theta = propensities.theta_click
    if loss_spec.is_pairwise:
        batches = partial(_pair_batches, dataset, loss_spec, config.batch_size, theta, gamma_hat)
    else:
        batches = partial(_point_batches, dataset, loss_spec, config.batch_size, theta)

    best_val = -math.inf  # so epoch 0 always takes the first snapshot
    stale = 0
    epoch_log = []

    # a diverging run overflows; the non-finite check below is its one report
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for epoch in range(config.max_epochs):
            losses = [(_step(model, adam, u, items, objective, config), len(u))
                      for u, items, objective in batches(rng)]
            total = sum(n for _, n in losses)
            train_loss = sum(l * n for l, n in losses) / max(total, 1)
            if not math.isfinite(train_loss):
                bad = next(k for k, (l, _) in enumerate(losses) if not math.isfinite(l))
                raise TrainingDivergedError(epoch, bad)

            val_metric = validation_dcg(model, validation)
            epoch_log.append((epoch, train_loss, val_metric))
            if val_metric > best_val:
                best_val = val_metric
                best_model = model.copy()
                stale = 0
            else:
                stale += 1
                if stale >= config.patience:
                    break

    return TrainRun(config=config, loss_spec=loss_spec, final_model=best_model,
                    epoch_log=epoch_log)


def stage_spec(loss_spec: LossSpec) -> LossSpec | None:
    """The LossSpec of the run, under the same TrainConfig, whose model gives
    an estimator its relevance estimates: relmf for upl, else None."""
    return LossSpec("relmf") if loss_spec.method == "upl" else None


def train_key(dataset: ImplicitDataset, config: TrainConfig, loss_spec: LossSpec,
              propensities: PropensityTable, validation: ImplicitDataset,
              stage_model: FactorModel | None = None) -> list[TrainRun]:
    """Train the key (loss_spec, config); returns the TrainRuns trained, the
    key's own last.  An estimator with a ``stage_spec`` reads
    ``stage_model``, or trains that stage first, which then heads the list.
    """
    stage, runs, gamma_hat = stage_spec(loss_spec), [], None
    if stage is not None:
        if stage_model is None:
            runs.append(train(dataset, config, stage, propensities, validation))
            stage_model = runs[0].final_model
        gamma_hat = relevance_predictor(stage_model)
    runs.append(train(dataset, config, loss_spec, propensities, validation, gamma_hat))
    return runs
