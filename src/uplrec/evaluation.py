"""Ranking metrics on the MCAR test split, cohort slicing and run-level
significance testing.

Metrics per user at cutoff K (binary relevance, ranks start at 1):
    DCG@K    = sum_{r<=K} rel_r / log2(r+1)
    Recall@K = (# relevant in top K) / (# relevant)
    AP@K     = (1 / # relevant) * sum_{r<=K} rel_r * precision@r
Users without a relevant test item are excluded from averages.  Ties are
broken by ascending item index for determinism.

By default each test user is ranked over the full item catalog with the
user's relevant test items as ground truth; ``candidates="test_only"``
restricts ranking to the user's own test items instead.

One kernel, ``_user_metrics``, computes every metric.  It groups users by
candidate count and takes each group a chunk at a time (at most
``_CHUNK_CELLS`` score cells or gathered factor cells), so memory stays flat
in the number of users.  Each chunk is scored by one stacked matmul, which
numpy runs as one vector-matrix product per user, the product a per-user
``user_factors[u] @ item_factors[items].T`` computes; a single matrix-matrix
product would differ from it in the last bits and could reorder two
near-tied candidates.  Rows are ordered by a stable argsort of the negated
scores, reproducing the tie order above, and DCG, Recall and AP for every K
and cohort are read off the ranked relevance.  Each row sums exactly
min(K, n) terms and users are summed one at a time in user order, so every
value equals that of a per-user loop bit for bit.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import stdtr

from .datasets import ImplicitDataset
from .factor_model import FactorModel

DEFAULT_KS = (3, 5, 8)
COHORTS = ("all", "cold_start_users", "rare_items")
CANDIDATE_MODES = ("catalog", "test_only")
_CHUNK_CELLS = 1 << 15  # float64 cells per chunk: scores, or gathered item factors


@dataclass
class CohortSpec:
    """Click-count thresholds defining the hard cohorts."""

    rare_item_click_threshold: int = 100
    cold_start_user_click_threshold: int = 6

    def __post_init__(self):
        if self.rare_item_click_threshold <= 0 or self.cold_start_user_click_threshold <= 0:
            raise ValueError("cohort thresholds must be positive")


@dataclass
class CohortMasks:
    """Membership masks computed from training-split click counts."""

    rare_items: np.ndarray  # bool per item
    cold_users: np.ndarray  # bool per user


def compute_cohorts(train: ImplicitDataset, spec: CohortSpec | None = None) -> CohortMasks:
    spec = spec or CohortSpec()
    return CohortMasks(
        rare_items=train.item_click_counts < spec.rare_item_click_threshold,
        cold_users=train.user_click_counts < spec.cold_start_user_click_threshold,
    )


@dataclass
class MetricReport:
    method: str
    run: int
    cohort: str
    k: int
    dcg: float
    recall: float
    map: float
    num_users: int = 0


def _check_ks(ks):
    for k in ks:
        if k < 1:
            raise ValueError(f"cutoff k must be >= 1, got {k}")


def _scores(model: FactorModel, users, cand_items):
    """Scores of each user's candidates: all items when ``cand_items`` is
    None, else row r of ``cand_items`` for ``users[r]``.  The stacked matmul
    runs one vector-matrix product per user, the same one as
    ``user_factors[u] @ item_factors[items].T``."""
    rows = model.user_factors[users, None, :]
    if cand_items is None:
        return np.matmul(rows, model.item_factors.T)[:, 0, :]
    return np.matmul(rows, model.item_factors[cand_items].transpose(0, 2, 1))[:, 0, :]


def _top_metrics(top, total, n: int, k: int):
    """(DCG@k, Recall@k, AP@k) arrays for rows of ``n`` candidates each;
    ``top`` holds each row's ranked relevance from rank 1 on, ``total`` its
    relevant count.  Every row sums exactly min(k, n) terms."""
    top = top[:, :min(k, n)]
    ranks = np.arange(1, top.shape[1] + 1)
    dcg = (top / np.log2(ranks + 1)).sum(axis=1)
    recall = top.sum(axis=1) / total
    ap = (top * np.cumsum(top, axis=1) / ranks).sum(axis=1) / total
    return dcg, recall, ap


def _mean(values) -> float:
    """Mean with users added one at a time in user order."""
    return float(np.cumsum(values)[-1]) / len(values)


def _user_metrics(model: FactorModel, data: ImplicitDataset, ks, candidates: str,
                  cohorts: CohortMasks | None = None):
    """Per-user (DCG, Recall, AP) at every k in ``ks`` for each cohort.

    Returns {cohort: {k: (dcg, recall, ap)}}, arrays over the users the
    cohort includes, in ascending user order.  Users are grouped by
    candidate count and ranked a chunk at a time.
    """
    _check_ks(ks)
    catalog = candidates == "catalog"
    indptr = data.user_indptr
    counts = np.diff(indptr)
    rel = data.rel.astype(np.float64)
    # cohort -> (relevance per stored cell, users allowed in)
    spec = {"all": (rel, True)}
    if cohorts is not None:
        spec["cold_start_users"] = (rel, cohorts.cold_users[:data.num_users])
        spec["rare_items"] = (rel * cohorts.rare_items[data.items], True)
    totals = {c: np.bincount(data.users, weights=r, minlength=data.num_users)
              for c, (r, _) in spec.items()}
    included = {c: (totals[c] > 0) & allowed for c, (_, allowed) in spec.items()}
    values = {c: {k: np.zeros((3, data.num_users)) for k in ks} for c in spec}

    active = np.flatnonzero(counts)
    widths = np.full(len(active), model.num_items) if catalog else counts[active]
    for n in np.unique(widths):
        group = active[widths == n]
        step = max(1, _CHUNK_CELLS // (n if catalog else n * model.d))
        for lo in range(0, len(group), step):
            users = group[lo:lo + step]
            if catalog:
                # users between chunk users have no cells, so this range
                # holds exactly the chunk's cells
                cells = np.arange(indptr[users[0]], indptr[users[-1] + 1])
                rows = np.repeat(np.arange(len(users)), counts[users])
                scores = _scores(model, users, None)
            else:
                cells = indptr[users, None] + np.arange(n)
                scores = _scores(model, users, data.items[cells])
            # stable: ties keep candidate order, i.e. ascending item index
            order = np.argsort(-scores, axis=1, kind="stable")[:, :max(ks, default=0)]
            for c, (r, _) in spec.items():
                if catalog:
                    relevance = np.zeros((len(users), n))
                    relevance[rows, data.items[cells]] = r[cells]
                else:
                    relevance = r[cells]
                keep = included[c][users]
                top = np.take_along_axis(relevance[keep], order[keep], axis=1)
                for k in ks:
                    values[c][k][:, users[keep]] = _top_metrics(
                        top, totals[c][users[keep]], n, k)
    return {c: {k: tuple(values[c][k][:, included[c]]) for k in ks} for c in spec}


def rank_metrics(scores, relevance, k: int):
    """(DCG@k, Recall@k, AP@k) for one user's candidate list.

    Relevance is binary (0/1).  Requires at least one relevant item; callers
    exclude zero-relevant users before averaging.
    """
    scores = np.asarray(scores, dtype=np.float64)
    relevance = np.asarray(relevance)
    if scores.ndim != 1 or scores.shape != relevance.shape:
        raise ValueError("scores/relevance must be 1-D with equal shapes")
    if not np.all((relevance == 0) | (relevance == 1)):
        raise ValueError("relevance must hold only 0 and 1")
    if len(scores) == 0:
        raise ValueError("empty item list")
    _check_ks((k,))
    total_rel = int(relevance.sum())
    if total_rel == 0:
        raise ValueError("no relevant item in the candidate list")
    order = np.argsort(-scores, kind="stable")[None, :k]
    top = relevance.astype(np.float64)[order]
    return tuple(float(m[0]) for m in _top_metrics(top, total_rel, len(scores), k))


def evaluate(model: FactorModel, test: ImplicitDataset, ks=DEFAULT_KS,
             cohorts: CohortMasks | None = None, candidates: str = CANDIDATE_MODES[0],
             method: str = "", run: int = 0) -> list[MetricReport]:
    """Per-cohort, per-K ranking metrics averaged over included users.

    Cohort semantics: ``all`` uses every test user with a relevant item;
    ``cold_start_users`` keeps only cold-start users; ``rare_items`` counts
    only rare items as relevant (candidate sets are unchanged).  The latter
    two require ``cohorts`` masks.
    """
    if candidates not in CANDIDATE_MODES:
        raise ValueError(f"unknown candidate mode {candidates!r}")
    if model.num_users < test.num_users or model.num_items < test.num_items:
        raise ValueError("model dimensions do not cover the dataset")
    reports = []
    for cohort, by_k in _user_metrics(model, test, ks, candidates, cohorts).items():
        for k in ks:
            dcg, recall, ap = by_k[k]
            if len(dcg):
                reports.append(MetricReport(
                    method=method, run=run, cohort=cohort, k=k, dcg=_mean(dcg),
                    recall=_mean(recall), map=_mean(ap), num_users=len(dcg),
                ))
    return reports


def validation_dcg(model: FactorModel, validation: ImplicitDataset, k: int = 5) -> float:
    """Mean DCG@k over validation users, ranking each user's validation
    items with their clicks as relevance.  Used for early stopping and
    hyperparameter selection."""
    dcg = _user_metrics(model, validation, (k,), "test_only")["all"][k][0]
    return _mean(dcg) if len(dcg) else 0.0


def one_tailed_t_test(sample_a, sample_b) -> float:
    """Welch two-sample one-tailed p-value for mean(a) > mean(b); the tail
    is ``scipy.special.stdtr``, bit-identical to ``scipy.stats.t.sf``.

    Degenerate case (both samples constant and equal) returns 0.5 with a
    warning.
    """
    a = np.asarray(sample_a, dtype=np.float64)
    b = np.asarray(sample_b, dtype=np.float64)
    if len(a) < 2 or len(b) < 2:
        raise ValueError("both samples need at least 2 values")
    va, vb = a.var(ddof=1), b.var(ddof=1)
    ma, mb = a.mean(), b.mean()
    se2 = va / len(a) + vb / len(b)
    if se2 == 0.0:
        if ma == mb:
            warnings.warn("degenerate zero-variance identical samples; p = 0.5")
            return 0.5
        return 0.0 if ma > mb else 1.0
    t = (ma - mb) / np.sqrt(se2)
    df = se2**2 / (
        (va / len(a)) ** 2 / (len(a) - 1) + (vb / len(b)) ** 2 / (len(b) - 1)
    )
    return float(stdtr(df, -t))
