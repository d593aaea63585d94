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

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .datasets import ImplicitDataset
from .factor_model import FactorModel

DEFAULT_KS = (3, 5, 8)
CANDIDATE_MODES = ("catalog", "test_only")
_CHUNK_CELLS = 1 << 15  # float64 cells per chunk: scores, or gathered item factors
# the hard cohorts: fewer training clicks than these
RARE_ITEM_CLICK_THRESHOLD = 100
COLD_START_USER_CLICK_THRESHOLD = 6


@dataclass
class CohortMasks:
    """Membership masks computed from training-split click counts."""

    rare_items: np.ndarray  # bool per item
    cold_users: np.ndarray  # bool per user


def compute_cohorts(train: ImplicitDataset) -> CohortMasks:
    return CohortMasks(
        rare_items=train.item_click_counts < RARE_ITEM_CLICK_THRESHOLD,
        cold_users=train.user_click_counts < COLD_START_USER_CLICK_THRESHOLD,
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
    for k in ks:
        if k < 1:
            raise ValueError(f"cutoff k must be >= 1, got {k}")
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
    for n in np.flatnonzero(np.bincount(widths)):  # np.unique would load numpy.ma
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
    """Welch two-sample one-tailed p-value for mean(a) > mean(b), its tail
    from ``t_sf`` at the accuracy stated there.

    Degenerate case (both samples constant and equal) returns 0.5 with a
    warning.  When the per-sample variances are so small (below about
    1e-154) or so large that Welch's df under- or overflows, df is formed
    from the two variances divided by the larger one, which leaves it
    unchanged in exact arithmetic.
    """
    a = np.asarray(sample_a, dtype=np.float64)
    b = np.asarray(sample_b, dtype=np.float64)
    if len(a) < 2 or len(b) < 2:
        raise ValueError("both samples need at least 2 values")
    va, vb = a.var(ddof=1) / len(a), b.var(ddof=1) / len(b)
    ma, mb = a.mean(), b.mean()
    se2 = va + vb
    if se2 == 0.0:
        if ma == mb:
            warnings.warn("degenerate zero-variance identical samples; p = 0.5")
            return 0.5
        return 0.0 if ma > mb else 1.0
    t = (ma - mb) / np.sqrt(se2)
    with np.errstate(all="ignore"):
        df = _welch_df(va, vb, len(a), len(b))
    if not np.isfinite(df):
        scale = max(va, vb)
        df = _welch_df(va / scale, vb / scale, len(a), len(b))
    return t_sf(t, df)


def _welch_df(va, vb, na, nb):
    """Welch-Satterthwaite df of two samples' variances of the mean."""
    return (va + vb) ** 2 / (va**2 / (na - 1) + vb**2 / (nb - 1))


def t_sf(t, df) -> float:
    """P(T > t) for Student's t with ``df`` > 0 degrees of freedom, the one
    t tail: ``one_tailed_t_test`` and ``oracle.variance_order`` read it.

    For t > 0 it is I_x(df/2, 1/2) / 2 with x = df / (df + t^2), the
    regularized incomplete beta taken from its continued fraction (modified
    Lentz), and 1 minus that for t < 0.  The prefactor x^a (1-x)^b / B(a, b)
    is formed in log space.  The relative error is below 1e-11 for
    df <= 1e4 and 1e-9 for df <= 1e6 wherever the tail is above 1e-300, and
    grows about in proportion to df; ``tests/test_evaluation.py`` measures
    it against a reference Student-t tail.  As in that reference, nan gives
    nan, +-inf give 0 and 1, and where t^2 under- or overflows the value is
    0.5, or 0 and 1.
    """
    t, df = float(t), float(df)
    if not 0.0 < df < math.inf:
        raise ValueError(f"df must be positive and finite, got {df}")
    q = t * t / df
    if math.isnan(q) or q == 0.0:
        return math.nan if math.isnan(t) else 0.5
    a = 0.5 * df
    # log(1 + q), also where q overflows but t^2 does not (df < 1); then the
    # log of x^a (1-x)^(1/2) / B(a, 1/2), with x = 1 / (1 + q)
    log1p_q = math.log1p(q) if q < math.inf else math.log(t * t) - math.log(df)
    log_front = (-a * log1p_q - 0.5 * math.log1p(1.0 / q)
                 + _log_gamma_half_ratio(a) - 0.5 * math.log(math.pi))
    x = 1.0 / (1.0 + q)
    if x < (a + 1.0) / (a + 2.5):
        tail = math.exp(log_front) * _beta_fraction(a, 0.5, x) / df
    else:
        tail = 0.5 - math.exp(log_front) * _beta_fraction(0.5, a, 1.0 / (1.0 + 1.0 / q))
    return tail if t > 0 else 1.0 - tail


def _log_gamma_half_ratio(a):
    """log(Gamma(a + 1/2) / Gamma(a)); for a >= 10 its asymptotic series,
    since the difference of two ``lgamma`` values of about a*log(a) loses
    digits as a grows."""
    if a < 10.0:
        return math.lgamma(a + 0.5) - math.lgamma(a)
    w = 1.0 / (a * a)
    return 0.5 * math.log(a) + (-1 / 8 + w * (1 / 192 + w * (-1 / 640 + w * (
        17 / 14336 - w * 31 / 18432)))) / a


def _beta_fraction(a, b, x):
    """The continued fraction of I_x(a, b) = x^a (1-x)^b / (a B(a, b)) * cf,
    by modified Lentz (Numerical Recipes' betacf); it converges quickly for
    x < (a + 1) / (a + b + 2)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 / (1.0 - (a + b) * x / (a + 1.0) or tiny)
    h = d
    for m in range(1, 1000):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 / (1.0 + num * d or tiny)
            c = 1.0 + num / c or tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            return h
    raise ArithmeticError(f"incomplete beta fraction did not converge at a={a}, b={b}, x={x}")
