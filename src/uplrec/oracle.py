"""Ground-truth verification of the pairwise estimators on small worlds.

A world fixes per-cell exposure and relevance probabilities (theta, gamma)
with clicks generated as c = o * r, o ~ Bern(theta), r ~ Bern(gamma), all
cells independent.  For worlds of up to 10 cells the module enumerates the
full joint of the four (o, r) outcomes per cell and computes each
estimator's exact expectation.  An estimator sees only the clicks, so it is
evaluated once per distinct click vector (2^cells of them) and the 4^cells
outcomes are reduced against those values.  Monte Carlo sampling covers
anything larger and supplies variance estimates.  Estimator terms come from
``losses.pair_weights``, the function that weights the trainer's sampled
pairs, applied to every ordered same-user pair at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import stdtr

from .errors import EnumerationBoundError
from .factor_model import FactorModel, init_model
from .losses import LossSpec, pair_weights, sigmoid_pair_loss

MAX_EXACT_CELLS = 10
MIN_MC_SAMPLES = 10**4
_CHUNK = 1 << 16

ESTIMATORS = ("upl", "ubpr", "ubpr_clipped", "bpr")


@dataclass
class SyntheticWorld:
    """Full num_users x num_items grid of exposure/relevance probabilities."""

    theta: np.ndarray  # num_users x num_items, in (0, 1)
    gamma: np.ndarray

    def __post_init__(self):
        self.theta = np.asarray(self.theta, dtype=np.float64)
        self.gamma = np.asarray(self.gamma, dtype=np.float64)
        if self.theta.ndim != 2 or self.theta.shape != self.gamma.shape:
            raise ValueError("theta/gamma must be 2-D with equal shapes")
        if np.any(self.theta <= 0) or np.any(self.theta >= 1):
            raise ValueError("theta must lie strictly inside (0, 1)")
        if np.any(self.gamma <= 0) or np.any(self.gamma >= 1):
            raise ValueError("gamma must lie strictly inside (0, 1)")
        if np.any(self.theta * self.gamma >= 1):
            raise ValueError("theta * gamma must be < 1")

    @property
    def num_users(self) -> int:
        return self.theta.shape[0]

    @property
    def num_items(self) -> int:
        return self.theta.shape[1]

    @property
    def num_cells(self) -> int:
        return self.theta.size


def parse_world_spec(path) -> SyntheticWorld:
    """Read the declarative world format:

        users <U>
        items <I>
        theta
        <U rows of I floats>
        gamma
        <U rows of I floats>

    '#' starts a comment; blank lines are ignored.
    """
    lines = []
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    it = iter(lines)

    def expect(keyword, line):
        parts = line.split()
        if parts[0] != keyword:
            raise ValueError(f"expected {keyword!r}, got {line!r}")
        return parts

    users = int(expect("users", next(it))[1])
    items = int(expect("items", next(it))[1])

    def read_table(keyword):
        expect(keyword, next(it))
        rows = [[float(tok) for tok in next(it).split()] for _ in range(users)]
        table = np.asarray(rows)
        if table.shape != (users, items):
            raise ValueError(f"{keyword} table has shape {table.shape}, "
                             f"expected {(users, items)}")
        return table

    theta = read_table("theta")
    gamma = read_table("gamma")
    return SyntheticWorld(theta=theta, gamma=gamma)


def write_world_spec(world: SyntheticWorld, path):
    with open(path, "w") as fh:
        fh.write(f"users {world.num_users}\nitems {world.num_items}\n")
        for name, table in (("theta", world.theta), ("gamma", world.gamma)):
            fh.write(f"{name}\n")
            for row in table:
                fh.write(" ".join(f"{v:.17g}" for v in row) + "\n")


@dataclass
class EstimatorReport:
    """Exact and Monte-Carlo summary of one estimator on one world."""

    estimator: str
    ideal_risk: float
    exact_expectation: float | None = None
    bias: float | None = None
    mc_mean: float | None = None
    mc_variance: float | None = None
    mc_se: float | None = None
    closed_form_variance: float | None = None
    sample_count: int = 0


def _pair_index(world: SyntheticWorld):
    """Ordered same-user cell pairs (i != j), as flat cell indices, ordered
    by user, then i, then j."""
    n_items = world.num_items
    i, j = np.nonzero(~np.eye(n_items, dtype=bool))
    base = np.arange(world.num_users, dtype=np.int64)[:, None] * n_items
    return (base + i).ravel(), (base + j).ravel()


def _loss_values(world: SyntheticWorld, model: FactorModel, p_idx, q_idx):
    scores = model.score_matrix().ravel()
    loss, _, _ = sigmoid_pair_loss(scores[p_idx], scores[q_idx])
    return np.atleast_1d(loss)


class _FullBatchEstimator:
    """Evaluates an estimator's full-batch empirical risk for click vectors.

    A pair term is 0 unless i is clicked, and then depends on c_j alone, so
    the full-batch sum is c @ row_vec + c @ cross @ c with the c_j = 0 terms
    in ``row_vec`` and the c_j = 1 minus c_j = 0 terms in ``cross``.  The
    terms come from ``losses.pair_weights``, the function the trainer calls.
    """

    def __init__(self, world: SyntheticWorld, model: FactorModel, estimator: str,
                 clip_threshold: float = 0.0, gamma_hat=None):
        if estimator not in ESTIMATORS:
            raise ValueError(f"unknown estimator {estimator!r}")
        spec = LossSpec(estimator, clip_threshold=clip_threshold
                        if estimator == "ubpr_clipped" else None)
        theta = world.theta.ravel()
        gamma = world.gamma.ravel() if gamma_hat is None \
            else np.asarray(gamma_hat, dtype=np.float64).ravel()
        p_idx, q_idx = _pair_index(world)
        losses = _loss_values(world, model, p_idx, q_idx)
        t0, t1 = (pair_weights(spec, np.full(len(p_idx), c_j), theta[p_idx], theta[q_idx],
                               gamma[q_idx], losses)[0] for c_j in (0, 1))

        n = world.num_cells
        self.row_vec = np.zeros(n)
        np.add.at(self.row_vec, p_idx, t0)
        self.cross = np.zeros((n, n))
        np.add.at(self.cross, (p_idx, q_idx), t1 - t0)
        self.num_cells = n

    def evaluate(self, clicks: np.ndarray) -> np.ndarray:
        """Empirical risk per click row; clicks is (m, num_cells) in {0,1}."""
        c = np.asarray(clicks, dtype=np.float64)
        single = c.ndim == 1
        c = np.atleast_2d(c)
        out = c @ self.row_vec + np.einsum("mp,pq,mq->m", c, self.cross, c, optimize=True)
        return out[0] if single else out


def ideal_risk(world: SyntheticWorld, model: FactorModel) -> float:
    """Sum over ordered same-user pairs of gamma_i*(1-gamma_j)*L(s_i, s_j)."""
    p_idx, q_idx = _pair_index(world)
    losses = _loss_values(world, model, p_idx, q_idx)
    gamma = world.gamma.ravel()
    return float(math.fsum(gamma[p_idx] * (1.0 - gamma[q_idx]) * losses))


def _low_outcomes(o_fac, r_fac, cells):
    """Probability and click code of every outcome of the first ``cells``.

    Entry sum_k v_k 4^k belongs to the outcome with v_k = o_k + 2 r_k; its
    probability is the product of the cells' o and r factors taken left to
    right in cell order, and its code has bit k set when c_k = o_k r_k = 1.
    """
    prob = np.ones(1)
    code = np.zeros(1, dtype=np.int64)
    clicked = np.array([0, 0, 0, 1], dtype=np.int64)
    for k in range(cells):
        prob = (np.multiply.outer(o_fac[k], prob) * r_fac[k][:, None]).ravel()
        code = ((clicked << k)[:, None] | code).ravel()
    return prob, code


def _high_outcome(o_fac, r_fac, first, block):
    """Factors, in cell order, and click code of cells ``first``.. in outcome
    ``block`` of those cells."""
    factors, code = [], 0
    for k in range(first, len(o_fac)):
        v = (block >> (2 * (k - first))) & 3
        factors += [o_fac[k, v], r_fac[k, v]]
        code |= (v == 3) << k
    return factors, code


def exact_expectation(world: SyntheticWorld, model: FactorModel, estimator: str,
                      clip_threshold: float = 0.0, gamma_hat=None) -> float:
    """Expectation of the full-batch empirical risk over the exact joint of
    (o, r) outcomes for every cell.

    Weights the estimator on the induced clicks c = o*r by the probability
    of each of the 4^cells outcomes (o, r in {0,1} per cell).  The estimator
    sees only c, so it is evaluated once on each of the 2^cells click
    vectors and every outcome looks its value up by click code.  The
    outcomes are reduced in ``_CHUNK``-sized runs of the outcome index, each
    a dot product of probabilities and values, and the runs are added with
    ``math.fsum``.  An outcome's probability is the product of its cells'
    factors in cell order: the cells that fit in one chunk are tabulated
    once, and each chunk multiplies in the remaining cells' factors.  Worlds
    beyond MAX_EXACT_CELLS cells are rejected.
    """
    n = world.num_cells
    if n > MAX_EXACT_CELLS:
        raise EnumerationBoundError(
            f"world has {n} cells; exact enumeration capped at {MAX_EXACT_CELLS}")
    est = _FullBatchEstimator(world, model, estimator, clip_threshold, gamma_hat)
    codes = np.arange(1 << n, dtype=np.int64)
    values = est.evaluate(((codes[:, None] >> np.arange(n)) & 1).astype(np.float64))

    theta, gamma = world.theta.ravel(), world.gamma.ravel()
    o_fac = np.stack([1.0 - theta, theta, 1.0 - theta, theta], axis=1)  # by v = o + 2r
    r_fac = np.stack([1.0 - gamma, 1.0 - gamma, gamma, gamma], axis=1)
    low = min(n, (_CHUNK.bit_length() - 1) // 2)  # largest 4^low <= _CHUNK
    low_prob, low_code = _low_outcomes(o_fac, r_fac, low)
    block_len = len(low_prob)

    total_outcomes = 4**n
    partials = []
    for start in range(0, total_outcomes, _CHUNK):
        stop = min(start + _CHUNK, total_outcomes)
        probs, clicks = [], []
        for block in range(start // block_len, (stop - 1) // block_len + 1):
            base = block * block_len
            lo, hi = max(start, base) - base, min(stop, base + block_len) - base
            factors, high_code = _high_outcome(o_fac, r_fac, low, block)
            prob = low_prob[lo:hi].copy()
            for f in factors:
                prob *= f
            probs.append(prob)
            clicks.append(low_code[lo:hi] | high_code)
        prob = probs[0] if len(probs) == 1 else np.concatenate(probs)
        click = clicks[0] if len(clicks) == 1 else np.concatenate(clicks)
        partials.append(float(prob @ values[click]))
    return math.fsum(partials)


def sample_clicks(world: SyntheticWorld, samples: int, seed: int) -> np.ndarray:
    """(samples, num_cells) click draws: o ~ Bern(theta), r ~ Bern(gamma)."""
    rng = np.random.default_rng(seed)
    theta = world.theta.ravel()
    gamma = world.gamma.ravel()
    o = rng.random((samples, world.num_cells)) < theta
    r = rng.random((samples, world.num_cells)) < gamma
    return (o & r).astype(np.float64)


def mc_bias_variance(world: SyntheticWorld, model: FactorModel, estimator: str,
                     samples: int, seed: int, clip_threshold: float = 0.0,
                     gamma_hat=None) -> EstimatorReport:
    """Monte-Carlo mean/variance of an estimator's full-batch risk.

    Draws i.i.d. (o, r) worlds, evaluates the empirical risk per draw and
    reports the sample mean and variance with standard errors.  The exact
    expectation is attached when the world is small enough to enumerate.
    """
    if samples < MIN_MC_SAMPLES:
        raise ValueError(f"samples must be >= {MIN_MC_SAMPLES}, got {samples}")
    est = _FullBatchEstimator(world, model, estimator, clip_threshold, gamma_hat)
    values = est.evaluate(sample_clicks(world, samples, seed))
    ideal = ideal_risk(world, model)
    mean = float(values.mean())
    variance = float(values.var(ddof=1))
    report = EstimatorReport(
        estimator=estimator,
        ideal_risk=ideal,
        mc_mean=mean,
        mc_variance=variance,
        mc_se=float(np.sqrt(variance / samples)),
        sample_count=samples,
    )
    if world.num_cells <= MAX_EXACT_CELLS:
        report.exact_expectation = exact_expectation(
            world, model, estimator, clip_threshold, gamma_hat)
        report.bias = report.exact_expectation - ideal
    else:
        report.bias = mean - ideal
    if estimator == "upl" and gamma_hat is None:
        report.closed_form_variance = closed_form_variance_upl(world, model)
    return report


def variance_order_test(world: SyntheticWorld, model: FactorModel,
                        estimator_hi: str, estimator_lo: str,
                        samples: int, seed: int):
    """One-sided paired test that Var(estimator_hi) > Var(estimator_lo).

    Both estimators are evaluated on the same click draws; the test is a paired t on
    the per-draw squared deviations, its tail ``scipy.special.stdtr`` (bit-identical
    to ``scipy.stats.t.sf``).  Returns (var_hi, var_lo, p_value).
    """
    if samples < MIN_MC_SAMPLES:
        raise ValueError(f"samples must be >= {MIN_MC_SAMPLES}, got {samples}")
    clicks = sample_clicks(world, samples, seed)
    a = _FullBatchEstimator(world, model, estimator_hi).evaluate(clicks)
    b = _FullBatchEstimator(world, model, estimator_lo).evaluate(clicks)
    dev = (a - a.mean()) ** 2 - (b - b.mean()) ** 2
    t_stat = dev.mean() / (dev.std(ddof=1) / math.sqrt(samples))
    p = float(stdtr(samples - 1, -t_stat))
    return float(a.var(ddof=1)), float(b.var(ddof=1)), p


def closed_form_variance_upl(world: SyntheticWorld, model: FactorModel) -> float:
    """sum_i (1/theta_i - gamma_i) * gamma_i * A_i^2 over the cells i, with
    A_i = sum_{j != i, same user} (1 - gamma_j) / (1 - theta_j*gamma_j) * L_ij.

    This is the variance of upl's full-batch risk with every candidate j
    held unclicked, so that only the c_i ~ Bern(theta_i*gamma_i) vary; it is
    not the estimator's variance.  On the small random worlds of its tests
    it exceeds the exact variance over the 2^cells click vectors by
    1.3-2.8x.  The pair terms (j = k) and the cross terms (j != k) are
    summed apart.
    """
    scores = model.score_matrix()
    theta = world.theta
    gamma = world.gamma
    total = 0.0
    for u in range(world.num_users):
        s = scores[u]
        th, ga = theta[u], gamma[u]
        n = world.num_items
        L, _, _ = sigmoid_pair_loss(s[:, None], s[None, :])
        lead = (1.0 / th - ga) * ga  # indexed by i
        w = (1.0 - ga) / (1.0 - th * ga)  # indexed by j
        for i in range(n):
            wl = np.delete(w * L[i], i)  # w_j * L_ij over j != i
            total += lead[i] * float(np.sum(wl**2))
            # cross terms: sum_{j != k} wl_j * wl_k = (sum wl)^2 - sum wl^2
            total += lead[i] * float(np.sum(wl) ** 2 - np.sum(wl**2))
    return total


# ---------------------------------------------------------------------------
# Bundled worlds


def random_world(num_users, num_items, seed, theta_range=(0.1, 0.9),
                 gamma_range=(0.05, 0.95)) -> SyntheticWorld:
    rng = np.random.default_rng(seed)
    shape = (num_users, num_items)
    return SyntheticWorld(
        theta=rng.uniform(*theta_range, size=shape),
        gamma=rng.uniform(*gamma_range, size=shape),
    )


def model_for_world(world: SyntheticWorld, seed, d=4, scale=0.6) -> FactorModel:
    """A fixed random ranker whose pair losses vary meaningfully."""
    return init_model(world.num_users, world.num_items, d=d, seed=seed, scale=scale)


_SUITE_SHAPES = [(1, 4), (1, 5), (2, 3), (1, 6), (2, 4),
                 (1, 8), (3, 3), (2, 5), (1, 9), (1, 10)]


def unbiasedness_suite(count=20, seed=90210):
    """Deterministic suite of admissible random worlds (<= 10 cells each)."""
    worlds = []
    for k in range(count):
        users, items = _SUITE_SHAPES[k % len(_SUITE_SHAPES)]
        worlds.append((f"random_{users}x{items}_{k}",
                       random_world(users, items, seed=seed + k)))
    return worlds


def clip_bias_world() -> SyntheticWorld:
    """Moderate exposure world where zero-clipping visibly biases ubpr."""
    shape = (1, 3)
    return SyntheticWorld(theta=np.full(shape, 0.5), gamma=np.full(shape, 0.5))


def low_exposure_worlds(count=3, seed=777):
    """Worlds with all theta <= 0.2, where ubpr's variance blows up."""
    worlds = []
    for k in range(count):
        worlds.append((f"low_theta_{k}",
                       random_world(1, 5, seed=seed + k,
                                    theta_range=(0.05, 0.2),
                                    gamma_range=(0.3, 0.7))))
    return worlds


# ---------------------------------------------------------------------------
# Verification suite consumed by the CLI


def verification_suite(samples=10**5, seed=1234, suite_count=20):
    """Run every oracle invariant; yields (check_name, passed, detail) rows."""
    results = []

    worlds = unbiasedness_suite(count=suite_count)
    max_err_upl = 0.0
    max_err_ubpr = 0.0
    for k, (name, world) in enumerate(worlds):
        model = model_for_world(world, seed=seed + k)
        ideal = ideal_risk(world, model)
        max_err_upl = max(max_err_upl, abs(exact_expectation(world, model, "upl") - ideal))
        max_err_ubpr = max(max_err_ubpr, abs(exact_expectation(world, model, "ubpr") - ideal))
    results.append(("upl_unbiased_exact", max_err_upl < 1e-10,
                    f"max |E[upl] - ideal| = {max_err_upl:.3e} over {len(worlds)} worlds"))
    results.append(("ubpr_unbiased_exact", max_err_ubpr < 1e-10,
                    f"max |E[ubpr] - ideal| = {max_err_ubpr:.3e} over {len(worlds)} worlds"))

    world = clip_bias_world()
    model = model_for_world(world, seed=seed)
    gap = exact_expectation(world, model, "ubpr_clipped", clip_threshold=0.0) \
        - ideal_risk(world, model)
    results.append(("ubpr_clipped_biased", gap > 1e-3,
                    f"E[clipped ubpr] - ideal = {gap:.6f}"))

    ordering_ok = True
    details = []
    for name, world in low_exposure_worlds():
        model = model_for_world(world, seed=seed + 7)
        var_ubpr, var_upl, p = variance_order_test(
            world, model, "ubpr", "upl", samples=samples, seed=seed)
        ordering_ok &= var_ubpr > var_upl and p < 0.01
        details.append(f"{name}: var ratio {var_ubpr / var_upl:.2f}, p={p:.2e}")
    results.append(("variance_ordering", ordering_ok, "; ".join(details)))

    agree_ok = True
    agree_details = []
    world = unbiasedness_suite(count=1)[0][1]
    model = model_for_world(world, seed=seed + 3)
    for estimator in ESTIMATORS:
        rep = mc_bias_variance(world, model, estimator, samples=samples, seed=seed)
        err = abs(rep.exact_expectation - rep.mc_mean)
        ok = err < 4.0 * rep.mc_se
        agree_ok &= ok
        agree_details.append(f"{estimator}: |exact-mc| = {err:.2e} (4se = {4 * rep.mc_se:.2e})")
    results.append(("enumeration_mc_agreement", agree_ok, "; ".join(agree_details)))

    return results


def reports_to_tsv(reports, path):
    cols = ("estimator", "ideal_risk", "exact_expectation", "bias", "mc_mean",
            "mc_variance", "mc_se", "closed_form_variance", "sample_count")
    with open(path, "w") as fh:
        fh.write("\t".join(cols) + "\n")
        for rep in reports:
            row = []
            for c in cols:
                v = getattr(rep, c)
                row.append("" if v is None else (f"{v:.10g}" if isinstance(v, float) else str(v)))
            fh.write("\t".join(row) + "\n")
