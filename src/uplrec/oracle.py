"""Ground-truth verification of the pairwise estimators on synthetic worlds.

A world fixes per-cell exposure and relevance probabilities (theta, gamma)
with clicks generated as c = o * r, o ~ Bern(theta), r ~ Bern(gamma), all
cells independent.  An estimator sees only the clicks, and its full-batch
risk is a polynomial of degree 2 in them, so ``exact_moments`` gives its
exact mean and variance in closed form on worlds of any size.  Monte Carlo
sampling draws the same risk and checks the closed form.  Estimator terms
come from ``losses.pair_weights``, the function that weights the trainer's
sampled pairs, applied to every ordered same-user pair at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ParseError
from .evaluation import t_sf
from .factor_model import FactorModel, init_model
from .losses import LossSpec, pair_weights, sigmoid_pair_loss

MIN_MC_SAMPLES = 10**4

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

    '#' starts a comment; blank lines are ignored.  A malformed file raises
    ParseError naming the file and line.
    """
    numbered = [(lineno, raw.split("#", 1)[0].strip())
                for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1)]
    numbered = [(lineno, line) for lineno, line in numbered if line]
    it = iter(numbered)
    end = numbered[-1][0] if numbered else 1

    def take(what):
        lineno, line = next(it, (end, ""))
        if not line:
            raise ParseError(path, lineno, f"file ends before {what}")
        return lineno, line

    def header(keyword):
        lineno, line = take(repr(keyword))
        parts = line.split()
        if parts[0] != keyword:
            raise ParseError(path, lineno, f"expected {keyword!r}, got {line!r}")
        return lineno, parts[1:]

    def count(keyword):
        lineno, parts = header(keyword)
        if len(parts) != 1 or not parts[0].isdigit() or int(parts[0]) < 1:
            raise ParseError(path, lineno, f"expected '{keyword} <positive count>'")
        return int(parts[0])

    users, items = count("users"), count("items")

    def read_table(keyword):
        header(keyword)
        rows = []
        for _ in range(users):
            lineno, line = take(f"the end of the {keyword} table")
            try:
                row = [float(tok) for tok in line.split()]
            except ValueError:
                row = []
            if len(row) != items or not all(0.0 < v < 1.0 for v in row):
                raise ParseError(path, lineno, f"expected {items} {keyword} values strictly "
                                 f"inside (0, 1), got {line!r}")
            rows.append(row)
        return np.asarray(rows)

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
    exact_variance: float | None = None
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


def exact_moments(world: SyntheticWorld, model: FactorModel, estimator: str,
                  clip_threshold: float = 0.0, gamma_hat=None) -> tuple[float, float]:
    """Exact (mean, variance) of the full-batch empirical risk.

    The risk is c @ a + c @ B @ c with B zero on its diagonal, a polynomial
    of degree 2 in the independent clicks c_k ~ Bern(p_k), p = theta*gamma.
    Written in the centred clicks x = c - p (its p-biased Fourier
    expansion), with s2 = p(1 - p) and S = B + B^T, it is
    a @ p + p @ B @ p + x @ (a + S @ p) + sum_{k<l} S_kl x_k x_l, whose terms
    are uncorrelated: the mean is a @ p + p @ B @ p and the variance
    sum_k (a + S @ p)_k^2 s2_k + sum_{k<l} S_kl^2 s2_k s2_l.  B is
    block-diagonal by user, so a and B are built one user at a time and no
    cells x cells matrix is formed; the users' moments add up.
    """
    gamma = world.gamma if gamma_hat is None else np.reshape(gamma_hat, world.theta.shape)
    p = world.theta * world.gamma
    s2 = p * (1.0 - p)
    means, variances = [], []
    for u in range(world.num_users):
        rows = slice(u, u + 1)
        block = _FullBatchEstimator(SyntheticWorld(world.theta[rows], world.gamma[rows]),
                                    FactorModel(model.user_factors[rows], model.item_factors),
                                    estimator, clip_threshold, gamma[rows])
        a, B = block.row_vec, block.cross
        assert not B.diagonal().any(), "a cell paired with itself"
        S = B + B.T
        means.append(a @ p[u] + p[u] @ B @ p[u])
        variances.append((a + S @ p[u]) ** 2 @ s2[u] + 0.5 * (s2[u] @ (S * S) @ s2[u]))
    return math.fsum(means), math.fsum(variances)


def exact_expectation(world: SyntheticWorld, model: FactorModel, estimator: str,
                      clip_threshold: float = 0.0, gamma_hat=None) -> float:
    """Exact expectation of the full-batch empirical risk over the clicks
    c = o*r, o ~ Bern(theta), r ~ Bern(gamma): the mean of ``exact_moments``."""
    return exact_moments(world, model, estimator, clip_threshold, gamma_hat)[0]


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
    reports the sample mean and variance with standard errors, next to the
    exact moments.
    """
    if samples < MIN_MC_SAMPLES:
        raise ValueError(f"samples must be >= {MIN_MC_SAMPLES}, got {samples}")
    est = _FullBatchEstimator(world, model, estimator, clip_threshold, gamma_hat)
    values = est.evaluate(sample_clicks(world, samples, seed))
    ideal = ideal_risk(world, model)
    mean = float(values.mean())
    variance = float(values.var(ddof=1))
    exact_mean, exact_var = exact_moments(world, model, estimator, clip_threshold, gamma_hat)
    return EstimatorReport(
        estimator=estimator,
        ideal_risk=ideal,
        exact_expectation=exact_mean,
        bias=exact_mean - ideal,
        mc_mean=mean,
        mc_variance=variance,
        mc_se=float(np.sqrt(variance / samples)),
        exact_variance=exact_var,
        sample_count=samples,
    )


def variance_order_test(world: SyntheticWorld, model: FactorModel,
                        estimator_hi: str, estimator_lo: str,
                        samples: int, seed: int):
    """One-sided paired test that Var(estimator_hi) > Var(estimator_lo).

    Both estimators are evaluated on the same click draws; the test is a paired t on
    the per-draw squared deviations, its tail ``evaluation.t_sf``.  Returns
    (var_hi, var_lo, p_value).
    """
    if samples < MIN_MC_SAMPLES:
        raise ValueError(f"samples must be >= {MIN_MC_SAMPLES}, got {samples}")
    clicks = sample_clicks(world, samples, seed)
    a = _FullBatchEstimator(world, model, estimator_hi).evaluate(clicks)
    b = _FullBatchEstimator(world, model, estimator_lo).evaluate(clicks)
    dev = (a - a.mean()) ** 2 - (b - b.mean()) ** 2
    t_stat = dev.mean() / (dev.std(ddof=1) / math.sqrt(samples))
    p = t_sf(t_stat, samples - 1)
    return float(a.var(ddof=1)), float(b.var(ddof=1)), p


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
    """Deterministic suite of small random worlds (<= 10 cells each)."""
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

    ordering_ok = exact_ok = True
    details, exact_details = [], []
    for name, world in low_exposure_worlds():
        model = model_for_world(world, seed=seed + 7)
        var_ubpr, var_upl, p = variance_order_test(
            world, model, "ubpr", "upl", samples=samples, seed=seed)
        ordering_ok &= var_ubpr > var_upl and p < 0.01
        details.append(f"{name}: var ratio {var_ubpr / var_upl:.2f}, p={p:.2e}")
        exact_ubpr, exact_upl = (exact_moments(world, model, e)[1] for e in ("ubpr", "upl"))
        exact_ok &= exact_ubpr > exact_upl
        exact_details.append(f"{name}: exact var ratio {exact_ubpr / exact_upl:.2f}")
    results.append(("variance_ordering", ordering_ok, "; ".join(details)))
    results.append(("variance_ordering_exact", exact_ok, "; ".join(exact_details)))

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
            "mc_variance", "mc_se", "exact_variance", "sample_count")
    with open(path, "w") as fh:
        fh.write("\t".join(cols) + "\n")
        for rep in reports:
            row = []
            for c in cols:
                v = getattr(rep, c)
                row.append("" if v is None else (f"{v:.10g}" if isinstance(v, float) else str(v)))
            fh.write("\t".join(row) + "\n")
