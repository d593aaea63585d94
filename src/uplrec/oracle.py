"""Ground-truth verification of the pairwise estimators on synthetic worlds.

A world fixes per-cell exposure and relevance probabilities (theta, gamma)
with clicks generated as c = o * r, o ~ Bern(theta), r ~ Bern(gamma), all
cells independent.  An estimator sees only the clicks c ~ Bern(p),
p = theta * gamma, and its full-batch risk is a polynomial of degree 2 in
them, c @ a + c @ B @ c with B block-diagonal by user, so its exact mean
and variance have a closed form in p on worlds of any size.  Monte Carlo
sampling draws each click once from p, one uniform a cell, and checks the
closed form.  Estimator terms come from ``losses.pair_weights``, the
function that weights the trainer's sampled pairs, applied to every ordered
pair of one user's items at once.  ``estimator_reports`` is the one walk
over a world's users: for each user it builds one (items, items) table of
pair losses, every requested estimator's (a, B) block from it and, for
Monte Carlo, that user's click draw once, streamed in chunks of about
MC_CHUNK_CELLS cells that every case's risks add up in place.  A user's risk
is a function of the user's click pattern alone, so on a world of at most 12
items (2^items patterns fit in one chunk's rows, see ``_chunk_rows``) each
case scores every pattern once per user and a draw's risk is looked up by
its pattern; on larger worlds each chunk is scored draw by draw.  Each report
carries the ideal risk and the exact moments, each a ``math.fsum`` of one
number per user (the ideal's is the ``np.sum`` of the user's pair terms),
and, when drawn, the per-draw risks, which ``variance_order`` compares; no
array grows with cells^2, and only the (samples,) risks grow with the draws.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .datasets import read_lines, write_tsv
from .errors import ParseError, SettingError
from .evaluation import t_sf
from .factor_model import FactorModel, init_model
from .losses import LossSpec, pair_loss, pair_weights

MIN_MC_SAMPLES = 10**4
VERIFY_SAMPLES = 10**5  # the bundled suite's Monte Carlo draws and seed, as `verify` runs it
VERIFY_SEED = 1234
MC_CHUNK_CELLS = 1 << 16  # cells of one Monte Carlo chunk, see _chunk_rows
_RISK_SUBSCRIPTS = "mp,pq,mq->m"  # c @ B @ c for each row c of a chunk

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
        if self.theta.size == 0:
            raise ValueError(f"a world needs users and items, got shape {self.theta.shape}")
        # written so that NaN fails every check
        if not np.all((self.theta > 0) & (self.theta < 1)):
            raise ValueError("theta must lie strictly inside (0, 1)")
        if not np.all((self.gamma > 0) & (self.gamma < 1)):
            raise ValueError("gamma must lie strictly inside (0, 1)")

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
    numbered = list(read_lines(path, "#"))
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
        digits = parts[0] if len(parts) == 1 and parts[0].isascii() else ""  # isdigit passes '²'
        if not digits.isdigit() or int(digits) < 1:
            raise ParseError(path, lineno, f"expected '{keyword} <positive count>'")
        return int(digits)

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
    extra = next(it, None)
    if extra:
        raise ParseError(path, extra[0], f"expected the end of the file after the gamma "
                         f"table, got {extra[1]!r}")
    return SyntheticWorld(theta=theta, gamma=gamma)


@dataclass
class EstimatorReport:
    """Exact and Monte-Carlo summary of one estimator on one world; the
    Monte-Carlo fields are nan, sample_count 0 and risks None when nothing
    was drawn."""

    estimator: str
    ideal_risk: float
    exact_expectation: float
    bias: float
    mc_mean: float
    mc_variance: float
    mc_se: float
    exact_variance: float
    sample_count: int
    risks: np.ndarray | None = field(default=None, compare=False, repr=False)  # per draw


def _pair_losses(world: SyntheticWorld, model: FactorModel):
    """Each user's (items, items) table of pair losses L[i, j] = L(s_i, s_j),
    zero on the diagonal, as (u, loss), ordered by user."""
    for u in range(world.num_users):
        # a (1, d) row, not a (d,) vector: numpy sends the two to BLAS
        # kernels whose last bits differ
        scores = (model.user_factors[u:u + 1] @ model.item_factors.T)[0]
        loss = pair_loss(scores[:, None], scores)
        np.fill_diagonal(loss, 0.0)
        yield u, loss


def _case(world: SyntheticWorld, estimator: str, clip_threshold: float = 0.0, gamma_hat=None):
    """The LossSpec and the (num_users, num_items) gamma of one case."""
    if estimator not in ESTIMATORS:
        raise ValueError(f"unknown estimator {estimator!r}")
    spec = LossSpec(estimator, clip_threshold=clip_threshold
                    if estimator == "ubpr_clipped" else None)
    gamma = world.gamma if gamma_hat is None \
        else np.reshape(np.asarray(gamma_hat, dtype=np.float64), world.theta.shape)
    return spec, gamma


def _risk_block(spec: LossSpec, theta, gamma, loss):
    """One user's (a, B): the full-batch risk is the sum over users of
    c @ a + c @ B @ c, with c that user's clicks.

    A pair term is 0 unless i is clicked, and then depends on c_j alone.
    ``losses.pair_weights``, the function the trainer calls, gives the
    (items, items) term tables t0 and t1 at c_j = 0 and 1; a sums t0 over j
    in j order from 0.0 (a pairwise sum moves its last bits), and
    B = t1 - t0 with a zero diagonal.
    """
    t0, t1 = (pair_weights(spec, c_j, theta[:, None], theta, gamma, loss)[0]
              for c_j in (0, 1))
    a = np.add.reduce(np.ascontiguousarray(t0.T), axis=0, initial=0.0)
    B = t1 - t0
    np.fill_diagonal(B, 0.0)
    return a, B


def _chunk_rows(num_items: int) -> int:
    """Rows of one Monte Carlo chunk: about MC_CHUNK_CELLS cells, in a
    multiple of 512 rows and at least 512.  With a multiple of 512 rows
    every per-row result of ``c @ a`` and of the risk's einsum keeps the
    bits it has in any other such array, whatever the number of BLAS
    threads.  Other row counts (109, 279, 327) moved the last bits at
    100-300 items, and with a threaded BLAS the bits of their last rows
    followed its split of the product, so a short chunk is padded to this
    many rows.

    When the 2^num_items click patterns fit in these rows (num_items <= 12)
    ``estimator_reports`` scores the patterns instead of the draws, on a
    table of max(512, 2^num_items) rows, also a multiple of 512, so each
    draw's risk keeps the bits it has when scored in its chunk."""
    return max(512, MC_CHUNK_CELLS // num_items // 512 * 512)


def sample_clicks(world: SyntheticWorld, samples: int, seed: int):
    """Yields, for each user, an iterator over that user's click draws
    c ~ Bern(theta * gamma) in bool row chunks of ``_chunk_rows`` rows,
    together (samples, num_items).  A chunk is only read as click patterns
    or cast to float64 for the risk's einsum, so it is kept as bool, an
    eighth of the float64 bytes.

    One generator draws every chunk in turn, one uniform a cell, so the
    chunks are bit for bit that generator's one-shot (samples, num_items)
    draw of each user in turn, provided each user's chunks are used up
    before the next user's.  Only one chunk's draws are held at a time, so
    the memory does not grow with ``samples``.
    """
    rng = np.random.default_rng(seed)
    rows = _chunk_rows(world.num_items)

    def chunks(p):
        for start in range(0, samples, rows):
            shape = (min(rows, samples - start), world.num_items)
            yield rng.random(shape) < p

    for p in world.theta * world.gamma:
        yield chunks(p)


def estimator_reports(world: SyntheticWorld, model: FactorModel, cases, samples=None,
                      seed=0) -> list[EstimatorReport]:
    """Exact and Monte-Carlo summary of each case on one world, from the one
    walk over its users that every oracle result reduces.

    A case is (estimator[, clip_threshold[, gamma_hat]]); the estimator
    names, ``samples`` and, when drawing, ``seed`` are checked before the
    walk.  For each user the pair-loss table is built once and, when
    ``samples`` is given, the clicks are drawn once (``sample_clicks``), so
    every case is scored on the same draws; each case's (a, B) block then
    gives that user's share of the exact moments and, chunk by chunk of the
    draws, its risk on every draw, added in place into the case's (samples,)
    risks.  Up to 12 items the risk of every click pattern is computed once
    per user and case, and each draw reads its pattern's; beyond, each
    chunk's draws are scored by one einsum per case.  Without ``samples``
    nothing is drawn: the Monte-Carlo fields are nan, ``sample_count`` is 0
    and ``risks`` is None.

    The ideal risk is the sum over ordered same-user pairs of
    gamma_i*(1-gamma_j)*L(s_i, s_j).  The exact moments are those of the
    full-batch risk c @ a + c @ B @ c, B zero on its diagonal, a polynomial
    of degree 2 in the independent clicks c_k ~ Bern(p_k), p = theta*gamma.
    Written in the centred clicks x = c - p (its p-biased Fourier
    expansion), with s2 = p(1 - p) and S = B + B^T, it is
    a @ p + p @ B @ p + x @ (a + S @ p) + sum_{k<l} S_kl x_k x_l, whose terms
    are uncorrelated: the mean is a @ p + p @ B @ p and the variance
    sum_k (a + S @ p)_k^2 s2_k + sum_{k<l} S_kl^2 s2_k s2_l.  B is
    block-diagonal by user, so the users' moments add up.
    """
    specs = [_case(world, *case) for case in cases]
    if samples is not None and samples < MIN_MC_SAMPLES:
        raise ValueError(f"samples must be >= {MIN_MC_SAMPLES}, got {samples}")
    if samples is not None and seed < 0:
        raise SettingError("seed", seed, f"seed must be >= 0, got {seed}")
    p = world.theta * world.gamma
    s2 = p * (1.0 - p)
    means, variances, ideals = [[] for _ in specs], [[] for _ in specs], []
    draws, risks, patterns = itertools.repeat(()), [None] * len(specs), None
    if samples is not None:
        draws = sample_clicks(world, samples, seed)
        risks = [np.zeros(samples) for _ in specs]
        # the contraction order that einsum's optimize=True would search for
        # on every chunk, found once from the shapes alone
        n = world.num_items
        rows = _chunk_rows(n)
        c = np.broadcast_to(0.0, (rows, n))
        path = np.einsum_path(_RISK_SUBSCRIPTS, c, np.broadcast_to(0.0, (n, n)), c,
                              optimize=True)[0]
        if 1 << n <= rows:  # row k clicks the items of k's set bits, see _chunk_rows
            weights = 1 << np.arange(n)
            patterns = ((np.arange(max(512, 1 << n))[:, None] & weights) != 0).astype(np.float64)

    def risk_rows(c, a, B):
        """c @ a + c @ B @ c for each row c of a float64 chunk."""
        return c @ a + np.einsum(_RISK_SUBSCRIPTS, c, B, c, optimize=path)

    for (u, loss), chunks in zip(_pair_losses(world, model), draws):
        blocks = [_risk_block(spec, world.theta[u], gamma[u], loss)
                  for spec, gamma in specs]
        for k, (a, B) in enumerate(blocks):
            S = B + B.T
            means[k].append(a @ p[u] + p[u] @ B @ p[u])
            variances[k].append((a + S @ p[u]) ** 2 @ s2[u]
                                + 0.5 * (s2[u] @ (S * S) @ s2[u]))
        ideals.append(np.sum(world.gamma[u, :, None] * (1.0 - world.gamma[u]) * loss))
        if patterns is not None:  # each case scores every click pattern once
            tables = [risk_rows(patterns, a, B) for a, B in blocks]
        start = 0
        for c in chunks:
            stop = start + len(c)
            if patterns is not None:
                index = c @ weights
                for table, risk in zip(tables, risks):
                    risk[start:stop] += table[index]
            else:
                if len(c) < rows:  # rows without clicks up to the full shape, see _chunk_rows
                    c = np.pad(c, ((0, rows - len(c)), (0, 0)))
                c = c.astype(np.float64)
                for (a, B), risk in zip(blocks, risks):
                    risk[start:stop] += risk_rows(c, a, B)[:stop - start]
            start = stop
    ideal = math.fsum(ideals)
    reports = []
    for (estimator, *_), m, v, values in zip(cases, means, variances, risks):
        exact_mean = math.fsum(m)
        mean = variance = se = math.nan
        if values is not None:
            mean, variance = float(values.mean()), float(values.var(ddof=1))
            se = float(np.sqrt(variance / samples))
        reports.append(EstimatorReport(
            estimator=estimator,
            ideal_risk=ideal,
            exact_expectation=exact_mean,
            bias=exact_mean - ideal,
            mc_mean=mean,
            mc_variance=variance,
            mc_se=se,
            exact_variance=math.fsum(v),
            sample_count=samples or 0,
            risks=values,
        ))
    return reports


def variance_order(report_hi: EstimatorReport, report_lo: EstimatorReport) -> float:
    """p value of the one-sided paired test that report_hi's estimator varies
    more than report_lo's.

    The two reports come from one ``estimator_reports`` call with samples,
    so their ``risks`` pair up draw by draw; the test is a paired t on the
    per-draw squared deviations, its tail ``evaluation.t_sf``, and p is 1.0
    when every paired deviation is 0.
    """
    hi, lo = report_hi.risks, report_lo.risks
    if hi is None or lo is None:
        raise ValueError("variance_order needs reports drawn with samples")
    dev = (hi - report_hi.mc_mean) ** 2 - (lo - report_lo.mc_mean) ** 2
    if not dev.any():  # both estimators deviate alike on every draw: no evidence of an order
        return 1.0
    return t_sf(dev.mean() / (dev.std(ddof=1) / math.sqrt(len(dev))), len(dev) - 1)


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


def verification_suite(samples=VERIFY_SAMPLES, seed=VERIFY_SEED):
    """Run every oracle invariant; yields (check_name, passed, detail) rows.

    Each world is walked once, for all the estimators its checks compare.
    """
    results = []

    worlds = unbiasedness_suite()
    max_err_upl = 0.0
    max_err_ubpr = 0.0
    for k, (name, world) in enumerate(worlds):
        model = model_for_world(world, seed=seed + k)
        upl, ubpr = estimator_reports(world, model, [("upl",), ("ubpr",)])
        max_err_upl = max(max_err_upl, abs(upl.bias))
        max_err_ubpr = max(max_err_ubpr, abs(ubpr.bias))
    results.append(("upl_unbiased_exact", max_err_upl < 1e-10,
                    f"max |E[upl] - ideal| = {max_err_upl:.3e} over {len(worlds)} worlds"))
    results.append(("ubpr_unbiased_exact", max_err_ubpr < 1e-10,
                    f"max |E[ubpr] - ideal| = {max_err_ubpr:.3e} over {len(worlds)} worlds"))

    world = clip_bias_world()
    model = model_for_world(world, seed=seed)
    gap = estimator_reports(world, model, [("ubpr_clipped", 0.0)])[0].bias
    results.append(("ubpr_clipped_biased", gap > 1e-3,
                    f"E[clipped ubpr] - ideal = {gap:.6f}"))

    ordering_ok = exact_ok = True
    details, exact_details = [], []
    for name, world in low_exposure_worlds():
        model = model_for_world(world, seed=seed + 7)
        ubpr, upl = estimator_reports(world, model, [("ubpr",), ("upl",)], samples, seed)
        p = variance_order(ubpr, upl)
        ordering_ok &= ubpr.mc_variance > upl.mc_variance and p < 0.01
        details.append(f"{name}: var ratio {ubpr.mc_variance / upl.mc_variance:.2f}, p={p:.2e}")
        exact_ok &= ubpr.exact_variance > upl.exact_variance
        exact_details.append(f"{name}: exact var ratio "
                             f"{ubpr.exact_variance / upl.exact_variance:.2f}")
        del ubpr, upl  # their risks are freed before the next world's draws reuse the memory
    results.append(("variance_ordering", ordering_ok, "; ".join(details)))
    results.append(("variance_ordering_exact", exact_ok, "; ".join(exact_details)))

    agree_ok = True
    agree_details = []
    world = unbiasedness_suite(count=1)[0][1]
    model = model_for_world(world, seed=seed + 3)
    for rep in estimator_reports(world, model, [(e,) for e in ESTIMATORS], samples, seed):
        err = abs(rep.exact_expectation - rep.mc_mean)
        ok = err < 4.0 * rep.mc_se
        agree_ok &= ok
        agree_details.append(f"{rep.estimator}: |exact-mc| = {err:.2e} "
                             f"(4se = {4 * rep.mc_se:.2e})")
    results.append(("enumeration_mc_agreement", agree_ok, "; ".join(agree_details)))

    return results


def reports_to_tsv(reports, path):
    cols = ("estimator", "ideal_risk", "exact_expectation", "bias", "mc_mean",
            "mc_variance", "mc_se", "exact_variance", "sample_count")
    write_tsv(path, cols, ((f"{v:.10g}" if isinstance(v, float) else v
                            for v in (getattr(rep, c) for c in cols)) for rep in reports))
