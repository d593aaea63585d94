"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.  The two Coat-based
criteria need the public Coat dataset (train.ascii / test.ascii) under
data/coat or $COAT_DIR and are skipped when it is absent; everything else
is self-contained.
"""

import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from uplrec import cli
from uplrec import experiment as exp
from uplrec.losses import (
    clip_term,
    pointwise_loss,
    sigmoid_pair_loss,
    ubpr_pair_weight,
    upl_pair_weight,
    upl_pair_weight_from_posterior,
)
from uplrec.oracle import (
    clip_bias_world,
    estimator_reports,
    low_exposure_worlds,
    model_for_world,
    unbiasedness_suite,
    variance_order,
)

from conftest import one_user_metrics, write_synthetic_triplets

COAT_DIR = Path(os.environ.get("COAT_DIR", Path(__file__).resolve().parent.parent
                               / "data" / "coat"))
HAS_COAT = (COAT_DIR / "train.ascii").exists() and (COAT_DIR / "test.ascii").exists()
needs_coat = pytest.mark.skipif(
    not HAS_COAT,
    reason=f"Coat dataset not found under {COAT_DIR} (set $COAT_DIR or run "
           "scripts/fetch_coat.py)")


def test_criterion_1_estimator_unbiasedness_exact():
    start = time.monotonic()
    worlds = unbiasedness_suite(count=20)
    assert len(worlds) >= 20
    max_err = 0.0
    for k, (name, world) in enumerate(worlds):
        assert world.num_cells <= 10
        model = model_for_world(world, seed=1000 + k)
        for rep in estimator_reports(world, model, [("upl",), ("ubpr",)]):
            err = abs(rep.exact_expectation - rep.ideal_risk)
            assert err <= 1e-10, f"{rep.estimator} biased by {err:.3e} on {name}"
            max_err = max(max_err, err)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 1 estimator-unbiasedness: PASS "
          f"(max |E - ideal| = {max_err:.2e} over {len(worlds)} worlds, "
          f"{elapsed:.1f}s)")


def test_criterion_2_clipping_bias_exact():
    start = time.monotonic()
    world = clip_bias_world()
    model = model_for_world(world, seed=2)
    clipped, = estimator_reports(world, model, [("ubpr_clipped", 0.0)])
    gap = clipped.exact_expectation - clipped.ideal_risk
    elapsed = time.monotonic() - start
    assert gap > 1e-3
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 2 clipping-bias: PASS (E[clipped] - ideal = {gap:.4f}, "
          f"{elapsed:.1f}s)")


def test_criterion_3_variance_ordering_monte_carlo():
    start = time.monotonic()
    details = []
    for k, (name, world) in enumerate(low_exposure_worlds(count=3)):
        assert np.all(world.theta <= 0.2)
        model = model_for_world(world, seed=3000 + k)
        ubpr, upl = estimator_reports(world, model, [("ubpr",), ("upl",)],
                                      samples=10**5, seed=4000 + k)
        var_ubpr, var_upl, p = ubpr.mc_variance, upl.mc_variance, variance_order(ubpr, upl)
        assert var_ubpr / var_upl > 1.0
        assert p < 0.01
        details.append(f"{name}: ratio {var_ubpr / var_upl:.1f}, p={p:.1e}")
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    print(f"\nACCEPTANCE 3 variance-ordering: PASS ({'; '.join(details)}, "
          f"{elapsed:.1f}s)")


def test_criterion_4_gradient_correctness():
    start = time.monotonic()
    rng = np.random.default_rng(4)
    h = 1e-6

    def check(f, grad, x, label):
        num = (f(x + h) - f(x - h)) / (2 * h)
        denom = max(abs(num), 1e-8)
        assert abs(grad - num) / denom < 1e-4, f"{label}: {grad} vs {num}"

    # pairwise base loss, both score arguments
    for _ in range(100):
        si, sj = rng.normal(0, 3, 2)
        _, dsi, dsj = sigmoid_pair_loss(si, sj)
        check(lambda x: sigmoid_pair_loss(x, sj)[0], dsi, si, "pair dsi")
        check(lambda x: sigmoid_pair_loss(si, x)[0], dsj, sj, "pair dsj")

    # weighted pairwise estimators: gradient factors multiply dL/ds
    for _ in range(100):
        si, sj = rng.normal(0, 2, 2)
        ti, tj = rng.uniform(0.1, 1.0, 2)
        gj = rng.uniform(0.0, 0.9)
        c_j = int(rng.integers(0, 2))
        w_upl = upl_pair_weight(ti, tj, gj)
        w_ubpr = ubpr_pair_weight(1, c_j, ti, tj)
        _, dsi, dsj = sigmoid_pair_loss(si, sj)
        check(lambda x: w_upl * sigmoid_pair_loss(x, sj)[0], w_upl * dsi, si, "upl")
        check(lambda x: w_ubpr * sigmoid_pair_loss(x, sj)[0], w_ubpr * dsi, si, "ubpr")
        raw = w_ubpr * sigmoid_pair_loss(si, sj)[0]
        if abs(raw) > 1e-3:  # stay away from the clip kink
            grad = (w_ubpr * dsi) if raw > 0.0 else 0.0
            check(lambda x: clip_term(w_ubpr * sigmoid_pair_loss(x, sj)[0], 0.0),
                  grad, si, "ubpr_clipped")

    # pointwise losses
    for method, kwargs in (("wmf", {}), ("relmf", {"theta_click": 0.35})):
        for _ in range(100):
            c = int(rng.integers(0, 2))
            s = rng.normal(0, 3)
            _, grad = pointwise_loss(method, c, s, **kwargs)
            check(lambda x: pointwise_loss(method, c, x, **kwargs)[0], grad, s, method)

    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 4 gradient-correctness: PASS (rel err < 1e-4 at 100 "
          f"points per loss, {elapsed:.1f}s)")


def test_criterion_5_metric_correctness():
    log2_3 = math.log2(3.0)
    fixtures = [
        # (scores, relevance, k, expected dcg/recall/map)
        ([2.0, 1.0, 0.5], [1, 0, 0], 3, (1.0, 1.0, 1.0)),
        ([2.0, 1.0], [0, 1], 3, (1 / log2_3, 1.0, 0.5)),
        ([4.0, 3.0, 2.0, 1.0], [1, 0, 1, 0], 3, (1.5, 1.0, 0.5 * (1 + 2 / 3))),
        ([3.0, 2.0, 1.0], [0, 1, 1], 2, (1 / log2_3, 0.5, 0.25)),
        ([2.0, 1.0], [1, 0], 8, (1.0, 1.0, 1.0)),
        ([1.0, 1.0], [1, 0], 1, (1.0, 1.0, 1.0)),  # tie broken by item index
    ]
    for scores, rel, k, expected in fixtures:
        got = one_user_metrics(scores, rel, k)
        assert got == pytest.approx(expected, abs=1e-12), (scores, rel, k)
    print(f"\nACCEPTANCE 5 metric-correctness: PASS ({len(fixtures)} hand-computed "
          "fixtures exact)")


@pytest.fixture(scope="module")
def coat_experiment(tmp_path_factory):
    """Desk-scale Coat sweep shared by criteria 6 and 7 (paper protocol)."""
    tmp = tmp_path_factory.mktemp("coat")
    out = tmp / "out"
    cfg = tmp / "coat.cfg"
    cfg.write_text(
        f"dataset = {COAT_DIR}\n"
        "format = coat\n"
        "methods = bpr,ubpr,ubpr_nclip,upl\n"
        "runs = 10\n"
        "seed = 20240101\n"
        "d_grid = 100,200,300\n"
        "lambda_grid = 1e-7,1e-5,1e-3\n"
        "clip_grid = 0,-0.1,-1,-10\n"
        f"out = {out}\n"
    )
    start = time.monotonic()
    rc = cli.main(["experiment", "--config", str(cfg)])
    elapsed = time.monotonic() - start
    assert rc == 0
    assert elapsed < 1800.0, f"desk-scale run took {elapsed:.0f}s (> 30 min)"
    rows = exp.read_per_run(out / "per_run_metrics.tsv")
    dcg5 = {}
    for method, run, cohort, metric, k, value in rows:
        if cohort == "all" and metric == "dcg" and k == 5:
            dcg5.setdefault(method, []).append(value)
    return {m: float(np.mean(v)) for m, v in dcg5.items()}, elapsed


@needs_coat
def test_criterion_6_coat_reproduction(coat_experiment):
    means, elapsed = coat_experiment
    assert means["upl"] > means["ubpr"] > means["bpr"], means
    assert abs(means["upl"] - 0.12886) <= 0.015, means["upl"]
    print(f"\nACCEPTANCE 6 coat-reproduction: PASS (DCG@5 upl={means['upl']:.5f} "
          f"ubpr={means['ubpr']:.5f} bpr={means['bpr']:.5f}, {elapsed:.0f}s)")


@needs_coat
def test_criterion_7_unclipped_ubpr_degrades(coat_experiment):
    means, _ = coat_experiment
    assert means["ubpr_nclip"] <= means["ubpr"], means
    print(f"\nACCEPTANCE 7 ubpr-clip-ordering: PASS "
          f"(nclip {means['ubpr_nclip']:.5f} <= clipped {means['ubpr']:.5f})")


def test_criterion_8_experiment_determinism(tmp_path):
    raw = tmp_path / "raw"
    raw.mkdir()
    write_synthetic_triplets(raw, seed=13)
    out = tmp_path / "out"
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        f"dataset = {raw}\nformat = triplets\nmethods = bpr,relmf\nruns = 2\n"
        f"seed = 5\nd_grid = 8\nlambda_grid = 1e-5\nclip_grid = 0\n"
        f"max_epochs = 8\nbatch_size = 64\nout = {out}\n"
    )
    tables = ("aggregate.tsv", "tables.md", "per_run_metrics.tsv",
              "significance.tsv", "grid_search.tsv")
    assert cli.main(["experiment", "--config", str(cfg)]) == 0
    first = {name: (out / name).read_bytes() for name in tables}
    assert cli.main(["experiment", "--config", str(cfg)]) == 0
    for name in tables:
        assert (out / name).read_bytes() == first[name], f"{name} changed on rerun"
    print("\nACCEPTANCE 8 determinism: PASS (rerun byte-identical across "
          f"{len(tables)} output tables)")


def test_criterion_9_posterior_substitution_identity():
    rng = np.random.default_rng(9)
    n = 10_000
    theta_i = rng.uniform(0.05, 1.0, n)
    theta_j = rng.uniform(0.05, 1.0, n)
    c_j = rng.integers(0, 2, n)
    s = rng.normal(0, 2, (n, 2))
    loss, _, _ = sigmoid_pair_loss(s[:, 0], s[:, 1])
    substituted = upl_pair_weight_from_posterior(theta_i, theta_j, theta_j)
    upl_terms = np.where(c_j == 0, substituted * loss, 0.0)
    clipped_ubpr = clip_term(ubpr_pair_weight(1, c_j, theta_i, theta_j) * loss, 0.0)
    max_gap = float(np.max(np.abs(upl_terms - clipped_ubpr)))
    assert max_gap < 1e-12
    print(f"\nACCEPTANCE 9 posterior-substitution-identity: PASS "
          f"(max gap {max_gap:.2e} at {n} points)")
