import inspect
import itertools
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import uplrec.oracle as oracle_mod
from uplrec.errors import ParseError, SettingError
from uplrec.factor_model import FactorModel
from uplrec.losses import pair_weights, sigmoid_pair_loss
from uplrec.oracle import (
    ESTIMATORS,
    SyntheticWorld,
    clip_bias_world,
    estimator_reports,
    low_exposure_worlds,
    model_for_world,
    parse_world_spec,
    random_world,
    reports_to_tsv,
    unbiasedness_suite,
    variance_order,
    verification_suite,
)

from conftest import count_calls, score_matrix, write_world_spec

LN2 = math.log(2.0)
BUNDLED_WORLD_FILES = sorted((Path(__file__).resolve().parents[1] / "worlds").glob("*.txt"))


def pair_logloss(si, sj):
    return math.log(1.0 + math.exp(-(si - sj)))


def brute_force_ideal(world, model):
    """Independent pair-sum oracle (pure python, no package calls)."""
    scores = score_matrix(model)
    total = 0.0
    for u in range(world.num_users):
        for i in range(world.num_items):
            for j in range(world.num_items):
                if i == j:
                    continue
                total += (world.gamma[u, i] * (1 - world.gamma[u, j])
                          * pair_logloss(scores[u, i], scores[u, j]))
    return total


def brute_force_expectation(world, model, term_fn):
    """Independent oracle: iterate all 4^cells (o, r) outcomes in pure python.

    ``term_fn(c_i, c_j, k_i, k_j, L)`` gives the per-pair estimator term for
    flat cell indices k_i, k_j.
    """
    n_items = world.num_items
    cells = [(u, i) for u in range(world.num_users) for i in range(n_items)]
    theta = world.theta.ravel()
    gamma = world.gamma.ravel()
    scores = score_matrix(model).ravel()
    total = 0.0
    for outcome in itertools.product([0, 1, 2, 3], repeat=len(cells)):
        prob = 1.0
        clicks = []
        for k, code in enumerate(outcome):
            o, r = code & 1, code >> 1
            prob *= (theta[k] if o else 1 - theta[k]) * (gamma[k] if r else 1 - gamma[k])
            clicks.append(o * r)
        value = 0.0
        for ki, (u, i) in enumerate(cells):
            for kj, (v, j) in enumerate(cells):
                if u != v or ki == kj:
                    continue
                value += term_fn(clicks[ki], clicks[kj], ki, kj,
                                 pair_logloss(scores[ki], scores[kj]))
        total += prob * value
    return total


class TestSyntheticWorld:
    def test_validation(self):
        with pytest.raises(ValueError):
            SyntheticWorld(theta=np.array([[0.0, 0.5]]), gamma=np.array([[0.5, 0.5]]))
        with pytest.raises(ValueError):
            SyntheticWorld(theta=np.array([[1.0, 0.5]]), gamma=np.array([[0.5, 0.5]]))
        with pytest.raises(ValueError):
            SyntheticWorld(theta=np.array([[0.5]]), gamma=np.array([[1.0]]))
        with pytest.raises(ValueError, match="theta"):
            SyntheticWorld(theta=np.array([[np.nan, 0.5]]), gamma=np.array([[0.5, 0.5]]))
        with pytest.raises(ValueError, match="gamma"):
            SyntheticWorld(theta=np.array([[0.5, 0.5]]), gamma=np.array([[0.5, np.nan]]))

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
    def test_empty_world_rejected(self, shape):
        with pytest.raises(ValueError, match="needs users and items"):
            SyntheticWorld(np.zeros(shape), np.zeros(shape))

    def test_spec_round_trip(self, tmp_path):
        world = random_world(2, 3, seed=4)
        path = tmp_path / "world.txt"
        write_world_spec(world, path)
        back = parse_world_spec(path)
        assert np.array_equal(back.theta, world.theta)
        assert np.array_equal(back.gamma, world.gamma)

    @pytest.mark.parametrize("text, lineno, message", [
        ("", 1, "file ends before 'users'"),
        ("users 1\nitem 3\n", 2, "expected 'items', got 'item 3'"),
        ("users 0\nitems 3\n", 1, "expected 'users <positive count>'"),
        # '²' passes str.isdigit, but int() refuses it
        ("users \u00b2\nitems 3\n", 1, "expected 'users <positive count>'"),
        ("users 1\nitems 3\ntheta\n0.5 0.5 0.5\ngamma\n", 5,
         "file ends before the end of the gamma table"),
        ("users 1\nitems 3\ntheta\n0.5 0.5\ngamma\n0.5 0.5 0.5\n", 4,
         "expected 3 theta values strictly inside (0, 1), got '0.5 0.5'"),
        ("users 1\nitems 2\ntheta\n0.5 x\ngamma\n0.5 0.5\n", 4,
         "expected 2 theta values strictly inside (0, 1), got '0.5 x'"),
        ("users 1\nitems 2\ntheta\n0.5 0.5\n# comment\ngamma\n1 0.5\n", 7,
         "expected 2 gamma values strictly inside (0, 1), got '1 0.5'"),
        ("users 1\nitems 2\ntheta\n0.5 0.5\ngamma\n0.5 0.5\n0.5 0.5\nusers 7\n", 7,
         "expected the end of the file after the gamma table, got '0.5 0.5'"),
    ], ids=["empty", "bad_keyword", "no_users", "superscript_users", "truncated", "short_row",
            "non_numeric", "gamma_outside_unit_interval", "extra_lines"])
    def test_spec_parser_names_file_and_line(self, tmp_path, text, lineno, message):
        path = tmp_path / "w.txt"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ParseError) as info:
            parse_world_spec(path)
        assert str(info.value) == f"{path}:{lineno}: {message}"
        assert info.value.lineno == lineno

    def test_spec_parser_comments(self, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text(
            "# tiny world\nusers 1\nitems 2\ntheta\n0.5 0.25  # row\ngamma\n0.5 0.75\n")
        world = parse_world_spec(path)
        assert world.theta[0, 1] == 0.25 and world.gamma[0, 1] == 0.75


class TestIdealRisk:
    def test_item_permutation_invariance(self):
        world = SyntheticWorld(theta=np.full((1, 4), 0.5), gamma=np.full((1, 4), 0.3))
        model = model_for_world(world, seed=1)
        base, = estimator_reports(world, model, [("upl",)])
        perm = [2, 0, 3, 1]
        world_p = SyntheticWorld(theta=world.theta[:, perm], gamma=world.gamma[:, perm])
        model_p = FactorModel(model.user_factors, model.item_factors[perm])
        permuted, = estimator_reports(world_p, model_p, [("upl",)])
        assert permuted.ideal_risk == pytest.approx(base.ideal_risk, rel=1e-12)

    def test_near_degenerate_probabilities(self):
        # gamma -> (1, 0) at equal scores: risk -> 1 * 1 * ln 2
        eps = 1e-12
        world = SyntheticWorld(theta=np.array([[0.5, 0.5]]),
                               gamma=np.array([[1 - eps, eps]]))
        model = FactorModel(np.zeros((1, 2)), np.zeros((2, 2)))
        rep, = estimator_reports(world, model, [("upl",)])
        assert rep.ideal_risk == pytest.approx(LN2, abs=1e-9)

    def test_matches_independent_brute_force(self):
        world = SyntheticWorld(theta=np.array([[0.4, 0.6, 0.8]]),
                               gamma=np.array([[0.9, 0.5, 0.1]]))
        model = model_for_world(world, seed=11)
        rep, = estimator_reports(world, model, [("bpr",)])
        assert rep.ideal_risk == pytest.approx(brute_force_ideal(world, model), rel=1e-12)

    def test_summed_from_one_value_per_user(self, monkeypatch):
        # each user's pair terms are summed by np.sum, and math.fsum adds the
        # users' sums, as it adds each case's per-user mean and variance
        world = random_world(3, 7, seed=12)
        model = model_for_world(world, seed=13)
        calls = []

        def fsum(values, _real=math.fsum):
            values = list(values)
            calls.append((len(values), _real(values)))
            return calls[-1][1]
        monkeypatch.setattr(oracle_mod.math, "fsum", fsum)
        rep, = estimator_reports(world, model, [("bpr",)])
        assert calls == [(world.num_users, rep.ideal_risk),
                         (world.num_users, rep.exact_expectation),
                         (world.num_users, rep.exact_variance)]
        assert rep.ideal_risk == pytest.approx(brute_force_ideal(world, model), rel=1e-12)


class TestExactExpectation:
    def test_upl_unbiased(self):
        for k in range(4):
            world = random_world(1, 4, seed=30 + k)
            model = model_for_world(world, seed=40 + k)
            rep, = estimator_reports(world, model, [("upl",)])
            assert rep.exact_expectation == pytest.approx(rep.ideal_risk, abs=1e-10)

    def test_ubpr_unbiased_with_true_theta(self):
        for k in range(4):
            world = random_world(2, 3, seed=50 + k)
            model = model_for_world(world, seed=60 + k)
            rep, = estimator_reports(world, model, [("ubpr",)])
            assert rep.exact_expectation == pytest.approx(rep.ideal_risk, abs=1e-10)

    def test_clipping_introduces_positive_bias(self):
        world = clip_bias_world()
        model = model_for_world(world, seed=2)
        clipped, = estimator_reports(world, model, [("ubpr_clipped", 0.0)])
        assert clipped.exact_expectation - clipped.ideal_risk > 1e-3

    def test_matches_pure_python_enumeration(self):
        # independent (o, r) outcome walk vs the vectorized enumeration
        world = random_world(1, 3, seed=70)  # 3 cells -> 64 outcomes
        model = model_for_world(world, seed=71)
        theta = world.theta.ravel()
        gamma = world.gamma.ravel()

        def upl_term(ci, cj, ki, kj, L):
            if ci == 1 and cj == 0:
                return L * (1 - gamma[kj]) / (theta[ki] * (1 - theta[kj] * gamma[kj]))
            return 0.0

        def ubpr_term(ci, cj, ki, kj, L):
            return (ci / theta[ki]) * (1 - cj / theta[kj]) * L

        def clipped_term(ci, cj, ki, kj, L):
            return max(ubpr_term(ci, cj, ki, kj, L), 0.0)

        def bpr_term(ci, cj, ki, kj, L):
            return L if ci == 1 and cj == 0 else 0.0

        terms = (upl_term, ubpr_term, clipped_term, bpr_term)
        reports = estimator_reports(world, model, [(e,) for e in oracle_mod.ESTIMATORS])
        for rep, term in zip(reports, terms):
            expected = brute_force_expectation(world, model, term)
            assert rep.exact_expectation == pytest.approx(expected, abs=1e-12), rep.estimator

    def test_perturbed_gamma_hat_mode_induces_bias(self):
        world = random_world(1, 4, seed=80)
        model = model_for_world(world, seed=81)
        perturbed = np.clip(world.gamma + 0.3, 0.01, 0.95)
        true, pert = estimator_reports(world, model, [("upl",), ("upl", 0.0, perturbed)])
        assert abs(true.bias) < 1e-10
        assert abs(pert.bias) > 1e-3


class TestMonteCarlo:
    def test_sample_floor(self):
        world = random_world(1, 3, seed=5)
        model = model_for_world(world, seed=6)
        for samples in (100, 9999, 0):
            with pytest.raises(ValueError, match=f"samples must be >= 10000, got {samples}$"):
                estimator_reports(world, model, [("ubpr",), ("upl",)], samples=samples)

    def test_negative_seed_rejected_before_the_walk(self, monkeypatch):
        # numpy's generators take no negative seed; without draws it seeds nothing
        world = random_world(1, 3, seed=5)
        model = model_for_world(world, seed=6)
        calls = count_calls(monkeypatch, oracle_mod, "sample_clicks", "_pair_losses")
        with pytest.raises(SettingError, match="^seed must be >= 0, got -1$") as info:
            estimator_reports(world, model, [("upl",)], samples=10**4, seed=-1)
        assert (info.value.name, info.value.value) == ("seed", -1)
        assert calls == {"sample_clicks": 0, "_pair_losses": 0}
        rep, = estimator_reports(world, model, [("upl",)], seed=-1)
        assert rep.sample_count == 0

    def test_degenerate_single_cell_estimator_is_constant_zero(self):
        # a 1-cell world has no pairs, so every estimator is identically 0
        world = SyntheticWorld(theta=np.array([[0.5]]), gamma=np.array([[0.5]]))
        model = model_for_world(world, seed=1)
        rep, = estimator_reports(world, model, [("upl",)], samples=10**4, seed=2)
        assert rep.mc_variance == 0.0
        assert rep.mc_mean == 0.0

    def test_mc_mean_consistent_with_exact(self):
        world = random_world(1, 5, seed=100)
        model = model_for_world(world, seed=101)
        for rep in estimator_reports(world, model, [("upl",), ("ubpr",), ("bpr",)],
                                     samples=10**5, seed=102):
            assert abs(rep.exact_expectation - rep.mc_mean) < 4 * rep.mc_se, rep.estimator

    def test_variance_ordering_low_exposure(self):
        name, world = low_exposure_worlds(count=1)[0]
        model = model_for_world(world, seed=7)
        ubpr, upl = estimator_reports(world, model, [("ubpr",), ("upl",)], samples=10**4, seed=8)
        assert ubpr.mc_variance > upl.mc_variance
        assert variance_order(ubpr, upl) < 0.01

    def test_identical_estimators_give_p_one_without_warning(self):
        # every paired deviation is 0, so the paired t statistic would be 0/0
        world = random_world(1, 4, 1)
        model = model_for_world(world, seed=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            hi, lo = estimator_reports(world, model, [("upl",), ("upl",)], samples=10**4,
                                       seed=3)
            p = variance_order(hi, lo)
        assert hi.mc_variance == lo.mc_variance > 0.0
        assert p == 1.0

    def test_variance_order_needs_draws(self):
        world = random_world(1, 4, 1)
        model = model_for_world(world, seed=2)
        hi, lo = estimator_reports(world, model, [("ubpr",), ("upl",)])
        assert hi.risks is None and lo.risks is None
        with pytest.raises(ValueError, match="needs reports drawn with samples"):
            variance_order(hi, lo)


class TestBundledWorlds:
    def test_suite_size_and_cell_cap(self):
        suite = unbiasedness_suite(count=20)
        assert len(suite) == 20
        assert all(w.num_cells <= 10 for _, w in suite)

    def test_low_exposure_thetas(self):
        for _, world in low_exposure_worlds():
            assert np.all(world.theta <= 0.2)

    def test_deterministic(self):
        a = unbiasedness_suite(count=3)
        b = unbiasedness_suite(count=3)
        for (_, wa), (_, wb) in zip(a, b):
            assert np.array_equal(wa.theta, wb.theta)


# ---------------------------------------------------------------------------
# The closed-form moments against an independent click-vector enumeration


def click_enumeration_moments(world, model, estimator, clip_threshold=0.0, gamma_hat=None):
    """Independent reference, pure python: the (mean, variance) of the
    full-batch risk over all 2^cells click vectors, each weighted by the
    product of its cells' click probabilities theta*gamma or 1 - theta*gamma.
    """
    theta = world.theta.ravel().tolist()
    p = (world.theta * world.gamma).ravel().tolist()
    g = (world.gamma if gamma_hat is None else np.asarray(gamma_hat)).ravel().tolist()
    scores = score_matrix(model).ravel().tolist()
    items = world.num_items
    pairs = [(i, j, pair_logloss(scores[i], scores[j]))
             for i in range(world.num_cells) for j in range(world.num_cells)
             if i != j and i // items == j // items]

    def term(i, j, c_j, loss):  # of a pair whose i is clicked
        if estimator == "upl":
            return 0.0 if c_j else loss * (1 - g[j]) / (theta[i] * (1 - theta[j] * g[j]))
        if estimator == "bpr":
            return 0.0 if c_j else loss
        ubpr = (1 - c_j / theta[j]) * loss / theta[i]
        return ubpr if estimator == "ubpr" else max(ubpr, clip_threshold)

    probs, values = [], []
    for clicks in itertools.product((0, 1), repeat=world.num_cells):
        probs.append(math.prod(pk if ck else 1 - pk for pk, ck in zip(p, clicks)))
        values.append(math.fsum(term(i, j, clicks[j], loss)
                                for i, j, loss in pairs if clicks[i]))
    mean = math.fsum(pr * v for pr, v in zip(probs, values))
    return mean, math.fsum(pr * (v - mean) ** 2 for pr, v in zip(probs, values))


def assert_moments_match(world, model, estimator, clip=0.0, gamma_hat=None):
    expected = click_enumeration_moments(world, model, estimator, clip, gamma_hat)
    rep, = estimator_reports(world, model, [(estimator, clip, gamma_hat)])
    actual = rep.exact_expectation, rep.exact_variance
    assert actual == pytest.approx(expected, rel=1e-12, abs=0.0), (estimator, clip)


def _named_worlds():
    worlds = unbiasedness_suite(count=20) + [("clip_bias", clip_bias_world())]
    worlds += low_exposure_worlds()
    worlds += [(path.name, parse_world_spec(path)) for path in BUNDLED_WORLD_FILES]
    return worlds


NAMED_WORLDS = _named_worlds()
# every estimator at the default threshold, and clipped ubpr at a negative one
ESTIMATOR_CASES = [(e, 0.0) for e in oracle_mod.ESTIMATORS] + [("ubpr_clipped", -0.5)]


@st.composite
def moment_cases(draw):
    users = draw(st.integers(1, 2))
    items = draw(st.integers(1, 8 // users))
    world = random_world(users, items, seed=draw(st.integers(0, 2**16)))
    model = model_for_world(world, seed=draw(st.sampled_from((1234, 0, 3))))
    estimator = draw(st.sampled_from(oracle_mod.ESTIMATORS))
    clip = draw(st.sampled_from((0.0, -0.5)))
    gamma_hat = None
    if draw(st.booleans()):
        gamma_hat = np.clip(world.gamma + draw(st.sampled_from((-0.2, 0.1, 0.3))),
                            0.01, 0.95)
    return world, model, estimator, clip, gamma_hat


class TestExactMatchesReference:
    @settings(max_examples=30)
    @given(moment_cases())
    def test_moments_match_click_enumeration(self, case):
        assert_moments_match(*case)

    @pytest.mark.parametrize("k", range(len(NAMED_WORLDS)), ids=[n for n, _ in NAMED_WORLDS])
    def test_named_world_moments(self, k):
        world = NAMED_WORLDS[k][1]
        model = model_for_world(world, seed=1234 + k)
        perturbed = np.clip(world.gamma + 0.2, 0.01, 0.95)
        for estimator, clip in ESTIMATOR_CASES:
            for gamma_hat in (None, perturbed):
                assert_moments_match(world, model, estimator, clip, gamma_hat)

    def test_eleven_cell_world_moments(self):
        world = random_world(1, 11, seed=90)
        model = model_for_world(world, seed=91)
        for estimator, clip in ESTIMATOR_CASES:
            assert_moments_match(world, model, estimator, clip)


class TestExactMoments:
    def test_single_cell_world_is_zero(self):
        world = SyntheticWorld(theta=np.array([[0.5]]), gamma=np.array([[0.5]]))
        model = model_for_world(world, seed=1)
        for rep in estimator_reports(world, model, [(e,) for e in oracle_mod.ESTIMATORS]):
            assert (rep.exact_expectation, rep.exact_variance) == (0.0, 0.0), rep.estimator

    def test_unknown_estimator_rejected_before_any_block(self, monkeypatch):
        world = random_world(1, 3, seed=4)
        model = model_for_world(world, seed=5)

        def never(*args, **kwargs):
            raise AssertionError("a pair loss was built before the names were checked")

        monkeypatch.setattr(oracle_mod, "_pair_losses", never)
        with pytest.raises(ValueError, match="unknown estimator 'nonsense'"):
            estimator_reports(world, model, [("nonsense",)])
        with pytest.raises(ValueError, match="unknown estimator 'nonsense'"):
            estimator_reports(world, model, [("upl",), ("nonsense",)], samples=10**4)

    def test_two_cell_world_hand_evaluated(self):
        # upl's risk is x when only cell 0 is clicked, y when only cell 1
        # is, and 0 otherwise
        theta = np.array([[0.4, 0.7]])
        gamma = np.array([[0.6, 0.2]])
        world = SyntheticWorld(theta=theta, gamma=gamma)
        model = model_for_world(world, seed=3)
        s = score_matrix(model)[0]
        p = (theta * gamma)[0]

        def weighted_loss(i, j):
            return (pair_logloss(s[i], s[j]) * (1 - gamma[0, j])
                    / (theta[0, i] * (1 - theta[0, j] * gamma[0, j])))

        x, y = weighted_loss(0, 1), weighted_loss(1, 0)
        px, py = p[0] * (1 - p[1]), (1 - p[0]) * p[1]
        mean = px * x + py * y
        var = px * x**2 + py * y**2 - mean**2
        rep, = estimator_reports(world, model, [("upl",)])
        assert (rep.exact_expectation, rep.exact_variance) == \
            pytest.approx((mean, var), rel=1e-12)

    @pytest.mark.parametrize("estimator", oracle_mod.ESTIMATORS)
    def test_forty_cells_against_monte_carlo(self, estimator):
        world = random_world(2, 20, seed=120)
        model = model_for_world(world, seed=121)
        samples = 10**5
        rep, = estimator_reports(world, model, [(estimator,)], samples=samples, seed=122)
        values = rep.risks
        assert values.shape == (samples,) and rep.sample_count == samples
        assert (rep.mc_mean, rep.mc_variance) == (values.mean(), values.var(ddof=1))
        sq_dev = (values - values.mean()) ** 2
        assert abs(rep.exact_expectation - rep.mc_mean) < 4 * rep.mc_se
        assert abs(rep.exact_variance - rep.mc_variance) < \
            4 * sq_dev.std(ddof=1) / math.sqrt(samples)

    @pytest.mark.parametrize("cases, samples, limit", [
        ([("ubpr",)], None, 100 * 100**2 * 8),
        ([(e,) for e in oracle_mod.ESTIMATORS], None, 100 * 100**2 * 8),
        ([("ubpr",)], 10**4, 4 * 10**4 * 100 * 8),
        ([(e,) for e in oracle_mod.ESTIMATORS], 10**4, 4 * 10**4 * 100 * 8),
    ], ids=["exact_one", "exact_four", "mc_one", "mc_four"])
    def test_no_cells_by_cells_allocation(self, cases, samples, limit):
        # 2,000 cells: a cells x cells float matrix would take 32 MB.  Per-user
        # blocks keep the peak, the ideal risk's included, below a hundred
        # (items, items) float arrays, and Monte Carlo's below four (samples,
        # items) ones, whatever the number of users or of estimators sharing
        # the draws.
        world = random_world(20, 100, seed=130)
        model = model_for_world(world, seed=131)
        tracemalloc.start()
        try:
            estimator_reports(world, model, cases, samples, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit

    def test_reports_carry_exact_moments(self, tmp_path):
        world = random_world(1, 5, seed=140)
        model = model_for_world(world, seed=141)
        cases = [(e,) for e in oracle_mod.ESTIMATORS]
        reports = estimator_reports(world, model, cases, samples=10**4, seed=142)
        for rep, exact in zip(reports, estimator_reports(world, model, cases)):
            assert (rep.exact_expectation, rep.exact_variance, rep.ideal_risk) == \
                (exact.exact_expectation, exact.exact_variance, exact.ideal_risk)
            assert rep.bias == rep.exact_expectation - rep.ideal_risk
        path = tmp_path / "reports.tsv"
        reports_to_tsv(reports, path)
        header, *rows = [line.split("\t") for line in path.read_text().splitlines()]
        # the per-draw risks stay out of the table
        assert header == ["estimator", "ideal_risk", "exact_expectation", "bias", "mc_mean",
                          "mc_variance", "mc_se", "exact_variance", "sample_count"]
        column = header.index("exact_variance")
        assert [float(row[column]) for row in rows] == \
            pytest.approx([rep.exact_variance for rep in reports], rel=1e-9)

    def test_variance_ordering_exact_check(self):
        # the Monte Carlo lines pin the click draws of one-user worlds
        rows = {name: (ok, detail) for name, ok, detail in verification_suite()}
        assert rows["variance_ordering_exact"] == (True, (
            "low_theta_0: exact var ratio 6.16; low_theta_1: exact var ratio 8.39; "
            "low_theta_2: exact var ratio 11.44"))
        assert rows["variance_ordering"] == (True, (
            "low_theta_0: var ratio 6.33, p=8.15e-174; low_theta_1: var ratio 8.17, "
            "p=5.17e-133; low_theta_2: var ratio 11.18, p=8.90e-130"))
        assert rows["enumeration_mc_agreement"] == (True, (
            "upl: |exact-mc| = 1.55e-03 (4se = 2.47e-02); "
            "ubpr: |exact-mc| = 2.45e-03 (4se = 2.40e-02); "
            "ubpr_clipped: |exact-mc| = 1.95e-03 (4se = 2.58e-02); "
            "bpr: |exact-mc| = 1.80e-03 (4se = 1.81e-02)"))
        assert list(rows) == ["upl_unbiased_exact", "ubpr_unbiased_exact",
                              "ubpr_clipped_biased", "variance_ordering",
                              "variance_ordering_exact", "enumeration_mc_agreement"]

    @pytest.mark.parametrize("seed", range(1234, 1244))
    def test_suite_passes_at_neighbouring_seeds(self, seed):
        # the checks hold on the draws of ten suite seeds, not only on the
        # default one the detail lines pin
        assert [(name, ok) for name, ok, _ in verification_suite(seed=seed)] == [
            (name, True) for name in ("upl_unbiased_exact", "ubpr_unbiased_exact",
                                      "ubpr_clipped_biased", "variance_ordering",
                                      "variance_ordering_exact", "enumeration_mc_agreement")]

    def test_suite_frees_each_worlds_draws(self):
        # the suite's peak is 4.5 MB (5.3 MB on a process's first call), the
        # bound 0.5 MB above it; each low-exposure world's two risk arrays
        # kept alive into the next world's draws would lift it to 6.1 MB
        # (6.9 MB)
        tracemalloc.start()
        try:
            verification_suite()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5.8e6


# ---------------------------------------------------------------------------
# The one pass over a world serves every estimator


def one_shot_clicks(world, samples, seed):
    """Each user's whole (samples, num_items) click draw c ~ Bern(theta *
    gamma) at once, user after user from one generator: the stream
    ``sample_clicks`` reproduces in chunks.  Also yields the generator,
    which has just drawn that user."""
    rng = np.random.default_rng(seed)
    shape = (samples, world.num_items)
    for p in world.theta * world.gamma:
        yield (rng.random(shape) < p).astype(np.float64), rng


def single_case_risks(world, model, case, samples, seed):
    """One case's per-draw risks with its blocks built alone, user by user,
    from each user's one-shot (samples, num_items) click draw, padded with
    rows without clicks to a multiple of 512 rows as ``_chunk_rows`` asks."""
    spec, gamma = oracle_mod._case(world, *case)
    risk = 0.0
    for (c, _), (u, loss) in zip(one_shot_clicks(world, samples, seed),
                                 oracle_mod._pair_losses(world, model)):
        a, B = oracle_mod._risk_block(spec, world.theta[u], gamma[u], loss)
        c = np.pad(c, ((0, -samples % 512), (0, 0)))
        risk = risk + (c @ a + np.einsum("mp,pq,mq->m", c, B, c, optimize=True))[:samples]
    return risk


class TestWorldPass:
    def test_shared_pass_equals_each_estimator_alone(self):
        world = random_world(3, 6, seed=150)
        model = model_for_world(world, seed=151)
        gamma_hat = np.clip(world.gamma + 0.2, 0.01, 0.95)
        cases = [("upl",), ("upl", 0.0, gamma_hat), ("ubpr",), ("ubpr_clipped", 0.0),
                 ("ubpr_clipped", -1.0), ("ubpr_clipped", -1.0, gamma_hat), ("bpr",)]
        reports = estimator_reports(world, model, cases, samples=10**4, seed=152)
        for case, rep in zip(cases, reports):
            assert np.array_equal(rep.risks, single_case_risks(world, model, case, 10**4, 152))
            alone, = estimator_reports(world, model, [case], samples=10**4, seed=152)
            assert rep == alone, case
        assert rep.ideal_risk == pytest.approx(brute_force_ideal(world, model), rel=1e-12)

    def test_exact_only_reports_draw_nothing(self, monkeypatch):
        world = random_world(2, 4, seed=160)
        model = model_for_world(world, seed=161)
        calls = count_calls(monkeypatch, oracle_mod, "sample_clicks", "_pair_losses")
        rep, = estimator_reports(world, model, [("ubpr_clipped", -1.0)])
        assert calls == {"sample_clicks": 0, "_pair_losses": 1}
        drawn, = estimator_reports(world, model, [("ubpr_clipped", -1.0)], samples=10**4)
        assert (rep.ideal_risk, rep.exact_expectation, rep.exact_variance, rep.bias) == \
            (drawn.ideal_risk, drawn.exact_expectation, drawn.exact_variance, drawn.bias)
        assert math.isnan(rep.mc_mean) and math.isnan(rep.mc_variance)
        assert math.isnan(rep.mc_se) and rep.sample_count == 0 and rep.risks is None

    def test_suite_draws_four_times_and_walks_each_world_once(self, monkeypatch):
        calls = count_calls(monkeypatch, oracle_mod, "sample_clicks", "_pair_losses")
        verification_suite(samples=10**4)
        # 20 unbiasedness worlds, the clip-bias world, 3 low-exposure worlds
        # and the agreement world; one draw per Monte Carlo world
        assert calls == {"sample_clicks": 4, "_pair_losses": 25}


def flat_pair_block(spec, theta, gamma, scores):
    """Reference (loss table, a, B) of one user from the flat list of its
    ordered pairs i != j: a scattered with ``np.add.at`` in j order, B and
    the loss table written pair by pair into zeros."""
    n = len(scores)
    i, j = np.nonzero(~np.eye(n, dtype=bool))
    loss = sigmoid_pair_loss(scores[i], scores[j])[0]
    t0, t1 = (pair_weights(spec, c_j, theta[i], theta[j], gamma[j], loss)[0]
              for c_j in (0, 1))
    table, a, B = np.zeros((n, n)), np.zeros(n), np.zeros((n, n))
    table[i, j] = loss
    np.add.at(a, i, t0)
    B[i, j] = t1 - t0
    return table, a, B


class TestRiskBlock:
    @pytest.mark.parametrize("shape", [(1, 5), (3, 6), (20, 100), (2, 300)],
                             ids=["1x5", "3x6", "20x100", "2x300"])
    def test_tables_keep_the_flat_pair_bits(self, shape):
        # a is a sequential sum over j from 0.0, as np.add.at adds; a
        # pairwise sum over each row moves last bits at 100 and 300 items
        world = random_world(*shape, seed=190)
        model = model_for_world(world, seed=191)
        gamma_hat = np.clip(world.gamma + 0.2, 0.01, 0.95)
        cases = [(e,) for e in ESTIMATORS] + [("ubpr_clipped", -1.0), ("upl", 0.0, gamma_hat)]
        for u, table in oracle_mod._pair_losses(world, model):
            scores = (model.user_factors[u:u + 1] @ model.item_factors.T)[0]
            for case in cases:
                spec, gamma = oracle_mod._case(world, *case)
                a, B = oracle_mod._risk_block(spec, world.theta[u], gamma[u], table)
                ref_table, ref_a, ref_B = flat_pair_block(spec, world.theta[u], gamma[u],
                                                          scores)
                assert table.tobytes() == ref_table.tobytes()
                assert a.tobytes() == ref_a.tobytes(), (u, case)
                assert B.tobytes() == ref_B.tobytes(), (u, case)
                assert not B.diagonal().any() and not table.diagonal().any()


class TestChunkedDraws:
    @pytest.mark.parametrize("items, rows", [(4, 16384), (5, 12800), (100, 512), (300, 512)])
    def test_chunks_replay_the_one_shot_stream(self, items, rows, monkeypatch):
        # about 2**16 cells a chunk, in a multiple of 512 rows; three full
        # chunks and a part, for each of two users
        assert oracle_mod._chunk_rows(items) == rows
        samples = 3 * rows + 17
        world = random_world(2, items, seed=170)
        made = []

        def default_rng(seed, _made_by=np.random.default_rng):
            made.append(_made_by(seed))
            return made[-1]

        monkeypatch.setattr(np.random, "default_rng", default_rng)
        users = [list(chunks) for chunks in oracle_mod.sample_clicks(world, samples, 171)]
        monkeypatch.undo()
        for chunks, (clicks, rng) in zip(users, one_shot_clicks(world, samples, 171),
                                         strict=True):
            assert [len(c) for c in chunks] == [rows] * 3 + [17]
            # bool, an eighth of a float64 chunk's bytes
            assert all(c.dtype == np.bool_ for c in chunks)
            assert np.array_equal(np.concatenate(chunks), clicks)
        # the generator ends where the one-shot draws leave it
        assert made[0].bit_generator.state == rng.bit_generator.state

    @pytest.mark.parametrize("shape, samples", [((1, 5), 30017), ((3, 6), 30017),
                                                ((1, 12), 10007), ((1, 13), 10007),
                                                ((20, 100), 10007), ((2, 300), 10007)],
                             ids=["1x5", "3x6", "1x12", "1x13", "20x100", "2x300"])
    def test_chunked_risks_equal_one_shot(self, shape, samples):
        # per-draw results of the chunked c @ a and einsum, or of each click
        # pattern scored once, keep every bit of the one-shot (samples, items)
        # arrays padded to a multiple of 512 rows; 12 items is the largest
        # world whose 4,096 patterns fit in a chunk (5,120 rows), 13 the
        # smallest scored chunk by chunk
        world = random_world(*shape, seed=180)
        model = model_for_world(world, seed=181)
        cases = [("upl",), ("ubpr_clipped", -1.0)]
        reports = estimator_reports(world, model, cases, samples=samples, seed=182)
        for case, rep in zip(cases, reports):
            assert np.array_equal(rep.risks, single_case_risks(world, model, case, samples, 182))

    @pytest.mark.parametrize("shape, samples, calls", [
        ((1, 5), 10**5, 1 * 2),  # 8 chunks of 12,800 rows
        ((2, 13), 10**4, 2 * 3 * 2),  # 3 chunks of 4,608 rows
    ], ids=["patterns_1x5", "chunks_2x13"])
    def test_risk_einsum_calls(self, shape, samples, calls, monkeypatch):
        # up to 12 items each (user, case) scores its click patterns in one
        # einsum, whatever the number of chunks; beyond, each chunk and case
        world = random_world(*shape, seed=185)
        model = model_for_world(world, seed=186)
        counted = count_calls(monkeypatch, np, "einsum")
        estimator_reports(world, model, [("upl",), ("ubpr",)], samples=samples, seed=187)
        assert counted == {"einsum": calls}

    def test_risks_do_not_depend_on_blas_threads(self, tmp_path):
        # a threaded BLAS splits each product by its shape; the short last
        # chunk (279 of 10,007 rows) moved a last bit of a risk between one
        # thread and two before it was padded to the full chunk's shape; this
        # process's BLAS runs with as many threads as the host gives it
        script = (
            "import sys\nimport numpy as np\nfrom uplrec import oracle\n"
            "world = oracle.random_world(20, 100, seed=180)\n"
            "model = oracle.model_for_world(world, seed=181)\n"
            "rep, = oracle.estimator_reports(world, model, [('ubpr_clipped', -1.0)], "
            "samples=10007, seed=182)\n"
            "np.save(sys.argv[1], rep.risks)\n")
        one_thread = dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                    "MKL_NUM_THREADS"), "1")
        env = {**os.environ, "PYTHONPATH": str(Path(oracle_mod.__file__).parents[1]),
               **one_thread}
        out = tmp_path / "risks.npy"
        done = subprocess.run([sys.executable, "-c", script, str(out)], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        world = random_world(20, 100, seed=180)
        model = model_for_world(world, seed=181)
        rep, = estimator_reports(world, model, [("ubpr_clipped", -1.0)], samples=10007,
                                 seed=182)
        assert np.array_equal(rep.risks, np.load(out))

    @pytest.mark.parametrize("cases", [[("ubpr",)], [(e,) for e in oracle_mod.ESTIMATORS]],
                             ids=["one", "four"])
    def test_draw_memory_does_not_grow_with_samples(self, cases):
        # only the (samples,) arrays grow: each case's risks and the one
        # temporary np.var makes of them; the draws stay in fixed chunks
        world = random_world(1, 5, seed=190)
        model = model_for_world(world, seed=191)
        peaks = []
        for samples in (10**5, 4 * 10**5):
            tracemalloc.start()
            try:
                estimator_reports(world, model, cases, samples, seed=192)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        added = (len(cases) + 1) * 3 * 10**5 * 8
        assert peaks[1] - peaks[0] <= 1.1 * added


# perfbench/layers.py wraps these by name and reads the leading arguments
# it names; a rename would silently zero its oracle counters.  An oracle
# workload that times estimator_reports reads its world, model and cases.
TRACED_ORACLE_FUNCTIONS = {
    "verification_suite": [],
    "estimator_reports": ["world", "model", "cases"],
    "sample_clicks": ["world", "samples", "seed"],
}


@pytest.mark.parametrize("name", sorted(TRACED_ORACLE_FUNCTIONS))
def test_traced_oracle_functions_exist(name):
    fn = getattr(oracle_mod, name, None)
    assert callable(fn), name
    leading = TRACED_ORACLE_FUNCTIONS[name]
    assert list(inspect.signature(fn).parameters)[:len(leading)] == leading
