import itertools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import uplrec.oracle as oracle_mod
from uplrec.errors import EnumerationBoundError
from uplrec.factor_model import FactorModel
from uplrec.oracle import (
    SyntheticWorld,
    clip_bias_world,
    closed_form_variance_upl,
    exact_expectation,
    ideal_risk,
    low_exposure_worlds,
    mc_bias_variance,
    model_for_world,
    parse_world_spec,
    random_world,
    unbiasedness_suite,
    variance_order_test,
    verification_suite,
    write_world_spec,
)

LN2 = math.log(2.0)
DEFAULT_CHUNK = oracle_mod._CHUNK
BUNDLED_WORLD_FILES = sorted((Path(__file__).resolve().parents[1] / "worlds").glob("*.txt"))


def pair_logloss(si, sj):
    return math.log(1.0 + math.exp(-(si - sj)))


def brute_force_ideal(world, model):
    """Independent pair-sum oracle (pure python, no package calls)."""
    scores = model.score_matrix()
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
    scores = model.score_matrix().ravel()
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

    def test_spec_round_trip(self, tmp_path):
        world = random_world(2, 3, seed=4)
        path = tmp_path / "world.txt"
        write_world_spec(world, path)
        back = parse_world_spec(path)
        assert np.array_equal(back.theta, world.theta)
        assert np.array_equal(back.gamma, world.gamma)

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
        base = ideal_risk(world, model)
        perm = [2, 0, 3, 1]
        world_p = SyntheticWorld(theta=world.theta[:, perm], gamma=world.gamma[:, perm])
        model_p = FactorModel(model.user_factors, model.item_factors[perm])
        assert ideal_risk(world_p, model_p) == pytest.approx(base, rel=1e-12)

    def test_near_degenerate_probabilities(self):
        # gamma -> (1, 0) at equal scores: risk -> 1 * 1 * ln 2
        eps = 1e-12
        world = SyntheticWorld(theta=np.array([[0.5, 0.5]]),
                               gamma=np.array([[1 - eps, eps]]))
        model = FactorModel(np.zeros((1, 2)), np.zeros((2, 2)))
        assert ideal_risk(world, model) == pytest.approx(LN2, abs=1e-9)

    def test_matches_independent_brute_force(self):
        world = SyntheticWorld(theta=np.array([[0.4, 0.6, 0.8]]),
                               gamma=np.array([[0.9, 0.5, 0.1]]))
        model = model_for_world(world, seed=11)
        assert ideal_risk(world, model) == pytest.approx(
            brute_force_ideal(world, model), rel=1e-12)


class TestExactExpectation:
    def test_upl_unbiased(self):
        for k in range(4):
            world = random_world(1, 4, seed=30 + k)
            model = model_for_world(world, seed=40 + k)
            assert exact_expectation(world, model, "upl") == pytest.approx(
                ideal_risk(world, model), abs=1e-10)

    def test_ubpr_unbiased_with_true_theta(self):
        for k in range(4):
            world = random_world(2, 3, seed=50 + k)
            model = model_for_world(world, seed=60 + k)
            assert exact_expectation(world, model, "ubpr") == pytest.approx(
                ideal_risk(world, model), abs=1e-10)

    def test_clipping_introduces_positive_bias(self):
        world = clip_bias_world()
        model = model_for_world(world, seed=2)
        clipped = exact_expectation(world, model, "ubpr_clipped", clip_threshold=0.0)
        assert clipped - ideal_risk(world, model) > 1e-3

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

        for estimator, term in (("upl", upl_term), ("ubpr", ubpr_term),
                                ("ubpr_clipped", clipped_term), ("bpr", bpr_term)):
            expected = brute_force_expectation(world, model, term)
            assert exact_expectation(world, model, estimator) == pytest.approx(
                expected, abs=1e-12)

    def test_perturbed_gamma_hat_mode_induces_bias(self):
        world = random_world(1, 4, seed=80)
        model = model_for_world(world, seed=81)
        ideal = ideal_risk(world, model)
        exact_true = exact_expectation(world, model, "upl")
        perturbed = np.clip(world.gamma + 0.3, 0.01, 0.95)
        exact_pert = exact_expectation(world, model, "upl", gamma_hat=perturbed)
        assert abs(exact_true - ideal) < 1e-10
        assert abs(exact_pert - ideal) > 1e-3

    def test_enumeration_bound(self):
        world = random_world(1, 11, seed=90)  # 11 cells
        model = model_for_world(world, seed=91)
        with pytest.raises(EnumerationBoundError, match="11"):
            exact_expectation(world, model, "upl")

    def test_chunk_partition_order_independent(self, monkeypatch):
        # the outcome range is reduced in chunks; the partition must not
        # change the result beyond compensated-summation noise
        world = random_world(2, 4, seed=95)  # 8 cells -> 65536 outcomes
        model = model_for_world(world, seed=96)
        values = []
        for chunk in (1 << 16, 1 << 10, 977):  # incl. a non-power-of-two
            monkeypatch.setattr(oracle_mod, "_CHUNK", chunk)
            values.append(exact_expectation(world, model, "ubpr"))
        assert max(values) - min(values) < 1e-12


class TestMonteCarlo:
    def test_sample_floor(self):
        world = random_world(1, 3, seed=5)
        model = model_for_world(world, seed=6)
        with pytest.raises(ValueError):
            mc_bias_variance(world, model, "upl", samples=100, seed=0)

    def test_degenerate_single_cell_estimator_is_constant_zero(self):
        # a 1-cell world has no pairs, so every estimator is identically 0
        world = SyntheticWorld(theta=np.array([[0.5]]), gamma=np.array([[0.5]]))
        model = model_for_world(world, seed=1)
        rep = mc_bias_variance(world, model, "upl", samples=10**4, seed=2)
        assert rep.mc_variance == 0.0
        assert rep.mc_mean == 0.0

    def test_mc_mean_consistent_with_exact(self):
        world = random_world(1, 5, seed=100)
        model = model_for_world(world, seed=101)
        for estimator in ("upl", "ubpr", "bpr"):
            rep = mc_bias_variance(world, model, estimator, samples=10**5, seed=102)
            assert abs(rep.exact_expectation - rep.mc_mean) < 4 * rep.mc_se

    def test_variance_ordering_low_exposure(self):
        name, world = low_exposure_worlds(count=1)[0]
        model = model_for_world(world, seed=7)
        var_ubpr, var_upl, p = variance_order_test(world, model, "ubpr", "upl",
                                                   samples=10**4, seed=8)
        assert var_ubpr > var_upl
        assert p < 0.01


class TestClosedFormVariance:
    def test_single_cell_world_is_zero(self):
        world = SyntheticWorld(theta=np.array([[0.5]]), gamma=np.array([[0.5]]))
        model = model_for_world(world, seed=1)
        assert closed_form_variance_upl(world, model) == 0.0

    def test_two_cell_world_hand_evaluated(self):
        # only the first sum contributes (triples need >= 3 items); evaluate
        # its two ordered-pair terms by hand
        theta = np.array([[0.4, 0.7]])
        gamma = np.array([[0.6, 0.2]])
        world = SyntheticWorld(theta=theta, gamma=gamma)
        model = model_for_world(world, seed=3)
        s = model.score_matrix()[0]

        def first_sum_term(i, j):
            L = pair_logloss(s[i], s[j])
            return ((1 / theta[0, i] - gamma[0, i]) * gamma[0, i]
                    * (1 - gamma[0, j]) ** 2 * L**2
                    / (1 - theta[0, j] * gamma[0, j]) ** 2)

        expected = first_sum_term(0, 1) + first_sum_term(1, 0)
        assert closed_form_variance_upl(world, model) == pytest.approx(
            expected, rel=1e-12)

    def test_ratio_to_mc_variance_recorded(self):
        # diagnostic only: the closed form holds every candidate unclicked,
        # so it is not the estimator's variance; record the ratio
        world = random_world(1, 5, seed=110)
        model = model_for_world(world, seed=111)
        rep = mc_bias_variance(world, model, "upl", samples=10**4, seed=112)
        ratio = rep.closed_form_variance / rep.mc_variance
        assert math.isfinite(ratio) and ratio > 0

    WORLDS = [((1, 3), 1), ((1, 5), 2), ((2, 4), 3), ((1, 8), 4)]

    @staticmethod
    def _world(shape, seed):
        world = random_world(*shape, seed=seed)
        return world, model_for_world(world, seed=seed + 10)

    @staticmethod
    def _candidate_weight(world, u, j):
        return (1 - world.gamma[u, j]) / (1 - world.theta[u, j] * world.gamma[u, j])

    @pytest.mark.parametrize("shape, seed", WORLDS)
    def test_equals_variance_with_candidates_unclicked(self, shape, seed):
        # sum_i (1/theta_i - gamma_i) gamma_i A_i^2, with A_i the sum over
        # j != i of (1 - gamma_j) / (1 - theta_j gamma_j) L_ij: the variance
        # of sum_i (c_i / theta_i) A_i over independent c_i ~ Bern(theta_i gamma_i)
        world, model = self._world(shape, seed)
        s, th, ga = model.score_matrix(), world.theta, world.gamma
        terms = []
        for u in range(world.num_users):
            for i in range(world.num_items):
                a = math.fsum(self._candidate_weight(world, u, j) * pair_logloss(s[u, i], s[u, j])
                              for j in range(world.num_items) if j != i)
                terms.append((1 / th[u, i] - ga[u, i]) * ga[u, i] * a * a)
        assert closed_form_variance_upl(world, model) == pytest.approx(math.fsum(terms),
                                                                       rel=1e-12)

    @pytest.mark.parametrize("shape, seed", WORLDS)
    def test_exceeds_exact_variance(self, shape, seed):
        # the exact variance of upl's full-batch risk, over every click
        # vector weighted by prod (theta gamma)^c (1 - theta gamma)^(1 - c)
        world, model = self._world(shape, seed)
        s, th, ga = model.score_matrix(), world.theta, world.gamma
        cells = list(itertools.product(range(world.num_users), range(world.num_items)))
        probs, values = [], []
        for clicks in itertools.product((0, 1), repeat=len(cells)):
            c = dict(zip(cells, clicks))
            probs.append(math.prod(th[k] * ga[k] if c[k] else 1 - th[k] * ga[k]
                                   for k in cells))
            values.append(math.fsum(
                self._candidate_weight(world, u, j) / th[u, i] * pair_logloss(s[u, i], s[u, j])
                for (u, i), (v, j) in itertools.product(cells, cells)
                if u == v and i != j and c[u, i] and not c[u, j]))
        mean = math.fsum(p * v for p, v in zip(probs, values))
        exact = math.fsum(p * (v - mean) ** 2 for p, v in zip(probs, values))
        # the same enumeration gives the oracle's exact expectation
        assert mean == pytest.approx(exact_expectation(world, model, "upl"), rel=1e-12)
        assert 1.3 < closed_form_variance_upl(world, model) / exact < 2.8


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
# The click-vector enumeration against the 4^n outcome loop it replaced


def reference_exact_expectation(world, model, estimator, clip_threshold=0.0,
                                gamma_hat=None):
    """The previous exact_expectation: every chunk of the 4^n outcome index
    builds its probabilities and click rows cell by cell and evaluates the
    estimator on every row."""
    n = world.num_cells
    est = oracle_mod._FullBatchEstimator(world, model, estimator, clip_threshold, gamma_hat)
    theta = world.theta.ravel()
    gamma = world.gamma.ravel()
    total_outcomes = 4**n
    partials = []
    for start in range(0, total_outcomes, oracle_mod._CHUNK):
        idx = np.arange(start, min(start + oracle_mod._CHUNK, total_outcomes), dtype=np.int64)
        prob = np.ones(len(idx))
        clicks = np.empty((len(idx), n))
        for k in range(n):
            o = (idx >> (2 * k)) & 1
            r = (idx >> (2 * k + 1)) & 1
            prob *= np.where(o == 1, theta[k], 1.0 - theta[k])
            prob *= np.where(r == 1, gamma[k], 1.0 - gamma[k])
            clicks[:, k] = o & r
        partials.append(float(prob @ est.evaluate(clicks)))
    return math.fsum(partials)


def batch_invariant(evaluate):
    """``evaluate`` with each row read off one evaluation of all 2^n click
    vectors.  BLAS may round the last rows of a batch whose length is not a
    multiple of its block through another kernel, so the reference loop's
    values can move in the last bit with a chunk such as 977; this wrapper
    pins them to the values of full batches."""
    def wrapped(self, clicks):
        n = clicks.shape[1]
        codes = np.arange(1 << n, dtype=np.int64)
        table = evaluate(self, ((codes[:, None] >> np.arange(n)) & 1).astype(np.float64))
        return table[clicks.astype(np.int64) @ (1 << np.arange(n, dtype=np.int64))]
    return wrapped


@st.composite
def exact_cases(draw):
    chunk = draw(st.sampled_from((DEFAULT_CHUNK, 1 << 10, 977, 1)))
    max_cells = 5 if chunk == 1 else 8  # one chunk per outcome: keep 4^n small
    users = draw(st.integers(1, 2))
    items = draw(st.integers(1, max_cells // users))
    world = random_world(users, items, seed=draw(st.integers(0, 2**16)))
    model = model_for_world(world, seed=draw(st.sampled_from((1234, 0, 3))))
    estimator = draw(st.sampled_from(oracle_mod.ESTIMATORS))
    clip = draw(st.sampled_from((0.0, -0.5)))
    gamma_hat = None
    if draw(st.booleans()):
        gamma_hat = np.clip(world.gamma + draw(st.sampled_from((-0.2, 0.1, 0.3))),
                            0.01, 0.95)
    return chunk, world, model, estimator, clip, gamma_hat


def _old_pair_index(world):
    n_items = world.num_items
    p_idx, q_idx = [], []
    for u in range(world.num_users):
        base = u * n_items
        for i in range(n_items):
            for j in range(n_items):
                if i != j:
                    p_idx.append(base + i)
                    q_idx.append(base + j)
    return np.asarray(p_idx, dtype=np.int64), np.asarray(q_idx, dtype=np.int64)


def _old_closed_form_variance_upl(world, model):
    scores = model.score_matrix()
    total = 0.0
    for u in range(world.num_users):
        s = scores[u]
        th, ga = world.theta[u], world.gamma[u]
        n = world.num_items
        L = np.empty((n, n))
        for i in range(n):
            L[i], _, _ = oracle_mod.sigmoid_pair_loss(s[i], s)
        lead = (1.0 / th - ga) * ga
        w = (1.0 - ga) / (1.0 - th * ga)
        for i in range(n):
            others = [j for j in range(n) if j != i]
            wl = np.array([w[j] * L[i, j] for j in others])
            total += lead[i] * float(np.sum(wl**2))
            total += lead[i] * float(np.sum(wl) ** 2 - np.sum(wl**2))
    return total


def _bundled_and_suite_worlds():
    worlds = [w for _, w in unbiasedness_suite(count=20)]
    worlds += [clip_bias_world()] + [w for _, w in low_exposure_worlds()]
    worlds += [parse_world_spec(path) for path in BUNDLED_WORLD_FILES]
    return worlds


def _fixed_case(chunk, shape, seed, estimator):
    world = random_world(*shape, seed=seed)
    return chunk, world, model_for_world(world, seed=1234), estimator, 0.0, None


class TestExactMatchesReference:
    @settings(max_examples=30)
    @given(exact_cases())
    @example(_fixed_case(977, (2, 4), 0, "ubpr"))  # chunks that span outcome blocks
    def test_bit_identical_to_outcome_loop(self, case):
        chunk, world, model, estimator, clip, gamma_hat = case
        real = oracle_mod._FullBatchEstimator.evaluate
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oracle_mod, "_CHUNK", chunk)
            if chunk % 4:
                mp.setattr(oracle_mod._FullBatchEstimator, "evaluate", batch_invariant(real))
            fast = exact_expectation(world, model, estimator, clip, gamma_hat)
            slow = reference_exact_expectation(world, model, estimator, clip, gamma_hat)
        assert fast == slow

    @pytest.mark.parametrize("shape,estimator,clip,perturbed", [
        ((1, 9), "upl", 0.0, False),
        ((2, 5), "ubpr_clipped", -0.5, True),
    ])
    def test_bit_identical_at_nine_and_ten_cells(self, shape, estimator, clip, perturbed):
        world = random_world(*shape, seed=sum(shape))
        model = model_for_world(world, seed=1234)
        gamma_hat = np.clip(world.gamma + 0.1, 0.01, 0.95) if perturbed else None
        assert exact_expectation(world, model, estimator, clip, gamma_hat) == \
            reference_exact_expectation(world, model, estimator, clip, gamma_hat)

    def test_verification_suite_rows_unchanged(self, monkeypatch):
        fast = verification_suite(samples=10**4, suite_count=10)
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[2])
            return reference_exact_expectation(*args, **kwargs)

        monkeypatch.setattr(oracle_mod, "exact_expectation", counted)
        slow = verification_suite(samples=10**4, suite_count=10)
        assert len(calls) == 2 * 10 + 1 + len(oracle_mod.ESTIMATORS)  # the reference ran
        assert fast == slow

    def test_pair_index_matches_loop(self):
        for shape in ((1, 1), (3, 1), (1, 2), (2, 4), (3, 3), (1, 10)):
            world = random_world(*shape, seed=1)
            for new, old in zip(oracle_mod._pair_index(world), _old_pair_index(world)):
                assert new.dtype == old.dtype and np.array_equal(new, old)

    def test_closed_form_variance_matches_loop(self):
        for k, world in enumerate(_bundled_and_suite_worlds()):
            model = model_for_world(world, seed=1234 + k)
            assert closed_form_variance_upl(world, model) == \
                _old_closed_form_variance_upl(world, model)
