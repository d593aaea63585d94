import hashlib
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from uplrec import trainer
from uplrec.errors import TrainingDivergedError
from uplrec.factor_model import FactorModel, TrainConfig, init_model
from uplrec.losses import LossSpec, pointwise_loss, sigmoid_pair_loss, upl_pair_weight
from uplrec.oracle import SyntheticWorld, ideal_risk
from uplrec.propensity import PropensityTable
from uplrec.trainer import (
    AdamState,
    _apply_pair_batch,
    _pair_weights,
    _scatter_rows,
    relevance_predictor,
    run_upl_pipeline,
    sample_batch,
    train,
)

from conftest import make_implicit


def model_checksum(model):
    h = hashlib.sha256()
    h.update(model.user_factors.tobytes())
    h.update(model.item_factors.tobytes())
    return h.hexdigest()


class TestAdam:
    def test_single_parameter_step_bound(self):
        # quadratic loss (x - 3)^2 at x=0: gradient -6; one Adam step moves
        # opposite the gradient with magnitude <= lr * (1 + tol)
        lr = 0.01
        model = FactorModel(np.zeros((1, 1)), np.zeros((1, 1)))
        adam = AdamState.for_model(model)
        grad = np.array([[2.0 * (0.0 - 3.0)]])
        adam.update(model, np.array([0]), grad, np.array([], dtype=int),
                    np.zeros((0, 1)), learning_rate=lr)
        moved = model.user_factors[0, 0]
        assert moved > 0  # opposite the negative gradient
        assert abs(moved) <= lr * 1.01

    def test_step_counter_monotone(self):
        model = init_model(2, 2, d=2, seed=0)
        adam = AdamState.for_model(model)
        rows = np.array([0])
        g = np.ones((1, 2))
        for expected in (1, 2, 3):
            adam.update(model, rows, g, rows, g, learning_rate=0.001)
            assert adam.step == expected


class TestSampleBatch:
    def test_forced_single_pair(self):
        # one click and a single other item: the only possible bpr pair
        ds = make_implicit(1, 2, [(0, 0, 1.0, 1)])
        rng = np.random.default_rng(0)
        batch = sample_batch(ds, "bpr", 8, rng)
        assert np.all(batch.u == 0)
        assert np.all(batch.i == 0)
        assert np.all(batch.j == 1)
        assert np.all(batch.c_j == 0)

    def test_exact_batch_size(self):
        ds = make_implicit(2, 5, [(u, i, 0.5, 1) for u in range(2) for i in range(2)])
        rng = np.random.default_rng(1)
        for method in ("bpr", "ubpr", "wmf"):
            assert len(sample_batch(ds, method, 256, rng)) == 256

    def test_ubpr_candidate_frequencies(self):
        # 11 items, 1 click on item 0: j uniform over the other 10 items
        ds = make_implicit(1, 11, [(0, 0, 1.0, 1)])
        rng = np.random.default_rng(2)
        draws = 100_000
        batch = sample_batch(ds, "ubpr", draws, rng)
        counts = np.bincount(batch.j, minlength=11)
        assert counts[0] == 0  # j != i
        p = 1 / 10
        sigma = math.sqrt(draws * p * (1 - p))
        for item in range(1, 11):
            assert abs(counts[item] - draws * p) < 3 * sigma

    def test_bpr_negatives_never_clicked(self):
        cells = [(0, i, 0.5, 1) for i in range(3)] + [(0, 3, 0.5, 0)]
        ds = make_implicit(1, 6, cells)
        rng = np.random.default_rng(3)
        batch = sample_batch(ds, "bpr", 2000, rng)
        assert not ds.is_clicked(batch.u, batch.j).any()

    def test_ubpr_candidates_include_clicked(self):
        cells = [(0, i, 0.5, 1) for i in range(5)] + [(0, 5, 0.5, 0)]
        ds = make_implicit(1, 6, cells)
        rng = np.random.default_rng(4)
        batch = sample_batch(ds, "ubpr", 2000, rng)
        assert batch.c_j.sum() > 0  # clicked candidates do occur

    def test_user_with_no_candidate_is_resampled(self):
        # user 0 clicked everything; only user 1's positives are usable
        cells = [(0, i, 0.9, 1) for i in range(3)] + \
                [(1, 0, 0.5, 1), (1, 1, 0.5, 0)]
        ds = make_implicit(2, 3, cells)
        rng = np.random.default_rng(5)
        batch = sample_batch(ds, "bpr", 500, rng)
        assert np.all(batch.u == 1)

    def test_pointwise_mix(self):
        cells = [(u, i, 0.5, 1) for u in range(3) for i in range(2)]
        ds = make_implicit(3, 8, cells)
        rng = np.random.default_rng(6)
        batch = sample_batch(ds, "relmf", 100, rng)
        assert len(batch) == 100
        exposed = ds.is_exposed(batch.u, batch.i)
        assert exposed.sum() == 50  # half exposed, half unexposed
        assert np.all(batch.c[~exposed] == 0)

    def test_ideal_method_samples_relevance_pairs(self):
        # ideal pairs: positive has rel=1, candidate is an exposed rel=0 cell
        cells = [(0, 0, 0.9, 1), (0, 1, 0.1, 0), (0, 2, 0.8, 1), (1, 0, 0.7, 1)]
        ds = make_implicit(2, 4, cells)
        rng = np.random.default_rng(11)
        batch = sample_batch(ds, "ideal", 300, rng)
        # user 1 has no exposed rel=0 cell, so all positives come from user 0
        assert np.all(batch.u == 0)
        assert set(np.unique(batch.i)) <= {0, 2}
        assert np.all(batch.j == 1)

    def test_gamma_hat_passthrough_clamped(self):
        ds = make_implicit(1, 4, [(0, 0, 1.0, 1)])
        model = FactorModel(np.full((1, 2), 50.0), np.full((4, 2), 50.0))
        gh = relevance_predictor(model)
        rng = np.random.default_rng(7)
        batch = sample_batch(ds, "upl", 50, rng, gamma_hat=gh)
        assert np.all(batch.gamma_hat_j <= 1 - 1e-6)
        assert np.all(batch.gamma_hat_j >= 1e-6)


class TestTrainLoop:
    def test_descent_on_frozen_batch(self, separable_dataset):
        config = TrainConfig(d=6, lam=0.0, learning_rate=1e-5, batch_size=4, seed=2)
        model = init_model(2, 4, d=6, seed=2, scale=0.1)
        adam = AdamState.for_model(model)
        rng = np.random.default_rng(3)
        batch = sample_batch(separable_dataset, "bpr", 16, rng)

        def batch_loss(m):
            s_i = np.sum(m.user_factors[batch.u] * m.item_factors[batch.i], axis=1)
            s_j = np.sum(m.user_factors[batch.u] * m.item_factors[batch.j], axis=1)
            loss, _, _ = sigmoid_pair_loss(s_i, s_j)
            return float(np.mean(loss))

        before = batch_loss(model)
        _apply_pair_batch(model, adam, batch, LossSpec("bpr"), config)
        assert batch_loss(model) < before

    def test_determinism_same_seed(self, separable_dataset):
        config = TrainConfig(d=4, lam=1e-5, learning_rate=0.01, batch_size=2,
                             max_epochs=20, seed=9)
        a = train(separable_dataset, config, LossSpec("bpr"))
        b = train(separable_dataset, config, LossSpec("bpr"))
        assert model_checksum(a.final_model) == model_checksum(b.final_model)

    def test_large_lambda_shrinks_norms(self, separable_dataset):
        norms = []
        for epochs in (1, 2, 3, 4):
            config = TrainConfig(d=4, lam=1e3, learning_rate=0.001, batch_size=2,
                                 max_epochs=epochs, seed=4)
            run = train(separable_dataset, config, LossSpec("bpr"))
            m = run.final_model
            norms.append(np.linalg.norm(m.user_factors) + np.linalg.norm(m.item_factors))
        assert all(a > b for a, b in zip(norms, norms[1:]))

    def test_separable_world_ranking(self, separable_dataset):
        config = TrainConfig(d=8, lam=0.0, learning_rate=0.05, batch_size=4,
                             max_epochs=300, seed=3)
        run = train(separable_dataset, config, LossSpec("bpr"))
        scores = run.final_model.score_matrix()
        relevant = {0: [0, 1], 1: [2, 3]}
        for u, rel_items in relevant.items():
            irr = [i for i in range(4) if i not in rel_items]
            assert min(scores[u, i] for i in rel_items) > max(scores[u, j] for j in irr)

    def test_divergence_raises(self, separable_dataset):
        config = TrainConfig(d=4, lam=0.0, learning_rate=1e200, batch_size=4,
                             max_epochs=20, seed=1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(TrainingDivergedError):
                train(separable_dataset, config, LossSpec("bpr"))

    def test_gamma_hat_exactly_for_upl(self, separable_dataset):
        config = TrainConfig(d=4, max_epochs=1, seed=0)
        with pytest.raises(ValueError):
            train(separable_dataset, config, LossSpec("upl"))  # missing gamma_hat
        with pytest.raises(ValueError):
            train(separable_dataset, config, LossSpec("bpr"),
                  gamma_hat=lambda u, i: np.zeros(len(np.atleast_1d(u))))

    def test_early_stopping_uses_patience(self):
        rng = np.random.default_rng(8)
        cells = [(u, i, 0.6, int(rng.random() < 0.6))
                 for u in range(12) for i in range(10)]
        ds = make_implicit(12, 10, cells)
        val_cells = [(u, i, 0.6, int(rng.random() < 0.6))
                     for u in range(12) for i in range(10, 12)]
        val = make_implicit(12, 12, val_cells)
        ds12 = make_implicit(12, 12, cells)
        config = TrainConfig(d=4, lam=0.0, learning_rate=0.01, batch_size=16,
                             max_epochs=200, patience=3, seed=5)
        run = train(ds12, config, LossSpec("bpr"), validation=val)
        assert run.epochs_trained < 200
        assert len(run.validation_curve) == run.epochs_trained
        assert run.best_epoch >= 0
        # the returned snapshot is from the best epoch, not the last one
        assert run.validation_curve[run.best_epoch] == max(run.validation_curve)


class TestUplPipeline:
    def _exposed_everything(self, seed=0, num_users=24, num_items=12):
        # theta = 1 world: every cell exposed, checkerboard relevance whose
        # logit is rank-1, so a low-d model can recover gamma itself rather
        # than memorize the binary draws
        rng = np.random.default_rng(seed)
        cells = []
        for u in range(num_users):
            for i in range(num_items):
                gamma = 0.9 if (u + i) % 2 == 0 else 0.1
                cells.append((u, i, gamma, int(rng.random() < gamma)))
        return make_implicit(num_users, num_items, cells)

    def test_relmf_recovers_relevance(self):
        ds = self._exposed_everything()
        # d=1 represents the rank-1 checkerboard logit exactly; the L2 weight
        # keeps scores off the saturation regime so gamma is recovered
        # instead of the binary draws
        config = TrainConfig(d=1, lam=1e-2, learning_rate=0.05, batch_size=32,
                             max_epochs=200, seed=6)
        run = train(ds, config, LossSpec("relmf"))
        gh = relevance_predictor(run.final_model)
        est = gh(ds.users, ds.items)
        assert np.mean(np.abs(est - ds.gamma)) < 0.1

    def test_pipeline_determinism_and_clamping(self):
        ds = self._exposed_everything(seed=1)
        pt = PropensityTable.from_click_counts(ds.item_click_counts)
        config = TrainConfig(d=4, lam=1e-5, learning_rate=0.01, batch_size=32,
                             max_epochs=5, seed=7)
        a = run_upl_pipeline(ds, config, config, pt)
        b = run_upl_pipeline(ds, config, config, pt)
        assert model_checksum(a.final_model) == model_checksum(b.final_model)
        assert a.loss_spec.method == "upl"


class TestMinibatchRiskMatchesIdeal:
    def test_upl_minibatch_estimate_unbiased(self):
        """Scaled mini-batch upl losses over fresh click draws average to the
        exact ideal risk of the world (the estimator + sampler combination
        is unbiased end to end)."""
        theta = np.array([[0.6, 0.45, 0.7]])
        gamma = np.array([[0.55, 0.35, 0.65]])
        world = SyntheticWorld(theta=theta, gamma=gamma)
        model = init_model(1, 3, d=4, seed=11, scale=0.8)
        ideal = ideal_risk(world, model)
        num_items = 3
        batch_size = 2
        prop = PropensityTable(theta_click=theta[0], theta_nonclick=1 - theta[0])

        def gamma_hat(users, items):
            return gamma[0][np.asarray(items)]

        # pre-build a dataset per click pattern; draws select patterns i.i.d.
        datasets = {}
        for pattern in itertools.product((0, 1), repeat=num_items):
            if sum(pattern) == 0:
                datasets[pattern] = None  # empty risk
                continue
            cells = [(0, i, gamma[0, i], pattern[i]) for i in range(num_items)]
            datasets[pattern] = make_implicit(1, num_items, cells)

        rng = np.random.default_rng(123)
        draws = 100_000
        click_prob = (theta * gamma)[0]
        patterns = rng.random((draws, num_items)) < click_prob

        uf, itf = model.user_factors, model.item_factors
        estimates = np.zeros(draws)
        for k in range(draws):
            pattern = tuple(int(x) for x in patterns[k])
            n_clicks = sum(pattern)
            if n_clicks == 0 or n_clicks == num_items:
                # no (c_i=1, c_j=0) pair exists: the full-batch risk is 0
                estimates[k] = 0.0
                continue
            ds = datasets[pattern]
            batch = sample_batch(ds, "upl", batch_size, rng,
                                 propensities=prop, gamma_hat=gamma_hat)
            s_i = np.sum(uf[batch.u] * itf[batch.i], axis=1)
            s_j = np.sum(uf[batch.u] * itf[batch.j], axis=1)
            loss, _, _ = sigmoid_pair_loss(s_i, s_j)
            w = upl_pair_weight(batch.theta_i, batch.theta_j, batch.gamma_hat_j)
            neg_count = num_items - n_clicks
            # scale back to the full pair sum: positives and candidates are
            # each drawn uniformly, so multiply by the pool sizes
            estimates[k] = n_clicks * neg_count * float(np.mean(w * loss))

        se = estimates.std(ddof=1) / math.sqrt(draws)
        assert abs(estimates.mean() - ideal) < 3 * se


# ---------------------------------------------------------------------------
# The gradient scatter and the training step against the np.add.at reference


def _reference_scatter(index, rows):
    uu, inv = np.unique(index, return_inverse=True)
    out = np.zeros((len(uu), rows.shape[1]))
    np.add.at(out, inv, rows)
    return uu, out


@st.composite
def _scatter_inputs(draw):
    n = draw(st.integers(1, 40))
    d = draw(st.integers(1, 4))
    if draw(st.booleans()):  # heavy duplicates
        index = draw(hnp.arrays(np.int64, n, elements=st.integers(0, 2)))
    else:  # all distinct
        index = np.array(draw(st.permutations(range(n))), dtype=np.int64)
    # magnitudes far apart make the sum depend on the order of the adds
    values = st.one_of(st.just(-0.0), st.floats(-1e12, 1e12))
    rows = draw(hnp.arrays(np.float64, (n, d), elements=values))
    return index, rows


class TestScatterRows:
    @given(_scatter_inputs())
    @example((np.array([7]), np.array([[-0.0, 2.5]])))
    @example((np.array([3, 3, 1]), np.full((3, 2), -0.0)))
    def test_bit_identical_to_add_at(self, inputs):
        index, rows = inputs
        keys, sums = _scatter_rows(index, rows)
        ref_keys, ref_sums = _reference_scatter(index, rows)
        assert np.array_equal(keys, ref_keys)
        assert np.array_equal(sums, ref_sums)
        assert sums.dtype == ref_sums.dtype and sums.shape == ref_sums.shape
        assert sums.tobytes() == ref_sums.tobytes()  # the sign of zero too

    def test_empty_index(self):
        keys, sums = _scatter_rows(np.empty(0, dtype=np.int64), np.empty((0, 3)))
        assert keys.shape == (0,)
        assert sums.shape == (0, 3)


def _reference_adam_update(adam, model, user_rows, user_grads, item_rows, item_grads,
                           learning_rate):
    """AdamState.update as it was with np.add.at: three reads of m and v."""
    adam.step += 1
    bc1 = 1.0 - adam.beta1**adam.step
    bc2 = 1.0 - adam.beta2**adam.step
    for param, m, v, rows, grads in (
        (model.user_factors, adam.user_m, adam.user_v, user_rows, user_grads),
        (model.item_factors, adam.item_m, adam.item_v, item_rows, item_grads),
    ):
        if len(rows) == 0:
            continue
        m[rows] = adam.beta1 * m[rows] + (1.0 - adam.beta1) * grads
        v[rows] = adam.beta2 * v[rows] + (1.0 - adam.beta2) * grads**2
        param[rows] -= learning_rate * (m[rows] / bc1) / (np.sqrt(v[rows] / bc2) + adam.eps)


def _reference_pair_batch(model, adam, batch, spec, config):
    m = len(batch)
    pu = model.user_factors[batch.u]
    qi = model.item_factors[batch.i]
    qj = model.item_factors[batch.j]
    s_i = np.sum(pu * qi, axis=1)
    s_j = np.sum(pu * qj, axis=1)
    loss, dsi, dsj = sigmoid_pair_loss(s_i, s_j)
    terms, gf = _pair_weights(spec, batch, loss)
    lam = config.lam

    reg = np.sum(pu**2, axis=1) + np.sum(qi**2, axis=1) + np.sum(qj**2, axis=1)
    batch_loss = float(np.mean(terms) + lam * np.mean(reg))

    gi = gf * dsi
    gj = gf * dsj
    gu_rows = (gi[:, None] * qi + gj[:, None] * qj + 2.0 * lam * pu) / m
    gqi_rows = (gi[:, None] * pu + 2.0 * lam * qi) / m
    gqj_rows = (gj[:, None] * pu + 2.0 * lam * qj) / m

    uu, inv_u = np.unique(batch.u, return_inverse=True)
    gu = np.zeros((len(uu), model.d))
    np.add.at(gu, inv_u, gu_rows)

    all_items = np.concatenate([batch.i, batch.j])
    ii, inv_i = np.unique(all_items, return_inverse=True)
    gq = np.zeros((len(ii), model.d))
    np.add.at(gq, inv_i, np.concatenate([gqi_rows, gqj_rows]))

    _reference_adam_update(adam, model, uu, gu, ii, gq, config.learning_rate)
    return batch_loss


def _reference_point_batch(model, adam, batch, spec, config):
    m = len(batch)
    pu = model.user_factors[batch.u]
    qi = model.item_factors[batch.i]
    s = np.sum(pu * qi, axis=1)
    kwargs = {}
    if spec.method == "wmf":
        kwargs["weight"] = spec.wmf_weight
    loss, ds = pointwise_loss(spec.method, batch.c, s,
                              theta_click=batch.theta_click,
                              theta_nonclick=batch.theta_nonclick, **kwargs)
    lam = config.lam
    reg = np.sum(pu**2, axis=1) + np.sum(qi**2, axis=1)
    batch_loss = float(np.mean(loss) + lam * np.mean(reg))

    gu_rows = (ds[:, None] * qi + 2.0 * lam * pu) / m
    gq_rows = (ds[:, None] * pu + 2.0 * lam * qi) / m
    uu, inv_u = np.unique(batch.u, return_inverse=True)
    gu = np.zeros((len(uu), model.d))
    np.add.at(gu, inv_u, gu_rows)
    ii, inv_i = np.unique(batch.i, return_inverse=True)
    gq = np.zeros((len(ii), model.d))
    np.add.at(gq, inv_i, gq_rows)

    _reference_adam_update(adam, model, uu, gu, ii, gq, config.learning_rate)
    return batch_loss


class TestStepMatchesReference:
    @pytest.mark.parametrize("method", ["bpr", "ubpr_clipped", "relmf", "upl"])
    def test_final_factors_bit_identical(self, method, monkeypatch):
        # partial exposure, so the pointwise epoch samples unexposed cells and
        # every batch of 32 repeats users and items
        rng = np.random.default_rng(21)
        cells = [(u, i, 0.5, int(rng.random() < 0.5))
                 for u in range(20) for i in range(15) if rng.random() < 0.6]
        ds = make_implicit(20, 15, cells)
        pt = PropensityTable.from_click_counts(ds.item_click_counts)
        config = TrainConfig(d=8, lam=1e-3, learning_rate=0.01, batch_size=32,
                             max_epochs=3, seed=4)
        spec = LossSpec(method, clip_threshold=0.0 if method == "ubpr_clipped" else None)

        def trained():
            if method == "upl":
                return run_upl_pipeline(ds, config, config, pt).final_model
            return train(ds, config, spec, pt).final_model

        fast = trained()
        calls = []

        def counted(reference):
            def step(*args):
                calls.append(reference)
                return reference(*args)
            return step

        monkeypatch.setattr(trainer, "_apply_pair_batch", counted(_reference_pair_batch))
        monkeypatch.setattr(trainer, "_apply_point_batch", counted(_reference_point_batch))
        slow = trained()
        assert calls  # the reference really ran
        assert np.array_equal(fast.user_factors, slow.user_factors)
        assert np.array_equal(fast.item_factors, slow.item_factors)
