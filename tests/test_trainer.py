import hashlib
import itertools
import math
import warnings
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from uplrec import trainer
from uplrec.errors import TrainingDivergedError
from uplrec.evaluation import validation_dcg
from uplrec.factor_model import FactorModel, TrainConfig, init_model
from uplrec.losses import (
    GAMMA_HAT_MAX,
    GAMMA_HAT_MIN,
    LossSpec,
    pair_weights,
    pointwise_loss,
    sigmoid,
    sigmoid_pair_loss,
)
from uplrec.oracle import estimator_reports, model_for_world, random_world
from uplrec.propensity import PropensityTable
from uplrec.trainer import (
    AdamState,
    _pair_batches,
    _point_batches,
    _sample_j,
    _scatter_rows,
    relevance_predictor,
    stage_spec,
    train,
    train_key,
)

from conftest import make_implicit, score_matrix


def model_checksum(model):
    h = hashlib.sha256()
    h.update(model.user_factors.tobytes())
    h.update(model.item_factors.tobytes())
    return h.hexdigest()


def estimated(ds):
    """The propensity table every command estimates from a split's clicks."""
    return PropensityTable.from_click_counts(ds.item_click_counts)


def draw_validation(rng, num_users, num_items, share=0.3):
    """A validation split drawn after a train split's cells: each cell
    exposed with probability ``share`` and clicked with probability 0.5."""
    return make_implicit(num_users, num_items,
                         [(u, i, 0.5, int(rng.random() < 0.5)) for u in range(num_users)
                          for i in range(num_items) if rng.random() < share])


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


def _pair_epoch_batches(ds, batch_size, epochs=1, seed=0, theta=None, gamma_hat=None):
    """The batches that pairwise epochs yield, each with the ``pair_weights``
    inputs bound into its objective."""
    rng = np.random.default_rng(seed)
    theta = np.ones(ds.num_items) if theta is None else theta
    batches = []
    for _ in range(epochs):
        for u, (i, j), objective in _pair_batches(ds, None, batch_size, theta, gamma_hat, rng):
            _, c_j, theta_i, theta_j, gamma_hat_j = objective.args
            batches.append(SimpleNamespace(u=u, i=i, j=j, c_j=c_j, theta_i=theta_i,
                                           theta_j=theta_j, gamma_hat_j=gamma_hat_j))
    return batches


def _pair_terms(spec, batches):
    """pair_weights on the concatenated batches, with unit losses."""
    c_j, theta_i, theta_j, gamma_j = (np.concatenate([getattr(b, f) for b in batches])
                                      for f in ("c_j", "theta_i", "theta_j", "gamma_hat_j"))
    return c_j, pair_weights(spec, c_j, theta_i, theta_j, gamma_j, np.ones(len(c_j)))


class TestSampleBatch:
    def test_forced_single_pair(self):
        # one click and a single other item: the only possible pair
        ds = make_implicit(1, 2, [(0, 0, 1.0, 1)])
        for batch in _pair_epoch_batches(ds, batch_size=4, epochs=8):
            assert np.all(batch.u == 0)
            assert np.all(batch.i == 0)
            assert np.all(batch.j == 1)
            assert np.all(batch.c_j == 0)

    def test_exact_batch_size(self):
        # an epoch draws every positive once: full batches, then the rest
        ds = make_implicit(2, 5, [(u, i, 0.5, 1) for u in range(2) for i in range(2)])
        batches = _pair_epoch_batches(ds, batch_size=3)
        assert [len(b.u) for b in batches] == [3, 1]
        pairs = sorted(zip(np.concatenate([b.u for b in batches]).tolist(),
                           np.concatenate([b.i for b in batches]).tolist()))
        assert pairs == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_ubpr_candidate_frequencies(self):
        # 11 items, 1 click on item 0: every pairwise method takes j uniform
        # over the other 10 items
        ds = make_implicit(1, 11, [(0, 0, 1.0, 1)])
        rng = np.random.default_rng(2)
        draws = 100_000
        j = _sample_j(np.zeros(draws, dtype=np.int64), 11, rng)
        counts = np.bincount(j, minlength=11)
        assert counts[0] == 0  # j != i
        p = 1 / 10
        sigma = math.sqrt(draws * p * (1 - p))
        for item in range(1, 11):
            assert abs(counts[item] - draws * p) < 3 * sigma

    @pytest.mark.parametrize("method", ["bpr", "upl"])
    def test_clicked_candidates_weigh_zero(self, method):
        cells = [(0, i, 0.5, 1) for i in range(3)] + [(0, 3, 0.5, 0)]
        ds = make_implicit(1, 6, cells)
        batches = _pair_epoch_batches(ds, batch_size=2, epochs=200, seed=3)
        c_j, (terms, gf) = _pair_terms(LossSpec(method), batches)
        assert 0 < c_j.sum() < len(c_j)  # clicked candidates are drawn
        assert np.all(terms[c_j == 1] == 0) and np.all(gf[c_j == 1] == 0)
        assert np.all(gf[c_j == 0] > 0)

    def test_ubpr_candidates_include_clicked(self):
        cells = [(0, i, 0.5, 1) for i in range(5)] + [(0, 5, 0.5, 0)]
        ds = make_implicit(1, 6, cells)
        batches = _pair_epoch_batches(ds, batch_size=5, epochs=100, seed=4,
                                      theta=np.full(6, 0.5))
        c_j, (terms, _) = _pair_terms(LossSpec("ubpr"), batches)
        assert c_j.sum() > 0  # clicked candidates do occur
        assert np.all(terms[c_j == 1] == -2.0)  # and weigh (1/0.5) * (1 - 1/0.5)

    @pytest.mark.parametrize("method", ["bpr", "upl"])
    def test_user_who_clicked_everything_weighs_zero(self, method):
        # user 0 clicked every item: their positives stay in the pool, and
        # every candidate they draw is clicked, so their pairs weigh 0
        cells = [(0, i, 0.9, 1) for i in range(3)] + \
                [(1, 0, 0.5, 1), (1, 1, 0.5, 0)]
        ds = make_implicit(2, 3, cells)
        batches = _pair_epoch_batches(ds, batch_size=2, epochs=50, seed=5)
        users = np.concatenate([b.u for b in batches])
        _, (terms, gf) = _pair_terms(LossSpec(method), batches)
        assert np.count_nonzero(users == 0) == 3 * 50
        assert np.all(terms[users == 0] == 0) and np.all(gf[users == 0] == 0)

    def test_pairs_need_a_click_and_another_item(self):
        for ds in (make_implicit(1, 3, [(0, 0, 0.5, 0)]),
                   make_implicit(2, 1, [(0, 0, 0.5, 1)])):
            with pytest.raises(ValueError, match="admissible"):
                next(_pair_batches(ds, None, 4, np.ones(ds.num_items), None,
                                   np.random.default_rng(0)))

    def test_pointwise_mix(self):
        # 6 clicks among 3 x 8 cells, 3 of the 18 non-clicks exposed: each
        # half batch of clicks is topped up with as many non-clicks, which
        # weigh N0/N1 = 3
        cells = [(u, i, 0.5, 1) for u in range(3) for i in range(2)] \
            + [(u, 2, 0.5, 0) for u in range(3)]
        ds = make_implicit(3, 8, cells)
        batches = list(_point_batches(ds, LossSpec("relmf"), 4, np.ones(8),
                                      np.random.default_rng(6)))
        assert [len(u) for u, _, _ in batches] == [4, 4, 4]
        clicks = []
        for u, (i,), objective in batches:
            _, c, _, weight = objective.args
            assert ds.is_clicked(u, i).tolist() == [True, True, False, False]
            assert c.tolist() == [1, 1, 0, 0]
            assert weight.tolist() == [1, 1, 3, 3]
            clicks += zip(u[:2].tolist(), i[:2].tolist())
        assert sorted(clicks) == list(zip(*(a.tolist() for a in ds.click_pairs)))

    def test_points_need_a_click(self):
        ds = make_implicit(2, 3, [(0, 0, 0.5, 0), (1, 2, 0.5, 0)])
        with pytest.raises(ValueError, match="no click"):
            next(_point_batches(ds, LossSpec("relmf"), 4, np.ones(3),
                                np.random.default_rng(0)))

    @pytest.mark.parametrize("method", ["wmf", "relmf"])
    def test_every_cell_clicked_trains_on_clicks_alone(self, method):
        ds = make_implicit(3, 2, [(u, i, 0.9, 1) for u in range(3) for i in range(2)])
        batches = list(_point_batches(ds, LossSpec(method), 4, np.ones(2),
                                      np.random.default_rng(1)))
        assert [len(u) for u, _, _ in batches] == [2, 2, 2]
        assert all(objective.args[1].all() for _, _, objective in batches)
        config = TrainConfig(d=2, learning_rate=0.01, batch_size=4, max_epochs=3, patience=3,
                             seed=2)
        run = train(ds, config, LossSpec(method), PropensityTable(np.ones(2)), validation=ds)
        assert run.epochs_trained == 3
        assert all(math.isfinite(loss) for _, loss, _ in run.epoch_log)

    def test_samplers_read_clicks_not_exposure(self):
        # the same clicks, once with no other exposed cell and once with
        # half the non-clicks exposed: every batch must match byte for byte
        rng = np.random.default_rng(3)
        clicks = [(u, i) for u in range(5) for i in range(6) if rng.random() < 0.3]
        others = [(u, i) for u in range(5) for i in range(6)
                  if (u, i) not in clicks and rng.random() < 0.5]
        bare = make_implicit(5, 6, [(u, i, 0.5, 1) for u, i in clicks])
        exposed = make_implicit(5, 6, [(u, i, 0.5, 1) for u, i in clicks]
                                + [(u, i, 0.5, 0) for u, i in others])
        theta = np.linspace(0.2, 1.0, 6)

        def gamma_hat(users, items):
            return (users + items) / 20.0

        for epoch in (partial(_point_batches, spec=LossSpec("relmf"), batch_size=4,
                              theta=theta),
                      partial(_pair_batches, spec=LossSpec("upl"), batch_size=4,
                              theta=theta, gamma_hat=gamma_hat)):
            a, b = (list(epoch(ds, rng=np.random.default_rng(9))) for ds in (bare, exposed))
            assert len(a) == len(b) > 1
            for (ua, items_a, obj_a), (ub, items_b, obj_b) in zip(a, b):
                assert ua.tobytes() == ub.tobytes()
                assert [k.tobytes() for k in items_a] == [k.tobytes() for k in items_b]
                assert obj_a.func is obj_b.func and obj_a.args[0] == obj_b.args[0]
                assert [x.tobytes() for x in obj_a.args[1:]] \
                    == [x.tobytes() for x in obj_b.args[1:]]

    def test_gamma_hat_passthrough_clamped(self):
        ds = make_implicit(1, 4, [(0, 0, 1.0, 1)])
        model = FactorModel(np.full((1, 2), 50.0), np.full((4, 2), 50.0))
        gh = relevance_predictor(model)
        batches = _pair_epoch_batches(ds, batch_size=1, epochs=50, seed=7,
                                      gamma_hat=gh)
        gamma_hat_j = np.concatenate([b.gamma_hat_j for b in batches])
        assert np.all(gamma_hat_j <= 1 - 1e-6)
        assert np.all(gamma_hat_j >= 1e-6)


    def test_relevance_predictor_clamps_both_ends(self):
        # scores 1600, -1600 and 2: the extremes clamp, the middle passes through
        model = FactorModel(np.array([[40.0], [-40.0], [0.05]]), np.array([[40.0]]))
        gh = relevance_predictor(model)(np.array([0, 1, 2]), np.array([0, 0, 0]))
        assert gh[0] == GAMMA_HAT_MAX
        assert gh[1] == GAMMA_HAT_MIN
        assert gh[2] == sigmoid(np.array([0.05 * 40.0]))[0]
        assert GAMMA_HAT_MIN < gh[2] < GAMMA_HAT_MAX


class TestTrainLoop:
    def test_descent_on_frozen_batch(self, separable_dataset):
        config = TrainConfig(d=6, lam=0.0, learning_rate=1e-5, batch_size=4, seed=2)
        model = init_model(2, 4, d=6, seed=2, scale=0.1)
        adam = AdamState.for_model(model)
        u, (i, j), objective = next(_pair_batches(
            separable_dataset, LossSpec("bpr"), 4, np.ones(separable_dataset.num_items), None,
            np.random.default_rng(3)))
        _, c_j, theta_i, theta_j, gamma_hat_j = objective.args

        def batch_loss(m):
            s_i = np.sum(m.user_factors[u] * m.item_factors[i], axis=1)
            s_j = np.sum(m.user_factors[u] * m.item_factors[j], axis=1)
            loss, _, _ = sigmoid_pair_loss(s_i, s_j)
            terms, _ = pair_weights(LossSpec("bpr"), c_j, theta_i, theta_j, gamma_hat_j,
                                    loss)
            return float(np.mean(terms))

        before = batch_loss(model)
        trainer._step(model, adam, u, (i, j), objective, config)
        assert batch_loss(model) < before

    def test_determinism_same_seed(self, separable_dataset):
        config = TrainConfig(d=4, lam=1e-5, learning_rate=0.01, batch_size=2,
                             max_epochs=20, seed=9)
        a, b = (train(separable_dataset, config, LossSpec("bpr"), estimated(separable_dataset),
                      validation=separable_dataset) for _ in range(2))
        assert model_checksum(a.final_model) == model_checksum(b.final_model)
        assert a.epoch_log == b.epoch_log

    def test_large_lambda_shrinks_norms(self, separable_dataset, monkeypatch):
        # the model after each epoch, as validation reads it
        norms = []

        def validation_dcg(m, validation):
            norms.append(np.linalg.norm(m.user_factors) + np.linalg.norm(m.item_factors))
            return 0.0
        monkeypatch.setattr(trainer, "validation_dcg", validation_dcg)
        config = TrainConfig(d=4, lam=1e3, learning_rate=0.001, batch_size=2,
                             max_epochs=4, patience=4, seed=4)
        train(separable_dataset, config, LossSpec("bpr"), estimated(separable_dataset),
              validation=separable_dataset)
        assert len(norms) == 4
        assert all(a > b for a, b in zip(norms, norms[1:]))

    def test_separable_world_ranking(self, separable_dataset):
        config = TrainConfig(d=8, lam=0.0, learning_rate=0.05, batch_size=4,
                             max_epochs=300, seed=3)
        run = train(separable_dataset, config, LossSpec("bpr"), estimated(separable_dataset),
                    validation=separable_dataset)
        scores = score_matrix(run.final_model)
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
                train(separable_dataset, config, LossSpec("bpr"), estimated(separable_dataset),
                      validation=separable_dataset)

    def test_gamma_hat_exactly_for_upl(self, separable_dataset):
        config = TrainConfig(d=4, max_epochs=1, seed=0)
        pt = estimated(separable_dataset)
        with pytest.raises(ValueError):  # missing gamma_hat
            train(separable_dataset, config, LossSpec("upl"), pt, validation=separable_dataset)
        with pytest.raises(ValueError):
            train(separable_dataset, config, LossSpec("bpr"), pt, validation=separable_dataset,
                  gamma_hat=lambda u, i: np.zeros(len(np.atleast_1d(u))))

    @pytest.mark.parametrize("train_fn", [train, train_key])
    def test_propensities_and_validation_are_required(self, separable_dataset, train_fn):
        # no run trains under theta = 1 for want of a table, or for a fixed
        # number of epochs for want of a validation split
        ds, config, spec = separable_dataset, TrainConfig(d=2, max_epochs=1), LossSpec("ubpr")
        for kwargs in ({}, {"propensities": estimated(ds)}, {"validation": ds}):
            with pytest.raises(TypeError):
                train_fn(ds, config, spec, **kwargs)

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
        run = train(ds12, config, LossSpec("bpr"), estimated(ds12), validation=val)
        curve = [val_metric for _, _, val_metric in run.epoch_log]
        assert run.epochs_trained == len(curve) < 200
        # the returned snapshot is from the best epoch, not the last one
        assert validation_dcg(run.final_model, val) == max(curve)


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

    def test_relmf_recovers_relevance(self, monkeypatch):
        ds = self._exposed_everything()
        # d=1 represents the rank-1 checkerboard logit exactly; the L2 weight
        # keeps scores off the saturation regime so gamma is recovered
        # instead of the binary draws.  What 200 epochs learn, not an early
        # epoch's ranking: validation DCG@5 rises every epoch, so the run
        # returns its last model
        epochs = itertools.count()
        monkeypatch.setattr(trainer, "validation_dcg", lambda model, val: next(epochs))
        config = TrainConfig(d=1, lam=1e-2, learning_rate=0.05, batch_size=32,
                             max_epochs=200, seed=6)
        run = train(ds, config, LossSpec("relmf"), PropensityTable(np.ones(12)), validation=ds)
        assert run.epochs_trained == 200
        gh = relevance_predictor(run.final_model)
        est = gh(ds.users, ds.items)
        assert np.mean(np.abs(est - ds.gamma)) < 0.1

    def test_pipeline_determinism_and_clamping(self):
        ds, val = self._exposed_everything(seed=1), self._exposed_everything(seed=9)
        pt = estimated(ds)
        config = TrainConfig(d=4, lam=1e-5, learning_rate=0.01, batch_size=32,
                             max_epochs=5, seed=7)
        a = train_key(ds, config, LossSpec("upl"), pt, val)
        b = train_key(ds, config, LossSpec("upl"), pt, val)
        assert [run.loss_spec for run in a] == [LossSpec("relmf"), LossSpec("upl")]
        assert model_checksum(a[-1].final_model) == model_checksum(b[-1].final_model)
        # handed its stage's model, the key trains upl alone, to the same run
        (c,) = train_key(ds, config, LossSpec("upl"), pt, val, stage_model=a[0].final_model)
        assert model_checksum(c.final_model) == model_checksum(a[-1].final_model)
        assert c.epoch_log == a[-1].epoch_log

    def test_only_upl_has_a_stage(self):
        ds = self._exposed_everything(seed=2)
        pt = estimated(ds)
        config = TrainConfig(d=4, lam=1e-5, learning_rate=0.01, batch_size=32,
                             max_epochs=2, seed=3)
        for method in ("bpr", "ubpr", "wmf", "relmf"):
            spec = LossSpec(method)
            assert stage_spec(spec) is None
            assert [run.loss_spec for run in train_key(ds, config, spec, pt, ds)] == [spec]
        assert stage_spec(LossSpec("upl")) == LossSpec("relmf")


class TestTrainedBytes:
    """The sha256 of the best-validation factors that two epochs of each
    estimator train on a seeded, partly exposed dataset, and the repr of each
    epoch's training loss, pinned so that a sampler change that moves, adds
    or drops an rng draw fails here, in the epoch the snapshot holds or in a
    later one.  Pinned under numpy 2.4 on x86-64; another numpy or CPU may
    round the same run differently."""

    PINS = {
        "bpr": ("9bfa12753795357714d9fb261266d4907cdb9e4f6fac8633e1b33c88a5f3003c",
                ("0.5217661349250402", "0.4823018916239063")),
        "ubpr": ("58ee4bd3fecea5752f822c6533ac4e4ba28c25b66694aab05303b4a4c922c81f",
                 ("0.6139534108049124", "0.5436990437169161")),
        "ubpr_clipped": ("76a30d50b66a17d3a99d202fe289c10f4a33ff84e47876f59a3cee6d0c50578d",
                         ("0.6666822785381329", "0.6078132678552501")),
        "wmf": ("ea84f71e0ad5cd4e2efe98a320f10346176428dcdf5d7a6a1e94daf8e9ad88a1",
                ("4.287070552892325", "4.281007690220202")),
        "relmf": ("80fcbdcf1301eaa9ab511852269255b5e11b4ef47a1ae765917ac9ff2d299b96",
                  ("1.1680269887743335", "1.1668662977103685")),
        "upl": ("6ef1ac2ac2089d4bdda208067cf61e2d3f6311fb86172172323388c22445b092",
                ("0.5289285117895599", "0.4953922052142954")),
    }

    @pytest.mark.parametrize("method", sorted(PINS))
    def test_final_factors_digest(self, method):
        rng = np.random.default_rng(22)
        cells = [(u, i, 0.5, int(rng.random() < 0.5))
                 for u in range(20) for i in range(15) if rng.random() < 0.6]
        ds = make_implicit(20, 15, cells)
        val = draw_validation(rng, 20, 15)
        config = TrainConfig(d=4, lam=1e-3, learning_rate=0.01, batch_size=16,
                             max_epochs=2, patience=2, seed=5)
        spec = LossSpec(method, clip_threshold=0.0 if method == "ubpr_clipped" else None)
        run = train_key(ds, config, spec, estimated(ds), val)[-1]
        digest, losses = self.PINS[method]
        assert model_checksum(run.final_model) == digest
        assert tuple(repr(loss) for _, loss, _ in run.epoch_log) == losses


class _EveryDraw:
    """Stands in for the epoch rng: ``permutation(n)`` is the identity, and
    in epoch k, counted by the permutations drawn, ``integers(low, high,
    size)`` draws offset k, low + k, every time.  Over high - low epochs a
    draw with no rejection step then yields each of its outcomes exactly
    once, for every row: for the pair sampler, I - 1 epochs; for the
    pointwise one, N0."""

    def __init__(self):
        self.epoch = -1

    def permutation(self, n):
        self.epoch += 1
        return np.arange(n)

    def integers(self, low, high, size):
        assert low + self.epoch < high
        return np.full(size, low + self.epoch)


class TestMinibatchRiskMatchesIdeal:
    @pytest.mark.parametrize("estimator", ["upl", "ubpr", "ubpr_clipped", "bpr"])
    @pytest.mark.parametrize("num_items, world_seed, model_seed",
                             [(5, 3, 0), (5, 3, 1), (5, 3, 2), (6, 5, 0)])
    def test_epoch_expectation_is_full_batch_risk_over_i_minus_1(
            self, estimator, num_items, world_seed, model_seed):
        """Exact expectation, over every click outcome and every candidate
        draw, of the term sum of one epoch as ``_pair_batches`` yields it and
        as the objective it binds weights it: (I - 1) times it is the
        oracle's full-batch expectation, and for the unbiased estimators it
        is the ideal risk over I - 1."""
        world = random_world(1, num_items, seed=world_seed)
        model = model_for_world(world, seed=model_seed)
        theta, gamma = world.theta[0], world.gamma[0]
        spec = LossSpec(estimator, clip_threshold=0.0 if estimator == "ubpr_clipped" else None)
        gamma_hat = (lambda users, items: world.gamma[users, items]) \
            if estimator == "upl" else None
        scores = score_matrix(model)
        click_prob = theta * gamma

        expected = 0.0
        for clicks in itertools.product((0, 1), repeat=num_items):
            clicks = np.array(clicks)
            if not clicks.any():
                continue  # no positive: the epoch and the full-batch risk are empty
            prob = np.prod(np.where(clicks == 1, click_prob, 1.0 - click_prob))
            ds = make_implicit(1, num_items,
                               [(0, k, gamma[k], clicks[k]) for k in range(num_items)])
            rng = _EveryDraw()
            terms = [objective(scores[u, i], scores[u, j])[0]
                     for _ in range(num_items - 1)
                     for u, (i, j), objective in _pair_batches(ds, spec, 2, theta, gamma_hat,
                                                               rng)]
            expected += prob * math.fsum(np.concatenate(terms)) / (num_items - 1)

        exact, = estimator_reports(world, model, [(estimator, 0.0)])
        assert expected * (num_items - 1) == pytest.approx(exact.exact_expectation, rel=1e-12)
        if estimator in ("upl", "ubpr"):
            assert expected == pytest.approx(exact.ideal_risk / (num_items - 1), rel=1e-12)


class TestPointwiseEpochMatchesFullBatchRisk:
    @pytest.mark.parametrize("method", ["wmf", "relmf"])
    @pytest.mark.parametrize("seed, batch_size", [(0, 2), (2, 4), (3, 16)])  # N1 = 4, 5, 7
    def test_epoch_expectation_is_full_batch_risk(self, method, seed, batch_size):
        """Exact expectation, over every non-click draw, of the term sum of
        one epoch as ``_point_batches`` yields it and as the objective it
        binds weights it: the pointwise risk summed over all U x I cells."""
        rng = np.random.default_rng(seed)
        num_users, num_items = 3, 4
        cells = [(u, i, 0.5, int(rng.random() < 0.5))
                 for u in range(num_users) for i in range(num_items) if rng.random() < 0.7]
        cells.append((2, 3, 0.5, 1))  # at least one click
        ds = make_implicit(num_users, num_items, list({c[:2]: c for c in cells}.values()))
        theta = rng.uniform(0.2, 1.0, num_items)
        scores = score_matrix(model_for_world(random_world(num_users, num_items, seed=seed),
                                              seed=seed))
        num_non_clicks = num_users * num_items - ds.num_clicks
        assert 0 < num_non_clicks < num_users * num_items

        rng = _EveryDraw()
        sums = [math.fsum(np.concatenate([objective(scores[u, i])[0] for u, (i,), objective
                                          in _point_batches(ds, LossSpec(method), batch_size,
                                                            theta, rng)]))
                for _ in range(num_non_clicks)]
        clicked = ds.click_table
        risk, _ = pointwise_loss(method, clicked, scores, theta_click=theta[None, :])
        assert math.fsum(sums) / num_non_clicks == pytest.approx(math.fsum(risk.ravel()),
                                                                  rel=1e-12)


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
    case = draw(st.sampled_from(["heavy", "distinct", "mixed"]))
    if case == "heavy":  # heavy duplicates
        index = draw(hnp.arrays(np.int64, n, elements=st.integers(0, 2)))
    elif case == "distinct":  # all distinct
        index = np.array(draw(st.permutations(range(n))), dtype=np.int64)
    else:  # a few keys from a wide range repeat many times among singletons
        n = max(n, 3)
        hot = draw(st.lists(st.integers(500_000, 10**6), min_size=1, max_size=3, unique=True))
        singles = draw(st.lists(st.integers(0, 499_999), min_size=n, max_size=n, unique=True))
        picks = draw(hnp.arrays(np.int64, n, elements=st.integers(-1, len(hot) - 1)))
        # a singleton and a twice-drawn hot key: the smallest key is a
        # singleton, so the largest group is not the smallest key
        picks[:3] = [-1, 0, 0]
        index = np.where(picks < 0, singles, np.asarray(hot)[picks])
        index = index[draw(st.permutations(range(n)))]
    # magnitudes far apart make the sum depend on the order of the adds
    values = st.one_of(st.just(-0.0), st.floats(-1e12, 1e12))
    rows = draw(hnp.arrays(np.float64, (n, d), elements=values))
    return index, rows


class TestScatterRows:
    @given(_scatter_inputs())
    @example((np.array([7]), np.array([[-0.0, 2.5]])))
    @example((np.array([3, 3, 1]), np.full((3, 2), -0.0)))
    @example((np.array([900_000, 5, 900_000, 7, 900_000, 3, 800_000, 800_000]),
              np.array([[1e12], [1.0], [-1e12], [2.0], [1.0], [3.0], [-0.0], [-0.0]])))
    # a hot key among singletons, whose sum depends on the order of its adds
    # (an unstable argsort reorders it)
    @example((np.array([10, 21, 21, 13, 21, 21, 16, 21, 21, 19]) * 100_000,
              np.array([[1e12], [0.1], [-1e12]] * 3 + [[1e12]])))
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
    beta1, beta2, eps = trainer.ADAM_BETA1, trainer.ADAM_BETA2, trainer.ADAM_EPS
    adam.step += 1
    bc1 = 1.0 - beta1**adam.step
    bc2 = 1.0 - beta2**adam.step
    for param, m, v, rows, grads in (
        (model.user_factors, adam.user_m, adam.user_v, user_rows, user_grads),
        (model.item_factors, adam.item_m, adam.item_v, item_rows, item_grads),
    ):
        if len(rows) == 0:
            continue
        m[rows] = beta1 * m[rows] + (1.0 - beta1) * grads
        v[rows] = beta2 * v[rows] + (1.0 - beta2) * grads**2
        param[rows] -= learning_rate * (m[rows] / bc1) / (np.sqrt(v[rows] / bc2) + eps)


def _reference_step(model, adam, u, items, objective, config):
    """The pairwise and the pointwise step as they were, written out apart,
    with np.add.at.  Only the inputs bound into ``objective`` are read: the
    losses, weights and derivatives are computed here."""
    m = len(u)
    lam = config.lam
    pu = model.user_factors[u]
    spec, *bound = objective.args
    if len(items) == 2:
        i, j = items
        c_j, theta_i, theta_j, gamma_j = bound
        qi = model.item_factors[i]
        qj = model.item_factors[j]
        loss, dsi, dsj = sigmoid_pair_loss(np.sum(pu * qi, axis=1), np.sum(pu * qj, axis=1))
        terms, gf = pair_weights(spec, c_j, theta_i, theta_j, gamma_j, loss)
        gi = gf * dsi
        gj = gf * dsj
        reg = np.sum(pu**2, axis=1) + np.sum(qi**2, axis=1) + np.sum(qj**2, axis=1)
        gu_rows = (gi[:, None] * qi + gj[:, None] * qj + 2.0 * lam * pu) / m
        gqi_rows = (gi[:, None] * pu + 2.0 * lam * qi) / m
        gqj_rows = (gj[:, None] * pu + 2.0 * lam * qj) / m
        all_items = np.concatenate([i, j])
        gq_rows = np.concatenate([gqi_rows, gqj_rows])
    else:
        (all_items,) = items
        c, theta_click, weight = bound
        qi = model.item_factors[all_items]
        loss, dloss = pointwise_loss(spec.method, c, np.sum(pu * qi, axis=1),
                                     theta_click=theta_click)
        terms = weight * loss
        ds = weight * dloss
        reg = np.sum(pu**2, axis=1) + np.sum(qi**2, axis=1)
        gu_rows = (ds[:, None] * qi + 2.0 * lam * pu) / m
        gq_rows = (ds[:, None] * pu + 2.0 * lam * qi) / m
    batch_loss = float(np.mean(terms) + lam * np.mean(reg))

    uu, inv_u = np.unique(u, return_inverse=True)
    gu = np.zeros((len(uu), model.d))
    np.add.at(gu, inv_u, gu_rows)
    ii, inv_i = np.unique(all_items, return_inverse=True)
    gq = np.zeros((len(ii), model.d))
    np.add.at(gq, inv_i, gq_rows)

    _reference_adam_update(adam, model, uu, gu, ii, gq, config.learning_rate)
    return batch_loss


class TestStepMatchesReference:
    @pytest.mark.parametrize("method", ["bpr", "ubpr", "ubpr_clipped", "wmf", "relmf", "upl"])
    def test_final_factors_bit_identical(self, method, monkeypatch):
        # partial exposure, so the pointwise epoch draws exposed and unexposed
        # non-clicks, and every batch of 32 repeats users and items
        rng = np.random.default_rng(21)
        cells = [(u, i, 0.5, int(rng.random() < 0.5))
                 for u in range(20) for i in range(15) if rng.random() < 0.6]
        ds = make_implicit(20, 15, cells)
        val = draw_validation(rng, 20, 15)
        pt = estimated(ds)
        config = TrainConfig(d=8, lam=1e-3, learning_rate=0.01, batch_size=32,
                             max_epochs=3, patience=3, seed=4)
        spec = LossSpec(method, clip_threshold=0.0 if method == "ubpr_clipped" else None)
        rate = (20 * 15 - ds.num_clicks) / ds.num_clicks  # a non-click's weight, N0/N1

        def trained():
            return train_key(ds, config, spec, pt, val)[-1]

        fast = trained()
        calls = []

        specs = [LossSpec("relmf"), LossSpec("upl")] if method == "upl" else [spec]

        def reference(*args):
            # the inputs bound into the objective, looked up independently
            _, _, u, items, objective, _ = args
            bound_spec, *bound = objective.args
            assert bound_spec in specs
            if len(items) == 2:
                i, j = items
                c_j, theta_i, theta_j, gamma_j = bound
                assert np.array_equal(c_j, ds.is_clicked(u, j))
                assert np.array_equal(theta_i, pt.theta_click[i])
                assert np.array_equal(theta_j, pt.theta_click[j])
                assert gamma_j.any() == (method == "upl")
            else:
                (i,) = items
                c, theta_click, weight = bound
                assert np.array_equal(c, ds.is_clicked(u, i))
                assert np.array_equal(theta_click, pt.theta_click[i])
                assert np.array_equal(weight, np.where(c == 1, 1.0, rate))
            calls.append(args)
            return _reference_step(*args)

        monkeypatch.setattr(trainer, "_step", reference)
        slow = trained()
        assert calls  # the reference really ran
        assert np.array_equal(fast.final_model.user_factors, slow.final_model.user_factors)
        assert np.array_equal(fast.final_model.item_factors, slow.final_model.item_factors)
        assert fast.epoch_log == slow.epoch_log  # every epoch's losses too
        assert fast.epochs_trained == 3
