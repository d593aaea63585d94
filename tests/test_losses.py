import ast
import math
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from uplrec.errors import SingularityError
from uplrec.losses import (
    WMF_WEIGHT,
    LossSpec,
    clip_term,
    pair_loss,
    pair_weights,
    pointwise_loss,
    sigmoid_pair_loss,
    softplus,
    ubpr_pair_weight,
    upl_pair_weight,
    upl_pair_weight_from_posterior,
)
from uplrec.propensity import posterior_exposure

LN2 = math.log(2.0)
SRC = Path(__file__).resolve().parents[1] / "src" / "uplrec"


def central_diff(f, x, h=1e-6):
    return (f(x + h) - f(x - h)) / (2 * h)


class TestSigmoidPairLoss:
    def test_equal_scores(self):
        loss, dsi, dsj = sigmoid_pair_loss(0.0, 0.0)
        assert loss == pytest.approx(LN2, abs=1e-15)
        assert dsi == pytest.approx(-0.5, abs=1e-15)
        assert dsj == pytest.approx(+0.5, abs=1e-15)

    def test_saturation(self):
        loss, _, _ = sigmoid_pair_loss(100.0, 0.0)
        assert 0 <= loss < 1e-10

    def test_hand_value(self):
        # -log sigmoid(1), evaluated independently
        loss, _, _ = sigmoid_pair_loss(1.0, 0.0)
        assert loss == pytest.approx(0.3132616875182228, abs=1e-14)

    def test_stable_at_extreme_gaps(self):
        for d in (500.0, -500.0):
            loss, dsi, dsj = sigmoid_pair_loss(d, 0.0)
            assert math.isfinite(loss) and math.isfinite(dsi) and math.isfinite(dsj)
        loss, _, _ = sigmoid_pair_loss(-500.0, 0.0)
        assert loss == pytest.approx(500.0, rel=1e-12)

    def test_loss_nonnegative(self):
        rng = np.random.default_rng(0)
        s = rng.normal(0, 5, size=(100, 2))
        loss, _, _ = sigmoid_pair_loss(s[:, 0], s[:, 1])
        assert np.all(loss >= 0)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            si, sj = rng.normal(0, 3, size=2)
            _, dsi, dsj = sigmoid_pair_loss(si, sj)
            num_i = central_diff(lambda x: sigmoid_pair_loss(x, sj)[0], si)
            num_j = central_diff(lambda x: sigmoid_pair_loss(si, x)[0], sj)
            assert dsi == pytest.approx(num_i, rel=1e-4, abs=1e-9)
            assert dsj == pytest.approx(num_j, rel=1e-4, abs=1e-9)


    def test_trainer_and_oracle_call_one_pair_loss(self, monkeypatch):
        # the loss the trainer steps on is pair_loss bit for bit, and the
        # oracle's pair tables are pair_loss: replacing it replaces both
        from uplrec import losses, oracle
        s_i, s_j = np.random.default_rng(2).normal(0, 3, (2, 1000))
        loss, _, _ = sigmoid_pair_loss(s_i, s_j)
        assert loss.tobytes() == pair_loss(s_i, s_j).tobytes()
        assert loss.tobytes() == softplus(-(s_i - s_j)).tobytes()
        assert oracle.pair_loss is losses.pair_loss

        def seven(a, b):
            return np.full(np.broadcast_shapes(np.shape(a), np.shape(b)), 7.0)
        monkeypatch.setattr(losses, "pair_loss", seven)
        monkeypatch.setattr(oracle, "pair_loss", seven)
        assert np.all(sigmoid_pair_loss(s_i, s_j)[0] == 7.0)
        world = oracle.random_world(2, 4, seed=3)
        for _, table in oracle._pair_losses(world, oracle.model_for_world(world, seed=4)):
            assert np.array_equal(table, 7.0 - 7.0 * np.eye(4))


class TestUplPairWeight:
    def test_fully_exposed_irrelevant(self):
        assert upl_pair_weight(1.0, 1.0, 0.0) == 1.0

    def test_hand_arithmetic(self):
        # 0.5 / (0.5 * (1 - 0.25)) = 4/3; cross-checked by the enumeration
        # oracle recovering the ideal risk (see oracle tests)
        assert upl_pair_weight(0.5, 0.5, 0.5) == pytest.approx(4 / 3, abs=1e-15)

    def test_singularity(self):
        with pytest.raises(SingularityError):
            upl_pair_weight(0.5, 1.0, 1.0)
        with pytest.raises(SingularityError):
            upl_pair_weight(0.0, 0.5, 0.5)

    def test_never_negative(self):
        rng = np.random.default_rng(2)
        theta_i = rng.uniform(0.01, 1.0, 2000)
        theta_j = rng.uniform(0.01, 1.0, 2000)
        gamma = rng.uniform(0.0, 0.999, 2000)
        w = upl_pair_weight(theta_i, theta_j, gamma)
        assert np.all(w >= 0)

    def test_posterior_form_equivalence(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            ti = rng.uniform(0.05, 1.0)
            tj = rng.uniform(0.05, 0.999)
            g = rng.uniform(0.0, 0.999)
            direct = upl_pair_weight(ti, tj, g)
            via_posterior = upl_pair_weight_from_posterior(
                ti, tj, posterior_exposure(tj, g))
            assert direct == pytest.approx(via_posterior, rel=1e-12)


class TestUbprPairWeight:
    def test_unclicked_candidate(self):
        assert ubpr_pair_weight(1, 0, 0.5, 0.7) == pytest.approx(2.0)

    def test_fully_observed_positive_pair(self):
        assert ubpr_pair_weight(1, 1, 1.0, 1.0) == 0.0

    def test_negative_weight(self):
        # 2 * (1 - 4) = -6: the negative values motivating clipping
        assert ubpr_pair_weight(1, 1, 0.5, 0.25) == pytest.approx(-6.0)


class TestClipTerm:
    def test_positive_passthrough(self):
        assert clip_term(5.0, 0.0) == 5.0

    def test_clip_at_zero(self):
        assert clip_term(-3.0, 0.0) == 0.0

    def test_within_threshold(self):
        assert clip_term(-3.0, -10.0) == -3.0

    def test_positive_threshold_rejected(self):
        with pytest.raises(ValueError):
            clip_term(1.0, 0.5)


class TestPointwiseLoss:
    def test_relmf_reduces_to_cross_entropy(self):
        loss, grad = pointwise_loss("relmf", 1, 0.0, theta_click=1.0)
        assert loss == pytest.approx(LN2, abs=1e-15)
        assert grad == pytest.approx(-0.5, abs=1e-15)

    def test_relmf_negative_cell(self):
        for theta in (0.2, 0.5, 1.0):
            loss, _ = pointwise_loss("relmf", 0, 0.0, theta_click=theta)
            assert loss == pytest.approx(LN2, abs=1e-15)

    def test_wmf_weighting(self):
        # a click's loss counts WMF_WEIGHT times; an unclicked cell's once
        loss, _ = pointwise_loss("wmf", np.array([1, 0]), 0.0)
        assert loss == pytest.approx([WMF_WEIGHT * LN2, LN2], abs=1e-15)

    def test_zero_propensity_singularity(self):
        with pytest.raises(SingularityError):
            pointwise_loss("relmf", 1, 0.0, theta_click=0.0)

    @pytest.mark.parametrize("method,kwargs", [
        ("wmf", {}),
        ("relmf", {"theta_click": 0.3}),
    ])
    def test_gradients_match_finite_differences(self, method, kwargs):
        rng = np.random.default_rng(4)
        for _ in range(100):
            c = int(rng.integers(0, 2))
            s = rng.normal(0, 3)
            _, grad = pointwise_loss(method, c, s, **kwargs)
            num = central_diff(lambda x: pointwise_loss(method, c, x, **kwargs)[0], s)
            assert grad == pytest.approx(num, rel=1e-4, abs=1e-9)


class TestEstimatorIdentities:
    def test_substituting_theta_for_posterior_gives_clipped_ubpr(self):
        # replacing the posterior exposure of j by theta_j in the upl weight
        # must reproduce the ubpr per-pair term clipped at zero
        rng = np.random.default_rng(5)
        n = 10_000
        theta_i = rng.uniform(0.05, 1.0, n)
        theta_j = rng.uniform(0.05, 1.0, n)
        c_j = rng.integers(0, 2, n)
        s = rng.normal(0, 2, (n, 2))
        loss, _, _ = sigmoid_pair_loss(s[:, 0], s[:, 1])

        substituted = upl_pair_weight_from_posterior(theta_i, theta_j, theta_j)
        upl_terms = np.where(c_j == 0, substituted * loss, 0.0)
        ubpr_terms = clip_term(ubpr_pair_weight(1, c_j, theta_i, theta_j) * loss, 0.0)
        assert np.max(np.abs(upl_terms - ubpr_terms)) < 1e-12

    def test_methods_coincide_under_full_exposure(self):
        # theta = 1 and gamma_hat = 0 on candidates: upl == ubpr == bpr terms
        rng = np.random.default_rng(6)
        s = rng.normal(0, 2, (50, 2))
        loss, _, _ = sigmoid_pair_loss(s[:, 0], s[:, 1])
        ones, zeros = np.ones(50), np.zeros(50)
        upl, ubpr, bpr = (pair_weights(LossSpec(m), zeros, ones, ones, zeros, loss)[0]
                          for m in ("upl", "ubpr", "bpr"))
        assert np.max(np.abs(upl - ubpr)) < 1e-12
        assert np.max(np.abs(upl - bpr)) < 1e-12


class TestPairWeights:
    def _pairs(self, n=200, seed=9):
        rng = np.random.default_rng(seed)
        c_j = rng.integers(0, 2, n)
        theta_i, theta_j = rng.uniform(0.05, 1.0, (2, n))
        gamma_j = rng.uniform(0.0, 0.95, n)
        loss, _, _ = sigmoid_pair_loss(*rng.normal(0, 2, (2, n)))
        return c_j, theta_i, theta_j, gamma_j, loss

    def test_weights_are_the_estimator_weights(self):
        # a clicked candidate weighs 0 under bpr and upl
        c_j, theta_i, theta_j, gamma_j, loss = self._pairs()
        expected = {
            "bpr": np.where(c_j == 0, 1.0, 0.0),
            "upl": np.where(c_j == 0, upl_pair_weight(theta_i, theta_j, gamma_j), 0.0),
            "ubpr": ubpr_pair_weight(1, c_j, theta_i, theta_j),
        }
        for method, w in expected.items():
            terms, gf = pair_weights(LossSpec(method), c_j, theta_i, theta_j, gamma_j, loss)
            assert np.array_equal(gf, w) and np.array_equal(terms, w * loss)

    @pytest.mark.parametrize("threshold", [0.0, -0.5])
    def test_clipped_terms_carry_no_gradient(self, threshold):
        c_j, theta_i, theta_j, gamma_j, loss = self._pairs()
        spec = LossSpec("ubpr_clipped", clip_threshold=threshold)
        terms, gf = pair_weights(spec, c_j, theta_i, theta_j, gamma_j, loss)
        raw, w = pair_weights(LossSpec("ubpr"), c_j, theta_i, theta_j, gamma_j, loss)
        clipped = raw <= threshold
        assert clipped.any() and not clipped.all()
        assert np.array_equal(terms, np.maximum(raw, threshold))
        assert np.all(gf[clipped] == 0) and np.array_equal(gf[~clipped], w[~clipped])

    def test_pointwise_method_rejected(self):
        with pytest.raises(ValueError, match="not a pairwise method"):
            pair_weights(LossSpec("relmf"), 0, 0.5, 0.5, 0.5, 1.0)


class TestLossSpec:
    def test_clip_threshold_required(self):
        with pytest.raises(ValueError):
            LossSpec("ubpr_clipped")
        LossSpec("ubpr_clipped", clip_threshold=-1.0)

    def test_clip_threshold_range(self):
        with pytest.raises(ValueError):
            LossSpec("ubpr_clipped", clip_threshold=-11.0)
        with pytest.raises(ValueError):
            LossSpec("ubpr_clipped", clip_threshold=0.5)

    def test_clip_threshold_only_for_clipped(self):
        with pytest.raises(ValueError):
            LossSpec("bpr", clip_threshold=0.0)

    def test_wmf_weight_rules(self):
        # the weight is the constant WMF_WEIGHT: wmf builds without one, and
        # no spec has a field for it
        assert LossSpec("wmf").method == "wmf"
        assert [f.name for f in fields(LossSpec)] == ["method", "clip_threshold"]

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            LossSpec("expomf")

    # "ideal" was a test-only sampler; the ubpr_nclip experiment token maps
    # to LossSpec("ubpr") and the mfdu token to LossSpec("relmf")
    @pytest.mark.parametrize("method", ["ideal", "ubpr_nclip", "mfdu"])
    def test_removed_methods_rejected(self, method):
        with pytest.raises(ValueError, match="unknown method"):
            LossSpec(method)
        with pytest.raises(ValueError, match="unknown pointwise method"):
            pointwise_loss(method, 1, 0.0)


def called_name(node):
    """The name a call or an attribute ends in: ``ndim`` for ``np.ndim(x)``
    and ``x.ndim``."""
    node = node.func if isinstance(node, ast.Call) else node
    return getattr(node, "attr", getattr(node, "id", None))


def scalar_branches(tree):
    """Yield the line of each comparison of ``x.ndim`` or ``np.ndim(x)`` with
    0 and of each ``np.atleast_1d`` call: a second return path for 0-d
    results, or the undoing of one."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            sides = [node.left, *node.comparators]
            if (any(isinstance(s, (ast.Attribute, ast.Call)) and called_name(s) == "ndim"
                    for s in sides)
                    and any(isinstance(s, ast.Constant) and s.value == 0 for s in sides)):
                yield node.lineno
        elif isinstance(node, ast.Call) and called_name(node) == "atleast_1d":
            yield node.lineno


class TestOneReturnPath:
    def test_no_scalar_branch_in_the_package(self):
        # arrays in, arrays out: a scalar argument gives numpy's own 0-d
        # result, never a Python float from a branch of its own
        sites = [f"{module.name}:{line}" for module in sorted(SRC.glob("*.py"))
                 for line in scalar_branches(ast.parse(module.read_text()))]
        assert sites == []
