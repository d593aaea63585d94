import hashlib
import struct

import numpy as np
import pytest

from uplrec.errors import SettingError
from uplrec.factor_model import (
    FactorModel,
    TrainConfig,
    init_model,
    load_checkpoint,
    save_checkpoint,
)

from conftest import score_matrix


def checksum(model):
    h = hashlib.sha256()
    h.update(model.user_factors.tobytes())
    h.update(model.item_factors.tobytes())
    return h.hexdigest()


class TestInitModel:
    def test_same_seed_identical(self):
        a = init_model(20, 30, d=8, seed=5)
        b = init_model(20, 30, d=8, seed=5)
        assert checksum(a) == checksum(b)

    def test_distinct_seeds_differ(self):
        a = init_model(20, 30, d=8, seed=5)
        b = init_model(20, 30, d=8, seed=6)
        assert checksum(a) != checksum(b)

    def test_scale_matches_sample_std(self):
        model = init_model(100, 100, d=100, seed=0, scale=0.01)
        entries = np.concatenate([model.user_factors.ravel(), model.item_factors.ravel()])
        assert len(entries) >= 10_000
        assert abs(entries.std() - 0.01) < 0.001  # within 10%

    def test_zero_dimension_rejected(self):
        with pytest.raises(ValueError):
            init_model(5, 5, d=0, seed=0)


class TestScoreMatrix:
    def test_orthogonal_rows(self):
        model = FactorModel(np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]))
        assert score_matrix(model)[0, 0] == 0.0

    def test_unit_vector_self_product(self):
        model = FactorModel(np.array([[1.0, 0.0]]), np.array([[1.0, 0.0]]))
        assert score_matrix(model)[0, 0] == 1.0

    def test_hand_arithmetic(self):
        model = FactorModel(np.array([[1.0, 2.0]]), np.array([[3.0, -1.0]]))
        assert score_matrix(model)[0, 0] == pytest.approx(1.0)

    def test_bilinearity_in_user_row(self):
        model = init_model(2, 2, d=6, seed=1, scale=1.0)
        base = score_matrix(model)[0, 1]
        model.user_factors[0] *= 3.5
        assert score_matrix(model)[0, 1] == pytest.approx(3.5 * base, rel=1e-12)


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        model = init_model(7, 9, d=4, seed=12, scale=0.3)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path, seed=12)
        back, seed = load_checkpoint(path)
        assert seed == 12
        assert np.array_equal(back.user_factors, model.user_factors)
        assert np.array_equal(back.item_factors, model.item_factors)

    def test_reload_is_byte_stable(self, tmp_path):
        model = init_model(3, 3, d=2, seed=0)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(model, p1)
        back, _ = load_checkpoint(p1)
        save_checkpoint(back, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOTMAGIC" + b"\0" * 64)
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(path)

    # a 5 x 4, d = 3 checkpoint: a 40-byte header, 120 bytes of user factors
    # and 96 of item factors
    @pytest.mark.parametrize("edit, message", [
        (lambda b: b"NOTMAGIC" + b[8:], "bad checkpoint magic b'NOTMAGIC'"),
        (lambda b: b[:5], "bad checkpoint magic b'FACT0'"),
        (lambda b: b[:20], "20 bytes, shorter than the 40-byte header"),
        (lambda b: b[:16] + struct.pack("<q", -5) + b[24:],
         "d=3, -5 users and 4 items do not match 216 bytes of factors"),
        # -4 + 13 = 5 + 4 rows: a size that adds up does not hide a negative count
        (lambda b: b[:16] + struct.pack("<qq", -4, 13) + b[32:],
         "d=3, -4 users and 13 items do not match 216 bytes of factors"),
        (lambda b: b[:24] + struct.pack("<q", 2**60) + b[32:],
         f"d=3, 5 users and {2**60} items do not match 216 bytes of factors"),
        (lambda b: b[:-8], "d=3, 5 users and 4 items do not match 208 bytes of factors"),
        (lambda b: b + b"\0" * 8, "d=3, 5 users and 4 items do not match 224 bytes of factors"),
        (lambda b: b[:-8] + struct.pack("<d", np.nan), "non-finite factor entries"),
    ], ids=["magic", "cut_in_magic", "cut_in_header", "negative_count", "negative_count_fits",
            "oversized_count", "cut_in_factors", "trailing_bytes", "non_finite"])
    def test_malformed_file_named_in_one_error(self, tmp_path, edit, message):
        path = tmp_path / "model.ckpt"
        save_checkpoint(init_model(5, 4, d=3, seed=0), path)
        path.write_bytes(edit(path.read_bytes()))
        with pytest.raises(ValueError) as info:
            load_checkpoint(path)
        assert str(info.value) == f"{path}: {message}"


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(d=0)
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainConfig(lam=-1e-3)
        # max_epochs 0 would return the random initial model, patience 0
        # would stop every run after epoch 0
        with pytest.raises(ValueError, match="max_epochs must be >= 1"):
            TrainConfig(max_epochs=0)
        with pytest.raises(ValueError, match="patience must be >= 1"):
            TrainConfig(patience=0)
        TrainConfig(max_epochs=1, patience=1)

    @pytest.mark.parametrize("name, value, message", [
        ("learning_rate", float("nan"), "learning_rate must be finite"),
        ("learning_rate", float("inf"), "learning_rate must be finite"),
        ("lam", float("nan"), "lambda must be finite"),
        ("lam", float("inf"), "lambda must be finite"),
        ("lam", -1e-3, "lambda must be >= 0"),
        ("seed", -1, "seed must be >= 0"),
        ("seed", 2**63, "seed must be < 9223372036854775808"),
    ], ids=["learning_rate_nan", "learning_rate_inf", "lam_nan", "lam_inf", "lam_negative",
            "seed_negative", "seed_beyond_int64"])
    def test_rejection_names_the_field(self, name, value, message):
        # NaN would train until a non-finite loss; inf diverges at once
        with pytest.raises(SettingError, match=f"^{message}$") as info:
            TrainConfig(**{name: value})
        assert info.value.name == name
        assert info.value.value is value

    def test_defaults(self):
        cfg = TrainConfig()
        assert cfg.learning_rate == 0.001
        assert cfg.batch_size == 256
