"""Inner-product matrix-factorization ranker shared by all learning methods.

No bias terms: every method optimizes the same architecture, so performance
differences are attributable to the loss alone.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import SettingError

CHECKPOINT_MAGIC = b"FACT0001"


@dataclass
class FactorModel:
    """User and item latent factor matrices defining f(u, i) = <p_u, q_i>."""

    user_factors: np.ndarray  # num_users x d
    item_factors: np.ndarray  # num_items x d

    def __post_init__(self):
        self.user_factors = np.ascontiguousarray(self.user_factors, dtype=np.float64)
        self.item_factors = np.ascontiguousarray(self.item_factors, dtype=np.float64)
        if self.user_factors.ndim != 2 or self.item_factors.ndim != 2:
            raise ValueError("factor matrices must be 2-D")
        if self.user_factors.shape[1] != self.item_factors.shape[1]:
            raise ValueError("user/item latent dimensions differ")
        if not (np.isfinite(self.user_factors).all() and np.isfinite(self.item_factors).all()):
            raise ValueError("non-finite factor entries")

    @property
    def num_users(self) -> int:
        return self.user_factors.shape[0]

    @property
    def num_items(self) -> int:
        return self.item_factors.shape[0]

    @property
    def d(self) -> int:
        return self.user_factors.shape[1]

    def copy(self) -> "FactorModel":
        return FactorModel(self.user_factors.copy(), self.item_factors.copy())


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters shared by every learning method; frozen, so that with
    a LossSpec it names one training run."""

    d: int = 100
    lam: float = 1e-5
    learning_rate: float = 0.001
    batch_size: int = 256
    max_epochs: int = 200
    patience: int = 5
    seed: int = 0

    def __post_init__(self):
        for name, valid, message in (
                ("d", self.d >= 1, "latent dimension must be >= 1"),
                ("learning_rate", math.isfinite(self.learning_rate),
                 "learning_rate must be finite"),
                ("learning_rate", self.learning_rate > 0, "learning_rate must be positive"),
                ("batch_size", self.batch_size >= 1, "batch_size must be >= 1"),
                ("lam", math.isfinite(self.lam), "lambda must be finite"),
                ("lam", self.lam >= 0, "lambda must be >= 0"),
                # else the random initial model is the result
                ("max_epochs", self.max_epochs >= 1, "max_epochs must be >= 1"),
                # else training stops after epoch 0
                ("patience", self.patience >= 1, "patience must be >= 1"),
                # numpy's generators take no negative seed
                ("seed", self.seed >= 0, "seed must be >= 0"),
                # save_checkpoint stores it as an int64
                ("seed", self.seed < 2**63, f"seed must be < {2**63}")):
            if not valid:
                raise SettingError(name, getattr(self, name), message)


def init_model(num_users, num_items, d, seed, scale=0.01) -> FactorModel:
    """Gaussian init: entries i.i.d. N(0, scale^2), deterministic per seed."""
    if d < 1:
        raise ValueError("latent dimension must be >= 1")
    if scale <= 0:
        raise ValueError("scale must be positive")
    rng = np.random.default_rng(seed)
    return FactorModel(
        user_factors=rng.normal(0.0, scale, size=(num_users, d)),
        item_factors=rng.normal(0.0, scale, size=(num_items, d)),
    )


def save_checkpoint(model: FactorModel, path, seed=0):
    """Binary checkpoint, layout (little-endian):

    8-byte magic "FACT0001"; int64 d, num_users, num_items, seed;
    float64 user_factors row-major; float64 item_factors row-major.
    """
    path = Path(path)
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<qqqq", model.d, model.num_users, model.num_items, seed))
        fh.write(model.user_factors.astype("<f8").tobytes(order="C"))
        fh.write(model.item_factors.astype("<f8").tobytes(order="C"))


def load_checkpoint(path) -> tuple[FactorModel, int]:
    """The (model, seed) that save_checkpoint wrote, or one ValueError naming the path."""
    data = Path(path).read_bytes()
    if not data.startswith(CHECKPOINT_MAGIC):
        raise ValueError(f"{path}: bad checkpoint magic {data[:8]!r}")
    if len(data) < 40:
        raise ValueError(f"{path}: {len(data)} bytes, shorter than the 40-byte header")
    d, num_users, num_items, seed = struct.unpack_from("<qqqq", data, 8)
    if min(d, num_users, num_items) < 0 or len(data) != 40 + (num_users + num_items) * d * 8:
        raise ValueError(f"{path}: d={d}, {num_users} users and {num_items} items do not match "
                         f"{len(data) - 40} bytes of factors")
    user, item = np.split(np.frombuffer(data, "<f8", offset=40).copy(), [num_users * d])
    try:  # a NaN or infinite entry
        return FactorModel(user.reshape(num_users, d), item.reshape(num_items, d)), seed
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
