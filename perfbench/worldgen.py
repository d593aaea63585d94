"""Coat-shaped MNAR rating world, generated from a seed.

290 users x 300 items with 1..5 star ratings.  Each user rates 24 train
items chosen with probability proportional to item popularity times a
preference for items they like (missing not at random), and 16 test items
chosen uniformly from the rest (missing completely at random), the layout of
the Coat shopping data set.  The world is written as Coat dense
``train.ascii`` / ``test.ascii`` matrices, 0 meaning unrated.

Run as a script, it is the benchmark's set-up step: import the package under
test, generate the world, write the files and print the world's statistics
as one JSON line.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

NUM_USERS = 290
NUM_ITEMS = 300
TRAIN_PER_USER = 24
TEST_PER_USER = 16
POPULARITY_SIGMA = 1.2  # log-normal spread of item popularity
PREFERENCE = 0.3  # selection odds grow by exp(PREFERENCE) per star
EPSILON_TRAIN = 0.1  # relevance floor the program uses for train clicks
R_MAX = 5


@dataclass
class World:
    train: np.ndarray  # NUM_USERS x NUM_ITEMS, 0 = unrated
    test: np.ndarray

    def stats(self) -> dict:
        """Exposure and expected-click statistics of the train split."""
        rated = self.train > 0
        gamma = np.where(rated, EPSILON_TRAIN + (1.0 - EPSILON_TRAIN)
                         * (np.exp2(self.train) - 1.0) / (2.0**R_MAX - 1.0), 0.0)
        item_clicks = gamma.sum(axis=0)
        top = np.sort(item_clicks)[::-1][: max(1, NUM_ITEMS // 10)]
        return {
            "exposed_cells": int(rated.sum()),
            "expected_clicks": float(gamma.sum()),
            "density": float(rated.mean()),
            "top10pct_item_click_share": float(top.sum() / item_clicks.sum()),
            "test_cells": int((self.test > 0).sum()),
        }

    def write(self, out_dir) -> Path:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        for name, mat in (("train.ascii", self.train), ("test.ascii", self.test)):
            np.savetxt(out / name, mat, fmt="%d")
        return out


def _top_k(keys: np.ndarray, k: int) -> np.ndarray:
    """Column indices of the k largest keys per row."""
    return np.argpartition(-keys, k, axis=1)[:, :k]


def generate(seed: int) -> World:
    rng = np.random.default_rng(seed)
    popularity = rng.normal(0.0, POPULARITY_SIGMA, size=NUM_ITEMS)
    quality = rng.uniform(1.0, 5.0, size=NUM_ITEMS)
    user_bias = rng.normal(0.0, 0.5, size=(NUM_USERS, 1))
    latent = quality[None, :] + user_bias + rng.normal(0.0, 1.0, (NUM_USERS, NUM_ITEMS))
    ratings = np.clip(np.rint(latent), 1, R_MAX).astype(np.int64)

    # Gumbel top-k draws k items without replacement, with probability
    # proportional to exp(log-weight), for every user at once.
    log_weight = popularity[None, :] + PREFERENCE * ratings
    gumbel = rng.gumbel(size=(NUM_USERS, NUM_ITEMS))
    train_items = _top_k(log_weight + gumbel, TRAIN_PER_USER)
    rows = np.arange(NUM_USERS)[:, None]
    taken = np.zeros((NUM_USERS, NUM_ITEMS), dtype=bool)
    taken[rows, train_items] = True

    test_keys = np.where(taken, -np.inf, rng.random((NUM_USERS, NUM_ITEMS)))
    test_items = _top_k(test_keys, TEST_PER_USER)

    train = np.zeros((NUM_USERS, NUM_ITEMS), dtype=np.int64)
    test = np.zeros((NUM_USERS, NUM_ITEMS), dtype=np.int64)
    train[rows, train_items] = ratings[rows, train_items]
    test[rows, test_items] = ratings[rows, test_items]
    return World(train=train, test=test)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    import uplrec  # noqa: F401  (import time is part of set-up)

    world = generate(args.seed)
    world.write(args.out)
    print(json.dumps(world.stats()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
