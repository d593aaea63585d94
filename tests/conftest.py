import numpy as np
import pytest
from hypothesis import settings

from uplrec.datasets import ImplicitDataset
from uplrec.evaluation import evaluate
from uplrec.factor_model import FactorModel

# No per-example deadline: on a loaded host the first example of a property
# test can take longer than hypothesis's default 200 ms.
settings.register_profile("uplrec", deadline=None)
settings.load_profile("uplrec")


def score_matrix(model):
    """A FactorModel's dense num_users x num_items score matrix."""
    return model.user_factors @ model.item_factors.T


def write_world_spec(world, path):
    """Write a SyntheticWorld in the format ``oracle.parse_world_spec`` reads,
    every probability to 17 significant digits so it reads back exactly."""
    with open(path, "w") as fh:
        fh.write(f"users {world.num_users}\nitems {world.num_items}\n")
        for name, table in (("theta", world.theta), ("gamma", world.gamma)):
            fh.write(f"{name}\n")
            for row in table:
                fh.write(" ".join(f"{v:.17g}" for v in row) + "\n")


def count_calls(monkeypatch, module, *names):
    """Patch each named function of ``module`` to count its calls into the
    returned {name: count} dict."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _name=name, _original=getattr(module, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    return calls


def make_implicit(num_users, num_items, cells, split_tag="train"):
    """Build a small ImplicitDataset from (u, i, gamma, rel) tuples."""
    users = np.array([c[0] for c in cells])
    items = np.array([c[1] for c in cells])
    gamma = np.array([c[2] for c in cells], dtype=float)
    rel = np.array([c[3] for c in cells], dtype=np.int8)
    return ImplicitDataset(num_users, num_items, users, items, gamma, rel,
                           split_tag=split_tag)


def one_user_metrics(scores, relevance, k):
    """(DCG@k, Recall@k, AP@k) that ``evaluate`` gives one user whose
    candidates are items 0..n-1: a d=1 model with user factor 1 and item
    factors ``scores`` scores each item exactly."""
    test = make_implicit(1, len(scores), [(0, i, 0.5, r) for i, r in enumerate(relevance)],
                         split_tag="test")
    model = FactorModel(np.ones((1, 1)), np.asarray(scores, dtype=np.float64)[:, None])
    report, = evaluate(model, test, ks=(k,))
    return report.dcg, report.recall, report.map


def write_synthetic_triplets(root, seed=7, num_users=60, num_items=40):
    """Popularity-skewed train ratings plus a uniformly sampled test file."""
    rng = np.random.default_rng(seed)
    item_pop = rng.dirichlet(np.ones(num_items) * 0.6)
    quality = rng.uniform(1, 5, size=num_items)
    train_lines, test_lines = [], []
    for u in range(num_users):
        rated = rng.choice(num_items, size=int(rng.integers(8, 20)),
                           replace=False, p=item_pop)
        for i in rated:
            r = int(np.clip(round(rng.normal(quality[i], 1.0)), 1, 5))
            train_lines.append(f"{u}\t{i}\t{r}")
        rated_set = set(int(x) for x in rated)
        for i in rng.choice(num_items, size=5, replace=False):
            if int(i) not in rated_set:
                r = int(np.clip(round(rng.normal(quality[i], 1.0)), 1, 5))
                test_lines.append(f"{u}\t{i}\t{r}")
    (root / "train.txt").write_text("\n".join(train_lines) + "\n")
    (root / "test.txt").write_text("\n".join(test_lines) + "\n")
    return root / "train.txt", root / "test.txt"


@pytest.fixture
def separable_dataset():
    """2 users x 4 items, everything exposed, clicks exactly on relevant items."""
    relevant = {(0, 0), (0, 1), (1, 2), (1, 3)}
    cells = []
    for u in range(2):
        for i in range(4):
            r = 1 if (u, i) in relevant else 0
            cells.append((u, i, float(r), r))
    return make_implicit(2, 4, cells)
