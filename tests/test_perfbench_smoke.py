"""The benchmark's calls into the package, run once each on a tiny world.

perfbench builds its workloads from the package's public entry points and
wraps the calls it traces by name; a change to those entry points should
fail here, not only when the benchmark runs.  Nothing under perfbench/ is
edited: its modules are imported as they are.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# the spans that perfbench's per-layer training metrics read: a refactor
# that stops calling one of them where perfbench wraps it reads 0 there
TRAINING_SPANS = {"losses.sigmoid_pair_loss", "losses.pointwise_loss", "datasets.is_clicked",
                  "trainer.AdamState.update"}
LAYER_SPANS = {"train-d200": TRAINING_SPANS,
               "sweep-d64": TRAINING_SPANS | {"evaluation.evaluate"},
               "verify-suite": set()}


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    import tracing
    import workloads
    return workloads, layers, tracing


def write_coat_world(out: Path, num_users=40, num_items=30, seed=0):
    """Dense Coat-layout train/test rating matrices, 0 meaning unrated: each
    user rates 10 train items, popular ones more often, and 6 others for test."""
    rng = np.random.default_rng(seed)
    ratings = rng.integers(1, 6, size=(num_users, num_items))
    popularity = rng.gumbel(size=num_items) * 0.5
    keys = popularity + rng.gumbel(size=(num_users, num_items))
    order = np.argsort(-keys, axis=1)
    rows = np.arange(num_users)[:, None]
    train = np.zeros_like(ratings)
    test = np.zeros_like(ratings)
    train[rows, order[:, :10]] = ratings[rows, order[:, :10]]
    test[rows, order[:, 10:16]] = ratings[rows, order[:, 10:16]]
    out.mkdir(parents=True)
    np.savetxt(out / "train.ascii", train, fmt="%d")
    np.savetxt(out / "test.ascii", test, fmt="%d")
    return out


@pytest.mark.parametrize("name, span", [("train-d200", "trainer.train.pair"),
                                        ("sweep-d64", "trainer.train.point"),
                                        ("verify-suite", "oracle.verification_suite")])
def test_workload_rep_runs_traced(bench, tmp_path, name, span):
    workloads, layers, tracing = bench
    world = write_coat_world(tmp_path / "world")
    workload = workloads.WORKLOADS[name](world, tmp_path, 0)
    tracer = tracing.Tracer()
    layers.instrument(tracer)
    try:
        rep = workload.rep()
    finally:
        tracer.restore()
    assert rep.failed == 0, rep.errors
    assert rep.attempted > 0 and rep.digest
    names = {s.name for s in tracer.spans}
    assert span in names
    assert not LAYER_SPANS[name] - names, "perfbench's layer metrics would read 0"
