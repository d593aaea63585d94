"""What ``import uplrec``, training and the t tests load: no scipy module,
so no ``uplrec`` command and not the benchmark's set-up loads one.  Each
scipy module the package once loaded is now plain numpy or ``math``:
``scipy.special`` and ``scipy.sparse`` at import (about 0.45 s and 23 MB,
BENCH_12.json), ``scipy.sparse`` in the gradient scatter
``trainer._scatter_rows`` (about 12 MB of train-d200's peak RSS,
BENCH_13.json) and ``scipy.special`` in the Student-t tail
``evaluation.t_sf`` (about 26 MB and 315 modules over numpy,
BENCH_16.json).  Nor does the coat or the triplets path load ``numpy.ma``,
which ``np.unique`` and ``np.union1d`` import lazily (about 1.2 MB of RSS
and 10 ms)."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import sys
import numpy as np
import uplrec, uplrec.cli
print(sorted(name for name in sys.modules if name.startswith("scipy")))
from uplrec import LossSpec, TrainConfig, oracle, trainer
from uplrec.datasets import ImplicitDataset
from uplrec.propensity import PropensityTable
users, items = np.divmod(np.arange(12), 4)
data = ImplicitDataset(3, 4, users, items, np.full(12, 0.5), (items < 2).astype(np.int8))
propensities = PropensityTable.from_click_counts(data.item_click_counts)
for method in ("bpr", "relmf"):
    run = trainer.train(data, TrainConfig(d=2, max_epochs=1, batch_size=4), LossSpec(method),
                        propensities, validation=data)
    assert run.epochs_trained == 1
print(sorted(name for name in sys.modules if name.startswith("scipy")))
world = oracle.random_world(1, 5, seed=3)
model = oracle.model_for_world(world, seed=4)
uplrec.one_tailed_t_test([0.1, 0.4, 0.3], [0.2, 0.0, 0.1])
oracle.variance_order(*oracle.estimator_reports(world, model, [("ubpr",), ("upl",)],
                                                 samples=oracle.MIN_MC_SAMPLES, seed=5))
print(sorted(name for name in sys.modules if name.startswith("scipy")))
"""


def test_import_training_and_t_tests_load_no_scipy():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n[]\n[]\n"


MA_SCRIPT = """
import sys
from pathlib import Path
import numpy as np
from uplrec import LossSpec, TrainConfig, experiment, trainer
from uplrec.evaluation import compute_cohorts, evaluate
root = Path(sys.argv[1])
rng = np.random.default_rng(0)
for name in ("train.ascii", "test.ascii"):
    np.savetxt(root / name, rng.integers(0, 6, size=(30, 20)), fmt="%d")
data = experiment.prepare_datasets(root, "coat", seed=0)
print("numpy.ma" in sys.modules)
propensities = experiment.check_splits(data, root)
run = trainer.train(data.train, TrainConfig(d=2, max_epochs=2, batch_size=16),
                    LossSpec("relmf"), propensities, validation=data.validation)
print("numpy.ma" in sys.modules)
evaluate(run.final_model, data.test, cohorts=compute_cohorts(data.train))
print("numpy.ma" in sys.modules)
"""


def test_coat_path_loads_no_numpy_ma(tmp_path):
    # a dense prepare_datasets, a training run with validation and evaluate
    # with cohorts, each the coat path of an experiment
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", MA_SCRIPT, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\nFalse\nFalse\n"


TRIPLETS_MA_SCRIPT = """
import sys
from pathlib import Path
from uplrec import experiment
root = Path(sys.argv[1])
(root / "train.txt").write_text("10\\t7\\t5\\n10\\t8\\t4\\n20\\t9\\t5\\n")
(root / "test.txt").write_text("10\\t6\\t5\\n30\\t8\\t4\\n")
experiment.prepare_datasets(root, "triplets", seed=0)
print("numpy.ma" in sys.modules)
"""


def test_triplets_path_loads_no_numpy_ma(tmp_path):
    # a triplets prepare_datasets, which joins the two files' raw ids
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", TRIPLETS_MA_SCRIPT, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"
