"""What ``import uplrec`` loads.  scipy.stats took about two thirds of the
package's import time and 45 MB of its memory (BENCH_11.json); both t tests
read their tail from scipy.special instead, so it must not come back
unnoticed."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import sys
import uplrec
from uplrec import oracle
world = oracle.random_world(1, 5, seed=3)
model = oracle.model_for_world(world, seed=4)
uplrec.one_tailed_t_test([0.1, 0.4, 0.3], [0.2, 0.0, 0.1])
oracle.variance_order_test(world, model, "ubpr", "upl", samples=oracle.MIN_MC_SAMPLES, seed=5)
print(sorted(name for name in sys.modules if name.startswith("scipy.stats")))
"""


def test_scipy_stats_never_imported():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
