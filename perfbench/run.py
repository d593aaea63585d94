"""uplrec benchmark: one command, three workloads, end-to-end and per-layer
metrics.

    python3 perfbench/run.py --workload train-d200 --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  Set-up (importing the package, generating the Coat-shaped world
from ``--seed`` and writing its files) runs three times in child processes
and reports the median.  The workload then runs its job once to warm up and
repeats it until ``--seconds`` are spent (at least three times), reporting
medians.  With ``--trace 1`` one more repetition runs with spans recorded
around the calls into each layer, and the per-layer metrics replace the
end-to-end ones in the JSON line.  Every run prints the end-to-end figures
under the names of the workloads' own jobs (``train_s``, ``sweep_s``,
``verify_s``, ``pair_epoch_ms``, ...) as ``metric`` lines.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Operations are training
jobs or oracle checks; any failed correctness gate counts its operations as
failed and makes the exit code 1.  Spans of a traced run are written to
``.bench_work/traces/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
# The process runs under these settings; run.py re-executes itself until
# they hold, because BLAS and the C allocator read them only at start-up.
# With glibc's defaults every freed large temporary goes back to the kernel
# and is faulted in again on the next batch.  That system time swings with
# the load on the host: train-d200's run-to-run spread (quartile distance
# over median, ten seeds) was 0.20 with the defaults and 0.08 to 0.18 with
# these thresholds, which also cut its wall time by about a fifth.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "MALLOC_MMAP_THRESHOLD_": str(1 << 28),
    "MALLOC_TRIM_THRESHOLD_": str(1 << 28),
}
SETUP_REPEATS = 3
MIN_REPS = 3
MAX_MEASURE_S = 120.0  # keeps a run inside its time limit on a slow machine


def parse_args(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description="uplrec benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def setup(seed: int, work: Path):
    """Time SETUP_REPEATS set-ups in fresh processes; return the median wall
    time, the first set-up's world directory and its world statistics."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    walls, stats = [], None
    for k in range(SETUP_REPEATS):
        out = work / f"world{k}"
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("worldgen.py")),
             "--seed", str(seed), "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=120, check=True)
        walls.append(time.perf_counter() - start)
        stats = stats or json.loads(proc.stdout.strip().splitlines()[-1])
    return statistics.median(walls), work / "world0", stats


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": _git_sha(),
        "src_sha256": _sha256_tree(SRC),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(numpy),
    }


def _git_sha() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return proc.stdout.strip() if proc.returncode == 0 else "none"


def _sha256_tree(root: Path) -> str:
    """Content digest of the package sources, which names the code under test
    also where the checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _blas_threads(numpy) -> str:
    """Threads OpenBLAS reports, asked through its own API when the library
    that numpy bundles can be found; else the pinning variable."""
    import ctypes

    libs = sorted(Path(numpy.__file__).parent.parent.glob("numpy.libs/*openblas*.so*"))
    for lib in libs:
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS')}"


def measure(workload, seconds: float):
    """One warm-up repetition, whose outputs are checked but whose time is
    not kept, then repetitions for about ``seconds``, at least MIN_REPS."""
    warmup = workload.rep()
    if warmup.failed == warmup.attempted:
        return warmup, []
    reps = []
    start = time.perf_counter()
    while True:
        reps.append(workload.rep())
        elapsed = time.perf_counter() - start
        if reps[-1].failed == reps[-1].attempted:
            break
        if len(reps) >= MIN_REPS and (elapsed + reps[-1].wall_s > seconds
                                      or elapsed > MAX_MEASURE_S):
            break
    return warmup, reps


def traced_rep(workload, spans_path: Path):
    import layers
    from tracing import Tracer

    tracer = Tracer()
    layers.instrument(tracer)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    try:
        rep = workload.rep()
    finally:
        tracer.restore()
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    tracer.write(spans_path)
    return rep, tracer.spans, faults


def main() -> int:
    args = parse_args(sys.argv[1:])
    if any(os.environ.get(k) != v for k, v in PINNED_ENV.items()):
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]],
                  {**os.environ, **PINNED_ENV})
    if not (SRC / "uplrec" / "__init__.py").is_file():
        print(f"error: no package sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(args, work: Path) -> int:
    setup_s, world_dir, stats = setup(args.seed, work)
    import uplrec

    if Path(uplrec.__file__).resolve().parent != (SRC / "uplrec").resolve():
        print(f"error: uplrec imported from {uplrec.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    env = environment()
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"world seed={args.seed} " + " ".join(
        f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}" for k, v in stats.items()))

    workload = WORKLOADS[args.workload](world_dir, work, args.seed)
    warmup, timed = measure(workload, args.seconds)
    checked = [warmup, *timed]
    if args.trace:
        spans_path = WORK / "traces" / f"{args.workload}-seed{args.seed}.tsv"
        traced, spans, faults = traced_rep(workload, spans_path)
        checked.append(traced)
        print(f"spans: {len(spans)} written to {spans_path.relative_to(ROOT)}")

    # Every repetition of one commit must produce the same outputs.
    for k, rep in enumerate(checked):
        if rep.digest != warmup.digest:
            rep.failed = rep.attempted
            rep.errors.append(f"rep {k}: output digest {rep.digest} != {warmup.digest}")
        for error in rep.errors:
            print(f"gate failed: {error}", file=sys.stderr)
    attempted = sum(r.attempted for r in checked)
    failed = sum(r.failed for r in checked)

    timed = timed or [warmup]
    job_s = statistics.median(r.wall_s for r in timed)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"reps={len(timed)} rep_wall_s=" + ",".join(f"{r.wall_s:.3f}" for r in timed)
          + f" warmup_s={warmup.wall_s:.3f}")
    print(f"digest {warmup.digest}")
    for key, value in workload.readout().items():
        print(f"readout {args.workload} {key} "
              + (f"test_dcg@5={value:.5f}" if isinstance(value, float) else value))

    job_names = {"train-d200": "train_s", "sweep-d64": "sweep_s", "verify-suite": "verify_s"}
    readings = {
        "setup_s": (setup_s, "s"),
        job_names[args.workload]: (job_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "error_rate": (failed / attempted, "ratio"),
    }
    timings = {}
    for rep in timed:
        for name, values in rep.timings.items():
            timings.setdefault(name, []).extend(values)
    for name, values in timings.items():
        readings[name] = (statistics.median(values), "ms")
    for name, (value, unit) in readings.items():
        print(f"metric {name} = {value:.6g} {unit}")

    if args.trace:
        import layers

        per_layer = layers.metrics(spans, traced.wall_s, job_s, faults)
        for name, (value, unit) in per_layer.items():
            print(f"layer {name} = {value:.6g} {unit}")
        metrics = per_layer
    else:
        metrics = {"setup_s": (setup_s, "s"), "job_s": (job_s, "s"),
                   "peak_rss_mb": (peak_rss_mb, "MB")}
    correct = failed == 0
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
