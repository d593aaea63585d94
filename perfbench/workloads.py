"""The three benchmark workloads.

Each workload is built once from the generated world and then repeated; one
repetition (``rep``) is one timed job plus its correctness checks, which run
outside the timed region.

* ``train-d200``: trainer.train for bpr and clipped ubpr, then the two-stage
  relmf -> upl pipeline through the same public calls run_upl_pipeline
  makes, at d=200, batch 256, validation every epoch and a fixed epoch count.
  The mini-batch step dominates: sampling, gathers, loss, scatter-add, Adam.
* ``sweep-d64``: experiment.run_experiment on the Coat files, all seven
  method tokens, one d and lambda, two clip thresholds, two final runs,
  early stopping with the default patience, threads=1.  At d=64 the step is
  cheap, so validation, evaluate() and the writers weigh more.
* ``verify-suite``: oracle.verification_suite, what ``uplrec verify`` runs.
  It uses the loss functions full-batch and bypasses trainer and evaluation.
"""

from __future__ import annotations

import hashlib
import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

SWEEP_METHODS = ("wmf", "relmf", "mfdu", "bpr", "ubpr", "ubpr_nclip", "upl")
SWEEP_RUNS = 2
SWEEP_CLIPS = (0.0, -1.0)
# Caps each early-stopped job so that the work, and so the wall time, stays
# close across world seeds; patience keeps its default of 5.
SWEEP_MAX_EPOCHS = 6
TRAIN_EPOCHS = 6
UBPR_CLIP = 0.0
VERIFY_BASE_SEED = 1234  # `uplrec verify` default; the workload seed is added


@dataclass
class Rep:
    """Outcome of one repetition."""

    wall_s: float
    attempted: int
    failed: int
    digest: str | None = None
    errors: list = field(default_factory=list)
    timings: dict = field(default_factory=dict)  # name -> list of values


def _sha256(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def _finite_losses(epoch_log) -> bool:
    return all(math.isfinite(loss) for _, loss, _ in epoch_log)


class TrainD200:
    name = "train-d200"

    def __init__(self, world_dir: Path, work_dir: Path, seed: int):
        from uplrec import experiment
        from uplrec.factor_model import TrainConfig
        from uplrec.losses import LossSpec
        from uplrec.propensity import PropensityTable

        self.data = experiment.prepare_datasets(str(world_dir), format="coat", seed=seed)
        self.propensities = PropensityTable.from_click_counts(
            self.data.train.item_click_counts)
        # patience == max_epochs: validation runs every epoch but never stops
        # training early, so every commit does the same number of epochs.
        self.config = TrainConfig(d=200, lam=1e-5, learning_rate=0.001, batch_size=256,
                                  max_epochs=TRAIN_EPOCHS, patience=TRAIN_EPOCHS, seed=seed)
        self.jobs = (
            ("bpr", LossSpec("bpr")),
            ("ubpr", LossSpec("ubpr_clipped", clip_threshold=UBPR_CLIP)),
            ("relmf", LossSpec("relmf")),
            ("upl", LossSpec("upl")),
        )
        self.runs = {}

    def rep(self) -> Rep:
        from uplrec import trainer

        runs, errors = {}, []
        timings = {"pair_epoch_ms": [], "point_epoch_ms": []}
        start = time.perf_counter()
        for label, spec in self.jobs:
            extra = {}
            if label == "upl":
                if "relmf" not in runs:
                    errors.append("upl: relmf stage failed")
                    continue
                extra["gamma_hat"] = trainer.relevance_predictor(runs["relmf"].final_model)
            t0 = time.perf_counter()
            try:
                run = trainer.train(self.data.train, self.config, spec, self.propensities,
                                    validation=self.data.validation, **extra)
            except Exception as exc:  # one failed job must not hide the others
                errors.append(f"{label}: {type(exc).__name__}: {exc}")
                continue
            ms = (time.perf_counter() - t0) * 1e3 / max(run.epochs_trained, 1)
            timings["pair_epoch_ms" if spec.is_pairwise else "point_epoch_ms"].append(ms)
            timings[f"{label}_epoch_ms"] = [ms]
            if not _finite_losses(run.epoch_log):
                errors.append(f"{label}: non-finite training loss")
                continue
            runs[label] = run
        wall = time.perf_counter() - start
        digest = _sha256(
            runs[label].final_model.user_factors.tobytes()
            + runs[label].final_model.item_factors.tobytes()
            for label, _ in self.jobs if label in runs)
        self.runs = runs
        return Rep(wall, len(self.jobs), len(self.jobs) - len(runs), digest, errors, timings)

    def readout(self) -> dict:
        """Test DCG@5 of each final model of the last repetition."""
        from uplrec.evaluation import evaluate

        out = {}
        for label, run in self.runs.items():
            reports = evaluate(run.final_model, self.data.test, ks=(5,))
            out[label] = next(r.dcg for r in reports if r.cohort == "all")
        return out


class SweepD64:
    name = "sweep-d64"

    def __init__(self, world_dir: Path, work_dir: Path, seed: int):
        from uplrec import experiment

        # The same output path every repetition: the config hash written into
        # each table covers it, and the tables must match byte for byte.
        self.out = work_dir / "sweep"
        self.config = experiment.ExperimentConfig(
            dataset=str(world_dir), format="coat", methods=SWEEP_METHODS,
            runs=SWEEP_RUNS, seed=seed, d_grid=(64,), lambda_grid=(1e-5,),
            clip_grid=SWEEP_CLIPS, cohorts=True, candidates="catalog",
            max_epochs=SWEEP_MAX_EPOCHS, threads=1, out=str(self.out))
        self.jobs = {m: (len(SWEEP_CLIPS) if m == "ubpr" else 1) + SWEEP_RUNS
                     for m in SWEEP_METHODS}
        self.dcg5 = {}

    def rep(self) -> Rep:
        from uplrec import experiment

        shutil.rmtree(self.out, ignore_errors=True)
        attempted = sum(self.jobs.values())
        start = time.perf_counter()
        try:
            experiment.run_experiment(self.config)
        except Exception as exc:  # reported as every job failing
            return Rep(time.perf_counter() - start, attempted, attempted,
                       errors=[f"run_experiment: {type(exc).__name__}: {exc}"])
        wall = time.perf_counter() - start
        bad, errors = self._check()
        digest = _sha256((self.out / name).read_bytes() for name in
                         ("per_run_metrics.tsv", "aggregate.tsv", "tables.md"))
        return Rep(wall, attempted, sum(self.jobs[m] for m in bad), digest, errors)

    def _check(self):
        """Methods whose output is missing or wrong, with the reasons."""
        bad, errors = set(), []
        failures = self.out / "failures.tsv"
        if failures.exists():
            for line in failures.read_text().splitlines()[1:]:
                method, _, message = line.partition("\t")
                bad.add(method)
                errors.append(f"{method}: {message}")
        self.dcg5 = {}
        for line in (self.out / "aggregate.tsv").read_text().splitlines():
            cols = line.split("\t")
            if line.startswith("#") or cols[0] == "method":
                continue
            if cols[1:4] == ["all", "dcg", "5"]:
                self.dcg5[cols[0]] = float(cols[4])
        for method in SWEEP_METHODS:
            if method not in self.dcg5:
                bad.add(method)
                errors.append(f"{method}: missing from aggregate.tsv")
            for run in range(SWEEP_RUNS):
                log = self.out / "logs" / f"{method}_run{run:03d}.log"
                losses = [float(part.split("=", 1)[1])
                          for line in (log.read_text().splitlines() if log.exists() else [])
                          for part in line.split("\t") if part.startswith("train_loss=")]
                if not losses or not all(math.isfinite(v) for v in losses):
                    bad.add(method)
                    errors.append(f"{method}: run {run} log missing or non-finite loss")
        return bad, errors

    def readout(self) -> dict:
        return dict(self.dcg5)


class VerifySuite:
    name = "verify-suite"

    def __init__(self, world_dir: Path, work_dir: Path, seed: int):
        self.seed = VERIFY_BASE_SEED + seed
        self.results = []

    def rep(self) -> Rep:
        from uplrec import oracle

        start = time.perf_counter()
        self.results = oracle.verification_suite(seed=self.seed)
        wall = time.perf_counter() - start
        errors = [f"FAIL {name}: {detail}" for name, ok, detail in self.results if not ok]
        digest = _sha256(f"{name}\t{ok}\t{detail}\n".encode()
                         for name, ok, detail in self.results)
        return Rep(wall, len(self.results), len(errors), digest, errors)

    def readout(self) -> dict:
        return {name: ("PASS" if ok else "FAIL") for name, ok, _ in self.results}


WORKLOADS = {w.name: w for w in (TrainD200, SweepD64, VerifySuite)}
