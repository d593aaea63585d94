"""Command-line entry points.

Subcommands:
  prepare     turn explicit-rating files into semi-synthetic implicit splits
  train       one training run on a prepared dataset directory: the run 0
              an experiment gives for the same token, seed and combo
  experiment  full sweep from a key=value config file (grid + repeated runs)
  verify      run the estimator oracle suite (exact enumeration + Monte Carlo)
  report      re-aggregate an experiment directory from its per-run TSV

A flag that sets a config field takes its type and default from the field,
in ExperimentConfig or TrainConfig; ``experiment``'s are parsed as strings.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import fields
from pathlib import Path

from . import experiment as exp
from . import oracle
from .datasets import load_dataset
from .evaluation import CANDIDATE_MODES, CohortSpec, compute_cohorts, evaluate
from .experiment import METHOD_TOKENS, ExperimentConfig, PreparedData
from .factor_model import TrainConfig, save_checkpoint
from .propensity import PropensityTable
from .trainer import train_key


# the ExperimentConfig keys `experiment` flags override, given as strings
_OVERRIDE_KEYS = ("dataset", "format", "methods", "runs", "seed", "epsilon_train",
                  "epsilon_test", "threads", "out")


def _flag(parser, key, default, **kwargs):
    """The --flag of a setting: its type and default are the setting's."""
    parser.add_argument("--" + key.replace("_", "-"), type=type(default), default=default,
                        **kwargs)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="uplrec")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare", help="generate semi-synthetic implicit datasets")
    p.add_argument("--dataset", required=True, help="dataset file or directory")
    _flag(p, "format", ExperimentConfig.format, choices=exp.DATASET_FORMATS)
    for name in ("train_file", "test_file", "epsilon_train", "epsilon_test",
                 "validation_fraction", "seed"):
        _flag(p, name, getattr(ExperimentConfig, name))
    p.add_argument("--out", required=True)

    t = sub.add_parser("train", help="single training run on a prepared directory")
    t.add_argument("--data", required=True, help="directory written by `prepare`")
    t.add_argument("--method", required=True, choices=METHOD_TOKENS)
    for f in fields(TrainConfig):
        _flag(t, f.name, f.default)
    _flag(t, "clip", 0.0)
    _flag(t, "wmf_weight", ExperimentConfig.wmf_weight)
    _flag(t, "candidates", ExperimentConfig.candidates, choices=CANDIDATE_MODES)
    t.add_argument("--out", required=True)

    e = sub.add_parser("experiment", help="full experiment sweep from a config file")
    e.add_argument("--config", required=True, help="flat key=value config file")
    e.add_argument("--grid-file", default=None,
                   help="config file whose *_grid keys override the config's")
    for key in _OVERRIDE_KEYS:
        e.add_argument("--" + key.replace("_", "-"), default=None)

    v = sub.add_parser("verify", help="estimator oracle suite")
    v.add_argument("--world", default=None, help="world spec file; bundled suite if omitted")
    v.add_argument("--samples", type=int, default=100000)
    v.add_argument("--seed", type=int, default=1234)
    v.add_argument("--exact-only", action="store_true", help="needs --world")
    v.add_argument("--out", default=None,
                   help="TSV of the Monte Carlo reports of a --world run")

    r = sub.add_parser("report", help="re-aggregate an experiment output directory")
    r.add_argument("--out", required=True)

    args = parser.parse_args(argv)
    if args.command == "prepare":
        return _cmd_prepare(args)
    if args.command == "train":
        return _cmd_train(args)
    if args.command == "experiment":
        return _cmd_experiment(args)
    if args.command == "verify":
        return _cmd_verify(args)
    if args.command == "report":
        return _cmd_report(args)
    parser.error(f"unknown command {args.command!r}")
    return 2


def _cmd_prepare(args) -> int:
    data = exp.prepare_datasets(
        args.dataset, args.format, args.epsilon_train, args.epsilon_test,
        args.validation_fraction, args.seed, args.train_file, args.test_file)
    exp.save_prepared(data, args.out)
    print(f"prepared {args.out}: train {len(data.train)} cells "
          f"({data.train.num_clicks} clicks), validation {len(data.validation)}, "
          f"test {len(data.test)}")
    return 0


def _load_prepared(data_dir) -> PreparedData:
    root = Path(data_dir)
    return PreparedData(
        train=load_dataset(root / "train"),
        validation=load_dataset(root / "validation"),
        test=load_dataset(root / "test"),
    )


def _cmd_train(args) -> int:
    data = _load_prepared(args.data)
    propensities = PropensityTable.from_click_counts(data.train.item_click_counts)
    train_config = TrainConfig(**{f.name: getattr(args, f.name) for f in fields(TrainConfig)})
    spec = exp.make_loss_spec(args.method, args.clip, args.wmf_weight)
    *_, run = train_key(data.train, train_config, spec, propensities, data.validation)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_checkpoint(run.final_model, out / "model.ckpt", seed=args.seed)
    cohorts = compute_cohorts(data.train, CohortSpec())
    reports = evaluate(run.final_model, data.test, cohorts=cohorts,
                       candidates=args.candidates, method=args.method, run=0)
    exp.write_metrics(out / "metrics.tsv", reports)
    exp.write_epoch_log(out / "train.log", run.epoch_log)
    for rep in reports:
        if rep.cohort == "all":
            print(f"{args.method} k={rep.k}: dcg={rep.dcg:.5f} "
                  f"recall={rep.recall:.5f} map={rep.map:.5f}")
    print(f"wrote {out}")
    return 0


def _cmd_experiment(args) -> int:
    overrides = {key: getattr(args, key) for key in _OVERRIDE_KEYS}
    try:
        if args.grid_file:
            overrides.update(exp.read_config_values(args.grid_file, exp.GRID_KEYS))
        config = exp.parse_config_file(args.config, overrides)
    except ValueError as exc:  # a config error: one line, not a traceback
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out = exp.run_experiment(config)
    failures = out / "failures.tsv"
    print(f"experiment done: {out} (config hash {config.hash()})")
    if failures.exists():
        print(f"some methods failed, see {failures}", file=sys.stderr)
        return 1
    return 0


def _cmd_verify(args) -> int:
    if args.exact_only and not args.world:
        print("error: --exact-only needs --world", file=sys.stderr)
        return 2
    if args.out and (args.exact_only or not args.world):
        print("error: --out needs --world without --exact-only", file=sys.stderr)
        return 2
    if not args.exact_only and args.samples < oracle.MIN_MC_SAMPLES:
        print(f"error: --samples must be >= {oracle.MIN_MC_SAMPLES} for a Monte Carlo "
              f"run, got {args.samples}", file=sys.stderr)
        return 2
    started = time.perf_counter()
    if args.world:
        world = oracle.parse_world_spec(args.world)
        model = oracle.model_for_world(world, seed=args.seed)
        reports = []
        ideal = oracle.ideal_risk(world, model)
        print(f"world: {world.num_users} users x {world.num_items} items "
              f"({world.num_cells} cells); ideal risk = {ideal:.10g}")
        for estimator in oracle.ESTIMATORS:
            if args.exact_only:
                exact = oracle.exact_expectation(world, model, estimator)
                print(f"  {estimator}: exact expectation = {exact:.10g} "
                      f"(bias {exact - ideal:+.3e})")
            else:
                rep = oracle.mc_bias_variance(world, model, estimator,
                                              samples=args.samples, seed=args.seed)
                reports.append(rep)
                exact_str = ("" if rep.exact_expectation is None
                             else f" exact={rep.exact_expectation:.10g}")
                print(f"  {estimator}: mc mean={rep.mc_mean:.10g} "
                      f"var={rep.mc_variance:.6g}{exact_str}")
        if args.out:
            oracle.reports_to_tsv(reports, args.out)
            print(f"wrote {args.out}")
        _report_time(f"{len(oracle.ESTIMATORS)} estimators", started)
        return 0

    results = oracle.verification_suite(samples=args.samples, seed=args.seed)
    failed = 0
    for name, passed, detail in results:
        status = "PASS" if passed else "FAIL"
        failed += 0 if passed else 1
        print(f"{status} {name}: {detail}")
    _report_time(f"{len(results)} checks", started)
    return 1 if failed else 0


def _report_time(what, started):
    """Wall time to stderr, apart from the deterministic stdout."""
    print(f"verify: {what} in {time.perf_counter() - started:.2f} s", file=sys.stderr)


def _cmd_report(args) -> int:
    out = Path(args.out)
    rows = exp.read_per_run(out / "per_run_metrics.tsv")
    hash_file = out / "config_hash.txt"
    cfg_hash = hash_file.read_text().strip() if hash_file.exists() else "unknown"
    exp.write_aggregates(out, rows, cfg_hash)
    print(f"re-aggregated {len(rows)} rows into {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
