"""Command-line entry points.

Subcommands:
  prepare     turn explicit-rating files into semi-synthetic implicit splits
  train       one training run on a dataset directory: the run 0 an
              experiment gives for the same token, seed and combo
  experiment  full sweep from a key=value config file (grid + repeated runs)
  verify      run the estimator oracle suite (exact moments + Monte Carlo)
  report      re-aggregate an experiment directory from its per-run TSV

A flag that sets a config field takes its type and default from the field,
in ExperimentConfig or TrainConfig; ``experiment`` reads its settings from
its config file alone.  ``prepare`` and ``train`` read a dataset one way,
as an experiment does: its rating files, split at ``--seed``.

A command refuses its request by raising UsageError, or lets the ParseError
or IntegrityError of a malformed input through; ``main`` alone prints it as
one ``error:`` line and returns 2.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
from dataclasses import fields
from pathlib import Path

from . import experiment as exp
from . import oracle
from .errors import IntegrityError, ParseError, SettingError, TrainingDivergedError, UsageError
from .evaluation import CANDIDATE_MODES, compute_cohorts, evaluate
from .experiment import METHOD_TOKENS, ExperimentConfig
from .factor_model import TrainConfig, save_checkpoint
from .trainer import train_key


def _flag(parser, key, default, **kwargs):
    """The --flag of a setting: its type and default are the setting's."""
    parser.add_argument("--" + key.replace("_", "-"), type=type(default), default=default,
                        **kwargs)


def _dataset_flags(parser):
    """--dataset and --format: the rating files an experiment's config names."""
    parser.add_argument("--dataset", required=True, help="dataset directory")
    _flag(parser, "format", ExperimentConfig.format, choices=exp.DATASET_FORMATS)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="uplrec", allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)
    command = functools.partial(sub.add_parser, allow_abbrev=False)  # no flag by prefix

    p = command("prepare", help="generate semi-synthetic implicit datasets")
    _dataset_flags(p)
    _flag(p, "seed", ExperimentConfig.seed)
    p.add_argument("--out", required=True)

    t = command("train", help="single training run on splits prepared at --seed")
    _dataset_flags(t)
    t.add_argument("--method", required=True, choices=METHOD_TOKENS)
    for f in fields(TrainConfig):
        _flag(t, f.name, f.default)
    _flag(t, "clip", 0.0)
    _flag(t, "candidates", ExperimentConfig.candidates, choices=CANDIDATE_MODES)
    t.add_argument("--out", required=True)

    e = command("experiment", help="full experiment sweep from a config file")
    e.add_argument("--config", required=True, help="flat key=value config file")

    v = command("verify", help="estimator oracle suite")
    v.add_argument("--world", default=None, help="world spec file; bundled suite if omitted")
    v.add_argument("--samples", type=int, default=oracle.VERIFY_SAMPLES)
    v.add_argument("--seed", type=int, default=oracle.VERIFY_SEED)
    v.add_argument("--exact-only", action="store_true", help="needs --world")
    v.add_argument("--out", default=None,
                   help="TSV of the Monte Carlo reports of a --world run")

    r = command("report", help="re-aggregate an experiment output directory")
    r.add_argument("--out", required=True)

    args = parser.parse_args(argv)
    try:
        if args.command != "experiment" and args.out == "":
            # Path("") is the working directory, which would take the outputs;
            # experiment's output directory is its config's out, checked there
            what = "file" if args.command == "verify" else "directory"
            raise UsageError(f"--out is empty: name an output {what}")
        return _COMMANDS[args.command](args)
    except (UsageError, ParseError, IntegrityError) as exc:  # each names what it refuses
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _read_dataset(args):
    """The splits an experiment at ``--seed`` prepares from ``--dataset``,
    and their propensities; UsageError names a rating file that cannot be
    read and splits that no run can train on."""
    try:
        data = exp.prepare_datasets(args.dataset, args.format, args.seed)
    except OSError as exc:  # names the file
        raise UsageError(str(exc)) from None
    return data, exp.check_splits(data, f"dataset {args.dataset}")


def _cmd_prepare(args) -> int:
    if args.seed < 0:  # numpy's generators take no negative seed
        raise UsageError(f"--seed: seed must be >= 0, got {args.seed}")
    data, _ = _read_dataset(args)  # the splits train would refuse
    exp.make_dir(args.out)  # after the input is checked, as train does
    exp.save_prepared(data, args.out)
    print(f"prepared {args.out}: train {len(data.train)} cells "
          f"({data.train.num_clicks} clicks), validation {len(data.validation)}, "
          f"test {len(data.test)}")
    return 0


def _cmd_train(args) -> int:
    try:
        train_config = TrainConfig(**{f.name: getattr(args, f.name)
                                      for f in fields(TrainConfig)})
        spec = exp.make_loss_spec(args.method, args.clip)
    except SettingError as exc:  # named by its flag
        flag = "clip" if exc.name == "clip_threshold" else exc.name
        raise UsageError(f"--{flag.replace('_', '-')} {exc.value!r}: {exc}") from None
    data, propensities = _read_dataset(args)
    if spec.is_pairwise and data.train.num_items < 2:  # no item j to pair a click with
        raise UsageError(f"dataset {args.dataset}: method {args.method} pairs each click "
                         f"with another item, but the catalog has {data.train.num_items} item")
    out = Path(args.out)
    exp.make_dir(out)
    try:
        *_, run = train_key(data.train, train_config, spec, propensities, data.validation)
    except TrainingDivergedError as exc:  # the line experiment writes to failures.tsv
        print(f"error: {args.method}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    save_checkpoint(run.final_model, out / "model.ckpt", seed=args.seed)
    cohorts = compute_cohorts(data.train)
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
    try:
        config = exp.parse_config_file(args.config)
        if not config.out:  # Path("") would be the working directory
            raise UsageError(f"{args.config}: no output directory: set out")
        config.rating_files()  # a dataset without them is a config error
    except (SettingError, OSError) as exc:  # a bad value, or a file it cannot read or find
        raise UsageError(str(exc)) from None
    out = exp.run_experiment(config)  # it refuses before it writes anything
    failures = out / "failures.tsv"
    print(f"experiment done: {out} (config hash {exp.read_config_hash(out)})")
    if failures.exists():
        print(f"some methods failed, see {failures}", file=sys.stderr)
        return 1
    return 0


def _cmd_verify(args) -> int:
    if args.exact_only and not args.world:
        raise UsageError("--exact-only needs --world")
    if args.out and (args.exact_only or not args.world):
        raise UsageError("--out needs --world without --exact-only")
    if args.seed < 0:  # numpy's generators take no negative seed
        raise UsageError(f"--seed must be >= 0, got {args.seed}")
    if not args.exact_only and args.samples < oracle.MIN_MC_SAMPLES:
        raise UsageError(f"--samples must be >= {oracle.MIN_MC_SAMPLES} for a Monte Carlo "
                         f"run, got {args.samples}")
    if args.out and Path(args.out).is_dir():
        raise UsageError(f"--out {args.out} is a directory")
    started = time.perf_counter()
    if args.world:
        try:
            world = oracle.parse_world_spec(args.world)
        except OSError as exc:  # names the file
            raise UsageError(str(exc)) from None
        if args.out:
            exp.make_dir(Path(args.out).parent)
        model = oracle.model_for_world(world, seed=args.seed)
        reports = oracle.estimator_reports(
            world, model, [(e,) for e in oracle.ESTIMATORS],
            None if args.exact_only else args.samples, args.seed)
        print(f"world: {world.num_users} users x {world.num_items} items "
              f"({world.num_cells} cells); ideal risk = {reports[0].ideal_risk:.10g}")
        for rep in reports:
            if args.exact_only:
                print(f"  {rep.estimator}: exact expectation = {rep.exact_expectation:.10g} "
                      f"(bias {rep.bias:+.3e}), exact variance = {rep.exact_variance:.10g}")
            else:
                print(f"  {rep.estimator}: mc mean={rep.mc_mean:.10g} "
                      f"var={rep.mc_variance:.6g} exact={rep.exact_expectation:.10g}")
        if args.out:
            oracle.reports_to_tsv(reports, args.out)
            print(f"wrote {args.out}")
        _report_time(f"{len(reports)} estimators", started)
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
    try:
        rows = exp.read_per_run(out / "per_run_metrics.tsv")
        cfg_hash = exp.read_config_hash(out)
    except OSError as exc:  # names the file
        raise UsageError(str(exc)) from None
    exp.write_aggregates(out, rows, cfg_hash)
    print(f"re-aggregated {len(rows)} rows into {out}")
    return 0


_COMMANDS = {"prepare": _cmd_prepare, "train": _cmd_train, "experiment": _cmd_experiment,
             "verify": _cmd_verify, "report": _cmd_report}


if __name__ == "__main__":
    sys.exit(main())
