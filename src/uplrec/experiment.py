"""Experiment orchestration: dataset preparation, hyperparameter grids on
validation DCG@5, repeated final runs, aggregation and significance tests.

The experiment method tokens map onto loss estimators as follows: ``ubpr``
is the practical clipped variant (its threshold is grid-tuned alongside d
and lambda), ``ubpr_nclip`` is unclipped ubpr (``LossSpec("ubpr")``),
``mfdu`` trains relmf (``LossSpec("relmf")``) until MF-DU's relevance prior
of unclicked cells has a source, and ``upl`` is two-stage: it reads the run
that ``trainer.stage_spec`` names, relmf under the same TrainConfig.

Training is a pure function of (LossSpec, TrainConfig) on the prepared
data, and every key trains through ``trainer.train_key``, as ``uplrec train``
does, so an experiment's run 0 of a method is what ``uplrec train`` gives for
the same token, seed and combo.  An experiment trains each distinct key once
and reuses the run where it recurs: a method's final run 0 is its grid run at
the chosen combo (both train at ``seed``), ``mfdu`` reads relmf's runs, and
each upl task is handed its held relmf stage.  A run is held only while a
later task of the experiment can still read it.
Outputs are deterministic functions of the config file: no timestamps,
stable ordering, fixed float formatting.
"""

from __future__ import annotations

import hashlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .datasets import (
    ImplicitDataset,
    align_index_spaces,
    generate_semi_synthetic,
    load_triplets,
    save_dataset,
    save_index_maps,
    split_validation,
)
from .evaluation import (
    CANDIDATE_MODES,
    DEFAULT_KS,
    CohortSpec,
    MetricReport,
    compute_cohorts,
    evaluate,
    one_tailed_t_test,
)
from .factor_model import TrainConfig
from .losses import LossSpec
from .propensity import DEFAULT_FLOOR, DEFAULT_POWER, PropensityTable
from .trainer import stage_spec, train_key

METHOD_TOKENS = ("wmf", "relmf", "mfdu", "bpr", "ubpr", "ubpr_nclip", "upl")
DISPLAY_NAMES = {
    "wmf": "WMF", "relmf": "Rel-MF", "mfdu": "MF-DU", "bpr": "BPR",
    "ubpr": "UBPR", "ubpr_nclip": "UBPR_NClip", "upl": "UPL",
}
METRIC_NAMES = ("dcg", "recall", "map")
# each dataset format's load_triplets format and (train, test) rating-file names
_RATING_FILES = {
    "coat": ("dense", ("train.ascii",), ("test.ascii",)),
    "triplets": ("triplets", ("train.txt", "ydata-ymusic-rating-study-v1_0-train.txt"),
                 ("test.txt", "ydata-ymusic-rating-study-v1_0-test.txt")),
}
DATASET_FORMATS = tuple(_RATING_FILES)


@dataclass
class ExperimentConfig:
    dataset: str = ""
    format: str = DATASET_FORMATS[0]
    train_file: str = ""
    test_file: str = ""
    methods: tuple = METHOD_TOKENS
    runs: int = 50
    seed: int = 0
    epsilon_train: float = 0.1
    epsilon_test: float = 0.0
    validation_fraction: float = 0.1
    d_grid: tuple = (100, 200, 300)
    lambda_grid: tuple = (1e-7, 1e-5, 1e-3)
    clip_grid: tuple = (0.0, -0.1, -1.0, -10.0)
    ks: tuple = DEFAULT_KS
    cohorts: bool = True
    candidates: str = CANDIDATE_MODES[0]
    batch_size: int = TrainConfig.batch_size
    learning_rate: float = TrainConfig.learning_rate
    max_epochs: int = TrainConfig.max_epochs
    patience: int = TrainConfig.patience
    wmf_weight: float = 10.0
    propensity_power: float = DEFAULT_POWER
    propensity_floor: float = DEFAULT_FLOOR
    threads: int = 1
    out: str = ""

    def __post_init__(self):
        if self.runs < 1:
            raise ValueError("runs must be >= 1")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")
        if not self.d_grid or not self.lambda_grid:
            raise ValueError("hyperparameter grid must be non-empty")
        if "ubpr" in self.methods and not self.clip_grid:
            raise ValueError("clip_grid must be non-empty when ubpr is run")
        if not self.methods:
            raise ValueError(f"methods must name at least one token, got {self.methods!r}")
        for m in self.methods:
            if m not in METHOD_TOKENS:
                raise ValueError(f"unknown method token {m!r}")
        if not self.ks or min(self.ks) < 1:
            raise ValueError(f"ks must be non-empty cutoffs >= 1, got {self.ks!r}")
        for name, values in (("methods", self.methods), ("ks", self.ks)):
            repeated = [v for v in values if values.count(v) > 1]
            if repeated:  # its rows would be written, and counted, twice
                raise ValueError(f"{name} repeats {repeated[0]!r}")
        if self.candidates not in CANDIDATE_MODES:
            raise ValueError(f"unknown candidate mode {self.candidates!r}")
        if self.format not in DATASET_FORMATS:
            raise ValueError(f"unknown dataset format {self.format!r}")
        for token in self.methods:  # TrainConfig and LossSpec reject what cannot train
            for combo in _grid_for(token, self):
                try:
                    _run_key(token, combo, self, self.seed)
                except ValueError as exc:
                    key, value = _rejected_setting(token, combo, self)
                    raise ValueError(f"{key} value {value!r} for method {token}: {exc}") \
                        from None

    def canonical_text(self) -> str:
        lines = []
        for f in sorted(fields(self), key=lambda f: f.name):
            v = getattr(self, f.name)
            if isinstance(v, tuple):
                v = ",".join(repr(x) if isinstance(x, float) else str(x) for x in v)
            lines.append(f"{f.name}={v}")
        return "\n".join(lines) + "\n"

    def hash(self) -> str:
        """Hash of what the config computes.  The rating files enter by the
        sha256 of their bytes, not by path, so the same data hashes alike
        wherever it lies; ``threads`` and ``out`` only say how and where to
        run, so they are left out."""
        paths = _rating_files(self.dataset, self.format, self.train_file, self.test_file)
        digests = ",".join(hashlib.sha256(p.read_bytes()).hexdigest() for p in paths)
        what = replace(self, dataset="", train_file="", test_file="", threads=1, out="")
        text = what.canonical_text() + f"ratings_sha256={digests}\n"
        return hashlib.sha256(text.encode()).hexdigest()[:16]


def _parser(default):
    """A config value's parser, read off the type of its field's default."""
    if isinstance(default, bool):
        return lambda s: s.strip().lower() in ("on", "true", "1", "yes")
    if isinstance(default, tuple):
        return lambda s: tuple(type(default[0])(t) for t in s.split(","))
    return type(default)


_PARSERS = {f.name: _parser(f.default) for f in fields(ExperimentConfig)}
_PARSERS["methods"] = lambda s: tuple(t.strip() for t in s.split(",") if t.strip())


GRID_KEYS = tuple(key for key in _PARSERS if key.endswith("_grid"))


def read_config_values(path, keys=tuple(_PARSERS)) -> dict:
    """The parsed values a flat key=value file sets; '#' comments; unknown
    keys and keys outside ``keys`` are errors."""
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, val = line.partition("=")
            key = key.strip()
            if key not in _PARSERS:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            if key not in keys:
                raise ValueError(f"{path}:{lineno}: {key!r} is not one of {', '.join(keys)}")
            values[key] = _PARSERS[key](val.strip())
    return values


def parse_config_file(path, overrides=None) -> ExperimentConfig:
    """Flat key=value config; '#' comments; unknown keys are errors."""
    values = read_config_values(path)
    for key, val in (overrides or {}).items():
        if key not in _PARSERS:
            raise ValueError(f"unknown config key {key!r}")
        if val is not None:  # None overrides nothing
            values[key] = _PARSERS[key](val) if isinstance(val, str) else val
    return ExperimentConfig(**values)


# ---------------------------------------------------------------------------
# Dataset preparation


@dataclass
class PreparedData:
    train: ImplicitDataset
    validation: ImplicitDataset
    test: ImplicitDataset
    user_ids: np.ndarray | None = None
    item_ids: np.ndarray | None = None


def _find_file(root: Path, explicit: str, candidates) -> Path:
    if explicit:
        p = Path(explicit)
        return p if p.is_absolute() else root / p
    for name in candidates:
        if (root / name).exists():
            return root / name
    raise FileNotFoundError(f"none of {candidates} found under {root}")


def _rating_files(dataset_path, format, train_file, test_file):
    """The (train, test) explicit-rating files that ``prepare_datasets`` reads."""
    if format not in _RATING_FILES:
        raise ValueError(f"unknown dataset format {format!r}")
    _, train_names, test_names = _RATING_FILES[format]
    root = Path(dataset_path)
    return (_find_file(root, train_file, train_names), _find_file(root, test_file, test_names))


def prepare_datasets(dataset_path, format=ExperimentConfig.format,
                     epsilon_train=ExperimentConfig.epsilon_train,
                     epsilon_test=ExperimentConfig.epsilon_test,
                     validation_fraction=ExperimentConfig.validation_fraction,
                     seed=ExperimentConfig.seed, train_file="", test_file="") -> PreparedData:
    """Load explicit ratings and produce (train, validation, test) implicit
    splits.  Generation seeds: train = seed, test = seed + 1, split = seed + 2.
    """
    train_ratings, test_ratings = (
        load_triplets(path, format=_RATING_FILES[format][0])
        for path in _rating_files(dataset_path, format, train_file, test_file))
    if format == "triplets":
        train_ratings, test_ratings = align_index_spaces(train_ratings, test_ratings)
    elif (train_ratings.num_users, train_ratings.num_items) != (
            test_ratings.num_users, test_ratings.num_items):
        raise ValueError("train/test dense matrices have different shapes")
    train_full = generate_semi_synthetic(train_ratings, epsilon_train, seed, "train")
    test = generate_semi_synthetic(test_ratings, epsilon_test, seed + 1, "test")
    train, validation = split_validation(train_full, validation_fraction, seed + 2)
    return PreparedData(
        train=train, validation=validation, test=test,
        user_ids=train_ratings.user_ids, item_ids=train_ratings.item_ids,
    )


def save_prepared(data: PreparedData, out_dir):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_dataset(data.train, out / "train")
    save_dataset(data.validation, out / "validation")
    save_dataset(data.test, out / "test")
    if data.user_ids is not None:
        save_index_maps(out, data.user_ids, data.item_ids)


# ---------------------------------------------------------------------------
# Single training jobs


def make_loss_spec(token: str, clip: float, wmf_weight: float) -> LossSpec:
    if token == "ubpr":
        return LossSpec("ubpr_clipped", clip_threshold=clip)
    if token == "ubpr_nclip":
        return LossSpec("ubpr")
    if token == "mfdu":
        return LossSpec("relmf")
    if token == "wmf":
        return LossSpec("wmf", wmf_weight=wmf_weight)
    return LossSpec(token)


def make_train_config(config: ExperimentConfig, d: int, lam: float, seed: int) -> TrainConfig:
    """The combo's d and lambda at ``seed``, the rest the experiment's fields."""
    shared = {f.name: getattr(config, f.name) for f in fields(TrainConfig)
              if hasattr(config, f.name)}
    return TrainConfig(**{**shared, "d": d, "lam": lam, "seed": seed})


def _grid_for(token: str, config: ExperimentConfig):
    """The method's (d, lambda, clip) combos; a value repeated in a grid
    names the same run, so each combo appears once."""
    combos = []
    clips = config.clip_grid if token == "ubpr" else (0.0,)
    for d in config.d_grid:
        for lam in config.lambda_grid:
            for clip in clips:
                combos.append((d, lam, clip))
    return list(dict.fromkeys(combos))


def _run_key(token: str, combo, config: ExperimentConfig, seed: int):
    """The (LossSpec, TrainConfig) a method trains at a grid combo and seed."""
    d, lam, clip = combo
    return (make_loss_spec(token, clip, config.wmf_weight),
            make_train_config(config, d, lam, seed))


def _rejected_setting(token, combo, config: ExperimentConfig):
    """The (config key, value) behind a key that fails to build: each
    TrainConfig setting is tried alone over the defaults, which build; if
    none fails, the LossSpec's one config value does."""
    d, lam, clip = combo
    settings = [("d_grid", "d", d), ("lambda_grid", "lam", lam)] + [
        (f.name, f.name, getattr(config, f.name)) for f in fields(TrainConfig)
        if hasattr(config, f.name)]
    for key, name, value in settings:
        try:
            TrainConfig(**{name: value})
        except ValueError:
            return key, value
    return ("clip_grid", clip) if token == "ubpr" else ("wmf_weight", config.wmf_weight)


def _specs_read(token: str, config: ExperimentConfig) -> set:
    """The LossSpecs whose runs a method reads: those it trains and their
    stages."""
    specs = {make_loss_spec(token, clip, config.wmf_weight)
             for _, _, clip in _grid_for(token, config)}
    return specs | {stage_spec(spec) for spec in specs} - {None}


# what every training task reads, set once in each pool worker
_POOL_STATE = {}


def _pool_init(state):
    _POOL_STATE.update(state)


def _train_task(task, state=_POOL_STATE):
    """``train_key`` on a task: (LossSpec, TrainConfig, stage model or None)."""
    spec, train_config, stage_model = task
    data = state["data"]
    return train_key(data.train, train_config, spec, state["propensities"],
                     data.validation, stage_model)


def _train_tasks(tasks, state):
    """Yield each task's runs in task order, trained in-process or, with
    threads > 1, on a worker pool."""
    threads = state["config"].threads
    if threads > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=threads, initializer=_pool_init,
                                 initargs=(state,)) as pool:
            yield from pool.map(_train_task, tasks)
    else:
        for task in tasks:
            yield _train_task(task, state)


class _Runs:
    """An experiment's training runs, keyed by (LossSpec, TrainConfig).

    Training is a pure function of its key on the prepared data, so each key
    trains once.  A run is held only while a later task can read it: a
    caller releases each key it is done with, and a run stays after that
    only if its LossSpec is in ``keep``, the specs the methods still to
    come read.
    """

    def __init__(self, state):
        self.state = state
        self.held = {}
        self.keep = set()

    def stream(self, keys):
        """Yield (key, run) in key order: the held run, or one trained now.

        The keys not held are trained in key order, on a pool all submitted
        at once; the keys must be distinct.  A task gets the model of its
        held stage run, or trains that stage first; a stage run is held only
        if its spec is kept.  Failed runs are never held.
        """
        fresh = [key for key in keys if key not in self.held]
        tasks = []
        for spec, train_config in fresh:
            stage = self.held.get((stage_spec(spec), train_config))
            tasks.append((spec, train_config, None if stage is None else stage.final_model))
        trained = _train_tasks(tasks, self.state)
        fresh = set(fresh)
        for key in keys:
            if key in fresh:
                *stages, self.held[key] = next(trained)
                for run in stages:
                    if run.loss_spec in self.keep:
                        self.held[run.loss_spec, run.config] = run
            yield key, self.held[key]

    def release(self, key):
        if key[0] not in self.keep:
            self.held.pop(key, None)

    def drop_unkept(self):
        self.held = {key: run for key, run in self.held.items() if key[0] in self.keep}


# ---------------------------------------------------------------------------
# The experiment driver


def run_experiment(config: ExperimentConfig, out_dir=None) -> Path:
    """Grid-search, repeated runs, aggregation, significance and tables."""
    out = Path(out_dir or config.out)
    if not str(out):
        raise ValueError("no output directory configured")
    out.mkdir(parents=True, exist_ok=True)
    (out / "logs").mkdir(exist_ok=True)
    cfg_hash = config.hash()
    (out / "config_resolved.cfg").write_text(config.canonical_text())
    (out / "config_hash.txt").write_text(cfg_hash + "\n")

    data = prepare_datasets(
        config.dataset, config.format, config.epsilon_train, config.epsilon_test,
        config.validation_fraction, config.seed, config.train_file, config.test_file)
    save_prepared(data, out / "data")
    propensities = PropensityTable.from_click_counts(
        data.train.item_click_counts, power=config.propensity_power,
        floor=config.propensity_floor)
    propensities.save(out / "propensities")
    # what every task reads: handed to each worker once, or passed in-process
    runs = _Runs({"data": data, "propensities": propensities, "config": config,
                  "cohorts": compute_cohorts(data.train, CohortSpec())
                  if config.cohorts else None})

    grid_rows = []
    all_reports: list[MetricReport] = []
    failures = []

    for idx, token in enumerate(config.methods):
        runs.keep = set().union(*(_specs_read(later, config)
                                  for later in config.methods[idx + 1:]))
        try:
            best_combo, method_grid_rows = _grid_search(token, runs)
            grid_rows.extend(method_grid_rows)
            all_reports.extend(_final_runs(token, best_combo, runs, out))
        except Exception as exc:  # isolate per-method failures
            failures.append((token, f"{type(exc).__name__}: {exc}"))
        runs.drop_unkept()

    _write_grid(out / "grid_search.tsv", grid_rows, cfg_hash)
    write_metrics(out / "per_run_metrics.tsv", all_reports,
                  f"config_hash={cfg_hash}\tbase_seed={config.seed}")
    write_aggregates(out, _metric_rows(all_reports), cfg_hash)
    if failures:
        with open(out / "failures.tsv", "w") as fh:
            fh.write("method\terror\n")
            for token, msg in failures:
                fh.write(f"{token}\t{msg}\n")
    return out


def _grid_search(token, runs: _Runs):
    """The best combo on validation DCG@5 and the grid rows.  The best run
    stays held: final run 0 has its key."""
    config = runs.state["config"]
    combos = _grid_for(token, config)
    keys = [_run_key(token, combo, config, config.seed) for combo in combos]
    rows = []
    best_combo, best_key, best_val = None, None, -np.inf
    for combo, (key, run) in zip(combos, runs.stream(keys)):
        val = max(run.validation_curve) if run.validation_curve else 0.0
        rows.append((token, *combo, val))
        if val > best_val:
            if best_key is not None:
                runs.release(best_key)
            best_combo, best_key, best_val = combo, key, val
        else:
            runs.release(key)
    return best_combo, rows


def _final_runs(token, combo, runs: _Runs, out: Path):
    """Run r trains at seed ``seed + r``; the logs are written once every run
    has been evaluated."""
    state = runs.state
    config = state["config"]
    keys = [_run_key(token, combo, config, config.seed + r) for r in range(config.runs)]
    reports, epoch_logs = [], []
    for run_idx, (key, run) in enumerate(runs.stream(keys)):
        reports.extend(evaluate(run.final_model, state["data"].test, ks=config.ks,
                                cohorts=state["cohorts"], candidates=config.candidates,
                                method=token, run=run_idx))
        epoch_logs.append(run.epoch_log)
        runs.release(key)
    for run_idx, epoch_log in enumerate(epoch_logs):
        write_epoch_log(out / "logs" / f"{token}_run{run_idx:03d}.log", epoch_log)
    return reports


# ---------------------------------------------------------------------------
# Report files


def write_epoch_log(path, epoch_log):
    """One line per epoch: its training loss and validation DCG@5, if any."""
    with open(path, "w") as fh:
        for epoch, loss, val in epoch_log:
            val_str = "" if val is None else f"{val:.10g}"
            fh.write(f"epoch={epoch}\ttrain_loss={loss:.10g}\tval_dcg5={val_str}\n")


def _write_grid(path, rows, cfg_hash):
    with open(path, "w") as fh:
        fh.write(f"# config_hash={cfg_hash}\n")
        fh.write("method\td\tlambda\tclip\tval_dcg5\n")
        for token, d, lam, clip, val in rows:
            fh.write(f"{token}\t{d}\t{lam:.17g}\t{clip:.17g}\t{val:.17g}\n")


def _metric_rows(reports):
    return [(rep.method, rep.run, rep.cohort, metric, rep.k, getattr(rep, metric))
            for rep in reports for metric in METRIC_NAMES]


def write_metrics(path, reports, comment=""):
    """The per-run metrics TSV: one row per report and metric, sorted by
    (method, run, cohort, metric, k), after an optional '#' comment line."""
    rows = sorted(_metric_rows(reports), key=lambda r: r[:5])
    with open(path, "w") as fh:
        if comment:
            fh.write(f"# {comment}\n")
        fh.write("method\trun\tcohort\tmetric\tk\tvalue\n")
        for method, run, cohort, metric, k, value in rows:
            fh.write(f"{method}\t{run}\t{cohort}\t{metric}\t{k}\t{value:.17g}\n")


def read_per_run(path):
    """Parse per_run_metrics.tsv back into row tuples."""
    rows = []
    with open(path) as fh:
        for line in fh:
            if line.startswith("#") or line.startswith("method\t") or not line.strip():
                continue
            method, run, cohort, metric, k, value = line.rstrip("\n").split("\t")
            rows.append((method, int(run), cohort, metric, int(k), float(value)))
    return rows


def write_aggregates(out_dir, rows, cfg_hash):
    """aggregate.tsv, significance.tsv and tables.md from per-run metric rows
    (method, run, cohort, metric, k, value)."""
    out = Path(out_dir)
    groups: dict[tuple, dict[str, list]] = {}
    for method, run, cohort, metric, k, value in rows:
        groups.setdefault((cohort, metric, k), {}).setdefault(method, []).append(value)

    with open(out / "aggregate.tsv", "w") as fh:
        fh.write(f"# config_hash={cfg_hash}\n")
        fh.write("method\tcohort\tmetric\tk\tmean\tstd\tn_runs\n")
        for (cohort, metric, k) in sorted(groups):
            for method in sorted(groups[(cohort, metric, k)]):
                vals = np.asarray(groups[(cohort, metric, k)][method])
                std = vals.std(ddof=1) if len(vals) > 1 else 0.0
                fh.write(f"{method}\t{cohort}\t{metric}\t{k}\t"
                         f"{vals.mean():.17g}\t{std:.17g}\t{len(vals)}\n")

    with open(out / "significance.tsv", "w") as fh:
        fh.write(f"# config_hash={cfg_hash}\n")
        fh.write("cohort\tmetric\tk\tmethod\tbest_competitor\tp_value\n")
        for (cohort, metric, k) in sorted(groups):
            methods = sorted(groups[(cohort, metric, k)])
            if len(methods) < 2:
                continue
            means = {m: float(np.mean(groups[(cohort, metric, k)][m])) for m in methods}
            for method in methods:
                others = [m for m in methods if m != method]
                best = max(others, key=lambda m: (means[m], m))
                a = groups[(cohort, metric, k)][method]
                b = groups[(cohort, metric, k)][best]
                if len(a) < 2 or len(b) < 2:
                    continue
                p = one_tailed_t_test(a, b)
                fh.write(f"{cohort}\t{metric}\t{k}\t{method}\t{best}\t{p:.6g}\n")

    _write_tables_md(out / "tables.md", groups, cfg_hash)


def _write_tables_md(path, groups, cfg_hash):
    cohorts = sorted({c for (c, _, _) in groups})
    with open(path, "w") as fh:
        fh.write(f"<!-- config_hash={cfg_hash} -->\n")
        for cohort in cohorts:
            keys = [(m, k) for m in METRIC_NAMES
                    for k in sorted({kk for (c, mm, kk) in groups
                                     if c == cohort and mm == m})]
            methods = sorted({meth for (c, m, k) in groups if c == cohort
                              for meth in groups[(c, m, k)]},
                             key=lambda t: METHOD_TOKENS.index(t)
                             if t in METHOD_TOKENS else 99)
            fh.write(f"\n## Ranking performance (cohort: {cohort})\n\n")
            header = "| Method | " + " | ".join(
                f"{m.upper()}@{k}" for m, k in keys) + " |\n"
            fh.write(header)
            fh.write("|---" * (len(keys) + 1) + "|\n")
            for method in methods:
                cells = []
                for m, k in keys:
                    vals = groups.get((cohort, m, k), {}).get(method)
                    cells.append(f"{np.mean(vals):.5f}" if vals else "-")
                fh.write(f"| {DISPLAY_NAMES.get(method, method)} | "
                         + " | ".join(cells) + " |\n")
