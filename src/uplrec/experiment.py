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
import itertools
import math
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .datasets import (
    ImplicitDataset,
    align_index_spaces,
    generate_semi_synthetic,
    load_triplets,
    read_lines,
    refuse_repeats,
    save_dataset,
    save_index_maps,
    split_validation,
    write_tsv,
)
from .errors import IntegrityError, ParseError, SettingError, UsageError
from .evaluation import (
    CANDIDATE_MODES,
    MetricReport,
    compute_cohorts,
    evaluate,
    one_tailed_t_test,
)
from .factor_model import TrainConfig
from .losses import LossSpec
from .propensity import PropensityTable
from .trainer import stage_spec, train_key

# each method token's (display name, the estimator it trains), in table order
METHODS = {
    "wmf": ("WMF", "wmf"), "relmf": ("Rel-MF", "relmf"), "mfdu": ("MF-DU", "relmf"),
    "bpr": ("BPR", "bpr"), "ubpr": ("UBPR", "ubpr_clipped"),
    "ubpr_nclip": ("UBPR_NClip", "ubpr"), "upl": ("UPL", "upl"),
}
METHOD_TOKENS = tuple(METHODS)
METRIC_NAMES = ("dcg", "recall", "map")
# each dataset format's load_triplets format and (train, test) rating-file names
_RATING_FILES = {
    "coat": ("dense", ("train.ascii",), ("test.ascii",)),
    "triplets": ("triplets", ("train.txt", "ydata-ymusic-rating-study-v1_0-train.txt"),
                 ("test.txt", "ydata-ymusic-rating-study-v1_0-test.txt")),
}
DATASET_FORMATS = tuple(_RATING_FILES)
# the semi-synthetic protocol: the epsilon of train's and test's relevance
# probabilities and the share of train's exposed cells held out for validation
EPSILON_TRAIN = 0.1
EPSILON_TEST = 0.0
VALIDATION_FRACTION = 0.1
# the config key of each TrainConfig and LossSpec field it does not share a name with
_CONFIG_KEYS = {"d": "d_grid", "lam": "lambda_grid", "clip_threshold": "clip_grid"}


@dataclass
class ExperimentConfig:
    dataset: str = ""
    format: str = DATASET_FORMATS[0]
    methods: tuple = METHOD_TOKENS
    runs: int = 50
    seed: int = 0
    d_grid: tuple = (100, 200, 300)
    lambda_grid: tuple = (1e-7, 1e-5, 1e-3)
    clip_grid: tuple = (0.0, -0.1, -1.0, -10.0)
    cohorts: bool = True
    candidates: str = CANDIDATE_MODES[0]
    batch_size: int = TrainConfig.batch_size
    learning_rate: float = TrainConfig.learning_rate
    max_epochs: int = TrainConfig.max_epochs
    patience: int = TrainConfig.patience
    threads: int = 1
    out: str = ""

    def __post_init__(self):
        if self.runs < 1:
            raise SettingError("runs", self.runs, "runs must be >= 1")
        if self.threads < 1:
            raise SettingError("threads", self.threads, "threads must be >= 1")
        if self.seed < 0:  # numpy's generators take no negative seed
            raise SettingError("seed", self.seed, f"seed must be >= 0, got {self.seed!r}")
        last_seed = self.seed + self.runs - 1  # run r trains at seed + r
        try:
            TrainConfig(seed=last_seed)
        except SettingError as exc:
            raise SettingError("seed", self.seed, f"seed value {self.seed!r} with runs "
                               f"{self.runs!r}: last run seed {last_seed}: {exc}") from None
        for key, grid in (("d_grid", self.d_grid), ("lambda_grid", self.lambda_grid)):
            if not grid:
                raise SettingError(key, grid, "hyperparameter grid must be non-empty")
        if "ubpr" in self.methods and not self.clip_grid:
            raise SettingError("clip_grid", self.clip_grid,
                               "clip_grid must be non-empty when ubpr is run")
        if not self.methods:
            raise SettingError("methods", self.methods,
                               f"methods must name at least one token, got {self.methods!r}")
        for m in self.methods:
            if m not in METHOD_TOKENS:
                raise SettingError("methods", self.methods, f"unknown method token {m!r}")
        repeated = [m for m in self.methods if self.methods.count(m) > 1]
        if repeated:  # its rows would be written, and counted, twice
            raise SettingError("methods", self.methods, f"methods repeats {repeated[0]!r}")
        if self.candidates not in CANDIDATE_MODES:
            raise SettingError("candidates", self.candidates,
                               f"unknown candidate mode {self.candidates!r}")
        if self.format not in DATASET_FORMATS:
            raise SettingError("format", self.format, f"unknown dataset format {self.format!r}")
        for token in self.methods:  # TrainConfig and LossSpec reject what cannot train
            try:
                for combo in _grid_for(token, self):
                    _run_key(token, combo, self, self.seed)
            except SettingError as exc:
                key = _CONFIG_KEYS.get(exc.name, exc.name)
                raise SettingError(key, exc.value, f"{key} value {exc.value!r} for method "
                                   f"{token}: {exc}") from None

    def canonical_text(self) -> str:
        lines = []
        for f in sorted(fields(self), key=lambda f: f.name):
            v = getattr(self, f.name)
            if isinstance(v, tuple):
                v = ",".join(repr(x) if isinstance(x, float) else str(x) for x in v)
            lines.append(f"{f.name}={v}")
        return "\n".join(lines) + "\n"

    def rating_files(self) -> tuple[Path, Path]:
        """The (train, test) rating files the config reads; FileNotFoundError
        names the dataset and the file it lacks or that is not a file."""
        return _rating_files(self.dataset, self.format)

    def hash(self) -> str:
        """Hash of what the config computes.  The rating files enter by the
        sha256 of their bytes, not by path, so the same data hashes alike
        wherever it lies; ``threads`` and ``out`` only say how and where to
        run, so they are left out."""
        digests = ",".join(hashlib.sha256(p.read_bytes()).hexdigest()
                           for p in self.rating_files())
        what = replace(self, dataset="", threads=1, out="")
        text = what.canonical_text() + f"ratings_sha256={digests}\n"
        return hashlib.sha256(text.encode()).hexdigest()[:16]


def _parser(default):
    """A config value's parser, read off the type of its field's default."""
    if isinstance(default, bool):
        def parse_bool(s):
            word = s.strip().lower()
            if word in ("on", "true", "yes", "1"):
                return True
            if word in ("off", "false", "no", "0"):
                return False
            raise ValueError(f"expected on/off, true/false, yes/no or 1/0, got {s!r}")
        return parse_bool
    if isinstance(default, tuple):
        return lambda s: tuple(type(default[0])(t) for t in s.split(","))
    return type(default)


_PARSERS = {f.name: _parser(f.default) for f in fields(ExperimentConfig)}
_PARSERS["methods"] = lambda s: tuple(t.strip() for t in s.split(",") if t.strip())


def read_config_values(path) -> dict:
    """The parsed values a flat key=value file sets; '#' comments; unknown
    keys and values that do not parse are errors."""
    values = {}
    for lineno, line in read_lines(path, "#"):
        if "=" not in line:
            raise ParseError(path, lineno, f"expected key=value, got {line!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in _PARSERS:
            raise ParseError(path, lineno, f"unknown config key {key!r}")
        try:
            values[key] = _PARSERS[key](val.strip())
        except ValueError as exc:
            raise ParseError(path, lineno, f"{key}: {exc}") from None
    return values


def parse_config_file(path) -> ExperimentConfig:
    """Flat key=value config; '#' comments; unknown keys are errors."""
    return ExperimentConfig(**read_config_values(path))


# ---------------------------------------------------------------------------
# Dataset preparation


@dataclass
class PreparedData:
    train: ImplicitDataset
    validation: ImplicitDataset
    test: ImplicitDataset
    user_ids: np.ndarray
    item_ids: np.ndarray


def _find_file(root: Path, names) -> Path:
    """The first of ``names`` in directory ``root``; FileNotFoundError when
    none is there or the first there is not a file."""
    for name in names:
        p = root / name
        if p.is_file():
            return p
        if p.exists():  # a directory, say: refused, not passed over
            raise FileNotFoundError(f"dataset {root}: rating file {p} is not a file")
    raise FileNotFoundError(f"dataset {root}: none of {', '.join(names)} found")


def _rating_files(dataset_path, format):
    """The (train, test) explicit-rating files that ``prepare_datasets`` reads:
    each the first of the format's names found in the dataset directory."""
    if format not in _RATING_FILES:
        raise ValueError(f"unknown dataset format {format!r}")
    _, train_names, test_names = _RATING_FILES[format]
    root = Path(dataset_path)
    return _find_file(root, train_names), _find_file(root, test_names)


def prepare_datasets(dataset_path, format=ExperimentConfig.format,
                     seed=ExperimentConfig.seed) -> PreparedData:
    """Load explicit ratings and produce (train, validation, test) implicit
    splits at EPSILON_TRAIN, EPSILON_TEST and VALIDATION_FRACTION.
    Generation seeds: train = seed, test = seed + 1, split = seed + 2.
    """
    paths = _rating_files(dataset_path, format)
    train_ratings, test_ratings = (load_triplets(path, format=_RATING_FILES[format][0])
                                   for path in paths)
    if format == "triplets":
        train_ratings, test_ratings = align_index_spaces(train_ratings, test_ratings)
    elif (train_ratings.num_users, train_ratings.num_items) != (
            test_ratings.num_users, test_ratings.num_items):
        raise IntegrityError("{} and {} have different shapes, {}x{} and {}x{}".format(
            *paths, train_ratings.num_users, train_ratings.num_items,
            test_ratings.num_users, test_ratings.num_items))
    train_full = generate_semi_synthetic(train_ratings, EPSILON_TRAIN, seed, "train")
    test = generate_semi_synthetic(test_ratings, EPSILON_TEST, seed + 1, "test")
    train, validation = split_validation(train_full, VALIDATION_FRACTION, seed + 2)
    return PreparedData(
        train=train, validation=validation, test=test,
        user_ids=train_ratings.user_ids, item_ids=train_ratings.item_ids,
    )


def make_dir(path):
    """Create directory ``path`` and its parents; UsageError names it when
    that fails."""
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"cannot create directory {path}: {exc.strerror}") from None


def check_splits(data: PreparedData, where) -> PropensityTable:
    """The propensities of the train split's clicks.  UsageError, after
    ``where``, unless the train split holds a click, without which there is
    no propensity, and the validation split holds one: without it each epoch's
    validation DCG@5 reads 0, and every run keeps its epoch-0 model."""
    if not data.train.num_clicks:
        raise UsageError(f"{where}: train split: all click counts are zero")
    if not data.validation.num_clicks:
        raise UsageError(f"{where}: validation split has {len(data.validation)} cells and "
                         "0 clicks: its DCG@5 would read 0 at every epoch")
    return PropensityTable.from_click_counts(data.train.item_click_counts)


def save_prepared(data: PreparedData, out_dir):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_dataset(data.train, out / "train")
    save_dataset(data.validation, out / "validation")
    save_dataset(data.test, out / "test")
    save_index_maps(out, data.user_ids, data.item_ids)


# ---------------------------------------------------------------------------
# Single training jobs


def make_loss_spec(token: str, clip: float) -> LossSpec:
    """The LossSpec of the token's estimator; ``clip`` is read by ubpr alone."""
    estimator = METHODS[token][1]
    return LossSpec(estimator, clip if estimator == "ubpr_clipped" else None)


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
    return make_loss_spec(token, clip), make_train_config(config, d, lam, seed)


def _specs_read(token: str, config: ExperimentConfig) -> set:
    """The LossSpecs whose runs a method reads: those it trains and their
    stages."""
    specs = {make_loss_spec(token, clip) for _, _, clip in _grid_for(token, config)}
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
    """Yield each task's runs in task order, trained in-process or on a pool of
    min(threads, tasks) workers when that is more than one.  The pool is the
    call's own: once a worker dies a pool refuses every later submit, so one
    pool per experiment would fail every later method after one crash.  Only
    a pool imports ``multiprocessing``, about 1.2 MB of a process's RSS."""
    workers = min(state["config"].threads, len(tasks))  # each forked at the first submit
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers, initializer=_pool_init,
                                 initargs=(state,)) as pool:
            yield from pool.map(_train_task, tasks)
    else:
        for task in tasks:
            yield _train_task(task, state)


class _Runs:
    """An experiment's training runs, keyed by (LossSpec, TrainConfig).

    Training is a pure function of its key on the experiment's splits, so each key
    trains once.  A run is held only while a later task can read it, that
    is while its LossSpec is in ``keep``, the specs the methods still to
    come read; any other run lives only as long as its caller keeps it.
    """

    def __init__(self, state):
        self.state = state
        self.held = {}
        self.keep = set()

    def stream(self, keys):
        """Yield each key's run in key order: the held run, or one trained now.

        The keys not held are trained in key order, on a pool all submitted
        at once; the keys must be distinct.  A task gets the model of its
        held stage run, or trains that stage first.  A trained run, stage or
        not, is held if its spec is kept; failed runs are never held.
        """
        fresh = [key for key in keys if key not in self.held]
        tasks = []
        for spec, train_config in fresh:
            stage = self.held.get((stage_spec(spec), train_config))
            tasks.append((spec, train_config, None if stage is None else stage.final_model))
        trained = _train_tasks(tasks, self.state)
        fresh = set(fresh)
        for key in keys:
            if key not in fresh:
                yield self.held[key]
                continue
            runs = next(trained)
            for run in runs:
                if run.loss_spec in self.keep:
                    self.held[run.loss_spec, run.config] = run
            yield runs[-1]

    def drop_unkept(self):
        self.held = {key: run for key, run in self.held.items() if key[0] in self.keep}


# ---------------------------------------------------------------------------
# The experiment driver


CONFIG_HASH_FILE = "config_hash.txt"


def run_experiment(config: ExperimentConfig) -> Path:
    """Grid-search, repeated runs, aggregation, significance and tables."""
    if not config.out:  # Path("") would be the working directory
        raise ValueError("no output directory configured: set out")
    out = Path(config.out)
    # find and parse the rating files, estimate the propensities from the
    # train split's clicks and check the validation split's, before writing
    cfg_hash = config.hash()
    data = prepare_datasets(config.dataset, config.format, config.seed)
    propensities = check_splits(data, f"dataset {config.dataset}")
    make_dir(out)
    (out / "logs").mkdir(exist_ok=True)
    (out / "config_resolved.cfg").write_text(config.canonical_text())
    (out / CONFIG_HASH_FILE).write_text(cfg_hash + "\n")
    save_prepared(data, out / "data")
    propensities.save(out / "propensities")
    # what every task reads: handed to each worker once, or passed in-process
    runs = _Runs({"data": data, "propensities": propensities, "config": config,
                  "cohorts": compute_cohorts(data.train) if config.cohorts else None})

    grid_rows = []
    all_reports: list[MetricReport] = []
    failures = []

    for idx, token in enumerate(config.methods):
        runs.keep = set().union(*(_specs_read(later, config)
                                  for later in config.methods[idx + 1:]))
        try:  # no local here holds the grid's best run past its final runs
            all_reports.extend(
                _final_runs(token, runs, out, *_grid_search(token, runs, grid_rows)))
        except Exception as exc:  # isolate per-method failures
            failures.append((token, f"{type(exc).__name__}: {exc}"))
        runs.drop_unkept()

    write_tsv(out / "grid_search.tsv", ("method", "d", "lambda", "clip", "val_dcg5"),
              ((token, d, f"{lam:.17g}", f"{clip:.17g}", f"{val:.17g}")
               for token, d, lam, clip, val in grid_rows), [f"config_hash={cfg_hash}"])
    write_metrics(out / "per_run_metrics.tsv", all_reports,
                  [f"config_hash={cfg_hash}", f"base_seed={config.seed}"])
    write_aggregates(out, _metric_rows(all_reports), cfg_hash)
    if failures:
        write_tsv(out / "failures.tsv", ("method", "error"), failures)
    return out


def _grid_search(token, runs: _Runs, grid_rows: list):
    """The best combo on validation DCG@5 (the best of each run's epochs)
    and its run; the combos' rows join ``grid_rows`` once every combo has
    trained.  Only the best run so far is kept past its row."""
    config = runs.state["config"]
    combos = _grid_for(token, config)
    keys = [_run_key(token, combo, config, config.seed) for combo in combos]
    rows = []
    best_combo, best_run, best_val = None, None, -np.inf
    for combo, run in zip(combos, runs.stream(keys)):
        val = max(v for _, _, v in run.epoch_log)
        rows.append((token, *combo, val))
        if val > best_val:
            best_combo, best_run, best_val = combo, run, val
    grid_rows.extend(rows)
    return best_combo, best_run


def _final_runs(token, runs: _Runs, out: Path, combo, best_run):
    """Run r trains at seed ``seed + r``; run 0 is the grid's ``best_run``,
    which trained at ``seed``.  The logs are written once every run has been
    evaluated."""
    state = runs.state
    config = state["config"]
    keys = [_run_key(token, combo, config, config.seed + r) for r in range(1, config.runs)]
    reports, epoch_logs = [], []
    for run_idx, run in enumerate(itertools.chain([best_run], runs.stream(keys))):
        reports.extend(evaluate(run.final_model, state["data"].test, cohorts=state["cohorts"],
                                candidates=config.candidates, method=token, run=run_idx))
        epoch_logs.append(run.epoch_log)
    for run_idx, epoch_log in enumerate(epoch_logs):
        write_epoch_log(out / "logs" / f"{token}_run{run_idx:03d}.log", epoch_log)
    return reports


# ---------------------------------------------------------------------------
# Report files


def write_epoch_log(path, epoch_log):
    """One line per epoch: its training loss and validation DCG@5."""
    write_tsv(path, None, ((f"epoch={epoch}", f"train_loss={loss:.10g}", f"val_dcg5={val:.10g}")
                           for epoch, loss, val in epoch_log))


def _metric_rows(reports):
    return [(rep.method, rep.run, rep.cohort, metric, rep.k, getattr(rep, metric))
            for rep in reports for metric in METRIC_NAMES]


def write_metrics(path, reports, comment=None):
    """The per-run metrics TSV: one row per report and metric, sorted by
    (method, run, cohort, metric, k), after the optional ``comment`` line."""
    rows = sorted(_metric_rows(reports), key=lambda r: r[:5])
    write_tsv(path, ("method", "run", "cohort", "metric", "k", "value"),
              ((*row[:5], f"{row[5]:.17g}") for row in rows), comment)


def read_per_run(path):
    """Parse per_run_metrics.tsv back into row tuples; a malformed row, or a
    row whose (method, run, cohort, metric, k) repeats an earlier one's,
    raises ParseError naming the file and line."""
    rows = []
    repeated = refuse_repeats(path, "(method, run, cohort, metric, k)")
    for lineno, line in read_lines(path):
        if line.startswith(("#", "method\t")):
            continue
        try:
            method, run, cohort, metric, k, value = line.split("\t")
            row = (method, int(run), cohort, metric, int(k), float(value))
        except ValueError:
            raise ParseError(path, lineno, "expected method, run, cohort, metric, k and "
                             f"value, got {line!r}") from None
        if not math.isfinite(row[5]):  # write_metrics never writes one
            raise ParseError(path, lineno, f"value must be finite, got {value!r}")
        repeated(row[:5], lineno)
        rows.append(row)
    return rows


def read_config_hash(out_dir) -> str:
    """The config hash ``run_experiment`` wrote into out_dir, or "unknown"."""
    path = Path(out_dir) / CONFIG_HASH_FILE
    return " ".join(line for _, line in read_lines(path)) if path.exists() else "unknown"


def write_aggregates(out_dir, rows, cfg_hash):
    """aggregate.tsv, significance.tsv and tables.md from per-run metric rows
    (method, run, cohort, metric, k, value)."""
    out = Path(out_dir)
    groups: dict[tuple, dict[str, list]] = {}
    for method, run, cohort, metric, k, value in rows:
        groups.setdefault((cohort, metric, k), {}).setdefault(method, []).append(value)

    comment = [f"config_hash={cfg_hash}"]
    write_tsv(out / "aggregate.tsv", ("method", "cohort", "metric", "k", "mean", "std",
                                      "n_runs"), _aggregate_rows(groups), comment)
    write_tsv(out / "significance.tsv", ("cohort", "metric", "k", "method",
                                         "best_competitor", "p_value"),
              _significance_rows(groups), comment)
    _write_tables_md(out / "tables.md", groups, cfg_hash)


def _aggregate_rows(groups):
    """Each (cohort, metric, k) group's methods: mean, std and run count."""
    for (cohort, metric, k), group in sorted(groups.items()):
        for method, vals in sorted(group.items()):
            std = np.std(vals, ddof=1) if len(vals) > 1 else 0.0
            yield method, cohort, metric, k, f"{np.mean(vals):.17g}", f"{std:.17g}", len(vals)


def _significance_rows(groups):
    """Each method's t test against its group's best other, if both ran twice or more."""
    for (cohort, metric, k), group in sorted(groups.items()):
        if len(group) < 2:
            continue
        means = {m: float(np.mean(vals)) for m, vals in group.items()}
        for method in sorted(group):
            best = max((m for m in group if m != method), key=lambda m: (means[m], m))
            a, b = group[method], group[best]
            if len(a) > 1 and len(b) > 1:
                yield cohort, metric, k, method, best, f"{one_tailed_t_test(a, b):.6g}"


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
                             key=lambda t: (METHOD_TOKENS.index(t) if t in METHOD_TOKENS
                                            else len(METHOD_TOKENS), t))
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
                fh.write(f"| {METHODS[method][0] if method in METHODS else method} | "
                         + " | ".join(cells) + " |\n")
