import inspect
import re
import shutil
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from uplrec import cli, trainer
from uplrec import experiment as exp
from uplrec.datasets import load_dataset
from uplrec.evaluation import CohortSpec, compute_cohorts, evaluate
from uplrec.factor_model import TrainConfig, load_checkpoint
from uplrec.losses import LossSpec
from uplrec.propensity import PropensityTable

from conftest import write_synthetic_triplets

WORLDS_DIR = Path(__file__).resolve().parents[1] / "worlds"
BUNDLED_WORLDS = sorted(WORLDS_DIR.glob("*.txt"))


@pytest.fixture(scope="module")
def triplet_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("rawdata")
    write_synthetic_triplets(root, seed=7)
    return root


def small_config_text(dataset, out, methods="bpr", runs=2, seed=11):
    return (
        f"dataset = {dataset}\n"
        "format = triplets\n"
        f"methods = {methods}\n"
        f"runs = {runs}\n"
        f"seed = {seed}\n"
        "d_grid = 8\n"
        "lambda_grid = 1e-5\n"
        "clip_grid = 0\n"
        "max_epochs = 12\n"
        "patience = 3\n"
        "batch_size = 64\n"
        f"out = {out}\n"
    )


class TestConfigParsing:
    def test_round_trip_defaults(self, tmp_path, triplet_files):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(small_config_text(triplet_files, tmp_path / "out"))
        config = exp.parse_config_file(cfg_path)
        assert config.methods == ("bpr",)
        assert config.runs == 2
        assert config.d_grid == (8,)
        assert config.ks == (3, 5, 8)  # default preserved

    def test_unknown_key_rejected(self, tmp_path):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text("dataset = x\nnot_a_key = 3\n")
        with pytest.raises(ValueError, match="not_a_key"):
            exp.parse_config_file(cfg_path)

    def test_malformed_line_rejected(self, tmp_path):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text("dataset\n")
        with pytest.raises(ValueError, match="key=value"):
            exp.parse_config_file(cfg_path)

    def test_comments_and_overrides(self, tmp_path, triplet_files):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text("# comment\n" + small_config_text(triplet_files, "o"))
        config = exp.parse_config_file(cfg_path, overrides={"runs": "5"})
        assert config.runs == 5

    def test_hash_depends_on_values(self, triplet_files, tmp_path):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(small_config_text(triplet_files, "o", runs=2))
        a = exp.parse_config_file(cfg_path).hash()
        cfg_path.write_text(small_config_text(triplet_files, "o", runs=3))
        b = exp.parse_config_file(cfg_path).hash()
        assert a != b
        # threads and out say how and where to run, not what to compute
        assert b == exp.parse_config_file(cfg_path, {"threads": "2"}).hash()
        assert b == exp.parse_config_file(cfg_path, {"out": "p"}).hash()

    def test_hash_follows_rating_bytes_not_paths(self, triplet_files, tmp_path):
        def hash_of(ratings):
            cfg_path = tmp_path / "exp.cfg"
            cfg_path.write_text(small_config_text(ratings, "o"))
            return exp.parse_config_file(cfg_path).hash()

        a, b = (shutil.copytree(triplet_files, tmp_path / name) for name in ("a", "b"))
        assert hash_of(a) == hash_of(b)
        train = b / "train.txt"  # change one rating
        lines = train.read_text().splitlines()
        u, i, r = lines[0].split("\t")
        lines[0] = "\t".join((u, i, str(1 + int(r) % 5)))
        train.write_text("\n".join(lines) + "\n")
        assert hash_of(b) != hash_of(a)

    @pytest.mark.parametrize("ks", [(), (-1,), (0,), (5, 0)])
    def test_bad_cutoffs_rejected(self, ks):
        with pytest.raises(ValueError, match="ks must be"):
            exp.ExperimentConfig(ks=ks)

    def test_unknown_candidate_mode_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="test_onyl"):
            exp.ExperimentConfig(candidates="test_onyl")
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text("candidates = test_onyl\n")
        with pytest.raises(ValueError, match="candidate mode"):
            exp.parse_config_file(cfg_path)

    def test_unknown_format_rejected_in_one_line(self, triplet_files, tmp_path, capsys):
        with pytest.raises(ValueError, match="unknown dataset format 'csv'"):
            exp.ExperimentConfig(format="csv")
        out = tmp_path / "out"
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(small_config_text(triplet_files, out))
        assert cli.main(["experiment", "--config", str(cfg_path), "--format", "csv"]) == 2
        assert capsys.readouterr().err == "error: unknown dataset format 'csv'\n"
        assert not out.exists()

    def test_invalid_method_token(self, tmp_path):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text("methods = bpr,expomf\n")
        with pytest.raises(ValueError, match="expomf"):
            exp.parse_config_file(cfg_path)

    @pytest.mark.parametrize("line, message", [
        ("methods = bpr,upl,bpr", "methods repeats 'bpr'"),
        ("ks = 3,5,5", "ks repeats 5"),
        ("methods =", r"methods must name at least one token, got \(\)"),
    ])
    def test_repeated_or_empty_values_rejected_before_writing(self, triplet_files, tmp_path,
                                                              capsys, line, message):
        # a repeated token or cutoff would write every run's rows twice and
        # count them twice in aggregate.tsv; no methods would run nothing
        out = tmp_path / "out"
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(small_config_text(triplet_files, out) + line + "\n")
        assert cli.main(["experiment", "--config", str(cfg_path)]) == 2
        assert re.fullmatch(f"error: {message}\n", capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("lines, message", [
        ("d_grid = 0", "d_grid value 0 for method bpr: latent dimension must be >= 1"),
        ("lambda_grid = -1", "lambda_grid value -1.0 for method bpr: lambda must be >= 0"),
        ("batch_size = 0", "batch_size value 0 for method bpr: batch_size must be >= 1"),
        ("learning_rate = 0",
         "learning_rate value 0.0 for method bpr: learning_rate must be positive"),
        ("max_epochs = 0", "max_epochs value 0 for method bpr: max_epochs must be >= 1"),
        ("patience = 0", "patience value 0 for method bpr: patience must be >= 1"),
        ("methods = wmf,bpr\nwmf_weight = 0.5",
         "wmf_weight value 0.5 for method wmf: wmf_weight must be >= 1"),
        ("methods = wmf,bpr,ubpr\nclip_grid = 5",
         "clip_grid value 5.0 for method ubpr: clip_threshold must be in [-10, 0]"),
    ], ids=["d", "lambda", "batch_size", "learning_rate", "max_epochs", "patience",
            "wmf_weight", "clip"])
    def test_untrainable_values_rejected_before_writing(self, triplet_files, tmp_path,
                                                        capsys, lines, message):
        # every run of some method would fail: the config builds each key
        # it trains, so TrainConfig and LossSpec reject the value up front,
        # and the CLI names the key, value and method in one line
        out = tmp_path / "out"
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(small_config_text(triplet_files, out) + lines + "\n")
        assert cli.main(["experiment", "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()
        with pytest.raises(ValueError, match=re.escape(message)):
            exp.parse_config_file(cfg_path)

    def test_canonical_text_round_trips_every_field(self, tmp_path):
        # every field away from its default, so each field's parser is used
        config = exp.ExperimentConfig(
            dataset="ratings", format="triplets", train_file="a.txt", test_file="b.txt",
            methods=("upl", "bpr"), runs=3, seed=7, epsilon_train=0.25, epsilon_test=0.05,
            validation_fraction=0.2, d_grid=(4, 6), lambda_grid=(0.5, 1e-9),
            clip_grid=(-0.5, -2.0), ks=(1, 10), cohorts=False, candidates="test_only",
            batch_size=32, learning_rate=0.01, max_epochs=9, patience=2, wmf_weight=3.5,
            propensity_power=0.75, propensity_floor=0.05, threads=2, out="o")
        default = exp.ExperimentConfig()
        assert [f.name for f in fields(config)
                if getattr(config, f.name) == getattr(default, f.name)] == []
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(config.canonical_text())
        assert exp.parse_config_file(cfg_path) == config


class TestMakeLossSpec:
    @pytest.mark.parametrize("token, spec", [
        ("wmf", LossSpec("wmf", wmf_weight=4.0)),
        ("relmf", LossSpec("relmf")),
        ("mfdu", LossSpec("relmf")),
        ("bpr", LossSpec("bpr")),
        ("ubpr", LossSpec("ubpr_clipped", clip_threshold=-2.0)),
        ("ubpr_nclip", LossSpec("ubpr")),
        ("upl", LossSpec("upl")),
    ])
    def test_token_maps_to_spec(self, token, spec):
        assert exp.make_loss_spec(token, clip=-2.0, wmf_weight=4.0) == spec


class TestPrepareCli:
    def test_prepare_writes_splits(self, triplet_files, tmp_path):
        out = tmp_path / "prepared"
        rc = cli.main([
            "prepare", "--dataset", str(triplet_files), "--format", "triplets",
            "--seed", "3", "--out", str(out),
        ])
        assert rc == 0
        train = load_dataset(out / "train")
        val = load_dataset(out / "validation")
        test = load_dataset(out / "test")
        assert len(val) == int(0.1 * (len(train) + len(val)))
        assert train.epsilon == 0.1 and test.epsilon == 0.0
        assert (out / "user_map.tsv").exists()

    def test_prepare_coat_matrices(self, tmp_path):
        # coat reads two dense matrices of one shape, 0 meaning unrated
        (tmp_path / "train.ascii").write_text("1 0 5\n0 3 4\n")
        (tmp_path / "test.ascii").write_text("0 2 0\n1 0 0\n")
        data = exp.prepare_datasets(tmp_path, seed=1)
        assert (data.test.num_users, data.test.num_items) == (2, 3)
        assert len(data.train) + len(data.validation) == 4 and len(data.test) == 2
        assert list(data.item_ids) == [0, 1, 2]
        (tmp_path / "test.ascii").write_text("0 2\n1 0\n")
        with pytest.raises(ValueError, match="different shapes"):
            exp.prepare_datasets(tmp_path)

    def test_prepare_deterministic(self, triplet_files, tmp_path):
        out1, out2 = tmp_path / "p1", tmp_path / "p2"
        for out in (out1, out2):
            cli.main(["prepare", "--dataset", str(triplet_files), "--format",
                      "triplets", "--seed", "3", "--out", str(out)])
        for sub in ("train", "validation", "test"):
            a = (out1 / sub / "exposed.tsv").read_bytes()
            b = (out2 / sub / "exposed.tsv").read_bytes()
            assert a == b


class TestTrainCli:
    def test_single_run_outputs(self, triplet_files, tmp_path):
        prep = tmp_path / "prep"
        cli.main(["prepare", "--dataset", str(triplet_files), "--format",
                  "triplets", "--seed", "3", "--out", str(prep)])
        out = tmp_path / "run"
        rc = cli.main([
            "train", "--data", str(prep), "--method", "upl", "--d", "8",
            "--lam", "1e-5", "--max-epochs", "6", "--seed", "1",
            "--out", str(out),
        ])
        assert rc == 0
        model, seed = load_checkpoint(out / "model.ckpt")
        assert seed == 1 and model.d == 8
        lines = (out / "metrics.tsv").read_text().strip().splitlines()
        assert lines[0] == "method\trun\tcohort\tmetric\tk\tvalue"
        assert len(lines) > 1
        assert (out / "train.log").read_text().startswith("epoch=0\t")

    def test_mfdu_trains_relmf(self, triplet_files, tmp_path):
        prep = tmp_path / "prep"
        cli.main(["prepare", "--dataset", str(triplet_files), "--format",
                  "triplets", "--seed", "3", "--out", str(prep)])
        outs = {}
        for method in ("relmf", "mfdu"):
            outs[method] = tmp_path / method
            assert cli.main([
                "train", "--data", str(prep), "--method", method, "--d", "8",
                "--lam", "1e-5", "--max-epochs", "4", "--seed", "2",
                "--out", str(outs[method]),
            ]) == 0
        for name in ("model.ckpt", "train.log"):
            assert (outs["mfdu"] / name).read_bytes() == (outs["relmf"] / name).read_bytes()
        relmf_rows = (outs["relmf"] / "metrics.tsv").read_text().splitlines()
        mfdu_rows = (outs["mfdu"] / "metrics.tsv").read_text().splitlines()
        assert [r.split("\t")[1:] for r in mfdu_rows] == \
            [r.split("\t")[1:] for r in relmf_rows]

    def test_each_token_matches_experiment_run_zero(self, triplet_files, tmp_path):
        # `uplrec train` and the experiment train a key the same way: for the
        # same seed and combo, train gives the experiment's run 0
        seed, prep = 5, tmp_path / "prep"
        assert cli.main(["prepare", "--dataset", str(triplet_files), "--format",
                         "triplets", "--seed", str(seed), "--out", str(prep)]) == 0
        cfg_path, out = tmp_path / "exp.cfg", tmp_path / "exp"
        cfg_path.write_text(small_config_text(triplet_files, out,
                                              methods=",".join(exp.METHOD_TOKENS),
                                              runs=1, seed=seed)
                            + "clip_grid = -1\nmax_epochs = 4\n")
        assert cli.main(["experiment", "--config", str(cfg_path)]) == 0
        rows = exp.read_per_run(out / "per_run_metrics.tsv")
        for token in exp.METHOD_TOKENS:
            run_dir = tmp_path / token
            assert cli.main([
                "train", "--data", str(prep), "--method", token, "--d", "8",
                "--lam", "1e-5", "--clip", "-1", "--batch-size", "64",
                "--max-epochs", "4", "--patience", "3", "--seed", str(seed),
                "--out", str(run_dir),
            ]) == 0
            assert (run_dir / "train.log").read_bytes() == \
                (out / "logs" / f"{token}_run000.log").read_bytes(), token
            expected = [r for r in rows if r[:2] == (token, 0)]
            assert expected and exp.read_per_run(run_dir / "metrics.tsv") == expected, token


class _Stop(Exception):
    pass


def stop_at(monkeypatch, module, name):
    """Replace ``module.name`` with a stub that records its arguments and
    raises _Stop; returns the recorded (args, kwargs)."""
    calls = []

    def stub(*args, **kwargs):
        calls.append((args, kwargs))
        raise _Stop
    monkeypatch.setattr(module, name, stub)
    return calls


class TestCliSurface:
    """A flag's default is its setting's default, and each flag reaches the
    setting it names."""

    @pytest.fixture(scope="class")
    def prepared(self, triplet_files, tmp_path_factory):
        prep = tmp_path_factory.mktemp("prep")
        assert cli.main(["prepare", "--dataset", str(triplet_files), "--format", "triplets",
                         "--out", str(prep)]) == 0
        return prep

    def test_prepare_defaults_are_the_config_defaults(self, triplet_files, tmp_path,
                                                      monkeypatch):
        calls = stop_at(monkeypatch, exp, "prepare_datasets")
        with pytest.raises(_Stop):
            cli.main(["prepare", "--dataset", str(triplet_files), "--out", str(tmp_path)])
        default = exp.ExperimentConfig()
        assert calls == [((str(triplet_files), default.format, default.epsilon_train,
                           default.epsilon_test, default.validation_fraction, default.seed,
                           default.train_file, default.test_file), {})]

    def test_prepare_datasets_defaults_are_the_config_defaults(self):
        # perfbench's train-d200 calls prepare_datasets with format and seed
        # alone, so its data follows ExperimentConfig's epsilons and split
        params = inspect.signature(exp.prepare_datasets).parameters
        default = exp.ExperimentConfig()
        assert {name: p.default for name, p in params.items() if name != "dataset_path"} \
            == {name: getattr(default, name) for name in params if name != "dataset_path"}

    def test_format_choices_are_the_dataset_formats(self, tmp_path, monkeypatch, capsys):
        # --format offers the formats _rating_files knows, from one tuple
        monkeypatch.setattr(exp, "DATASET_FORMATS", ("coat", "other"))
        calls = stop_at(monkeypatch, exp, "prepare_datasets")
        argv = ["prepare", "--dataset", "d", "--out", str(tmp_path), "--format"]
        with pytest.raises(_Stop):
            cli.main(argv + ["other"])
        assert calls[0][0][1] == "other"
        with pytest.raises(SystemExit):
            cli.main(argv + ["triplets"])
        assert "invalid choice: 'triplets'" in capsys.readouterr().err

    @pytest.mark.parametrize("token", exp.METHOD_TOKENS)
    def test_train_defaults_are_the_config_defaults(self, prepared, tmp_path, monkeypatch,
                                                    token):
        # only the required flags: TrainConfig's defaults, and
        # ExperimentConfig's wmf_weight, propensities and candidates
        keys, candidates = [], []

        def quick_train_key(dataset, config, spec, propensities, *args,
                            _real=trainer.train_key):
            keys.append((config, spec, propensities.theta_click))
            return _real(dataset, replace(config, d=2, max_epochs=1), spec, propensities,
                         *args)

        def recording_evaluate(*args, _real=cli.evaluate, **kwargs):
            candidates.append(kwargs["candidates"])
            return _real(*args, **kwargs)
        monkeypatch.setattr(cli, "train_key", quick_train_key)
        monkeypatch.setattr(cli, "evaluate", recording_evaluate)
        assert cli.main(["train", "--data", str(prepared), "--method", token,
                         "--out", str(tmp_path)]) == 0
        default = exp.ExperimentConfig()
        (config, spec, theta), = keys
        assert config == TrainConfig()
        assert spec == exp.make_loss_spec(token, 0.0, default.wmf_weight)
        counts = load_dataset(prepared / "train").item_click_counts
        assert np.array_equal(theta, PropensityTable.from_click_counts(
            counts, power=default.propensity_power, floor=default.propensity_floor).theta_click)
        assert candidates == [default.candidates]

    def test_experiment_flags_set_their_keys(self, triplet_files, tmp_path, monkeypatch):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(small_config_text(triplet_files, tmp_path / "out"))
        flags = [  # flag, key, value given, value set; none is the file's
            ("--dataset", "dataset", "elsewhere", "elsewhere"),
            ("--format", "format", "coat", "coat"),
            ("--methods", "methods", "relmf, upl", ("relmf", "upl")),
            ("--runs", "runs", "3", 3),
            ("--seed", "seed", "4", 4),
            ("--epsilon-train", "epsilon_train", "0.3", 0.3),
            ("--epsilon-test", "epsilon_test", "0.2", 0.2),
            ("--threads", "threads", "2", 2),
            ("--out", "out", "elsewhere_out", "elsewhere_out"),
        ]
        calls = stop_at(monkeypatch, exp, "run_experiment")
        with pytest.raises(_Stop):
            cli.main(["experiment", "--config", str(cfg_path)]
                     + [arg for flag, _, given, _ in flags for arg in (flag, given)])
        (config,), _ = calls[0]
        from_file = exp.parse_config_file(cfg_path)
        for _, key, _, value in flags:
            assert getattr(from_file, key) != value, key
            assert getattr(config, key) == value, key


def wrap_train(monkeypatch, fail=None):
    """Wrap ``train`` where ``trainer.train_key`` looks it up; returns the
    (LossSpec, TrainConfig) of every training attempted, and training under
    the LossSpec ``fail`` raises."""
    keys = []

    def train(dataset, config, loss_spec, *args, _real=trainer.train, **kwargs):
        keys.append((loss_spec, config))
        if loss_spec == fail:
            raise RuntimeError(f"synthetic {loss_spec.method} failure")
        return _real(dataset, config, loss_spec, *args, **kwargs)
    monkeypatch.setattr(trainer, "train", train)
    return keys


@pytest.fixture(scope="module")
def experiment_out(triplet_files, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("exp")
    cfg_path = tmp / "exp.cfg"
    out = tmp / "out"
    cfg_path.write_text(small_config_text(triplet_files, out,
                                          methods="bpr,ubpr_nclip", runs=2))
    rc = cli.main(["experiment", "--config", str(cfg_path)])
    assert rc == 0
    return out


class TestExperimentRun:
    def test_per_run_cardinality(self, experiment_out):
        rows = exp.read_per_run(experiment_out / "per_run_metrics.tsv")
        bpr_rows = [r for r in rows if r[0] == "bpr"]
        cohorts = {r[2] for r in bpr_rows}
        # 2 runs x |cohorts| x 3 metrics x 3 Ks
        assert len(bpr_rows) == 2 * len(cohorts) * 3 * 3
        assert {r[1] for r in bpr_rows} == {0, 1}

    def test_aggregate_means_match_per_run_rows(self, experiment_out):
        rows = exp.read_per_run(experiment_out / "per_run_metrics.tsv")
        means = {}
        for method, run, cohort, metric, k, value in rows:
            means.setdefault((method, cohort, metric, k), []).append(value)
        agg_lines = (experiment_out / "aggregate.tsv").read_text().strip().splitlines()
        checked = 0
        for line in agg_lines:
            if line.startswith("#") or line.startswith("method\t"):
                continue
            method, cohort, metric, k, mean, std, n = line.split("\t")
            key = (method, cohort, metric, int(k))
            assert float(mean) == pytest.approx(np.mean(means[key]), abs=1e-15)
            assert int(n) == len(means[key])
            checked += 1
        assert checked == len(means)

    def test_significance_table_has_pairs(self, experiment_out):
        lines = (experiment_out / "significance.tsv").read_text().strip().splitlines()
        body = [l for l in lines if not l.startswith(("#", "cohort\t"))]
        assert body
        for line in body:
            cohort, metric, k, method, best, p = line.split("\t")
            assert method != best
            assert 0.0 <= float(p) <= 1.0

    def test_grid_and_logs_present(self, experiment_out):
        assert (experiment_out / "grid_search.tsv").exists()
        assert (experiment_out / "logs" / "bpr_run000.log").exists()
        assert (experiment_out / "propensities" / "theta_click.tsv").exists()

    def test_propensities_hold_click_table_only(self, experiment_out):
        assert [p.name for p in (experiment_out / "propensities").iterdir()] == \
            ["theta_click.tsv"]

    def test_report_reaggregation_idempotent(self, experiment_out):
        before = (experiment_out / "aggregate.tsv").read_bytes()
        tables_before = (experiment_out / "tables.md").read_bytes()
        rc = cli.main(["report", "--out", str(experiment_out)])
        assert rc == 0
        assert (experiment_out / "aggregate.tsv").read_bytes() == before
        assert (experiment_out / "tables.md").read_bytes() == tables_before


class TestMfduToken:
    def test_mfdu_rows_equal_relmf(self, triplet_files, tmp_path):
        # the mfdu token trains LossSpec("relmf") under the same configs
        cfg_path = tmp_path / "exp.cfg"
        out = tmp_path / "out"
        cfg_path.write_text(small_config_text(triplet_files, out,
                                              methods="relmf,mfdu", runs=2))
        assert cli.main(["experiment", "--config", str(cfg_path)]) == 0
        rows = exp.read_per_run(out / "per_run_metrics.tsv")
        relmf = {r[1:5]: r[5] for r in rows if r[0] == "relmf"}
        mfdu = {r[1:5]: r[5] for r in rows if r[0] == "mfdu"}
        assert relmf and mfdu == relmf


class TestExperimentWorkers:
    def test_tables_identical_across_threads_and_out(self, triplet_files, tmp_path):
        # mfdu and upl read relmf's runs: with threads 2 the workers hand
        # their runs back and the upl tasks receive relmf models
        tables = ("aggregate.tsv", "tables.md", "per_run_metrics.tsv",
                  "significance.tsv", "grid_search.tsv")
        outputs = []
        for threads in (1, 2):
            out = tmp_path / f"out{threads}"
            cfg_path = tmp_path / f"exp{threads}.cfg"
            cfg_path.write_text(small_config_text(triplet_files, out,
                                                  methods="relmf,mfdu,bpr,upl")
                                + f"threads = {threads}\n")
            assert cli.main(["experiment", "--config", str(cfg_path)]) == 0
            assert f"threads={threads}" in (out / "config_resolved.cfg").read_text()
            outputs.append({name: (out / name).read_bytes() for name in tables})
            outputs[-1].update({f"logs/{p.name}": p.read_bytes()
                                for p in sorted((out / "logs").glob("*.log"))})
        assert len(outputs[0]) == len(tables) + 4 * 2
        assert outputs[0].keys() == outputs[1].keys()
        for name in outputs[0]:
            assert outputs[0][name] == outputs[1][name], f"{name} differs across threads"


class TestExperimentFailureIsolation:
    def test_failing_method_recorded_others_continue(self, triplet_files, tmp_path,
                                                     monkeypatch):
        cfg_path = tmp_path / "exp.cfg"
        out = tmp_path / "out"
        cfg_path.write_text(small_config_text(triplet_files, out,
                                              methods="bpr,upl", runs=1))
        config = exp.parse_config_file(cfg_path)
        wrap_train(monkeypatch, fail=LossSpec("upl"))
        exp.run_experiment(config)
        failures = (out / "failures.tsv").read_text()
        assert "upl\tRuntimeError" in failures
        rows = exp.read_per_run(out / "per_run_metrics.tsv")
        assert {r[0] for r in rows} == {"bpr"}

    def test_relmf_failure_surfaces_for_each_reader(self, triplet_files, tmp_path,
                                                    monkeypatch):
        # mfdu and upl read relmf's runs; each reports the failure itself,
        # as each did when it trained relmf on its own
        cfg_path = tmp_path / "exp.cfg"
        out = tmp_path / "out"
        cfg_path.write_text(small_config_text(triplet_files, out,
                                              methods="relmf,mfdu,bpr,upl", runs=2))
        keys = wrap_train(monkeypatch, fail=LossSpec("relmf"))
        exp.run_experiment(exp.parse_config_file(cfg_path))
        assert (out / "failures.tsv").read_text() == (
            "method\terror\n"
            "relmf\tRuntimeError: synthetic relmf failure\n"
            "mfdu\tRuntimeError: synthetic relmf failure\n"
            "upl\tRuntimeError: synthetic relmf failure\n")
        # a failed run is never held: every reader tries relmf once itself
        assert [spec for spec, _ in keys].count(LossSpec("relmf")) == 3
        rows = exp.read_per_run(out / "per_run_metrics.tsv")
        assert {r[0] for r in rows} == {"bpr"} and {r[1] for r in rows} == {0, 1}
        assert sorted(p.name for p in (out / "logs").iterdir()) == \
            ["bpr_run000.log", "bpr_run001.log"]


class TestRunMemo:
    """Training is a pure function of (LossSpec, TrainConfig): an experiment
    trains each distinct key once, and reusing a run changes no output."""

    # methods -> (trainings, of which pointwise).  All seven: wmf, relmf,
    # bpr, ubpr_nclip and upl train runs 0 and 1, ubpr its 2 clips at the
    # grid seed and then run 1, and mfdu and upl's relmf stage reuse relmf's.
    # upl alone trains its relmf stage in each of its 2 tasks.
    EXPERIMENTS = {"wmf,relmf,mfdu,bpr,ubpr,ubpr_nclip,upl": (13, 4), "upl": (4, 2)}

    @pytest.fixture(scope="class", params=sorted(EXPERIMENTS))
    def memo_run(self, request, triplet_files, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("memo")
        cfg_path = tmp / "exp.cfg"
        cfg_path.write_text(small_config_text(triplet_files, tmp / "out",
                                              methods=request.param, runs=2)
                            + "clip_grid = 0,-1\n")
        config = exp.parse_config_file(cfg_path)
        with pytest.MonkeyPatch.context() as mp:
            keys = wrap_train(mp)
            exp.run_experiment(config)
        return config, keys

    def test_each_distinct_key_trains_once(self, memo_run):
        config, keys = memo_run
        assert len(keys) == len(set(keys))
        trainings, pointwise = self.EXPERIMENTS[",".join(config.methods)]
        assert len(keys) == trainings
        assert sum(1 for spec, _ in keys if not spec.is_pairwise) == pointwise

    def test_outputs_match_independent_training(self, memo_run, tmp_path):
        # reports and epoch logs of upl, mfdu and bpr, each run trained
        # from scratch through train and relevance_predictor, without the
        # experiment or train_key
        config, _ = memo_run
        out = Path(config.out)
        data = exp.prepare_datasets(config.dataset, config.format, config.epsilon_train,
                                    config.epsilon_test, config.validation_fraction,
                                    config.seed)
        propensities = PropensityTable.from_click_counts(
            data.train.item_click_counts, power=config.propensity_power,
            floor=config.propensity_floor)
        cohorts = compute_cohorts(data.train, CohortSpec())
        rows = exp.read_per_run(out / "per_run_metrics.tsv")
        tokens = [t for t in ("upl", "mfdu", "bpr") if t in config.methods]
        assert tokens
        for token in tokens:
            expected = []
            for run in range(config.runs):
                train_config = exp.make_train_config(config, 8, 1e-5, config.seed + run)
                if token == "upl":
                    relmf = trainer.train(data.train, train_config, LossSpec("relmf"),
                                          propensities, validation=data.validation)
                    trained = trainer.train(
                        data.train, train_config, LossSpec("upl"), propensities,
                        gamma_hat=trainer.relevance_predictor(relmf.final_model),
                        validation=data.validation)
                else:
                    trained = trainer.train(
                        data.train, train_config,
                        exp.make_loss_spec(token, 0.0, config.wmf_weight),
                        propensities, validation=data.validation)
                for rep in evaluate(trained.final_model, data.test, ks=config.ks,
                                    cohorts=cohorts, candidates=config.candidates,
                                    method=token, run=run):
                    expected += [(rep.method, rep.run, rep.cohort, metric, rep.k,
                                  getattr(rep, metric)) for metric in exp.METRIC_NAMES]
                log = tmp_path / f"{token}{run}.log"
                exp.write_epoch_log(log, trained.epoch_log)
                name = f"{token}_run{run:03d}.log"
                assert (out / "logs" / name).read_text() == log.read_text(), name
            assert sorted(r for r in rows if r[0] == token) == sorted(expected), token

    @pytest.mark.parametrize("d_grid", [(8, 12), (12, 8)])
    def test_repeated_grid_value_searched_once(self, triplet_files, tmp_path, d_grid):
        # mfdu reads relmf's held runs; a repeated d names the same run,
        # whether or not it is the best one
        first, second = d_grid
        cfg_path = tmp_path / "exp.cfg"
        out = tmp_path / "out"
        cfg_path.write_text(small_config_text(triplet_files, out, methods="relmf,mfdu",
                                              runs=1)
                            + f"d_grid = {first},{second},{first}\n")
        exp.run_experiment(exp.parse_config_file(cfg_path))
        assert not (out / "failures.tsv").exists()
        grid = [line.split("\t")[:2] for line in
                (out / "grid_search.tsv").read_text().splitlines()[2:]]
        assert grid == [[token, str(d)] for token in ("relmf", "mfdu")
                        for d in (first, second)]

    def test_no_state_left_after_experiment(self, triplet_files, tmp_path):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(small_config_text(triplet_files, tmp_path / "out", runs=1))
        exp.run_experiment(exp.parse_config_file(cfg_path))
        assert exp._POOL_STATE == {}


class TestVerifyCli:
    def test_bundled_suite_passes(self, capsys):
        rc = cli.main(["verify", "--samples", "10000"])
        captured = capsys.readouterr()
        assert rc == 0
        assert captured.out.count("PASS") == 5
        assert "FAIL" not in captured.out
        assert "verify:" not in captured.out
        assert re.fullmatch(r"verify: 5 checks in \d+\.\d\d s\n", captured.err)

    def test_world_file_exact(self, tmp_path, capsys):
        from uplrec.oracle import random_world, write_world_spec
        path = tmp_path / "w.txt"
        write_world_spec(random_world(1, 4, seed=3), path)
        rc = cli.main(["verify", "--world", str(path), "--exact-only"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "ideal risk" in out and "upl" in out

    @pytest.mark.parametrize("world", BUNDLED_WORLDS, ids=lambda p: p.name)
    def test_bundled_world_exact(self, world, capsys):
        rc = cli.main(["verify", "--world", str(world), "--exact-only"])
        out = capsys.readouterr().out
        assert rc == 0
        for estimator in ("upl", "ubpr"):
            line = next(l for l in out.splitlines() if l.startswith(f"  {estimator}:"))
            assert line.endswith("(bias +0.000e+00)"), line

    def test_world_too_large_for_exact(self, tmp_path):
        from uplrec.errors import EnumerationBoundError
        from uplrec.oracle import random_world, write_world_spec
        path = tmp_path / "w.txt"
        write_world_spec(random_world(1, 11, seed=3), path)
        with pytest.raises(EnumerationBoundError):
            cli.main(["verify", "--world", str(path), "--exact-only"])

    def test_zero_samples_is_argument_error(self):
        assert cli.main(["verify", "--samples", "0"]) == 2

    @pytest.mark.parametrize("world", [None, "clip_bias.txt"])
    def test_samples_below_floor_rejected_up_front(self, world, capsys, monkeypatch):
        from uplrec import oracle

        def never(*args, **kwargs):
            raise AssertionError("checks ran before --samples was validated")

        monkeypatch.setattr(oracle, "verification_suite", never)
        monkeypatch.setattr(oracle, "exact_expectation", never)
        argv = ["verify", "--samples", str(oracle.MIN_MC_SAMPLES - 1)]
        if world:
            argv += ["--world", str(WORLDS_DIR / world)]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: --samples must be >= {oracle.MIN_MC_SAMPLES} "
                                f"for a Monte Carlo run, got {oracle.MIN_MC_SAMPLES - 1}\n")

    @pytest.mark.parametrize("argv, message", [
        (["--exact-only"], "error: --exact-only needs --world\n"),
        (["--world", str(WORLDS_DIR / "clip_bias.txt"), "--exact-only", "--out", "{out}"],
         "error: --out needs --world without --exact-only\n"),
        (["--out", "{out}"], "error: --out needs --world without --exact-only\n"),
    ], ids=["exact_only_without_world", "out_with_exact_only", "out_without_world"])
    def test_ignored_flag_combinations_rejected_up_front(
            self, argv, message, tmp_path, capsys, monkeypatch):
        from uplrec import oracle

        def never(*args, **kwargs):
            raise AssertionError("checks ran before the flags were validated")

        monkeypatch.setattr(oracle, "verification_suite", never)
        monkeypatch.setattr(oracle, "exact_expectation", never)
        out = tmp_path / "reports.tsv"
        assert cli.main(["verify"] + [a.format(out=out) for a in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == message
        assert not out.exists()

    def test_world_mc_out_written(self, tmp_path, capsys):
        out = tmp_path / "reports.tsv"
        rc = cli.main(["verify", "--world", str(WORLDS_DIR / "clip_bias.txt"),
                       "--samples", "10000", "--out", str(out)])
        assert rc == 0
        assert f"wrote {out}" in capsys.readouterr().out
        assert out.read_text().startswith("estimator\tideal_risk\t")

    def test_exact_only_ignores_samples(self, capsys):
        rc = cli.main(["verify", "--world", str(WORLDS_DIR / "clip_bias.txt"),
                       "--exact-only", "--samples", "5000"])
        assert rc == 0
        assert "(bias +0.000e+00)" in capsys.readouterr().out

    def test_timing_on_stderr_stdout_unchanged(self, capsys):
        rc = cli.main(["verify", "--world", str(WORLDS_DIR / "clip_bias.txt"),
                       "--exact-only"])
        assert rc == 0
        captured = capsys.readouterr()
        assert captured.out == (
            "world: 1 users x 3 items (3 cells); ideal risk = 1.284326616\n"
            "  upl: exact expectation = 1.284326616 (bias +0.000e+00)\n"
            "  ubpr: exact expectation = 1.284326616 (bias +0.000e+00)\n"
            "  ubpr_clipped: exact expectation = 1.926489925 (bias +6.422e-01)\n"
            "  bpr: exact expectation = 0.9632449623 (bias -3.211e-01)\n")
        assert re.fullmatch(r"verify: 4 estimators in \d+\.\d\d s\n", captured.err)


class TestGridFile:
    def test_grid_file_overrides(self, triplet_files, tmp_path):
        cfg_path = tmp_path / "exp.cfg"
        out = tmp_path / "out"
        cfg_path.write_text(small_config_text(triplet_files, out, runs=1))
        grid_path = tmp_path / "grid.cfg"
        grid_path.write_text("d_grid = 4,6\nlambda_grid = 1e-4\nclip_grid = 0\n")
        rc = cli.main(["experiment", "--config", str(cfg_path),
                       "--grid-file", str(grid_path)])
        assert rc == 0
        grid_lines = (out / "grid_search.tsv").read_text().strip().splitlines()
        body = [l for l in grid_lines if not l.startswith(("#", "method\t"))]
        assert len(body) == 2  # two d values x one lambda
        assert {l.split("\t")[1] for l in body} == {"4", "6"}

    def test_grid_file_resolves_like_inline_grids(self, triplet_files, tmp_path, capsys):
        grid = {"d_grid": "4,6", "lambda_grid": "1e-4,1e-3", "clip_grid": "-1,0"}
        base = small_config_text(triplet_files, tmp_path / "a", runs=1)
        (tmp_path / "a.cfg").write_text(base)
        (tmp_path / "grid.cfg").write_text("".join(f"{k} = {v}\n" for k, v in grid.items()))
        inline = small_config_text(triplet_files, tmp_path / "b", runs=1)
        for key, value in grid.items():
            inline = re.sub(rf"^{key} = .*$", f"{key} = {value}", inline, flags=re.M)
        (tmp_path / "b.cfg").write_text(inline)
        assert cli.main(["experiment", "--config", str(tmp_path / "a.cfg"),
                         "--grid-file", str(tmp_path / "grid.cfg")]) == 0
        assert cli.main(["experiment", "--config", str(tmp_path / "b.cfg")]) == 0
        hashes = re.findall(r"config hash (\w+)", capsys.readouterr().out)
        assert len(hashes) == 2 and hashes[0] == hashes[1]
        resolved_a = (tmp_path / "a" / "config_resolved.cfg").read_text()
        resolved_b = (tmp_path / "b" / "config_resolved.cfg").read_text()
        assert resolved_a.replace(str(tmp_path / "a"), str(tmp_path / "b")) == resolved_b

    def test_grid_keys_left_out_keep_the_config_values(self, triplet_files, tmp_path):
        out = tmp_path / "out"
        cfg = re.sub(r"^lambda_grid = .*$", "lambda_grid = 0.001",
                     small_config_text(triplet_files, out, runs=1), flags=re.M)
        (tmp_path / "exp.cfg").write_text(cfg)
        (tmp_path / "grid.cfg").write_text("clip_grid = 0,-1\n")
        assert cli.main(["experiment", "--config", str(tmp_path / "exp.cfg"),
                         "--grid-file", str(tmp_path / "grid.cfg")]) == 0
        resolved = (out / "config_resolved.cfg").read_text().splitlines()
        assert "d_grid=8" in resolved
        assert "lambda_grid=0.001" in resolved
        assert "clip_grid=0.0,-1.0" in resolved

    def test_non_grid_key_rejected(self, triplet_files, tmp_path, capsys):
        out = tmp_path / "out"
        (tmp_path / "exp.cfg").write_text(small_config_text(triplet_files, out, runs=1))
        (tmp_path / "grid.cfg").write_text("d_grid = 4\nruns = 3\n")
        assert cli.main(["experiment", "--config", str(tmp_path / "exp.cfg"),
                         "--grid-file", str(tmp_path / "grid.cfg")]) == 2
        assert re.match(r"error: .*grid\.cfg:2: 'runs' is not one of",
                        capsys.readouterr().err)
        assert not out.exists()  # rejected before anything ran
