import concurrent.futures
import inspect
import json
import os
import re
import shutil
import subprocess
import sys
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from uplrec import cli, oracle, trainer
from uplrec import experiment as exp
from uplrec.errors import ParseError, SettingError
from uplrec.evaluation import MetricReport, compute_cohorts, evaluate
from uplrec.factor_model import FactorModel, TrainConfig, load_checkpoint
from uplrec.losses import LossSpec
from uplrec.propensity import PropensityTable

from conftest import count_calls, write_synthetic_triplets, write_world_spec

README = Path(__file__).resolve().parents[1] / "README.md"
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


def malformed_triplets(source, tmp_path):
    """A copy of a triplets dataset whose train file's second line is '1<TAB>2'."""
    root = tmp_path / "malformed"
    shutil.copytree(source, root)
    lines = (root / "train.txt").read_text().splitlines(keepends=True)
    (root / "train.txt").write_text(lines[0] + "1\t2\n" + "".join(lines[1:]))
    return root


BAD_RATING_FILES = ["duplicate_pair", "no_ratings", "dense_shapes"]


def bad_rating_files(case, source, tmp_path):
    """A dataset whose rating files break one rule: its root, its format and
    the error line it gives."""
    root = tmp_path / case
    if case == "dense_shapes":
        root.mkdir()
        (root / "train.ascii").write_text("1 0 5\n0 3 4\n")
        (root / "test.ascii").write_text("0 2\n1 0\n")
        return root, "coat", (f"{root / 'train.ascii'} and {root / 'test.ascii'} have "
                              "different shapes, 2x3 and 2x2")
    shutil.copytree(source, root)
    train = root / "train.txt"
    if case == "no_ratings":
        train.write_text("")
        return root, "triplets", f"{train}:1: no ratings"
    lines = train.read_text().splitlines(keepends=True)
    user, item, _ = lines[0].split("\t")
    train.write_text("".join(lines) + f"{user}\t{item}\t1\n")
    return root, "triplets", (f"{train}:{len(lines) + 1}: duplicate (user, item) pair "
                              f"({user}, {item}), first on line 1")


CLICKLESS_SEED = 12


def clickless_triplets(tmp_path):
    """Two one-star train ratings that draw no click at CLICKLESS_SEED, and
    one test rating."""
    root = tmp_path / "clickless"
    root.mkdir()
    (root / "train.txt").write_text("1\t1\t1\n2\t2\t1\n")
    (root / "test.txt").write_text("1\t2\t5\n")
    assert exp.prepare_datasets(root, "triplets", seed=CLICKLESS_SEED).train.num_clicks == 0
    return root


def validationless_triplets(tmp_path):
    """Three five-star train ratings, each a click, of which floor(10%) = 0
    go to validation, and one test rating."""
    root = tmp_path / "validationless"
    root.mkdir()
    (root / "train.txt").write_text("1\t1\t5\n1\t2\t5\n2\t2\t5\n")
    (root / "test.txt").write_text("1\t2\t5\n")
    data = exp.prepare_datasets(root, "triplets")
    assert (len(data.validation), data.train.num_clicks) == (0, 3)
    return root


class TestConfigParsing:
    def test_round_trip_defaults(self, tmp_path, triplet_files):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(small_config_text(triplet_files, tmp_path / "out"))
        config = exp.parse_config_file(cfg_path)
        assert config.methods == ("bpr",)
        assert config.runs == 2
        assert config.d_grid == (8,)
        assert config.candidates == "catalog"  # default preserved

    def test_unknown_key_rejected(self, tmp_path):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text("dataset = x\nnot_a_key = 3\n")
        with pytest.raises(ValueError, match="not_a_key"):
            exp.parse_config_file(cfg_path)

    @pytest.mark.parametrize("lines", [
        "propensity_power = 0.5", "propensity_floor = 0.5",
        "propensity_power = -1", "propensity_power = inf",
        "propensity_floor = 2", "propensity_floor = nan",
        "methods = wmf,bpr\nwmf_weight = 10",
        "methods = wmf,bpr\nwmf_weight = 0.5", "methods = wmf,bpr\nwmf_weight = nan",
        "epsilon_train = 0.1", "epsilon_test = 0.0", "validation_fraction = 0.1",
        "ks = 3,5,8",
        "epsilon_train = 1.0", "epsilon_train = -0.1", "epsilon_test = nan",
        "validation_fraction = 0.0", "validation_fraction = 1.0",
        "validation_fraction = nan",
        "ks =", "ks = -1", "ks = 0", "ks = 5,0", "ks = 3,5,5",
        "train_file = a.txt", "test_file = b.txt",
    ], ids=["propensity_power", "propensity_floor", "power_negative", "power_inf",
            "floor_above_one", "floor_nan", "wmf_weight", "wmf_weight_below_one",
            "wmf_weight_nan",
            "epsilon_train", "epsilon_test", "validation_fraction", "ks",
            "epsilon_train_one", "epsilon_train_negative", "epsilon_test_nan",
            "fraction_zero", "fraction_one", "fraction_nan",
            "ks_empty", "ks_negative", "ks_zero", "ks_with_zero", "ks_repeated",
            "train_file", "test_file"])
    def test_retired_setting_is_an_unknown_key(self, triplet_files, tmp_path, capsys, lines):
        # theta's power and floor, wmf's click weight, the data protocol's
        # epsilons and validation share and the metric cutoffs are constants,
        # and a dataset's rating files are found by its format's names: a
        # config that sets one is refused before writing, whatever the value
        text = small_config_text(triplet_files, tmp_path / "out") + lines + "\n"
        key = lines.splitlines()[-1].partition("=")[0].strip()
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(text)
        before = sorted(tmp_path.rglob("*"))
        assert cli.main(["experiment", "--config", str(cfg_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {cfg_path}:{len(text.splitlines())}: "
                                f"unknown config key {key!r}\n")
        assert sorted(tmp_path.rglob("*")) == before

    def test_readme_config_lists_every_key_at_its_default(self, tmp_path):
        # README's config block names every key with its default value, but
        # for the dataset and out, which default to empty
        block, = re.findall(r"```ini\n(.*?)```", README.read_text(), re.S)
        cfg_path = tmp_path / "readme.cfg"
        cfg_path.write_text(block)
        values = exp.read_config_values(cfg_path)
        default = exp.ExperimentConfig()
        assert sorted(values) == sorted(f.name for f in fields(default))
        for key in ("dataset", "out"):
            del values[key]
        assert values == {key: getattr(default, key) for key in values}

    def test_malformed_line_rejected(self, tmp_path):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text("dataset\n")
        with pytest.raises(ValueError, match="key=value"):
            exp.parse_config_file(cfg_path)

    def test_comment_lines_skipped(self, tmp_path, triplet_files):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text("# comment\n" + small_config_text(triplet_files, "o"))
        config = exp.parse_config_file(cfg_path)
        assert config.runs == 2

    def test_hash_depends_on_values(self, triplet_files, tmp_path):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(small_config_text(triplet_files, "o", runs=2))
        a = exp.parse_config_file(cfg_path).hash()
        cfg_path.write_text(small_config_text(triplet_files, "o", runs=3))
        b = exp.parse_config_file(cfg_path).hash()
        assert a != b
        # threads and out say how and where to run, not what to compute
        for line in ("threads = 2", "out = p"):
            cfg_path.write_text(small_config_text(triplet_files, "o", runs=3) + line + "\n")
            assert b == exp.parse_config_file(cfg_path).hash()

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
        cfg_path.write_text(small_config_text(triplet_files, out) + "format = csv\n")
        assert cli.main(["experiment", "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err == "error: unknown dataset format 'csv'\n"
        assert not out.exists()

    def test_missing_rating_files_rejected_before_writing(self, tmp_path, capsys):
        # the config hash reads the rating files, so a dataset without them
        # is a config error before the output tree is created
        root = tmp_path / "nonexistent"
        out = tmp_path / "out"
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(small_config_text(root, out))
        assert cli.main(["experiment", "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err == (f"error: dataset {root}: none of train.txt, "
                                           "ydata-ymusic-rating-study-v1_0-train.txt found\n")
        assert not out.exists()
        config = exp.parse_config_file(cfg_path)
        with pytest.raises(FileNotFoundError, match=re.escape(str(root))):
            exp.run_experiment(config)
        assert not out.exists()

    def test_malformed_rating_file_rejected_before_writing(self, triplet_files, tmp_path,
                                                           capsys):
        # the ratings are parsed before the output tree is created
        root = malformed_triplets(triplet_files, tmp_path)
        out = tmp_path / "out"
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(small_config_text(root, out))
        assert cli.main(["experiment", "--config", str(cfg_path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {root / 'train.txt'}:2: expected 3 fields, got 2\n"
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("case", BAD_RATING_FILES)
    def test_bad_rating_files_rejected_before_writing(self, triplet_files, tmp_path, capsys,
                                                      case):
        root, format, message = bad_rating_files(case, triplet_files, tmp_path)
        out = tmp_path / "out"
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(small_config_text(root, out) + f"format = {format}\n")
        assert cli.main(["experiment", "--config", str(cfg_path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""
        assert not out.exists()

    def test_train_split_without_clicks_rejected_before_writing(self, tmp_path, capsys):
        root = clickless_triplets(tmp_path)
        out = tmp_path / "out"
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(small_config_text(root, out, seed=CLICKLESS_SEED))
        assert cli.main(["experiment", "--config", str(cfg_path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == \
            f"error: dataset {root}: train split: all click counts are zero\n"
        assert captured.out == ""
        assert not out.exists()

    def test_validation_split_without_clicks_rejected_before_writing(self, tmp_path, capsys):
        # floor(10% of 3 cells) = 0: every epoch's validation DCG@5 would read 0
        root = validationless_triplets(tmp_path)
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(small_config_text(root, tmp_path / "out"))
        before = sorted(tmp_path.rglob("*"))
        assert cli.main(["experiment", "--config", str(cfg_path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == (f"error: dataset {root}: validation split has 0 cells "
                                "and 0 clicks: its DCG@5 would read 0 at every epoch\n")
        assert captured.out == ""
        assert sorted(tmp_path.rglob("*")) == before

    def test_missing_config_rejected_in_one_line(self, tmp_path, capsys):
        cfg_path = tmp_path / "absent.cfg"
        assert cli.main(["experiment", "--config", str(cfg_path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: [Errno 2] No such file or directory: '{cfg_path}'\n"
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("out_line", ["", "out =\n"], ids=["missing", "empty"])
    def test_empty_out_rejected_before_writing(self, triplet_files, tmp_path, capsys,
                                               monkeypatch, out_line):
        # Path("") is the working directory, which would take the whole tree
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(small_config_text(triplet_files, "o").replace("out = o\n",
                                                                          out_line))
        assert cli.main(["experiment", "--config", str(cfg_path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {cfg_path}: no output directory: set out\n"
        assert captured.out == ""
        config = exp.parse_config_file(cfg_path)
        with pytest.raises(ValueError, match="no output directory configured"):
            exp.run_experiment(config)
        assert list(work.iterdir()) == []

    @pytest.mark.parametrize("line, message", [
        ("d_grid = 8,abc", "d_grid: invalid literal for int() with base 10: 'abc'"),
        ("lambda_grid = 1e-5,x", "lambda_grid: could not convert string to float: 'x'"),
        ("runs = two", "runs: invalid literal for int() with base 10: 'two'"),
        ("cohorts = maybe", "cohorts: expected on/off, true/false, yes/no or 1/0, "
                            "got 'maybe'"),
        ("cohorts =", "cohorts: expected on/off, true/false, yes/no or 1/0, got ''"),
    ], ids=["int_grid", "float_grid", "int", "bool", "empty_bool"])
    def test_unparsable_value_names_file_line_and_key(self, triplet_files, tmp_path, capsys,
                                                      line, message):
        out = tmp_path / "out"
        cfg_path = tmp_path / "exp.cfg"
        text = small_config_text(triplet_files, out) + line + "\n"
        cfg_path.write_text(text)
        lineno = len(text.splitlines())
        assert cli.main(["experiment", "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err == f"error: {cfg_path}:{lineno}: {message}\n"
        assert not out.exists()
        with pytest.raises(ParseError) as info:
            exp.parse_config_file(cfg_path)
        assert (info.value.path, info.value.lineno) == (str(cfg_path), lineno)

    @pytest.mark.parametrize("word, value", [
        ("on", True), ("ON", True), ("true", True), ("True", True), ("yes", True),
        ("1", True), ("off", False), ("Off", False), ("false", False), ("FALSE", False),
        ("no", False), ("0", False)])
    def test_boolean_spellings(self, tmp_path, word, value):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(f"cohorts = {word}\n")
        assert exp.read_config_values(cfg_path) == {"cohorts": value}

    def test_rating_files_hashed_once_per_run(self, triplet_files, tmp_path, monkeypatch,
                                              capsys):
        calls = []

        def counting_hash(config, _real=exp.ExperimentConfig.hash):
            calls.append(config)
            return _real(config)
        monkeypatch.setattr(exp.ExperimentConfig, "hash", counting_hash)
        out = tmp_path / "out"
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(small_config_text(triplet_files, out, runs=1))
        assert cli.main(["experiment", "--config", str(cfg_path)]) == 0
        assert len(calls) == 1
        cfg_hash = (out / "config_hash.txt").read_text().strip()
        assert cfg_hash == exp.parse_config_file(cfg_path).hash()
        assert capsys.readouterr().out == f"experiment done: {out} (config hash {cfg_hash})\n"

    def test_invalid_method_token(self, triplet_files, tmp_path, capsys):
        out = tmp_path / "out"
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(small_config_text(triplet_files, out, methods="bpr,expomf"))
        with pytest.raises(ValueError, match="expomf"):
            exp.parse_config_file(cfg_path)
        assert cli.main(["experiment", "--config", str(cfg_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: unknown method token 'expomf'\n"
        assert not out.exists()

    @pytest.mark.parametrize("line, message", [
        ("methods = bpr,upl,bpr", "methods repeats 'bpr'"),
        ("methods =", r"methods must name at least one token, got \(\)"),
    ])
    def test_repeated_or_empty_values_rejected_before_writing(self, triplet_files, tmp_path,
                                                              capsys, line, message):
        # a repeated token would write every run's rows twice and
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
        ("methods = wmf,bpr,ubpr\nclip_grid = 5",
         "clip_grid value 5.0 for method ubpr: clip_threshold must be in [-10, 0]"),
        ("learning_rate = nan",
         "learning_rate value nan for method bpr: learning_rate must be finite"),
        ("lambda_grid = inf", "lambda_grid value inf for method bpr: lambda must be finite"),
        ("lambda_grid = -1\nlearning_rate = 0",
         "learning_rate value 0.0 for method bpr: learning_rate must be positive"),
        ("seed = -1", "seed must be >= 0, got -1"),
        # runs = 2: run 1 trains at seed + 1, which the checkpoint's int64 cannot hold
        ("seed = 9223372036854775807",
         "seed value 9223372036854775807 with runs 2: last run seed 9223372036854775808: "
         "seed must be < 9223372036854775808"),
    ], ids=["d", "lambda", "batch_size", "learning_rate", "max_epochs", "patience", "clip",
            "learning_rate_nan", "lambda_inf", "two_bad_settings", "seed_negative",
            "last_run_seed_beyond_int64"])
    def test_untrainable_values_rejected_before_writing(self, triplet_files, tmp_path,
                                                        capsys, lines, message):
        # every run of some method would fail: the config builds each key
        # it trains, so TrainConfig and LossSpec reject the value up front,
        # and the CLI names the key, value and method in one line; with two
        # bad settings the check that fails names its key
        out = tmp_path / "out"
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(small_config_text(triplet_files, out) + lines + "\n")
        assert cli.main(["experiment", "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()
        with pytest.raises(SettingError, match=re.escape(message)) as info:
            exp.parse_config_file(cfg_path)
        assert info.value.name == message.split()[0]

    def test_canonical_text_round_trips_every_field(self, tmp_path):
        # every field away from its default, so each field's parser is used
        config = exp.ExperimentConfig(
            dataset="ratings", format="triplets", methods=("upl", "bpr"), runs=3, seed=7,
            d_grid=(4, 6), lambda_grid=(0.5, 1e-9), clip_grid=(-0.5, -2.0), cohorts=False,
            candidates="test_only", batch_size=32, learning_rate=0.01, max_epochs=9,
            patience=2, threads=2, out="o")
        default = exp.ExperimentConfig()
        assert [f.name for f in fields(config)
                if getattr(config, f.name) == getattr(default, f.name)] == []
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(config.canonical_text())
        assert exp.parse_config_file(cfg_path) == config


class TestMakeLossSpec:
    @pytest.mark.parametrize("token, spec", [
        ("wmf", LossSpec("wmf")),
        ("relmf", LossSpec("relmf")),
        ("mfdu", LossSpec("relmf")),
        ("bpr", LossSpec("bpr")),
        ("ubpr", LossSpec("ubpr_clipped", clip_threshold=-2.0)),
        ("ubpr_nclip", LossSpec("ubpr")),
        ("upl", LossSpec("upl")),
    ])
    def test_token_maps_to_spec(self, token, spec):
        assert exp.make_loss_spec(token, clip=-2.0) == spec


class TestPrepareCli:
    def test_prepare_writes_splits(self, triplet_files, tmp_path):
        out = tmp_path / "prepared"
        rc = cli.main([
            "prepare", "--dataset", str(triplet_files), "--format", "triplets",
            "--seed", "3", "--out", str(out),
        ])
        assert rc == 0
        meta = {split: json.loads((out / split / "meta.json").read_text())
                for split in ("train", "validation", "test")}
        cells = meta["train"]["num_exposed"] + meta["validation"]["num_exposed"]
        assert meta["validation"]["num_exposed"] == int(0.1 * cells)
        assert meta["train"]["epsilon"] == 0.1 and meta["test"]["epsilon"] == 0.0
        assert (out / "user_map.tsv").exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--seed", "-1", "seed must be >= 0, got -1"),
    ], ids=["seed_negative"])
    def test_split_setting_named_before_work(self, triplet_files, tmp_path, capsys,
                                             monkeypatch, flag, value, message):
        stop_at(monkeypatch, exp, "prepare_datasets")
        out = tmp_path / "prepared"
        assert cli.main(["prepare", "--dataset", str(triplet_files), "--format", "triplets",
                         flag, value, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {flag}: {message}\n"
        assert not out.exists()

    def test_empty_out_rejected_before_work(self, triplet_files, tmp_path, capsys,
                                            monkeypatch):
        # Path("") is the working directory, which would take the splits
        stop_at(monkeypatch, exp, "prepare_datasets")
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        assert cli.main(["prepare", "--dataset", str(triplet_files), "--format", "triplets",
                         "--out", ""]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --out is empty: name an output directory\n"
        assert list(work.iterdir()) == []

    @pytest.mark.parametrize("under, reason", [("", "File exists"),
                                               ("prepared", "Not a directory")],
                             ids=["a_file", "under_a_file"])
    def test_uncreatable_out_rejected_in_one_line(self, triplet_files, tmp_path, capsys,
                                                  under, reason):
        afile = tmp_path / "afile"
        afile.write_text("kept\n")
        out = afile / under
        assert cli.main(["prepare", "--dataset", str(triplet_files), "--format", "triplets",
                         "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: cannot create directory {out}: {reason}\n"
        assert afile.read_text() == "kept\n"

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


def read_dataset_argv(command, root, *flags, out):
    """The argv of ``command`` reading the dataset ``root``: train trains bpr."""
    method = ("--method", "bpr") if command == "train" else ()
    return [command, "--dataset", str(root), *flags, *method, "--out", str(out)]


def tree_state(root):
    """{path: its bytes, or False for a directory} of everything under root."""
    return {p: p.is_file() and p.read_bytes() for p in Path(root).rglob("*")}


class TestDatasetRefusals:
    """``prepare`` and ``train`` read a dataset one way, the experiment's:
    each refuses a dataset it cannot split, or whose splits no run can train
    on, with the same one error line, exits 2 and writes nothing."""

    def assert_refused(self, argv, message, tmp_path, capsys):
        before = tree_state(tmp_path)
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
        assert tree_state(tmp_path) == before

    @pytest.mark.parametrize("command", ["prepare", "train"])
    def test_missing_dataset_rejected_in_one_line(self, tmp_path, capsys, command):
        root = tmp_path / "nonexistent"
        self.assert_refused(read_dataset_argv(command, root, out=tmp_path / "o"),
                            f"dataset {root}: none of train.ascii found", tmp_path, capsys)

    @pytest.mark.parametrize("command", ["prepare", "train"])
    def test_malformed_rating_file_rejected_in_one_line(self, triplet_files, tmp_path, capsys,
                                                        command):
        root = malformed_triplets(triplet_files, tmp_path)
        argv = read_dataset_argv(command, root, "--format", "triplets", out=tmp_path / "o")
        self.assert_refused(argv, f"{root / 'train.txt'}:2: expected 3 fields, got 2",
                            tmp_path, capsys)

    @pytest.mark.parametrize("command", ["prepare", "train"])
    @pytest.mark.parametrize("case", BAD_RATING_FILES)
    def test_bad_rating_files_rejected_in_one_line(self, triplet_files, tmp_path, capsys,
                                                   case, command):
        root, format, message = bad_rating_files(case, triplet_files, tmp_path)
        argv = read_dataset_argv(command, root, "--format", format, out=tmp_path / "o")
        self.assert_refused(argv, message, tmp_path, capsys)

    @pytest.mark.parametrize("command", ["prepare", "train"])
    @pytest.mark.parametrize("case", ["train_without_clicks", "validation_without_clicks"])
    def test_splits_no_run_trains_on_rejected_in_one_line(self, tmp_path, capsys, case,
                                                          command):
        if case == "train_without_clicks":
            root = clickless_triplets(tmp_path)
            flags = ["--seed", str(CLICKLESS_SEED)]
            message = f"dataset {root}: train split: all click counts are zero"
        else:  # floor(10% of 3 cells) = 0
            root, flags = validationless_triplets(tmp_path), []
            message = (f"dataset {root}: validation split has 0 cells and 0 clicks: "
                       "its DCG@5 would read 0 at every epoch")
        argv = read_dataset_argv(command, root, "--format", "triplets", *flags,
                                 out=tmp_path / "o")
        self.assert_refused(argv, message, tmp_path, capsys)


class TestTrainCli:
    @pytest.fixture
    def dataset(self, triplet_files):
        """train's flags that read the synthetic triplets dataset."""
        return ["--dataset", str(triplet_files), "--format", "triplets"]

    def test_single_run_outputs(self, dataset, tmp_path):
        out = tmp_path / "run"
        rc = cli.main([
            "train", *dataset, "--method", "upl", "--d", "8",
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

    @pytest.mark.parametrize("method, flags, message", [
        ("ubpr", ["--clip", "5"], "--clip 5.0: clip_threshold must be in [-10, 0]"),
        ("bpr", ["--d", "0"], "--d 0: latent dimension must be >= 1"),
        ("upl", ["--learning-rate", "-1"],
         "--learning-rate -1.0: learning_rate must be positive"),
        ("bpr", ["--learning-rate", "nan"], "--learning-rate nan: learning_rate must be finite"),
        ("bpr", ["--lam", "inf"], "--lam inf: lambda must be finite"),
        ("upl", ["--seed", "-1"], "--seed -1: seed must be >= 0"),
        ("bpr", ["--seed", "9223372036854775808"],
         "--seed 9223372036854775808: seed must be < 9223372036854775808"),
    ], ids=["clip", "d", "learning_rate", "learning_rate_nan", "lam_inf", "seed_negative",
            "seed_beyond_int64"])
    def test_rejected_setting_named_before_out_created(self, dataset, tmp_path, capsys,
                                                        monkeypatch, method, flags, message):
        # before the rating files are read, too
        stop_at(monkeypatch, exp, "prepare_datasets")
        out = tmp_path / "run"
        assert cli.main(["train", *dataset, "--method", method, *flags,
                         "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
        assert not out.exists()

    def test_out_under_a_file_rejected_before_training(self, dataset, tmp_path, capsys,
                                                       monkeypatch):
        stop_at(monkeypatch, cli, "train_key")
        afile = tmp_path / "afile"
        afile.write_text("kept\n")
        out = afile / "run"
        assert cli.main(["train", *dataset, "--method", "bpr", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: cannot create directory {out}: Not a directory\n"
        assert afile.read_text() == "kept\n"

    def test_empty_out_rejected_before_work(self, dataset, tmp_path, capsys, monkeypatch):
        # Path("") is the working directory, which would take the run's files
        stop_at(monkeypatch, exp, "prepare_datasets")
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        assert cli.main(["train", *dataset, "--method", "bpr", "--out", ""]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --out is empty: name an output directory\n"
        assert list(work.iterdir()) == []

    def test_pairwise_method_on_one_item_rejected_in_one_line(self, tmp_path, capsys):
        # 40 users clicking the one item: relmf trains on it, but a pairwise
        # method has no other item j to pair a click with
        root = tmp_path / "one_item"
        root.mkdir()
        (root / "train.txt").write_text("".join(f"{u}\t1\t5\n" for u in range(40)))
        (root / "test.txt").write_text("0\t1\t5\n")
        dataset = ["--dataset", str(root), "--format", "triplets"]
        for method in ("bpr", "upl"):
            out = tmp_path / method
            assert cli.main(["train", *dataset, "--method", method, "--out", str(out)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (f"error: dataset {root}: method {method} pairs "
                                    "each click with another item, but the catalog has 1 item\n")
            assert not out.exists()
        assert cli.main(["train", *dataset, "--method", "relmf", "--d", "2",
                         "--max-epochs", "1", "--out", str(tmp_path / "relmf")]) == 0

    @pytest.mark.parametrize("method, learning_rate", [("bpr", "1e300"), ("relmf", "1e160")])
    def test_diverging_run_fails_in_one_line(self, dataset, tmp_path, capsys, method,
                                             learning_rate):
        # the line an experiment writes to failures.tsv, not a traceback or a
        # numpy warning, even with every warning an error; --out, made before
        # training, is left without a file
        out = tmp_path / "run"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["train", *dataset, "--method", method, "--d", "4",
                             "--max-epochs", "3", "--learning-rate", learning_rate,
                             "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(f"error: {method}: TrainingDivergedError: non-finite loss "
                            r"at epoch \d+, batch \d+\n", captured.err)
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("command, flag, value", [
        ("train", "--wmf-weight", "10"),
        ("prepare", "--epsilon-train", "1"), ("prepare", "--epsilon-test", "nan"),
        ("prepare", "--validation-fraction", "0"),
        ("prepare", "--validation-fraction", "1.5"),
        ("prepare", "--train-file", "a.txt"), ("prepare", "--test-file", "b.txt"),
        ("experiment", "--epsilon-train", "0.1"), ("experiment", "--epsilon-test", "0"),
        ("experiment", "--dataset", "elsewhere"), ("experiment", "--format", "coat"),
        ("experiment", "--methods", "relmf"), ("experiment", "--runs", "3"),
        ("experiment", "--seed", "4"), ("experiment", "--threads", "2"),
        ("experiment", "--out", "elsewhere_out"), ("experiment", "--grid-file", "grid.cfg"),
        ("train", "--data", "prepared"),
    ], ids=["wmf_weight", "epsilon_train_one", "epsilon_test_nan", "fraction_zero",
            "fraction_above_one", "train_file", "test_file", "experiment_epsilon_train",
            "experiment_epsilon_test", "experiment_dataset", "experiment_format",
            "experiment_methods", "experiment_runs", "experiment_seed", "experiment_threads",
            "experiment_out", "experiment_grid_file", "train_data"])
    def test_retired_flag_is_unknown(self, triplet_files, tmp_path, capsys, command, flag,
                                     value):
        # wmf's click weight and the data protocol are constants, a dataset's
        # rating files are found by its format's names, train reads them and
        # not prepared splits, and an experiment's settings come from its
        # config file alone: argparse refuses the flag, whatever the value,
        # before anything is read, even where it begins a live flag
        out = tmp_path / "run"
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(small_config_text(triplet_files, out))
        argv = {"train": ["--dataset", str(triplet_files), "--format", "triplets",
                          "--method", "wmf", "--out", str(out)],
                "prepare": ["--dataset", str(triplet_files), "--format", "triplets",
                            "--out", str(out)],
                "experiment": ["--config", str(cfg_path)]}[command]
        before = sorted(tmp_path.rglob("*"))
        with pytest.raises(SystemExit) as info:
            cli.main([command, *argv, flag, value])
        assert info.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
        assert sorted(tmp_path.rglob("*")) == before

    def test_mfdu_trains_relmf(self, dataset, tmp_path):
        outs = {}
        for method in ("relmf", "mfdu"):
            outs[method] = tmp_path / method
            assert cli.main([
                "train", *dataset, "--method", method, "--d", "8",
                "--lam", "1e-5", "--max-epochs", "4", "--seed", "2",
                "--out", str(outs[method]),
            ]) == 0
        for name in ("model.ckpt", "train.log"):
            assert (outs["mfdu"] / name).read_bytes() == (outs["relmf"] / name).read_bytes()
        relmf_rows = (outs["relmf"] / "metrics.tsv").read_text().splitlines()
        mfdu_rows = (outs["mfdu"] / "metrics.tsv").read_text().splitlines()
        assert [r.split("\t")[1:] for r in mfdu_rows] == \
            [r.split("\t")[1:] for r in relmf_rows]

    def assert_each_token_matches_experiment_run_zero(self, root, format, tmp_path):
        # `uplrec train` and the experiment split the rating files and train
        # a key the same way: for the same seed and combo, train gives the
        # experiment's run 0
        seed = 5
        cfg_path, out = tmp_path / "exp.cfg", tmp_path / "exp"
        cfg_path.write_text(small_config_text(root, out, methods=",".join(exp.METHOD_TOKENS),
                                              runs=1, seed=seed)
                            + f"format = {format}\nclip_grid = -1\nmax_epochs = 4\n")
        assert cli.main(["experiment", "--config", str(cfg_path)]) == 0
        rows = exp.read_per_run(out / "per_run_metrics.tsv")
        for token in exp.METHOD_TOKENS:
            run_dir = tmp_path / token
            assert cli.main([
                "train", "--dataset", str(root), "--format", format,
                "--method", token, "--d", "8",
                "--lam", "1e-5", "--clip", "-1", "--batch-size", "64",
                "--max-epochs", "4", "--patience", "3", "--seed", str(seed),
                "--out", str(run_dir),
            ]) == 0
            assert (run_dir / "train.log").read_bytes() == \
                (out / "logs" / f"{token}_run000.log").read_bytes(), token
            expected = [r for r in rows if r[:2] == (token, 0)]
            assert expected and exp.read_per_run(run_dir / "metrics.tsv") == expected, token

    def test_each_token_matches_experiment_run_zero(self, triplet_files, tmp_path):
        self.assert_each_token_matches_experiment_run_zero(triplet_files, "triplets", tmp_path)

    def test_each_token_matches_experiment_run_zero_on_coat(self, triplet_files, tmp_path):
        # the same ratings as coat's two dense matrices, 0 meaning unrated
        root = tmp_path / "coat"
        root.mkdir()
        train, test = (np.loadtxt(triplet_files / name, dtype=np.int64, ndmin=2)
                       for name in ("train.txt", "test.txt"))
        users, items = (np.unique(np.concatenate([train[:, k], test[:, k]])) for k in (0, 1))
        for name, ratings in (("train.ascii", train), ("test.ascii", test)):
            dense = np.zeros((len(users), len(items)), dtype=np.int64)
            dense[np.searchsorted(users, ratings[:, 0]),
                  np.searchsorted(items, ratings[:, 1])] = ratings[:, 2]
            np.savetxt(root / name, dense, fmt="%d")
        self.assert_each_token_matches_experiment_run_zero(root, "coat", tmp_path)


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


def tree_bytes(root):
    """{path relative to root: bytes} of every file under root."""
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in Path(root).rglob("*") if p.is_file()}


@pytest.fixture(scope="module")
def experiment_data(triplet_files, tmp_path_factory):
    """(dataset root, seed, the ``out/data`` an experiment at that seed saved)."""
    seed, work = 5, tmp_path_factory.mktemp("experiment_data")
    cfg_path, out = work / "exp.cfg", work / "out"
    cfg_path.write_text(small_config_text(triplet_files, out, runs=1, seed=seed)
                        + "max_epochs = 1\n")
    assert cli.main(["experiment", "--config", str(cfg_path)]) == 0
    return triplet_files, seed, out / "data"


class TestCliSurface:
    """A flag's default is its setting's default, and each flag reaches the
    setting it names."""

    def test_prepare_defaults_are_the_config_defaults(self, triplet_files, tmp_path,
                                                      monkeypatch):
        calls = stop_at(monkeypatch, exp, "prepare_datasets")
        with pytest.raises(_Stop):
            cli.main(["prepare", "--dataset", str(triplet_files), "--out", str(tmp_path)])
        default = exp.ExperimentConfig()
        assert calls == [((str(triplet_files), default.format, default.seed), {})]

    def test_train_reads_the_dataset_as_prepare_does(self, triplet_files, tmp_path,
                                                     monkeypatch):
        # the same defaults, and the one --seed both splits and trains
        calls = stop_at(monkeypatch, exp, "prepare_datasets")
        for argv in (["--seed", "4"], []):
            with pytest.raises(_Stop):
                cli.main(["train", "--dataset", str(triplet_files), "--method", "bpr",
                          *argv, "--out", str(tmp_path)])
        default = exp.ExperimentConfig()
        assert calls == [((str(triplet_files), default.format, seed), {})
                         for seed in (4, default.seed)]

    def test_prepare_datasets_defaults_are_the_config_defaults(self, experiment_data,
                                                               tmp_path):
        # perfbench's train-d200 calls prepare_datasets with format and seed
        # alone: the data is the experiment's at that seed
        root, seed, saved = experiment_data
        data = exp.prepare_datasets(str(root), format="triplets", seed=seed)
        exp.save_prepared(data, tmp_path / "data")
        assert tree_bytes(tmp_path / "data") == tree_bytes(saved)

    def test_prepare_writes_the_experiment_data(self, experiment_data, tmp_path):
        # `prepare --seed S` needs no other experiment setting to write, byte
        # for byte, the splits and index maps an experiment at seed S saves
        root, seed, saved = experiment_data
        assert cli.main(["prepare", "--dataset", str(root), "--format", "triplets",
                         "--seed", str(seed), "--out", str(tmp_path / "prep")]) == 0
        files = tree_bytes(tmp_path / "prep")
        assert sorted(files) == sorted(
            [f"{split}/{name}" for split in ("train", "validation", "test")
             for name in ("exposed.tsv", "meta.json")] + ["item_map.tsv", "user_map.tsv"])
        assert files == tree_bytes(saved)

    def test_prepare_takes_the_seed_of_a_one_run_experiment(self, triplet_files, tmp_path):
        # prepare has no runs, so no last run seed bounds its seed: at the
        # largest seeds only a one-run experiment is valid, and prepare
        # still rebuilds its data
        seed, out = 2**63 - 8, tmp_path / "out"
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(small_config_text(triplet_files, out, runs=1, seed=seed)
                            + "max_epochs = 1\n")
        assert cli.main(["experiment", "--config", str(cfg_path)]) == 0
        assert cli.main(["prepare", "--dataset", str(triplet_files), "--format", "triplets",
                         "--seed", str(seed), "--out", str(tmp_path / "prep")]) == 0
        assert tree_bytes(tmp_path / "prep") == tree_bytes(out / "data")

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
    def test_train_defaults_are_the_config_defaults(self, triplet_files, tmp_path,
                                                    monkeypatch, token):
        # only the required flags and --format: TrainConfig's defaults,
        # ExperimentConfig's candidates, and the one propensity estimate
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
        assert cli.main(["train", "--dataset", str(triplet_files), "--format", "triplets",
                         "--method", token, "--out", str(tmp_path)]) == 0
        default = exp.ExperimentConfig()
        (config, spec, theta), = keys
        assert config == TrainConfig()
        assert spec == exp.make_loss_spec(token, 0.0)
        counts = exp.prepare_datasets(triplet_files, "triplets").train.item_click_counts
        assert np.array_equal(theta, PropensityTable.from_click_counts(counts).theta_click)
        assert candidates == [default.candidates]

    @pytest.mark.parametrize("command, prefix, value", [
        ("prepare", "--se", "3"), ("train", "--max-epoch", "3"),
        ("experiment", "--conf", "other.cfg"), ("verify", "--sample", "10000"),
        ("report", "--ou", "other"),
    ], ids=["prepare_seed", "train_max_epochs", "experiment_config", "verify_samples",
            "report_out"])
    def test_flags_are_matched_whole(self, triplet_files, tmp_path, capsys, monkeypatch,
                                     command, prefix, value):
        # a prefix of a live flag is unknown, not read as the flag, so no
        # retired flag that begins a live one is taken for it
        monkeypatch.setitem(cli._COMMANDS, command, lambda args: pytest.fail("ran"))
        out = tmp_path / "o"
        argv = {"prepare": ["--dataset", str(triplet_files), "--out", str(out)],
                "train": ["--dataset", str(triplet_files), "--method", "bpr",
                          "--out", str(out)],
                "experiment": ["--config", str(tmp_path / "exp.cfg")],
                "verify": [],
                "report": ["--out", str(out)]}[command]
        with pytest.raises(SystemExit) as info:
            cli.main([command, *argv, prefix, value])
        assert info.value.code == 2
        assert f"unrecognized arguments: {prefix} {value}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_readme_names_every_option_and_no_other_flag(self, capsys):
        # pip's flag in the install block is the one flag not uplrec's
        flag = r"(?<![\w-])--[a-z][a-z-]*"
        options = set()
        for command in cli._COMMANDS:
            with pytest.raises(SystemExit):
                cli.main([command, "--help"])
            options |= set(re.findall(flag, capsys.readouterr().out)) - {"--help"}
        named = set(re.findall(flag, README.read_text())) - {"--no-build-isolation"}
        assert sorted(named - options) == []
        assert sorted(options - named) == []

class TestUnusablePaths:
    """A directory where a command reads a file, a file where it reads or
    creates a directory, or an input that is not UTF-8 text, gives one error
    line naming the path, and nothing is written."""

    @pytest.mark.parametrize("case", [
        "experiment_config", "experiment_train_file",
        "experiment_out", "experiment_out_under_a_file", "verify_world",
        "report_out", "report_config_hash", "prepare_train_file", "train_train_file",
        "prepare_test_file", "train_test_file", "train_coat_file"])
    def test_refused_in_one_line(self, triplet_files, tmp_path, capsys, case):
        adir, afile = tmp_path / "adir", tmp_path / "afile"
        adir.mkdir()
        afile.write_text("kept\n")
        runs = tmp_path / "runs"  # a readable per-run table beside a hash that is a directory
        runs.mkdir()
        (runs / "per_run_metrics.tsv").write_text("bpr\t0\tall\tdcg\t5\t0.25\n")
        (runs / "config_hash.txt").mkdir()
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(small_config_text(triplet_files, tmp_path / "out"))
        hollow = tmp_path / "hollow"  # a triplets dataset whose train.txt is a directory
        (hollow / "train.txt").mkdir(parents=True)
        shutil.copy(triplet_files / "test.txt", hollow)
        hollow_test = tmp_path / "hollow_test"  # ... whose test.txt is a directory
        (hollow_test / "test.txt").mkdir(parents=True)
        shutil.copy(triplet_files / "train.txt", hollow_test)
        hollow_coat = tmp_path / "hollow_coat"  # a coat dataset whose train.ascii is one
        (hollow_coat / "train.ascii").mkdir(parents=True)
        (hollow_coat / "test.ascii").write_text("1 0 5\n0 3 4\n")
        cfg_train_dir = tmp_path / "train_dir.cfg"
        cfg_train_dir.write_text(small_config_text(hollow, tmp_path / "out"))
        cfg_out, cfg_out_under = tmp_path / "out.cfg", tmp_path / "out_under.cfg"
        cfg_out.write_text(small_config_text(triplet_files, afile))
        cfg_out_under.write_text(small_config_text(triplet_files, afile / "out"))
        is_a_dir = f"[Errno 21] Is a directory: '{adir}'"
        not_a_file = f"dataset {hollow}: rating file {hollow / 'train.txt'} is not a file"
        train = ["train", "--method", "bpr", "--out", str(tmp_path / "o"), "--dataset"]
        argv, message = {
            "experiment_config": (["experiment", "--config", str(adir)], is_a_dir),
            "experiment_train_file": (["experiment", "--config", str(cfg_train_dir)],
                                      not_a_file),
            "experiment_out": (["experiment", "--config", str(cfg_out)],
                               f"cannot create directory {afile}: File exists"),
            "experiment_out_under_a_file": (
                ["experiment", "--config", str(cfg_out_under)],
                f"cannot create directory {afile / 'out'}: Not a directory"),
            "verify_world": (["verify", "--world", str(adir), "--exact-only"], is_a_dir),
            "report_out": (["report", "--out", str(afile)],
                           f"[Errno 20] Not a directory: '{afile / 'per_run_metrics.tsv'}'"),
            "report_config_hash": (["report", "--out", str(runs)],
                                   f"[Errno 21] Is a directory: '{runs / 'config_hash.txt'}'"),
            "prepare_train_file": (
                ["prepare", "--dataset", str(hollow), "--format", "triplets",
                 "--out", str(tmp_path / "o")], not_a_file),
            "train_train_file": ([*train, str(hollow), "--format", "triplets"], not_a_file),
            "prepare_test_file": (
                ["prepare", "--dataset", str(hollow_test), "--format", "triplets",
                 "--out", str(tmp_path / "o")],
                f"dataset {hollow_test}: rating file {hollow_test / 'test.txt'} is not a file"),
            "train_test_file": (
                [*train, str(hollow_test), "--format", "triplets"],
                f"dataset {hollow_test}: rating file {hollow_test / 'test.txt'} is not a file"),
            "train_coat_file": (
                [*train, str(hollow_coat), "--format", "coat"],
                f"dataset {hollow_coat}: rating file {hollow_coat / 'train.ascii'} "
                "is not a file"),
        }[case]
        before = sorted(tmp_path.rglob("*"))
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
        assert sorted(tmp_path.rglob("*")) == before
        assert afile.read_text() == "kept\n"

    @pytest.mark.parametrize("case", [
        "prepare_triplets", "prepare_coat", "train_triplets", "train_coat",
        "experiment_config", "verify_world", "report"])
    def test_undecodable_input_refused_in_one_line(self, triplet_files, tmp_path, capsys,
                                                   case):
        # a 0xff byte, never part of UTF-8 text, at the start of an input's line 2
        coat, runs = tmp_path / "coat", tmp_path / "runs"
        coat.mkdir()
        for name in ("train.ascii", "test.ascii"):
            (coat / name).write_text("1 0 5\n0 3 4\n")
        runs.mkdir()
        (runs / "per_run_metrics.tsv").write_text(
            "method\trun\tcohort\tmetric\tk\tvalue\nbpr\t0\tall\tdcg\t5\t0.5\n")
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(small_config_text(triplet_files, tmp_path / "out"))
        world = tmp_path / "world.txt"
        shutil.copy(WORLDS_DIR / "clip_bias.txt", world)
        data = shutil.copytree(triplet_files, tmp_path / "data")
        train = ["train", "--method", "bpr", "--out", str(tmp_path / "o"), "--dataset"]
        argv, path = {
            "prepare_triplets": (["prepare", "--dataset", str(data), "--format", "triplets",
                                  "--out", str(tmp_path / "o")], data / "train.txt"),
            "prepare_coat": (["prepare", "--dataset", str(coat), "--format", "coat",
                              "--out", str(tmp_path / "o")], coat / "train.ascii"),
            "train_triplets": ([*train, str(data), "--format", "triplets"],
                               data / "train.txt"),
            "train_coat": ([*train, str(coat), "--format", "coat"], coat / "train.ascii"),
            "experiment_config": (["experiment", "--config", str(cfg)], cfg),
            "verify_world": (["verify", "--world", str(world), "--exact-only"], world),
            "report": (["report", "--out", str(runs)], runs / "per_run_metrics.tsv"),
        }[case]
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(b"".join([lines[0], b"\xff" + lines[1], *lines[2:]]))
        before = tree_state(tmp_path)
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}:2: not UTF-8 text\n"
        assert tree_state(tmp_path) == before


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


class TestReportCli:
    def test_missing_per_run_table_rejected_in_one_line(self, tmp_path, capsys):
        assert cli.main(["report", "--out", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == \
            f"error: [Errno 2] No such file or directory: '{tmp_path / 'per_run_metrics.tsv'}'\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("row, message", [
        ("bpr\t0\tall\tdcg\t5", "expected method, run, cohort, metric, k and value, "
                               "got 'bpr\\t0\\tall\\tdcg\\t5'"),
        ("bpr\t0\tall\tdcg\t5\tnan", "value must be finite, got 'nan'"),
        ("bpr\t0\tall\tdcg\t5\t-inf", "value must be finite, got '-inf'"),
    ], ids=["short", "nan", "minus_inf"])
    def test_malformed_per_run_row_rejected_in_one_line(self, tmp_path, capsys, row, message):
        # write_metrics never writes a non-finite value, which would turn
        # its group's mean into nan
        path = tmp_path / "per_run_metrics.tsv"
        path.write_text(f"method\trun\tcohort\tmetric\tk\tvalue\n{row}\n")
        assert cli.main(["report", "--out", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}:2: {message}\n"
        assert list(tmp_path.iterdir()) == [path]

    def test_repeated_row_key_rejected_in_one_line(self, tmp_path, capsys):
        # a repeated row would be counted as one more run of its method
        path = tmp_path / "per_run_metrics.tsv"
        path.write_text("method\trun\tcohort\tmetric\tk\tvalue\n"
                        "bpr\t0\tall\tdcg\t5\t0.25\n"
                        "bpr\t1\tall\tdcg\t5\t0.5\n"
                        "bpr\t1\tall\tdcg\t5\t0.5\n")
        assert cli.main(["report", "--out", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {path}:4: duplicate (method, run, cohort, metric, k) "
                                "('bpr', 1, 'all', 'dcg', 5), first on line 3\n")
        assert list(tmp_path.iterdir()) == [path]

    def test_empty_out_rejected_in_one_line(self, tmp_path, capsys, monkeypatch):
        # Path("") is the working directory, which would be re-aggregated
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "per_run_metrics.tsv"
        path.write_text("method\trun\tcohort\tmetric\tk\tvalue\n"
                        "bpr\t0\tall\tdcg\t5\t0.25\n")
        assert cli.main(["report", "--out", ""]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --out is empty: name an output directory\n"
        assert list(tmp_path.iterdir()) == [path]

    def test_tables_md_order_independent_of_hash_seed(self, tmp_path):
        # methods outside METHOD_TOKENS follow the known tokens by name; a
        # set's order would follow PYTHONHASHSEED
        methods = ["zeta", "bpr", "alpha", "omega", "upl", "kappa", "beta", "mu", "delta"]
        rows = "".join(f"{m}\t{run}\tall\tdcg\t5\t0.{n}{run}\n"
                       for n, m in enumerate(methods) for run in range(2))
        script = "import sys; from uplrec import cli; sys.exit(cli.main(sys.argv[1:]))"
        tables = []
        for hash_seed in ("0", "1", "2", "3"):
            out = tmp_path / hash_seed
            out.mkdir()
            (out / "per_run_metrics.tsv").write_text(
                "method\trun\tcohort\tmetric\tk\tvalue\n" + rows)
            env = {**os.environ, "PYTHONHASHSEED": hash_seed,
                   "PYTHONPATH": str(Path(cli.__file__).parents[1])}
            done = subprocess.run([sys.executable, "-c", script, "report", "--out", str(out)],
                                  env=env, capture_output=True, text=True, timeout=60)
            assert done.returncode == 0, done.stderr
            tables.append((out / "tables.md").read_bytes())
        assert tables == [tables[0]] * 4
        names = re.findall(r"^\| (\S+) \|", tables[0].decode(), flags=re.M)[1:]
        assert names == ["BPR", "UPL", "alpha", "beta", "delta", "kappa", "mu", "omega", "zeta"]


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


    def test_pool_no_wider_than_its_tasks(self, triplet_files, tmp_path, monkeypatch):
        # a pool forks all its workers at the first submit: two grid tasks
        # get two, whatever threads allows
        widths = []

        class InlinePool:
            """Records its width and runs the tasks in this process."""

            def __init__(self, max_workers, initializer, initargs):
                widths.append(max_workers)
                self.state, = initargs

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return (fn(task, self.state) for task in tasks)

        # _train_tasks imports the pool class when it forks, so patch its source
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(small_config_text(triplet_files, tmp_path / "out", methods="ubpr",
                                              runs=1).replace("clip_grid = 0", "clip_grid = 0,-1")
                            + "threads = 8\n")
        assert cli.main(["experiment", "--config", str(cfg_path)]) == 0
        assert widths == [2]


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


def fake_train_key(dataset, config, spec, *args):
    """A run whose epoch log is a fixed function of its key, with a zero
    model; wmf's training fails."""
    if spec.method == "wmf":
        raise RuntimeError("synthetic wmf failure")
    val = 1 / 3 + 100 * config.lam - (spec.clip_threshold or 0.0) / 7
    log = [(1, 0.5 + config.seed / 9, val)]
    model = FactorModel(np.zeros((dataset.num_users, config.d)),
                        np.zeros((dataset.num_items, config.d)))
    return [trainer.TrainRun(config, spec, model, log)]


def fake_evaluate(model, test, *, method, run, **kwargs):
    """One report whose metrics are a fixed function of method and run."""
    base = (exp.METHOD_TOKENS.index(method) + 1) / 10 + run / 30
    return [MetricReport(method, run, "all", 5, base, base / 3, base / 7)]


def tiny_triplets(tmp_path):
    """Four train users over three items, and test ratings of a user (50)
    and an item (6) that train lacks, all under raw ids."""
    root = tmp_path / "tiny"
    root.mkdir()
    (root / "train.txt").write_text("10\t7\t5\n10\t8\t4\n10\t9\t5\n20\t7\t5\n20\t9\t3\n"
                                    "30\t8\t5\n30\t9\t5\n40\t7\t2\n40\t8\t5\n40\t9\t5\n")
    (root / "test.txt").write_text("10\t6\t5\n50\t8\t4\n20\t8\t1\n")
    return root


# every file of an experiment on tiny_triplets but config_resolved.cfg (which
# records the paths), training and evaluation replaced as above
TINY_EXPERIMENT_TREE = {
    "aggregate.tsv": (
        "# config_hash=0123456789abcdef\n"
        "method\tcohort\tmetric\tk\tmean\tstd\tn_runs\n"
        "bpr\tall\tdcg\t5\t0.41666666666666669\t0.02357022603955158\t2\n"
        "ubpr\tall\tdcg\t5\t0.51666666666666661\t0.02357022603955158\t2\n"
        "bpr\tall\tmap\t5\t0.059523809523809527\t0.003367175148507367\t2\n"
        "ubpr\tall\tmap\t5\t0.073809523809523797\t0.003367175148507367\t2\n"
        "bpr\tall\trecall\t5\t0.1388888888888889\t0.0078567420131838723\t2\n"
        "ubpr\tall\trecall\t5\t0.17222222222222222\t0.0078567420131838723\t2\n"
    ),
    "config_hash.txt": (
        "0123456789abcdef\n"
    ),
    "data/item_map.tsv": (
        "index\traw_id\n"
        "0\t6\n"
        "1\t7\n"
        "2\t8\n"
        "3\t9\n"
    ),
    "data/test/exposed.tsv": (
        "user\titem\tgamma\trel\n"
        "0\t0\t1\t1\n"
        "1\t2\t0.032258064516129031\t0\n"
        "4\t2\t0.4838709677419355\t0\n"
    ),
    "data/test/meta.json": (
        "{\n"
        '  "epsilon": 0.0,\n'
        '  "format_version": 1,\n'
        '  "num_clicks": 1,\n'
        '  "num_exposed": 3,\n'
        '  "num_items": 4,\n'
        '  "num_users": 5,\n'
        '  "r_max": 5,\n'
        '  "seed": 4,\n'
        '  "split_tag": "test"\n'
        "}\n"
    ),
    "data/train/exposed.tsv": (
        "user\titem\tgamma\trel\n"
        "0\t1\t1\t1\n"
        "0\t2\t0.53548387096774197\t1\n"
        "0\t3\t1\t1\n"
        "1\t1\t1\t1\n"
        "1\t3\t0.3032258064516129\t1\n"
        "2\t2\t1\t1\n"
        "2\t3\t1\t1\n"
        "3\t2\t1\t1\n"
        "3\t3\t1\t1\n"
    ),
    "data/train/meta.json": (
        "{\n"
        '  "epsilon": 0.1,\n'
        '  "format_version": 1,\n'
        '  "num_clicks": 9,\n'
        '  "num_exposed": 9,\n'
        '  "num_items": 4,\n'
        '  "num_users": 5,\n'
        '  "r_max": 5,\n'
        '  "seed": 3,\n'
        '  "split_tag": "train"\n'
        "}\n"
    ),
    "data/user_map.tsv": (
        "index\traw_id\n"
        "0\t10\n"
        "1\t20\n"
        "2\t30\n"
        "3\t40\n"
        "4\t50\n"
    ),
    "data/validation/exposed.tsv": (
        "user\titem\tgamma\trel\n"
        "3\t1\t0.18709677419354839\t1\n"
    ),
    "data/validation/meta.json": (
        "{\n"
        '  "epsilon": 0.1,\n'
        '  "format_version": 1,\n'
        '  "num_clicks": 1,\n'
        '  "num_exposed": 1,\n'
        '  "num_items": 4,\n'
        '  "num_users": 5,\n'
        '  "r_max": 5,\n'
        '  "seed": 3,\n'
        '  "split_tag": "validation"\n'
        "}\n"
    ),
    "failures.tsv": (
        "method\terror\n"
        "wmf\tRuntimeError: synthetic wmf failure\n"
    ),
    "grid_search.tsv": (
        "# config_hash=0123456789abcdef\n"
        "method\td\tlambda\tclip\tval_dcg5\n"
        "ubpr\t2\t1.0000000000000001e-05\t0\t0.33433333333333332\n"
        "ubpr\t2\t1.0000000000000001e-05\t-0.10000000000000001\t0.34861904761904761\n"
        "ubpr\t2\t0.001\t0\t0.43333333333333335\n"
        "ubpr\t2\t0.001\t-0.10000000000000001\t0.44761904761904764\n"
        "bpr\t2\t1.0000000000000001e-05\t0\t0.33433333333333332\n"
        "bpr\t2\t0.001\t0\t0.43333333333333335\n"
    ),
    "logs/bpr_run000.log": (
        "epoch=1\ttrain_loss=0.8333333333\tval_dcg5=0.4333333333\n"
    ),
    "logs/bpr_run001.log": (
        "epoch=1\ttrain_loss=0.9444444444\tval_dcg5=0.4333333333\n"
    ),
    "logs/ubpr_run000.log": (
        "epoch=1\ttrain_loss=0.8333333333\tval_dcg5=0.4476190476\n"
    ),
    "logs/ubpr_run001.log": (
        "epoch=1\ttrain_loss=0.9444444444\tval_dcg5=0.4476190476\n"
    ),
    "per_run_metrics.tsv": (
        "# config_hash=0123456789abcdef\tbase_seed=3\n"
        "method\trun\tcohort\tmetric\tk\tvalue\n"
        "bpr\t0\tall\tdcg\t5\t0.40000000000000002\n"
        "bpr\t0\tall\tmap\t5\t0.057142857142857148\n"
        "bpr\t0\tall\trecall\t5\t0.13333333333333333\n"
        "bpr\t1\tall\tdcg\t5\t0.43333333333333335\n"
        "bpr\t1\tall\tmap\t5\t0.061904761904761907\n"
        "bpr\t1\tall\trecall\t5\t0.14444444444444446\n"
        "ubpr\t0\tall\tdcg\t5\t0.5\n"
        "ubpr\t0\tall\tmap\t5\t0.071428571428571425\n"
        "ubpr\t0\tall\trecall\t5\t0.16666666666666666\n"
        "ubpr\t1\tall\tdcg\t5\t0.53333333333333333\n"
        "ubpr\t1\tall\tmap\t5\t0.076190476190476183\n"
        "ubpr\t1\tall\trecall\t5\t0.17777777777777778\n"
    ),
    "propensities/theta_click.tsv": (
        "0\t0.01\n"
        "1\t0.70710678118654757\n"
        "2\t0.8660254037844386\n"
        "3\t1\n"
    ),
    "significance.tsv": (
        "# config_hash=0123456789abcdef\n"
        "cohort\tmetric\tk\tmethod\tbest_competitor\tp_value\n"
        "all\tdcg\t5\tbpr\tubpr\t0.974342\n"
        "all\tdcg\t5\tubpr\tbpr\t0.0256584\n"
        "all\tmap\t5\tbpr\tubpr\t0.974342\n"
        "all\tmap\t5\tubpr\tbpr\t0.0256584\n"
        "all\trecall\t5\tbpr\tubpr\t0.974342\n"
        "all\trecall\t5\tubpr\tbpr\t0.0256584\n"
    ),
    "tables.md": (
        "<!-- config_hash=0123456789abcdef -->\n"
        "\n"
        "## Ranking performance (cohort: all)\n"
        "\n"
        "| Method | DCG@5 | RECALL@5 | MAP@5 |\n"
        "|---|---|---|---|\n"
        "| BPR | 0.41667 | 0.13889 | 0.05952 |\n"
        "| UBPR | 0.51667 | 0.17222 | 0.07381 |\n"
    ),
}
# metrics.tsv and train.log of `uplrec train --method bpr` on the same data
TINY_TRAIN_TREE = {
    "metrics.tsv": (
        "method\trun\tcohort\tmetric\tk\tvalue\n"
        "bpr\t0\tall\tdcg\t5\t0.40000000000000002\n"
        "bpr\t0\tall\tmap\t5\t0.057142857142857148\n"
        "bpr\t0\tall\trecall\t5\t0.13333333333333333\n"
    ),
    "train.log": (
        "epoch=1\ttrain_loss=0.9444444444\tval_dcg5=0.3343333333\n"
    ),
}


class TestTableBytes:
    """The bytes of every table an experiment and ``uplrec train`` write,
    on fixed epoch logs and metrics, so a change to a writer shows."""

    def test_experiment_tables(self, tmp_path, monkeypatch):
        monkeypatch.setattr(exp, "train_key", fake_train_key)
        monkeypatch.setattr(exp, "evaluate", fake_evaluate)
        monkeypatch.setattr(exp.ExperimentConfig, "hash", lambda self: "0123456789abcdef")
        cfg_path, out = tmp_path / "exp.cfg", tmp_path / "out"
        cfg_path.write_text(small_config_text(tiny_triplets(tmp_path), out,
                                              methods="wmf,ubpr,bpr", seed=3)
                            + "d_grid = 2\nlambda_grid = 1e-5,0.001\nclip_grid = 0,-0.1\n")
        exp.run_experiment(exp.parse_config_file(cfg_path))
        tree = {name: data.decode() for name, data in tree_bytes(out).items()
                if name != "config_resolved.cfg"}
        assert tree == TINY_EXPERIMENT_TREE

    def test_train_tables(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "train_key", fake_train_key)
        monkeypatch.setattr(cli, "evaluate", fake_evaluate)
        out = tmp_path / "run"
        assert cli.main(["train", "--dataset", str(tiny_triplets(tmp_path)),
                         "--format", "triplets", "--method", "bpr", "--d", "2",
                         "--seed", "4", "--out", str(out)]) == 0
        tree = {name: data.decode() for name, data in tree_bytes(out).items()
                if name != "model.ckpt"}
        assert tree == TINY_TRAIN_TREE


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
        data = exp.prepare_datasets(config.dataset, config.format, seed=config.seed)
        propensities = PropensityTable.from_click_counts(data.train.item_click_counts)
        cohorts = compute_cohorts(data.train)
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
                        exp.make_loss_spec(token, 0.0),
                        propensities, validation=data.validation)
                for rep in evaluate(trained.final_model, data.test, cohorts=cohorts,
                                    candidates=config.candidates, method=token, run=run):
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


# `uplrec verify --world` output at the default seed, pinned byte for byte
LOW_EXPOSURE_MC_STDOUT = """\
world: 1 users x 5 items (5 cells); ideal risk = 3.753739632
  upl: mc mean=3.773627201 var=41.1297 exact=3.753739632
  ubpr: mc mean=4.018351318 var=374.713 exact=3.753739632
  ubpr_clipped: mc mean=7.28907348 var=155.686 exact=7.249904191
  bpr: mc mean=1.032382009 var=3.048 exact=1.029605442
"""
LOW_EXPOSURE_MC_TSV = (
    "estimator\tideal_risk\texact_expectation\tbias\tmc_mean\tmc_variance\tmc_se\t"
    "exact_variance\tsample_count\n"
    "upl\t3.753739632\t3.753739632\t0\t3.773627201\t41.12965655\t0.06413240721\t"
    "41.02393109\t10000\n"
    "ubpr\t3.753739632\t3.753739632\t-4.440892099e-16\t4.018351318\t374.7133013\t"
    "0.1935751279\t390.7325495\t10000\n"
    "ubpr_clipped\t3.753739632\t7.249904191\t3.496164559\t7.28907348\t155.6857118\t"
    "0.1247740806\t155.3640082\t10000\n"
    "bpr\t3.753739632\t1.029605442\t-2.72413419\t1.032382009\t3.047996511\t"
    "0.01745851228\t3.05206021\t10000\n"
)
CLIP_BIAS_EXACT_STDOUT = """\
world: 1 users x 3 items (3 cells); ideal risk = 1.284326616
  upl: exact expectation = 1.284326616 (bias -4.441e-16), exact variance = 2.350071477
  ubpr: exact expectation = 1.284326616 (bias -2.220e-16), exact variance = 7.410719169
  ubpr_clipped: exact expectation = 1.926489925 (bias +6.422e-01), exact variance = 5.287660823
  bpr: exact expectation = 0.9632449623 (bias -3.211e-01), exact variance = 1.321915206
"""


class TestVerifyCli:
    def test_defaults_are_the_suite_defaults(self, monkeypatch):
        # `uplrec verify` runs the suite as verification_suite() would
        suite = inspect.signature(oracle.verification_suite).parameters
        calls = stop_at(monkeypatch, oracle, "verification_suite")
        with pytest.raises(_Stop):
            cli.main(["verify"])
        assert calls == [((), {name: p.default for name, p in suite.items()})]

    def test_bundled_suite_passes(self, capsys):
        rc = cli.main(["verify", "--samples", "10000"])
        captured = capsys.readouterr()
        assert rc == 0
        assert captured.out.count("PASS") == 6
        assert "FAIL" not in captured.out
        assert "verify:" not in captured.out
        assert re.fullmatch(r"verify: 6 checks in \d+\.\d\d s\n", captured.err)

    def test_world_file_exact(self, tmp_path, capsys):
        from uplrec.oracle import random_world
        path = tmp_path / "w.txt"
        write_world_spec(random_world(1, 4, seed=3), path)
        rc = cli.main(["verify", "--world", str(path), "--exact-only"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "ideal risk" in out and "upl" in out

    @pytest.mark.parametrize("world", BUNDLED_WORLDS, ids=lambda p: p.name)
    def test_bundled_world_exact(self, world, capsys):
        # upl and ubpr are unbiased: the printed bias is rounding error
        rc = cli.main(["verify", "--world", str(world), "--exact-only"])
        out = capsys.readouterr().out
        assert rc == 0
        ideal = float(re.search(r"ideal risk = (\S+)", out).group(1))
        for estimator in ("upl", "ubpr"):
            line = next(l for l in out.splitlines() if l.startswith(f"  {estimator}:"))
            bias = float(re.fullmatch(r".*\(bias (\S+)\), exact variance = \S+", line).group(1))
            assert abs(bias) <= 1e-12 * ideal, line

    def test_world_beyond_ten_cells_exact(self, tmp_path, capsys):
        from uplrec.oracle import random_world
        path = tmp_path / "w.txt"
        write_world_spec(random_world(3, 11, seed=3), path)
        assert cli.main(["verify", "--world", str(path), "--exact-only"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("world: 3 users x 11 items (33 cells); ideal risk = ")
        assert out.count("exact expectation = ") == 4

    @pytest.mark.parametrize("text, lineno, message", [
        ("users 1\nitems 3\ntheta\n0.5 0.5 0.5\ngamma\n", 5,
         "file ends before the end of the gamma table"),
        ("users 1\nitems 3\ntheta\n0.5 0.5\ngamma\n0.5 0.5 0.5\n", 4,
         "expected 3 theta values strictly inside (0, 1), got '0.5 0.5'"),
        ("users 1\nitems 3\ntheta\n0.5 1.5 0.5\ngamma\n0.5 0.5 0.5\n", 4,
         "expected 3 theta values strictly inside (0, 1), got '0.5 1.5 0.5'"),
        ("users 1\nitems 2\ntheta\n0.5 0.5\ngamma\n0.5 0.5\n0.5 0.5\nusers 7\n", 7,
         "expected the end of the file after the gamma table, got '0.5 0.5'"),
        ("users \u00b2\nitems 3\n", 1, "expected 'users <positive count>'"),
    ], ids=["truncated", "short_row", "theta_outside_unit_interval", "extra_lines",
            "superscript_users"])
    def test_malformed_world_file_rejected_in_one_line(self, tmp_path, capsys, text, lineno,
                                                       message):
        path = tmp_path / "w.txt"
        path.write_text(text, encoding="utf-8")
        assert cli.main(["verify", "--world", str(path), "--exact-only"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}:{lineno}: {message}\n"

    def test_zero_samples_is_argument_error(self):
        assert cli.main(["verify", "--samples", "0"]) == 2

    @pytest.mark.parametrize("world", [None, "clip_bias.txt"])
    def test_samples_below_floor_rejected_up_front(self, world, capsys, monkeypatch):
        from uplrec import oracle

        def never(*args, **kwargs):
            raise AssertionError("checks ran before --samples was validated")

        monkeypatch.setattr(oracle, "verification_suite", never)
        monkeypatch.setattr(oracle, "estimator_reports", never)
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
        monkeypatch.setattr(oracle, "estimator_reports", never)
        out = tmp_path / "reports.tsv"
        assert cli.main(["verify"] + [a.format(out=out) for a in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == message
        assert not out.exists()

    @pytest.mark.parametrize("world", [[], ["--world", str(WORLDS_DIR / "clip_bias.txt")],
                                       ["--world", str(WORLDS_DIR / "clip_bias.txt"),
                                        "--exact-only"]],
                             ids=["suite", "world", "world_exact"])
    def test_negative_seed_rejected_up_front(self, world, tmp_path, capsys, monkeypatch):
        # the seed also draws the model, so --exact-only takes no negative one
        from uplrec import oracle

        def never(*args, **kwargs):
            raise AssertionError("checks ran before --seed was validated")

        for name in ("verification_suite", "estimator_reports", "parse_world_spec"):
            monkeypatch.setattr(oracle, name, never)
        assert cli.main(["verify", "--seed", "-1", *world]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --seed must be >= 0, got -1\n"

    def test_out_directory_rejected_up_front(self, tmp_path, capsys, monkeypatch):
        from uplrec import oracle

        def never(*args, **kwargs):
            raise AssertionError("checks ran before --out was validated")

        monkeypatch.setattr(oracle, "estimator_reports", never)
        assert cli.main(["verify", "--world", str(WORLDS_DIR / "clip_bias.txt"),
                         "--samples", "10000", "--out", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --out {tmp_path} is a directory\n"

    @pytest.mark.parametrize("world", [[], ["--world", str(WORLDS_DIR / "clip_bias.txt")]],
                             ids=["suite", "world"])
    def test_empty_out_rejected_up_front(self, world, tmp_path, capsys, monkeypatch):
        # an empty --out names no file; it is not the absent --out
        from uplrec import oracle

        def never(*args, **kwargs):
            raise AssertionError("checks ran before --out was checked")

        monkeypatch.setattr(oracle, "verification_suite", never)
        monkeypatch.setattr(oracle, "estimator_reports", never)
        monkeypatch.chdir(tmp_path)
        assert cli.main(["verify", *world, "--samples", "10000", "--out", ""]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --out is empty: name an output file\n"
        assert list(tmp_path.iterdir()) == []

    def test_out_under_a_file_rejected_up_front(self, tmp_path, capsys, monkeypatch):
        from uplrec import oracle

        def never(*args, **kwargs):
            raise AssertionError("checks ran before --out was checked")

        monkeypatch.setattr(oracle, "estimator_reports", never)
        afile = tmp_path / "afile"
        afile.write_text("kept\n")
        assert cli.main(["verify", "--world", str(WORLDS_DIR / "clip_bias.txt"),
                         "--samples", "10000", "--out", str(afile / "r.tsv")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: cannot create directory {afile}: File exists\n"
        assert afile.read_text() == "kept\n"

    def test_world_mc_out_into_missing_directory(self, tmp_path, capsys):
        out = tmp_path / "missing" / "dir" / "r.tsv"
        assert cli.main(["verify", "--world", str(WORLDS_DIR / "clip_bias.txt"),
                         "--samples", "10000", "--out", str(out)]) == 0
        assert capsys.readouterr().out.endswith(f"wrote {out}\n")
        assert out.read_text().startswith("estimator\tideal_risk\t")

    def test_world_mc_output_bytes(self, tmp_path, capsys):
        out = tmp_path / "r.tsv"
        assert cli.main(["verify", "--world", str(WORLDS_DIR / "low_exposure.txt"),
                         "--samples", "10000", "--out", str(out)]) == 0
        assert capsys.readouterr().out == LOW_EXPOSURE_MC_STDOUT + f"wrote {out}\n"
        assert out.read_bytes() == LOW_EXPOSURE_MC_TSV.encode()

    def test_world_exact_output_bytes(self, capsys):
        assert cli.main(["verify", "--world", str(WORLDS_DIR / "clip_bias.txt"),
                         "--exact-only"]) == 0
        assert capsys.readouterr().out == CLIP_BIAS_EXACT_STDOUT

    @pytest.mark.parametrize("mode, draws", [(["--samples", "10000"], 1),
                                             (["--exact-only"], 0)])
    def test_world_run_walks_the_world_once(self, mode, draws, capsys, monkeypatch):
        from uplrec import oracle

        calls = count_calls(monkeypatch, oracle, "sample_clicks", "_pair_losses")
        assert cli.main(["verify", "--world", str(WORLDS_DIR / "low_exposure.txt")]
                        + mode) == 0
        assert calls == {"sample_clicks": draws, "_pair_losses": 1}

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
        assert ("  bpr: exact expectation = 0.9632449623 (bias -3.211e-01), "
                "exact variance = 1.321915206\n") in capsys.readouterr().out

    def test_timing_on_stderr_stdout_unchanged(self, capsys):
        rc = cli.main(["verify", "--world", str(WORLDS_DIR / "clip_bias.txt"),
                       "--exact-only"])
        assert rc == 0
        captured = capsys.readouterr()
        # the unbiased estimators' bias is rounding error, of either sign
        assert re.fullmatch(
            r"world: 1 users x 3 items \(3 cells\); ideal risk = 1\.284326616\n"
            r"  upl: exact expectation = 1\.284326616 \(bias [+-]\d\.\d{3}e[+-]\d\d\), "
            r"exact variance = 2\.350071477\n"
            r"  ubpr: exact expectation = 1\.284326616 \(bias [+-]\d\.\d{3}e[+-]\d\d\), "
            r"exact variance = 7\.410719169\n"
            r"  ubpr_clipped: exact expectation = 1\.926489925 \(bias \+6\.422e-01\), "
            r"exact variance = 5\.287660823\n"
            r"  bpr: exact expectation = 0\.9632449623 \(bias -3\.211e-01\), "
            r"exact variance = 1\.321915206\n",
            captured.out)
        assert re.fullmatch(r"verify: 4 estimators in \d+\.\d\d s\n", captured.err)

