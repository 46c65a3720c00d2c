import json
import math
import os
import re
import subprocess
import sys
import threading
import types
import warnings
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from ganf import cli, parallel
from ganf.cli import main, read_scores_csv
from ganf.data import (WINDOW_SETTINGS, DataError, SynthSpec, load_csv, make_windows,
                       write_csv, write_labels_csv, write_series_csv)
from ganf.encoder import NODE_MAJOR_MIN_N
from ganf.model import GanfModel
from ganf.parallel import blas_threads
from ganf.tensor import GradientTape, NumericError
from ganf.training import TrainConfig, checkpoint_load, checkpoint_save
from test_model import _perturb
from test_training import BAD_TRAIN_SETTINGS, poison_adjacency


@pytest.fixture(scope="module")
def runner():
    return CliRunner()


def _write_spec(path, **kw):
    spec = dict(n_series=2, edge_prob=0.5, window_len=10, stride=10,
                anomaly_rate=0.1)
    spec.update(kw)
    path.write_text(json.dumps(spec))
    return spec


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    runner = CliRunner()
    root = tmp_path_factory.mktemp("synth")
    _write_spec(root / "spec.json")
    res = runner.invoke(main, ["synth", "--spec", str(root / "spec.json"),
                               "--out", str(root / "data"),
                               "--length", "600", "--seed", "0"])
    assert res.exit_code == 0, res.output
    return root / "data"


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory, synth_dir):
    runner = CliRunner()
    out = tmp_path_factory.mktemp("trained")
    cfg = {"data_csv": str(synth_dir / "series.csv"), "window_len": 10,
           "stride": 10, "flow_blocks": 2, "hidden_dim": 4, "flow_hidden": 8,
           "inner_epochs": 1, "max_outer_iters": 1, "batch_size": 8, "seed": 0}
    (out / "config.json").write_text(json.dumps(cfg))
    res = runner.invoke(main, ["train", "--config", str(out / "config.json"),
                               "--out", str(out)])
    assert res.exit_code == 0, res.output
    return out


def test_synth_outputs(runner, synth_dir):
    for name in ("series.csv", "labels.csv", "graph.json", "manifest.json",
                 "resolved_config.json"):
        assert (synth_dir / name).exists(), name
    graph = json.loads((synth_dir / "graph.json").read_text())
    assert graph["n"] == 2


def test_synth_deterministic(runner, tmp_path):
    _write_spec(tmp_path / "spec.json")
    for d in ("a", "b"):
        res = runner.invoke(main, ["synth", "--spec", str(tmp_path / "spec.json"),
                                   "--out", str(tmp_path / d),
                                   "--length", "300", "--seed", "5"])
        assert res.exit_code == 0, res.output
    assert (tmp_path / "a" / "series.csv").read_bytes() == \
        (tmp_path / "b" / "series.csv").read_bytes()


def test_synth_zero_rate_labels(runner, tmp_path):
    _write_spec(tmp_path / "spec.json", anomaly_rate=0.0)
    res = runner.invoke(main, ["synth", "--spec", str(tmp_path / "spec.json"),
                               "--out", str(tmp_path / "out"),
                               "--length", "300", "--seed", "1"])
    assert res.exit_code == 0
    rows = (tmp_path / "out" / "labels.csv").read_text().strip().splitlines()[1:]
    assert all(row.endswith(",0") for row in rows)


def test_synth_cyclic_spec_exit_2(runner, tmp_path):
    _write_spec(tmp_path / "spec.json", adjacency=[[0.0, 1.0], [1.0, 0.0]])
    res = runner.invoke(main, ["synth", "--spec", str(tmp_path / "spec.json"),
                               "--out", str(tmp_path / "out")])
    assert res.exit_code == 2
    assert "cyclic" in res.output


@pytest.mark.parametrize("fields, length", [
    ({}, "-5"),
    ({"n_series": 0}, "50"),
    ({"noise_std": -1}, "50"),
    ({"weight_low": 2, "weight_high": 1}, "50"),
    ({"anomaly_rate": 1.5}, "50"),
    ({"anomaly_rate": -0.5}, "50"),
    ({"stride": 0}, "50"),
    ({"n_attrs": 0}, "50"),
    ({"window_len": 0}, "50"),
    ({"edge_prob": 1.5}, "50"),
    ({"adjacency": [[0.0, float("nan")], [0.0, 0.0]]}, "50"),
    ({"anomaly_type": "dip", "anomaly_rate": 0.0}, "50"),
], ids=["length", "n_series", "noise_std", "weights", "rate_high", "rate_low", "stride",
        "n_attrs", "window_len", "edge_prob", "adjacency_nan", "anomaly_type"])
def test_synth_malformed_spec_exit_2(runner, tmp_path, fields, length):
    _write_spec(tmp_path / "spec.json", **fields)
    res = runner.invoke(main, ["synth", "--spec", str(tmp_path / "spec.json"),
                               "--out", str(tmp_path / "out"), "--length", length])
    assert res.exit_code == 2, res.output
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("seed", ["-1", "-12"])
def test_synth_negative_seed_exit_2(runner, tmp_path, seed):
    _write_spec(tmp_path / "spec.json")
    res = runner.invoke(main, ["synth", "--spec", str(tmp_path / "spec.json"),
                               "--out", str(tmp_path / "out"), "--seed", seed])
    assert res.exit_code == 2, res.output
    assert "--seed" in res.output
    assert not (tmp_path / "out").exists()


def test_module_entry_point(tmp_path):
    """``python -m ganf.cli`` runs the command group."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}

    def run(*args):
        return subprocess.run([sys.executable, "-m", "ganf.cli", *args], cwd=tmp_path,
                              env=env, capture_output=True, text=True, timeout=120)

    helped = run("--help")
    assert helped.returncode == 0, helped.stderr
    assert "Usage:" in helped.stdout and "synth" in helped.stdout
    bare = run("synth")
    assert bare.returncode == 2
    assert "Missing option" in bare.stderr


def test_train_outputs(trained_dir):
    for name in ("checkpoint.ganf", "history.jsonl", "resolved_config.json"):
        assert (trained_dir / name).exists(), name
    history = [json.loads(l) for l in
               (trained_dir / "history.jsonl").read_text().splitlines()]
    assert [r["kind"] for r in history] == ["epoch", "outer", "final"]


def test_train_missing_data_path_exit_2(runner, tmp_path):
    (tmp_path / "config.json").write_text(json.dumps({"data_csv": "/nope.csv"}))
    res = runner.invoke(main, ["train", "--config", str(tmp_path / "config.json"),
                               "--out", str(tmp_path / "out")])
    assert res.exit_code == 2
    assert "data_csv" in res.output


def test_train_no_graph_mode_h_zero(runner, synth_dir, tmp_path):
    cfg = {"data_csv": str(synth_dir / "series.csv"), "window_len": 10,
           "stride": 10, "flow_blocks": 2, "hidden_dim": 4, "flow_hidden": 8,
           "inner_epochs": 1, "max_outer_iters": 1, "batch_size": 8, "seed": 0}
    (tmp_path / "config.json").write_text(json.dumps(cfg))
    res = runner.invoke(main, ["train", "--config", str(tmp_path / "config.json"),
                               "--mode", "no-graph", "--out", str(tmp_path)])
    assert res.exit_code == 0, res.output
    history = [json.loads(l) for l in
               (tmp_path / "history.jsonl").read_text().splitlines()]
    assert all(r["h"] == 0.0 for r in history if r["kind"] == "epoch")


def test_score_outputs_and_consistency(runner, synth_dir, trained_dir, tmp_path):
    res = runner.invoke(main, ["score", "--checkpoint",
                               str(trained_dir / "checkpoint.ganf"),
                               "--data", str(synth_dir / "series.csv"),
                               "--stride", "10", "--out", str(tmp_path)])
    assert res.exit_code == 0, res.output
    starts, scores, per_series = read_scores_csv(tmp_path / "scores.csv")
    assert len(starts) == 60
    np.testing.assert_allclose(per_series.sum(axis=1), scores, atol=1e-10)

    # library-level cross-check on the first window
    from ganf import data as dat
    model = checkpoint_load(trained_dir / "checkpoint.ganf")
    extra = model.checkpoint_extra
    series, _, _ = dat.load_csv(synth_dir / "series.csv")
    mean = np.asarray(extra["norm_mean"])
    std = np.asarray(extra["norm_std"])
    series = (series - mean[:, None, :]) / std[:, None, :]
    want = model.anomaly_score(series[:, :10, :])
    assert abs(scores[0] - want) < 1e-10


def test_score_rerun_identical(runner, synth_dir, trained_dir, tmp_path):
    outs = []
    for d in ("x", "y"):
        res = runner.invoke(main, ["score", "--checkpoint",
                                   str(trained_dir / "checkpoint.ganf"),
                                   "--data", str(synth_dir / "series.csv"),
                                   "--stride", "10",
                                   "--out", str(tmp_path / d)])
        assert res.exit_code == 0
        outs.append((tmp_path / d / "scores.csv").read_bytes())
    assert outs[0] == outs[1]


def test_score_shape_mismatch_names_adjacency(runner, trained_dir, tmp_path):
    bad = tmp_path / "bad.csv"
    rows = ["timestamp,entity,attr_1"]
    for t in range(30):
        for e in ("a", "b", "c"):
            rows.append(f"{t},{e},0.5")
    bad.write_text("\n".join(rows))
    res = runner.invoke(main, ["score", "--checkpoint",
                               str(trained_dir / "checkpoint.ganf"),
                               "--data", str(bad), "--out", str(tmp_path / "o")])
    assert res.exit_code == 1
    assert "'A'" in res.output and "n=3" in res.output
    assert not (tmp_path / "o" / "resolved_config.json").exists()


@pytest.mark.parametrize("flag,value", [("--stride", "0"), ("--window-len", "0"),
                                        ("--stride", "-3"), ("--window-len", "-1")])
def test_score_nonpositive_window_setting_exit_2(runner, synth_dir, trained_dir,
                                                 tmp_path, flag, value):
    res = runner.invoke(main, ["score", "--checkpoint",
                               str(trained_dir / "checkpoint.ganf"),
                               "--data", str(synth_dir / "series.csv"),
                               flag, value, "--out", str(tmp_path / "s")])
    assert res.exit_code == 2, res.output
    assert flag in res.output
    assert not (tmp_path / "s" / "resolved_config.json").exists()


def _train_config(synth_dir, **kw):
    cfg = {"data_csv": str(synth_dir / "series.csv"), "window_len": 10,
           "stride": 10, "flow_blocks": 2, "hidden_dim": 4, "flow_hidden": 8,
           "inner_epochs": 1, "max_outer_iters": 1, "batch_size": 8, "seed": 0}
    cfg.update(kw)
    return cfg


@pytest.mark.parametrize("flag,value", [("--stride", "0"), ("--window-len", "0"),
                                        ("--stride", "-3"), ("--window-len", "-1")])
def test_train_nonpositive_window_flag_exit_2(runner, synth_dir, tmp_path, flag, value):
    (tmp_path / "config.json").write_text(json.dumps(_train_config(synth_dir)))
    res = runner.invoke(main, ["train", "--config", str(tmp_path / "config.json"),
                               flag, value, "--out", str(tmp_path / "t")])
    assert res.exit_code == 2, res.output
    assert flag in res.output
    assert not (tmp_path / "t" / "resolved_config.json").exists()


@pytest.mark.parametrize("key,value", [("stride", 0), ("window_len", 0),
                                       ("stride", -2), ("window_len", -5)])
def test_train_nonpositive_window_config_exit_2(runner, synth_dir, tmp_path, key, value):
    (tmp_path / "config.json").write_text(json.dumps(_train_config(synth_dir, **{key: value})))
    res = runner.invoke(main, ["train", "--config", str(tmp_path / "config.json"),
                               "--out", str(tmp_path / "t")])
    assert res.exit_code == 2, res.output
    assert key in res.output
    assert not (tmp_path / "t" / "resolved_config.json").exists()


@pytest.mark.parametrize("key,value", [
    ("hidden_dim", 0), ("hidden_dim", -2), ("hidden_dim", 2.5), ("hidden_dim", True),
    ("flow_hidden", 0), ("flow_blocks", -1), ("batch_size", 2.5), ("inner_epochs", 1.5),
    ("seed", -1), ("seed", 1.5), ("mode", "bogus"), ("flow_type", "bogus"),
    ("clip_mode", "bogus")])
def test_train_out_of_range_model_config_exit_2(runner, synth_dir, tmp_path, key, value):
    (tmp_path / "config.json").write_text(json.dumps(_train_config(synth_dir, **{key: value})))
    res = runner.invoke(main, ["train", "--config", str(tmp_path / "config.json"),
                               "--out", str(tmp_path / "t")])
    assert res.exit_code == 2, res.output
    assert key in res.output
    assert not (tmp_path / "t" / "resolved_config.json").exists()


@pytest.mark.parametrize("key,value", [
    ("window_len", "abc"), ("stride", "x"), ("train_frac", "x"), ("val_frac", None),
    ("gap_limit", [5])])
def test_train_non_numeric_window_config_exit_2(runner, synth_dir, tmp_path, key, value):
    (tmp_path / "config.json").write_text(json.dumps(_train_config(synth_dir, **{key: value})))
    res = runner.invoke(main, ["train", "--config", str(tmp_path / "config.json"),
                               "--out", str(tmp_path / "t")])
    assert res.exit_code == 2, res.output
    assert f"bad config: {key} must be" in res.output
    assert not (tmp_path / "t" / "resolved_config.json").exists()


# every key a ganf train config may hold
_CONFIG_KEYS = {"data_csv", *WINDOW_SETTINGS, *TrainConfig.__dataclass_fields__}


@pytest.mark.parametrize("key,value", BAD_TRAIN_SETTINGS + [
    ("window_len", 20.9), ("window_len", True), ("window_len", "10"), ("window_len", math.nan),
    ("stride", math.inf), ("stride", 2.0), ("gap_limit", -4), ("gap_limit", True),
    ("gap_limit", 5.5), ("train_frac", math.nan), ("train_frac", "0.6"),
    ("val_frac", math.inf), ("val_frac", -math.inf), ("val_frac", False), ("data_csv", 3),
    ("inner_epoch", 2),
])
def test_train_bad_config_setting_exit_2_naming_it(runner, synth_dir, tmp_path, key, value):
    (tmp_path / "config.json").write_text(json.dumps(_train_config(synth_dir, **{key: value})))
    res = runner.invoke(main, ["train", "--config", str(tmp_path / "config.json"),
                               "--out", str(tmp_path / "t")])
    assert res.exit_code == 2, res.output
    assert f"{key} must be" in res.output or f"'{key}'" in res.output, res.output
    assert not (tmp_path / "t").exists()


def test_train_echo_holds_every_setting_and_retrains_the_same_checkpoint(runner, synth_dir,
                                                                         tmp_path):
    (tmp_path / "config.json").write_text(json.dumps(_train_config(synth_dir)))
    res = runner.invoke(main, ["train", "--config", str(tmp_path / "config.json"),
                               "--out", str(tmp_path / "a")])
    assert res.exit_code == 0, res.output
    echoed = json.loads((tmp_path / "a" / "resolved_config.json").read_text())
    settings = {k: v for k, v in echoed.items() if k not in ("command", "blas_threads")}
    assert settings.keys() == _CONFIG_KEYS and len(settings) == 23
    (tmp_path / "echo.json").write_text(json.dumps(settings))
    res = runner.invoke(main, ["train", "--config", str(tmp_path / "echo.json"),
                               "--out", str(tmp_path / "b")])
    assert res.exit_code == 0, res.output
    assert (tmp_path / "b" / "checkpoint.ganf").read_bytes() == \
        (tmp_path / "a" / "checkpoint.ganf").read_bytes()


def test_readme_train_table_names_every_accepted_key():
    readme = (Path(cli.__file__).resolve().parents[2] / "README.md").read_text()
    table = readme.split("The training fields and their valid ranges:")[1].split("\n\n")[1]
    named = {name for row in table.splitlines()[2:]
             for name in re.findall(r"`(\w+)`", row.split("|")[1])}
    assert named == _CONFIG_KEYS


def test_train_no_training_windows_exit_2(runner, synth_dir, tmp_path):
    (tmp_path / "config.json").write_text(json.dumps(_train_config(synth_dir, train_frac=0.0)))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = runner.invoke(main, ["train", "--config", str(tmp_path / "config.json"),
                                   "--out", str(tmp_path / "t")])
    assert res.exit_code == 2, res.output
    assert "no training windows" in res.output
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


_BAD_ROWS = {
    "non-numeric value": "3,node0,abc",
    "too few columns": "3,node0",
    "too many columns": "3,node0,1.0,2.0",
}


def _corrupt_csv(synth_dir, tmp_path, bad_row):
    """The synthetic series with its fifth data line replaced by ``bad_row``."""
    lines = (synth_dir / "series.csv").read_text().splitlines()
    lines[5] = bad_row
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.mark.parametrize("case", sorted(_BAD_ROWS))
def test_train_malformed_csv_exit_2(runner, synth_dir, tmp_path, case):
    path = _corrupt_csv(synth_dir, tmp_path, _BAD_ROWS[case])
    cfg = {**_train_config(synth_dir), "data_csv": str(path)}
    (tmp_path / "config.json").write_text(json.dumps(cfg))
    res = runner.invoke(main, ["train", "--config", str(tmp_path / "config.json"),
                               "--out", str(tmp_path / "t")])
    assert res.exit_code == 2, res.output
    assert "bad.csv" in res.output and "line 6" in res.output


@pytest.mark.parametrize("case", sorted(_BAD_ROWS))
def test_score_malformed_csv_exit_2(runner, synth_dir, trained_dir, tmp_path, case):
    path = _corrupt_csv(synth_dir, tmp_path, _BAD_ROWS[case])
    res = runner.invoke(main, ["score", "--checkpoint",
                               str(trained_dir / "checkpoint.ganf"),
                               "--data", str(path), "--out", str(tmp_path / "s")])
    assert res.exit_code == 2, res.output
    assert "bad.csv" in res.output and "line 6" in res.output
    assert not (tmp_path / "s" / "resolved_config.json").exists()


def test_eval_hard_labels(runner, synth_dir, trained_dir, tmp_path):
    res = runner.invoke(main, ["score", "--checkpoint",
                               str(trained_dir / "checkpoint.ganf"),
                               "--data", str(synth_dir / "series.csv"),
                               "--stride", "10", "--out", str(tmp_path / "s")])
    assert res.exit_code == 0
    res = runner.invoke(main, ["eval", "--scores", str(tmp_path / "s" / "scores.csv"),
                               "--labels", str(synth_dir / "labels.csv"),
                               "--hard", "--out", str(tmp_path / "e")])
    assert res.exit_code == 0, res.output
    report = json.loads((tmp_path / "e" / "metrics.json").read_text())
    assert 0.0 <= report["auc"] <= 1.0
    assert (tmp_path / "e" / "histogram.csv").exists()

    # must match the library computation
    from ganf.metrics import roc_auc
    from ganf.data import read_labels_csv
    starts, scores, _ = read_scores_csv(tmp_path / "s" / "scores.csv")
    lstarts, labels = read_labels_csv(synth_dir / "labels.csv")
    by_start = dict(zip(lstarts.tolist(), labels.tolist()))
    want = roc_auc(scores, np.array([by_start[s] for s in starts.tolist()])).auc
    assert report["auc"] == want


def test_eval_smoothed_sigma_default(runner, synth_dir, trained_dir, tmp_path):
    res = runner.invoke(main, ["score", "--checkpoint",
                               str(trained_dir / "checkpoint.ganf"),
                               "--data", str(synth_dir / "series.csv"),
                               "--stride", "10", "--out", str(tmp_path / "s")])
    assert res.exit_code == 0
    res = runner.invoke(main, ["eval", "--scores", str(tmp_path / "s" / "scores.csv"),
                               "--labels", str(synth_dir / "labels.csv"),
                               "--smooth", "--out", str(tmp_path / "e")])
    assert res.exit_code == 0, res.output
    echoed = json.loads((tmp_path / "e" / "resolved_config.json").read_text())
    assert echoed["sigma"] == 6.0


def test_eval_degenerate_labels_exit_1(runner, tmp_path):
    (tmp_path / "scores.csv").write_text(
        "window_start,score\n0,1.0\n10,2.0\n")
    (tmp_path / "labels.csv").write_text(
        "window_start,label\n0,0\n10,0\n")
    res = runner.invoke(main, ["eval", "--scores", str(tmp_path / "scores.csv"),
                               "--labels", str(tmp_path / "labels.csv"),
                               "--hard", "--out", str(tmp_path / "e")])
    assert res.exit_code == 1
    assert "degenerate" in res.output


@pytest.mark.parametrize("empty", ["scores", "labels"])
def test_eval_empty_input_file_exit_2(runner, tmp_path, empty):
    (tmp_path / "scores.csv").write_text("window_start,score\n0,1.0\n10,2.0\n")
    (tmp_path / "labels.csv").write_text("window_start,label\n0,0\n10,1\n")
    (tmp_path / f"{empty}.csv").write_text("")
    res = runner.invoke(main, ["eval", "--scores", str(tmp_path / "scores.csv"),
                               "--labels", str(tmp_path / "labels.csv"),
                               "--hard", "--out", str(tmp_path / "e")])
    assert res.exit_code == 2, res.output
    assert f"{empty}.csv" in res.output


@pytest.mark.parametrize("name,text", [
    ("scores", "window_start,score\nx,2.0\n"),
    ("scores", "window_start,score\n0\n"),
    ("scores", "window_start,score,s0\n0,1.0,oops\n"),
    ("labels", "window_start,label\n0,yes\n"),
    ("labels", "window_start,label\n0\n"),
    ("labels", "window_start,label\n0,2\n")])
def test_eval_malformed_file_exit_2(runner, tmp_path, name, text):
    (tmp_path / "scores.csv").write_text("window_start,score\n0,1.0\n10,2.0\n")
    (tmp_path / "labels.csv").write_text("window_start,label\n0,0\n10,1\n")
    (tmp_path / f"{name}.csv").write_text(text)
    res = runner.invoke(main, ["eval", "--scores", str(tmp_path / "scores.csv"),
                               "--labels", str(tmp_path / "labels.csv"),
                               "--hard", "--out", str(tmp_path / "e")])
    assert res.exit_code == 2, res.output
    assert f"{name}.csv: line 2" in res.output
    assert not (tmp_path / "e" / "resolved_config.json").exists()


@pytest.mark.parametrize("name", ["scores", "labels"])
def test_eval_repeated_window_start_exit_2(runner, tmp_path, name):
    """A file that gives one window twice is a data error naming both lines,
    not a label or score silently kept over the other."""
    (tmp_path / "scores.csv").write_text("window_start,score\n0,1.0\n10,2.0\n")
    (tmp_path / "labels.csv").write_text("window_start,label\n0,0\n10,1\n")
    (tmp_path / f"{name}.csv").write_text(f"window_start,{name[:-1]}\n0,0\n0,1\n10,1\n")
    res = runner.invoke(main, ["eval", "--scores", str(tmp_path / "scores.csv"),
                               "--labels", str(tmp_path / "labels.csv"),
                               "--hard", "--out", str(tmp_path / "e")])
    assert res.exit_code == 2, res.output
    assert f"{name}.csv: lines 2 and 3 both have window_start 0" in res.output
    assert not (tmp_path / "e").exists()


@pytest.mark.parametrize("name,value,mode", [("scores", "nan", "--hard"),
                                             ("scores", "-inf", "--smooth"),
                                             ("labels", "nan", "--hard"),
                                             ("labels", "nan", "--smooth")])
def test_eval_non_finite_value_exit_2(runner, tmp_path, name, value, mode):
    """A nan or inf score or label is a data error naming its file and line:
    not a histogram traceback, a NaN AUC in metrics.json or a dropped label."""
    (tmp_path / "scores.csv").write_text("window_start,score\n0,1.0\n10,2.0\n")
    (tmp_path / "labels.csv").write_text("window_start,label\n0,0\n10,1\n")
    (tmp_path / f"{name}.csv").write_text(f"window_start,{name[:-1]}\n0,1\n10,{value}\n")
    res = runner.invoke(main, ["eval", "--scores", str(tmp_path / "scores.csv"),
                               "--labels", str(tmp_path / "labels.csv"),
                               mode, "--out", str(tmp_path / "e")])
    assert res.exit_code == 2, res.output
    assert f"{name}.csv: line 3: non-finite value" in res.output
    assert not (tmp_path / "e").exists()


@pytest.mark.parametrize("args", [["--bins", "0"], ["--bins", "-3"],
                                  ["--sigma", "0"], ["--sigma", "-1"], ["--sigma", "nan"],
                                  ["--sigma", "inf"]])
def test_eval_malformed_option_exit_2(runner, tmp_path, args):
    (tmp_path / "scores.csv").write_text("window_start,score\n0,1.0\n10,2.0\n")
    (tmp_path / "labels.csv").write_text("window_start,label\n0,0\n10,1\n")
    res = runner.invoke(main, ["eval", "--scores", str(tmp_path / "scores.csv"),
                               "--labels", str(tmp_path / "labels.csv"),
                               "--smooth", *args, "--out", str(tmp_path / "e")])
    assert res.exit_code == 2, res.output
    assert args[0] in res.output
    assert not (tmp_path / "e").exists()


_score_cell = st.one_of(st.text(max_size=6), st.floats().map(repr),
                        st.integers(-10**20, 10**20).map(str))


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.text(),
    st.lists(st.lists(_score_cell, min_size=1, max_size=4), max_size=6).map(
        lambda rows: "\n".join(["window_start,score,s0"] + [",".join(r) for r in rows]))))
def test_read_scores_csv_raises_only_data_error(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("fuzz") / "scores.csv"
    path.write_bytes(text.encode("utf-8", "surrogatepass"))
    try:
        starts, scores, per_series = read_scores_csv(path)
    except DataError:
        return
    assert scores.shape == starts.shape and per_series.shape == (len(starts), 1)


def test_read_scores_csv_empty_raises_data_error(tmp_path):
    (tmp_path / "scores.csv").write_text("")
    with pytest.raises(DataError):
        read_scores_csv(tmp_path / "scores.csv")


def test_export_graph_single(runner, trained_dir, tmp_path):
    res = runner.invoke(main, ["export-graph", str(trained_dir / "checkpoint.ganf"),
                               "--epsilon", "0.01", "--out", str(tmp_path)])
    assert res.exit_code == 0, res.output
    graph = json.loads((tmp_path / "graph.json").read_text())
    assert "acyclic" in graph
    dot = (tmp_path / "graph.dot").read_text()
    assert dot.startswith("digraph")


def test_export_graph_huge_epsilon_empty(runner, trained_dir, tmp_path):
    res = runner.invoke(main, ["export-graph", str(trained_dir / "checkpoint.ganf"),
                               "--epsilon", "1e9", "--out", str(tmp_path)])
    assert res.exit_code == 0
    graph = json.loads((tmp_path / "graph.json").read_text())
    assert graph["edges"] == [] and graph["acyclic"]


@pytest.mark.parametrize("epsilon", ["0", "-1", "nan", "inf", "-inf"])
def test_export_graph_malformed_epsilon_exit_2(runner, trained_dir, tmp_path, epsilon):
    res = runner.invoke(main, ["export-graph", str(trained_dir / "checkpoint.ganf"),
                               "--epsilon", epsilon, "--out", str(tmp_path / "g")])
    assert res.exit_code == 2, res.output
    assert "--epsilon" in res.output
    assert not (tmp_path / "g").exists()


def test_export_graph_truncated_second_checkpoint_writes_nothing(runner, trained_dir,
                                                                  tmp_path):
    ckpt = trained_dir / "checkpoint.ganf"
    truncated = tmp_path / "truncated.ganf"
    truncated.write_bytes(ckpt.read_bytes()[:-40])
    out = tmp_path / "g"
    out.mkdir()
    res = runner.invoke(main, ["export-graph", str(ckpt), str(truncated), "--out", str(out)])
    assert res.exit_code == 1, res.output
    assert "truncated.ganf" in res.output
    assert list(out.iterdir()) == []


def test_export_graph_different_series_counts_exit_2_writing_nothing(runner, tmp_path):
    paths = []
    for n in (3, 5):
        model = GanfModel(n_series=n, input_dim=1, hidden_dim=4, flow_blocks=2, flow_hidden=4)
        model.adjacency.data[:] = 0.5
        model.remask_diagonal()
        paths.append(str(tmp_path / f"n{n}.ganf"))
        checkpoint_save(paths[-1], model)
    res = runner.invoke(main, ["export-graph", *paths, "--out", str(tmp_path / "g")])
    assert res.exit_code == 2, res.output
    assert "n3.ganf has n = 3" in res.output and "n5.ganf has n = 5" in res.output
    assert not (tmp_path / "g").exists()


def _input_args(trained_dir, synth_dir, tmp_path):
    """Each command with valid inputs: (command, {flag: path}, other arguments)."""
    ckpt, series = trained_dir / "checkpoint.ganf", synth_dir / "series.csv"
    scores = tmp_path / "scores.csv"
    scores.write_text("window_start,score\n0,1.0\n10,2.0\n")
    config, spec = tmp_path / "config.json", tmp_path / "spec.json"
    config.write_text(json.dumps(_train_config(synth_dir)))
    _write_spec(spec)
    return {
        "score": ({"--checkpoint": ckpt, "--data": series}, []),
        "eval": ({"--scores": scores, "--labels": synth_dir / "labels.csv"}, ["--hard"]),
        "export-graph": ({"CHECKPOINTS": ckpt}, []),
        "train": ({"--config": config}, []),
        "synth": ({"--spec": spec}, []),
    }


@pytest.mark.parametrize("flag", ["score --checkpoint", "score --data", "eval --scores",
                                  "eval --labels", "export-graph CHECKPOINTS",
                                  "train --config", "synth --spec"])
@pytest.mark.parametrize("bad", ["missing", "directory"])
def test_input_path_missing_or_a_directory_exit_2(runner, trained_dir, synth_dir, tmp_path,
                                                  flag, bad):
    command, name = flag.split()
    inputs, rest = _input_args(trained_dir, synth_dir, tmp_path)[command]
    inputs[name] = tmp_path / "nowhere.csv"
    if bad == "directory":
        inputs[name].mkdir()
    args = [command, *rest, "--out", str(tmp_path / "out")]
    for key, path in inputs.items():
        args += [str(path)] if key == "CHECKPOINTS" else [key, str(path)]
    res = runner.invoke(main, args)
    assert res.exit_code == 2, res.output
    assert name in res.output
    assert ("is a directory" if bad == "directory" else "does not exist") in res.output
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["train", "synth"])
@pytest.mark.parametrize("content", [b'{"data_csv": "\xff.csv"}', b"[1, 2]", b"[" * 100_000],
                         ids=["not-utf8", "a-list", "nested"])
def test_json_input_unreadable_or_not_an_object_exit_2(runner, tmp_path, command, content):
    path = tmp_path / "input.json"
    path.write_bytes(content)
    flag = {"train": "--config", "synth": "--spec"}[command]
    res = runner.invoke(main, [command, flag, str(path), "--out", str(tmp_path / "out")])
    assert res.exit_code == 2, res.output
    assert str(path) in res.output
    assert not (tmp_path / "out").exists()


def test_train_data_csv_a_directory_exit_2(runner, synth_dir, tmp_path):
    (tmp_path / "data").mkdir()
    (tmp_path / "config.json").write_text(json.dumps(
        _train_config(synth_dir, data_csv=str(tmp_path / "data"))))
    res = runner.invoke(main, ["train", "--config", str(tmp_path / "config.json"),
                               "--out", str(tmp_path / "t")])
    assert res.exit_code == 2, res.output
    assert "data_csv" in res.output and "Is a directory" in res.output
    assert not (tmp_path / "t").exists()


@pytest.mark.parametrize("key,value", [("window_len", 7.9), ("window_len", True),
                                       ("window_len", "abc"), ("gap_limit", -4)])
def test_score_bad_header_window_setting_exit_1(runner, synth_dir, tmp_path, key, value):
    checkpoint_save(tmp_path / "bad.ganf", GanfModel(n_series=2, input_dim=1, hidden_dim=4,
                                                     flow_blocks=2, flow_hidden=8),
                    extra={key: value})
    res = runner.invoke(main, ["score", "--checkpoint", str(tmp_path / "bad.ganf"),
                               "--data", str(synth_dir / "series.csv"),
                               "--out", str(tmp_path / "s")])
    assert res.exit_code == 1, res.output
    assert f"unusable config: {key} must be" in res.output
    assert not (tmp_path / "s").exists()


def test_export_graph_multiple_writes_weight_matrix(runner, trained_dir, tmp_path):
    ckpt = str(trained_dir / "checkpoint.ganf")
    res = runner.invoke(main, ["export-graph", ckpt, ckpt,
                               "--epsilon", "0.01", "--out", str(tmp_path)])
    assert res.exit_code == 0
    rows = (tmp_path / "edge_weights.csv").read_text().strip().splitlines()
    assert len(rows) == 3  # header + one row per checkpoint


def test_bench_single_cell(runner, tmp_path):
    res = runner.invoke(main, ["bench", "--grid", "3,8", "--iters", "2",
                               "--out", str(tmp_path)])
    assert res.exit_code == 0, res.output
    rows = (tmp_path / "bench.csv").read_text().strip().splitlines()
    assert rows[0] == "n,T,seconds_per_iter"
    assert len(rows) == 2


def test_bench_bad_grid_exit_2(runner, tmp_path):
    res = runner.invoke(main, ["bench", "--grid", "oops",
                               "--out", str(tmp_path)])
    assert res.exit_code == 2


@pytest.mark.parametrize("args", [["--iters", "0"], ["--batch", "0"], ["--hidden", "0"],
                                  ["--attrs", "0"], ["--batch", "-2"],
                                  ["--grid", "0,20"], ["--grid", "4,0"],
                                  ["--grid", "3,8;4,-1"]])
def test_bench_nonpositive_size_exit_2(runner, tmp_path, args):
    res = runner.invoke(main, ["bench", *args, "--out", str(tmp_path)])
    assert res.exit_code == 2, res.output
    assert not (tmp_path / "resolved_config.json").exists()


@pytest.mark.parametrize("seed", ["-1", "-12"])
def test_bench_negative_seed_exit_2(runner, tmp_path, seed):
    res = runner.invoke(main, ["bench", "--grid", "2,4", "--iters", "1", "--seed", seed,
                               "--out", str(tmp_path)])
    assert res.exit_code == 2, res.output
    assert "--seed" in res.output
    assert not (tmp_path / "resolved_config.json").exists()


def test_bench_iteration_times_train_step_on_the_nll_alone(monkeypatch):
    calls = []
    step = cli.train_step

    def counted(model, batch, optimizer, lr, config, lagrangian=None):
        calls.append(lagrangian)
        return step(model, batch, optimizer, lr, config, lagrangian)

    monkeypatch.setattr(cli, "train_step", counted)
    cli.bench_iteration(3, 4, batch=2, attrs=1, hidden=4, iters=3, seed=0)
    assert calls == [None] * 4


def test_bench_records_blas_threads(runner, tmp_path, blas_at_three):
    res = runner.invoke(main, ["bench", "--grid", "2,4", "--iters", "1",
                               "--out", str(tmp_path)])
    assert res.exit_code == 0, res.output
    assert json.loads((tmp_path / "resolved_config.json").read_text())["blas_threads"] == 3


# Every table is written by data.write_csv: csv's "\r\n" line ends, and each
# float as its shortest round-trip repr, here 0.1, -0.0, 1e-300 and 1e16.

def _series_table(runner, trained_dir, tmp_path, monkeypatch):
    write_series_csv(tmp_path / "series.csv",
                     np.array([[[0.1, -0.0]], [[1e-300, 1e16]]]), ["a", "b"])
    return tmp_path / "series.csv", ["timestamp,entity,attr_1,attr_2",
                                     "0,a,0.1,-0.0", "0,b,1e-300,1e+16"]


def _labels_table(runner, trained_dir, tmp_path, monkeypatch):
    write_labels_csv(tmp_path / "labels.csv", np.array([0, 5]), np.array([0, 1]))
    return tmp_path / "labels.csv", ["window_start,label", "0,0", "5,1"]


def _scores_table(runner, trained_dir, tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_score_parallel", lambda model, windows, workers: (
        np.array([0.1, 1e16]), np.array([[-0.0, 1e-300], [1e16, 0.1]]),
        {"workers": 1, "blas_threads": 1, "batch_windows": 2}))
    data = tmp_path / "data.csv"
    write_series_csv(data, np.zeros((2, 600, 1)), ["node0", "node1"])
    res = runner.invoke(main, ["score", "--checkpoint", str(trained_dir / "checkpoint.ganf"),
                               "--data", str(data), "--stride", "300", "--out", str(tmp_path)])
    assert res.exit_code == 0, res.output
    return tmp_path / "scores.csv", ["window_start,score,series_0,series_1",
                                     "0,0.1,-0.0,1e-300", "300,1e+16,1e+16,0.1"]


def _histogram_table(runner, trained_dir, tmp_path, monkeypatch):
    monkeypatch.setattr(cli.met, "density_histogram", lambda scores, bins: (
        np.array([3, 0, 1]), np.array([-0.0, 1e-300, 0.1, 1e16])))
    (tmp_path / "scores.csv").write_text("window_start,score\n0,1.0\n1,2.0\n")
    (tmp_path / "labels.csv").write_text("window_start,label\n0,0\n1,1\n")
    res = runner.invoke(main, ["eval", "--scores", str(tmp_path / "scores.csv"),
                               "--labels", str(tmp_path / "labels.csv"), "--out", str(tmp_path)])
    assert res.exit_code == 0, res.output
    return tmp_path / "histogram.csv", ["bin_lo,bin_hi,count", "-0.0,1e-300,3",
                                        "1e-300,0.1,0", "0.1,1e+16,1"]


def _edge_weights_table(runner, trained_dir, tmp_path, monkeypatch):
    adjacency = {"0.ganf": [[0.0, 0.1], [1e16, 0.0]], "1.ganf": [[0.0, -0.0], [1e-300, 0.0]]}
    monkeypatch.setattr(cli, "checkpoint_load", lambda path: types.SimpleNamespace(
        adjacency=types.SimpleNamespace(data=np.array(adjacency[Path(path).name]))))
    for name in adjacency:
        (tmp_path / name).touch()
    res = runner.invoke(main, ["export-graph", str(tmp_path / "0.ganf"), str(tmp_path / "1.ganf"),
                               "--out", str(tmp_path)])
    assert res.exit_code == 0, res.output
    return tmp_path / "edge_weights.csv", ["checkpoint,0->1,1->0", "0,1e+16,0.1",
                                           "1,1e-300,-0.0"]


def _bench_table(runner, trained_dir, tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "bench_iteration", lambda n, *rest: {2: 0.1, 3: 1e16}[n])
    res = runner.invoke(main, ["bench", "--grid", "2,4;3,5", "--out", str(tmp_path)])
    assert res.exit_code == 0, res.output
    return tmp_path / "bench.csv", ["n,T,seconds_per_iter", "2,4,0.1", "3,5,1e+16"]


def _numpy_cells_table(runner, trained_dir, tmp_path, monkeypatch):
    write_csv(tmp_path / "t.csv", ["f", "z", "tiny", "big", "i"],
              [[np.float64(0.1), np.float64(-0.0), np.float64(1e-300), np.float64(1e16),
                np.int64(7)]])
    return tmp_path / "t.csv", ["f,z,tiny,big,i", "0.1,-0.0,1e-300,1e+16,7"]


@pytest.mark.parametrize("table", [_series_table, _labels_table, _scores_table,
                                   _histogram_table, _edge_weights_table, _bench_table,
                                   _numpy_cells_table], ids=lambda f: f.__name__[1:-6])
def test_every_table_writes_floats_as_their_shortest_repr(runner, trained_dir, tmp_path,
                                                          monkeypatch, table):
    path, lines = table(runner, trained_dir, tmp_path, monkeypatch)
    assert path.read_bytes() == "".join(line + "\r\n" for line in lines).encode()


def test_train_records_blas_threads(runner, synth_dir, tmp_path, blas_at_three):
    (tmp_path / "config.json").write_text(json.dumps(_train_config(synth_dir)))
    res = runner.invoke(main, ["train", "--config", str(tmp_path / "config.json"),
                               "--out", str(tmp_path / "t")])
    assert res.exit_code == 0, res.output
    echoed = json.loads((tmp_path / "t" / "resolved_config.json").read_text())
    assert echoed["blas_threads"] == 3


def test_train_non_finite_adjacency_exit_1(runner, synth_dir, tmp_path, monkeypatch):
    poison_adjacency(monkeypatch, np.inf)
    (tmp_path / "config.json").write_text(json.dumps(_train_config(synth_dir)))
    res = runner.invoke(main, ["train", "--config", str(tmp_path / "config.json"),
                               "--out", str(tmp_path / "t")])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert "error: numeric failure at epoch 0" in res.output
    assert not (tmp_path / "t" / "checkpoint.ganf").exists()


def test_train_abort_writes_the_history_so_far(runner, synth_dir, tmp_path, monkeypatch):
    poison_adjacency(monkeypatch, np.inf, epoch=1)
    (tmp_path / "config.json").write_text(json.dumps(_train_config(synth_dir, inner_epochs=2)))
    res = runner.invoke(main, ["train", "--config", str(tmp_path / "config.json"),
                               "--out", str(tmp_path / "t")])
    assert res.exit_code == 1
    assert "error: numeric failure at epoch 1" in res.output
    assert "best_arrays" not in res.output
    history = (tmp_path / "t" / "history.jsonl").read_text().splitlines()
    assert [(r["kind"], r["epoch"]) for r in map(json.loads, history)] == [("epoch", 0)]
    assert not (tmp_path / "t" / "checkpoint.ganf").exists()


def test_train_overlapping_split_exit_2(runner, synth_dir, tmp_path):
    cfg = _train_config(synth_dir, train_frac=-0.2, val_frac=0.5)
    (tmp_path / "config.json").write_text(json.dumps(cfg))
    res = runner.invoke(main, ["train", "--config", str(tmp_path / "config.json"),
                               "--out", str(tmp_path / "t")])
    assert res.exit_code == 2, res.output
    assert "overlap the test windows" in res.output
    assert not (tmp_path / "t" / "checkpoint.ganf").exists()
    assert not (tmp_path / "t" / "resolved_config.json").exists()


def _entity_csv(path, entities, gap_entity=None):
    """60 steps of readings per entity; ``gap_entity`` misses steps 20-26, a 7-step gap."""
    rng = np.random.default_rng(31)
    rows = ["timestamp,entity,attr_1"]
    for e in entities:
        rows += [f"{t},{e},{rng.normal()!r}" for t in range(60)
                 if e != gap_entity or not 20 <= t < 27]
    path.write_text("\n".join(rows) + "\n")
    return path


@pytest.fixture(scope="module")
def gap_trained(tmp_path_factory):
    """A checkpoint trained with gap_limit 10 on entities a, b and c, where b has a gap."""
    root = tmp_path_factory.mktemp("gap")
    _entity_csv(root / "series.csv", ["a", "b", "c"], gap_entity="b")
    (root / "config.json").write_text(json.dumps(_train_config(root, gap_limit=10)))
    res = CliRunner().invoke(main, ["train", "--config", str(root / "config.json"),
                                    "--out", str(root / "t")])
    assert res.exit_code == 0, res.output
    return root


def test_score_reads_with_the_checkpoints_gap_limit(runner, gap_trained, tmp_path):
    res = runner.invoke(main, ["score", "--checkpoint", str(gap_trained / "t" / "checkpoint.ganf"),
                               "--data", str(gap_trained / "series.csv"),
                               "--out", str(tmp_path / "s")])
    assert res.exit_code == 0, res.output
    starts, totals, _ = read_scores_csv(tmp_path / "s" / "scores.csv")
    assert starts.size == 51 and np.all(np.isfinite(totals))


def test_score_other_entities_exit_1(runner, gap_trained, tmp_path):
    other = _entity_csv(tmp_path / "other.csv", ["b", "c", "zz"])
    res = runner.invoke(main, ["score", "--checkpoint", str(gap_trained / "t" / "checkpoint.ganf"),
                               "--data", str(other), "--out", str(tmp_path / "s")])
    assert res.exit_code == 1, res.output
    assert "data has entity 'b' where the checkpoint was trained on 'a'" in res.output
    assert not (tmp_path / "s" / "scores.csv").exists()


def test_threads_env_validation(runner, synth_dir, trained_dir, tmp_path, monkeypatch):
    (tmp_path / "config.json").write_text(json.dumps(_train_config(synth_dir)))
    commands = {
        "score": ["score", "--checkpoint", str(trained_dir / "checkpoint.ganf"),
                  "--data", str(synth_dir / "series.csv"), "--out", str(tmp_path / "s")],
        "train": ["train", "--config", str(tmp_path / "config.json"),
                  "--out", str(tmp_path / "t")],
    }
    for raw in ("banana", "0", "-2"):
        monkeypatch.setenv("GANF_THREADS", raw)
        for name, args in commands.items():
            res = runner.invoke(main, args)
            assert res.exit_code == 2, (raw, name, res.output)
            assert "GANF_THREADS" in res.output, (raw, name)
    assert not (tmp_path / "t" / "checkpoint.ganf").exists()
    assert not (tmp_path / "s" / "scores.csv").exists()


def test_parallel_scoring_matches_serial(runner, synth_dir, trained_dir,
                                         tmp_path, monkeypatch):
    """591 stride-1 windows make ten batches, so 2 and 4 workers both run a pool."""
    outs = []
    for workers in ("1", "2", "4"):
        monkeypatch.setenv("GANF_THREADS", workers)
        res = runner.invoke(main, ["score", "--checkpoint",
                                   str(trained_dir / "checkpoint.ganf"),
                                   "--data", str(synth_dir / "series.csv"),
                                   "--out", str(tmp_path / workers)])
        assert res.exit_code == 0, res.output
        summary = json.loads((tmp_path / workers / "summary.json").read_text())
        assert summary["workers"] == int(workers)
        outs.append((tmp_path / workers / "scores.csv").read_bytes())
    assert outs[0] == outs[1] == outs[2]


def _score_inputs(trained_dir, count=300):
    """A model and ``count`` windows; the default 300 make five batches of 64."""
    model = checkpoint_load(trained_dir / "checkpoint.ganf")
    rng = np.random.default_rng(0)
    return model, rng.normal(size=(count, model.n_series, 10, model.input_dim))


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_score_parallel_restores_blas_threads(trained_dir, blas_at_three):
    model, windows = _score_inputs(trained_dir)
    _, _, record = cli._score_parallel(model, windows, 2)
    assert record["blas_threads"] == 1
    assert blas_threads() == blas_at_three
    windows[7, 0, 3, 0] = np.inf
    with pytest.raises(NumericError):
        cli._score_parallel(model, windows, 2)
    assert blas_threads() == blas_at_three


def test_concurrent_score_parallel_calls_restore_blas_threads(trained_dir, blas_at_three):
    model, windows = _score_inputs(trained_dir)
    want = model.score_windows(windows, workers=1)[0]
    results = []

    def score():
        for _ in range(5):
            results.append(cli._score_parallel(model, windows, 3)[0])

    callers = [threading.Thread(target=score) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    assert len(results) == 20
    assert all(np.array_equal(r, want) for r in results)
    assert blas_threads() == blas_at_three


def test_score_parallel_without_openblas(trained_dir, monkeypatch):
    model, windows = _score_inputs(trained_dir)
    want_totals, want_per_series = model.score_windows(windows, workers=1)
    monkeypatch.setattr(parallel, "_openblas", lambda: None)
    totals, per_series, record = cli._score_parallel(model, windows, 2)
    assert record["blas_threads"] is None
    np.testing.assert_array_equal(totals, want_totals)
    np.testing.assert_array_equal(per_series, want_per_series)


def test_score_records_threads_and_throughput(runner, synth_dir, trained_dir, tmp_path,
                                              monkeypatch, blas_at_three):
    """summary.json and the echoed config record the threads that ran and BLAS's count.

    Stride 100 leaves 6 windows, one batch, so the serial loop runs with
    BLAS's own count; stride 1 leaves 591 windows, ten batches of 60 or
    fewer, for a pool.
    """
    model = checkpoint_load(trained_dir / "checkpoint.ganf")
    assert (model.score_batch_size(6, 10), model.score_batch_size(591, 10)) == (6, 60)
    monkeypatch.setenv("GANF_THREADS", "2")
    for stride, n_windows, want_workers, want_blas in ((100, 6, 1, blas_at_three),
                                                       (1, 591, 2, 1)):
        out = tmp_path / str(stride)
        res = runner.invoke(main, ["score", "--checkpoint",
                                   str(trained_dir / "checkpoint.ganf"),
                                   "--data", str(synth_dir / "series.csv"),
                                   "--stride", str(stride), "--out", str(out)])
        assert res.exit_code == 0, res.output
        assert blas_threads() == blas_at_three
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary) == {"n_windows", "windows_per_s", "workers", "blas_threads",
                                "batch_windows"}
        assert summary["n_windows"] == n_windows
        assert summary["windows_per_s"] > 0
        assert summary["workers"] == want_workers
        assert summary["blas_threads"] == want_blas
        assert summary["batch_windows"] == model.score_batch_size(n_windows, 10)
        echoed = json.loads((out / "resolved_config.json").read_text())
        assert echoed["workers"] == want_workers
        assert echoed["blas_threads"] == want_blas
        assert echoed["batch_windows"] == summary["batch_windows"]


def test_score_pools_on_a_wide_graph(runner, tmp_path, monkeypatch):
    """At n = 64, T = 20 and width 32 a batch holds 5 windows, so 21 windows pool."""
    model = GanfModel(n_series=64, input_dim=1, hidden_dim=32, flow_blocks=2,
                      flow_hidden=32, seed=0)
    checkpoint_save(tmp_path / "wide.ganf", model, extra={"window_len": 20})
    write_series_csv(tmp_path / "wide.csv",
                     np.random.default_rng(0).normal(size=(64, 40, 1)))
    monkeypatch.setenv("GANF_THREADS", "2")
    res = runner.invoke(main, ["score", "--checkpoint", str(tmp_path / "wide.ganf"),
                               "--data", str(tmp_path / "wide.csv"),
                               "--out", str(tmp_path / "s")])
    assert res.exit_code == 0, res.output
    summary = json.loads((tmp_path / "s" / "summary.json").read_text())
    assert summary["n_windows"] == 21
    assert summary["batch_windows"] == model.score_batch_size(21, 20) == 5
    assert summary["workers"] == 2


def test_score_wide_graph_matches_taped_scores_at_any_thread_count(runner, tmp_path,
                                                                   monkeypatch):
    """At n >= NODE_MAJOR_MIN_N ``ganf score`` aggregates node-major, with the taped bytes.

    30 steps of 10-step windows make 21 windows in four batches of 6, so two
    threads pool. Each run writes the same bytes, and the scores equal those
    of a pass under a tape, which aggregates batch-major. Every weight is
    perturbed: an untrained flow's zero output layer would ignore the
    aggregation.
    """
    n = NODE_MAJOR_MIN_N
    model = _perturb(GanfModel(n_series=n, input_dim=1, hidden_dim=8, flow_blocks=1,
                               flow_hidden=8, seed=0))
    model.adjacency.data += np.random.default_rng(1).normal(size=(n, n)) / n
    model.remask_diagonal()
    checkpoint_save(tmp_path / "wide.ganf", model, extra={"window_len": 10})
    write_series_csv(tmp_path / "wide.csv",
                     np.random.default_rng(2).normal(size=(n, 30, 1)))
    assert model.score_batch_size(21, 10) == 6
    for threads in ("1", "2"):
        monkeypatch.setenv("GANF_THREADS", threads)
        res = runner.invoke(main, ["score", "--checkpoint", str(tmp_path / "wide.ganf"),
                                   "--data", str(tmp_path / "wide.csv"),
                                   "--out", str(tmp_path / threads)])
        assert res.exit_code == 0, res.output
        summary = json.loads((tmp_path / threads / "summary.json").read_text())
        assert (summary["n_windows"], summary["workers"]) == (21, int(threads))
    assert (tmp_path / "1" / "scores.csv").read_bytes() == \
        (tmp_path / "2" / "scores.csv").read_bytes()
    windows, _ = make_windows(load_csv(tmp_path / "wide.csv")[0], 10, 1)
    with GradientTape():
        per_series = -model.per_step_log_prob(windows).data.sum(axis=2)
    _, totals, got_per_series = read_scores_csv(tmp_path / "1" / "scores.csv")
    np.testing.assert_array_equal(got_per_series, per_series)
    np.testing.assert_array_equal(totals, per_series.sum(axis=1))


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("value", [np.inf, 1e200])
def test_score_non_finite_reading_fails_without_warnings(runner, synth_dir, trained_dir,
                                                         tmp_path, monkeypatch,
                                                         value, threads):
    """Exit 1 naming the first window over the bad step, and no NumPy warning first.

    591 windows make ten batches, so at two threads a pool thread scores too.
    """
    series, _, _ = load_csv(synth_dir / "series.csv")
    series[1, 400, 0] = value
    write_series_csv(tmp_path / "bad.csv", series)
    monkeypatch.setenv("GANF_THREADS", threads)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = runner.invoke(main, ["score", "--checkpoint",
                                   str(trained_dir / "checkpoint.ganf"),
                                   "--data", str(tmp_path / "bad.csv"),
                                   "--out", str(tmp_path / "s")])
    assert res.exit_code == 1, res.output
    assert "non-finite log-density in window 391," in res.output
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
