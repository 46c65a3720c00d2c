"""Fast tests of the benchmark itself, at tiny sizes.

Each correctness check must pass on a good output and fire on a corrupted
one; the tracer must nest spans and restore what it wrapped; and the entry
point must refuse to run without the package beside it.
"""
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
from checks import CheckFailed  # noqa: E402
from ganf.metrics import roc_auc  # noqa: E402
from ganf.model import GanfModel  # noqa: E402
from ganf.training import checkpoint_save  # noqa: E402
from spans import Tracer  # noqa: E402


@pytest.fixture(scope="module")
def tiny():
    model = GanfModel(n_series=3, input_dim=2, hidden_dim=4, flow_blocks=2,
                      flow_hidden=4, seed=0)
    rng = np.random.default_rng(0)
    for p in model.parameters().values():
        p.data += rng.normal(size=p.shape) * 0.1
    model.remask_diagonal()
    windows = rng.normal(size=(6, 3, 5, 2))
    totals, per_series = model.score_windows(windows)
    return model, windows, totals, per_series


def test_feasible_dag_accepts_triangular_and_rejects_cycle():
    tri = np.tril(np.full((4, 4), 0.9), k=-1)
    checks.check_feasible_dag(tri, 1e-8)
    cyclic = tri.copy()
    cyclic[0, 3] = 0.9
    with pytest.raises(CheckFailed, match="h\\(A\\)"):
        checks.check_feasible_dag(cyclic, 1e-8)


def test_nilpotency_finds_long_cycle():
    ring = np.roll(np.eye(5), 1, axis=1)
    assert not checks.is_nilpotent(ring)
    assert checks.is_nilpotent(np.triu(ring))


def test_support_threshold_makes_feasible_acyclic():
    # a 5-cycle at exactly the threshold sits at h(A) >= h_tol
    eps = checks.acyclic_support_eps(5, 1e-8)
    ring = np.roll(np.eye(5), 1, axis=1) * eps * 1.001
    assert checks.h_scipy(ring) >= 1e-8


def test_zero_diagonal():
    a = np.zeros((3, 3))
    checks.check_zero_diagonal(a)
    a[1, 1] = 1e-300
    with pytest.raises(CheckFailed):
        checks.check_zero_diagonal(a)


def test_history_checks_fire():
    a = np.array([[0.0, 0.5], [0.0, 0.0]])
    good = [{"kind": "epoch", "train_nll": 3.0, "h": 0.0},
            {"kind": "epoch", "train_nll": 2.0, "h": 0.0},
            {"kind": "final", "h": checks.h_scipy(a), "best_val_log_density": -math.inf}]
    checks.check_history(good, a)
    checks.check_nll_falls(good)
    with pytest.raises(CheckFailed, match="non-finite"):
        checks.check_history([{**good[0], "train_nll": math.nan}] + good[1:], a)
    with pytest.raises(CheckFailed, match="scipy"):
        checks.check_history(good, np.array([[0.0, 0.5], [0.5, 0.0]]))
    with pytest.raises(CheckFailed, match="did not fall"):
        checks.check_nll_falls(good[::-1][1:])


def test_window_labels_cover_changed_steps():
    clean = np.zeros((2, 10, 1))
    dirty = clean.copy()
    dirty[1, 6, 0] = 5.0
    labels = checks.window_labels(clean, dirty, np.arange(7), 4)
    assert labels.tolist() == [0, 0, 0, 1, 1, 1, 1]


def test_rank_auc_matches_roc_and_shuffled_scores_fail():
    rng = np.random.default_rng(1)
    scores = np.round(rng.normal(size=200), 1)      # ties included
    labels = (scores + rng.normal(size=200) > 0.8).astype(int)
    reported = roc_auc(scores, labels.astype(float)).auc
    assert abs(checks.rank_auc(scores, labels) - reported) < 1e-12
    checks.check_auc(reported, scores, labels, floor=0.6)
    with pytest.raises(CheckFailed, match="rank AUC"):
        checks.check_auc(reported, rng.permutation(scores), labels, floor=0.0)
    with pytest.raises(CheckFailed, match="not above"):
        checks.check_auc(reported, scores, labels, floor=0.999)


def test_score_rows_fire_on_missing_row_and_broken_sum(tiny):
    _, windows, totals, per_series = tiny
    starts = np.arange(len(totals))
    checks.check_score_rows(starts, totals, per_series, len(windows))
    with pytest.raises(CheckFailed, match="score rows"):
        checks.check_score_rows(starts[1:], totals[1:], per_series[1:], len(windows))
    broken = per_series.copy()
    broken[2, 1] += 1e-3
    with pytest.raises(CheckFailed, match="per-series"):
        checks.check_score_rows(starts, totals, broken, len(windows))


def test_rescored_windows_fire_on_shuffled_scores(tiny):
    model, windows, totals, per_series = tiny
    rows = np.arange(len(windows))
    checks.check_rescored(model, windows, totals, per_series, rows)
    with pytest.raises(CheckFailed, match="log_density"):
        checks.check_rescored(model, windows, totals[::-1], per_series[::-1], rows)


def test_flow_logdet_fires_on_wrong_density(tiny, monkeypatch):
    model, windows, _, _ = tiny
    cells = [(0, 0), (2, 4)]
    checks.check_flow_logdet(model, windows[0], cells)
    log_prob = model.flow.log_prob
    monkeypatch.setattr(model.flow, "log_prob", lambda x, d: log_prob(x, d) + 0.01)
    with pytest.raises(CheckFailed, match="log\\|det J\\|"):
        checks.check_flow_logdet(model, windows[0], cells)


def test_checkpoint_extra_reads_header(tiny, tmp_path):
    path = tmp_path / "m.ganf"
    checkpoint_save(path, tiny[0], extra={"window_len": 5, "norm_mean": [[0.0]]})
    assert checks.checkpoint_extra(path) == {"window_len": 5, "norm_mean": [[0.0]]}


def test_tracer_nests_spans_and_restores_wrapped():
    class Box:
        @staticmethod
        def inner():
            return 7

    tracer = Tracer()
    original = Box.inner
    tracer.wrap(Box, "inner", "inner")
    with tracer.span("outer"):
        assert Box.inner() == 7
    tracer.unwrap_all()
    assert Box.inner is original
    outer, inner = tracer.spans
    assert inner["parent"] == outer["id"] and outer["parent"] is None
    assert tracer.durations("inner", under="outer") and not tracer.durations("outer", "inner")
    times = tracer.self_times()
    assert times["outer"]["self_s"] <= times["outer"]["total_s"]


def test_entry_point_refuses_without_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fit-default", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
