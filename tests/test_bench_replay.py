"""``perfbench/layers.replay``, run only by ``--trace 1``, is the one caller of
``tensor.concat``, ``Tensor`` iteration and ``encode_dependencies``' list input:
a tiny replay here catches a change to ``src/`` that breaks it, and wrapping
``layers.TARGETS`` catches a traced name that ``src/`` deletes or renames. The
committed ``BENCH_*.json`` measurements are checked for the setting they were
taken in."""
import json
import math
import re
import sys
from pathlib import Path

import numpy as np

sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))

import layers  # noqa: E402
from spans import Tracer  # noqa: E402
from ganf.data import write_series_csv  # noqa: E402
from ganf.model import GanfModel  # noqa: E402


def test_layer_replay_metrics_are_finite(tmp_path):
    model = GanfModel(n_series=3, input_dim=2, hidden_dim=4, flow_blocks=2,
                      flow_hidden=4, seed=0)
    rng = np.random.default_rng(0)
    for p in model.parameters().values():
        p.data += rng.normal(size=p.shape) * 0.1
    model.remask_diagonal()
    csv_path = tmp_path / "series.csv"
    write_series_csv(csv_path, rng.normal(size=(3, 30, 2)))
    metrics = layers.replay(model, rng.normal(size=(4, 3, 5, 2)),
                            rng.normal(size=(10, 3, 5, 2)), 1,
                            tmp_path / "checkpoint.ganf", csv_path)
    assert metrics
    assert {k: v for k, v in metrics.items() if not math.isfinite(v)} == {}


def test_instrument_wraps_every_target_and_unwraps_to_the_original():
    originals = [getattr(owner, attr) for owner, attr, _ in layers.TARGETS]
    tracer = Tracer()
    layers.instrument(tracer)
    try:
        wrapped = [getattr(owner, attr) for owner, attr, _ in layers.TARGETS]
    finally:
        tracer.unwrap_all()
    assert all(w is not o and w.__wrapped__ is o for w, o in zip(wrapped, originals))
    assert [getattr(owner, attr) for owner, attr, _ in layers.TARGETS] == originals


def test_committed_bench_files_record_their_setting():
    """Each measurements file names the CPU count, the BLAS thread count, the
    NumPy version and the parent commit it was measured against."""
    paths = sorted(Path(__file__).resolve().parents[1].glob("BENCH_*.json"))
    assert paths
    for path in paths:
        record = json.loads(path.read_text())
        env, git = record.get("environment", {}), record.get("git", {})
        assert isinstance(env.get("nproc"), int) and env["nproc"] >= 1, path.name
        assert isinstance(env.get("blas_threads"), int) and env["blas_threads"] >= 1, path.name
        assert isinstance(env.get("numpy"), str) and env["numpy"], path.name
        assert re.fullmatch(r"[0-9a-f]{7,40}", str(git.get("parent"))), path.name
