"""``perfbench/layers.replay``, run only by ``--trace 1``, is the one caller of
``tensor.concat``, ``Tensor`` iteration and ``encode_dependencies``' list input:
a tiny replay here catches a change to ``src/`` that breaks it."""
import math
import sys
from pathlib import Path

import numpy as np

sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))

import layers  # noqa: E402
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
