import hashlib
import json
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ganf.dag
from ganf.dag import augmented_lagrangian
from ganf.data import (DataError, SynthSpec, make_windows, normalize, split_windows,
                       synth_generate)
from ganf.model import GanfModel
from ganf.tensor import GradientTape, NumericError, Tensor
import ganf.training
from ganf.training import (Adam, CheckpointError, TrainConfig, TrainingAbort, TrainState,
                           _config_hash, checkpoint_load, checkpoint_save,
                           clip_gradients, inner_optimize, train, train_step)
from ganf.dag import LagrangianState
from conftest import traced_held, traced_peak


def _tiny_split(seed=0, n=2, length=400, window=10):
    spec = SynthSpec(n_series=n, edge_prob=0.5, window_len=window, stride=window)
    series, _ = synth_generate(spec, length, seed=seed)
    windows, starts = make_windows(series, window, window)
    return normalize(split_windows(windows, starts))


def _tiny_config(**kw):
    defaults = dict(flow_blocks=2, hidden_dim=4, flow_hidden=8, batch_size=8,
                    inner_epochs=2, max_outer_iters=2, seed=0)
    defaults.update(kw)
    return TrainConfig(**defaults)


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(gamma=1.5)
    with pytest.raises(ValueError):
        TrainConfig(eta=0.5)
    with pytest.raises(ValueError):
        TrainConfig(lr=-1.0)
    with pytest.raises(ValueError):
        TrainConfig(inner_epochs=0)


# (field, value) pairs each TrainConfig field rule refuses: NaN, +-inf, a
# bool, a float for an int, a numeric string and an unknown choice
BAD_TRAIN_SETTINGS = [
    ("lr", math.nan), ("lr", math.inf), ("lr", "0.001"), ("eta", math.inf), ("eta", math.nan),
    ("h_tol", math.nan), ("h_tol", -math.inf), ("grad_clip", math.nan), ("grad_clip", math.inf),
    ("lr_decay", math.nan), ("lr_decay", math.inf), ("gamma", math.nan), ("gamma", True),
    ("hidden_dim", 32.0), ("hidden_dim", True), ("flow_blocks", "2"), ("flow_hidden", math.inf),
    ("batch_size", 8.5), ("inner_epochs", math.nan), ("max_outer_iters", False),
    ("plateau_patience", "3"), ("seed", 0.0), ("mode", True), ("flow_type", "MAF"),
    ("clip_mode", None),
]


@pytest.mark.parametrize("key,value", BAD_TRAIN_SETTINGS)
def test_train_config_rejects_a_bad_setting_naming_it(key, value):
    with pytest.raises(DataError, match=f"^{key} must be "):
        TrainConfig(**{key: value})


def test_train_config_rejects_an_unknown_key_naming_it():
    with pytest.raises(TypeError, match="'inner_epoch'"):
        TrainConfig(inner_epoch=2)


def test_clip_global_norm():
    # gradient of norm 10 with clip 1.0 must be scaled by 0.1
    p = Tensor(np.zeros(4), requires_grad=True)
    p.grad = np.full(4, 5.0)            # norm 10
    norm = clip_gradients({"p": p}, 1.0, "global")
    assert abs(norm - 10.0) < 1e-12
    np.testing.assert_allclose(p.grad, np.full(4, 0.5))


def test_clip_noop_below_threshold():
    p = Tensor(np.zeros(2), requires_grad=True)
    p.grad = np.array([0.3, 0.4])       # norm 0.5
    clip_gradients({"p": p}, 1.0, "global")
    np.testing.assert_array_equal(p.grad, [0.3, 0.4])


def test_clip_elementwise():
    p = Tensor(np.zeros(3), requires_grad=True)
    p.grad = np.array([-5.0, 0.5, 2.0])
    clip_gradients({"p": p}, 1.0, "elementwise")
    np.testing.assert_array_equal(p.grad, [-1.0, 0.5, 1.0])


@pytest.mark.parametrize("mode", ["bogus", "Global", None])
def test_clip_unknown_mode_raises_before_scaling(mode):
    p = Tensor(np.zeros(4), requires_grad=True)
    p.grad = np.full(4, 5.0)            # norm 10, above the clip
    with pytest.raises(DataError, match="clip_mode must be one of"):
        clip_gradients({"p": p}, 1.0, mode)
    np.testing.assert_array_equal(p.grad, np.full(4, 5.0))


def test_adam_moment_shapes_mirror_parameters():
    rng = np.random.default_rng(0)
    params = {"w": Tensor(rng.normal(size=(3, 2)), requires_grad=True),
              "b": Tensor(rng.normal(size=(2,)), requires_grad=True)}
    for p in params.values():
        p.grad = np.ones(p.shape)
    opt = Adam()
    opt.step(params, 1e-3)
    for name, p in params.items():
        assert opt.m[name].shape == p.shape
        assert opt.v[name].shape == p.shape


def test_unconstrained_training_reduces_nll():
    split = _tiny_split()
    config = _tiny_config(mode="no-graph", inner_epochs=5, max_outer_iters=1)
    model = GanfModel(n_series=2, input_dim=1, hidden_dim=4, flow_blocks=2,
                      flow_hidden=8, mode="no-graph", seed=0)
    state = TrainState(model=model, lagrangian=LagrangianState(lam=0.0, c=0.0),
                       optimizer=Adam(), lr=config.lr)
    rng = np.random.default_rng(0)
    inner_optimize(state, split.train[:10], split.validation, config, rng)
    epochs = [r for r in state.history if r["kind"] == "epoch"]
    assert epochs[-1]["train_nll"] <= epochs[0]["train_nll"] * 1.05


_TIMING_KEYS = {"wall_s", "windows_per_s"}


def test_training_determinism():
    split = _tiny_split()
    config = _tiny_config()
    _, a1, h1 = train(split.train, split.validation, config)
    _, a2, h2 = train(split.train, split.validation, config)
    np.testing.assert_array_equal(a1, a2)
    # wall-clock telemetry is the only part of a record that may differ
    untimed = lambda h: [{k: v for k, v in r.items() if k not in _TIMING_KEYS} for r in h]
    assert json.dumps(untimed(h1)) == json.dumps(untimed(h2))


def test_single_node_exits_immediately():
    split = _tiny_split(n=1)
    config = _tiny_config(max_outer_iters=20)
    _, adjacency, history = train(split.train, split.validation, config)
    outers = [r for r in history if r["kind"] == "outer"]
    assert len(outers) == 1
    assert history[-1]["converged"]
    assert adjacency.shape == (1, 1) and adjacency[0, 0] == 0.0


def test_no_training_windows_raises_data_error():
    split = _tiny_split()
    with pytest.raises(DataError, match="no training windows"):
        train(split.train[:0], split.validation, _tiny_config())


def test_default_training_step_records_few_ops():
    # the LSTM unroll, the aggregation and the flow stack are one op each
    model = GanfModel(n_series=5, input_dim=1)
    x = np.random.default_rng(0).normal(size=(32, 5, 20, 1))
    with GradientTape() as tape:
        augmented_lagrangian(model.batch_nll(x), model.adjacency,
                             LagrangianState(lam=1.0, c=1.0))
    assert len(tape) <= 30


def test_wide_constrained_step_frees_activations_and_expm_workspace_in_time():
    """One taped step with the augmented Lagrangian at n = 512 (B = 16, T = 4,
    hidden 8, 2 flow blocks) peaks under 50 MB (42.2 MB): h(A) is recorded
    before the forward pass, so the workspace of e^{A o A} (about 27 MB) never
    sits on the activations, and the replay frees each layer's activations as
    it goes. Without the first the step peaks at 59.5 MB, without the second
    at 55.9 MB; with a masked copy of A in the forward pass and the previous
    step's gradients kept, at 44.3 MB."""
    n, b = 512, 16
    config = TrainConfig(hidden_dim=8, flow_hidden=8, flow_blocks=2, batch_size=b)
    model = GanfModel(n_series=n, input_dim=1, hidden_dim=8, flow_blocks=2, flow_hidden=8)
    batch = np.random.default_rng(3).normal(size=(b, n, 4, 1))
    optimizer, lagrangian = Adam(), LagrangianState(lam=0.5, c=2.0)
    train_step(model, batch, optimizer, 1e-3, config, lagrangian)   # Adam's moments exist
    _, peak = traced_peak(lambda: train_step(model, batch, optimizer, 1e-3, config, lagrangian))
    assert peak < 50e6, f"peak {peak / 1e6:.1f} MB"


def test_trained_wide_model_holds_one_copy_of_the_adjacency(monkeypatch):
    """At n = 256 what ``train`` returns holds about one n x n array (A,
    512 KiB): no off-diagonal mask, no gradient of the last step and no
    second copy of A beside the model (four arrays, 2 MiB, before)."""
    n = 256
    rng = np.random.default_rng(4)
    windows = rng.normal(size=(24, n, 4, 1))
    config = TrainConfig(hidden_dim=4, flow_hidden=4, flow_blocks=1, batch_size=8,
                         inner_epochs=1, max_outer_iters=1)
    monkeypatch.setattr(ganf.dag, "_last_exp", None)

    def run():
        out = train(windows[:16], windows[16:], config)
        ganf.dag._last_exp = None    # the exponential cache is not the model's
        return out

    (model, adjacency, _), held = traced_held(run)
    assert held < 1.5 * n * n * 8, f"held {held / 2**20:.2f} MiB"
    assert adjacency is model.adjacency.data


def test_no_gradient_outlives_its_step():
    split = _tiny_split()
    model, adjacency, _ = train(split.train, split.validation, _tiny_config())
    assert adjacency is model.adjacency.data
    assert all(p.grad is None for p in model.parameters().values())
    batch = split.train[:4]
    for lagrangian in (None, LagrangianState(lam=1.0, c=1.0)):
        train_step(model, batch, Adam(), 1e-3, TrainConfig(), lagrangian)
        assert all(p.grad is None for p in model.parameters().values())


def test_history_bookkeeping():
    split = _tiny_split()
    config = _tiny_config(max_outer_iters=4, inner_epochs=2)
    _, _, history = train(split.train, split.validation, config)
    outers = [r for r in history if r["kind"] == "outer"]
    cs = [r["c"] for r in outers]
    assert all(b >= a for a, b in zip(cs, cs[1:]))
    for a, b in zip(cs, cs[1:]):
        assert b == a or b == 10.0 * a or (a == 0.0 and b == 1.0)
    # stall rule: c grows exactly when |h_k| > gamma * |h_{k-1}|
    for prev, cur in zip(outers, outers[1:]):
        stalled = abs(cur["h"]) > config.gamma * abs(prev["h"])
        if stalled:
            assert cur["c"] > prev["c"]
        else:
            assert cur["c"] == prev["c"]
    epochs = [r for r in history if r["kind"] == "epoch"]
    for r in epochs:
        for key in ("train_nll", "h", "lambda", "c", "val_log_density"):
            assert key in r


def test_loss_decreases_within_outer():
    split = _tiny_split()
    config = _tiny_config(max_outer_iters=2, inner_epochs=4)
    _, _, history = train(split.train, split.validation, config)
    epochs = [r for r in history if r["kind"] == "epoch"]
    per_outer: dict[int, list] = {}
    for r in epochs:
        per_outer.setdefault(r["outer"], []).append(r["train_loss"])
    for outer, losses in per_outer.items():
        assert losses[-1] <= losses[0] * 1.05, outer


def test_budget_exhaustion_warning():
    split = _tiny_split()
    config = _tiny_config(max_outer_iters=2, inner_epochs=1)
    _, _, history = train(split.train, split.validation, config)
    final = history[-1]
    if not final["converged"]:
        assert "outer budget exhausted" in final["warning"]
        assert final["h"] >= 0


def test_lr_decay_recorded():
    split = _tiny_split()
    # one epoch per validation check and patience 3: any 3-epoch plateau decays
    config = _tiny_config(max_outer_iters=1, inner_epochs=12, lr_decay=0.1)
    _, _, history = train(split.train, split.validation, config)
    decays = [r for r in history if "lr_decayed_to" in r]
    lrs = [r["lr"] for r in history if r["kind"] == "epoch"]
    if decays:
        assert decays[0]["lr_decayed_to"] == pytest.approx(lrs[0] * 0.1)


def test_checkpoint_round_trip(tmp_path):
    split = _tiny_split()
    model, _, _ = train(split.train, split.validation, _tiny_config())
    path = tmp_path / "model.ganf"
    checkpoint_save(path, model, extra={"note": 1})
    again = checkpoint_load(path)
    w = split.validation[0]
    assert again.log_density(w).total == model.log_density(w).total


def test_checkpoint_truncation(tmp_path):
    split = _tiny_split()
    model, _, _ = train(split.train, split.validation, _tiny_config())
    path = tmp_path / "model.ganf"
    checkpoint_save(path, model)
    blob = path.read_bytes()
    for cut in (4, 10, len(blob) // 2, len(blob) - 3):
        bad = tmp_path / "bad.ganf"
        bad.write_bytes(blob[:cut])
        with pytest.raises(CheckpointError):
            checkpoint_load(bad)


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "junk.ganf"
    path.write_bytes(b"NOTAMODEL" + b"\x00" * 64)
    with pytest.raises(CheckpointError, match="magic"):
        checkpoint_load(path)


def _forge(path, header, payload: bytes, version: int = 2):
    """A checkpoint file from a header (dict or raw bytes) and array payload.

    A version-2 file gets the digest of its bytes, so only the header or
    payload can be at fault.
    """
    blob = header if isinstance(header, bytes) else json.dumps(header).encode()
    body = b"GANFCKPT" + struct.pack("<II", version, len(blob)) + blob + payload
    path.write_bytes(body + (hashlib.sha256(body).digest() if version == 2 else b""))
    return path


def _small_model() -> GanfModel:
    return GanfModel(n_series=2, input_dim=1, hidden_dim=4, flow_blocks=2, flow_hidden=8)


def _saved_parts(path) -> tuple[dict, bytes]:
    """(header, array payload) of a version-2 checkpoint."""
    blob = path.read_bytes()
    _, blob_len = struct.unpack("<II", blob[8:16])
    return json.loads(blob[16:16 + blob_len]), blob[16 + blob_len:-32]


def test_checkpoint_shape_mismatch_names_array(tmp_path):
    split = _tiny_split(n=2)
    model, _, _ = train(split.train, split.validation, _tiny_config())
    path = tmp_path / "model.ganf"
    checkpoint_save(path, model)
    # forge the header, with a matching hash and digest, so the adjacency claims n=3
    header, payload = _saved_parts(path)
    header["config"]["n_series"] = 3
    header["config_hash"] = _config_hash(header["config"])
    bad = _forge(tmp_path / "forged.ganf", header, payload)
    with pytest.raises(CheckpointError, match="'A'"):
        checkpoint_load(bad)


def test_checkpoint_version_1_still_loads(tmp_path):
    model = _small_model()
    checkpoint_save(tmp_path / "v2.ganf", model, extra={"note": 1})
    header, payload = _saved_parts(tmp_path / "v2.ganf")
    again = checkpoint_load(_forge(tmp_path / "v1.ganf", header, payload, version=1))
    assert again.checkpoint_extra == {"note": 1}
    for name, value in model.all_arrays().items():
        np.testing.assert_array_equal(again.all_arrays()[name], value)


def _without(key):
    return lambda header, payload: ({k: v for k, v in header.items() if k != key}, payload)


@pytest.mark.parametrize("forge,message", [
    (lambda header, payload: (b"{not json", payload), "not JSON"),
    (_without("config"), "lacks 'config' or 'arrays'"),
    (_without("arrays"), "lacks 'config' or 'arrays'"),
    (lambda header, payload: (header, payload + b"\0" * 8), "8 trailing bytes"),
    (lambda header, payload: ({**header, "config_hash": "0" * 16}, payload), "config_hash"),
    # version 1 has no digest, so the parser itself meets the nested header
    (lambda header, payload: (b"[" * 100_000, payload, 1), "header is not JSON"),
])
def test_checkpoint_malformed_contents_raise_checkpoint_error(tmp_path, forge, message):
    """``forge`` maps (header, payload) to the forged file's (header, payload[, version])."""
    checkpoint_save(tmp_path / "good.ganf", _small_model())
    bad = _forge(tmp_path / "bad.ganf", *forge(*_saved_parts(tmp_path / "good.ganf")))
    with pytest.raises(CheckpointError, match=message):
        checkpoint_load(bad)


@pytest.mark.parametrize("part,key,value", [
    ("config", "hidden_dim", 0), ("config", "hidden_dim", math.nan),
    ("config", "n_series", math.inf), ("config", "input_dim", -math.inf),
    ("config", "flow_blocks", 2.0), ("config", "seed", True), ("config", "flow_hidden", "8"),
    ("config", "mode", "bogus"), ("config", "bogus", 1),
    ("extra", "window_len", 7.9), ("extra", "window_len", True), ("extra", "window_len", "abc"),
    ("extra", "gap_limit", -4), ("extra", "gap_limit", math.nan), ("extra", "stride", math.inf),
    ("extra", "train_frac", -math.inf), ("extra", "val_frac", "0.2"),
])
def test_checkpoint_header_bad_setting_raises_checkpoint_error(tmp_path, part, key, value):
    """A header config or window setting that breaks its rule, in a file whose
    ``config_hash`` and digest both match, is a CheckpointError naming it."""
    checkpoint_save(tmp_path / "good.ganf", _small_model(), extra={"window_len": 10})
    header, payload = _saved_parts(tmp_path / "good.ganf")
    header[part][key] = value
    header["config_hash"] = _config_hash(header["config"])
    with pytest.raises(CheckpointError, match=f"unusable config: .*{key}"):
        checkpoint_load(_forge(tmp_path / "bad.ganf", header, payload))


def test_checkpoint_flipped_payload_byte_fails_digest(tmp_path):
    path = tmp_path / "model.ganf"
    checkpoint_save(path, _small_model())
    blob = bytearray(path.read_bytes())
    blob[-40] ^= 0x01       # the last array's last byte, inside the digested bytes
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="SHA-256"):
        checkpoint_load(path)


_corruption = st.one_of(
    st.tuples(st.just("flip"), st.integers(0, 10**9), st.integers(1, 255)),
    st.tuples(st.just("truncate"), st.integers(0, 10**9)),
    st.tuples(st.just("append"), st.binary(min_size=1, max_size=40)))


@settings(max_examples=200, deadline=None)
@given(_corruption)
def test_corrupted_checkpoint_raises_only_checkpoint_error(tmp_path_factory, corruption):
    path = tmp_path_factory.mktemp("ckpt") / "model.ganf"
    checkpoint_save(path, _small_model())
    blob = bytearray(path.read_bytes())
    kind, *args = corruption
    if kind == "flip":
        blob[args[0] % len(blob)] ^= args[1]
    elif kind == "truncate":
        del blob[args[0] % len(blob):]
    else:
        blob += args[0]
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError):
        checkpoint_load(path)


# the keys each history record kind carries (README lists them); an epoch
# record may also carry ``lr_decayed_to``
_RECORD_KEYS = {
    "epoch": {"kind", "outer", "epoch", "train_loss", "train_nll", "val_log_density", "lr",
              "h", "lambda", "c", "grad_norm", "wall_s", "windows_per_s"},
    "outer": {"kind", "outer", "h", "lambda", "c", "wall_s"},
    "final": {"kind", "converged", "warning", "h", "best_val_log_density"},
}


def test_history_records_carry_documented_keys():
    split = _tiny_split()
    _, _, history = train(split.train, split.validation, _tiny_config(inner_epochs=4))
    assert {r["kind"] for r in history} == set(_RECORD_KEYS)
    for record in history:
        assert set(record) - {"lr_decayed_to"} == _RECORD_KEYS[record["kind"]]
        for key in ("grad_norm", "wall_s", "windows_per_s"):
            if key in record:
                value = record[key]
                assert isinstance(value, float) and math.isfinite(value) and value > 0.0


def test_train_computes_one_exponential_per_distinct_adjacency(monkeypatch):
    # the first step of each later epoch, and the final h, see the A of the last
    # epoch record, so they reuse its exponential
    split = _tiny_split(n=3)
    config = _tiny_config(max_outer_iters=1, inner_epochs=3)
    calls = []
    expm = ganf.dag.expm
    monkeypatch.setattr(ganf.dag, "expm", lambda m: calls.append(1) or expm(m))
    monkeypatch.setattr(ganf.dag, "_last_exp", None)
    _, _, history = train(split.train, split.validation, config)
    # no feasible snapshot, so the final h is taken on the last epoch's A
    assert all(r["h"] >= config.h_tol for r in history if r["kind"] == "epoch")
    assert not history[-1]["converged"]
    batches = -(-split.train.shape[0] // config.batch_size)
    assert len(calls) == config.inner_epochs * batches + 1


def poison_adjacency(monkeypatch, value, epoch=0):
    """Set one entry of A to ``value`` just before epoch ``epoch``'s record takes h(A)."""
    validate = ganf.training._validation_log_density
    calls = []

    def poisoned(model, windows):
        out = validate(model, windows)
        if len(calls) == epoch:
            model.adjacency.data[0, 1] = value
        calls.append(epoch)
        return out

    monkeypatch.setattr(ganf.training, "_validation_log_density", poisoned)


@pytest.mark.parametrize("value", [np.inf, np.nan])
def test_non_finite_adjacency_aborts_training(monkeypatch, value):
    poison_adjacency(monkeypatch, value)
    split = _tiny_split()
    with pytest.raises(TrainingAbort, match="numeric failure at epoch 0"):
        train(split.train, split.validation, _tiny_config())


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_non_finite_training_window_aborts_training():
    split = _tiny_split()
    split.train[3, 1, 4, 0] = np.nan
    with pytest.raises(TrainingAbort, match="^numeric failure at epoch 0: non-finite loss$"):
        train(split.train, split.validation, _tiny_config())


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("lagrangian", [None, LagrangianState(lam=1.0, c=1.0)])
def test_train_step_on_a_non_finite_batch_changes_nothing(lagrangian):
    model = GanfModel(n_series=3, input_dim=1, hidden_dim=4, flow_blocks=2, flow_hidden=8)
    optimizer = Adam()
    batch = np.random.default_rng(0).normal(size=(4, 3, 6, 1))
    train_step(model, batch, optimizer, 1e-3, TrainConfig(), lagrangian)
    before = {k: v.copy() for k, v in model.all_arrays().items()}
    moments = {k: v.copy() for k, v in optimizer.m.items()}
    batch[2, 1, 3, 0] = np.nan
    with pytest.raises(NumericError, match="^non-finite loss$"):
        train_step(model, batch, optimizer, 1e-3, TrainConfig(), lagrangian)
    assert optimizer.t == 1
    after = model.all_arrays()
    assert all(np.array_equal(before[k], after[k]) for k in before)
    assert all(np.array_equal(moments[k], optimizer.m[k]) for k in moments)


class _Seen(Exception):
    pass


def test_train_hands_each_record_to_on_record_as_it_is_made():
    split = _tiny_split()
    seen = []

    def stop_at_first(record):
        seen.append(dict(record))
        raise _Seen

    with pytest.raises(_Seen):
        train(split.train, split.validation, _tiny_config(), on_record=stop_at_first)
    assert [(r["kind"], r["epoch"]) for r in seen] == [("epoch", 0)]
    # a full run hands over every record, in history order
    _, _, history = train(split.train, split.validation, _tiny_config(),
                          on_record=seen.append)
    assert seen[1:] == history
    assert [r["kind"] for r in history][-2:] == ["outer", "final"]


def test_probe_converges_where_c_grows_past_1e20():
    # four Adam steps per outer iteration (two epochs of two batches) stall
    # h(A) for many outers, so c grows by eta for as long as the run needs
    spec = SynthSpec(n_series=5, edge_prob=0.3, rho=0.5)
    series, _ = synth_generate(spec, 2000, seed=0)
    split = normalize(split_windows(*make_windows(series, 20, 20)))
    assert len(split.train) == 60
    config = TrainConfig(inner_epochs=2, max_outer_iters=40)
    _, _, history = train(split.train, split.validation, config)
    outers = [r for r in history if r["kind"] == "outer"]
    assert len(outers) == 30
    assert max(r["c"] for r in outers) == 1e24
    final = history[-1]
    assert final["converged"] and final["warning"] is None
    assert abs(final["h"]) < config.h_tol
