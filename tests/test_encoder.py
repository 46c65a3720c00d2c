import numpy as np
import pytest

from ganf.encoder import (NODE_MAJOR_MIN_N, ContractError, EncoderParams, LstmCell,
                          encode_dependencies, encode_hidden, offdiag_mask)
from ganf.parallel import _blas_pinned
from ganf.tensor import GradientTape, ShapeError, Tensor, concat, mul, sum_
from conftest import traced_peak
from tape_reference import aggregate, lstm_step, lstm_unroll, tape_grads


def _rng(seed=0):
    return np.random.default_rng(seed)


def _deps(cell, enc, x, a):
    b, n = x.shape[0], x.shape[1]
    hidden = encode_hidden(cell, x)
    deps = encode_dependencies(enc, hidden, Tensor(a), b, n)
    return np.stack([d.data.reshape(b, n, -1) for d in deps], axis=2)  # (B,n,T,d)


def test_offdiag_mask():
    np.testing.assert_array_equal(offdiag_mask(2), [[0.0, 1.0], [1.0, 0.0]])


def test_hidden_bounded_and_shared():
    cell = LstmCell(1, 4, _rng())
    x = np.broadcast_to(_rng(1).normal(size=(1, 1, 6, 1)), (1, 3, 6, 1)).copy()
    hidden = encode_hidden(cell, x)
    assert len(hidden) == 6
    for h in hidden:
        assert np.all(np.abs(h.data) < 1.0)
        rows = h.data.reshape(3, 4)
        np.testing.assert_array_equal(rows[0], rows[1])
        np.testing.assert_array_equal(rows[0], rows[2])


def test_hidden_t1_equals_single_step():
    cell = LstmCell(2, 4, _rng(2))
    x = _rng(3).normal(size=(1, 1, 1, 2))
    hidden = encode_hidden(cell, x)
    h0 = Tensor(np.zeros((1, 4)))
    c0 = Tensor(np.zeros((1, 4)))
    h1, _ = lstm_step(cell, Tensor(x[0, :, 0, :]), h0, c0)
    np.testing.assert_allclose(hidden[0].data, h1.data)


def test_hidden_shape_validation():
    cell = LstmCell(1, 4, _rng(4))
    with pytest.raises(ShapeError):
        encode_hidden(cell, np.zeros((2, 3, 4)))
    with pytest.raises(ShapeError):
        encode_hidden(cell, np.zeros((1, 2, 3, 5)))


def test_dependencies_zero_graph_matches_history_only_path():
    cell = LstmCell(1, 4, _rng(5))
    enc = EncoderParams(4, _rng(6))
    x = _rng(7).normal(size=(2, 3, 5, 1))
    deps = _deps(cell, enc, x, np.zeros((3, 3)))
    # manual history-only recomputation
    hidden = encode_hidden(cell, x)
    h_prev = np.zeros((2, 3, 4))
    for t in range(5):
        want = np.maximum(h_prev @ enc.w2.data, 0.0) @ enc.w3.data
        np.testing.assert_allclose(deps[:, :, t, :], want, atol=1e-12)
        h_prev = hidden[t].data.reshape(2, 3, 4)


def test_dependencies_single_edge_structure():
    cell = LstmCell(1, 4, _rng(8))
    enc = EncoderParams(4, _rng(9))
    a = np.array([[0.0, 0.0], [1.0, 0.0]])   # node 1 has parent node 0
    x = _rng(10).normal(size=(1, 2, 4, 1))
    base = _deps(cell, enc, x, a)
    x2 = x.copy()
    x2[0, 0, -1, :] += 1.0                   # perturb node 0 at the last step
    pert = _deps(cell, enc, x2, a)
    assert np.max(np.abs(pert[0, 1, -1] - base[0, 1, -1])) > 1e-8
    # node 0 has no parents: same-step change in node 1 cannot reach it
    x3 = x.copy()
    x3[0, 1, -1, :] += 1.0
    pert3 = _deps(cell, enc, x3, a)
    np.testing.assert_allclose(pert3[0, 0, -1], base[0, 0, -1], atol=1e-12)


def test_dependencies_row_scaling_linearity():
    cell = LstmCell(1, 3, _rng(11))
    enc = EncoderParams(3, _rng(12))
    a = np.array([[0.0, 0.7, 0.0], [0.0, 0.0, 0.0], [0.4, 0.2, 0.0]])
    x = _rng(13).normal(size=(1, 3, 4, 1))
    hidden = encode_hidden(cell, x)
    h1 = hidden[2].data.reshape(1, 3, 3)     # some mid-window step
    pre1 = (a @ h1) @ enc.w1.data
    pre2 = ((2.0 * a) @ h1) @ enc.w1.data
    np.testing.assert_allclose(pre2[0, 0], 2.0 * pre1[0, 0], atol=1e-12)


def test_dependencies_nonzero_diagonal_rejected():
    cell = LstmCell(1, 3, _rng(14))
    enc = EncoderParams(3, _rng(15))
    hidden = encode_hidden(cell, np.zeros((1, 2, 3, 1)))
    with pytest.raises(ContractError):
        encode_dependencies(enc, hidden, Tensor(np.eye(2)), 1, 2)


def test_dependencies_unequal_step_shapes_rejected():
    enc = EncoderParams(3, _rng(16))
    steps = [Tensor(np.zeros((2, 3))), Tensor(np.zeros((1, 3)))]
    with pytest.raises(ShapeError):
        encode_dependencies(enc, steps, Tensor(np.zeros((2, 2))), 1, 2)


def test_parent_locality():
    rng = _rng(16)
    cell = LstmCell(1, 4, rng)
    enc = EncoderParams(4, rng)
    n = 5
    a = rng.uniform(-1, 1, size=(n, n)) * (rng.uniform(size=(n, n)) < 0.4)
    np.fill_diagonal(a, 0.0)
    x = rng.normal(size=(1, n, 3, 1))
    base = _deps(cell, enc, x, a)
    t = 2
    for j in range(n):
        x2 = x.copy()
        x2[0, j, t, :] += 1.0
        pert = _deps(cell, enc, x2, a)
        for i in range(n):
            if i == j:
                continue
            changed = np.max(np.abs(pert[0, i, t] - base[0, i, t])) > 1e-10
            if a[i, j] == 0.0:
                assert not changed, (i, j)


def test_temporal_causality():
    rng = _rng(17)
    cell = LstmCell(1, 4, rng)
    enc = EncoderParams(4, rng)
    a = np.array([[0.0, 0.5], [0.3, 0.0]])
    x = rng.normal(size=(1, 2, 6, 1))
    base = _deps(cell, enc, x, a)
    x2 = x.copy()
    x2[:, :, 4:, :] += 1.0                    # future-only perturbation
    pert = _deps(cell, enc, x2, a)
    np.testing.assert_allclose(pert[:, :, :4, :], base[:, :, :4, :], atol=1e-12)


def test_node_permutation_equivariance():
    rng = _rng(18)
    cell = LstmCell(1, 4, rng)
    enc = EncoderParams(4, rng)
    n = 4
    a = rng.uniform(-1, 1, size=(n, n))
    np.fill_diagonal(a, 0.0)
    x = rng.normal(size=(1, n, 3, 1))
    base = _deps(cell, enc, x, a)
    perm = rng.permutation(n)
    pa = a[np.ix_(perm, perm)]
    px = x[:, perm]
    pd = _deps(cell, enc, px, pa)
    np.testing.assert_allclose(pd, base[:, perm], atol=1e-12)


def _perturbed_encoder(d_in, hidden, seed):
    rng = _rng(seed)
    cell = LstmCell(d_in, hidden, rng)
    enc = EncoderParams(hidden, rng)
    for p in (*cell.parameters().values(), *enc.parameters().values()):
        p.data += rng.normal(size=p.shape) * 0.3
    return cell, enc


def _assert_close(got, want):
    for g, w in zip(got, want):
        np.testing.assert_allclose(g, w, rtol=1e-12, atol=1e-14 * np.abs(w).max())


@pytest.mark.parametrize("d_in", [1, 2])
def test_fused_lstm_matches_tape_reference(d_in):
    cell, _ = _perturbed_encoder(d_in, 5, 20 + d_in)
    x = _rng(30).normal(size=(2, 3, 6, d_in))
    weights = Tensor(_rng(31).normal(size=(6, 6, 5)))      # (T, B*n, hidden)
    fused = encode_hidden(cell, x)
    ref = lstm_unroll(cell, x)
    assert fused.shape == (6, 6, 5)
    _assert_close([h.data for h in fused], [h.data for h in ref])
    params = list(cell.parameters().values())
    _assert_close(
        tape_grads(params, lambda: sum_(mul(encode_hidden(cell, x), weights))),
        tape_grads(params, lambda: sum_(mul(concat(lstm_unroll(cell, x), axis=0),
                                            Tensor(weights.data.reshape(36, 5))))))


@pytest.mark.parametrize("d_in", [1, 2])
def test_fused_aggregation_matches_tape_reference(d_in):
    cell, enc = _perturbed_encoder(d_in, 4, 40 + d_in)
    b, n, t_len = 2, 3, 5
    x = _rng(50).normal(size=(b, n, t_len, d_in))
    a = Tensor(_rng(51).normal(size=(n, n)) * offdiag_mask(n), requires_grad=True)
    hidden = [Tensor(h.data, requires_grad=True) for h in encode_hidden(cell, x)]
    weights = _rng(52).normal(size=(t_len, b * n, 4))
    ref = aggregate(enc, hidden, a, b, n)
    _assert_close([d.data for d in encode_dependencies(enc, hidden, a, b, n)],
                  [d.data for d in ref])
    leaves = [a, *enc.parameters().values(), *hidden]
    want = tape_grads(leaves, lambda: sum_(mul(concat(aggregate(enc, hidden, a, b, n), axis=0),
                                               Tensor(weights.reshape(-1, 4)))))
    # per-step leaves and one stacked (T, B*n, hidden) leaf give the same gradients
    _assert_close(tape_grads(leaves, lambda: sum_(mul(encode_dependencies(enc, hidden, a, b, n),
                                                      Tensor(weights)))), want)
    stacked = Tensor(np.stack([h.data for h in hidden]), requires_grad=True)
    got = tape_grads([a, *enc.parameters().values(), stacked],
                     lambda: sum_(mul(encode_dependencies(enc, stacked, a, b, n),
                                      Tensor(weights))))
    _assert_close(got[:-1] + list(got[-1]), want)


@pytest.mark.parametrize("hidden", [4, 8, 32])
@pytest.mark.parametrize("b,n", [(1, 2), (64, 5), (16, 512)])
def test_hidden_same_with_and_without_tape(hidden, b, n):
    cell, _ = _perturbed_encoder(1, hidden, 60)
    x = _rng(61).normal(size=(b, n, 7, 1))
    # the same values whether or not the activations are kept for a backward pass
    with GradientTape():
        kept = encode_hidden(cell, x).data
    np.testing.assert_array_equal(encode_hidden(cell, x).data, kept)


def test_tape_free_hidden_keeps_no_buffer_over_all_steps_of_the_gates():
    """A default 64-window scoring batch (B*n = 320, T = 20, hidden 32) peaks
    below one (4, T, B*n, hidden) array: the input projection is made one step
    at a time."""
    cell, _ = _perturbed_encoder(1, 32, 62)
    x = _rng(63).normal(size=(64, 5, 20, 1))
    _, peak = traced_peak(lambda: encode_hidden(cell, x))
    assert peak < 4 * 20 * 320 * 32 * 8, peak


@pytest.mark.parametrize("n,hidden", [(NODE_MAJOR_MIN_N - 1, 8), (NODE_MAJOR_MIN_N, 8),
                                      (NODE_MAJOR_MIN_N, 4)])
def test_dependencies_same_with_and_without_tape(n, hidden):
    """Node-major without a tape gives the bytes of the taped batch-major pass.

    At width 4 the two orders round differently, so that pass stays batch-major.
    """
    cell, enc = _perturbed_encoder(1, hidden, 70)
    b = 2
    x = _rng(71).normal(size=(b, n, 3, 1))
    a = Tensor(_rng(72).normal(size=(n, n)) * offdiag_mask(n) / n, requires_grad=True)
    hidden_states = encode_hidden(cell, x)
    with GradientTape():
        taped = encode_dependencies(enc, hidden_states, a, b, n).data
    np.testing.assert_array_equal(encode_dependencies(enc, hidden_states, a, b, n).data, taped)
    with _blas_pinned():    # OpenBLAS at one thread, as in a scoring pool
        np.testing.assert_array_equal(
            encode_dependencies(enc, hidden_states, a, b, n).data, taped)
