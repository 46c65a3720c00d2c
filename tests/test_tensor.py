import gc
import sys
import weakref

import numpy as np
import pytest

from ganf.tensor import (GradientTape, ShapeError, Tensor, TapeStateError, add,
                         concat, mul, recording, reshape, slice_, sum_, transpose)
from tape_reference import exp, matmul, relu, sigmoid, tanh


def test_matmul_identity():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    out = matmul(a, Tensor(np.eye(2)))
    np.testing.assert_array_equal(out.data, [[1.0, 2.0], [3.0, 4.0]])


def test_relu_definition():
    out = relu(Tensor([-1.0, 0.0, 2.0]))
    np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.0])


def test_shape_mismatch():
    with pytest.raises(ShapeError):
        add(Tensor(np.zeros(3)), Tensor(np.zeros(4)))
    with pytest.raises(ShapeError):
        matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))


def test_backward_quadratic():
    x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
    with GradientTape() as tape:
        loss = sum_(mul(x, x))
    tape.backward(loss)
    np.testing.assert_allclose(x.grad, [2.0, 4.0, 6.0])


def test_backward_linear_map():
    a = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    x = Tensor(np.array([[1.0], [1.0]]), requires_grad=True)
    with GradientTape() as tape:
        loss = sum_(matmul(Tensor(a), x))
    tape.backward(loss)
    np.testing.assert_allclose(x.grad, a.T @ np.ones((3, 1)))


def test_backward_accumulates_over_fanout():
    x = Tensor([2.0], requires_grad=True)
    with GradientTape() as tape:
        loss = sum_(add(mul(x, x), x))   # x^2 + x -> 2x + 1 = 5
    tape.backward(loss)
    np.testing.assert_allclose(x.grad, [5.0])


def test_backward_twice_raises():
    x = Tensor([1.0], requires_grad=True)
    with GradientTape() as tape:
        loss = sum_(mul(x, x))
    tape.backward(loss)
    with pytest.raises(TapeStateError):
        tape.backward(loss)


def test_backward_frees_activations_without_gc():
    # a recorded tensor points at its tape and the tape at its records; once
    # replayed, the tape must let go so reference counting frees the activations
    x = Tensor(np.arange(4.0), requires_grad=True)
    gc.disable()
    try:
        with GradientTape() as tape:
            mid = exp(x)
            loss = sum_(mul(mid, mid))
        alive = weakref.ref(mid.data)
        tape.backward(loss)
        del mid
        assert alive() is None
        with pytest.raises(TapeStateError):
            tape.backward(loss)
    finally:
        gc.enable()
    np.testing.assert_allclose(x.grad, 2.0 * np.exp(2.0 * np.arange(4.0)))


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="glibc heap tuning")
def test_replayed_tape_memory_is_reused_without_page_faults():
    # backward frees every activation at once; the next step must get the same
    # heap back instead of faulting fresh pages in (about 7,000 per step when
    # glibc trims the heap after each replay)
    import resource

    rng = np.random.default_rng(0)
    w = Tensor(rng.normal(size=(32, 32)) * 0.1, requires_grad=True)
    x = Tensor(rng.normal(size=(3200, 32)))

    def step():
        with GradientTape() as tape:
            h = x
            for _ in range(8):
                h = tanh(matmul(h, w))
            loss = sum_(mul(h, h))
        tape.backward(loss)

    for _ in range(3):
        step()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(10):
        step()
    assert (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 10 < 50


def test_backward_empty_tape_raises():
    tape = GradientTape()
    with pytest.raises(TapeStateError):
        tape.backward(Tensor(0.0))


def test_nested_tapes_raise():
    with GradientTape():
        with pytest.raises(TapeStateError):
            with GradientTape():
                pass


def _fd_grad(f, x, step=1e-5):
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        xp = x.copy()
        xp[idx] += step
        xm = x.copy()
        xm[idx] -= step
        g[idx] = (f(xp) - f(xm)) / (2 * step)
    return g


@pytest.mark.parametrize("seed", range(10))
def test_composed_losses_match_finite_differences(seed):
    rng = np.random.default_rng(seed)
    w = rng.normal(size=(4, 3))
    x0 = rng.normal(size=(2, 4))

    def run(x_data):
        x = Tensor(x_data, requires_grad=True)
        with GradientTape() as tape:
            h = tanh(matmul(x, Tensor(w)))
            s = sigmoid(add(h, Tensor(0.5)))
            r = relu(add(s, Tensor(-0.3)))
            loss = sum_(mul(sum_(r, axis=0), exp(mul(h, Tensor(0.1)))))
        return x, tape, loss

    x, tape, loss = run(x0)
    tape.backward(loss)
    fd = _fd_grad(lambda xd: run(xd)[2].item(), x0)
    denom = np.maximum(np.abs(fd), 1e-8)
    assert np.max(np.abs(x.grad - fd) / denom) < 1e-4


def test_broadcast_gradient_shapes():
    b = Tensor(np.ones(3), requires_grad=True)
    x = Tensor(np.ones((5, 3)), requires_grad=True)
    with GradientTape() as tape:
        loss = sum_(add(x, b))
    tape.backward(loss)
    assert b.grad.shape == (3,)
    np.testing.assert_allclose(b.grad, 5.0 * np.ones(3))


def test_concat_transpose_reshape_flip_slice_grads():
    x0 = np.arange(6.0).reshape(2, 3)
    x = Tensor(x0, requires_grad=True)
    with GradientTape() as tape:
        y = concat([x, x], axis=0)
        y = transpose(y, (1, 0))
        y = reshape(y, (12,))
        y = slice_(y, slice(None, None, -1))
        loss = sum_(slice_(y, slice(0, 6)))
    tape.backward(loss)
    fd = _fd_grad(lambda xd: np.flip(np.concatenate([xd, xd], 0).T.reshape(12))[:6].sum(), x0)
    np.testing.assert_allclose(x.grad, fd, atol=1e-6)


def test_determinism():
    rng = np.random.default_rng(42)
    x0 = rng.normal(size=(3, 3))

    def run():
        x = Tensor(x0.copy(), requires_grad=True)
        with GradientTape() as tape:
            loss = sum_(mul(tanh(x), sigmoid(x)))
        tape.backward(loss)
        return loss.item(), x.grad.copy()

    l1, g1 = run()
    l2, g2 = run()
    assert l1 == l2
    np.testing.assert_array_equal(g1, g2)


def test_no_recording_outside_tape():
    x = Tensor([1.0], requires_grad=True)
    assert not recording(x)
    y = mul(x, x)
    with GradientTape() as tape:
        mul(y, y)
    assert len(tape) == 1   # y was made before the tape and is not on it


def test_recording_reflects_active_tape_and_inputs():
    w = Tensor([1.0], requires_grad=True)
    c = Tensor([1.0])
    assert not recording(w)
    with GradientTape():
        assert recording(w) and recording(w, c)
        assert not recording(c) and not recording()
    assert not recording(w)


def test_stacked_tensor_iterates_over_steps():
    t = Tensor(np.arange(6.0).reshape(3, 2))
    assert len(t) == 3
    np.testing.assert_array_equal([s.data for s in t], t.data)
    with pytest.raises(TypeError):
        len(Tensor(1.0))
