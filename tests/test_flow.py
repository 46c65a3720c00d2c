import tracemalloc

import numpy as np
import pytest

from ganf.flow import ALPHA_CLAMP, CouplingBlock, FlowStack, MafBlock, _made_masks
from ganf.tensor import GradientTape, ShapeError, Tensor, mul, sum_
from tape_reference import block_forward, flow_forward, flow_log_prob, tape_grads


def _rng(seed=0):
    return np.random.default_rng(seed)


def _alone(block) -> FlowStack:
    """A one-block stack: it flips nothing, so it maps rows as the block alone does."""
    stack = FlowStack(block.input_dim, block.cond_dim, n_blocks=0)
    stack.blocks = [block]
    return stack


def test_made_masks_strictly_autoregressive():
    mask_in, mask_out = _made_masks(4, 16)
    # output j may depend on input i only for i < j
    conn = mask_in @ mask_out   # (input, output) connectivity counts
    assert not np.any(np.tril(conn))
    assert np.all(conn[np.triu_indices(4, k=1)] > 0)


def test_made_masks_single_dim_sees_nothing():
    mask_in, mask_out = _made_masks(1, 8)
    assert not np.any(mask_in @ mask_out)


def test_maf_identity_at_init():
    block = MafBlock(3, 2, 16, _rng())
    x = Tensor(_rng(1).normal(size=(5, 3)))
    d = Tensor(_rng(2).normal(size=(5, 2)))
    z, logdet = _alone(block).forward(x, d)
    np.testing.assert_allclose(z.data, x.data, atol=1e-12)
    np.testing.assert_allclose(logdet.data, 0.0, atol=1e-12)


def test_maf_hand_example_forward_and_inverse():
    # D=1, mu=1, alpha=ln 2: z = (x - 1) * 2, so x=3 -> z=4, logdet=ln 2
    block = MafBlock(1, 1, 4, _rng())
    block.b_mu.data[:] = 1.0
    # alpha passes through the soft clamp; invert it so the clamped value is ln 2
    target = np.log(2.0)
    block.b_a.data[:] = ALPHA_CLAMP * np.arctanh(target / ALPHA_CLAMP)
    x = Tensor([[3.0]])
    d = Tensor([[0.0]])
    z, logdet = _alone(block).forward(x, d)
    assert abs(z.data[0, 0] - 4.0) < 1e-12
    assert abs(logdet.data[0] - np.log(2.0)) < 1e-12
    back = _alone(block).inverse(np.array([[4.0]]), np.array([[0.0]]))
    assert abs(back[0, 0] - 3.0) < 1e-12


def test_maf_mask_correctness():
    # z_i must not react to changes in x_j for j >= i
    block = MafBlock(4, 2, 16, _rng(3))
    for p in block.parameters("b").values():
        p.data += _rng(4).normal(size=p.shape) * 0.1
    d = Tensor(np.zeros((1, 2)))
    x1 = _rng(5).normal(size=(1, 4))
    for i in range(4):
        x2 = x1.copy()
        x2[0, i:] += 1.0   # perturb coordinates i..D-1
        z1, _ = _alone(block).forward(Tensor(x1), d)
        z2, _ = _alone(block).forward(Tensor(x2), d)
        np.testing.assert_allclose(z1.data[0, :i], z2.data[0, :i], atol=1e-12)


def test_condition_changes_output():
    block = MafBlock(3, 2, 16, _rng(6))
    for p in block.parameters("b").values():
        p.data += _rng(7).normal(size=p.shape) * 0.1
    x = Tensor(_rng(8).normal(size=(1, 3)))
    z1, _ = _alone(block).forward(x, Tensor([[0.0, 0.0]]))
    z2, _ = _alone(block).forward(x, Tensor([[1.0, -1.0]]))
    assert np.max(np.abs(z1.data - z2.data)) > 1e-6


def test_coupling_frozen_half_passthrough():
    block = CouplingBlock(4, 2, 16, _rng(9), parity=0)
    for p in block.parameters("b").values():
        p.data += _rng(10).normal(size=p.shape) * 0.1
    x = _rng(11).normal(size=(3, 4))
    z, _ = _alone(block).forward(Tensor(x), Tensor(np.zeros((3, 2))))
    frozen = block.mask.astype(bool)
    np.testing.assert_array_equal(z.data[:, frozen], x[:, frozen])


@pytest.mark.parametrize("kind", ["maf", "coupling"])
@pytest.mark.parametrize("dim", [1, 3, 8])
def test_stack_round_trip(kind, dim):
    stack = FlowStack(dim, 4, n_blocks=6, hidden=16, kind=kind, rng=_rng(12))
    for p in stack.parameters().values():
        p.data += _rng(13).normal(size=p.shape) * 0.2
    x = _rng(14).normal(size=(100, dim))
    d = _rng(15).normal(size=(100, 4))
    z, _ = stack.forward(Tensor(x), Tensor(d))
    back = stack.inverse(z.data, d)
    assert np.max(np.abs(back - x)) < 1e-6


@pytest.mark.parametrize("kind", ["maf", "coupling"])
@pytest.mark.parametrize("dim", [2, 4])
def test_stack_logdet_matches_dense_jacobian(kind, dim):
    stack = FlowStack(dim, 3, n_blocks=6, hidden=8, kind=kind, rng=_rng(16))
    for p in stack.parameters().values():
        p.data += _rng(17).normal(size=p.shape) * 0.2
    x0 = _rng(18).normal(size=(1, dim))
    d = _rng(19).normal(size=(1, 3))
    _, logdet = stack.forward(Tensor(x0), Tensor(d))
    step = 1e-6
    jac = np.zeros((dim, dim))
    for j in range(dim):
        xp = x0.copy(); xp[0, j] += step
        xm = x0.copy(); xm[0, j] -= step
        zp, _ = stack.forward(Tensor(xp), Tensor(d))
        zm, _ = stack.forward(Tensor(xm), Tensor(d))
        jac[:, j] = (zp.data[0] - zm.data[0]) / (2 * step)
    ref = np.log(abs(np.linalg.det(jac)))
    assert abs(logdet.data[0] - ref) < 1e-4


def test_log_prob_identity_stack_base_density():
    stack1 = FlowStack(1, 2, n_blocks=6, hidden=8, kind="maf", rng=_rng(20))
    lp = stack1.log_prob(Tensor(np.zeros((1, 1))), Tensor(np.zeros((1, 2)))).data
    assert abs(lp[0] - (-0.5 * np.log(2 * np.pi))) < 1e-12
    stack2 = FlowStack(2, 2, n_blocks=6, hidden=8, kind="maf", rng=_rng(21))
    lp2 = stack2.log_prob(Tensor(np.zeros((1, 2))), Tensor(np.zeros((1, 2)))).data
    assert abs(lp2[0] - (-np.log(2 * np.pi))) < 1e-12


def test_log_prob_dimension_mismatch():
    stack = FlowStack(3, 2, n_blocks=2, hidden=8, rng=_rng(22))
    with pytest.raises(ShapeError):
        stack.log_prob(Tensor(np.zeros((1, 4))), Tensor(np.zeros((1, 2))))
    with pytest.raises(ShapeError):
        stack.log_prob(Tensor(np.zeros((1, 3))), Tensor(np.zeros((1, 5))))


def _sample(stack: FlowStack, count: int, seed: int) -> np.ndarray:
    """Rows drawn by inverting standard normals under a zero condition."""
    z = _rng(seed).standard_normal((count, stack.input_dim))
    return stack.inverse(z, np.zeros((count, stack.cond_dim)))


def test_sample_identity_stack_is_standard_normal():
    stack = FlowStack(2, 2, n_blocks=3, hidden=8, rng=_rng(23))
    s = _sample(stack, 10_000, seed=99)
    assert np.max(np.abs(s.mean(axis=0))) < 0.1
    assert np.max(np.abs(s.std(axis=0) - 1.0)) < 0.1


def test_sample_deterministic():
    stack = FlowStack(3, 2, n_blocks=2, hidden=8, rng=_rng(24))
    np.testing.assert_array_equal(_sample(stack, 50, seed=7), _sample(stack, 50, seed=7))


def test_log_prob_of_samples_finite():
    stack = FlowStack(2, 2, n_blocks=4, hidden=8, rng=_rng(25))
    for p in stack.parameters().values():
        p.data += _rng(26).normal(size=p.shape) * 0.1
    d = np.zeros((10_000, 2))
    s = _sample(stack, 10_000, seed=1)
    lp = stack.log_prob(Tensor(s), Tensor(d)).data
    assert np.all(np.isfinite(lp))


def test_alpha_clamp_bounds_logdet():
    block = MafBlock(2, 1, 8, _rng(27))
    block.b_a.data[:] = 1e6   # absurd pre-clamp value
    _, logdet = _alone(block).forward(Tensor(np.ones((1, 2))), Tensor(np.zeros((1, 1))))
    assert logdet.data[0] <= 2 * ALPHA_CLAMP + 1e-9


def _perturbed_stack(dim, kind, seed, cond=3, blocks=4, hidden=8, scale=0.3):
    stack = FlowStack(dim, cond, n_blocks=blocks, hidden=hidden, kind=kind, rng=_rng(seed))
    rng = _rng(seed + 1)
    for p in stack.parameters().values():
        p.data += rng.normal(size=p.shape) * scale
    return stack


@pytest.mark.parametrize("kind,dim,cond,blocks,hidden", [
    pytest.param(kind, dim, 3, 4, 8, id=f"{dim}-{kind}")
    for dim in (1, 2, 3) for kind in ("maf", "coupling")
] + [pytest.param("maf", 1, 5, 6, 12, id="model-shape")])   # D = 1, 6 blocks, hidden != cond
def test_fused_flow_matches_tape_reference(kind, dim, cond, blocks, hidden):
    stack = _perturbed_stack(dim, kind, 40 + dim, cond=cond, blocks=blocks, hidden=hidden)
    x = Tensor(_rng(50).normal(size=(7, dim)), requires_grad=True)
    d = Tensor(_rng(51).normal(size=(7, cond)), requires_grad=True)
    w = Tensor(_rng(52).normal(size=7))
    leaves = [x, d, *stack.parameters().values()]

    def close(got, want):
        for g, r in zip(got, want):
            np.testing.assert_allclose(g, r, rtol=1e-12, atol=1e-14 * max(np.abs(r).max(), 1))

    close([stack.log_prob(x, d).data], [flow_log_prob(stack, x, d).data])
    close(tape_grads(leaves, lambda: sum_(mul(stack.log_prob(x, d), w))),
          tape_grads(leaves, lambda: sum_(mul(flow_log_prob(stack, x, d), w))))
    close([t.data for t in stack.forward(x, d)], [t.data for t in flow_forward(stack, x, d)])
    # every block alone, so a coupling stack checks both parities
    for block in stack.blocks:
        alone = _alone(block)
        close([t.data for t in alone.forward(x, d)],
              [t.data for t in block_forward(block, x, d)])
        close(tape_grads(leaves, lambda: sum_(mul(alone.log_prob(x, d), w))),
              tape_grads(leaves, lambda: sum_(mul(flow_log_prob(alone, x, d), w))))


@pytest.mark.parametrize("kind,dim", [("maf", 1), ("maf", 3), ("coupling", 1), ("coupling", 2)])
def test_log_prob_np_is_the_taped_value_bitwise(kind, dim):
    stack = _perturbed_stack(dim, kind, 70 + dim)
    x = _rng(71).normal(size=(50, dim))
    d = _rng(72).normal(size=(50, 3))
    # the same bytes whether or not the pass records itself on a tape
    with GradientTape():
        taped = stack.log_prob(Tensor(x), Tensor(d, requires_grad=True)).data
    assert taped.tobytes() == stack.log_prob(Tensor(x), Tensor(d)).data.tobytes()


def test_log_prob_is_the_one_taped_entry():
    stack = _perturbed_stack(2, "maf", 90)
    x = Tensor(_rng(91).normal(size=(4, 2)), requires_grad=True)
    d = Tensor(_rng(92).normal(size=(4, 3)), requires_grad=True)
    with GradientTape() as tape:
        z, logdet = stack.forward(x, d)
        assert len(tape) == 0 and not z.requires_grad and not logdet.requires_grad
        stack.log_prob(x, d)
        assert len(tape) == 1


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_flow_memory_per_block():
    """No block copies the condition: a forward pass needs no memory per block,
    and the tape keeps about one hidden layer per block and row."""
    rows, cond, hidden = 2000, 16, 16
    x = _rng(80).normal(size=(rows, 1))
    d = _rng(81).normal(size=(rows, cond))
    peaks = {}
    for blocks in (2, 12):
        stack = _perturbed_stack(1, "maf", 82, cond=cond, blocks=blocks, hidden=hidden)
        x_t, d_t = Tensor(x), Tensor(d, requires_grad=True)

        def taped():
            with GradientTape() as tape:
                loss = sum_(stack.log_prob(x_t, d_t))
            tape.backward(loss)

        peaks[blocks] = (_traced_peak(lambda: stack.log_prob(x_t, d_t)), _traced_peak(taped))
    per_row = 8 * rows
    assert peaks[12][0] - peaks[2][0] < 2 * per_row
    assert (peaks[12][1] - peaks[2][1]) / 10 < (hidden + 8) * per_row


def test_coupling_parameter_gradients_match_finite_differences():
    stack = _perturbed_stack(3, "coupling", 60, cond=2, blocks=3, hidden=5)
    x = _rng(61).normal(size=(4, 3))
    d = _rng(62).normal(size=(4, 2))
    w = _rng(63).normal(size=4)
    params = stack.parameters()
    grads = tape_grads(list(params.values()),
                       lambda: sum_(mul(stack.log_prob(Tensor(x), Tensor(d)), Tensor(w))))
    step = 1e-6
    for (name, p), grad in zip(params.items(), grads):
        assert np.any(grad != 0.0), name
        numeric = np.empty(p.shape)
        for idx in np.ndindex(p.shape):
            keep = p.data[idx]
            p.data[idx] = keep + step
            hi = w @ stack.log_prob(Tensor(x), Tensor(d)).data
            p.data[idx] = keep - step
            lo = w @ stack.log_prob(Tensor(x), Tensor(d)).data
            p.data[idx] = keep
            numeric[idx] = (hi - lo) / (2 * step)
        np.testing.assert_allclose(grad, numeric, rtol=1e-5, atol=1e-7, err_msg=name)
