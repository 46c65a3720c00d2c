import numpy as np
import pytest
import scipy.linalg

from ganf.dag import (LagrangianState, _exp_squared, acyclicity, acyclicity_grad,
                      acyclicity_tensor, augmented_lagrangian,
                      dual_penalty_update, is_acyclic, threshold_dag, topological_order)
from ganf.tensor import GradientTape, NumericError, ShapeError, Tensor, mul


def test_acyclicity_zero_matrix():
    assert acyclicity(np.zeros((4, 4))) == 0.0


def test_acyclicity_lower_triangular():
    rng = np.random.default_rng(0)
    a = np.tril(rng.normal(size=(5, 5)), k=-1)
    assert abs(acyclicity(a)) < 1e-12


def test_acyclicity_two_cycle():
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert abs(acyclicity(a) - (2.0 * np.cosh(1.0) - 2.0)) < 1e-10


def test_acyclicity_nonnegative_and_permutation_invariant():
    rng = np.random.default_rng(1)
    for _ in range(5):
        a = rng.normal(size=(6, 6))
        np.fill_diagonal(a, 0.0)
        h = acyclicity(a)
        assert h >= 0.0
        p = np.eye(6)[rng.permutation(6)]
        assert abs(acyclicity(p @ a @ p.T) - h) < 1e-9 * max(1.0, h)


def test_acyclicity_non_square():
    with pytest.raises(ShapeError):
        acyclicity(np.zeros((2, 3)))


def test_grad_zero_matrix():
    np.testing.assert_array_equal(acyclicity_grad(np.zeros((3, 3))), np.zeros((3, 3)))


def test_grad_support_on_lower_triangular():
    rng = np.random.default_rng(2)
    a = np.tril(rng.normal(size=(4, 4)), k=-1)
    g = acyclicity_grad(a)
    assert np.all((g != 0) <= (a != 0))


@pytest.mark.parametrize("n", [2, 4, 8])
def test_grad_matches_finite_differences(n):
    rng = np.random.default_rng(n)
    a = rng.uniform(-1, 1, size=(n, n))
    np.fill_diagonal(a, 0.0)
    g = acyclicity_grad(a)
    step = 1e-6
    fd = np.zeros_like(a)
    for i in range(n):
        for j in range(n):
            ap = a.copy(); ap[i, j] += step
            am = a.copy(); am[i, j] -= step
            fd[i, j] = (acyclicity(ap) - acyclicity(am)) / (2 * step)
    denom = np.maximum(np.abs(fd), 1e-6)
    assert np.max(np.abs(g - fd) / denom) < 1e-6


def test_grad_matches_tape():
    rng = np.random.default_rng(5)
    a0 = rng.uniform(-1, 1, size=(5, 5))
    np.fill_diagonal(a0, 0.0)
    a = Tensor(a0, requires_grad=True)
    with GradientTape() as tape:
        h = acyclicity_tensor(a)
    tape.backward(h)
    np.testing.assert_allclose(a.grad, acyclicity_grad(a0), atol=1e-8)


def test_acyclicity_tensor_is_one_tape_op():
    a = Tensor(np.array([[0.0, 0.5], [0.7, 0.0]]), requires_grad=True)
    with GradientTape() as tape:
        acyclicity_tensor(a)
    assert len(tape) == 1


def test_acyclicity_tensor_value_matches_acyclicity_on_cycle():
    rng = np.random.default_rng(9)
    a0 = rng.uniform(-1, 1, size=(6, 6))
    np.fill_diagonal(a0, 0.0)
    h = acyclicity(a0)
    assert h > 0.0
    assert acyclicity_tensor(Tensor(a0)).item() == h


def test_acyclicity_tensor_tape_grad_matches_finite_differences():
    rng = np.random.default_rng(6)
    a0 = rng.uniform(-1, 1, size=(6, 6))
    np.fill_diagonal(a0, 0.0)
    a = Tensor(a0, requires_grad=True)
    with GradientTape() as tape:
        # a non-unit upstream gradient exercises the g * (...) scaling
        loss = mul(Tensor(3.0), acyclicity_tensor(a))
    tape.backward(loss)
    step = 1e-6
    fd = np.zeros_like(a0)
    for i in range(6):
        for j in range(6):
            ap = a0.copy(); ap[i, j] += step
            am = a0.copy(); am[i, j] -= step
            fd[i, j] = 3.0 * (acyclicity(ap) - acyclicity(am)) / (2 * step)
    denom = np.maximum(np.abs(fd), 1e-6)
    assert np.max(np.abs(a.grad - fd) / denom) < 1e-6


def test_acyclicity_tensor_tape_grad_matches_closed_form_at_n64():
    rng = np.random.default_rng(64)
    a0 = rng.uniform(-0.2, 0.2, size=(64, 64))
    np.fill_diagonal(a0, 0.0)
    a = Tensor(a0, requires_grad=True)
    with GradientTape() as tape:
        h = acyclicity_tensor(a)
    tape.backward(h)
    np.testing.assert_allclose(a.grad, acyclicity_grad(a0), rtol=1e-12, atol=0.0)


def test_acyclicity_follows_in_place_updates():
    # Adam updates A.data in place, so the reused exponential is keyed on A's values
    a = Tensor(np.array([[0.0, 0.5, 0.0], [0.0, 0.0, 0.5], [0.5, 0.0, 0.0]]),
               requires_grad=True)
    h0 = acyclicity_tensor(a).item()
    assert acyclicity(a.data) == h0
    a.data *= 2.0
    want = np.trace(scipy.linalg.expm(a.data * a.data)) - 3.0
    assert acyclicity(a.data) == pytest.approx(want, rel=1e-12) and want > 2 * h0
    assert acyclicity_tensor(a).item() == pytest.approx(want, rel=1e-12)
    np.testing.assert_allclose(acyclicity_grad(a.data),
                               scipy.linalg.expm(a.data * a.data).T * (2.0 * a.data),
                               rtol=1e-12)


def test_reused_exponential_is_read_only():
    a = np.random.default_rng(0).uniform(-1.0, 1.0, size=(4, 4))
    e = _exp_squared(a)
    assert _exp_squared(a.copy()) is e
    assert not e.flags.writeable
    with pytest.raises(ValueError):
        e[0, 0] = 0.0


def test_augmented_lagrangian_satisfied_constraint():
    a = Tensor(np.tril(np.ones((3, 3)), k=-1))
    nll = Tensor(7.0)
    out = augmented_lagrangian(nll, a, LagrangianState(lam=3.0, c=9.0))
    assert abs(out.item() - 7.0) < 1e-12


def test_augmented_lagrangian_unconstrained_limit():
    a = Tensor(np.array([[0.0, 1.0], [1.0, 0.0]]))
    out = augmented_lagrangian(Tensor(2.5), a, LagrangianState(lam=0.0, c=0.0))
    assert out.item() == 2.5


def test_augmented_lagrangian_hand_value():
    # nll=1, lam=2, c=4, h=0.5 -> 1 + 2*0.5 + 2*0.25 = 2.5
    # build an adjacency whose h is exactly 0.5 by scaling a 2-cycle:
    # h(tA) for the unit 2-cycle is 2cosh(t^2) - 2
    from scipy.optimize import brentq
    t = brentq(lambda t: 2 * np.cosh(t * t) - 2 - 0.5, 0.0, 2.0)
    a = Tensor(t * np.array([[0.0, 1.0], [1.0, 0.0]]))
    out = augmented_lagrangian(Tensor(1.0), a, LagrangianState(lam=2.0, c=4.0))
    assert abs(out.item() - 2.5) < 1e-12


def test_dual_update_lambda():
    state = LagrangianState(lam=1.0, c=10.0, k=1, h_prev=0.2)
    new = dual_penalty_update(state, 0.2)
    assert new.lam == pytest.approx(3.0)
    assert new.k == 2
    assert new.h_prev == 0.2


def test_dual_update_insufficient_progress_scales_c():
    state = LagrangianState(lam=0.0, c=5.0, k=3, h_prev=1.0)
    new = dual_penalty_update(state, 0.6, eta=10.0, gamma=0.5)
    assert new.c == 50.0


def test_dual_update_sufficient_progress_keeps_c():
    state = LagrangianState(lam=0.0, c=5.0, k=3, h_prev=1.0)
    new = dual_penalty_update(state, 0.4, eta=10.0, gamma=0.5)
    assert new.c == 5.0


def test_dual_update_bootstraps_c_from_zero():
    state = LagrangianState(lam=0.0, c=0.0, k=0, h_prev=None)
    s1 = dual_penalty_update(state, 1.0)
    assert s1.c == 0.0          # first outer iteration never scales
    s2 = dual_penalty_update(s1, 0.9)
    assert s2.c == 1.0          # stalled: zero penalty bootstrapped to one
    s3 = dual_penalty_update(s2, 0.8)
    assert s3.c == 10.0


def test_c_nondecreasing():
    rng = np.random.default_rng(7)
    state = LagrangianState.initial(rng)
    prev_c = state.c
    h = 1.0
    for _ in range(8):
        h *= rng.uniform(0.3, 0.9)
        state = dual_penalty_update(state, h)
        assert state.c >= prev_c
        prev_c = state.c


def test_initial_state():
    rng = np.random.default_rng(11)
    state = LagrangianState.initial(rng)
    assert 0.0 <= state.lam <= 1.0
    assert state.c == 0.0 and state.k == 0 and state.h_prev is None


def test_threshold_zero_matrix():
    edges, acyclic = threshold_dag(np.zeros((3, 3)), 0.1)
    assert edges == [] and acyclic


def test_threshold_lower_triangular():
    a = np.tril(np.full((4, 4), 0.5), k=-1)
    edges, acyclic = threshold_dag(a, 0.1)
    assert len(edges) == 6 and acyclic
    assert all(parent < child for parent, child, _ in edges)


def test_threshold_two_cycle_reported():
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    edges, acyclic = threshold_dag(a, 0.5)
    assert len(edges) == 2 and not acyclic


def test_threshold_requires_positive_eps():
    with pytest.raises(ValueError):
        threshold_dag(np.zeros((2, 2)), 0.0)


def test_is_acyclic():
    assert is_acyclic(3, [(0, 1), (1, 2)])
    assert not is_acyclic(3, [(0, 1), (1, 2), (2, 0)])


def test_topological_order_puts_parents_first():
    edges = [(3, 0), (0, 2), (3, 2), (1, 2), (4, 1)]
    order = topological_order(5, edges)
    assert sorted(order) == list(range(5))
    assert all(order.index(j) < order.index(i) for j, i in edges)


def test_topological_order_leaves_out_cycle_and_descendants():
    # 0 -> 1 -> 2 -> 1 is a cycle; 3 hangs below it, 4 is free
    order = topological_order(5, [(0, 1), (1, 2), (2, 1), (2, 3)])
    assert order == [0, 4]


@pytest.mark.parametrize("bad", [np.inf, np.nan])
@pytest.mark.parametrize("entry", [acyclicity, acyclicity_grad,
                                   lambda a: acyclicity_tensor(Tensor(a))])
def test_non_finite_adjacency_raises_numeric_error(entry, bad):
    with pytest.raises(NumericError, match="non-finite"):
        entry(np.array([[0.0, bad], [1.0, 0.0]]))
