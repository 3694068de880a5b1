"""Unit tests for the reverse-mode autograd engine (the test oracle in
``tests/reference/autograd.py``).

The load-bearing checks are gradient comparisons against central finite
differences for every op, including broadcasting adjoints.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference.autograd import Tensor, _unbroadcast, is_grad_enabled, no_grad


def numeric_grad(fn, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar-valued fn."""
    g = np.zeros_like(x, dtype=float)
    flat = x.ravel()
    gflat = g.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = fn(x)
        flat[i] = orig - eps
        lo = fn(x)
        flat[i] = orig
        gflat[i] = (hi - lo) / (2 * eps)
    return g


def check_op(op_name: str, shape=(3, 4), seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=shape)
    t = Tensor(x.copy(), requires_grad=True)
    out = getattr(t, op_name)()
    out.sum().backward()

    def f(arr):
        return getattr(Tensor(arr), op_name)().data.sum()

    expected = numeric_grad(f, x.copy())
    np.testing.assert_allclose(t.grad, expected, rtol=1e-5, atol=1e-7)


@pytest.mark.parametrize("op", ["relu", "tanh", "sigmoid", "swish", "pow2"])
def test_elementwise_op_gradients(op):
    check_op(op)


def test_log_softmax_gradient():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(5, 7))
    t = Tensor(x.copy(), requires_grad=True)
    # Weighted sum to make the gradient non-trivial.
    w = rng.normal(size=(5, 7))
    (t.log_softmax() * w).sum().backward()

    def f(arr):
        return (Tensor(arr).log_softmax().data * w).sum()

    np.testing.assert_allclose(t.grad, numeric_grad(f, x.copy()), rtol=1e-5, atol=1e-7)


def test_matmul_gradients():
    rng = np.random.default_rng(2)
    a = rng.normal(size=(4, 3))
    b = rng.normal(size=(3, 5))
    ta = Tensor(a.copy(), requires_grad=True)
    tb = Tensor(b.copy(), requires_grad=True)
    (ta @ tb).sum().backward()
    np.testing.assert_allclose(ta.grad, numeric_grad(lambda x: (x @ b).sum(), a.copy()), rtol=1e-6)
    np.testing.assert_allclose(tb.grad, numeric_grad(lambda x: (a @ x).sum(), b.copy()), rtol=1e-6)


def test_add_broadcast_bias_gradient():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(6, 4))
    b = rng.normal(size=(4,))
    tb = Tensor(b.copy(), requires_grad=True)
    (Tensor(x) + tb).sum().backward()
    # Adjoint of broadcasting a bias over 6 rows is a sum over rows.
    np.testing.assert_allclose(tb.grad, np.full(4, 6.0))


def test_mul_gradients_both_sides():
    rng = np.random.default_rng(4)
    a = rng.normal(size=(3, 3))
    b = rng.normal(size=(3, 3))
    ta = Tensor(a.copy(), requires_grad=True)
    tb = Tensor(b.copy(), requires_grad=True)
    (ta * tb).sum().backward()
    np.testing.assert_allclose(ta.grad, b)
    np.testing.assert_allclose(tb.grad, a)


def test_sub_and_neg():
    a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    b = Tensor(np.array([5.0, 5.0]), requires_grad=True)
    (a - b).sum().backward()
    np.testing.assert_allclose(a.grad, [1.0, 1.0])
    np.testing.assert_allclose(b.grad, [-1.0, -1.0])


def test_rsub_with_scalar():
    a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    (3.0 - a).sum().backward()
    np.testing.assert_allclose(a.grad, [-1.0, -1.0])


def test_mean_gradient():
    a = Tensor(np.ones((2, 5)), requires_grad=True)
    a.mean().backward()
    np.testing.assert_allclose(a.grad, np.full((2, 5), 0.1))


def test_gather_rows_gradient():
    x = np.arange(12, dtype=float).reshape(4, 3)
    t = Tensor(x, requires_grad=True)
    idx = np.array([0, 2, 1, 0])
    t.gather_rows(idx).sum().backward()
    expected = np.zeros((4, 3))
    expected[np.arange(4), idx] = 1.0
    np.testing.assert_allclose(t.grad, expected)


def test_gradient_accumulates_on_reuse():
    """A tensor used twice receives the sum of both paths' gradients."""
    a = Tensor(np.array([2.0]), requires_grad=True)
    out = a * 3.0 + a * 4.0
    out.sum().backward()
    np.testing.assert_allclose(a.grad, [7.0])


def test_diamond_graph_gradient():
    """x -> (u, v) -> w exercises topological ordering."""
    x = Tensor(np.array([1.5]), requires_grad=True)
    u = x * 2.0
    v = x * 3.0
    w = (u * v).sum()  # w = 6 x^2, dw/dx = 12 x
    w.backward()
    np.testing.assert_allclose(x.grad, [18.0])


def test_backward_requires_scalar_without_grad_arg():
    t = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ValueError):
        (t * 2.0).backward()


def test_backward_on_non_grad_tensor_raises():
    t = Tensor(np.ones(3))
    with pytest.raises(RuntimeError):
        t.backward()


def test_no_grad_disables_tape():
    with no_grad():
        assert not is_grad_enabled()
        t = Tensor(np.ones(3), requires_grad=True)
        out = t.relu()
        assert not out.requires_grad
        assert out._backward is None
    assert is_grad_enabled()


def test_no_grad_restores_on_exception():
    with pytest.raises(RuntimeError):
        with no_grad():
            raise RuntimeError("boom")
    assert is_grad_enabled()


def test_int_input_promoted_to_float():
    t = Tensor(np.array([1, 2, 3]))
    assert t.data.dtype.kind == "f"


def test_zero_grad():
    t = Tensor(np.ones(2), requires_grad=True)
    (t * 2.0).sum().backward()
    assert t.grad is not None
    t.zero_grad()
    assert t.grad is None


@given(
    rows=st.integers(1, 5),
    cols=st.integers(1, 5),
    extra=st.integers(0, 2),
)
@settings(max_examples=30, deadline=None)
def test_unbroadcast_inverts_broadcast(rows, cols, extra):
    """_unbroadcast(sum-adjoint) always recovers the original shape."""
    shape = (rows, cols)
    grad_shape = (3,) * extra + (rows, cols)
    grad = np.ones(grad_shape)
    out = _unbroadcast(grad, shape)
    assert out.shape == shape
    np.testing.assert_allclose(out, np.full(shape, 3.0**extra))


def test_unbroadcast_size_one_axis():
    grad = np.ones((4, 5))
    out = _unbroadcast(grad, (4, 1))
    assert out.shape == (4, 1)
    np.testing.assert_allclose(out, np.full((4, 1), 5.0))


@given(st.lists(st.floats(-50, 50), min_size=1, max_size=20))
@settings(max_examples=50, deadline=None)
def test_sigmoid_stable_and_bounded(values):
    out = Tensor(np.array(values)).sigmoid().data
    assert np.all(out >= 0.0) and np.all(out <= 1.0)
    assert np.all(np.isfinite(out))


def test_interior_gradients_are_freed():
    """Interior node .grad buffers are dropped after backward (memory)."""
    x = Tensor(np.ones(4), requires_grad=True)
    mid = x * 2.0
    out = mid.sum()
    out.backward()
    assert mid.grad is None
    assert x.grad is not None
