"""Dense-layer linear algebra: the products, transposes and bias rows that
``forward`` and ``backward`` compute with numpy directly, checked through
linear ("none") layers by shape, hand values and algebraic identities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deeplda import Network, NetworkSpec, ShapeError, backward, dense, forward


def linear(weights, bias=None) -> Network:
    """One linear dense layer with the given weights and bias row."""
    w = np.asarray(weights, dtype=np.float64)
    b = np.zeros((1, w.shape[1])) if bias is None else np.asarray(bias, dtype=np.float64)
    return Network(NetworkSpec(w.shape[0], (dense(w.shape[1]),)), [w], [b])


def weight_gradient(a: np.ndarray, loss_grad: np.ndarray) -> np.ndarray:
    """backward's weight gradient of one linear layer fed ``a``."""
    net = linear(np.zeros((a.shape[1], loss_grad.shape[1])))
    _, cache = forward(net, a)
    return backward(net, cache, loss_grad).weights[0]


def test_matmul_identity():
    a = np.array([[3.0, 4.0], [5.0, 6.0]])
    out, _ = forward(linear(np.eye(2)), a)
    assert np.array_equal(out, a)


def test_matmul_zero_column():
    out, _ = forward(linear([[0.0], [0.0]]), np.array([[1.0, 2.0]]))
    assert out.shape == (1, 1)
    assert out[0, 0] == 0.0


def test_matmul_hand_values():
    out, _ = forward(linear([[5.0, 6.0], [7.0, 8.0]]), np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert out.tolist() == [[19.0, 22.0], [43.0, 50.0]]


def test_matmul_shape_mismatch_names_both_shapes():
    with pytest.raises(ShapeError) as err:
        forward(linear(np.ones((2, 3))), np.ones((2, 3)))
    assert "(2, 3)" in str(err.value)
    assert "(n, 2)" in str(err.value)


def test_transpose_involution_and_row_to_column():
    a = np.array([[1.0, 2.0, 3.0]])
    dw = weight_gradient(a, np.array([[1.0]]))
    assert dw.tolist() == [[1.0], [2.0], [3.0]]
    assert np.array_equal(dw.T, a)


def test_transpose_swaps_indices():
    g = np.random.default_rng(0)
    a = g.normal(size=(2, 3))
    t = weight_gradient(a, np.eye(2))
    assert t.shape == (3, 2)
    for i in range(2):
        for j in range(3):
            assert t[j, i] == a[i, j]


def test_add_row_broadcast_hand_values():
    a = np.array([[1.0, 1.0], [2.0, 2.0]])
    out, _ = forward(linear(np.eye(2), [[10.0, 20.0]]), a)
    assert out.tolist() == [[11.0, 21.0], [12.0, 22.0]]


def test_add_row_broadcast_zero_bias_is_identity():
    a = np.array([[1.5, -2.5], [0.0, 3.0]])
    w = np.array([[0.25, -1.0], [2.0, 0.5]])
    out, _ = forward(linear(w, np.zeros((1, 2))), a)
    assert np.array_equal(out, a @ w)


def test_add_row_broadcast_single_row_is_plain_addition():
    a = np.array([[1.0, 2.0, 3.0]])
    bias = np.array([[0.5, 0.5, 0.5]])
    out, _ = forward(linear(np.eye(3), bias), a)
    assert np.array_equal(out, a + bias)


def test_add_row_broadcast_column_mismatch():
    spec = NetworkSpec(2, (dense(3),))
    with pytest.raises(ShapeError):
        Network(spec, [np.ones((2, 3))], [np.ones((1, 2))])
    with pytest.raises(ShapeError):
        Network(spec, [np.ones((2, 3))], [np.ones((2, 3))])


def test_as_matrix_coerces_nested_lists():
    out, _ = forward(linear(np.eye(2)), [[1, 2], [3, 4]])
    assert out.dtype == np.float64
    assert out.shape == (2, 2)
    assert out.tolist() == [[1.0, 2.0], [3.0, 4.0]]


small = st.integers(min_value=1, max_value=5)


@given(n=small, k=small, m=small, p=small, data=st.data())
@settings(max_examples=50, deadline=None)
def test_matmul_associativity(n, k, m, p, data):
    nums = st.floats(min_value=-3, max_value=3, allow_nan=False)
    a = np.array(data.draw(st.lists(st.lists(nums, min_size=k, max_size=k),
                                    min_size=n, max_size=n)))
    b = np.array(data.draw(st.lists(st.lists(nums, min_size=m, max_size=m),
                                    min_size=k, max_size=k)))
    c = np.array(data.draw(st.lists(st.lists(nums, min_size=p, max_size=p),
                                    min_size=m, max_size=m)))
    stack = Network(NetworkSpec(k, (dense(m), dense(p))), [b, c],
                    [np.zeros((1, m)), np.zeros((1, p))])
    left, _ = forward(stack, a)
    right, _ = forward(linear(b @ c), a)
    assert np.allclose(left, right, rtol=1e-9, atol=1e-9)


@given(n=small, k=small, m=small, data=st.data())
@settings(max_examples=50, deadline=None)
def test_transpose_of_product_is_reversed_product_of_transposes(n, k, m, data):
    ints = st.integers(min_value=-9, max_value=9)
    a = np.array(data.draw(st.lists(st.lists(ints, min_size=k, max_size=k),
                                    min_size=n, max_size=n)), dtype=np.float64)
    g = np.array(data.draw(st.lists(st.lists(ints, min_size=m, max_size=m),
                                    min_size=n, max_size=n)), dtype=np.float64)
    assert np.array_equal(weight_gradient(a, g).T, g.T @ a)
