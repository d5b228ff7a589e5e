"""Tensor core: arithmetic, broadcasting, reductions, shape ops, autodiff."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autograd import (
    Tensor,
    as_tensor,
    concatenate,
    gradient_check,
    is_grad_enabled,
    no_grad,
    ones,
    stack,
    tensor,
    where,
    zeros,
    set_default_dtype,
    get_default_dtype,
)


def make(shape, seed=0, requires_grad=True):
    data = np.random.default_rng(seed).normal(size=shape)
    return Tensor(data, requires_grad=requires_grad)


class TestConstruction:
    def test_from_list(self):
        t = Tensor([1.0, 2.0, 3.0])
        assert t.shape == (3,)
        assert t.dtype == np.float32

    def test_from_tensor_shares_data(self):
        a = Tensor([1.0, 2.0])
        b = Tensor(a)
        assert b.data is a.data

    def test_integer_arrays_preserved(self):
        t = Tensor(np.array([1, 2, 3]))
        assert t.dtype.kind == "i"

    def test_rejects_object_dtype(self):
        with pytest.raises(TypeError):
            Tensor(np.array(["a", "b"], dtype=object))

    def test_constructors(self):
        assert zeros((2, 3)).data.sum() == 0
        assert ones((2, 3)).data.sum() == 6
        assert tensor([1.0]).requires_grad is False

    def test_repr_mentions_requires_grad(self):
        assert "requires_grad" in repr(Tensor([1.0], requires_grad=True))

    def test_item_scalar(self):
        assert Tensor([3.5]).item() == 3.5

    def test_len_and_size(self):
        t = zeros((4, 2))
        assert len(t) == 4
        assert t.size == 8
        assert t.ndim == 2

    def test_default_dtype_switch(self):
        set_default_dtype(np.float32)
        assert Tensor([1.0]).dtype == np.float32
        assert get_default_dtype() == np.float32
        set_default_dtype(np.float64)

    def test_set_default_dtype_rejects_int(self):
        with pytest.raises(ValueError):
            set_default_dtype(np.int32)


class TestArithmetic:
    def test_add_values(self):
        assert np.allclose((Tensor([1.0, 2.0]) + Tensor([3.0, 4.0])).data, [4, 6])

    def test_scalar_radd(self):
        assert np.allclose((1.0 + Tensor([1.0])).data, [2.0])

    def test_sub_rsub(self):
        assert np.allclose((5.0 - Tensor([2.0])).data, [3.0])
        assert np.allclose((Tensor([5.0]) - 2.0).data, [3.0])

    def test_mul_div(self):
        assert np.allclose((Tensor([6.0]) / Tensor([2.0])).data, [3.0])
        assert np.allclose((2.0 / Tensor([4.0])).data, [0.5])

    def test_pow_scalar_only(self):
        with pytest.raises(TypeError):
            Tensor([2.0]) ** Tensor([2.0])

    def test_neg(self):
        assert np.allclose((-Tensor([1.0, -2.0])).data, [-1.0, 2.0])

    @pytest.mark.usefixtures("float64")
    def test_add_backward(self):
        gradient_check(lambda a, b: a + b, [make((3, 2)), make((3, 2), 1)])

    @pytest.mark.usefixtures("float64")
    def test_mul_broadcast_backward(self):
        gradient_check(lambda a, b: a * b, [make((3, 2)), make((2,), 1)])

    @pytest.mark.usefixtures("float64")
    def test_div_backward(self):
        b = make((3, 2), 1)
        b.data += 3.0  # keep away from zero
        gradient_check(lambda a, b: a / b, [make((3, 2)), b])

    @pytest.mark.usefixtures("float64")
    def test_pow_backward(self):
        a = make((4,))
        a.data = np.abs(a.data) + 0.5
        gradient_check(lambda a: a**3, [a])

    def test_broadcast_scalar_grad_shape(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        b = Tensor(np.array(2.0), requires_grad=True)
        (a * b).sum().backward()
        assert b.grad.shape == ()
        assert b.grad == 6.0


class TestMatmul:
    @pytest.mark.parametrize(
        "shape_a,shape_b",
        [((3, 4), (4, 5)), ((4,), (4, 5)), ((3, 4), (4,)), ((4,), (4,)),
         ((2, 3, 4), (2, 4, 5)), ((2, 3, 4), (4, 5)), ((2, 3, 4), (4,))],
    )
    @pytest.mark.usefixtures("float64")
    def test_matmul_grad(self, shape_a, shape_b):
        gradient_check(lambda a, b: a.matmul(b), [make(shape_a), make(shape_b, 1)])

    def test_matmul_value(self):
        a, b = np.ones((2, 3)), np.ones((3, 4))
        assert np.allclose((Tensor(a) @ Tensor(b)).data, a @ b)


class TestNonlinearities:
    @pytest.mark.usefixtures("float64")
    @pytest.mark.parametrize("op", ["exp", "tanh", "sigmoid", "relu", "abs", "sqrt"])
    def test_unary_grad(self, op):
        a = make((3, 4))
        if op == "sqrt":
            a.data = np.abs(a.data) + 0.5
        gradient_check(lambda a: getattr(a, op)(), [a])

    @pytest.mark.usefixtures("float64")
    def test_log_grad(self):
        a = make((3, 4))
        a.data = np.abs(a.data) + 0.5
        gradient_check(lambda a: a.log(), [a])

    def test_clip_values_and_grad_mask(self):
        t = Tensor([-2.0, 0.0, 2.0], requires_grad=True)
        out = t.clip(-1.0, 1.0)
        assert np.allclose(out.data, [-1.0, 0.0, 1.0])
        out.sum().backward()
        assert np.allclose(t.grad, [0.0, 1.0, 0.0])

    def test_maximum_grad_routing(self):
        a = Tensor([1.0, 5.0], requires_grad=True)
        b = Tensor([2.0, 3.0], requires_grad=True)
        a.maximum(b).sum().backward()
        assert np.allclose(a.grad, [0.0, 1.0])
        assert np.allclose(b.grad, [1.0, 0.0])


class TestReductions:
    @pytest.mark.usefixtures("float64")
    @pytest.mark.parametrize("axis,keepdims", [(None, False), (0, False), (1, True), ((-1,), False)])
    def test_sum_grad(self, axis, keepdims):
        gradient_check(lambda a: a.sum(axis=axis, keepdims=keepdims), [make((3, 4))])

    def test_mean_value(self):
        assert Tensor([2.0, 4.0]).mean().item() == 3.0

    @pytest.mark.usefixtures("float64")
    def test_mean_axis_grad(self):
        gradient_check(lambda a: a.mean(axis=0), [make((3, 4))])

    def test_max_grad_ties_split(self):
        t = Tensor([[1.0, 1.0]], requires_grad=True)
        t.max(axis=1).backward(np.array([1.0]))
        assert np.allclose(t.grad, [[0.5, 0.5]])

    def test_var(self):
        data = np.random.default_rng(0).normal(size=(5, 6))
        assert np.allclose(Tensor(data).var(axis=1).data, data.var(axis=1))


class TestShapes:
    @pytest.mark.usefixtures("float64")
    def test_reshape_grad(self):
        gradient_check(lambda a: a.reshape(4, 3), [make((3, 4))])

    @pytest.mark.usefixtures("float64")
    def test_transpose_grad(self):
        gradient_check(lambda a: a.transpose(1, 0, 2), [make((2, 3, 4))])

    def test_T(self):
        assert Tensor(np.ones((2, 3))).T.shape == (3, 2)

    def test_swapaxes(self):
        assert make((2, 3, 4)).swapaxes(0, 2).shape == (4, 3, 2)

    def test_flatten_and_expand(self):
        t = make((2, 3))
        assert t.flatten().shape == (6,)
        assert t.expand_dims(1).shape == (2, 1, 3)
        assert t.expand_dims(-1).shape == (2, 3, 1)

    def test_getitem_grad_scatter(self):
        t = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        out = t[np.array([0, 0, 1])]
        out.sum().backward()
        assert np.allclose(t.grad, [[2, 2, 2], [1, 1, 1]])

    @pytest.mark.usefixtures("float64")
    def test_getitem_slice_grad(self):
        gradient_check(lambda a: a[:, 1:3], [make((3, 5))])

    @pytest.mark.usefixtures("float64")
    def test_getitem_basic_index_grad(self):
        t = Tensor(np.zeros((3, 4, 5)), requires_grad=True)
        out = t[1, ..., None, 1:4]
        grad = np.arange(12.0).reshape(out.shape)
        out.backward(grad)
        expected = np.zeros((3, 4, 5))
        expected[1, :, 1:4] = grad[:, 0]
        assert np.array_equal(t.grad, expected)
        gradient_check(lambda a: a[np.int64(2), ::2, None], [make((3, 5, 2))])

    def test_getitem_fancy_duplicates_accumulate(self):
        t = Tensor(np.arange(12.0).reshape(4, 3), requires_grad=True)
        t[[0, 0, 2]].backward(np.ones((3, 3)))
        assert np.array_equal(t.grad[:, 0], [2.0, 0.0, 1.0, 0.0])
        t.zero_grad()
        rows, cols = np.array([1, 1, 3]), np.array([2, 2, 0])
        t[rows, cols].backward(np.array([1.0, 2.0, 4.0]))
        assert t.grad[1, 2] == 3.0 and t.grad[3, 0] == 4.0 and t.grad.sum() == 7.0

    def test_bool_index_is_not_basic(self):
        from repro.autograd.tensor import _is_basic_index

        assert _is_basic_index((0, slice(None), None, Ellipsis, np.int64(1)))
        for index in (True, np.True_, (0, False), np.array([True, False]), [0, 0], np.array(1)):
            assert not _is_basic_index(index)
        t = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        t[True].backward(np.ones((1, 2, 3)))
        assert np.array_equal(t.grad, np.ones((2, 3)))
        t.zero_grad()
        mask = np.array([[True, False, True], [False, False, True]])
        t[mask].backward(np.array([1.0, 2.0, 3.0]))
        assert np.array_equal(t.grad, [[1.0, 0.0, 2.0], [0.0, 0.0, 3.0]])


class TestGraph:
    def test_backward_requires_grad(self):
        with pytest.raises(RuntimeError):
            Tensor([1.0]).backward()

    def test_backward_nonscalar_needs_grad(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(RuntimeError):
            (t * 2).backward()

    def test_backward_grad_shape_mismatch(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ValueError):
            (t * 2).backward(np.ones(3))

    def test_grad_accumulates_on_reuse(self):
        t = Tensor([1.0], requires_grad=True)
        (t + t).backward(np.array([1.0]))
        assert np.allclose(t.grad, [2.0])

    def test_no_grad_blocks_graph(self):
        t = Tensor([1.0], requires_grad=True)
        with no_grad():
            assert not is_grad_enabled()
            out = t * 2
        assert not out.requires_grad

    def test_detach(self):
        t = Tensor([1.0], requires_grad=True)
        d = t.detach()
        assert not d.requires_grad
        assert d.data is t.data

    def test_copy_is_independent(self):
        t = Tensor([1.0])
        c = t.copy()
        c.data[0] = 5.0
        assert t.data[0] == 1.0

    def test_zero_grad(self):
        t = Tensor([1.0], requires_grad=True)
        (t * 2).backward(np.array([1.0]))
        t.zero_grad()
        assert t.grad is None

    def test_leaves_never_share_a_grad_array(self):
        from repro.optim import clip_grad_norm

        a = Tensor([3.0, 4.0], requires_grad=True)
        b = Tensor([1.0, 1.0], requires_grad=True)
        (a + b).backward(np.array([3.0, 4.0]))
        assert a.grad is not b.grad
        clip_grad_norm([a], max_norm=1.0)
        assert np.allclose(a.grad, [0.6, 0.8])
        assert np.array_equal(b.grad, [3.0, 4.0])

    def test_external_backward_grad_is_not_aliased(self):
        leaf = Tensor([1.0, 2.0], requires_grad=True)
        grad = np.array([1.0, 1.0])
        leaf.backward(grad)
        node = leaf * 2.0
        node_grad = np.array([1.0, 1.0])
        node.backward(node_grad)
        grad[:] = 7.0
        node_grad[:] = 7.0
        assert np.array_equal(leaf.grad, [3.0, 3.0])
        assert np.array_equal(node.grad, [1.0, 1.0])

    def test_intermediate_grads_may_alias(self):
        """A non-leaf hands on the gradient it is given instead of copying it.

        Interior ``.grad`` is released by ``backward``, so the test records
        the array each interior backward closure receives.
        """
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        mid = a * 2.0
        flat = mid.reshape(6)
        received = {}
        for key, node in (("mid", mid), ("flat", flat)):
            inner = node._backward

            def record(grad, key=key, inner=inner):
                received[key] = grad
                inner(grad)

            node._backward = record
        flat.sum().backward()
        assert np.shares_memory(received["mid"], received["flat"])
        assert not np.shares_memory(a.grad, received["mid"])

    def test_backward_releases_interior_nodes(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        mid = a * 3.0
        out = (mid * mid).sum()
        out.backward()
        assert np.array_equal(a.grad, [6.0 * 3.0, 12.0 * 3.0])
        assert np.array_equal(out.grad, 1.0)
        assert np.array_equal(mid.data, [3.0, 6.0])
        for node in (mid, out):
            assert node._parents == ()
        assert mid.grad is None

    def test_second_backward_on_root_raises(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        out = (a * 3.0).sum()
        out.backward()
        grads = (a.grad.copy(), out.grad.copy())
        with pytest.raises(RuntimeError, match="released"):
            out.backward()
        assert np.array_equal(a.grad, grads[0])
        assert np.array_equal(out.grad, grads[1])

    def test_backward_through_released_interior_raises(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([5.0, 7.0], requires_grad=True)
        mid = a * 3.0
        (mid * 2.0).sum().backward()
        a_grad = a.grad.copy()
        again = (mid * b).sum()
        with pytest.raises(RuntimeError, match="released"):
            again.backward()
        assert np.array_equal(a.grad, a_grad)
        assert b.grad is None and mid.grad is None and again.grad is None

    def test_diamond_graph_grad(self):
        t = Tensor([2.0], requires_grad=True)
        a = t * 3
        b = t * 4
        (a + b).backward(np.array([1.0]))
        assert np.allclose(t.grad, [7.0])


class TestFreeFunctions:
    @pytest.mark.usefixtures("float64")
    def test_concatenate_grad(self):
        gradient_check(
            lambda a, b: concatenate([a, b], axis=1), [make((2, 3)), make((2, 2), 1)]
        )

    @pytest.mark.usefixtures("float64")
    def test_stack_grad(self):
        gradient_check(lambda a, b: stack([a, b], axis=0), [make((2, 3)), make((2, 3), 1)])

    @pytest.mark.usefixtures("float64")
    def test_where_grad(self):
        cond = np.array([True, False, True])
        gradient_check(lambda a, b: where(cond, a, b), [make((3,)), make((3,), 1)])

    def test_where_values(self):
        out = where(np.array([True, False]), Tensor([1.0, 1.0]), Tensor([2.0, 2.0]))
        assert np.allclose(out.data, [1.0, 2.0])

    def test_as_tensor_passthrough(self):
        t = Tensor([1.0])
        assert as_tensor(t) is t

    def test_comparisons_return_numpy(self):
        mask = Tensor([1.0, 3.0]) > Tensor([2.0, 2.0])
        assert isinstance(mask, np.ndarray)
        assert mask.tolist() == [False, True]


@settings(max_examples=25, deadline=None)
@given(
    rows=st.integers(1, 4),
    cols=st.integers(1, 4),
    seed=st.integers(0, 10_000),
)
def test_property_add_mul_grads(rows, cols, seed):
    """d/da sum(a*b + a) == b + 1 for any shapes and values."""
    rng = np.random.default_rng(seed)
    a = Tensor(rng.normal(size=(rows, cols)), requires_grad=True)
    b = Tensor(rng.normal(size=(rows, cols)))
    (a * b + a).sum().backward()
    assert np.allclose(a.grad, b.data + 1.0)


@settings(max_examples=25, deadline=None)
@given(
    batch=st.integers(1, 3),
    rows=st.integers(1, 3),
    seed=st.integers(0, 10_000),
)
def test_property_broadcast_grad_reduces(batch, rows, seed):
    """Gradient w.r.t. a broadcast operand sums over broadcast axes."""
    rng = np.random.default_rng(seed)
    a = Tensor(rng.normal(size=(batch, rows, 2)), requires_grad=True)
    b = Tensor(rng.normal(size=(2,)), requires_grad=True)
    (a * b).sum().backward()
    assert b.grad.shape == (2,)
    assert np.allclose(b.grad, a.data.sum(axis=(0, 1)))
