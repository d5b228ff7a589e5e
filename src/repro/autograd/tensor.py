"""The :class:`Tensor` type and its primitive differentiable operations.

Gradients are accumulated with reverse-mode automatic differentiation over
a dynamically built computation graph.  Every operation records a backward
closure on the output tensor; :meth:`Tensor.backward` walks the graph in
reverse topological order.

Broadcasting follows numpy semantics; gradients flowing into a broadcast
operand are reduced back to the operand's shape by :func:`_unbroadcast`.

Gradient ownership: a non-leaf tensor keeps the first gradient it
receives as is, so the gradients handed between intermediate tensors
may alias each other (a reshape's gradient is a view of its output's),
and no backward closure mutates a gradient in place.  A leaf (a tensor
with no parents, e.g. a parameter) owns its ``.grad``: it copies the
first gradient it receives, so optimizers may clip it in place and the
data parallel trainer may replace it with a view of its own buffer.  A
gradient passed to :meth:`Tensor.backward` from outside is copied too.

:meth:`Tensor.backward` releases the graph as it walks it: once a
non-leaf node has handed its gradient on, it drops its ``.grad``, its
backward closure and its parent edges, so a step holds its activations
but not every interior gradient at once.  The tensor ``backward`` was
called on keeps its ``.grad``, leaves keep theirs, and every tensor
keeps its ``.data``.  A released node raises ``RuntimeError`` if a
later ``backward`` reaches it, before any gradient is touched.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

#: The compute dtype: every float a model holds or computes is float32.
#: :func:`set_default_dtype` exists only so tests can run float64
#: gradient checks.
DEFAULT_DTYPE = np.float32

ArrayLike = Union["Tensor", np.ndarray, float, int, list, tuple]


def set_default_dtype(dtype) -> None:
    """Set the global float dtype (``np.float32`` or ``np.float64``).

    A test hook for float64 gradient checks; program code never calls it.
    """
    global DEFAULT_DTYPE
    dtype = np.dtype(dtype).type
    if dtype not in (np.float32, np.float64):
        raise ValueError("dtype must be float32 or float64")
    DEFAULT_DTYPE = dtype


def get_default_dtype():
    """Return the active float dtype."""
    return DEFAULT_DTYPE


def as_compute_array(value) -> np.ndarray:
    """``value`` as an array, a float array cast to the compute dtype."""
    array = np.asarray(value)
    if array.dtype.kind == "f" and array.dtype != DEFAULT_DTYPE:
        array = array.astype(DEFAULT_DTYPE)
    return array


_grad_state = threading.local()


def is_grad_enabled() -> bool:
    """Return whether gradient tracking is currently enabled."""
    return getattr(_grad_state, "enabled", True)


@contextlib.contextmanager
def no_grad():
    """Context manager that disables graph construction (inference mode)."""
    previous = is_grad_enabled()
    _grad_state.enabled = False
    try:
        yield
    finally:
        _grad_state.enabled = previous


def _is_basic_index(index) -> bool:
    """Whether ``x[index]`` is numpy basic indexing (a view, no repeats).

    Ints, slices, ``None`` and ``Ellipsis``, alone or in a tuple.  Bools
    are ints to Python but index numpy as masks, so they are excluded.
    """
    if isinstance(index, tuple):
        return all(_is_basic_index(item) for item in index)
    if isinstance(index, (bool, np.bool_)):
        return False
    return index is None or index is Ellipsis or isinstance(index, (int, np.integer, slice))


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so that it has ``shape``, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum over leading dimensions that were added by broadcasting.
    extra_dims = grad.ndim - len(shape)
    if extra_dims > 0:
        grad = grad.sum(axis=tuple(range(extra_dims)))
    # Sum over dimensions that were broadcast from size 1.
    axes = tuple(i for i, size in enumerate(shape) if size == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _released_backward(grad) -> None:
    """The backward closure of a node whose graph a backward pass released."""
    raise RuntimeError(
        "backward() reached a graph released by an earlier backward(); "
        "run the forward again to backpropagate through it"
    )


class Tensor:
    """A numpy-backed tensor participating in reverse-mode autodiff.

    Parameters
    ----------
    data:
        Array-like payload; converted to a float numpy array unless an
        integer array is explicitly provided (used for index tensors).
    requires_grad:
        Whether gradients should be accumulated into ``self.grad``.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")

    def __init__(self, data: ArrayLike, requires_grad: bool = False, name: str = ""):
        if isinstance(data, Tensor):
            data = data.data
        array = as_compute_array(data)
        if array.dtype.kind not in ("f", "i", "u", "b"):
            raise TypeError(f"unsupported tensor dtype: {array.dtype}")
        self.data: np.ndarray = array
        self.requires_grad: bool = bool(requires_grad) and is_grad_enabled()
        self.grad: Optional[np.ndarray] = None
        self._backward = None
        self._parents: Tuple[Tensor, ...] = ()
        self.name = name

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({np.array2string(self.data, precision=4, threshold=16)}{grad_flag})"

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def detach(self) -> "Tensor":
        """Return a tensor sharing data but severed from the graph."""
        return Tensor(self.data, requires_grad=False)

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy(), requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------
    # Graph plumbing
    # ------------------------------------------------------------------
    def _make_child(self, data: np.ndarray, parents: Sequence["Tensor"]) -> "Tensor":
        tracked = is_grad_enabled() and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=False)
        out.requires_grad = tracked
        if tracked:
            out._parents = tuple(parents)
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        """Add ``grad`` into ``self.grad`` (see the ownership rule above)."""
        if self.grad is None:
            if self._parents:
                self.grad = np.asarray(grad, dtype=DEFAULT_DTYPE)
            else:
                self.grad = np.array(grad, dtype=DEFAULT_DTYPE, copy=True)
        else:
            self.grad = self.grad + grad

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Backpropagate from this tensor through the recorded graph.

        Leaves accumulate into their ``.grad``; this tensor keeps the
        gradient it started from.  The graph is released on the way:
        every non-leaf node, this one included, drops its backward
        closure and parent edges once it has run, and every non-leaf
        other than this one drops its ``.grad``.  A second ``backward``
        through a released node raises ``RuntimeError`` and changes no
        gradient.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be provided for non-scalar outputs")
            grad = np.ones_like(self.data, dtype=DEFAULT_DTYPE)
        else:
            grad = np.array(grad, dtype=DEFAULT_DTYPE, copy=True)
            if grad.shape != self.data.shape:
                raise ValueError(
                    f"gradient shape {grad.shape} does not match tensor shape {self.data.shape}"
                )

        order: List[Tensor] = []
        visited = set()
        stack: List[Tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            if node._backward is _released_backward:
                _released_backward(None)
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate(grad)
        while order:
            node = order.pop()
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
            if node._parents:
                node._backward = _released_backward
                node._parents = ()
                if node is not self:
                    node.grad = None

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: ArrayLike) -> "Tensor":
        other = as_tensor(other)
        out = self._make_child(self.data + other.data, (self, other))
        if out.requires_grad:
            a, b = self, other

            def backward(grad: np.ndarray) -> None:
                if a.requires_grad:
                    a._accumulate(_unbroadcast(grad, a.shape))
                if b.requires_grad:
                    b._accumulate(_unbroadcast(grad, b.shape))

            out._backward = backward
        return out

    def __radd__(self, other: ArrayLike) -> "Tensor":
        return self.__add__(other)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        return self.__add__(as_tensor(other).__neg__())

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return as_tensor(other).__sub__(self)

    def __neg__(self) -> "Tensor":
        out = self._make_child(-self.data, (self,))
        if out.requires_grad:
            a = self

            def backward(grad: np.ndarray) -> None:
                a._accumulate(-grad)

            out._backward = backward
        return out

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = as_tensor(other)
        out = self._make_child(self.data * other.data, (self, other))
        if out.requires_grad:
            a, b = self, other

            def backward(grad: np.ndarray) -> None:
                if a.requires_grad:
                    a._accumulate(_unbroadcast(grad * b.data, a.shape))
                if b.requires_grad:
                    b._accumulate(_unbroadcast(grad * a.data, b.shape))

            out._backward = backward
        return out

    def __rmul__(self, other: ArrayLike) -> "Tensor":
        return self.__mul__(other)

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = as_tensor(other)
        out = self._make_child(self.data / other.data, (self, other))
        if out.requires_grad:
            a, b = self, other

            def backward(grad: np.ndarray) -> None:
                if a.requires_grad:
                    a._accumulate(_unbroadcast(grad / b.data, a.shape))
                if b.requires_grad:
                    b._accumulate(_unbroadcast(-grad * a.data / (b.data**2), b.shape))

            out._backward = backward
        return out

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return as_tensor(other).__truediv__(self)

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        out = self._make_child(self.data**exponent, (self,))
        if out.requires_grad:
            a = self

            def backward(grad: np.ndarray) -> None:
                a._accumulate(grad * exponent * a.data ** (exponent - 1))

            out._backward = backward
        return out

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        return self.matmul(other)

    def matmul(self, other: ArrayLike) -> "Tensor":
        """Matrix product supporting batched operands (numpy @ semantics)."""
        other = as_tensor(other)
        out = self._make_child(self.data @ other.data, (self, other))
        if out.requires_grad:
            a, b = self, other

            def backward(grad: np.ndarray) -> None:
                if a.requires_grad:
                    if b.data.ndim == 1:
                        grad_a = np.multiply.outer(grad, b.data) if a.data.ndim > 1 else grad * b.data
                        if a.data.ndim == 1:
                            grad_a = grad * b.data
                    else:
                        grad_mat = grad[..., None, :] if a.data.ndim == 1 else grad
                        grad_a = grad_mat @ np.swapaxes(b.data, -1, -2)
                        if a.data.ndim == 1:
                            grad_a = grad_a.reshape(a.shape)
                    a._accumulate(_unbroadcast(np.asarray(grad_a), a.shape))
                if b.requires_grad:
                    if a.data.ndim == 1:
                        grad_b = np.multiply.outer(a.data, grad)
                        if b.data.ndim == 1:
                            grad_b = a.data * grad
                    else:
                        grad_mat = grad[..., :, None] if b.data.ndim == 1 else grad
                        grad_b = np.swapaxes(a.data, -1, -2) @ grad_mat
                        if b.data.ndim == 1:
                            grad_b = grad_b.sum(axis=tuple(range(grad_b.ndim - 2))).reshape(b.shape)
                    b._accumulate(_unbroadcast(np.asarray(grad_b), b.shape))

            out._backward = backward
        return out

    # ------------------------------------------------------------------
    # Elementwise nonlinearities
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        value = np.exp(self.data)
        out = self._make_child(value, (self,))
        if out.requires_grad:
            a = self

            def backward(grad: np.ndarray) -> None:
                a._accumulate(grad * value)

            out._backward = backward
        return out

    def log(self) -> "Tensor":
        out = self._make_child(np.log(self.data), (self,))
        if out.requires_grad:
            a = self

            def backward(grad: np.ndarray) -> None:
                a._accumulate(grad / a.data)

            out._backward = backward
        return out

    def sqrt(self) -> "Tensor":
        return self**0.5

    def tanh(self) -> "Tensor":
        value = np.tanh(self.data)
        out = self._make_child(value, (self,))
        if out.requires_grad:
            a = self

            def backward(grad: np.ndarray) -> None:
                a._accumulate(grad * (1.0 - value**2))

            out._backward = backward
        return out

    def sigmoid(self) -> "Tensor":
        value = 1.0 / (1.0 + np.exp(-self.data))
        out = self._make_child(value, (self,))
        if out.requires_grad:
            a = self

            def backward(grad: np.ndarray) -> None:
                a._accumulate(grad * value * (1.0 - value))

            out._backward = backward
        return out

    def relu(self) -> "Tensor":
        mask = self.data > 0
        out = self._make_child(self.data * mask, (self,))
        if out.requires_grad:
            a = self

            def backward(grad: np.ndarray) -> None:
                a._accumulate(grad * mask)

            out._backward = backward
        return out

    def abs(self) -> "Tensor":
        sign = np.sign(self.data)
        out = self._make_child(np.abs(self.data), (self,))
        if out.requires_grad:
            a = self

            def backward(grad: np.ndarray) -> None:
                a._accumulate(grad * sign)

            out._backward = backward
        return out

    def clip(self, low: Optional[float], high: Optional[float]) -> "Tensor":
        value = np.clip(self.data, low, high)
        mask = np.ones_like(self.data)
        if low is not None:
            mask = mask * (self.data >= low)
        if high is not None:
            mask = mask * (self.data <= high)
        out = self._make_child(value, (self,))
        if out.requires_grad:
            a = self

            def backward(grad: np.ndarray) -> None:
                a._accumulate(grad * mask)

            out._backward = backward
        return out

    def maximum(self, other: ArrayLike) -> "Tensor":
        other = as_tensor(other)
        out = self._make_child(np.maximum(self.data, other.data), (self, other))
        if out.requires_grad:
            a, b = self, other
            mask = a.data >= b.data

            def backward(grad: np.ndarray) -> None:
                if a.requires_grad:
                    a._accumulate(_unbroadcast(grad * mask, a.shape))
                if b.requires_grad:
                    b._accumulate(_unbroadcast(grad * ~mask, b.shape))

            out._backward = backward
        return out

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out = self._make_child(self.data.sum(axis=axis, keepdims=keepdims), (self,))
        if out.requires_grad:
            a = self
            in_shape = a.shape

            def backward(grad: np.ndarray) -> None:
                g = grad
                if axis is not None and not keepdims:
                    axes = axis if isinstance(axis, tuple) else (axis,)
                    axes = tuple(ax % len(in_shape) for ax in axes)
                    for ax in sorted(axes):
                        g = np.expand_dims(g, ax)
                a._accumulate(np.broadcast_to(g, in_shape).copy())

            out._backward = backward
        return out

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.data.shape[ax] for ax in axes]))
        return self.sum(axis=axis, keepdims=keepdims) / float(count)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        value = self.data.max(axis=axis, keepdims=keepdims)
        out = self._make_child(value, (self,))
        if out.requires_grad:
            a = self

            def backward(grad: np.ndarray) -> None:
                g = grad
                v = value
                if axis is not None and not keepdims:
                    axes = axis if isinstance(axis, tuple) else (axis,)
                    axes = tuple(ax % a.data.ndim for ax in axes)
                    for ax in sorted(axes):
                        g = np.expand_dims(g, ax)
                        v = np.expand_dims(v, ax)
                mask = a.data == v
                counts = mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
                a._accumulate(mask * g / counts)

            out._backward = backward
        return out

    def var(self, axis=None, keepdims: bool = False) -> "Tensor":
        centered = self - self.mean(axis=axis, keepdims=True)
        return (centered * centered).mean(axis=axis, keepdims=keepdims)

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out = self._make_child(self.data.reshape(shape), (self,))
        if out.requires_grad:
            a = self
            original = a.shape

            def backward(grad: np.ndarray) -> None:
                a._accumulate(grad.reshape(original))

            out._backward = backward
        return out

    def transpose(self, *axes) -> "Tensor":
        if not axes:
            axes = tuple(reversed(range(self.data.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        out = self._make_child(self.data.transpose(axes), (self,))
        if out.requires_grad:
            a = self
            inverse = tuple(np.argsort(axes))

            def backward(grad: np.ndarray) -> None:
                a._accumulate(grad.transpose(inverse))

            out._backward = backward
        return out

    def swapaxes(self, axis1: int, axis2: int) -> "Tensor":
        axes = list(range(self.data.ndim))
        axes[axis1], axes[axis2] = axes[axis2], axes[axis1]
        return self.transpose(tuple(axes))

    def flatten(self) -> "Tensor":
        return self.reshape(-1)

    def expand_dims(self, axis: int) -> "Tensor":
        shape = list(self.shape)
        shape.insert(axis if axis >= 0 else len(shape) + axis + 1, 1)
        return self.reshape(tuple(shape))

    def __getitem__(self, index) -> "Tensor":
        out = self._make_child(self.data[index], (self,))
        if out.requires_grad:
            a = self
            # A basic index selects each element at most once, so its
            # gradient is assigned; fancy indices may repeat and add up.
            basic = _is_basic_index(index)

            def backward(grad: np.ndarray) -> None:
                full_grad = np.zeros_like(a.data, dtype=DEFAULT_DTYPE)
                if basic:
                    full_grad[index] = grad
                else:
                    np.add.at(full_grad, index, grad)
                a._accumulate(full_grad)

            out._backward = backward
        return out

    # ------------------------------------------------------------------
    # Comparisons (non-differentiable; return plain numpy bool arrays)
    # ------------------------------------------------------------------
    def __gt__(self, other: ArrayLike) -> np.ndarray:
        return self.data > as_tensor(other).data

    def __lt__(self, other: ArrayLike) -> np.ndarray:
        return self.data < as_tensor(other).data

    def __ge__(self, other: ArrayLike) -> np.ndarray:
        return self.data >= as_tensor(other).data

    def __le__(self, other: ArrayLike) -> np.ndarray:
        return self.data <= as_tensor(other).data


# ----------------------------------------------------------------------
# Constructors and free functions
# ----------------------------------------------------------------------
def as_tensor(value: ArrayLike) -> Tensor:
    """Coerce ``value`` to a :class:`Tensor` (no copy when already one)."""
    return value if isinstance(value, Tensor) else Tensor(value)


def tensor(value: ArrayLike, requires_grad: bool = False) -> Tensor:
    """Create a new tensor, copying the input data."""
    return Tensor(np.array(value, dtype=DEFAULT_DTYPE), requires_grad=requires_grad)


def zeros(shape, requires_grad: bool = False) -> Tensor:
    return Tensor(np.zeros(shape, dtype=DEFAULT_DTYPE), requires_grad=requires_grad)


def ones(shape, requires_grad: bool = False) -> Tensor:
    return Tensor(np.ones(shape, dtype=DEFAULT_DTYPE), requires_grad=requires_grad)


def full(shape, fill_value: float, requires_grad: bool = False) -> Tensor:
    return Tensor(np.full(shape, fill_value, dtype=DEFAULT_DTYPE), requires_grad=requires_grad)


def where(condition: np.ndarray, a: ArrayLike, b: ArrayLike) -> Tensor:
    """Differentiable select: ``condition`` is a boolean numpy mask."""
    a = as_tensor(a)
    b = as_tensor(b)
    condition = np.asarray(condition, dtype=bool)
    out = a._make_child(np.where(condition, a.data, b.data), (a, b))
    if out.requires_grad:

        def backward(grad: np.ndarray) -> None:
            if a.requires_grad:
                a._accumulate(_unbroadcast(grad * condition, a.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(grad * ~condition, b.shape))

        out._backward = backward
    return out


def concatenate(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient routing."""
    tensors = [as_tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    out = tensors[0]._make_child(data, tensors)
    if out.requires_grad:
        sizes = [t.shape[axis] for t in tensors]
        offsets = np.cumsum([0] + sizes)

        def backward(grad: np.ndarray) -> None:
            for t, start, end in zip(tensors, offsets[:-1], offsets[1:]):
                if t.requires_grad:
                    slicer = [slice(None)] * grad.ndim
                    slicer[axis] = slice(start, end)
                    t._accumulate(grad[tuple(slicer)])

        out._backward = backward
    return out


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new dimension."""
    expanded = [as_tensor(t).expand_dims(axis) for t in tensors]
    return concatenate(expanded, axis=axis)
