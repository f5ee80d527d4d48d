"""Reverse-mode automatic differentiation over numpy arrays.

The engine is eager: every operation records its parent tensors and a
closure that pushes gradients back to them, and :meth:`Tensor.backward`
walks the recorded graph in reverse topological order.  Only the math the
convolutional encoder/decoder networks in this package actually use is
implemented here; the neural-network layers live in
:mod:`multifuture.nn.ops`.

Operations preserve the dtype of their inputs.  Models are built in float32
by default, while the finite-difference gradient checks construct the same
graphs from float64 arrays.
"""

from __future__ import annotations

import threading

import numpy as np

__all__ = ["Tensor", "stack", "no_grad", "is_grad_enabled"]

_FLOAT_DTYPES = (np.float32, np.float64)

# Guard for the sqrt subgradient at exactly zero.
_SQRT_TINY = 1e-12

# Per-thread so read-only inference in one thread cannot disturb graph
# construction in another.
_thread_state = threading.local()


class no_grad:
    """Context manager disabling graph construction (inference mode)."""

    def __enter__(self):
        self._prev = is_grad_enabled()
        _thread_state.grad_enabled = False
        return self

    def __exit__(self, *exc):
        _thread_state.grad_enabled = self._prev
        return False


def is_grad_enabled() -> bool:
    return getattr(_thread_state, "grad_enabled", True)


class Tensor:
    """N-dimensional real array with an optional gradient buffer."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(np.float32)
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward_fn = None

    # -- basic introspection ------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def zero_grad(self):
        self.grad = None

    # -- autodiff machinery -------------------------------------------------

    def backward(self):
        """Accumulate gradients of a scalar into every reachable tensor."""
        if self.data.size != 1:
            raise ValueError(
                f"backward() needs a scalar, got shape {self.data.shape}"
            )
        topo = []
        visited = set()
        work = [(self, False)]
        while work:
            node, expanded = work.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            work.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in visited:
                    work.append((parent, False))
        _accumulate(self, np.ones_like(self.data))
        for node in reversed(topo):
            if node._backward_fn is not None:
                node._backward_fn(node.grad)

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other):
        other = _as_tensor(other, self.dtype)
        out_data = self.data + other.data

        def bwd(g):
            _accumulate(self, _unbroadcast(g, self.data.shape))
            _accumulate(other, _unbroadcast(g, other.data.shape))

        return _from_op(out_data, (self, other), bwd)

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_tensor(other, self.dtype)
        out_data = self.data - other.data

        def bwd(g):
            _accumulate(self, _unbroadcast(g, self.data.shape))
            _accumulate(other, _unbroadcast(-g, other.data.shape))

        return _from_op(out_data, (self, other), bwd)

    def __rsub__(self, other):
        return _as_tensor(other, self.dtype) - self

    def __neg__(self):
        def bwd(g):
            _accumulate(self, -g)

        return _from_op(-self.data, (self,), bwd)

    def __mul__(self, other):
        other = _as_tensor(other, self.dtype)
        out_data = self.data * other.data

        def bwd(g):
            _accumulate(self, _unbroadcast(g * other.data, self.data.shape))
            _accumulate(other, _unbroadcast(g * self.data, other.data.shape))

        return _from_op(out_data, (self, other), bwd)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        if isinstance(scalar, Tensor):
            raise TypeError("only division by a plain scalar is supported")
        return self * (1.0 / float(scalar))

    def __matmul__(self, other):
        if not isinstance(other, Tensor):
            other = Tensor(other)
        a, b = self.data, other.data
        if a.ndim != 2 or b.ndim != 2:
            raise ValueError("matmul expects 2-D operands")
        out_data = a @ b

        def bwd(g):
            _accumulate(self, g @ b.T)
            _accumulate(other, a.T @ g)

        return _from_op(out_data, (self, other), bwd)

    # -- reductions / shape -----------------------------------------------

    def sum(self, axis=None, keepdims: bool = False):
        axis = _normalize_axis(axis, self.data.ndim)
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def bwd(g):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            _accumulate(self, np.broadcast_to(g, self.data.shape))

        return _from_op(out_data, (self,), bwd)

    def mean(self, axis=None, keepdims: bool = False):
        axis = _normalize_axis(axis, self.data.ndim)
        out_data = self.data.mean(axis=axis, keepdims=keepdims)
        if axis is None:
            count = self.data.size
        else:
            count = int(np.prod([self.data.shape[a] for a in axis]))
        inv = 1.0 / count

        def bwd(g):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            _accumulate(self, np.broadcast_to(g * inv, self.data.shape))

        return _from_op(out_data, (self,), bwd)

    def sqrt(self):
        out_data = np.sqrt(self.data)

        def bwd(g):
            # Subgradient 0 at exactly zero.
            scale = np.where(out_data > _SQRT_TINY,
                             0.5 / np.maximum(out_data, _SQRT_TINY), 0.0)
            _accumulate(self, g * scale, owned=True)

        return _from_op(out_data, (self,), bwd)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)

        def bwd(g):
            _accumulate(self, g.reshape(self.data.shape))

        return _from_op(out_data, (self,), bwd)

    def __getitem__(self, key):
        # Basic (slice/int/ellipsis) indexing only: indices never repeat,
        # so the backward scatter is a plain assignment.
        out_data = self.data[key]

        def bwd(g):
            buf = np.zeros_like(self.data)
            buf[key] = g
            _accumulate(self, buf)

        return _from_op(np.ascontiguousarray(out_data), (self,), bwd)


def stack(tensors, axis: int = 0) -> Tensor:
    """Stack tensors of identical shape along a new axis."""
    tensors = list(tensors)
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def bwd(g):
        pieces = np.moveaxis(g, axis, 0)
        for t, piece in zip(tensors, pieces):
            _accumulate(t, piece)

    return _from_op(out_data, tuple(tensors), bwd)


# -- helpers shared with multifuture.nn.ops -------------------------------


def _as_tensor(value, dtype) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=dtype))


def _from_op(data, parents, backward_fn) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    if is_grad_enabled() and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward_fn = backward_fn
    else:
        out.requires_grad = False
        out._parents = ()
        out._backward_fn = None
    return out


def _accumulate(tensor: Tensor, grad, owned: bool = False) -> None:
    """Add ``grad`` into ``tensor.grad``.

    ``owned`` marks a freshly allocated buffer that may be adopted without
    copying; pass it only for arrays no other node can still reference.
    """
    if not tensor.requires_grad:
        return
    grad = np.asarray(grad, dtype=tensor.data.dtype)
    if tensor.grad is None:
        tensor.grad = grad if owned else np.array(grad)
    else:
        tensor.grad += grad


def _unbroadcast(grad, shape):
    """Sum a gradient over the axes that broadcasting expanded."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    squeezed = tuple(
        i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1
    )
    if squeezed:
        grad = grad.sum(axis=squeezed, keepdims=True)
    return grad


def _normalize_axis(axis, ndim):
    if axis is None:
        return None
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(sorted(a % ndim for a in axis))
