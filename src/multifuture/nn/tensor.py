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

Each op that computes a new array runs its arithmetic as one step over
buffers it allocated (:func:`_run`).  :class:`capture` records the steps,
so a forward pass can be replayed in place on new input, bit-identical
to running the ops again.
"""

from __future__ import annotations

import itertools
import threading
from functools import partial
from operator import attrgetter

import numpy as np

__all__ = ["Tensor", "concat", "no_grad", "capture", "is_grad_enabled"]

_FLOAT_DTYPES = (np.float32, np.float64)

# Guard for the sqrt subgradient at exactly zero.
_SQRT_TINY = 1e-12

# Each tensor's creation number, the order Tensor.backward runs nodes in
# reverse; a count's next() is atomic under the GIL.
_sequence = itertools.count()
_creation = attrgetter("_seq")

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


class capture(no_grad):
    """:class:`no_grad`, recording the steps of the ops run inside it in
    ``steps``: run in order after new values are written into the captured
    input, they recompute every output in place.  An op whose output is
    neither written by its step nor a view of an input raises
    ``RuntimeError``, since a replay would leave it stale."""

    def __enter__(self):
        super().__enter__()
        self.steps, self._written = [], None  # the owner of the last step's output
        self._outer = getattr(_thread_state, "capture", None)
        _thread_state.capture = self
        return self

    def __exit__(self, *exc):
        _thread_state.capture = self._outer
        return super().__exit__(*exc)


class Tensor:
    """N-dimensional real array with an optional gradient buffer."""

    # _padded, when an op sets it, is a buffer whose interior along the
    # second-to-last axis is ``data``, between margins the op keeps zero
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn", "_padded",
                 "_seq")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(np.float32)
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward_fn = None
        self._seq = next(_sequence)

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

    # -- autodiff machinery -------------------------------------------------

    def backward(self):
        """Accumulate gradients of a scalar into every reachable leaf.

        Nodes run their backward functions in reverse creation order (each
        tensor takes a sequence number when it is made), which is a reverse
        topological order, since an op's output is made after its inputs.
        So of two branches built one after the other, the later one runs its
        whole backward pass first.

        The graph lives until this call: each node is released once its
        backward function has run (or once it is known that no gradient
        reaches it), dropping its parents, its closure with the arrays the
        op saved, and its ``.grad``.  Leaves (tensors no op made, such as
        parameters) keep their gradients, so when this returns nothing of
        the graph is left but the nodes' ``data``.  A second call through a
        released node raises ``RuntimeError``.
        """
        if self.data.size != 1:
            raise ValueError(
                f"backward() needs a scalar, got shape {self.data.shape}"
            )
        reached, work = {id(self): self}, [self]
        while work:
            for parent in work.pop()._parents:
                if parent.requires_grad and id(parent) not in reached:
                    reached[id(parent)] = parent
                    work.append(parent)
        order = sorted(reached.values(), key=_creation)
        del reached
        _accumulate(self, np.ones_like(self.data))
        # Popped last-made first: every child of a node is released before
        # it, so a released node is freed as soon as the loop moves on.
        while order:
            node = order.pop()
            if node._backward_fn is None:
                if node.grad is None:
                    # No gradient reached this leaf (see concat): an exact zero.
                    node.grad = np.zeros_like(node.data)
                continue
            if node.grad is not None:  # else skip its subgraph (see concat)
                node._backward_fn(node.grad)
            node.grad, node._parents, node._backward_fn = None, (), _released

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

    def __mul__(self, other):
        other = _as_tensor(other, self.dtype)
        out_data = self.data * other.data

        def bwd(g):
            _accumulate(self, _unbroadcast(g * other.data, self.data.shape))
            _accumulate(other, _unbroadcast(g * self.data, other.data.shape))

        return _from_op(out_data, (self, other), bwd)

    __rmul__ = __mul__

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

    def sum(self, axis=None):
        axis = _normalize_axis(axis, self.data.ndim)
        out_data = self.data.sum(axis=axis)

        def bwd(g):
            if axis is not None:
                g = np.expand_dims(g, axis)
            _accumulate(self, np.broadcast_to(g, self.data.shape))

        return _from_op(out_data, (self,), bwd)

    def mean(self, axis=None):
        axis = _normalize_axis(axis, self.data.ndim)
        out_data = self.data.mean(axis=axis)
        if axis is None:
            count = self.data.size
        else:
            count = int(np.prod([self.data.shape[a] for a in axis]))
        inv = 1.0 / count

        def bwd(g):
            if axis is not None:
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

    def swapaxes(self, axis1: int, axis2: int):
        out_data = _contiguous(self.data.swapaxes(axis1, axis2))

        def bwd(g):
            _accumulate(self, g.swapaxes(axis1, axis2))

        return _from_op(out_data, (self,), bwd)

    def __getitem__(self, key):
        # Basic (slice/int/ellipsis) indexing only: indices never repeat,
        # so the backward scatter is a plain assignment.
        out_data = np.atleast_1d(self.data[key])

        def bwd(g):
            buf = np.zeros_like(self.data)
            buf[key] = g
            _accumulate(self, buf)

        return _from_op(_contiguous(out_data), (self,), bwd)


def concat(tensors) -> Tensor:
    """Join tensors along their leading axis; one tensor is returned as is."""
    tensors = list(tensors)
    if len(tensors) == 1:
        return tensors[0]
    out_data = np.concatenate([t.data for t in tensors])
    ends = np.cumsum([len(t.data) for t in tensors])

    def bwd(g):
        for t, piece in zip(tensors, np.split(g, ends[:-1])):
            if piece.any():  # a member that won no oracle row: skip its graph
                _accumulate(t, piece)

    return _from_op(out_data, tuple(tensors), bwd)


# -- helpers shared with multifuture.nn.ops -------------------------------


def _as_tensor(value, dtype) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=dtype))


def _builds_graph(parents) -> bool:
    """Whether :func:`_from_op` keeps a backward closure for an op on
    ``parents``: grad mode is on and some parent requires grad.  An op
    computes backward-only state only when this holds."""
    return is_grad_enabled() and any(p.requires_grad for p in parents)


def _released(grad) -> None:
    """The backward function of a node that :meth:`Tensor.backward` released."""
    raise RuntimeError("backward() reached a graph node that an earlier backward() "
                       "released; run the forward pass again to build a new graph")


def _owner(data: np.ndarray) -> np.ndarray:
    """The array that owns ``data``'s memory (numpy points a view's
    ``base`` at it)."""
    return data if data.base is None else data.base


def _run(step, out: np.ndarray) -> None:
    """Run ``step``, an op's forward arithmetic into ``out`` over buffers
    the op allocated; under :class:`capture`, record it for replay."""
    step()
    recording = getattr(_thread_state, "capture", None)
    if recording is not None:
        recording.steps.append(step)
        recording._written = _owner(out)


def _contiguous(view: np.ndarray) -> np.ndarray:
    """``view`` if it is C-contiguous, else a copy made by a step."""
    if view.flags.c_contiguous:
        return view
    out = np.empty(view.shape, view.dtype)
    _run(partial(np.copyto, out, view), out)
    return out


def _from_op(data, parents, backward_fn) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out._seq = next(_sequence)
    if _builds_graph(parents):
        out.requires_grad = True
        out._parents = parents
        out._backward_fn = backward_fn
    else:
        recording = getattr(_thread_state, "capture", None)
        if recording is not None:
            owner = _owner(data)
            if owner is not recording._written and all(owner is not _owner(p.data)
                                                       for p in parents):
                raise RuntimeError(f"an op under capture computed a {data.shape} array "
                                   "without a recorded step")
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
