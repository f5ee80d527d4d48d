"""Outside-in span tracer for the benchmark.

Spans are recorded by wrapping public functions of ``multifuture`` from
outside: :meth:`Tracer.install` swaps module and class attributes for
timing wrappers and :meth:`Tracer.uninstall` puts the originals back.
Nothing under ``src/`` knows it is being traced, and the wrappers only
call through, so traced and untraced runs do the same arithmetic.

A span is ``[name, start, end, parent, owner]``; ``parent`` is the index of
the enclosing span (-1 at the root) and ``owner`` names the model span
(encoder, decoder, ...) that created the tensor whose backward closure
the span times.  Spans stay in memory; :func:`write_spans` stores them
when the run ends.

Backward time is attributed by wrapping the closure of every tensor when
it is created.  The closure is named after the op whose forward span is
innermost at creation time (``nn.ops.conv1d.bwd``), or
``nn.tensor.arith.bwd`` for tensor arithmetic outside any op.
``ops.tconv1d`` calls ``ops.conv1d`` through the module global, so a
transposed convolution shows up as a ``tconv1d`` span with a ``conv1d``
child; per-op figures use self time, so that work is counted once, under
``conv1d``.
"""

from __future__ import annotations

import contextlib
import csv
import gzip
import time
from collections import defaultdict

from multifuture import evaluation, model, training
from multifuture.nn import ops, optim, tensor

# Ops wrapped in multifuture.nn.ops; each gets an ``nn.ops.<op>`` span,
# and ``Tensor.__matmul__`` gets ``nn.ops.matmul``.
OPS = ("conv1d", "tconv1d", "maxpool1d", "relu", "linear", "softmax",
       "adaptive_avgpool1d", "upsample_nearest", "cross_entropy")
ALL_OPS = OPS + ("matmul",)

# Spans whose name starts with this mark phases of the pipeline; every
# span belongs to its innermost enclosing phase.
PHASE_PREFIX = "phase."

_NAME, _END = 0, 2  # fields of a span record


class NullTracer:
    """The untraced run: call-site spans cost one function call."""

    def span(self, name):
        return contextlib.nullcontext()

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    """Records nested spans and computed op counters for one run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        # computed FLOPs and bytes, per phase
        self.counters: dict[str, dict[str, float]] = defaultdict(
            lambda: defaultdict(float))
        self._stack: list[int] = []
        self._phases: list[str] = []
        self._owners: list[str] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def open(self, name: str, owner: str | None = None) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), 0.0, parent, owner])
        index = len(self.spans) - 1
        self._stack.append(index)
        if name.startswith(PHASE_PREFIX):
            self._phases.append(name)
        return index

    def close(self, index: int) -> None:
        if not self._stack or self._stack[-1] != index:
            raise RuntimeError(f"span {self.spans[index][_NAME]!r} closed out of order")
        self.spans[index][_END] = self.clock()
        self._stack.pop()
        if self.spans[index][_NAME].startswith(PHASE_PREFIX):
            self._phases.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def call(self, name: str, fn, *args, **kwargs):
        index = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(index)

    # -- patching --------------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _timed(self, fn, name: str, model_span: bool = False, flops=None):
        tracer = self

        def wrapper(*args, **kwargs):
            if flops is not None:
                phase = tracer._phases[-1] if tracer._phases else ""
                flops(tracer.counters[phase], *args, **kwargs)
            index = tracer.open(name)
            if model_span:
                tracer._owners.append(name)
            try:
                return fn(*args, **kwargs)
            finally:
                if model_span:
                    tracer._owners.pop()
                tracer.close(index)

        wrapper.__wrapped__ = fn
        return wrapper

    def _closure_wrapper(self, from_op):
        tracer = self
        spans, stack, owners = self.spans, self._stack, self._owners

        def traced_from_op(data, parents, backward_fn):
            out = from_op(data, parents, backward_fn)
            inner = out._backward_fn
            if inner is None:
                return out
            top = spans[stack[-1]][_NAME] if stack else ""
            name = (top if top.startswith("nn.ops.") else "nn.tensor.arith") + ".bwd"
            owner = owners[-1] if owners else None

            def timed_backward(g):
                index = tracer.open(name, owner)
                try:
                    inner(g)
                finally:
                    tracer.close(index)

            out._backward_fn = timed_backward
            return out

        return traced_from_op

    def install(self) -> None:
        """Wrap the public entry points of every layer the benchmark reports."""
        for op in OPS:
            self._patch(ops, op, self._timed(getattr(ops, op), f"nn.ops.{op}",
                                             flops=_FLOPS.get(op)))
        self._patch(tensor.Tensor, "__matmul__",
                    self._timed(tensor.Tensor.__matmul__, "nn.ops.matmul",
                                flops=_FLOPS["matmul"]))
        self._patch(tensor.Tensor, "backward",
                    self._timed(tensor.Tensor.backward, "nn.tensor.backward"))
        # Every backward closure is created by _from_op; ops.py binds the
        # name at import, so both module globals are replaced.
        for module in (tensor, ops):
            self._patch(module, "_from_op", self._closure_wrapper(module._from_op))
        # training.py does ``from .nn.optim import adam_step``.
        adam_step = self._timed(optim.adam_step, "nn.optim.adam_step")
        for module in (optim, training):
            self._patch(module, "adam_step", adam_step)
        self._patch(training, "sample_minibatch",
                    self._timed(training.sample_minibatch,
                                "training.sample_minibatch"))
        for cls, name in ((model.ConvEncoder, "model.encoder"),
                          (model.BankShapeDecoder, "model.shape_decoder"),
                          (model.TConvShapeDecoder, "model.shape_decoder"),
                          (model.ScaleDecoder, "model.scale_decoder"),
                          (model.Forecaster, "model.forward_tensors")):
            attr = "forward_tensors" if cls is model.Forecaster else "forward"
            self._patch(cls, attr, self._timed(cls.__dict__[attr], name,
                                               model_span=True))
        self._patch(model.Forecaster, "predict_futures",
                    self._timed(model.Forecaster.predict_futures,
                                "model.predict_futures"))
        for cls, prefix in ((evaluation.NearestNeighborBaseline,
                             "evaluation.nearest_neighbor"),
                            (evaluation.RidgeBaseline, "evaluation.ridge")):
            self._patch(cls, "__init__",
                        self._timed(cls.__init__, f"{prefix}.fit"))
            self._patch(cls, "predict_futures",
                        self._timed(cls.predict_futures, f"{prefix}.predict"))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


# -- computed work ---------------------------------------------------------------
#
# FLOPs and operand bytes follow from the shapes alone (a multiply-add is
# two FLOPs).  The forward pass counts one GEMM; a recorded backward pass
# counts one more GEMM of the same size per operand that needs a gradient.
# They are exact counts of the arithmetic the shapes imply, not measured
# hardware counters.


def _grad_gemms(*tensors) -> int:
    if not tensor.is_grad_enabled():
        return 0
    return sum(1 for t in tensors if t.requires_grad)


def _count(counters, op: str, flop: float, operand_bytes: float,
           grad_gemms: int) -> None:
    counters[f"{op}.fwd_flop"] += flop
    counters[f"{op}.bwd_flop"] += flop * grad_gemms
    counters[f"{op}.fwd_bytes"] += operand_bytes
    # each gradient GEMM reads two operands and writes one gradient
    counters[f"{op}.bwd_bytes"] += operand_bytes * grad_gemms


def _conv1d_flops(counters, x, weight, bias=None, padding=0):
    n = x.data.shape[0] if x.data.ndim == 3 else 1
    c_out, c_in, kernel = weight.data.shape
    l_in = x.data.shape[-1]
    l_out = l_in + 2 * padding - kernel + 1
    flop = 2.0 * n * c_out * c_in * kernel * l_out
    nbytes = (x.data.size + weight.data.size + n * c_out * l_out) * x.data.itemsize
    _count(counters, "conv1d", flop, nbytes, _grad_gemms(x, weight))


def _linear_flops(counters, x, weight, bias=None):
    n = x.data.shape[0] if x.data.ndim == 2 else 1
    out_f, in_f = weight.data.shape
    flop = 2.0 * n * out_f * in_f
    nbytes = (x.data.size + weight.data.size + n * out_f) * x.data.itemsize
    _count(counters, "linear", flop, nbytes, _grad_gemms(x, weight))


def _matmul_flops(counters, a, b):
    if not hasattr(b, "data"):
        return
    (m, k), n = a.data.shape, b.data.shape[1]
    flop = 2.0 * m * k * n
    nbytes = (a.data.size + b.data.size + m * n) * a.data.itemsize
    _count(counters, "matmul", flop, nbytes, _grad_gemms(a, b))


_FLOPS = {"conv1d": _conv1d_flops, "linear": _linear_flops,
          "matmul": _matmul_flops}


# -- aggregation -------------------------------------------------------------------


class SpanTable:
    """Per-phase totals of a finished trace.

    Every span belongs to its innermost enclosing phase span (a phase span
    to itself).  For every (phase, span name) the table holds the call
    count, the summed duration and the summed self time, which is the
    duration minus the time covered by direct children; ``owned`` sums the
    backward spans caused by tensors each model span created.
    """

    def __init__(self, spans: list[list]):
        n = len(spans)
        child_time = [0.0] * n
        phase = [""] * n
        self.root_time = 0.0
        for i, (name, start, end, parent, owner) in enumerate(spans):
            if end < start:
                raise ValueError(f"span {name!r} was never closed")
            if parent >= 0:
                child_time[parent] += end - start
            else:
                self.root_time += end - start
            if name.startswith(PHASE_PREFIX):
                phase[i] = name
            elif parent >= 0:
                phase[i] = phase[parent]
        self.count: dict[tuple[str, str], int] = defaultdict(int)
        self.total: dict[tuple[str, str], float] = defaultdict(float)
        self.self_time: dict[tuple[str, str], float] = defaultdict(float)
        self.owned: dict[tuple[str, str], float] = defaultdict(float)
        for i, (name, start, end, parent, owner) in enumerate(spans):
            key = (phase[i], name)
            self.count[key] += 1
            self.total[key] += end - start
            self.self_time[key] += end - start - child_time[i]
            if owner is not None:
                self.owned[(phase[i], owner)] += end - start

    def unattributed_share(self) -> float:
        """Share of the traced time spent in phases but in no traced call."""
        own = sum(t for (phase, name), t in self.self_time.items() if phase == name)
        return own / self.root_time

    def as_rows(self) -> list[dict]:
        return [
            {"phase": phase, "span": name, "count": self.count[(phase, name)],
             "total_s": self.total[(phase, name)],
             "self_s": self.self_time[(phase, name)]}
            for phase, name in sorted(self.count)
        ]


def write_spans(spans: list[list], path) -> None:
    """Write raw spans as gzipped CSV: index,name,start_s,end_s,parent,owner."""
    with gzip.open(path, "wt", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "name", "start_s", "end_s", "parent", "owner"])
        for i, (name, start, end, parent, owner) in enumerate(spans):
            writer.writerow([i, name, repr(start), repr(end), parent, owner or ""])
