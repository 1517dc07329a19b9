"""Dense float64 tensors with reverse-mode differentiation on a dynamic tape.

Every operation here computes its result eagerly with numpy and hands it,
with one backward rule per input, to ``_record``, which applies the one
recording rule (see there).  The tape is rebuilt on every forward pass
(define-by-run), so graph topology may depend on runtime shapes.  One tape
records at a time; tapes do not nest.

Elementwise binary ops take operands of equal shape, or one rank-0
operand against any shape; there is no other broadcasting.  A leading batch
axis runs through conv1d and the last-axis sum, so a whole minibatch is one
node per op.  All data is float64.  Fused terms outside this module
(``make_path``, ``warp_apply``, ``loss_ce``, ``entropy``, the classifier's
pool and head) compute in numpy and build their outputs through ``_record``
too.

Ops never scan values for finiteness; values are validated where they enter
the program and where a step yields a loss or an objective.  Ops raise only
on bad shapes, axes and indices.
"""

from __future__ import annotations

import functools
from typing import Callable, Iterable, NamedTuple

import numpy as np

__all__ = [
    "Tensor",
    "Tape",
    "as_batch",
    "op_add",
    "op_sub",
    "op_mul",
    "op_conv1d",
    "op_relu",
    "op_sum",
    "op_gather",
    "op_reshape",
    "finite_diff_check",
]

Rule = Callable[[np.ndarray], np.ndarray]
_active: Tape | None = None  # the tape recording now, if any


class Tensor:
    """A contiguous float64 array plus gradient bookkeeping.

    ``grad`` is populated by ``Tape.backward`` for tensors with
    ``requires_grad``; it is overwritten (never accumulated) across separate
    backward calls.
    """

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if not arr.flags["C_CONTIGUOUS"]:
            arr = np.ascontiguousarray(arr)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"

    # Arithmetic sugar; scalars are lifted to constant rank-0 tensors.
    def __add__(self, other):
        return op_add(self, other)

    def __sub__(self, other):
        return op_sub(self, other)

    def __mul__(self, other):
        return op_mul(self, other)


class TapeNode(NamedTuple):
    """One recorded operation: the output tensor and, per differentiable
    input, a rule mapping the output gradient to that input's contribution."""

    out: Tensor
    rules: list[tuple[Tensor, Rule]]


class Tape:
    """Append-only record of operations, in execution (= topological) order.

    Use as a context manager around a forward pass, then call ``backward``
    on the scalar result.  Ops executed while no tape is active record
    nothing, which is the cheap path for inference.  Tapes do not nest:
    entering one while another records raises RuntimeError and leaves the
    recording tape in place.
    """

    def __init__(self):
        self.nodes: list[TapeNode] = []

    def __enter__(self) -> "Tape":
        global _active
        if _active is not None:
            raise RuntimeError("a tape is already recording; tapes do not nest")
        _active = self
        return self

    def __exit__(self, exc_type, exc, tb):
        global _active
        _active = None

    def backward(self, root: Tensor) -> dict[Tensor, np.ndarray]:
        """Accumulate gradients of ``root`` with respect to every tensor on
        the tape.

        Visits nodes exactly once, in reverse recording order.  Returns a map
        from each leaf tensor (one no recorded op produced) to its gradient
        array and also stores each requires_grad leaf's gradient on
        ``tensor.grad``.  An op output's gradient is dropped as soon as its
        node's rules have run, since every consumer was recorded later and
        has already been visited.  Buffers are freshly allocated, so
        repeating an identical forward+backward reproduces gradients bitwise.
        """
        if root.data.shape != ():
            raise ValueError(f"backward root must be scalar, got shape {root.data.shape}")
        if not self.nodes:
            raise ValueError("backward on an empty tape")
        grads: dict[Tensor, np.ndarray] = {root: np.ones((), dtype=np.float64)}
        for node in reversed(self.nodes):
            out_grad = grads.pop(node.out, None)
            if out_grad is None:
                continue
            for tensor, rule in node.rules:
                contribution = rule(out_grad)
                existing = grads.get(tensor)
                if existing is None:
                    grads[tensor] = contribution
                else:
                    grads[tensor] = existing + contribution
        for tensor, grad in grads.items():
            if tensor.requires_grad:
                tensor.grad = grad
        return grads


def _lift(value) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=np.float64))


def _record(value, *inputs: tuple[Tensor, Rule]) -> Tensor:
    """Build an op's output from its numpy result ``value`` and its
    ``(input, rule)`` pairs by the one recording rule: keep the pairs whose
    input requires grad; the output requires grad if any pair is kept; while
    a tape records, append the kept pairs, in argument order (the order
    backward accumulates in), to it as one node."""
    rules = [(tensor, rule) for tensor, rule in inputs if tensor.requires_grad]
    out = Tensor(value, requires_grad=bool(rules))
    if rules and _active is not None:
        _active.nodes.append(TapeNode(out, rules))
    return out


def as_batch(x, rank: int) -> tuple[Tensor, bool]:
    """``x`` with a leading batch axis, and whether one was added: a
    rank-``rank`` tensor becomes a batch of one (a recorded reshape), a
    rank-``rank + 1`` tensor already is a batch."""
    x = _lift(x)
    if x.data.ndim == rank:
        return op_reshape(x, (1,) + x.data.shape), True
    if x.data.ndim != rank + 1:
        raise ValueError(f"expected a rank-{rank} tensor or a batch of them, "
                         f"got shape {x.data.shape}")
    return x, False


def _binary(name: str, a, b) -> tuple[Tensor, Tensor]:
    a, b = _lift(a), _lift(b)
    sa, sb = a.data.shape, b.data.shape
    if sa != sb and sa != () and sb != ():
        raise ValueError(f"{name}: shape mismatch {sa} vs {sb} (shapes must match, "
                         "or one operand must be a scalar)")
    return a, b


def _reduce_to(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    # Undo broadcasting: a scalar operand receives the summed gradient.
    if grad.shape == shape:
        return grad
    return np.asarray(grad.sum(), dtype=np.float64)


def op_add(a, b) -> Tensor:
    a, b = _binary("add", a, b)
    return _record(a.data + b.data, (a, lambda g: _reduce_to(g, a.data.shape)),
                   (b, lambda g: _reduce_to(g, b.data.shape)))


def op_sub(a, b) -> Tensor:
    a, b = _binary("sub", a, b)
    return _record(a.data - b.data, (a, lambda g: _reduce_to(g, a.data.shape)),
                   (b, lambda g: _reduce_to(-g, b.data.shape)))


def op_mul(a, b) -> Tensor:
    a, b = _binary("mul", a, b)
    return _record(a.data * b.data, (a, lambda g: _reduce_to(g * b.data, a.data.shape)),
                   (b, lambda g: _reduce_to(g * a.data, b.data.shape)))


@functools.lru_cache(maxsize=64)
def _conv_taps(n: int, width: int, stride: int):
    """Where each kernel tap w of a padded conv1d over length n reads the
    input: ``(front, back, taps)`` with taps[w] = (lo, hi, slice), the
    outputs lo <= t < hi whose input index t*stride + w - pad lies in
    [0, n) and the input slice they read.  Outputs t < front or t >= back
    read padding at some tap.  Cached: on small batches the Python
    arithmetic cost as much as the copies."""
    pad = (width - 1) // 2
    n_out = (n + 2 * pad - width) // stride + 1
    taps = []
    for w in range(width):
        lo = max(0, -((w - pad) // stride))
        hi = max(lo, min(n_out, (n - 1 + pad - w) // stride + 1))
        start = lo * stride + w - pad
        taps.append((lo, hi, slice(start, start + stride * (hi - lo), stride)))
    return max(t[0] for t in taps), min(t[1] for t in taps), tuple(taps)


def op_conv1d(x, kernels, stride: int = 1, bias=None) -> Tensor:
    """1-D cross-correlation of (B, C_in, N) with kernels (C_out, C_in, W),
    giving (B, C_out, N_out).  A (C_in, N) input is a batch of one and gives
    (C_out, N_out).

    The input is padded with (W-1)//2 zeros each side ("same" length at
    stride 1).  ``bias`` is an optional (C_out,) tensor added per output
    channel.
    """
    x, kernels = _lift(x), _lift(kernels)
    if x.data.ndim not in (2, 3) or kernels.data.ndim != 3:
        raise ValueError(f"conv1d: expected (B, C_in, N) or (C_in, N) input and "
                         f"(C_out, C_in, W) kernels, got {x.data.shape} and {kernels.data.shape}")
    xb = x.data.reshape((-1,) + x.data.shape[-2:])
    batch, c_in, n = xb.shape
    c_out, kc_in, width = kernels.data.shape
    if kc_in != c_in:
        raise ValueError(f"conv1d: kernel expects {kc_in} input channels, input has {c_in}")
    if stride < 1:
        raise ValueError(f"conv1d: stride must be positive, got {stride}")
    pad = (width - 1) // 2
    if width > n + 2 * pad:
        raise ValueError(f"conv1d: kernel width {width} exceeds padded length {n + 2 * pad}")

    n_out = (n + 2 * pad - width) // stride + 1
    # im2col straight from x: cols[b, ci, w, t] = x[b, ci, t*stride + w - pad],
    # zero where that index falls in the padding.  The columns that read
    # padding at any tap are zeroed first, then each tap copies its span.
    front, back, taps = _conv_taps(n, width, stride)
    cols = np.empty((batch, c_in, width, n_out))
    cols[..., :front] = 0.0
    cols[..., back:] = 0.0
    for w, (lo, hi, sl) in enumerate(taps):
        cols[:, :, w, lo:hi] = xb[:, :, sl]
    cols = cols.reshape(batch, c_in * width, n_out)
    kmat = kernels.data.reshape(c_out, c_in * width)
    out_data = np.matmul(kmat, cols)

    if bias is None:
        bias = Tensor(0.0)  # a constant, so its rule is never kept
    else:
        bias = _lift(bias)
        if bias.data.shape != (c_out,):
            raise ValueError(f"conv1d: bias shape {bias.data.shape} != ({c_out},)")
        out_data += bias.data[:, None]
    gshape = (batch, c_out, n_out)

    def _dx(g):
        dcols = np.matmul(kmat.T, g.reshape(gshape)).reshape(batch, c_in, width, n_out)
        dx = np.zeros((batch, c_in, n))
        for w, (lo, hi, sl) in enumerate(taps):  # col2im, the adjoint, in tap order
            dx[:, :, sl] += dcols[:, :, w, lo:hi]
        return dx.reshape(x.data.shape)

    return _record(out_data.reshape(x.data.shape[:-2] + (c_out, n_out)),
                   (kernels, lambda g: np.tensordot(g.reshape(gshape), cols, axes=([0, 2], [0, 2]))
                    .reshape(kernels.data.shape)),
                   (x, _dx),
                   (bias, lambda g: g.reshape(gshape).sum(axis=(0, 2))))


def op_relu(x) -> Tensor:
    x = _lift(x)
    # subgradient 0 at exactly 0
    return _record(np.maximum(x.data, 0.0), (x, lambda g: g * (x.data > 0.0)))


def op_sum(x, axis: int | None = None) -> Tensor:
    """Sum of all elements, or with ``axis=-1`` of each row along the last
    axis, keeping it as length 1 ((B, N) -> (B, 1))."""
    x = _lift(x)
    if axis not in (None, -1):
        raise ValueError(f"sum runs over all elements (axis=None) or the "
                         f"last axis (axis=-1), got axis={axis!r}")
    return _record(x.data.sum(axis=axis, keepdims=axis is not None),
                   (x, lambda g: np.broadcast_to(g, x.data.shape).copy()))


def op_gather(x, indices) -> Tensor:
    """Index a rank-1 tensor with an integer array; output takes the index shape.

    Backward scatter-adds (a weighted bincount), so repeated indices
    accumulate.
    """
    x = _lift(x)
    if x.data.ndim != 1:
        raise ValueError(f"gather: expected rank-1 source, got shape {x.data.shape}")
    idx = np.asarray(indices)
    if not np.issubdtype(idx.dtype, np.integer):
        raise ValueError(f"gather: indices must be integers, got dtype {idx.dtype}")
    n = x.data.shape[0]
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise ValueError(f"gather: index out of range for length {n}")
    return _record(x.data[idx],
                   (x, lambda g: np.bincount(idx.ravel(), weights=np.ravel(g), minlength=n)))


def op_reshape(x, shape: tuple[int, ...] | list[int]) -> Tensor:
    x = _lift(x)
    shape = tuple(int(s) for s in shape)
    return _record(x.data.reshape(shape), (x, lambda g: g.reshape(x.data.shape)))


def finite_diff_check(f: Callable[[Tensor], Tensor], x: Tensor, h: float = 1e-5,
                      coords: Iterable[int] | None = None) -> float:
    """Max relative error between the tape gradient of ``f`` at ``x`` and a
    central finite difference with step ``h``, over the flat coordinates
    ``coords`` (every coordinate when None).

    The relative error per coordinate is |analytic - numeric| divided by
    max(|analytic|, |numeric|, 1e-8).  ``f`` must map a tensor to a scalar
    tensor and be evaluable at every probed point.
    """
    probe = Tensor(x.data.copy(), requires_grad=True)
    with Tape() as tape:
        y = f(probe)
        grads = tape.backward(y)
    analytic = grads.get(probe)
    if analytic is None:
        analytic = np.zeros_like(probe.data)
    analytic = np.asarray(analytic, dtype=np.float64).reshape(-1)

    errors = []
    for i in range(probe.data.size) if coords is None else coords:
        forward = probe.data.copy()
        forward.flat[i] += h
        backward = probe.data.copy()
        backward.flat[i] -= h
        numeric = (float(f(Tensor(forward)).data) - float(f(Tensor(backward)).data)) / (2.0 * h)
        ana = float(analytic[i])
        errors.append(abs(ana - numeric) / max(abs(ana), abs(numeric), 1e-8))
    return float(np.max(errors))
