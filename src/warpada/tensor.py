"""Dense float64 tensors with reverse-mode differentiation on a dynamic tape.

Every operation here computes its result eagerly with numpy and, when a tape
is active and an input wants gradients, appends a node holding the backward
rule.  The tape is rebuilt on every forward pass (define-by-run), so graph
topology may depend on runtime shapes.  A tape and the tensors recorded on it
belong to one thread; separate threads use separate tapes.

Elementwise binary ops require equal shapes, a rank-0 operand, or one
(B, 1) operand against a (B, N) one, which carries a per-row value across
its row.  There is no other broadcasting.  A leading batch axis runs
through conv1d, the last-axis reductions and cumsum, so a whole minibatch
is one node per op.  All data is float64.
"""

from __future__ import annotations

import threading
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "Tape",
    "TapeNode",
    "active_tape",
    "as_batch",
    "set_checked",
    "checked",
    "op_add",
    "op_sub",
    "op_mul",
    "op_div",
    "op_matmul",
    "op_transpose",
    "op_conv1d",
    "op_relu",
    "op_dirichlet",
    "op_exp",
    "op_log",
    "op_abs",
    "op_sum",
    "op_mean",
    "op_min_reduce",
    "op_max_reduce",
    "op_cumsum",
    "op_gather",
    "op_concat",
    "op_reshape",
    "finite_diff_check",
]

_tls = threading.local()

# Checked mode validates tensor contents (finiteness, div-by-zero, log domain)
# at construction / op time.  Global, not per-tape; toggling it mid-run from
# another thread is not supported.
_checked = True


def set_checked(flag: bool) -> bool:
    """Enable or disable checked mode; returns the previous setting."""
    global _checked
    previous = _checked
    _checked = bool(flag)
    return previous


def checked() -> bool:
    return _checked


def _tape_stack() -> list["Tape"]:
    stack = getattr(_tls, "stack", None)
    if stack is None:
        stack = []
        _tls.stack = stack
    return stack


def active_tape() -> "Tape | None":
    stack = _tape_stack()
    return stack[-1] if stack else None


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
        if _checked and arr.size and not np.isfinite(arr).all():
            raise ValueError("tensor contains non-finite values")
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

    def detached(self) -> "Tensor":
        """A copy that shares no history and takes no gradients."""
        return Tensor(self.data.copy())

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"

    # Arithmetic sugar; scalars are lifted to constant rank-0 tensors.
    def __add__(self, other):
        return op_add(self, other)

    def __radd__(self, other):
        return op_add(other, self)

    def __sub__(self, other):
        return op_sub(self, other)

    def __rsub__(self, other):
        return op_sub(other, self)

    def __mul__(self, other):
        return op_mul(self, other)

    def __rmul__(self, other):
        return op_mul(other, self)

    def __truediv__(self, other):
        return op_div(self, other)

    def __rtruediv__(self, other):
        return op_div(other, self)

    def __neg__(self):
        return op_mul(self, -1.0)

    def __matmul__(self, other):
        return op_matmul(self, other)


class TapeNode:
    """One recorded operation: the output tensor and, per differentiable
    input, a rule mapping the output gradient to that input's contribution."""

    __slots__ = ("out", "rules")

    def __init__(self, out: Tensor, rules: list[tuple[Tensor, Callable[[np.ndarray], np.ndarray]]]):
        self.out = out
        self.rules = rules


class Tape:
    """Append-only record of operations, in execution (= topological) order.

    Use as a context manager around a forward pass, then call ``backward``
    on the scalar result.  Ops executed while no tape is active record
    nothing, which is the cheap path for inference.
    """

    def __init__(self):
        self.nodes: list[TapeNode] = []

    def __enter__(self) -> "Tape":
        _tape_stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _tape_stack().pop()
        if popped is not self:
            raise RuntimeError("tape stack corrupted: exited a tape that is not innermost")
        return False

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


def _record(out: Tensor, rules: list[tuple[Tensor, Callable[[np.ndarray], np.ndarray]]]) -> Tensor:
    if rules:
        tape = active_tape()
        if tape is not None:
            tape.nodes.append(TapeNode(out, rules))
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


def _row_broadcast(sa: tuple[int, ...], sb: tuple[int, ...]) -> bool:
    """True for (B, 1) against (B, N), in either order."""
    return (len(sa) == len(sb) == 2 and sa[0] == sb[0]
            and (sa[1] == 1 or sb[1] == 1))


def _binary_shapes(name: str, a: Tensor, b: Tensor) -> None:
    sa, sb = a.data.shape, b.data.shape
    if sa != sb and sa != () and sb != () and not _row_broadcast(sa, sb):
        raise ValueError(f"{name}: shape mismatch {sa} vs {sb} (shapes must match, "
                         "one operand must be a scalar, or be (B, 1) against (B, N))")


def _reduce_to(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    # Undo broadcasting: a scalar operand receives the summed gradient, a
    # (B, 1) operand the sum over each row.
    if grad.shape == shape:
        return grad
    if shape == ():
        return np.asarray(grad.sum(), dtype=np.float64)
    return grad.sum(axis=1, keepdims=True)


def op_add(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    _binary_shapes("add", a, b)
    out = Tensor(a.data + b.data, requires_grad=a.requires_grad or b.requires_grad)
    rules = []
    if a.requires_grad:
        rules.append((a, lambda g, s=a.data.shape: _reduce_to(g, s)))
    if b.requires_grad:
        rules.append((b, lambda g, s=b.data.shape: _reduce_to(g, s)))
    return _record(out, rules)


def op_sub(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    _binary_shapes("sub", a, b)
    out = Tensor(a.data - b.data, requires_grad=a.requires_grad or b.requires_grad)
    rules = []
    if a.requires_grad:
        rules.append((a, lambda g, s=a.data.shape: _reduce_to(g, s)))
    if b.requires_grad:
        rules.append((b, lambda g, s=b.data.shape: _reduce_to(-g, s)))
    return _record(out, rules)


def op_mul(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    _binary_shapes("mul", a, b)
    out = Tensor(a.data * b.data, requires_grad=a.requires_grad or b.requires_grad)
    rules = []
    if a.requires_grad:
        rules.append((a, lambda g, other=b.data, s=a.data.shape: _reduce_to(g * other, s)))
    if b.requires_grad:
        rules.append((b, lambda g, other=a.data, s=b.data.shape: _reduce_to(g * other, s)))
    return _record(out, rules)


def op_div(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    _binary_shapes("div", a, b)
    if _checked and np.any(b.data == 0.0):
        raise ValueError("div: divisor contains zero")
    out = Tensor(a.data / b.data, requires_grad=a.requires_grad or b.requires_grad)
    rules = []
    if a.requires_grad:
        rules.append((a, lambda g, den=b.data, s=a.data.shape: _reduce_to(g / den, s)))
    if b.requires_grad:
        rules.append((b, lambda g, num=a.data, den=b.data, s=b.data.shape:
                      _reduce_to(-g * num / (den * den), s)))
    return _record(out, rules)


def op_matmul(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ValueError(f"matmul: operands must be rank-2, got {a.data.shape} and {b.data.shape}")
    if a.data.shape[1] != b.data.shape[0]:
        raise ValueError(f"matmul: inner dimensions disagree, {a.data.shape} vs {b.data.shape}")
    out = Tensor(a.data @ b.data, requires_grad=a.requires_grad or b.requires_grad)
    rules = []
    if a.requires_grad:
        rules.append((a, lambda g, bt=b.data: g @ bt.T))
    if b.requires_grad:
        rules.append((b, lambda g, at=a.data: at.T @ g))
    return _record(out, rules)


def op_transpose(x) -> Tensor:
    """Swap the two axes of a rank-2 tensor."""
    x = _lift(x)
    if x.data.ndim != 2:
        raise ValueError(f"transpose: expected rank-2 tensor, got shape {x.data.shape}")
    out = Tensor(x.data.T, requires_grad=x.requires_grad)
    rules = []
    if x.requires_grad:
        rules.append((x, lambda g: np.ascontiguousarray(g.T)))
    return _record(out, rules)


def op_conv1d(x, kernels, stride: int = 1, pad: int | None = None, bias=None) -> Tensor:
    """1-D cross-correlation of (B, C_in, N) with kernels (C_out, C_in, W),
    giving (B, C_out, N_out).  A (C_in, N) input is a batch of one and gives
    (C_out, N_out).

    ``pad=None`` applies (W-1)//2 zeros each side ("same" length at stride 1).
    ``bias`` is an optional (C_out,) tensor added per output channel.
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
    if pad is None:
        pad = (width - 1) // 2
    if width > n + 2 * pad:
        raise ValueError(f"conv1d: kernel width {width} exceeds padded length {n + 2 * pad}")

    n_out = (n + 2 * pad - width) // stride + 1
    span = stride * (n_out - 1) + 1
    xp = np.zeros((batch, c_in, n + 2 * pad))
    xp[:, :, pad:pad + n] = xb
    # im2col: cols[b, ci, w, t] = xp[b, ci, t*stride + w], one strided slice per tap
    cols = np.empty((batch, c_in, width, n_out))
    for w in range(width):
        cols[:, :, w, :] = xp[:, :, w:w + span:stride]
    cols = cols.reshape(batch, c_in * width, n_out)
    kmat = kernels.data.reshape(c_out, c_in * width)
    out_data = np.matmul(kmat, cols)

    bias_t = None
    if bias is not None:
        bias_t = _lift(bias)
        if bias_t.data.shape != (c_out,):
            raise ValueError(f"conv1d: bias shape {bias_t.data.shape} != ({c_out},)")
        out_data += bias_t.data[:, None]
    out_shape = x.data.shape[:-2] + (c_out, n_out)

    requires = x.requires_grad or kernels.requires_grad or (bias_t is not None and bias_t.requires_grad)
    out = Tensor(out_data.reshape(out_shape), requires_grad=requires)
    rules = []
    gshape = (batch, c_out, n_out)
    if kernels.requires_grad:
        rules.append((kernels, lambda g, c=cols, sh=kernels.data.shape:
                      np.tensordot(g.reshape(gshape), c, axes=([0, 2], [0, 2])).reshape(sh)))
    if x.requires_grad:
        def _dx(g, km=kmat, xshape=x.data.shape):
            dcols = np.matmul(km.T, g.reshape(gshape)).reshape(batch, c_in, width, n_out)
            dxp = np.zeros((batch, c_in, n + 2 * pad))
            for w in range(width):  # col2im: the adjoint of the im2col slices
                dxp[:, :, w:w + span:stride] += dcols[:, :, w, :]
            return np.ascontiguousarray(dxp[:, :, pad:pad + n]).reshape(xshape)
        rules.append((x, _dx))
    if bias_t is not None and bias_t.requires_grad:
        rules.append((bias_t, lambda g: g.reshape(gshape).sum(axis=(0, 2))))
    return _record(out, rules)


def op_relu(x) -> Tensor:
    x = _lift(x)
    out = Tensor(np.maximum(x.data, 0.0), requires_grad=x.requires_grad)
    rules = []
    if x.requires_grad:
        # subgradient 0 at exactly 0
        rules.append((x, lambda g, mask=(x.data > 0.0): g * mask))
    return _record(out, rules)


# Below this |t| the Dirichlet kernel is evaluated by its Taylor series: the
# closed-form derivative cancels catastrophically near the removable
# singularity at 0, while two series terms of it are exact to ~1e-12 here.
DIRICHLET_SERIES_BELOW = 1e-4


def _dirichlet_series(length: int) -> tuple[float, float]:
    """(a, b) with D(t) = 1 - a t^2 + b t^4 + O(t^6), the Taylor series of
    the cosine sum D(t) = (1/L) sum_{k=-M..M} cos(2 pi k t / L)."""
    sq = length * length
    return (np.pi ** 2 * (sq - 1) / (6.0 * sq),
            np.pi ** 4 * (sq - 1) * (3 * sq - 7) / (360.0 * sq * sq))


def _dirichlet(t: np.ndarray, length: int):
    """D(t) elementwise, and the pieces its derivative reuses: the mask of
    series entries, t with those entries set to a safe 1 (keeping 0 / 0 out
    of the closed form), and sin(pi t / L) at the safe t."""
    small = np.abs(t) < DIRICHLET_SERIES_BELOW
    safe = t.copy()
    safe[small] = 1.0
    s_half = np.sin(np.pi / length * safe)
    value = np.divide(np.sin(np.pi * safe), length * s_half, out=np.empty_like(safe))
    a, b = _dirichlet_series(length)
    t2 = t[small] ** 2
    value[small] = 1.0 - t2 * (a - b * t2)
    return value, (small, safe, s_half)


def _dirichlet_slope(t: np.ndarray, length: int, value: np.ndarray, small: np.ndarray,
                     safe: np.ndarray, s_half: np.ndarray) -> np.ndarray:
    """D'(t) = pi / (L sin(pi t / L)) * (cos(pi t) - D cos(pi t / L)), and
    -2 a t + 4 b t^3 on the series entries."""
    slope = np.multiply(np.pi / (length * s_half),
                        np.cos(np.pi * safe) - value * np.cos(np.pi / length * safe),
                        out=np.empty_like(safe))
    a, b = _dirichlet_series(length)
    ts = t[small]
    slope[small] = ts * (4.0 * b * ts * ts - 2.0 * a)
    return slope


def op_dirichlet(t, length: int) -> Tensor:
    """Periodic sinc D(t) = sin(pi t) / (L sin(pi t / L)) for odd L, the
    centre tap of an L-point DFT phase shift by t; D(0) = 1.

    Defined here for |t| < L, where 0 is its only (removable) singularity.
    The forward pass evaluates D only; the derivative's cosines are
    computed inside the backward rule.
    """
    t = _lift(t)
    length = int(length)
    if length < 1 or length % 2 == 0:
        raise ValueError(f"dirichlet: length must be odd and positive, got {length}")
    if _checked and t.data.size and np.max(np.abs(t.data)) >= length:
        raise ValueError(f"dirichlet: |t| must stay below L = {length}")
    value, parts = _dirichlet(t.data, length)
    out = Tensor(value, requires_grad=t.requires_grad)
    rules = []
    if t.requires_grad:
        rules.append((t, lambda g, at=t.data: g * _dirichlet_slope(at, length, value, *parts)))
    return _record(out, rules)


def op_exp(x) -> Tensor:
    x = _lift(x)
    out = Tensor(np.exp(x.data), requires_grad=x.requires_grad)
    rules = []
    if x.requires_grad:
        rules.append((x, lambda g, d=out.data: g * d))
    return _record(out, rules)


def op_log(x) -> Tensor:
    x = _lift(x)
    if _checked and np.any(x.data <= 0.0):
        raise ValueError("log: input must be strictly positive")
    out = Tensor(np.log(x.data), requires_grad=x.requires_grad)
    rules = []
    if x.requires_grad:
        rules.append((x, lambda g, d=x.data: g / d))
    return _record(out, rules)


def op_abs(x) -> Tensor:
    x = _lift(x)
    out = Tensor(np.abs(x.data), requires_grad=x.requires_grad)
    rules = []
    if x.requires_grad:
        # subgradient 0 at exactly 0
        rules.append((x, lambda g, s=np.sign(x.data): g * s))
    return _record(out, rules)


def _check_axis(axis) -> None:
    if axis not in (None, -1):
        raise ValueError(f"reductions run over all elements (axis=None) or the "
                         f"last axis (axis=-1), got axis={axis!r}")


def op_sum(x, axis: int | None = None) -> Tensor:
    """Sum of all elements, or with ``axis=-1`` of each row along the last
    axis, keeping it as length 1 ((B, N) -> (B, 1))."""
    x = _lift(x)
    _check_axis(axis)
    out = Tensor(x.data.sum(axis=axis, keepdims=axis is not None),
                 requires_grad=x.requires_grad)
    rules = []
    if x.requires_grad:
        rules.append((x, lambda g, sh=x.data.shape: np.broadcast_to(g, sh).copy()))
    return _record(out, rules)


def op_mean(x) -> Tensor:
    x = _lift(x)
    if x.data.size == 0:
        raise ValueError("mean of empty tensor")
    out = Tensor(x.data.mean(), requires_grad=x.requires_grad)
    rules = []
    if x.requires_grad:
        rules.append((x, lambda g, sh=x.data.shape, n=x.data.size: np.full(sh, float(g) / n)))
    return _record(out, rules)


def _extremum(x, pick, axis) -> Tensor:
    x = _lift(x)
    _check_axis(axis)
    if x.data.size == 0:
        raise ValueError("extremum of empty tensor")
    # one row per reduction; first attaining index, row-major
    source = x.data.reshape(1, -1) if axis is None else x.data.reshape(-1, x.data.shape[-1])
    rows = np.arange(source.shape[0])
    index = pick(source, axis=1)
    out_shape = () if axis is None else x.data.shape[:-1] + (1,)
    out = Tensor(source[rows, index].reshape(out_shape), requires_grad=x.requires_grad)
    rules = []
    if x.requires_grad:
        def _route(g, sh=source.shape):
            grad = np.zeros(sh)
            grad[rows, index] = np.reshape(g, -1)
            return grad.reshape(x.data.shape)
        rules.append((x, _route))
    return _record(out, rules)


def op_min_reduce(x, axis: int | None = None) -> Tensor:
    """Minimum over all elements, or with ``axis=-1`` of each row (kept as
    length 1); gradient routes to the first attaining index."""
    return _extremum(x, np.argmin, axis)


def op_max_reduce(x, axis: int | None = None) -> Tensor:
    """Maximum over all elements, or with ``axis=-1`` of each row (kept as
    length 1); gradient routes to the first attaining index."""
    return _extremum(x, np.argmax, axis)


def op_cumsum(x) -> Tensor:
    """Running sum along the last axis of a rank-1 or rank-2 tensor."""
    x = _lift(x)
    if x.data.ndim not in (1, 2):
        raise ValueError(f"cumsum: expected rank-1 or rank-2 tensor, got shape {x.data.shape}")
    if x.data.size == 0:
        raise ValueError("cumsum of empty tensor")
    out = Tensor(np.cumsum(x.data, axis=-1), requires_grad=x.requires_grad)
    rules = []
    if x.requires_grad:
        rules.append((x, lambda g: np.cumsum(g[..., ::-1], axis=-1)[..., ::-1]))
    return _record(out, rules)


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
    out = Tensor(x.data[idx], requires_grad=x.requires_grad)
    rules = []
    if x.requires_grad:
        rules.append((x, lambda g, i=idx.ravel(), m=n:
                      np.bincount(i, weights=np.ravel(g), minlength=m)))
    return _record(out, rules)


def op_concat(parts: Sequence) -> Tensor:
    """Concatenate rank-1 tensors."""
    tensors = [_lift(p) for p in parts]
    if not tensors:
        raise ValueError("concat of no tensors")
    for t in tensors:
        if t.data.ndim != 1:
            raise ValueError(f"concat: expected rank-1 parts, got shape {t.data.shape}")
    out = Tensor(np.concatenate([t.data for t in tensors]),
                 requires_grad=any(t.requires_grad for t in tensors))
    rules = []
    offset = 0
    for t in tensors:
        if t.requires_grad:
            rules.append((t, lambda g, lo=offset, hi=offset + t.data.size: g[lo:hi]))
        offset += t.data.size
    return _record(out, rules)


def op_reshape(x, shape: tuple[int, ...] | list[int]) -> Tensor:
    x = _lift(x)
    shape = tuple(int(s) for s in shape)
    out = Tensor(x.data.reshape(shape), requires_grad=x.requires_grad)
    rules = []
    if x.requires_grad:
        rules.append((x, lambda g, sh=x.data.shape: g.reshape(sh)))
    return _record(out, rules)


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
