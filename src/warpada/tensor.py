"""Dense float64 tensors with reverse-mode differentiation on a dynamic tape.

Every operation here computes its result eagerly with numpy and, when a tape
is active and an input wants gradients, appends a node holding the backward
rule.  The tape is rebuilt on every forward pass (define-by-run), so graph
topology may depend on runtime shapes.  A tape and the tensors recorded on it
belong to one thread; separate threads use separate tapes.

Elementwise binary ops require equal shapes, a rank-0 operand, or one
(B, 1) operand against a (B, N) one, which carries a per-row value across
its row.  There is no other broadcasting.  A leading batch axis runs
through conv1d and the last-axis reductions, so a whole minibatch is one
node per op.  All data is float64.

Ops never scan values for finiteness; values are validated where they enter
the program and where a step yields a loss or an objective.  Beyond shape
and index checks, ops raise only on a zero divisor, a nonpositive log
argument, or a Dirichlet-filter shift with |shift| + M >= L.
"""

from __future__ import annotations

import threading
from typing import Callable, Iterable

import numpy as np

__all__ = [
    "Tensor",
    "Tape",
    "as_batch",
    "op_add",
    "op_sub",
    "op_mul",
    "op_div",
    "op_matmul",
    "op_transpose",
    "op_conv1d",
    "op_relu",
    "op_dirichlet_filter",
    "op_exp",
    "op_log",
    "op_sum",
    "op_max_reduce",
    "op_gather",
    "op_reshape",
    "finite_diff_check",
]

_tls = threading.local()

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
    if np.any(b.data == 0.0):
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


def _dirichlet_rows(delta: np.ndarray, length: int) -> tuple[np.ndarray, Callable[[], np.ndarray]]:
    """The (R, L) rows D(delta_r - w), w = -M..M, of the periodic sinc
    D(t) = sin(pi t) / (L sin(pi t / L)), and a function computing their
    slopes D', with transcendentals evaluated per row, not per tap.

    With k = rint(delta) and f = delta - k (exact, |f| <= 1/2), integer w
    gives sin(pi t) = (-1)^(k+w) sin(pi f) and cos(pi t) likewise, and angle
    addition gives (-1)^w sin(pi t / L) and (-1)^w cos(pi t / L) from the
    row's sin and cos of pi delta / L and per-tap constants: one (R, 2) by
    (2, L) product.  The signs (-1)^w cancel in D and D'.  Every tap but
    w = k has |t| >= 1/2, and |t| <= L - 1/2 while |delta| <= M + 1/2 (as
    in the warp), so sin(pi t / L) stays clear of 0.  At w = k the angle
    addition cancels, so that tap is evaluated from f directly, by the
    Taylor series below DIRICHLET_SERIES_BELOW.
    """
    half = length // 2
    ang = np.pi / length
    taps = np.arange(-half, half + 1)
    tap_trig = (-1.0) ** taps * np.stack([np.cos(ang * taps), np.sin(ang * taps)])
    k = np.rint(delta)
    f = delta - k
    sign = 1.0 - 2.0 * (k - 2.0 * np.floor(0.5 * k))  # (-1)^k, exact in floats
    sin_row, cos_row = np.sin(ang * delta), np.cos(ang * delta)
    numer = sign * np.sin(np.pi * f) / length  # (-1)^(k+w) sin(pi t) / L
    s_half = np.stack([sin_row, -cos_row], axis=1) @ tap_trig  # (-1)^w sin(pi t / L)
    # the tap w = k of every row whose k lies inside the window; series rows
    # get a safe f, keeping 0 / 0 out, and their values are overwritten
    rows = np.flatnonzero(np.abs(k) <= half)
    cols = (k[rows] + half).astype(np.intp)
    fc = f[rows]
    small = np.abs(fc) < DIRICHLET_SERIES_BELOW
    safe = np.where(small, 0.5, fc)
    s_centre = np.sin(ang * safe)
    s_half[rows, cols] = sign[rows] * s_centre
    value = numer[:, None] / s_half
    a, b = _dirichlet_series(length)
    f2 = fc * fc
    value[rows, cols] = np.where(small, 1.0 - f2 * (a - b * f2), value[rows, cols])

    def slope() -> np.ndarray:
        # D' = (pi / L) (cos(pi t) sin(pi t / L) - sin(pi t) cos(pi t / L) / L)
        # / sin(pi t / L)^2, whose numerator is again one angle addition; at
        # w = k, D'(f) = pi / (L sin(pi f / L)) (cos(pi f) - D cos(pi f / L))
        cos_t = sign * np.cos(np.pi * f)
        coef = ang * np.stack([cos_t * sin_row - numer * cos_row,
                               -(cos_t * cos_row + numer * sin_row)], axis=1)
        out = (coef @ tap_trig) / (s_half * s_half)
        centre = ang / s_centre * (np.cos(np.pi * safe) - value[rows, cols] * np.cos(ang * safe))
        out[rows, cols] = np.where(small, fc * (4.0 * b * f2 - 2.0 * a), centre)
        return out

    return value, slope


def op_dirichlet_filter(x, index, shifts, length: int) -> Tensor:
    """Rows out[r] = sum_{w=-M..M} x[index[r, M + w]] * D(shifts[r] - w)
    with the periodic sinc D(t) = sin(pi t) / (L sin(pi t / L)), D(0) = 1,
    for odd L = 2M+1: each gathered segment delayed band-limitedly by its
    row's shift.

    ``x`` is rank-1, ``index`` an (R, L) integer array into it and
    ``shifts`` (R, 1); the result is (R, 1).  Defined for |shift| + M < L,
    where every tap stays inside the kernel's period and 0 is its only
    (removable) singularity.  The backward rule scatter-adds g * D into x
    and gives each shift g * sum_w x[index[r, M + w]] * D'(shift - w); the
    slopes are computed inside it.
    """
    x, shifts = _lift(x), _lift(shifts)
    length = int(length)
    if length < 1 or length % 2 == 0:
        raise ValueError(f"dirichlet_filter: length must be odd and positive, got {length}")
    if x.data.ndim != 1:
        raise ValueError(f"dirichlet_filter: expected rank-1 source, got shape {x.data.shape}")
    idx = np.asarray(index)
    if not np.issubdtype(idx.dtype, np.integer) or idx.ndim != 2 or idx.shape[1] != length:
        raise ValueError(f"dirichlet_filter: index must be an (R, {length}) integer array, "
                         f"got {idx.dtype} {idx.shape}")
    n, rows = x.data.shape[0], idx.shape[0]
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise ValueError(f"dirichlet_filter: index out of range for length {n}")
    if shifts.data.shape != (rows, 1):
        raise ValueError(f"dirichlet_filter: shifts shape {shifts.data.shape} != ({rows}, 1)")
    if rows and np.max(np.abs(shifts.data)) + length // 2 >= length:
        raise ValueError(f"dirichlet_filter: |shift| + M must stay below L = {length}")
    seg = x.data[idx]
    kernel, slope = _dirichlet_rows(shifts.data[:, 0], length)
    out = Tensor(np.einsum("rw,rw->r", seg, kernel)[:, None],
                 requires_grad=x.requires_grad or shifts.requires_grad)
    rules = []
    if x.requires_grad:
        rules.append((x, lambda g: np.bincount(idx.ravel(), weights=(g * kernel).ravel(),
                                               minlength=n)))
    if shifts.requires_grad:
        rules.append((shifts, lambda g: g * np.einsum("rw,rw->r", seg, slope())[:, None]))
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
    if np.any(x.data <= 0.0):
        raise ValueError("log: input must be strictly positive")
    out = Tensor(np.log(x.data), requires_grad=x.requires_grad)
    rules = []
    if x.requires_grad:
        rules.append((x, lambda g, d=x.data: g / d))
    return _record(out, rules)


def op_sum(x, axis: int | None = None) -> Tensor:
    """Sum of all elements, or with ``axis=-1`` of each row along the last
    axis, keeping it as length 1 ((B, N) -> (B, 1))."""
    x = _lift(x)
    if axis not in (None, -1):
        raise ValueError(f"sum runs over all elements (axis=None) or the "
                         f"last axis (axis=-1), got axis={axis!r}")
    out = Tensor(x.data.sum(axis=axis, keepdims=axis is not None),
                 requires_grad=x.requires_grad)
    rules = []
    if x.requires_grad:
        rules.append((x, lambda g, sh=x.data.shape: np.broadcast_to(g, sh).copy()))
    return _record(out, rules)


def op_max_reduce(x) -> Tensor:
    """Maximum of each row along the last axis, kept as length 1
    ((B, N) -> (B, 1)); gradient routes to the first attaining index."""
    x = _lift(x)
    if x.data.ndim == 0 or x.data.size == 0:
        raise ValueError(f"max_reduce: expected a non-empty tensor of rank 1 or more, "
                         f"got shape {x.data.shape}")
    source = x.data.reshape(-1, x.data.shape[-1])
    rows = np.arange(source.shape[0])
    index = np.argmax(source, axis=1)
    out = Tensor(source[rows, index].reshape(x.data.shape[:-1] + (1,)),
                 requires_grad=x.requires_grad)
    rules = []
    if x.requires_grad:
        def _route(g, sh=source.shape):
            grad = np.zeros(sh)
            grad[rows, index] = np.reshape(g, -1)
            return grad.reshape(x.data.shape)
        rules.append((x, _route))
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
