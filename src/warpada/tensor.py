"""Dense float64 tensors with reverse-mode differentiation on a dynamic tape.

Every operation here computes its result eagerly with numpy and hands it,
with one backward rule per input, to ``_record``, which applies the one
recording rule (see there).  The tape is rebuilt on every forward pass
(define-by-run), so graph topology may depend on runtime shapes.  One tape
records at a time; tapes do not nest.

A node holds handles, not tensors: the integer handle of the op's output
and, per differentiable input, that input's handle and its backward rule.
Backward routes gradients by handle.  The tape holds strong references
only to its leaves, the inputs no op on it produced, so an intermediate
output's array lives only as long as the forward holds it or a rule saved
it, and each rule saves only what its formula reads (relu a boolean mask,
add, sub, sum and reshape only shapes).  A tape runs backward once: as the
reverse sweep passes each node it frees the arrays its rules saved, so a
forward's saved state shrinks as backward proceeds rather than living
until the tape dies.  Backward returns nothing: the one place a gradient
is read is the ``grad`` of the leaf it belongs to.

Elementwise binary ops take operands of equal shape, or one rank-0
operand against any shape; there is no other broadcasting.  conv1d takes
batches only, and the last-axis sum keeps a leading batch axis, so a whole
minibatch is one node per op.  All data is float64.  Fused terms outside
this module (``make_path``, ``warp_apply``, ``loss_ce``, ``entropy``, the
classifier's pool and head) compute in numpy and build their outputs
through ``_record`` too.

Ops never scan values for finiteness; values are validated where they enter
the program and where a step yields a loss or an objective.  Ops raise only
on bad shapes and axes.
"""

from __future__ import annotations

import functools
import itertools
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
    "op_reshape",
    "finite_diff_check",
]

Rule = Callable[[np.ndarray], np.ndarray]
_active: Tape | None = None  # the tape recording now, if any
_handles = itertools.count()  # a tensor's handle is drawn once, when it first enters a tape


class Tensor:
    """A contiguous float64 array plus gradient bookkeeping.

    ``grad`` is where ``Tape.backward`` leaves the gradient of a
    requires_grad leaf that the root's gradient reaches; it is overwritten
    (never accumulated) across separate backward calls, and a leaf off the
    root's path keeps its earlier ``grad`` (None if it never had one).
    ``handle`` names the tensor on a tape: None until it enters one as an
    op's recorded output or input, then an integer unique in the process.
    """

    __slots__ = ("data", "requires_grad", "grad", "handle")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if not arr.flags["C_CONTIGUOUS"]:
            arr = np.ascontiguousarray(arr)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self.handle: int | None = None

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
    """One recorded operation: the output's handle and, per differentiable
    input, the input's handle and a rule mapping the output gradient to
    that input's contribution."""

    out: int | None
    rules: list[tuple[int, Rule]] | tuple[()]


# What a node becomes once backward has run its rules.
_SPENT = TapeNode(None, ())


class Tape:
    """Append-only record of operations, in execution (= topological) order.

    Use as a context manager around a forward pass, then call ``backward``
    on the scalar result.  Ops executed while no tape is active record
    nothing, which is the cheap path for inference.  Tapes do not nest:
    entering one while another records raises RuntimeError and leaves the
    recording tape in place.

    ``nodes`` holds handles and rules, never op outputs; ``leaves`` maps
    the handle of every leaf (a differentiable input no op on this tape
    produced) to the tensor, the only tensors the tape keeps alive.
    ``backward`` runs once per tape and stores the gradients on the
    leaves' ``grad``.  It replaces each node in ``nodes`` by the spent
    placeholder as it passes, so ``len(nodes)`` stays the recorded count
    while the nodes' saved state is freed, and a tape has run backward
    exactly when its last node is spent.
    """

    def __init__(self):
        self.nodes: list[TapeNode] = []
        self.leaves: dict[int, Tensor] = {}
        self._own: set[int] = set()  # handles of this tape's outputs and leaves

    def __enter__(self) -> "Tape":
        global _active
        if _active is not None:
            raise RuntimeError("a tape is already recording; tapes do not nest")
        _active = self
        return self

    def __exit__(self, exc_type, exc, tb):
        global _active
        _active = None

    def _handle(self, tensor: Tensor) -> int:
        """``tensor``'s handle, recording it as a leaf unless it is already
        on this tape."""
        handle = tensor.handle
        if handle not in self._own:
            if handle is None:
                handle = tensor.handle = next(_handles)
            self._own.add(handle)
            self.leaves[handle] = tensor
        return handle

    def _append(self, out: Tensor, rules: list[tuple[Tensor, Rule]]) -> None:
        pairs = [(self._handle(tensor), rule) for tensor, rule in rules]
        out.handle = next(_handles)
        self._own.add(out.handle)
        self.nodes.append(TapeNode(out.handle, pairs))

    def backward(self, root: Tensor) -> None:
        """Set ``.grad`` on every requires_grad leaf the gradient of
        ``root`` reaches.

        Visits nodes exactly once, in reverse recording order, routing each
        gradient by handle.  An op output's gradient is dropped as soon as
        its node's rules have run, since every consumer was recorded later
        and has already been visited.  So is the node itself: it becomes
        the spent placeholder in ``nodes``, freeing its rules' saved arrays
        unless something else holds them, and the tape lets go of its
        leaves at the end.  Buffers are freshly allocated, so repeating an
        identical forward+backward reproduces gradients bitwise.  A second
        call, even after a rule raised part-way, raises RuntimeError, since
        the rules it would need are gone.
        """
        if root.data.shape != ():
            raise ValueError(f"backward root must be scalar, got shape {root.data.shape}")
        if not self.nodes:
            raise ValueError("backward on an empty tape")
        if self.nodes[-1] is _SPENT:
            raise RuntimeError("this tape already ran backward; record a new one")
        grads: dict[int, np.ndarray] = {self._handle(root): np.ones((), dtype=np.float64)}
        for i in reversed(range(len(self.nodes))):
            out, rules = self.nodes[i]
            self.nodes[i] = _SPENT
            out_grad = grads.pop(out, None)
            if out_grad is None:
                continue
            for handle, rule in rules:
                contribution = rule(out_grad)
                existing = grads.get(handle)
                if existing is None:
                    grads[handle] = contribution
                else:
                    grads[handle] = existing + contribution
        # every output's gradient was popped at its node: the rest are leaves'
        for handle, grad in grads.items():
            leaf = self.leaves[handle]
            if leaf.requires_grad:
                leaf.grad = grad
        self.leaves = {}


def _lift(value) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=np.float64))


def _record(value, *inputs: tuple[Tensor, Rule]) -> Tensor:
    """Build an op's output from its numpy result ``value`` and its
    ``(input, rule)`` pairs by the one recording rule: keep the pairs whose
    input requires grad; the output requires grad if any pair is kept; while
    a tape records, append one node to it holding the output's handle and
    the kept pairs as (input handle, rule), in argument order (the order
    backward accumulates in).  An input no op on the tape produced becomes
    one of its leaves.  A rule should close over only the arrays, shapes
    or masks its formula reads, never a tensor: what a rule holds lives
    until backward passes its node."""
    rules = [(tensor, rule) for tensor, rule in inputs if tensor.requires_grad]
    out = Tensor(value, requires_grad=bool(rules))
    if rules and _active is not None:
        _active._append(out, rules)
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
    sa, sb = a.data.shape, b.data.shape
    return _record(a.data + b.data, (a, lambda g: _reduce_to(g, sa)),
                   (b, lambda g: _reduce_to(g, sb)))


def op_sub(a, b) -> Tensor:
    a, b = _binary("sub", a, b)
    sa, sb = a.data.shape, b.data.shape
    return _record(a.data - b.data, (a, lambda g: _reduce_to(g, sa)),
                   (b, lambda g: _reduce_to(-g, sb)))


def op_mul(a, b) -> Tensor:
    a, b = _binary("mul", a, b)
    da, db = a.data, b.data
    return _record(da * db, (a, lambda g: _reduce_to(g * db, da.shape)),
                   (b, lambda g: _reduce_to(g * da, db.shape)))


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
    giving (B, C_out, N_out).

    The input is padded with (W-1)//2 zeros each side ("same" length at
    stride 1).  ``bias`` is an optional (C_out,) tensor added per output
    channel.
    """
    x, kernels = _lift(x), _lift(kernels)
    if x.data.ndim != 3 or kernels.data.ndim != 3:
        raise ValueError(f"conv1d: expected (B, C_in, N) input and (C_out, C_in, W) "
                         f"kernels, got {x.data.shape} and {kernels.data.shape}")
    batch, c_in, n = x.data.shape
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
        cols[:, :, w, lo:hi] = x.data[:, :, sl]
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

    def _dx(g):
        dcols = np.matmul(kmat.T, g).reshape(batch, c_in, width, n_out)
        dx = np.zeros((batch, c_in, n))
        for w, (lo, hi, sl) in enumerate(taps):  # col2im, the adjoint, in tap order
            dx[:, :, sl] += dcols[:, :, w, lo:hi]
        return dx

    return _record(out_data,
                   (kernels, lambda g: np.tensordot(g, cols, axes=([0, 2], [0, 2]))
                    .reshape(c_out, c_in, width)),
                   (x, _dx),
                   (bias, lambda g: g.sum(axis=(0, 2))))


def op_relu(x) -> Tensor:
    """max(x, 0); its rule saves only the boolean mask of positive
    entries, built only when x requires grad (subgradient 0 at exactly 0)."""
    x = _lift(x)
    out = np.maximum(x.data, 0.0)
    if not x.requires_grad:
        return _record(out)
    mask = x.data > 0.0
    return _record(out, (x, lambda g: g * mask))


def op_sum(x, axis: int | None = None) -> Tensor:
    """Sum of all elements, or with ``axis=-1`` of each row along the last
    axis, keeping it as length 1 ((B, N) -> (B, 1))."""
    x = _lift(x)
    if axis not in (None, -1):
        raise ValueError(f"sum runs over all elements (axis=None) or the "
                         f"last axis (axis=-1), got axis={axis!r}")
    shape = x.data.shape
    return _record(x.data.sum(axis=axis, keepdims=axis is not None),
                   (x, lambda g: np.broadcast_to(g, shape).copy()))


def op_reshape(x, shape: tuple[int, ...] | list[int]) -> Tensor:
    x = _lift(x)
    shape, before = tuple(int(s) for s in shape), x.data.shape
    return _record(x.data.reshape(shape), (x, lambda g: g.reshape(before)))


def finite_diff_check(f: Callable[..., Tensor], *leaves: Tensor, h: float = 1e-5,
                      coords: Iterable[int] | None = None) -> float:
    """Max relative error between the tape gradient of ``f`` at ``leaves``
    and a central finite difference with step ``h``, over the coordinates
    ``coords`` of the leaves' flat entries concatenated in order (every
    coordinate when None).

    The relative error per coordinate is |analytic - numeric| divided by
    max(|analytic|, |numeric|, 1e-8).  ``f`` must map the leaves to a scalar
    tensor and be evaluable at every probed point; a leaf it ignores has a
    zero gradient.  Every call of ``f`` gets fresh copies of the leaves.
    """
    x = np.concatenate([leaf.data.reshape(-1) for leaf in leaves])
    cuts = np.cumsum([leaf.data.size for leaf in leaves])[:-1]

    def at(flat, requires_grad=False):
        return [Tensor(part.reshape(leaf.data.shape).copy(), requires_grad)
                for part, leaf in zip(np.split(flat, cuts), leaves)]

    probes = at(x, requires_grad=True)
    with Tape() as tape:
        tape.backward(f(*probes))
    analytic = np.concatenate([np.zeros(p.data.size) if p.grad is None else p.grad.reshape(-1)
                               for p in probes])

    errors = []
    for i in range(x.size) if coords is None else coords:
        forward = x.copy()
        forward[i] += h
        backward = x.copy()
        backward[i] -= h
        numeric = (float(f(*at(forward)).data) - float(f(*at(backward)).data)) / (2.0 * h)
        ana = float(analytic[i])
        errors.append(abs(ana - numeric) / max(abs(ana), abs(numeric), 1e-8))
    return float(np.max(errors))
