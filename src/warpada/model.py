"""Shallow 1-D convolutional classifier and the loss terms both phases use.

Three strided conv+relu blocks pool into a 64-dim feature vector z (the
"semantic" representation the distance penalty acts on), followed by an
affine head.  The pool and the head compute in numpy and record one tape
node each, as the loss terms do.  Weights live as plain numpy arrays on the
model; a forward pass lifts them onto the active tape on demand, so the same
model object serves gradient steps, frozen adversarial generation, and
inference.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .signal import TimeSeries
from .tensor import (
    Tensor,
    _record,
    as_batch,
    op_conv1d,
    op_mul,
    op_relu,
    op_reshape,
    op_sub,
    op_sum,
)

__all__ = [
    "Classifier",
    "forward",
    "loss_ce",
    "entropy",
    "semantic_distance",
    "save_checkpoint",
    "load_checkpoint",
    "CHECKPOINT_MAGIC",
]

CHECKPOINT_MAGIC = b"TADA1"
CHECKPOINT_VERSION = 1

FEATURE_DIM = 64
_CONV_CHANNELS = (16, 32, FEATURE_DIM)
_KERNEL_WIDTH = 5
_STRIDE = 2


def _layer_shapes(in_channels: int, n_classes: int) -> dict[str, tuple[int, ...]]:
    """Name and shape of every weight array, in checkpoint order."""
    if in_channels < 1 or n_classes < 2:
        raise ValueError(f"need in_channels >= 1 and n_classes >= 2, "
                         f"got {in_channels}, {n_classes}")
    shapes: dict[str, tuple[int, ...]] = {}
    prev = in_channels
    for idx, ch in enumerate(_CONV_CHANNELS, start=1):
        shapes[f"conv{idx}.k"] = (ch, prev, _KERNEL_WIDTH)
        shapes[f"conv{idx}.b"] = (ch,)
        prev = ch
    shapes["head.w"] = (n_classes, FEATURE_DIM)
    shapes["head.b"] = (n_classes,)
    return shapes


class Classifier:
    """conv(C->16)-relu-conv(16->32)-relu-conv(32->64)-relu-GAP-affine.

    All convs use width 5, stride 2, same-style padding.  Construction is
    deterministic in (in_channels, n_classes, seed).
    """

    def __init__(self, in_channels: int, n_classes: int, seed: int = 0):
        self.in_channels = int(in_channels)
        self.n_classes = int(n_classes)
        self.seed = int(seed)
        shapes = _layer_shapes(self.in_channels, self.n_classes)
        rng = np.random.default_rng(self.seed)
        self.weights: dict[str, np.ndarray] = {}
        for name, shape in shapes.items():
            if name.endswith(".b"):
                self.weights[name] = np.zeros(shape)
            else:  # uniform in +-sqrt(6 / fan_in)
                bound = np.sqrt(6.0 / math.prod(shape[1:]))
                self.weights[name] = rng.uniform(-bound, bound, size=shape)

    def tensors(self, requires_grad: bool = False) -> dict[str, Tensor]:
        """Lift current weights to tensors (one fresh Tensor per array)."""
        return {name: Tensor(w, requires_grad=requires_grad)
                for name, w in self.weights.items()}

    def apply_gradients(self, grads: dict[str, np.ndarray], lr: float) -> None:
        """SGD step theta <- theta - lr * grad for every named gradient."""
        for name, grad in grads.items():
            self.weights[name] = self.weights[name] - lr * grad


def forward(model: Classifier, x, params: dict[str, Tensor] | None = None):
    """Run the network on a (C, N) sample or a (B, C, N) batch.

    Returns (z, logits): (64,) and (n_classes,) for a sample, (B, 64) and
    (B, n_classes) for a batch, whose rows equal the per-sample results.
    ``params`` substitutes lifted weight tensors (how training gets weight
    gradients); omitted, weights enter as constants and only the input
    stays differentiable.  On a tape, a batch records eight nodes: a conv
    and a relu per block, then the pool and the head as one node each.
    """
    h, single = as_batch(x.values if isinstance(x, TimeSeries) else x, 2)
    if h.data.shape[1] != model.in_channels:
        raise ValueError(f"input shape {h.data.shape[1:]} does not match "
                         f"{model.in_channels} input channels")
    if params is None:
        params = model.tensors(requires_grad=False)

    for idx in range(1, len(_CONV_CHANNELS) + 1):
        h = op_relu(op_conv1d(h, params[f"conv{idx}.k"], stride=_STRIDE,
                              bias=params[f"conv{idx}.b"]))
    z = _pool(h)
    logits = _affine(z, params["head.w"], params["head.b"])
    if single:
        return op_reshape(z, (FEATURE_DIM,)), op_reshape(logits, (model.n_classes,))
    return z, logits


def _pool(h: Tensor) -> Tensor:
    """Global average pool (B, D, T) -> (B, D), as one tape node.

    The mean over time is a product with a (T, 1) column of 1/T, in value
    and in gradient, which rounds differently from a sum scaled by 1/T.
    """
    batch, dim, t = h.data.shape
    p = np.full((t, 1), 1.0 / t, dtype=h.data.dtype)
    return _record((h.data.reshape(batch * dim, t) @ p).reshape(batch, dim),
                   (h, lambda g: (g.reshape(batch * dim, 1) @ p.T).reshape(batch, dim, t)))


def _affine(z: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Logits z w^T + b (B, K) of features z (B, D) under head weights
    w (K, D) and bias b (K,), as one tape node.

    Values and gradients are computed class-major, on (K, B) transposes;
    the rounding this gives is what tests/test_model.py's oracle pins.
    """
    zt, wd = np.ascontiguousarray(z.data.T), w.data
    return _record((wd @ zt + b.data[:, None]).T,
                   (z, lambda g: np.ascontiguousarray((wd.T @ np.ascontiguousarray(g.T)).T)),
                   (w, lambda g: np.ascontiguousarray(g.T) @ zt.T),
                   (b, lambda g: np.ascontiguousarray(g.T).sum(axis=1)))


def _per_row(value: Tensor, single: bool) -> Tensor:
    """(B, 1) per-row results, or a scalar for a batch of one sample."""
    return op_reshape(value, ()) if single else value


def _softmax_rows(rows: np.ndarray):
    """Per row of (B, K) logits: the first index of the maximum, the logits
    shifted by that maximum, their exponentials and the row sums (B, 1)."""
    peak = np.argmax(rows, axis=1)
    shifted = rows - rows[np.arange(rows.shape[0]), peak][:, None]
    e = np.exp(shifted)
    return peak, shifted, e, e.sum(axis=-1, keepdims=True)


def loss_ce(logits: Tensor, label) -> Tensor:
    """Cross-entropy -log softmax(logits)[label] = log sum_k exp(s_k) - s_label
    with s the logits shifted by their row maximum.

    A (K,) vector with an int label gives a scalar; (B, K) logits with B
    labels give the (B, 1) per-row losses.  (B, K) logits record one tape
    node, whose backward rule is g * (softmax - onehot); a vector adds a
    reshape on each side.
    """
    rows, single = as_batch(logits, 1)
    batch, n = rows.data.shape
    labels = np.asarray(label).reshape(-1)
    if labels.shape != (batch,):
        raise ValueError(f"{labels.size} labels for {batch} rows of logits")
    if not np.issubdtype(labels.dtype, np.integer):
        raise ValueError(f"labels must be integers, got {labels.dtype}")
    bad = labels[(labels < 0) | (labels >= n)]
    if bad.size:
        raise ValueError(f"label {int(bad[0])} out of range for {n} classes")
    peak, shifted, e, norm = _softmax_rows(rows.data)
    index = np.arange(batch)

    def backward(g: np.ndarray) -> np.ndarray:
        d = g / norm * e
        d[index, labels] -= g[:, 0]
        # the gradient through the max shift: zero in exact arithmetic, kept
        # so the rounding matches an op-by-op evaluation
        d[index, peak] -= d.sum(axis=1)
        return d

    return _per_row(_record(np.log(norm) - shifted[index, labels][:, None], (rows, backward)),
                    single)


def entropy(logits: Tensor) -> Tensor:
    """Predictive entropy H = -sum_k p_k log p_k of p = softmax(logits), per
    row for (B, K) logits ((B, 1) out), a scalar for a vector.

    Evaluated as log Z - sum_k p_k s_k with s the max-shifted logits, which
    avoids the log of near-zero probabilities.  (B, K) logits record one tape
    node with the closed-form backward rule -g * p * (s - sum_k p_k s_k); a
    vector adds a reshape on each side.
    """
    rows, single = as_batch(logits, 1)
    _, shifted, e, norm = _softmax_rows(rows.data)
    p = e / norm
    mean_shift = (p * shifted).sum(axis=-1, keepdims=True)
    return _per_row(_record(np.log(norm) - mean_shift,
                            (rows, lambda g: -g * p * (shifted - mean_shift))), single)


def semantic_distance(z_a: Tensor, z_b: Tensor) -> Tensor:
    """Squared Euclidean distance between two feature vectors, or between
    matching rows of two (B, D) batches ((B, 1) out)."""
    if z_a.data.shape != z_b.data.shape:
        raise ValueError(f"feature dims differ: {z_a.data.shape} vs {z_b.data.shape}")
    diff, single = as_batch(op_sub(z_a, z_b), 1)
    return _per_row(op_sum(op_mul(diff, diff), axis=-1), single)


def save_checkpoint(model: Classifier, path) -> None:
    """Write magic, version, architecture ints, then every weight array as
    (name, shape, little-endian float64 payload) in a fixed order.  A layer
    holding nan or inf raises ValueError naming it, and nothing is written."""
    for name, arr in model.weights.items():
        if not np.isfinite(arr).all():
            raise ValueError(f"{path}: not written, layer {name} holds non-finite values")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<IIIq", CHECKPOINT_VERSION, model.in_channels,
                             model.n_classes, model.seed))
        fh.write(struct.pack("<I", len(model.weights)))
        for name, arr in model.weights.items():
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<H", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<B", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(arr.astype("<f8", copy=False).tobytes())


def load_checkpoint(path) -> Classifier:
    """Read a checkpoint written by save_checkpoint.

    Any malformed file (bad magic or version, cut short in the header or a
    payload, undecodable layer name, bytes past the last layer, layers that
    do not fit the architecture, non-finite weights) raises ValueError
    naming ``path``.  Layer shapes are compared with the header before
    anything is allocated for them.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise ValueError(f"{path}: not a checkpoint (bad magic)")
    offset = len(CHECKPOINT_MAGIC)

    def take(size: int) -> bytes:
        nonlocal offset
        if offset + size > len(blob):
            raise ValueError(f"{path}: truncated checkpoint ({len(blob)} bytes, "
                             f"needs at least {offset + size})")
        offset += size
        return blob[offset - size:offset]

    def unpack(fmt: str) -> tuple:
        return struct.unpack(fmt, take(struct.calcsize(fmt)))

    version, in_channels, n_classes, seed = unpack("<IIIq")
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {version}")
    (count,) = unpack("<I")
    try:
        expected = _layer_shapes(in_channels, n_classes)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    loaded: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = unpack("<H")
        try:
            name = take(name_len).decode("utf-8")
        except UnicodeDecodeError:
            raise ValueError(f"{path}: layer name is not UTF-8") from None
        (ndim,) = unpack("<B")
        shape = unpack(f"<{ndim}I")
        if name in expected and shape != expected[name]:
            raise ValueError(f"{path}: layer {name} has shape {shape}, "
                             f"expected {expected[name]}")
        payload = take(8 * math.prod(shape))
        try:
            arr = np.frombuffer(payload, dtype="<f8").reshape(shape)
        except ValueError as exc:  # a zero-size shape whose extent numpy rejects
            raise ValueError(f"{path}: layer {name} has shape {shape}: {exc}") from None
        if not np.isfinite(arr).all():
            raise ValueError(f"{path}: layer {name} holds non-finite values")
        loaded[name] = np.ascontiguousarray(arr, dtype=np.float64)
    if offset != len(blob):
        raise ValueError(f"{path}: {len(blob) - offset} trailing bytes after the last layer")
    if set(loaded) != set(expected):
        raise ValueError(f"{path}: checkpoint layers {sorted(loaded)} do not match "
                         f"architecture layers {sorted(expected)}")
    try:
        model = Classifier(in_channels, n_classes, seed)
    except ValueError as exc:  # a seed numpy rejects
        raise ValueError(f"{path}: {exc}") from None
    model.weights = loaded
    return model
