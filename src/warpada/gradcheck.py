"""Finite-difference audit of every gradient path the trainer relies on.

Each item builds a scalar function of the leaf tensors it names, takes its
tape gradient once, and compares against central differences at up to a
fixed number of coordinates of the leaves' entries.  Ops are looked up
through their defining module at call time, as the warp looks up its
kernel, so a test can swap one out (the sign-flip fixture) and watch the
corresponding rows fail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import model as _model
from . import signal as _signal
from . import tensor as _tensor
from . import warp as _warp
from .model import Classifier
from .signal import TimeSeries
from .tensor import Tensor, finite_diff_check

__all__ = ["CheckResult", "run_checks", "format_table",
           "THRESHOLD", "STEP", "POINTS"]

THRESHOLD = 1e-4
STEP = 1e-5
POINTS = 20


@dataclass(frozen=True)
class CheckResult:
    name: str
    rel_err: float
    threshold: float = THRESHOLD

    @property
    def ok(self) -> bool:
        return self.rel_err < self.threshold


def _away_from_zero(rng, n, lo=0.2, hi=1.0):
    return rng.uniform(lo, hi, size=n) * rng.choice(np.array([-1.0, 1.0]), size=n)


def _items(rng: np.random.Generator):
    """(name, scalar function of the leaves, flat start, leaf shapes)
    covering every op plus the composed paths the optimizer differentiates.
    The start is the leaves' entries concatenated in order; a row without
    shapes has one leaf of the start's shape."""
    items: list[tuple[str, Callable[..., Tensor], np.ndarray, tuple]] = []

    def add(name, f, x0, *shapes):
        items.append((name, f, np.asarray(x0, dtype=np.float64).ravel(),
                      shapes or (np.shape(x0),)))

    def binary(op):
        return lambda a, b: _tensor.op_sum(op(a, b))

    add("add", binary(_tensor.op_add), rng.uniform(-1, 1, 6), (3,), (3,))
    add("sub", binary(_tensor.op_sub), rng.uniform(-1, 1, 6), (3,), (3,))
    add("mul", binary(_tensor.op_mul), rng.uniform(-1, 1, 6), (3,), (3,))

    k_fixed = Tensor(rng.uniform(-1, 1, (3, 2, 3)))
    b_fixed = Tensor(rng.uniform(-1, 1, 3))
    img_fixed = Tensor(rng.uniform(-1, 1, (1, 2, 9)))

    add("conv1d_input",
        lambda img: _tensor.op_sum(_tensor.op_conv1d(img, k_fixed, bias=b_fixed)),
        rng.uniform(-1, 1, 18), (1, 2, 9))
    add("conv1d_weights",
        lambda k, b: _tensor.op_sum(_tensor.op_conv1d(img_fixed, k, stride=2, bias=b)),
        rng.uniform(-1, 1, 21), (3, 2, 3), (3,))

    def unary(op):
        return lambda x: _tensor.op_sum(op(x))

    add("relu", unary(_tensor.op_relu), _away_from_zero(rng, 8))
    # the warp's Dirichlet kernel at M = 4, in a (1, 1, 10) series and its
    # (1, 10) path of shifts: exact integers, both sides of the series branch
    # at the tap w = k, +-(M - 1), whose edge taps read |t| = 2M - 1, and two
    # plainly fractional shifts (integer rows are nearly one-hot, so only
    # these give every source value a gradient well above rounding)
    add("dirichlet", lambda source, shifts: _tensor.op_sum(_signal.warp_apply(source, shifts, 4)),
        np.concatenate([rng.uniform(-1, 1, 10),
                        [0.0, 2.0, -1.0, 1.0 + 1e-6, -2.0 - 1e-6, 1.0 - 3e-4, 3.0, -3.0],
                        rng.uniform(-3.5, 3.5, 2)]), (1, 1, 10), (1, 10))
    add("sum", _tensor.op_sum, rng.uniform(-1, 1, 8))

    w24 = Tensor(rng.uniform(-1, 1, (2, 4)))
    add("reshape",
        lambda x: _tensor.op_sum(_tensor.op_mul(_tensor.op_reshape(x, (2, 4)), w24)),
        rng.uniform(-1, 1, 8))

    w32 = Tensor(rng.uniform(-1, 1, 32))

    add("warp_path_chain",
        lambda x: _tensor.op_sum(_tensor.op_mul(_warp.make_path(x, 5.0), w32)),
        rng.uniform(-1, 1, 32))

    clf = Classifier(1, 3, seed=7)
    base = (np.sin(2 * np.pi * 3 * np.arange(64) / 64)
            + 0.1 * rng.normal(size=64))
    x_fixed = TimeSeries(Tensor(base.copy()), label=1)

    def f_loss_phi(phi):
        path = _warp.make_path(phi, 8.0, 10)
        warped = _signal.warp_apply(x_fixed, path, 10)
        _, logits = _model.forward(clf, warped)
        return _model.loss_ce(logits, x_fixed.label)

    add("loss_grad_phi", f_loss_phi, rng.uniform(-1, 1, 64))

    fixed_path = _warp.make_path(Tensor(rng.uniform(-1, 1, 64)), 8.0, 10)

    def f_loss_input(xt):
        series = TimeSeries(xt, label=1)
        warped = _signal.warp_apply(series, fixed_path, 10)
        _, logits = _model.forward(clf, warped)
        return _model.loss_ce(logits, 1)

    add("loss_grad_input", f_loss_input, base.copy())

    # batch-axis paths: a (B, C_in, N) conv with every input differentiable,
    # the classifier's fused pool and head, the ascent's semantic distance,
    # and the chunked ascent objective over two rows of phi
    img_batch = Tensor(rng.uniform(-1, 1, (2, 2, 9)))

    def f_conv_batched(k, b, img):
        out = _tensor.op_conv1d(_tensor.op_add(img, img_batch), k, stride=2, bias=b)
        return _tensor.op_sum(_tensor.op_mul(out, out))

    add("conv1d_batched", f_conv_batched, rng.uniform(-1, 1, 57),
        (3, 2, 3), (3,), (2, 2, 9))

    w_tail = Tensor(rng.uniform(-1, 1, (2, 3)))

    def f_pool_head(h, w, b):
        # features h, head weights w and bias b, all differentiable; squaring
        # the logits gives every input its own gradient
        logits = _model._affine(_model._pool(h), w, b)
        return _tensor.op_sum(_tensor.op_mul(_tensor.op_mul(logits, logits), w_tail))

    add("pool_head", f_pool_head, rng.uniform(-1, 1, 55), (2, 4, 5), (3, 4), (3,))

    z_ref = Tensor(rng.uniform(-1, 1, (3, 4)))
    w_dist = Tensor(rng.uniform(0.5, 1.5, (3, 1)))
    add("semantic_distance",
        lambda z: _tensor.op_sum(_tensor.op_mul(_model.semantic_distance(z, z_ref), w_dist)),
        rng.uniform(-1, 1, 12), (3, 4))

    # the fused loss terms on (4, 5) logits, per-row weights making every
    # row's output gradient distinct; row 1's maximum is tied
    head_logits = rng.uniform(-2, 2, (4, 5))
    head_logits[1, 3] = head_logits[1, 0] = head_logits[1].max()
    head_labels = np.array([2, 0, 4, 1])
    w_head = Tensor(rng.uniform(0.5, 1.5, (4, 1)))

    def head(term):
        return lambda logits: _tensor.op_sum(_tensor.op_mul(term(logits), w_head))

    add("loss_ce", head(lambda logits: _model.loss_ce(logits, head_labels)), head_logits)
    add("entropy", head(_model.entropy), head_logits)

    x_rows = Tensor(np.stack([base, base[::-1]]).reshape(2, 1, 64))

    def f_loss_phi_rows(phi):
        path = _warp.make_path(phi, 8.0, 10)
        _, logits = _model.forward(clf, _signal.warp_apply(x_rows, path, 10))
        return _tensor.op_sum(_model.loss_ce(logits, np.array([1, 2])))

    add("loss_grad_phi_batched", f_loss_phi_rows, rng.uniform(-1, 1, 128), (2, 64))

    return items


def run_checks(seed: int = 0, h: float = STEP, points: int = POINTS,
               threshold: float = THRESHOLD) -> list[CheckResult]:
    """One row per item: the worst relative error over a sample of
    ``points`` coordinates (all of them when the leaves are small)."""
    results = []
    for row, (name, f, x0, shapes) in enumerate(_items(np.random.default_rng(seed))):
        rng = np.random.default_rng([seed, row])  # the row's own: no other draw moves its probes
        coords = (np.arange(x0.size) if points >= x0.size
                  else rng.choice(x0.size, size=points, replace=False))
        cuts = np.cumsum([math.prod(shape) for shape in shapes])[:-1]
        leaves = [Tensor(part.reshape(shape)) for part, shape in zip(np.split(x0, cuts), shapes)]
        err = finite_diff_check(f, *leaves, h=h, coords=coords)
        results.append(CheckResult(name, err, threshold))
    return results


def format_table(results: list[CheckResult]) -> str:
    width = max(len(r.name) for r in results)
    lines = [f"{'item'.ljust(width)}  max rel err  status"]
    for r in results:
        lines.append(f"{r.name.ljust(width)}  {r.rel_err:11.3e}  "
                     f"{'ok' if r.ok else 'FAIL'}")
    worst = max(results, key=lambda r: r.rel_err)
    lines.append(f"worst: {worst.name} at {worst.rel_err:.3e} "
                 f"(threshold {results[0].threshold:g})")
    return "\n".join(lines)
