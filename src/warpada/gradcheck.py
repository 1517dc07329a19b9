"""Finite-difference audit of every gradient path the trainer relies on.

Each item builds a scalar function of one probe tensor, takes its tape
gradient once, and compares against central differences at up to a fixed
number of probe coordinates.  Ops are looked up through their defining
module at call time, so a test can swap one out (the sign-flip fixture)
and watch the corresponding row fail.
"""

from __future__ import annotations

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
    """(name, scalar function, probe start) triples covering every op plus
    the composed paths the optimizer differentiates."""
    items: list[tuple[str, Callable[[Tensor], Tensor], np.ndarray]] = []

    def add(name, f, x0):
        items.append((name, f, np.asarray(x0, dtype=np.float64)))

    idx_lo = np.arange(3)
    idx_hi = np.arange(3, 6)

    def halves(x):
        return _tensor.op_gather(x, idx_lo), _tensor.op_gather(x, idx_hi)

    def binary(op):
        def f(x):
            a, b = halves(x)
            return _tensor.op_sum(op(a, b))
        return f

    add("add", binary(_tensor.op_add), rng.uniform(-1, 1, 6))
    add("sub", binary(_tensor.op_sub), rng.uniform(-1, 1, 6))
    add("mul", binary(_tensor.op_mul), rng.uniform(-1, 1, 6))
    # denominator half stays clear of zero
    add("div", binary(_tensor.op_div),
        np.concatenate([rng.uniform(-1, 1, 3), _away_from_zero(rng, 3, 0.5)]))

    m_right = Tensor(rng.uniform(-1, 1, (4, 2)))
    m_left = Tensor(rng.uniform(-1, 1, (2, 3)))

    def f_matmul(x):
        m = _tensor.op_reshape(x, (3, 4))
        lhs = _tensor.op_sum(_tensor.op_matmul(m, m_right))
        rhs = _tensor.op_sum(_tensor.op_matmul(m_left, m))
        return _tensor.op_add(lhs, rhs)

    add("matmul", f_matmul, rng.uniform(-1, 1, 12))

    k_fixed = Tensor(rng.uniform(-1, 1, (3, 2, 3)))
    b_fixed = Tensor(rng.uniform(-1, 1, 3))
    img_fixed = Tensor(rng.uniform(-1, 1, (2, 9)))

    def f_conv_input(x):
        img = _tensor.op_reshape(x, (2, 9))
        return _tensor.op_sum(_tensor.op_conv1d(img, k_fixed, bias=b_fixed))

    def f_conv_weights(x):
        k = _tensor.op_reshape(_tensor.op_gather(x, np.arange(18)), (3, 2, 3))
        b = _tensor.op_gather(x, np.arange(18, 21))
        return _tensor.op_sum(_tensor.op_conv1d(img_fixed, k, stride=2, bias=b))

    add("conv1d_input", f_conv_input, rng.uniform(-1, 1, 18))
    add("conv1d_weights", f_conv_weights, rng.uniform(-1, 1, 21))

    def unary(op):
        return lambda x: _tensor.op_sum(op(x))

    add("relu", unary(_tensor.op_relu), _away_from_zero(rng, 8))
    # the warp's fused filter at L = 21, in the source values and the shifts:
    # exact integers, both sides of the series branch at the tap w = k,
    # +-(M - 1), whose edge taps read |t| = 2M - 1, and two plainly
    # fractional shifts (integer rows are nearly one-hot, so only these give
    # every source value a gradient well above rounding)
    filter_index = (np.arange(21) + 3 * np.arange(10)[:, None]) % 10

    def f_dirichlet(x):
        source = _tensor.op_gather(x, np.arange(10))
        shifts = _tensor.op_reshape(_tensor.op_gather(x, np.arange(10, 20)), (10, 1))
        return _tensor.op_sum(_tensor.op_dirichlet_filter(source, filter_index, shifts, 21))

    add("dirichlet", f_dirichlet,
        np.concatenate([rng.uniform(-1, 1, 10),
                        [0.0, 3.0, -7.0, 2.0 + 1e-6, -5.0 - 1e-6, 4.0 - 3e-4, 9.0, -9.0],
                        rng.uniform(-10, 10, 2)]))
    add("exp", unary(_tensor.op_exp), rng.uniform(-1, 1, 8))
    add("log", unary(_tensor.op_log), rng.uniform(0.5, 1.5, 8))
    add("sum", _tensor.op_sum, rng.uniform(-1, 1, 8))
    add("max_reduce", unary(_tensor.op_max_reduce), rng.uniform(-1, 1, 8))

    repeats = np.array([0, 2, 2, 5, 7, 0])
    w6 = Tensor(rng.uniform(-1, 1, 6))
    add("gather",
        lambda x: _tensor.op_sum(
            _tensor.op_mul(_tensor.op_gather(x, repeats), w6)),
        rng.uniform(-1, 1, 8))

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
    # the last-axis reductions under the (B, 1) against (B, N) broadcast plus
    # transpose, and the chunked ascent objective over two rows of phi
    img_batch = Tensor(rng.uniform(-1, 1, (2, 2, 9)))

    def f_conv_batched(x):
        k = _tensor.op_reshape(_tensor.op_gather(x, np.arange(18)), (3, 2, 3))
        b = _tensor.op_gather(x, np.arange(18, 21))
        img = _tensor.op_reshape(_tensor.op_gather(x, np.arange(21, 57)), (2, 2, 9))
        out = _tensor.op_conv1d(_tensor.op_add(img, img_batch), k, stride=2, bias=b)
        return _tensor.op_sum(_tensor.op_mul(out, out))

    add("conv1d_batched", f_conv_batched, rng.uniform(-1, 1, 57))

    w_rows = Tensor(rng.uniform(-1, 1, (3, 4)))

    def f_rows(x):
        # every coordinate reaches the result through the row sum and the
        # weighted row, so no true gradient is identically 0
        m = _tensor.op_reshape(x, (3, 4))
        below_peak = _tensor.op_sub(m, _tensor.op_max_reduce(m))
        weighted = _tensor.op_mul(_tensor.op_mul(below_peak, _tensor.op_sum(m, axis=-1)),
                                  w_rows)
        return _tensor.op_sum(_tensor.op_matmul(_tensor.op_transpose(weighted), weighted))

    add("row_reductions", f_rows, rng.uniform(-1, 1, 12))

    x_rows = Tensor(np.stack([base, base[::-1]]).reshape(2, 1, 64))

    def f_loss_phi_rows(phi):
        path = _warp.make_path(_tensor.op_reshape(phi, (2, 64)), 8.0, 10)
        _, logits = _model.forward(clf, _signal.warp_apply(x_rows, path, 10))
        return _tensor.op_sum(_model.loss_ce(logits, np.array([1, 2])))

    add("loss_grad_phi_batched", f_loss_phi_rows, rng.uniform(-1, 1, 128))

    return items


def run_checks(seed: int = 0, h: float = STEP, points: int = POINTS,
               threshold: float = THRESHOLD) -> list[CheckResult]:
    """One row per item: the worst relative error over a sample of
    ``points`` coordinates (all of them when the probe is small)."""
    rng = np.random.default_rng(seed)
    results = []
    for name, f, x0 in _items(rng):
        coords = (np.arange(x0.size) if points >= x0.size
                  else rng.choice(x0.size, size=points, replace=False))
        err = finite_diff_check(f, Tensor(x0), h, coords)
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
