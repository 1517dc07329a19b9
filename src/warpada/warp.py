"""Differentiable construction of admissible warping paths.

Free parameters phi are pushed through three maps: a cumulative-sum step
that makes the path monotone, a normalization that pins both endpoints to
zero displacement, and a global rescale that bounds the sup-norm by
phi_max.  Because the constraints are built into the construction, no
gradient-ascent trajectory over phi can leave the admissible set.

``make_path`` evaluates the whole chain in numpy and records it as one tape
node with a hand-written backward rule.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, _record, as_batch, op_reshape

__all__ = ["make_path"]

DEGENERATE_EPS = 1e-12


def make_path(phi, phi_max: float, half_width: int | None = None) -> Tensor:
    """Full chain phi -> monotone cumulative -> boundary-pinned -> bounded,
    for a phi vector or for each row of (B, N) phi.  Returns the path as
    displacements of the same shape: entry i moves index i to i + d_i.

    Per row:
      1. cum = cumsum of (phi - min phi) over indices 1..N-1, from an exact
         0 at index 0; it is monotone.
      2. delta = cum / cum[-1] * (N-1) - i pins both endpoints.
      3. out = delta * min(phi_max / max|delta|, 1): one shared scale keeps
         monotonicity and the boundary zeros.  A row whose peak equals
         phi_max binds (its scale takes a gradient), and the peak's gradient
         goes to the first index of the largest |delta|.

    The normalization only uses cumulative DIFFERENCES, so starting the
    cumsum at index 1 makes the cancellation of phi_0's uniform
    contribution exact in floating point: when index 0 is not the argmin,
    the output is bitwise independent of phi_0, matching the true zero
    derivative instead of leaving ~1e-16 residue that finite-difference
    checks amplify.  A row whose spread cum[-1] is below DEGENERATE_EPS
    (all-equal phi) would divide by ~0; it maps to the identity path, with
    zero gradient.

    A (B, N) input records one tape node, whose backward rule takes the
    steps above in reverse, each as its own op would; a vector adds a
    reshape on each side.

    ``half_width`` (when given) checks that phi_max leaves one sample of
    headroom inside the analysis window, so fractional displacements stay
    on segment support.
    """
    phi, single = as_batch(phi, 1)
    batch, n = phi.data.shape
    if n < 2:
        raise ValueError(f"need at least 2 entries, got {n}")
    phi_max = float(phi_max)
    if half_width is not None and phi_max > half_width - 1:
        raise ValueError(f"phi_max {phi_max} exceeds half-width headroom {half_width - 1}")
    if phi_max <= 0:
        raise ValueError(f"phi_max must be positive, got {phi_max}")
    rows = np.arange(batch)
    low = np.argmin(phi.data, axis=1)
    increments = phi.data - phi.data[rows, low][:, None]
    increments[:, 0] = 0.0
    tail = np.cumsum(increments, axis=-1)
    spread = tail[:, -1:]
    # degenerate rows (keep = 0) scale by 0 and divide by spread + 1 instead,
    # so their delta is exactly 0 and takes no gradient
    keep = (spread >= DEGENERATE_EPS).astype(np.float64)
    stretch = float(n - 1) * keep
    stretched = tail * stretch
    den = spread + (1.0 - keep)
    delta = stretched / den - np.arange(n, dtype=np.float64) * keep
    # cap = max(max|delta|, phi_max) per row; where phi_max wins (strictly)
    # the scale is the constant 1 and takes no gradient
    peak_at = np.argmax(np.abs(delta), axis=1)
    peak = np.abs(delta[rows, peak_at])[:, None]
    binds = (peak >= phi_max).astype(np.float64)
    cap = peak * binds + phi_max * (1.0 - binds)
    scale = phi_max / cap
    out = Tensor(delta * scale, requires_grad=phi.requires_grad)

    def backward(g: np.ndarray) -> np.ndarray:
        # the peak's, the spread's and the row minimum's terms are added as
        # whole zero-filled arrays, so even zero entries get the signs an
        # op-by-op evaluation of the chain gives them
        g_cap = -(g * delta).sum(axis=1, keepdims=True) * phi_max / (cap * cap)
        g_abs = np.zeros((batch, n))
        g_abs[rows, peak_at] = (g_cap * binds)[:, 0]
        g_delta = g * scale + g_abs * np.sign(delta)
        g_end = np.zeros((batch, n))
        g_end[:, -1] += (-g_delta * stretched / (den * den)).sum(axis=1)
        g_tail = g_delta / den * stretch + g_end
        g_inc = np.cumsum(g_tail[:, ::-1], axis=-1)[:, ::-1]
        g_inc[:, 0] = 0.0
        g_low = np.zeros((batch, n))
        g_low[rows, low] = (-g_inc).sum(axis=1)
        return g_inc + g_low

    path = _record(out, [(phi, backward)] if phi.requires_grad else [])
    return op_reshape(path, (n,)) if single else path
