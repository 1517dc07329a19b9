"""Differentiable construction of admissible warping paths.

Free parameters phi are pushed through three maps: a cumulative-sum step
that makes the path monotone, a normalization that pins both endpoints to
zero displacement, and a global rescale that bounds the sup-norm by
phi_max.  Because the constraints are built into the construction, no
gradient-ascent trajectory over phi can leave the admissible set.
"""

from __future__ import annotations

import numpy as np

from .tensor import (
    Tensor,
    as_batch,
    op_abs,
    op_cumsum,
    op_gather,
    op_max_reduce,
    op_min_reduce,
    op_reshape,
    op_sub,
)

__all__ = ["h3_clip", "make_path"]

DEGENERATE_EPS = 1e-12


def h3_clip(delta: Tensor, phi_max: float) -> Tensor:
    """Globally rescale so the sup-norm is at most phi_max:
    out = delta * min(phi_max / max|delta|, 1), per row for (B, N) input.

    One shared scale preserves monotonicity and boundary zeros; a
    per-element clamp would break monotonicity and kill gradients at the
    bound.  Zero input keeps scale 1.
    """
    rows, single = as_batch(delta, 1)
    phi_max = float(phi_max)
    if phi_max <= 0:
        raise ValueError(f"phi_max must be positive, got {phi_max}")
    # cap = max(max|delta|, phi_max) per row; where phi_max wins (strictly)
    # the scale is the constant 1 and takes no gradient.  A tie goes to
    # max|delta|, the first index of [|delta|, phi_max].
    peak = op_max_reduce(op_abs(rows), axis=-1)
    binds = (peak.data >= phi_max).astype(np.float64)
    cap = peak * Tensor(binds) + Tensor(phi_max * (1.0 - binds))
    out = rows * (Tensor(phi_max) / cap)
    return op_reshape(out, (out.data.shape[1],)) if single else out


def make_path(phi, phi_max: float, half_width: int | None = None) -> Tensor:
    """Full chain phi -> monotone cumulative -> boundary-pinned -> bounded,
    for a phi vector or for each row of (B, N) phi.  Returns the path as
    displacements of the same shape: entry i moves index i to i + d_i.

    Mathematically it is h3_clip of the boundary-pinned path
    (cum_i - min cum) / (max cum - min cum) * (N-1) - i, where
    cum = cumsum(phi - min phi) is monotone.  The normalization only ever
    uses cumulative DIFFERENCES, so the chain here accumulates only the
    increments at indices 1..N-1 (column 0 is zeroed before the cumsum,
    which therefore starts at an exact 0).  That makes the cancellation of
    phi_0's uniform contribution exact in floating point: when index 0 is
    not the argmin, the output is bitwise independent of phi_0, matching
    the true zero derivative instead of leaving ~1e-16 residue that
    finite-difference checks amplify.

    A row whose tail spread is below DEGENERATE_EPS (all-equal phi) would
    divide by ~0; it maps to the identity path, with zero gradient.

    ``half_width`` (when given) checks that phi_max leaves one sample of
    headroom inside the analysis window, so fractional displacements stay
    on segment support.
    """
    phi, single = as_batch(phi, 1)
    batch, n = phi.data.shape
    if n < 2:
        raise ValueError(f"need at least 2 entries, got {n}")
    if half_width is not None and float(phi_max) > half_width - 1:
        raise ValueError(f"phi_max {phi_max} exceeds half-width headroom {half_width - 1}")
    if float(phi_max) <= 0:
        raise ValueError(f"phi_max must be positive, got {phi_max}")
    increments = op_sub(phi, op_min_reduce(phi, axis=-1))
    tail_mask = np.ones((batch, n))
    tail_mask[:, 0] = 0.0
    tail = op_cumsum(increments * Tensor(tail_mask))
    # the last (largest) entry of each row, as a (B, 1) column
    spread = op_gather(op_reshape(tail, (batch * n,)),
                       np.arange(1, batch + 1).reshape(batch, 1) * n - 1)
    # degenerate rows (keep = 0) scale by 0 and divide by spread + 1 instead,
    # so their delta is exactly 0 and takes no gradient
    keep = (spread.data >= DEGENERATE_EPS).astype(np.float64)
    warped = tail * Tensor(float(n - 1) * keep) / (spread + Tensor(1.0 - keep))
    delta = warped - Tensor(np.arange(n, dtype=np.float64) * keep)
    path = h3_clip(delta, phi_max)
    return op_reshape(path, (n,)) if single else path
