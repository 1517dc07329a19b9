"""Differentiable construction of admissible warping paths.

Free parameters phi are pushed through three maps: a cumulative-sum step
that makes the path monotone, a normalization that pins both endpoints to
zero displacement, and a global rescale that bounds the sup-norm by
phi_max.  Because the constraints are built into the construction, no
gradient-ascent trajectory over phi can leave the admissible set.
"""

from __future__ import annotations

from dataclasses import dataclass

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

__all__ = ["WarpParams", "WarpPath", "h1_monotone", "h2_boundary", "h3_clip", "make_path"]

DEGENERATE_EPS = 1e-12


@dataclass
class WarpParams:
    """Unconstrained per-index parameters the ascent optimizes."""

    phi: Tensor

    def __post_init__(self):
        if not isinstance(self.phi, Tensor):
            self.phi = Tensor(np.asarray(self.phi, dtype=np.float64), requires_grad=True)
        if self.phi.data.ndim != 1:
            raise ValueError(f"phi must be a vector, got shape {self.phi.data.shape}")


@dataclass
class WarpPath:
    """Per-index displacements: entry i moves index i to i + displacements_i.

    A (B, N) array holds one path per row.
    """

    displacements: Tensor

    def __post_init__(self):
        if not isinstance(self.displacements, Tensor):
            self.displacements = Tensor(np.asarray(self.displacements, dtype=np.float64))
        if self.displacements.data.ndim not in (1, 2):
            raise ValueError(f"displacements must be a vector or (B, N) rows, "
                             f"got shape {self.displacements.data.shape}")

    def __len__(self) -> int:
        return self.displacements.data.shape[-1]

    def violations(self, phi_max: float) -> dict[str, float]:
        """Worst-case breach of each path condition (all ~0 for valid paths),
        over every row.

        Keys: 'monotone' (largest decrease of i + d_i), 'boundary' (larger
        endpoint magnitude), 'bound' (sup-norm excess over phi_max).
        """
        d = self.displacements.data
        n = d.shape[-1]
        if n == 0:
            return {"monotone": 0.0, "boundary": 0.0, "bound": 0.0}
        warped = np.arange(n) + d
        mono = float(max(0.0, np.max(-np.diff(warped, axis=-1)))) if n > 1 else 0.0
        boundary = float(max(np.max(np.abs(d[..., 0])), np.max(np.abs(d[..., -1]))))
        bound = float(max(0.0, np.max(np.abs(d)) - phi_max))
        return {"monotone": mono, "boundary": boundary, "bound": bound}


def _as_phi(params) -> Tensor:
    phi = getattr(params, "phi", params)
    if not isinstance(phi, Tensor):
        phi = Tensor(np.asarray(phi, dtype=np.float64))
    if phi.data.ndim != 1:
        raise ValueError(f"phi must be a vector, got shape {phi.data.shape}")
    return phi


def h1_monotone(phi: Tensor) -> Tensor:
    """Nondecreasing cumulative path: out_t = sum_{i<=t} (phi_i - min(phi)).

    Every increment is nonnegative after the min subtraction, so the output
    is monotone for any input.
    """
    phi = _as_phi(phi)
    if phi.data.shape[0] < 2:
        raise ValueError(f"need at least 2 entries, got {phi.data.shape[0]}")
    return op_cumsum(op_sub(phi, op_min_reduce(phi)))


def h2_boundary(cum: Tensor) -> Tensor:
    """Normalize a monotone cumulative path onto [0, N-1] and convert to
    displacements: out_i = (cum_i - min) / (max - min) * (N-1) - i.

    Both endpoints land exactly on 0 and N-1, so both boundary
    displacements are zero.  A flat input (max - min below 1e-12) would
    divide by zero; it maps to the identity path instead.
    """
    cum = _as_phi(cum)
    n = cum.data.shape[0]
    if n < 2:
        raise ValueError(f"need at least 2 entries, got {n}")
    lo = op_min_reduce(cum)
    hi = op_max_reduce(cum)
    if float(hi.data - lo.data) < DEGENERATE_EPS:
        return Tensor(np.zeros(n))
    warped = (cum - lo) * float(n - 1) / op_sub(hi, lo)
    return warped - Tensor(np.arange(n, dtype=np.float64))


def h3_clip(delta: Tensor, phi_max: float) -> WarpPath:
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
    return WarpPath(op_reshape(out, (out.data.shape[1],)) if single else out)


def make_path(params, phi_max: float, half_width: int | None = None) -> WarpPath:
    """Full chain phi -> monotone cumulative -> boundary-pinned -> bounded,
    for a phi vector or for each row of (B, N) phi.

    Mathematically this is h3_clip(h2_boundary(h1_monotone(phi))), but the
    normalization only ever uses cumulative DIFFERENCES, so the composition
    here accumulates only the increments at indices 1..N-1 (column 0 is
    zeroed before the cumsum, which therefore starts at an exact 0).  That
    makes the cancellation of phi_0's uniform contribution exact in floating
    point: when index 0 is not the argmin, the output is bitwise independent
    of phi_0, matching the true zero derivative instead of leaving ~1e-16
    residue that finite-difference checks amplify.

    A row whose tail spread is below DEGENERATE_EPS (all-equal phi) would
    divide by ~0; it maps to the identity path, with zero gradient.

    ``half_width`` (when given) checks that phi_max leaves one sample of
    headroom inside the analysis window, so fractional displacements stay
    on segment support.
    """
    phi, single = as_batch(getattr(params, "phi", params), 1)
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
    return WarpPath(op_reshape(path.displacements, (n,))) if single else path
