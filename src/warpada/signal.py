"""Segmentation, DFT, phase shifting, and center-extraction resynthesis.

A series is split into length L = 2M+1 segments centered on every index
(edges replicated).  Each segment is transformed with a dense O(L^2) DFT,
rotated in phase by its per-index displacement, and resynthesized by
evaluating the inverse DFT at the center sample only.  For integer
displacements this reproduces plain index shifting exactly; fractional
displacements interpolate band-limitedly.  Everything runs through tensor
ops, so the result is differentiable in both the signal and the path.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .tensor import (
    Tensor,
    as_batch,
    op_cos,
    op_gather,
    op_matmul,
    op_mul,
    op_reshape,
    op_sin,
    op_sub,
    op_sum,
)

__all__ = [
    "TimeSeries",
    "SpectrumFrame",
    "segment",
    "dft_forward",
    "phase_shift",
    "center_extract",
    "warp_apply",
    "integer_warp_oracle",
]


@dataclass
class TimeSeries:
    """A finite multichannel series with a class label and a domain tag.

    ``values`` is (channels, length); a rank-1 array is promoted to a
    single channel.
    """

    values: Tensor
    label: int = 0
    domain_tag: str = ""

    def __post_init__(self):
        if not isinstance(self.values, Tensor):
            self.values = Tensor(np.asarray(self.values, dtype=np.float64))
        if self.values.data.ndim == 1:
            self.values = op_reshape(self.values, (1, self.values.data.shape[0]))
        if self.values.data.ndim != 2:
            raise ValueError(f"values must be (channels, length), got shape {self.values.data.shape}")
        self.label = int(self.label)

    @property
    def channels(self) -> int:
        return self.values.data.shape[0]

    @property
    def length(self) -> int:
        return self.values.data.shape[1]

    def copy(self) -> "TimeSeries":
        return TimeSeries(Tensor(self.values.data.copy()), self.label, self.domain_tag)


@dataclass
class SpectrumFrame:
    """DFT coefficients of one segment, split into real and imaginary parts."""

    re: Tensor
    im: Tensor

    def __post_init__(self):
        if self.re.data.shape != self.im.data.shape or self.re.data.ndim != 1:
            raise ValueError(f"re/im must be equal-length vectors, got "
                             f"{self.re.data.shape} and {self.im.data.shape}")

    @property
    def length(self) -> int:
        return self.re.data.shape[0]


@lru_cache(maxsize=16)
def _dft_tables(length: int):
    """Constant matrices for the length-L DFT pipeline, cached per L.

    Returns (cos_kn, sin_kn, center_cos_col, center_sin_col, signed_bins)
    where cos_kn[k, n] = cos(2*pi*k*n/L), the center columns evaluate the
    inverse transform at n = M, and signed_bins folds bins above L/2 to
    their negative frequencies.
    """
    k = np.arange(length)
    angles = 2.0 * np.pi * np.outer(k, k) / length
    cos_kn = np.cos(angles)
    sin_kn = np.sin(angles)
    center = (length - 1) // 2
    center_angle = 2.0 * np.pi * k * center / length
    center_cos = np.cos(center_angle).reshape(length, 1)
    center_sin = np.sin(center_angle).reshape(length, 1)
    signed = np.where(k <= length // 2, k, k - length).astype(np.float64)
    for arr in (cos_kn, sin_kn, center_cos, center_sin, signed):
        arr.flags.writeable = False
    return cos_kn, sin_kn, center_cos, center_sin, signed


def _segment_indices(n: int, half_width: int) -> np.ndarray:
    """(N, L) integer matrix: row i holds clamp(i - M + n, 0, N-1)."""
    window = np.arange(-half_width, half_width + 1)
    return np.clip(np.arange(n)[:, None] + window[None, :], 0, n - 1)


def _channel_rows(x: TimeSeries) -> list[Tensor]:
    """Each channel as a rank-1 tensor, still attached to x.values."""
    c, n = x.values.data.shape
    flat = op_reshape(x.values, (c * n,))
    return [op_gather(flat, np.arange(ch * n, (ch + 1) * n)) for ch in range(c)]


def segment(x: TimeSeries | Tensor, half_width: int, channel: int = 0) -> list[Tensor]:
    """All N overlapped segments of one channel, length L = 2M+1 each.

    Segment i covers indices i-M .. i+M with out-of-range indices clamped
    to the nearest edge, so boundary segments replicate the first or last
    sample.
    """
    if isinstance(x, TimeSeries):
        row = _channel_rows(x)[channel]
    else:
        if x.data.ndim != 1:
            raise ValueError(f"segment expects a series or a vector, got shape {x.data.shape}")
        row = x
    n = row.data.shape[0]
    if half_width < 0:
        raise ValueError(f"half-width must be nonnegative, got {half_width}")
    if n < 2 * half_width + 1:
        raise ValueError(f"series length {n} shorter than window 2*{half_width}+1")
    idx = _segment_indices(n, half_width)
    return [op_gather(row, idx[i]) for i in range(n)]


def dft_forward(s: Tensor) -> SpectrumFrame:
    """Dense DFT of one real segment: re[k] = sum_n s[n] cos(2pi k n / L),
    im[k] = -sum_n s[n] sin(2pi k n / L).  Runs as two matrix products so
    gradients flow back into the segment."""
    if s.data.ndim != 1 or s.data.shape[0] < 1:
        raise ValueError(f"dft_forward expects a nonempty vector, got shape {s.data.shape}")
    length = s.data.shape[0]
    cos_kn, sin_kn, _, _, _ = _dft_tables(length)
    col = op_reshape(s, (length, 1))
    re = op_reshape(op_matmul(Tensor(cos_kn), col), (length,))
    im = op_reshape(op_matmul(Tensor(-sin_kn), col), (length,))
    return SpectrumFrame(re, im)


def phase_shift(frame: SpectrumFrame, delta: Tensor | float, length: int | None = None) -> SpectrumFrame:
    """Rotate each bin by exp(+j 2pi k~ delta / L) with signed frequencies
    k~ (k above L/2 counts as k - L).

    Positive delta advances the segment: after center extraction the result
    samples the source at center + delta.  Signed bins keep fractional
    shifts of real content real-valued; L is odd, so there is no Nyquist
    bin to split.
    """
    if length is None:
        length = frame.length
    elif length != frame.length:
        raise ValueError(f"length {length} does not match frame length {frame.length}")
    if not isinstance(delta, Tensor):
        delta = Tensor(float(delta))
    _, _, _, _, signed = _dft_tables(length)
    theta = op_mul(Tensor(2.0 * np.pi * signed / length), delta)
    cos_t, sin_t = op_cos(theta), op_sin(theta)
    re = op_sub(op_mul(frame.re, cos_t), op_mul(frame.im, sin_t))
    im = op_mul(frame.re, sin_t) + op_mul(frame.im, cos_t)
    return SpectrumFrame(re, im)


def center_extract(frame: SpectrumFrame, length: int | None = None) -> Tensor:
    """Inverse DFT evaluated at the center sample n = M only:
    value = (1/L) sum_k (re[k] cos(2pi k M / L) - im[k] sin(2pi k M / L))."""
    if length is None:
        length = frame.length
    elif length != frame.length:
        raise ValueError(f"length {length} does not match frame length {frame.length}")
    _, _, center_cos, center_sin, _ = _dft_tables(length)
    acc = op_sum(op_mul(frame.re, Tensor(center_cos[:, 0]))) - \
        op_sum(op_mul(frame.im, Tensor(center_sin[:, 0])))
    return acc * (1.0 / length)


def warp_apply(x, path, half_width: int):
    """Warp every channel of ``x`` along ``path``: output index i carries the
    phase-shifted, center-extracted segment around i, i.e. the band-limited
    sample of x at position i + path_i.

    ``x`` is a TimeSeries with a path vector (returns a TimeSeries), or a
    (B, C, N) tensor with (B, N) paths, one per row (returns a tensor).
    Implemented batched: one (B*C*N, L) gather of all segments, DFT and
    resynthesis as matrix products, so the tape length depends on neither
    B, C nor N.
    """
    series = x if isinstance(x, TimeSeries) else None
    values = x.values if series is not None else x
    if series is not None:
        values = op_reshape(values, (1,) + values.data.shape)
    if values.data.ndim != 3:
        raise ValueError(f"expected a series or a (B, C, N) tensor, got shape {values.data.shape}")
    delta, _ = as_batch(getattr(path, "displacements", path), 1)
    batch, channels, n = values.data.shape
    length = 2 * half_width + 1
    if n < length:
        raise ValueError(f"series length {n} shorter than window {length}")
    if delta.data.shape[1] != n:
        raise ValueError(f"path length {delta.data.shape[1]} != series length {n}")
    if delta.data.shape[0] != batch:
        raise ValueError(f"{delta.data.shape[0]} paths for {batch} series")
    worst = float(np.max(np.abs(delta.data)))
    if worst > half_width + 1e-9:  # slack absorbs constraint-chain rounding
        raise ValueError(f"path displacement {worst} exceeds window half-width {half_width}")

    cos_kn, sin_kn, center_cos, center_sin, signed = _dft_tables(length)
    rows = batch * channels * n
    # segment matrix row (b, c, i) holds x[b, c, clamp(i - M .. i + M)]
    series_start = (np.arange(batch * channels) * n)[:, None, None]
    seg_idx = (series_start + _segment_indices(n, half_width)[None]).reshape(rows, length)
    seg = op_gather(op_reshape(values, (rows,)), seg_idx)
    shifts = op_reshape(delta, (batch * n, 1))
    if channels > 1:  # every channel of a series shares its path
        path_index = np.arange(batch * n).reshape(batch, 1, n)
        shifts = op_gather(op_reshape(delta, (batch * n,)),
                           np.repeat(path_index, channels, axis=1).reshape(rows, 1))
    # theta[r, k] = (2 pi / L) * delta_r * k~_k, as an outer product
    theta = op_matmul(shifts, Tensor((2.0 * np.pi / length) * signed.reshape(1, length)))
    cos_t, sin_t = op_cos(theta), op_sin(theta)
    re = op_matmul(seg, Tensor(cos_kn.T))          # cos_kn symmetric; .T for clarity
    im = op_matmul(seg, Tensor(-sin_kn.T))
    re_s = op_sub(op_mul(re, cos_t), op_mul(im, sin_t))
    im_s = op_mul(re, sin_t) + op_mul(im, cos_t)
    col = op_matmul(re_s, Tensor(center_cos)) - op_matmul(im_s, Tensor(center_sin))
    warped = op_reshape(col * (1.0 / length), (batch, channels, n))
    if series is None:
        return warped
    return TimeSeries(op_reshape(warped, (channels, n)), label=series.label,
                      domain_tag=series.domain_tag)


def integer_warp_oracle(x: TimeSeries, path) -> TimeSeries:
    """Plain index remapping x'[i] = x[clamp(i + path_i, 0, N-1)].

    Reference implementation for integer paths; not differentiable.
    """
    displacements = getattr(path, "displacements", path)
    if isinstance(displacements, Tensor):
        displacements = displacements.data
    displacements = np.asarray(displacements, dtype=np.float64)
    if displacements.ndim != 1 or displacements.shape[0] != x.length:
        raise ValueError(f"path shape {displacements.shape} does not match series length {x.length}")
    if not np.all(displacements == np.round(displacements)):
        raise ValueError("integer_warp_oracle requires integer displacements")
    shifted = np.clip(np.arange(x.length) + displacements.astype(np.int64), 0, x.length - 1)
    return TimeSeries(Tensor(x.values.data[:, shifted].copy()),
                      label=x.label, domain_tag=x.domain_tag)
