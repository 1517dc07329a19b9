"""Time series and the differentiable frequency-domain warp.

The warp reads every index from the length L = 2M+1 segment centred on it
(edges replicated), as if the segment's DFT were rotated in phase by the
index's displacement and only the centre sample were resynthesized.  That
construction collapses to a periodic-sinc (Dirichlet kernel) weighting of
the segment, the band-limited fractional-delay interpolator, which is what
runs here.  For integer displacements it reproduces plain index shifting;
fractional displacements interpolate band-limitedly.  Everything runs
through tensor ops, so the result is differentiable in both the signal and
the path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import Tensor, as_batch, op_dirichlet, op_gather, op_mul, op_reshape, op_sub, op_sum

__all__ = ["TimeSeries", "warp_apply", "integer_warp_oracle"]


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


def warp_apply(x, path, half_width: int):
    """Warp every channel of ``x`` along ``path``: output index i is the
    band-limited sample of x at position i + path_i, read from the length
    L = 2M+1 segment around i (indices clamped to the edges).

    Phase-shifting the segment's DFT by path_i and reading back its centre
    sample collapses to one sum, out[i] = sum_{w=-M..M} x[clamp(i+w)] *
    D(path_i - w), with D the periodic sinc of ``op_dirichlet``.  Integer
    displacements reproduce plain index shifting.

    ``x`` is a TimeSeries with a path vector (returns a TimeSeries), or a
    (B, C, N) tensor with (B, N) paths, one per row (returns a tensor).
    Every channel of a series shares its path.  One (B*C*N, L) gather of
    all segments, so the tape length depends on neither B, C nor N.
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

    rows = batch * channels * n
    window = np.arange(-half_width, half_width + 1)
    # segment matrix row (b, c, i) holds x[b, c, clamp(i - M .. i + M)]
    series_start = (np.arange(batch * channels) * n)[:, None, None]
    seg_idx = np.clip(np.arange(n)[:, None] + window, 0, n - 1)
    seg = op_gather(op_reshape(values, (rows,)), (series_start + seg_idx).reshape(rows, length))
    shifts = op_reshape(delta, (batch * n, 1))
    if channels > 1:
        path_index = np.arange(batch * n).reshape(batch, 1, n)
        shifts = op_gather(op_reshape(delta, (batch * n,)),
                           np.repeat(path_index, channels, axis=1).reshape(rows, 1))
    # kernel[r, w] = D(delta_r - w)
    kernel = op_dirichlet(op_sub(shifts, Tensor(np.broadcast_to(window, (rows, length)))), length)
    warped = op_reshape(op_sum(op_mul(seg, kernel), axis=-1), (batch, channels, n))
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
