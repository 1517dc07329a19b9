"""Time series and the differentiable frequency-domain warp.

The warp reads every index from the length L = 2M+1 segment centred on it
(edges replicated), as if the segment's DFT were rotated in phase by the
index's displacement and only the centre sample were resynthesized.  That
construction collapses to a periodic-sinc (Dirichlet kernel) weighting of
the segment, the band-limited fractional-delay interpolator.  ``warp_apply``
evaluates it as one tape node, in blocks of path rows, with a handful of
sines and cosines per path entry rather than per tap, shared by every
channel.  For integer displacements it reproduces plain index shifting;
fractional displacements interpolate band-limitedly.  The warp is
differentiable in both the signal and the path.  Each output sample depends
on one path entry, so the path's Jacobian is diagonal: the forward forms
it, one (B, C, N) array, and the node saves that and the paths, never the
signal.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .tensor import Tensor, _lift, _record, as_batch, op_reshape

__all__ = ["TimeSeries", "warp_apply"]


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


def _dirichlet_rows(delta: np.ndarray, length: int,
                    slopes: bool = False) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """The (R, L) rows D(delta_r - w), w = -M..M, of the periodic sinc
    D(t) = sin(pi t) / (L sin(pi t / L)), and with ``slopes`` also their
    slopes D' as a second (R, L) array, with transcendentals evaluated per
    row, not per tap.

    With k = rint(delta) and f = delta - k (exact, |f| <= 1/2), integer w
    gives sin(pi t) = (-1)^(k+w) sin(pi f) and cos(pi t) likewise, and angle
    addition gives (-1)^w sin(pi t / L) and (-1)^w cos(pi t / L) from the
    row's sin and cos of pi delta / L and per-tap constants: one (R, 2) by
    (2, L) product.  The signs (-1)^w cancel in D and D'.  Every row's k
    must lie in the window, |k| <= M, as it does for the warp's
    |delta| <= M; then every tap but w = k has 1/2 <= |t| <= L - 1/2, so
    sin(pi t / L) stays clear of 0.  At w = k the angle addition cancels,
    so that tap is evaluated from f directly, by the Taylor series below
    DIRICHLET_SERIES_BELOW.

    The slopes divide by the kernel's own sine table, squared in place
    once the kernel is formed.  Each row's result depends on that row
    alone, so rows computed in any grouping are bitwise the same.
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
    # the tap w = k of every row; series rows get a safe f, keeping 0 / 0
    # out, and their values are overwritten
    rows, cols = np.arange(k.size), (k + half).astype(np.intp)
    small = np.abs(f) < DIRICHLET_SERIES_BELOW
    safe = np.where(small, 0.5, f)
    s_centre = np.sin(ang * safe)
    # (-1)^w sin(pi t / L), with the tap w = k from f directly
    table = np.stack([sin_row, -cos_row], axis=1) @ tap_trig
    table[rows, cols] = sign * s_centre
    value = numer[:, None] / table
    a, b = _dirichlet_series(length)
    f2 = f * f
    value[rows, cols] = centre = np.where(small, 1.0 - f2 * (a - b * f2), value[rows, cols])
    if not slopes:
        return value
    # D' = (pi / L) (cos(pi t) sin(pi t / L) - sin(pi t) cos(pi t / L) / L)
    # / sin(pi t / L)^2, whose numerator is again one angle addition; at
    # w = k, D'(f) = pi / (L sin(pi f / L)) (cos(pi f) - D cos(pi f / L))
    cos_t = sign * np.cos(np.pi * f)
    coef = ang * np.stack([cos_t * sin_row - numer * cos_row,
                           -(cos_t * cos_row + numer * sin_row)], axis=1)
    slope = coef @ tap_trig
    table *= table
    slope /= table
    centre_slope = ang / s_centre * (np.cos(np.pi * safe) - centre * np.cos(ang * safe))
    slope[rows, cols] = np.where(small, f * (4.0 * b * f2 - 2.0 * a), centre_slope)
    return value, slope


# Path rows (B*N entries) warp_apply evaluates at once: 1024 is 8 series
# at N = 128, so a 32-origin ascent chunk runs in 4 blocks.  Such a tada
# chunk (default spec, tracemalloc, numpy 2.4.6) peaks at 1.63 MiB with
# blocks of 512 or 1024 rows, at 2.58 MiB with 2048 and at 3.53 MiB in one
# 4096-row block, where a block's kernel and slopes are both live.
WARP_BLOCK_ROWS = 1024


@functools.lru_cache(maxsize=64)
def _window(n: int, half_width: int) -> np.ndarray:
    """The (n, 2M+1) indices clamp(i + w, 0, n-1), w = -M..M, that tap w of
    output index i reads.  Cached: building it took about 23 us a call, as
    long as the gather through it at batch 8.  Read-only, because every
    call shares the one array."""
    window = np.clip(np.arange(n)[:, None] + np.arange(-half_width, half_width + 1), 0, n - 1)
    window.flags.writeable = False
    return window


def warp_apply(x, path, half_width: int):
    """Warp every channel of ``x`` along ``path``: output index i is the
    band-limited sample of x at position i + path_i, read from the length
    L = 2M+1 segment around i (indices clamped to the edges).

    Phase-shifting the segment's DFT by path_i and reading back its centre
    sample collapses to one sum, out[i] = sum_{w=-M..M} x[clamp(i+w)] *
    D(path_i - w), with D the periodic sinc.  Integer displacements
    reproduce plain index shifting.  Defined for |path_i| <= M.

    ``x`` is a TimeSeries with a path vector (returns a TimeSeries), or a
    (B, C, N) tensor with (B, N) paths, one per row (returns a tensor).
    Every channel of a row shares its path and its kernel.  A batch records
    one tape node, whatever B, N or C, with rules for the values and then
    the path: the values' rule scatter-adds g * D, the path's gives
    g * sum_w segment * D', summed over channels.  A series adds one
    reshape on each side.

    The forward and the values' rule run in row blocks of
    WARP_BLOCK_ROWS // N series (at least one), so the (b, C, N, L)
    segments and (b*N, L) kernels and slopes live one block at a time,
    never for the whole batch; every output and gradient is bitwise what
    one block over the batch gives.  Each block gathers its segments once.
    When the path requires grad, the forward also writes the block's
    sum_w segment * D' into one (B, C, N) array, and that array is all the
    path's rule saves.  The values' rule saves the paths and rebuilds each
    block's kernel in backward.  So the node keeps no values array and no
    (B, C, N, L) or (B*N, L) array between forward and backward.
    """
    series = x if isinstance(x, TimeSeries) else None
    if series is not None:
        values = op_reshape(series.values, (1,) + series.values.data.shape)
    else:
        values = _lift(x)
    if values.data.ndim != 3:
        raise ValueError(f"expected a series or a (B, C, N) tensor, got shape {values.data.shape}")
    delta, _ = as_batch(path, 1)
    batch, channels, n = values.data.shape
    length = 2 * half_width + 1
    if n < length:
        raise ValueError(f"series length {n} shorter than window {length}")
    if delta.data.shape[1] != n:
        raise ValueError(f"path length {delta.data.shape[1]} != series length {n}")
    if delta.data.shape[0] != batch:
        raise ValueError(f"{delta.data.shape[0]} paths for {batch} series")
    worst = float(np.max(np.abs(delta.data)))
    if not worst <= half_width + 1e-9:  # slack absorbs constraint-chain rounding; nan fails
        raise ValueError(f"path displacement {worst} exceeds window half-width {half_width}")

    # tap w of index (b, c, i) reads x[b, c, clamp(i + w)].  np.take gives a
    # C-contiguous (b, C, N, L) array; plain indexing, values[:, :, window],
    # gives a strided one, and einsum then sums the taps in another order.
    window = _window(n, half_width)
    xs, paths = values.data, delta.data
    step = max(1, WARP_BLOCK_ROWS // n)
    blocks = [slice(lo, lo + step) for lo in range(0, batch, step)]
    out = np.empty((batch, channels, n))
    # sum_w segment * D', the path rule's factor, formed while the block's
    # segments are at hand; only when the path requires grad
    along = np.empty((batch, channels, n)) if delta.requires_grad else None
    for block in blocks:
        seg = np.take(xs[block], window, axis=2)
        if along is None:
            kernel = _dirichlet_rows(paths[block].ravel(), length)
        else:
            kernel, slope = _dirichlet_rows(paths[block].ravel(), length, slopes=True)
            np.einsum("bcnw,bnw->bcn", seg, slope.reshape(-1, n, length), out=along[block])
        np.einsum("bcnw,bnw->bcn", seg, kernel.reshape(-1, n, length), out=out[block])

    def _dvalues(g):
        # the taps' flat addresses in one block's values
        index = np.arange(min(step, batch) * channels).reshape(-1, channels, 1, 1) * n + window
        dvalues = np.empty((batch, channels, n))
        for block in blocks:
            kernel = _dirichlet_rows(paths[block].ravel(), length).reshape(-1, n, length)
            g_block = g[block]
            weights = (g_block[..., None] * kernel[:, None]).ravel()
            dvalues[block] = np.bincount(index[:len(g_block)].ravel(), weights=weights,
                                         minlength=g_block.size).reshape(g_block.shape)
        return dvalues

    warped = _record(out, (values, _dvalues), (delta, lambda g: (g * along).sum(axis=1)))
    if series is None:
        return warped
    return TimeSeries(op_reshape(warped, (channels, n)), label=series.label,
                      domain_tag=series.domain_tag)
