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
differentiable in both the signal and the path.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

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


def _dirichlet_rows(delta: np.ndarray, length: int) -> tuple[np.ndarray, Callable[[], np.ndarray]]:
    """The (R, L) rows D(delta_r - w), w = -M..M, of the periodic sinc
    D(t) = sin(pi t) / (L sin(pi t / L)), and a function computing their
    slopes D', with transcendentals evaluated per row, not per tap.

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

    The slope function keeps per-row state only: the row sines and
    cosines, f, and the centre tap's value.  It rebuilds the (R, L) sine
    table from them with the same calls, so whoever holds it holds no
    (R, L) array, and its slopes are bitwise those of a saved table.
    ``warp_apply`` calls this once per row block in forward, keeping only
    the block's slope function for its path rule, and again per block in
    backward when its values' rule needs the kernel: each row's result
    depends on that row alone, so the rebuilt kernel is bitwise the first.
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

    def sine_table() -> np.ndarray:
        # (-1)^w sin(pi t / L), with the tap w = k from f directly
        table = np.stack([sin_row, -cos_row], axis=1) @ tap_trig
        table[rows, cols] = sign * s_centre
        return table

    value = numer[:, None] / sine_table()
    a, b = _dirichlet_series(length)
    f2 = f * f
    value[rows, cols] = centre = np.where(small, 1.0 - f2 * (a - b * f2), value[rows, cols])

    def slope() -> np.ndarray:
        # D' = (pi / L) (cos(pi t) sin(pi t / L) - sin(pi t) cos(pi t / L) / L)
        # / sin(pi t / L)^2, whose numerator is again one angle addition; at
        # w = k, D'(f) = pi / (L sin(pi f / L)) (cos(pi f) - D cos(pi f / L))
        cos_t = sign * np.cos(np.pi * f)
        coef = ang * np.stack([cos_t * sin_row - numer * cos_row,
                               -(cos_t * cos_row + numer * sin_row)], axis=1)
        out = coef @ tap_trig
        s_half = sine_table()
        s_half *= s_half
        out /= s_half
        centre_slope = ang / s_centre * (np.cos(np.pi * safe) - centre * np.cos(ang * safe))
        out[rows, cols] = np.where(small, f * (4.0 * b * f2 - 2.0 * a), centre_slope)
        return out

    return value, slope


# Path rows (B*N entries) warp_apply evaluates at once: 1024 is 8 series
# at N = 128, so a 32-origin ascent chunk runs in 4 blocks.  Such a tada
# chunk (default spec, tracemalloc) peaks at 1.95-1.96 MiB with blocks of
# 512 to 2048 rows and at 2.82 MiB in one 4096-row block, and its ascent
# took a median 60 ms at 1024 rows against 78 ms at 4096 (40 alternating
# in-process calls on one pinned CPU of a 2-core x86 sandbox, one BLAS
# thread).
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

    The forward and both rules run in row blocks of WARP_BLOCK_ROWS // N
    series (at least one), so the (b, C, N, L) segments and (b*N, L)
    kernels live one block at a time, never for the whole batch; every
    output and gradient is bitwise what one block over the batch gives.
    What the node saves: the values and paths arrays, and for the path's
    rule each block's per-row state (``_dirichlet_rows``).  In backward
    the values' rule rebuilds each block's kernel with ``_dirichlet_rows``
    and the path's rule re-gathers its segments through the cached window
    and rebuilds its slopes, so the node keeps no (B, C, N, L) or (B*N, L)
    array between forward and backward.
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
    slopes = []
    for block in blocks:
        kernel, slope = _dirichlet_rows(paths[block].ravel(), length)
        np.einsum("bcnw,bnw->bcn", np.take(xs[block], window, axis=2),
                  kernel.reshape(-1, n, length), out=out[block])
        slopes.append(slope)

    def _dvalues(g):
        # the taps' flat addresses in one block's values
        index = np.arange(min(step, batch) * channels).reshape(-1, channels, 1, 1) * n + window
        dvalues = np.empty((batch, channels, n))
        for block in blocks:
            kernel = _dirichlet_rows(paths[block].ravel(), length)[0].reshape(-1, n, length)
            g_block = g[block]
            weights = (g_block[..., None] * kernel[:, None]).ravel()
            dvalues[block] = np.bincount(index[:len(g_block)].ravel(), weights=weights,
                                         minlength=g_block.size).reshape(g_block.shape)
        return dvalues

    def _dpath(g):
        dpath = np.empty((batch, n))
        for block, slope in zip(blocks, slopes):
            seg = np.take(xs[block], window, axis=2)
            dpath[block] = (g[block] * np.einsum("bcnw,bnw->bcn", seg,
                                                 slope().reshape(-1, n, length))).sum(axis=1)
        return dpath

    warped = _record(out, (values, _dvalues), (delta, _dpath))
    if series is None:
        return warped
    return TimeSeries(op_reshape(warped, (channels, n)), label=series.label,
                      domain_tag=series.domain_tag)
