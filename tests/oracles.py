"""Reference implementations that tests check src against."""

import numpy as np

from warpada.signal import TimeSeries
from warpada.tensor import Tensor


def integer_warp_oracle(x: TimeSeries, path) -> TimeSeries:
    """Plain index remapping x'[i] = x[clamp(i + path_i, 0, N-1)].

    Reference implementation for integer paths; not differentiable.
    """
    displacements = np.asarray(path.data if isinstance(path, Tensor) else path,
                               dtype=np.float64)
    if displacements.ndim != 1 or displacements.shape[0] != x.length:
        raise ValueError(f"path shape {displacements.shape} does not match series length {x.length}")
    if not np.all(displacements == np.round(displacements)):
        raise ValueError("integer_warp_oracle requires integer displacements")
    shifted = np.clip(np.arange(x.length) + displacements.astype(np.int64), 0, x.length - 1)
    return TimeSeries(Tensor(x.values.data[:, shifted].copy()),
                      label=x.label, domain_tag=x.domain_tag)
