"""A value-carrying prior for the kernel-validity and finite-width fixtures.

The estimator's prior (`channel_cntk.cntk.build_estimation_prior`) reads only
the pilot mask, so its planes barely vary between fixtures. The checks of the
kernel recursion want freer inputs, and this 5-plane stack also holds the
pilot values: the real and imaginary parts jointly scaled to combined max abs
1 (an all-zero image unscaled), the 0/1 pilot mask, and the row and column
coordinates.
"""

from __future__ import annotations

import numpy as np

from channel_cntk.cntk import PriorTensor, _coordinate_planes


def value_prior(sparse) -> PriorTensor:
    """The 5-plane prior (re, im, mask, row coord, col coord) of a sparse pilot image."""
    re, im = sparse.values.real, sparse.values.imag
    scale = max(np.abs(re).max(), np.abs(im).max()) or 1.0
    row_plane, col_plane = _coordinate_planes(*sparse.shape)
    return PriorTensor(np.stack([re / scale, im / scale, sparse.mask.astype(np.float64),
                                 row_plane, col_plane]))
