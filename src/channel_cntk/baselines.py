"""Classical pilot interpolators: nearest neighbor, KNN, and separable linear.

All three reproduce pilot values exactly at pilot cells. Distances are
squared index distances d^2 = (dm)^2 + (dn)^2 on the grid; distance ties
break to the smallest flattened (row-major) pilot index. Nearest-neighbor is
KNN with k = 1.
"""

from __future__ import annotations

import numpy as np

from .grid import SparseChannelEstimate

#: Inverse-distance weighting offset, keeps pilot self-weights finite.
IDW_EPS = 1e-9


def _pilot_coords(sparse: SparseChannelEstimate):
    """Pilot (m, n) coordinates and values, sorted by flat row-major index."""
    if sparse.n_pilots < 1:
        raise ValueError("at least one pilot required")
    mm, nn = np.nonzero(sparse.mask)  # np.nonzero is row-major ordered
    return mm, nn, sparse.values[mm, nn]


def _sq_distances(sparse: SparseChannelEstimate):
    """All-cells x all-pilots squared index distances (int64), plus pilot values."""
    M, N = sparse.shape
    pm, pn, pv = _pilot_coords(sparse)
    dm = np.arange(M)[:, None] - pm[None, :]
    dn = np.arange(N)[:, None] - pn[None, :]
    d2 = (dm * dm)[:, None, :] + (dn * dn)[None, :, :]
    return d2.reshape(M * N, pv.size), pv


def nearest_interpolate(sparse: SparseChannelEstimate) -> np.ndarray:
    """Each cell copies the pilot with minimal squared index distance."""
    return knn_interpolate(sparse, 1)


def knn_interpolate(sparse: SparseChannelEstimate, k: int = 4) -> np.ndarray:
    """Inverse-distance-weighted mean of the k nearest pilots.

    Weights are 1/(d + IDW_EPS); neighbor sets resolve distance ties by
    pilot flat index, so k=1 is nearest-neighbor interpolation.
    Pilot cells return their own value exactly.
    """
    M, N = sparse.shape
    key, pv = _sq_distances(sparse)
    n_pilots = pv.size
    if not (1 <= k <= n_pilots):
        raise ValueError(f"k must be within [1, {n_pilots}], got {k}")
    # one integer key ranks by distance, then by pilot (= flat) index
    key *= n_pilots
    key += np.arange(n_pilots)
    key.partition(k - 1, axis=1)
    key = np.sort(key[:, :k], axis=1)
    d = np.sqrt((key // n_pilots).astype(np.float64))
    w = 1.0 / (d + IDW_EPS)
    # normalizing first keeps the single-neighbor case exact (w/w == 1)
    w /= w.sum(axis=1, keepdims=True)
    est = (w * pv[key % n_pilots]).sum(axis=1).reshape(M, N)
    est[sparse.mask] = sparse.values[sparse.mask]
    return est


def linear_interpolate(sparse: SparseChannelEstimate) -> np.ndarray:
    """Separable bilinear interpolation on the pilot lattice.

    First 1-D linear interpolation along frequency (rows) within each
    pilot-bearing symbol column, then along time (columns) for every row.
    Cells outside the pilot span clamp to the nearest pilot row/column
    value. Degenerate layouts stay well-defined: a single pilot per column
    fills that column with its value, and a single pilot overall reproduces
    nearest-neighbor output.
    """
    pm, pn, _ = _pilot_coords(sparse)
    M, N = sparse.shape
    pilot_cols = np.unique(pn)
    # stage 1: fill every row of each pilot-bearing column
    col_fill = np.empty((M, pilot_cols.size), dtype=np.complex128)
    rows = np.arange(M)
    for ci, n in enumerate(pilot_cols):
        rsel = np.nonzero(sparse.mask[:, n])[0]
        vals = sparse.values[rsel, n]
        if rsel.size == 1:
            col_fill[:, ci] = vals[0]
        else:
            # np.interp clamps outside the sample range
            re = np.interp(rows, rsel, vals.real)
            im = np.interp(rows, rsel, vals.imag)
            col_fill[:, ci] = re + 1j * im
    # stage 2: interpolate along time between pilot-bearing columns
    out = np.empty((M, N), dtype=np.complex128)
    cols = np.arange(N)
    if pilot_cols.size == 1:
        out[:] = col_fill[:, [0]]
    else:
        for m in range(M):
            re = np.interp(cols, pilot_cols, col_fill[m].real)
            im = np.interp(cols, pilot_cols, col_fill[m].imag)
            out[m] = re + 1j * im
    out[sparse.mask] = sparse.values[sparse.mask]
    return out
