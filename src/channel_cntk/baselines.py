"""Classical pilot interpolators: nearest neighbor, KNN, and separable linear.

All three reproduce pilot values exactly at pilot cells. Distances are
squared index distances d^2 = (dm)^2 + (dn)^2 on the grid; distance ties
break to the smallest flattened (row-major) pilot index. Nearest-neighbor is
KNN with k = 1.

KNN never builds the all-cells x all-pilots distance table. For a cell in
row m it ranks, in each pilot column, only the k pilots in the rows before m
and the k in rows m and after, found by binary search on that column's
sorted pilot rows. This finds the exact k nearest: a pilot among a cell's k
nearest overall is among the k nearest in its own column, and within one
column the ranking is by |dm| and then by row (the lower flat index is the
lower row), so those k sit within k places either side of row m. Memory is
O(cells x pilot columns x k) instead of O(cells x pilots).
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
    pm, pn, pv = _pilot_coords(sparse)
    n_pilots = pv.size
    if not (1 <= k <= n_pilots):
        raise ValueError(f"k must be within [1, {n_pilots}], got {k}")
    # pilots grouped by column, rows ascending in each (stable sort); column
    # c's rows are offset by c * M so that one search serves every column
    cols, counts = np.unique(pn, return_counts=True)
    by_col = np.argsort(pn, kind="stable")
    ends = np.cumsum(counts)
    starts = ends - counts
    col_rows = np.repeat(np.arange(cols.size) * M, counts) + pm[by_col]
    # candidates of row m: in each pilot column, the k pilots in rows before
    # m and the k in rows m and after; slots outside the column get the
    # largest key, and at least min(n, 2k) >= k candidates are real pilots
    pos = np.searchsorted(col_rows, np.arange(M)[:, None] + np.arange(cols.size) * M)
    idx = pos[:, :, None] + np.arange(-k, k)
    outside = (idx < starts[:, None]) | (idx >= ends[:, None])
    cand = by_col[np.clip(idx, 0, n_pilots - 1)]
    dm = np.arange(M)[:, None, None] - pm[cand]
    dn = np.arange(N)[:, None] - cols
    # one integer key ranks by distance, then by pilot (= flat) index
    key = (dm * dm * n_pilots + cand)[:, None] + (dn * dn * n_pilots)[None, :, :, None]
    np.copyto(key, np.iinfo(np.int64).max, where=outside[:, None])
    key = key.reshape(M * N, -1)
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
    # stage 2: interpolate along time between pilot-bearing columns, all rows
    # at once with np.interp's arithmetic on the real and imaginary parts: a
    # symbol on a pilot column or outside their span copies the nearest one;
    # one between columns x_j < n < x_{j+1} is slope*(n - x_j) + y_j with
    # slope = (y_{j+1} - y_j)/(x_{j+1} - x_j)
    if pilot_cols.size == 1:
        out = np.repeat(col_fill, N, axis=1)
    else:
        cols = np.arange(N)
        j = np.clip(np.searchsorted(pilot_cols, cols, side="right") - 1, 0, pilot_cols.size - 1)
        between = (cols > pilot_cols[j]) & (j < pilot_cols.size - 1)
        lo = j[between]
        parts = np.stack([col_fill.real, col_fill.imag])
        fill = parts[:, :, j]
        slope = (parts[:, :, lo + 1] - parts[:, :, lo]) / (pilot_cols[lo + 1] - pilot_cols[lo])
        fill[:, :, between] = slope * (cols[between] - pilot_cols[lo]) + parts[:, :, lo]
        out = fill[0] + 1j * fill[1]
    out[sparse.mask] = sparse.values[sparse.mask]
    return out
