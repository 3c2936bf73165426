"""Classical pilot interpolators: nearest neighbor, KNN, and separable linear.

All three reproduce pilot values exactly at pilot cells. Distances are
squared index distances d^2 = (dm)^2 + (dn)^2 on the grid; distance ties
break to the smallest flattened (row-major) pilot index. Nearest-neighbor is
KNN with k = 1.

For a fixed pilot mask and k, KNN is a fixed sparse linear map from pilots
to grid: each cell holds k pilot indices and k inverse-distance weights.
`_knn_plan` searches those once per (shape, mask, k) and keeps them,
read-only, in a per-process cache of KNN_PLAN_CACHE_SIZE plans; a call is
then one gather of the pilot values and one k-term weighted sum. The search
never builds the all-cells x all-pilots distance table. For a cell in row m
it ranks, in each pilot column, only the k pilots in the rows before m and
the k in rows m and after, found by binary search on that column's sorted
pilot rows. This finds the exact k nearest: a pilot among a cell's k nearest
overall is among the k nearest in its own column, and within one column the
ranking is by |dm| and then by row (the lower flat index is the lower row),
so those k sit within k places either side of row m. Its memory is
O(cells x pilot columns x k) instead of O(cells x pilots).

`linear_interpolate` keeps no plan: its per-call search is a few
`searchsorted`/`np.interp` passes, and a cached bracket plan saved ~5% of a
classical sweep, not enough to pay for a second cache.
"""

from __future__ import annotations

import functools

import numpy as np

from .grid import SparseChannelEstimate

#: Inverse-distance weighting offset, keeps pilot self-weights finite.
IDW_EPS = 1e-9

#: KNN plans kept across calls. `run_sweep` runs `nearest` (k = 1) and `knn`
#: (k = 4) on the dense and sparse presets, 4 plans; at 360 x 14 the four
#: hold ~0.8 MB (16 bytes per cell and neighbor).
KNN_PLAN_CACHE_SIZE = 4


def _require_pilots(sparse: SparseChannelEstimate) -> int:
    """The pilot count of `sparse`; ValueError when it has none."""
    n_pilots = sparse.n_pilots
    if n_pilots < 1:
        raise ValueError("at least one pilot required")
    return n_pilots


def _pilot_coords(sparse: SparseChannelEstimate):
    """Pilot (m, n) coordinates and values, sorted by flat row-major index."""
    _require_pilots(sparse)
    mm, nn = np.nonzero(sparse.mask)  # np.nonzero is row-major ordered
    return mm, nn, sparse.values[mm, nn]


def nearest_interpolate(sparse: SparseChannelEstimate) -> np.ndarray:
    """Each cell copies the pilot with minimal squared index distance."""
    return knn_interpolate(sparse, 1)


@functools.lru_cache(maxsize=KNN_PLAN_CACHE_SIZE)
def _knn_plan(shape: tuple[int, int], mask_bytes: bytes, k: int):
    """Each cell's k nearest pilots and weights for a C-ordered bool mask; cached.

    Returns read-only `(src, w)`, both (cells, k): `src` indexes the pilots in
    flat row-major order, nearest first, and `w` holds their inverse-distance
    weights, normalized per cell. The caller checks 1 <= k <= pilots.
    """
    M, N = shape
    pm, pn = np.nonzero(np.frombuffer(mask_bytes, dtype=bool).reshape(shape))
    n_pilots = pm.size
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
    src = key % n_pilots
    src.setflags(write=False)
    w.setflags(write=False)
    return src, w


def knn_interpolate(sparse: SparseChannelEstimate, k: int = 4) -> np.ndarray:
    """Inverse-distance-weighted mean of the k nearest pilots.

    Weights are 1/(d + IDW_EPS); neighbor sets resolve distance ties by
    pilot flat index, so k=1 is nearest-neighbor interpolation.
    Pilot cells return their own value exactly.
    """
    n_pilots = _require_pilots(sparse)
    if not (1 <= k <= n_pilots):
        raise ValueError(f"k must be within [1, {n_pilots}], got {k}")
    src, w = _knn_plan(sparse.shape, sparse.mask.tobytes(), k)
    pv = sparse.values[sparse.mask]  # boolean indexing is row-major ordered
    est = (w * pv[src]).sum(axis=1).reshape(sparse.shape)
    est[sparse.mask] = pv
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
