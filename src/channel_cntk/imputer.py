"""Kernel ridge regression over pilot observations, blockwise over the grid.

A slot (e.g. 360 x 14) is cut into its resource blocks: non-overlapping
bands of SUBCARRIERS_PER_RB = 12 rows, fixed by the numerology (the row
count must be a multiple of 12), and each band's estimate fills its rows
of the output. `_band_masks` is the one place a slot is cut into bands.

A band's kernel is the normalized CNTK over the weighted estimation prior,
which holds the band's pilot mask and coordinates but no pilot values;
`estimation_kernel(sparse, band)` returns it for one band. For a fixed mask
and ridge the estimator is therefore a linear map from pilots to grid, the
smoother W = K_ao (K_oo + ridge*I)^-1, so the unit of work is a distinct
band mask: its bands share one kernel, ridge choice, eigendecomposition of
K_oo and `kernel_regress` call (each band's centered pilots are one column),
and `kernel_s` and `solve_s` in their diagnostics are that group's time to
get its kernel (build or cache hit) and its eigendecomposition-and-solve
time. The kernel is cached per process, keyed on the band mask,
`CntkConfig` and `PriorWeights`, in a bounded cache of KERNEL_CACHE_SIZE
entries, so a receiver with a fixed pilot layout builds it once; the ridge
choice, eigendecomposition and condition number are made on every call.
A singular or slightly indefinite K_oo needs no retry: when its smallest
eigenvalue plus the ridge falls below EIG_FLOOR_REL * trace(K_oo)/|obs|,
the ridge is raised to lift that eigenvalue to the floor, and the ridge
used is reported. Centering on the band's pilot mean reproduces constants
exactly. With ridge = 0 the estimator runs in strict interpolation mode and
observed cells keep their observed values verbatim; with ridge > 0 the
ridge deliberately smooths observed cells too.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass

import numpy as np

from .cntk import (
    CntkConfig,
    CoordinateKernel,
    PriorWeights,
    build_estimation_prior,
    compute_cntk,
    normalize_kernel,
)
from .grid import SUBCARRIERS_PER_RB, SparseChannelEstimate, _locked

#: Default ridge: relative jitter against the observed-block Gram trace.
DEFAULT_RIDGE_REL = 1e-8

#: Eigenvalue floor of the regularized observed-block Gram matrix, relative
#: to its mean diagonal trace(K_oo)/|obs|.
EIG_FLOOR_REL = 1e-10

#: Kernels kept across calls. Real callers alternate between at most 2 band
#: masks (`run_sweep` over the dense and sparse presets); each resident
#: 12 x 14 kernel costs ~0.2 MB, and keeping all 30 of a slot whose band
#: masks all differ cost +9.5% of peak RSS.
KERNEL_CACHE_SIZE = 4


@dataclass(frozen=True)
class RegressionProblem:
    """Kernel regression inputs: Gram matrix, observed pixel set, targets, ridge."""

    kernel: CoordinateKernel
    observed_idx: np.ndarray  # int64, strictly increasing flat pixel indices
    observed_vals: np.ndarray  # complex128, (n,) or (n, B), rows aligned with observed_idx
    ridge: float = 0.0

    def __post_init__(self):
        idx = _locked(self.observed_idx, np.int64)
        vals = _locked(self.observed_vals, np.complex128)
        P = self.kernel.gram.shape[0]
        if idx.ndim != 1 or idx.size < 1 or vals.ndim > 2 or vals.shape[:1] != idx.shape:
            raise ValueError("observed_vals must be (n,) or (n, B) over a non-empty observed_idx")
        if not np.all(np.isfinite(vals)):
            raise ValueError("observed_vals must be finite (no NaN/Inf)")
        if np.any(idx < 0) or np.any(idx >= P) or np.any(np.diff(idx) <= 0):
            raise ValueError("observed_idx must be strictly increasing within [0, P)")
        if self.ridge < 0:
            raise ValueError("ridge must be non-negative")
        object.__setattr__(self, "observed_idx", idx)
        object.__setattr__(self, "observed_vals", vals)


@dataclass(frozen=True)
class BlockDiagnostics:
    """Per-block solver health: row band, ridge used, condition number, stage times.

    `kernel_s` is the time spent getting the band's kernel: a build on a
    cache miss, a lookup on a hit. `solve_s` is the time of the
    eigendecomposition and solve. The bands of one mask group share its
    ridge, condition, `kernel_s` and `solve_s`."""

    block_index: int
    ridge: float
    condition: float
    solve_s: float
    kernel_s: float


@dataclass(frozen=True)
class ImputedChannel:
    """Stitched channel estimate with per-block solver diagnostics."""

    h_hat: np.ndarray  # complex128, shape (M, N)
    diagnostics: tuple[BlockDiagnostics, ...]

    def __post_init__(self):
        object.__setattr__(self, "h_hat", _locked(self.h_hat, np.complex128))


def kernel_regress(problem: RegressionProblem) -> tuple[np.ndarray, float, float]:
    """Solve Hhat = K_ao (K_oo + lam*I)^-1 y over all P pixels from one `eigh(K_oo)`.

    y is (n,) or (n, B) and Hhat is (P,) or (P, B). With K_oo = U diag(e) U^T,
    lam is `problem.ridge` unless e_min + ridge falls below the floor
    EIG_FLOOR_REL * trace(K_oo)/n (at least the smallest normal float); then
    lam = floor - e_min, so a singular or indefinite K_oo still gives a
    finite estimate. Returns (Hhat, lam, (e_max + lam) / (e_min + lam)).
    """
    obs = problem.observed_idx
    gram = problem.kernel.gram
    k_oo = gram[np.ix_(obs, obs)]
    e, U = np.linalg.eigh(k_oo)  # ascending eigenvalues
    floor = max(EIG_FLOOR_REL * float(np.trace(k_oo)) / obs.size, np.finfo(np.float64).tiny)
    lam = float(max(problem.ridge, floor - e[0]))
    smoother = gram[:, obs] @ ((U / (e + lam)) @ U.T)
    # Two right-hand sides per product, as for one band: a many-column product
    # sums in an order that depends on its column count, so a band's bits
    # would depend on how many bands share its mask; and OpenBLAS multithreads
    # large products, where on 2 cores one 60-column product over a 168-pilot
    # band took ~7 ms, mostly waking threads, against 0.25 ms for 30
    # two-column products.
    cols = [smoother @ np.column_stack([col.real, col.imag])
            for col in problem.observed_vals.reshape(obs.size, -1).T]
    out = np.stack(cols, axis=1)
    est = (out[..., 0] + 1j * out[..., 1]).reshape((-1,) + problem.observed_vals.shape[1:])
    return est, lam, float((e[-1] + lam) / (e[0] + lam))


def auto_ridge(snr_db: float) -> float:
    """Noise-matched ridge for a unit-diagonal kernel: 10^(-snr/10), floored.

    Kernel ridge regression is the Gaussian-process posterior mean with the
    ridge playing the role of the observation-noise variance, so the ridge
    tracks the inverse linear SNR. Noiseless (infinite SNR) degrades to the
    jitter floor.
    """
    if math.isinf(snr_db) and snr_db > 0:
        return DEFAULT_RIDGE_REL
    return max(10.0 ** (-snr_db / 10.0), DEFAULT_RIDGE_REL)


def default_ridge(kernel: CoordinateKernel, obs_idx: np.ndarray) -> float:
    """Relative jitter: DEFAULT_RIDGE_REL * trace(K_oo) / |obs|."""
    k_oo_diag = np.diag(kernel.gram)[obs_idx]
    return DEFAULT_RIDGE_REL * float(k_oo_diag.sum()) / obs_idx.size


def _band_masks(sparse: SparseChannelEstimate) -> np.ndarray:
    """The slot's pilot mask cut into its (bands, 12, N) resource-block masks.

    Raises ValueError when the row count is not a multiple of
    SUBCARRIERS_PER_RB or a band holds no pilot.
    """
    M, N = sparse.shape
    if M % SUBCARRIERS_PER_RB != 0:
        raise ValueError(f"row count {M} is not divisible by {SUBCARRIERS_PER_RB}")
    masks = sparse.mask.reshape(-1, SUBCARRIERS_PER_RB, N)
    empty = np.flatnonzero(~masks.any(axis=(1, 2)))
    if empty.size:
        raise ValueError(f"block {empty[0]} contains no pilots")
    return masks


@functools.lru_cache(maxsize=KERNEL_CACHE_SIZE)
def _mask_kernel(shape: tuple[int, int], mask_bytes: bytes,
                 cfg: CntkConfig, weights: PriorWeights) -> CoordinateKernel:
    """The estimation kernel of a band mask given as C-ordered bool bytes; cached.

    The kernel reads only the mask, so the band is built with zero values.
    The stages are looked up in this module at call time, where tests and
    the benchmark's tracer replace them.
    """
    mask = np.frombuffer(mask_bytes, dtype=bool).reshape(shape)
    block = SparseChannelEstimate(np.zeros(shape, np.complex128), mask)
    return normalize_kernel(compute_cntk(build_estimation_prior(block, weights), cfg))


def estimation_kernel(sparse: SparseChannelEstimate, band: int,
                      cfg: CntkConfig = CntkConfig(),
                      weights: PriorWeights = PriorWeights()) -> CoordinateKernel:
    """The unit-diagonal kernel `estimate_channel_cntk` solves band `band` of `sparse` with.

    Bands are the slot's 12-row resource blocks, numbered from 0. The kernel
    comes from the estimator's per-process cache, keyed on the band mask,
    `cfg` and `weights`, holding at most KERNEL_CACHE_SIZE kernels
    (read-only, so callers share them).
    """
    masks = _band_masks(sparse)
    if not 0 <= band < len(masks):
        raise ValueError(f"block index {band} out of range [0, {len(masks)})")
    return _mask_kernel(masks.shape[1:], masks[band].tobytes(), cfg, weights)


def estimate_channel_cntk(sparse: SparseChannelEstimate,
                          cfg: CntkConfig = CntkConfig(),
                          ridge: float | None = None,
                          weights: PriorWeights = PriorWeights()) -> ImputedChannel:
    """Impute the full channel from a sparse pilot estimate, one band mask at a time.

    ridge semantics (against the unit-diagonal normalized kernel):
      None  -> relative jitter default (near-interpolating),
      0.0   -> strict interpolation; observed cells keep observed values,
      > 0   -> ridge smoothing of all cells; see `auto_ridge` for the
               noise-matched choice when the operating SNR is known.
    """
    masks = _band_masks(sparse)
    bands = len(masks)
    groups = {}  # mask bytes -> bands with that mask; np.unique(axis=0) costs ~1 ms
    for bi, band_mask in enumerate(masks):
        groups.setdefault(band_mask.tobytes(), []).append(bi)
    values = sparse.values.reshape(bands, -1)
    out = np.empty(values.shape, np.complex128)
    diags = [None] * bands
    for key, members in groups.items():
        t0 = time.perf_counter()
        kernel = _mask_kernel(masks.shape[1:], key, cfg, weights)
        kernel_s = time.perf_counter() - t0
        obs_idx = np.flatnonzero(masks[members[0]])
        lam = default_ridge(kernel, obs_idx) if ridge is None else ridge
        vals = values[np.ix_(members, obs_idx)]  # C order: each band mean sums as alone
        mean = vals.mean(axis=1, keepdims=True)
        t0 = time.perf_counter()
        flat, lam_used, cond = kernel_regress(
            RegressionProblem(kernel, obs_idx, (vals - mean).T, lam))
        solve_s = time.perf_counter() - t0
        out[members] = flat.T + mean
        if ridge == 0:
            out[np.ix_(members, obs_idx)] = vals
        for bi in members:
            diags[bi] = BlockDiagnostics(bi, lam_used, cond, solve_s, kernel_s)
    return ImputedChannel(out.reshape(sparse.shape), tuple(diags))
