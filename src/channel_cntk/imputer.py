"""Kernel ridge regression over pilot observations, blockwise over the grid.

A slot (e.g. 360 x 14) is cut into its resource blocks: non-overlapping
bands of SUBCARRIERS_PER_RB = 12 rows, fixed by the numerology (the row
count must be a multiple of 12), and each band's estimate fills its rows
of the output. `_band_masks` is the one place a slot is cut into bands.

A band's kernel is the normalized CNTK over the weighted estimation prior,
which holds the band's pilot mask and coordinates but no pilot values;
`estimation_smoother(sparse, band).kernel` returns it. For a fixed mask
and ridge the estimator is therefore a linear map from pilots to grid, the
smoother W = K_ao (K_oo + ridge*I)^-1 (the Gaussian-process posterior-mean
"hat" map), and the estimator applies it: a band's estimate is
W (y - mean(y)) + mean(y). The unit of work is a distinct band mask: its
bands share one kernel, one `SpectralSmoother` (the eigendecomposition
K_oo = U diag(e) U^T and B = K_ao U), one W per ridge and one
`kernel_regress` call (each band's centered pilots are one column). Both
are cached per process: the smoother keyed on the band mask, `CntkConfig`
and `PriorWeights` (KERNEL_CACHE_SIZE entries, `_mask_smoother`), and W =
B diag(1/(e + ridge)) U^T keyed on those and the ridge (MAP_CACHE_SIZE
entries, `_mask_map`, W and the pilot indices, never a kernel). The
estimator looks up W; only a miss there asks for the smoother. So a
receiver with a fixed pilot layout builds its kernel and eigendecomposes
K_oo once, forms W once per ridge (the jitter DEFAULT_RIDGE_REL by default,
or `auto_ridge(snr_db)`), and each call only applies W to the pilots.
`kernel_s` and `solve_s` in the diagnostics are a group's time to get its
W (formed or a cache hit) and to apply it.
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
import numbers
import time
from dataclasses import dataclass
from typing import NamedTuple

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

#: Default ridge: a jitter relative to the unit diagonal of the normalized kernel.
DEFAULT_RIDGE_REL = 1e-8

#: Eigenvalue floor of the regularized observed-block Gram matrix, relative
#: to its mean diagonal trace(K_oo)/|obs|.
EIG_FLOOR_REL = 1e-10

#: Smoothers kept across calls. Real callers alternate between at most 2
#: band masks (`run_sweep` over the dense and sparse presets); each resident
#: 12 x 14 smoother costs ~0.25 MB (kernel ~0.2 MB, B ~32 KB at 24 pilots),
#: and keeping the kernels of all 30 bands of a slot whose band masks all
#: differ cost +9.5% of peak RSS.
KERNEL_CACHE_SIZE = 4

#: Smoother matrices W kept across calls, one per (band mask, ridge). A fixed
#: pilot layout at the 4 SNR levels of an auto-ridge receiver (`slot-fixed`)
#: uses 4 ridges, which must all stay resident. An entry holds W and its
#: pilot indices, never a kernel: W is 168 x 24 floats, about 32 KB, for a
#: dense 12 x 14 band.
MAP_CACHE_SIZE = 4


def _is_ridge(ridge) -> bool:
    """The solver's ridge rule: a real number >= 0 (so not NaN, not a string)."""
    return isinstance(ridge, numbers.Real) and ridge >= 0


@dataclass(frozen=True)
class SpectralSmoother:
    """A kernel and an observed pixel set, factored once for any ridge.

    With K_oo = U diag(e) U^T (e ascending) and B = K_ao U, where K_ao is
    the kernel's columns at `obs`, the ridge estimate of targets y is
    W y with W = B diag(1/(e + lam)) U^T (`matrix`). `floor` is the eigenvalue floor
    EIG_FLOOR_REL * trace(K_oo)/n, at least the smallest normal float.
    Build it with `spectral_smoother`; all arrays are read-only.
    """

    kernel: CoordinateKernel
    obs: np.ndarray  # int64, strictly increasing flat pixel indices, shape (n,)
    e: np.ndarray  # float64, eigenvalues of K_oo, ascending, shape (n,)
    U: np.ndarray  # float64, eigenvectors of K_oo as columns, shape (n, n)
    floor: float
    B: np.ndarray  # float64, K_ao U, shape (P, n)

    def regularize(self, ridge: float) -> tuple[float, float]:
        """(lam, condition) for a requested ridge.

        lam is `ridge` unless e_min + ridge falls below `floor`; then lam =
        floor - e_min, so a singular or indefinite K_oo still gives a finite
        estimate. The condition number is (e_max + lam) / (e_min + lam).
        Raises ValueError unless `ridge` is a non-negative number.
        """
        if not _is_ridge(ridge):
            raise ValueError("ridge must be a non-negative number")
        e = self.e
        lam = float(max(ridge, self.floor - e[0]))
        return lam, float((e[-1] + lam) / (e[0] + lam))

    def matrix(self, ridge: float) -> tuple[np.ndarray, float, float]:
        """(W, lam, condition) for a requested ridge, lam and condition from `regularize`.

        W = B diag(1/(e + lam)) U^T = K_ao (K_oo + lam*I)^-1 is the read-only
        (P, n) map from the targets at `obs` to the ridge estimate at all P
        pixels.
        """
        lam, cond = self.regularize(ridge)
        W = (self.B * (1.0 / (self.e + lam))) @ self.U.T
        W.setflags(write=False)
        return W, lam, cond


def spectral_smoother(kernel: CoordinateKernel, obs: np.ndarray) -> SpectralSmoother:
    """Eigendecompose K_oo of `kernel` over the observed pixels `obs` (uncached).

    Raises ValueError unless `obs` is a non-empty, strictly increasing list
    of flat pixel indices within [0, P).
    """
    obs = _locked(obs, np.int64)
    gram = kernel.gram
    if (obs.ndim != 1 or obs.size < 1 or obs[0] < 0 or obs[-1] >= gram.shape[0]
            or np.any(np.diff(obs) <= 0)):
        raise ValueError("obs must be a non-empty, strictly increasing index list within [0, P)")
    k_oo = gram[np.ix_(obs, obs)]
    e, U = np.linalg.eigh(k_oo)
    floor = max(EIG_FLOOR_REL * float(np.trace(k_oo)) / obs.size, np.finfo(np.float64).tiny)
    return SpectralSmoother(kernel, obs, _locked(e, np.float64), _locked(U, np.float64),
                            floor, _locked(gram[:, obs] @ U, np.float64))


class BlockDiagnostics(NamedTuple):
    """Per-block solver health: row band, ridge used, condition number, stage times.

    `kernel_s` is the time spent getting the band's W: on a hit one lookup;
    on a miss forming W from the band's `SpectralSmoother`, after building it
    (the kernel, the eigendecomposition of K_oo and B = K_ao U) if that
    missed too. `solve_s` is the
    time `kernel_regress` takes to apply W. The bands of one mask group
    share its ridge, condition, `kernel_s` and `solve_s`. An immutable
    named tuple, so a slot's 30 entries cost no per-field `__init__`."""

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


def kernel_regress(W: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Hhat = W y over all P pixels, for a smoother matrix W from `SpectralSmoother.matrix`.

    `values` y is (n,) or (n, B) for W of shape (P, n), rows aligned with
    the smoother's `obs`, and Hhat is (P,) or (P, B).
    """
    vals = np.asarray(values, dtype=np.complex128)
    n = W.shape[1]
    if vals.ndim > 2 or vals.shape[:1] != (n,):
        raise ValueError(f"values must be (n,) or (n, B) with n = {n} observed pixels")
    if not np.all(np.isfinite(vals)):
        raise ValueError("values must be finite (no NaN/Inf)")
    cols = np.ascontiguousarray(vals.reshape(n, -1).T)
    # Each column, read as an (n, 2) [re, im] float view, is one stacked
    # (P, n) @ (n, 2) product, with the shapes of a lone column: a column's
    # bits do not depend on how many columns share W (a many-column product
    # sums in an order that depends on its column count), and OpenBLAS does
    # not thread calls this small.
    out = np.matmul(W, cols.view(np.float64).reshape(len(cols), n, 2))
    est = out.view(np.complex128)[..., 0].T
    return est.reshape((-1,) + vals.shape[1:])


def auto_ridge(snr_db: float) -> float:
    """Noise-matched ridge for a unit-diagonal kernel: 10^(-snr/10), floored.

    Kernel ridge regression is the Gaussian-process posterior mean with the
    ridge playing the role of the observation-noise variance, so the ridge
    tracks the inverse linear SNR. Noiseless (infinite SNR) degrades to the
    jitter floor.
    """
    return max(10.0 ** (-snr_db / 10.0), DEFAULT_RIDGE_REL)


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
def _mask_smoother(shape: tuple[int, int], mask_bytes: bytes,
                   cfg: CntkConfig, weights: PriorWeights) -> SpectralSmoother:
    """The spectral smoother of a band mask given as C-ordered bool bytes; cached.

    The kernel reads only the mask, so the band is built with zero values.
    The stages are looked up in this module at call time, where tests and
    the benchmark's tracer replace them.
    """
    mask = np.frombuffer(mask_bytes, dtype=bool).reshape(shape)
    block = SparseChannelEstimate(np.zeros(shape, np.complex128), mask)
    kernel = normalize_kernel(compute_cntk(build_estimation_prior(block, weights), cfg))
    return spectral_smoother(kernel, np.flatnonzero(mask))


@functools.lru_cache(maxsize=MAP_CACHE_SIZE)
def _mask_map(shape: tuple[int, int], mask_bytes: bytes, cfg: CntkConfig,
              weights: PriorWeights, ridge: float) -> tuple[np.ndarray, np.ndarray, float, float]:
    """(W, obs, lam, condition) of a band mask at a requested ridge; cached.

    W and lam come from `SpectralSmoother.matrix` of the band's cached
    smoother; the entry holds W and the observed pixels, never the kernel,
    so a hit touches neither the smoother cache nor a kernel. A ridge the
    smoother rejects raises and is never stored.
    """
    smoother = _mask_smoother(shape, mask_bytes, cfg, weights)
    W, lam, cond = smoother.matrix(ridge)
    return W, smoother.obs, lam, cond


def estimation_smoother(sparse: SparseChannelEstimate, band: int,
                        cfg: CntkConfig = CntkConfig(),
                        weights: PriorWeights = PriorWeights()) -> SpectralSmoother:
    """The cached `SpectralSmoother` `estimate_channel_cntk` solves band `band` of `sparse` with.

    Bands are the slot's 12-row resource blocks, numbered from 0. The
    smoother comes from the estimator's per-process cache, keyed on the band
    mask, `cfg` and `weights`, holding at most KERNEL_CACHE_SIZE smoothers
    (read-only, so callers share them). Its `kernel` is the unit-diagonal
    kernel of the band.
    """
    masks = _band_masks(sparse)
    if not 0 <= band < len(masks):
        raise ValueError(f"block index {band} out of range [0, {len(masks)})")
    return _mask_smoother(masks.shape[1:], masks[band].tobytes(), cfg, weights)


def estimate_channel_cntk(sparse: SparseChannelEstimate,
                          cfg: CntkConfig = CntkConfig(),
                          ridge: float = DEFAULT_RIDGE_REL,
                          weights: PriorWeights = PriorWeights()) -> ImputedChannel:
    """Impute the full channel from a sparse pilot estimate, one band mask at a time.

    ridge (against the unit-diagonal normalized kernel) is a non-negative number:
      DEFAULT_RIDGE_REL (the default) -> near-interpolating jitter,
      0.0   -> strict interpolation; observed cells keep observed values,
      > 0   -> ridge smoothing of all cells; see `auto_ridge` for the
               noise-matched choice when the operating SNR is known.
    """
    masks = _band_masks(sparse)
    bands, shape = len(masks), masks.shape[1:]
    flat_masks = masks.reshape(bands, -1)
    if (flat_masks == flat_masks[0]).all():
        # a fixed layout: one compare replaces the per-band grouping, and the
        # gather and the write need no band index (a sixth of a slot-fixed slot)
        groups = {flat_masks[0].tobytes(): None}  # None: every band
    else:
        groups = {}  # mask bytes -> bands with that mask; np.unique(axis=0) costs ~1 ms
        for bi, band_mask in enumerate(flat_masks):
            groups.setdefault(band_mask.tobytes(), []).append(bi)
    values = sparse.values.reshape(bands, -1)
    out = np.empty(values.shape, np.complex128) if len(groups) > 1 else None
    group_of = np.zeros(bands, np.intp)
    stats = []  # (ridge, condition, solve_s, kernel_s) per group
    for g, (key, members) in enumerate(groups.items()):
        t0 = time.perf_counter()
        W, obs, lam_used, cond = _mask_map(shape, key, cfg, weights, ridge)
        kernel_s = time.perf_counter() - t0
        # gather in C order, so each band mean sums as if its band were alone
        # (values[:, obs] is F-ordered)
        vals = np.take(values, obs, axis=1) if members is None else values[np.ix_(members, obs)]
        mean = vals.mean(axis=1, keepdims=True)
        t0 = time.perf_counter()
        est = kernel_regress(W, (vals - mean).T).T  # (bands, P), a fresh array
        solve_s = time.perf_counter() - t0
        est += mean
        if ridge == 0:
            est[:, obs] = vals
        if members is None:
            out = est
        else:
            out[members] = est
            group_of[members] = g
        stats.append((lam_used, cond, solve_s, kernel_s))
    columns = np.array(stats)[group_of].T.tolist()
    diags = tuple(map(BlockDiagnostics, range(bands), *columns))
    return ImputedChannel(out.reshape(sparse.shape), diags)
