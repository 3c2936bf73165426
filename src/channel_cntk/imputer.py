"""Kernel ridge regression over pilot observations, blockwise over the grid.

A full slot (e.g. 360 x 14) is split into non-overlapping 12 x 14 row bands,
and each band's estimate fills its rows of the output.

A band's kernel is the normalized CNTK over the weighted estimation prior,
which holds the band's pilot mask and coordinates but no pilot values. For
a fixed mask and ridge the estimator is therefore a linear map from pilots
to grid, so the unit of work is a distinct band mask: its bands share one
kernel, ridge choice, Cholesky factorization and `kernel_regress` call
(each band's centered pilots are one column), and `solve_s` in their
diagnostics is that group's factor-and-solve time. The kernel is cached per
process, keyed on the band mask, `CntkConfig` and `PriorWeights`, in a
bounded cache of KERNEL_CACHE_SIZE entries, so a receiver with a fixed
pilot layout builds it once; the ridge choice, factorization and condition
estimate are made on every call. Centering on the band's
pilot mean reproduces constants exactly. With ridge = 0 the estimator runs
in strict interpolation mode and observed cells keep their observed values
verbatim; with ridge > 0 the ridge deliberately smooths observed cells too.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor
from scipy.linalg.lapack import dpotrs

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

#: Escalation ladder for singular observed-block Gram matrices.
LADDER_BASE_REL = 1e-10
LADDER_FACTOR = 10.0
LADDER_MAX_RETRIES = 6

#: Kernels kept across calls. Real callers alternate between at most 2 band
#: masks (`run_sweep` over the dense and sparse presets); each resident
#: 12 x 14 kernel costs ~0.2 MB, and keeping all 30 of a slot whose band
#: masks all differ cost +9.5% of peak RSS.
KERNEL_CACHE_SIZE = 4


class SingularKernelError(ValueError):
    """Raised when the regularized observed-block Gram matrix cannot be factorized."""


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
    """Per-block solver health: row band, ridge used, condition estimate, solve time.

    The bands of one mask group share its ridge, condition and `solve_s`."""

    block_index: int
    ridge: float
    condition: float
    solve_s: float


@dataclass(frozen=True)
class ImputedChannel:
    """Stitched channel estimate with per-block solver diagnostics."""

    h_hat: np.ndarray  # complex128, shape (M, N)
    diagnostics: tuple[BlockDiagnostics, ...]

    def __post_init__(self):
        object.__setattr__(self, "h_hat", _locked(self.h_hat, np.complex128))


def kernel_regress(problem: RegressionProblem) -> np.ndarray:
    """Solve Hhat = K_ao (K_oo + ridge*I)^-1 y over all P pixels.

    y is (n,) or (n, B) and Hhat is (P,) or (P, B): the real and imaginary
    parts of every column share one Cholesky factorization. Raises
    SingularKernelError when the regularized observed-block Gram matrix is
    not numerically positive definite; callers may retry with a larger ridge.
    """
    obs = problem.observed_idx
    gram = problem.kernel.gram
    k_oo = gram[np.ix_(obs, obs)]
    k_ao = gram[:, obs]
    reg = k_oo + problem.ridge * np.eye(obs.size)
    try:
        factor = cho_factor(reg, lower=True)
    except np.linalg.LinAlgError as exc:
        raise SingularKernelError(
            f"observed-block Gram matrix is singular at ridge={problem.ridge:g}"
        ) from exc
    # Two right-hand sides per solve, as for one band: OpenBLAS multithreads a
    # many-column triangular solve, and on 2 cores waking its threads took
    # ~15 ms, against ~1 ms for the 30 two-column solves of a dense slot.
    # dpotrs is the LAPACK routine cho_solve calls, without cho_solve's ~10 us
    # of per-call checks; the values were checked finite in RegressionProblem.
    cols = []
    for col in problem.observed_vals.reshape(obs.size, -1).T:
        x, info = dpotrs(factor[0], np.column_stack([col.real, col.imag]), lower=factor[1])
        if info != 0:
            raise ValueError(f"dpotrs: illegal value in argument {-info}")
        cols.append(k_ao @ x)
    out = np.stack(cols, axis=1)
    return (out[..., 0] + 1j * out[..., 1]).reshape((-1,) + problem.observed_vals.shape[1:])


def split_blocks(sparse: SparseChannelEstimate,
                 block_rows: int = SUBCARRIERS_PER_RB) -> list[SparseChannelEstimate]:
    """Split into non-overlapping row bands of block_rows subcarriers, in order."""
    M, _ = sparse.shape
    if block_rows < 1 or M % block_rows != 0:
        raise ValueError(f"row count {M} is not divisible by block_rows {block_rows}")
    blocks = []
    for start in range(0, M, block_rows):
        stop = start + block_rows
        blocks.append(SparseChannelEstimate(sparse.values[start:stop],
                                            sparse.mask[start:stop]))
    return blocks


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


def _regress_with_escalation(kernel: CoordinateKernel, obs_idx: np.ndarray,
                             obs_vals: np.ndarray, ridge: float) -> tuple[np.ndarray, float]:
    """kernel_regress with the ridge escalation ladder; returns (result, ridge used).

    On factorization failure the ridge is raised to
    max(ridge, LADDER_BASE_REL * trace(K_oo)/|obs|) and then multiplied by
    LADDER_FACTOR per further retry, up to LADDER_MAX_RETRIES retries.
    """
    k_oo_diag = np.diag(kernel.gram)[obs_idx]
    floor = LADDER_BASE_REL * float(k_oo_diag.sum()) / obs_idx.size
    lam = ridge
    for attempt in range(LADDER_MAX_RETRIES + 1):
        try:
            problem = RegressionProblem(kernel, obs_idx, obs_vals, lam)
            return kernel_regress(problem), lam
        except SingularKernelError:
            if attempt == LADDER_MAX_RETRIES:
                raise
            lam = max(lam, floor, np.finfo(np.float64).tiny) if attempt == 0 \
                else lam * LADDER_FACTOR
    raise AssertionError("unreachable")


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


def estimation_kernel(block: SparseChannelEstimate,
                      cfg: CntkConfig = CntkConfig(),
                      weights: PriorWeights = PriorWeights()) -> CoordinateKernel:
    """The unit-diagonal kernel `estimate_channel_cntk` solves with for a band's mask.

    It comes from the same per-process cache, keyed on the mask, `cfg` and
    `weights`, holding at most KERNEL_CACHE_SIZE kernels (read-only, so
    callers share them).
    """
    return _mask_kernel(block.shape, block.mask.tobytes(), cfg, weights)


def estimate_channel_cntk(sparse: SparseChannelEstimate,
                          cfg: CntkConfig = CntkConfig(),
                          ridge: float | None = None,
                          block_rows: int = SUBCARRIERS_PER_RB,
                          weights: PriorWeights = PriorWeights()) -> ImputedChannel:
    """Impute the full channel from a sparse pilot estimate, one band mask at a time.

    ridge semantics (against the unit-diagonal normalized kernel):
      None  -> relative jitter default (near-interpolating),
      0.0   -> strict interpolation; observed cells keep observed values,
      > 0   -> ridge smoothing of all cells; see `auto_ridge` for the
               noise-matched choice when the operating SNR is known.
    """
    M, N = sparse.shape
    if block_rows < 1 or M % block_rows != 0:
        raise ValueError(f"row count {M} is not divisible by block_rows {block_rows}")
    bands = M // block_rows
    masks = sparse.mask.reshape(bands, -1)
    empty = np.flatnonzero(~masks.any(axis=1))
    if empty.size:
        raise ValueError(f"block {empty[0]} contains no pilots")
    groups = {}  # mask bytes -> bands with that mask; np.unique(axis=0) costs ~1 ms
    for bi in range(bands):
        groups.setdefault(masks[bi].tobytes(), []).append(bi)
    values = sparse.values.reshape(bands, -1)
    out = np.empty(values.shape, np.complex128)
    diags = [None] * bands
    for key, members in groups.items():
        kernel = _mask_kernel((block_rows, N), key, cfg, weights)
        obs_idx = np.flatnonzero(masks[members[0]])
        lam = default_ridge(kernel, obs_idx) if ridge is None else ridge
        vals = values[np.ix_(members, obs_idx)]  # C order: each band mean sums as alone
        mean = vals.mean(axis=1, keepdims=True)
        t0 = time.perf_counter()
        flat, lam_used = _regress_with_escalation(kernel, obs_idx, (vals - mean).T, lam)
        solve_s = time.perf_counter() - t0
        out[members] = flat.T + mean
        if ridge == 0:
            out[np.ix_(members, obs_idx)] = vals
        reg = kernel.gram[np.ix_(obs_idx, obs_idx)] + lam_used * np.eye(obs_idx.size)
        cond = float(np.linalg.cond(reg))
        for bi in members:
            diags[bi] = BlockDiagnostics(bi, lam_used, cond, solve_s)
    return ImputedChannel(out.reshape(sparse.shape), tuple(diags))
