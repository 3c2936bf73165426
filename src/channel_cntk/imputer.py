"""Kernel ridge regression over pilot observations, blockwise over the grid.

A full slot (e.g. 360 x 14) is split into non-overlapping 12 x 14 row bands;
each band gets its own regression, and the per-band estimates are stitched
back together.

A band's kernel is the normalized CNTK over the weighted estimation prior,
which holds the band's pilot mask and coordinates but no pilot values. For
a fixed mask and ridge the estimator is therefore a linear map from pilots
to grid: the pilot values are centered on their band mean (so constants are
reproduced exactly), regressed through one Cholesky factorization for the
real and imaginary parts, and re-shifted by the mean. Consecutive bands with
the same mask share one kernel build. With ridge = 0 the estimator runs in
strict interpolation mode and observed cells keep their observed values
verbatim; with ridge > 0 the ridge deliberately smooths observed cells too.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

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


class SingularKernelError(ValueError):
    """Raised when the regularized observed-block Gram matrix cannot be factorized."""


@dataclass(frozen=True)
class RegressionProblem:
    """Kernel regression inputs: Gram matrix, observed pixel set, targets, ridge."""

    kernel: CoordinateKernel
    observed_idx: np.ndarray  # int64, strictly increasing flat pixel indices
    observed_vals: np.ndarray  # complex128, aligned with observed_idx
    ridge: float = 0.0

    def __post_init__(self):
        idx = _locked(self.observed_idx, np.int64)
        vals = _locked(self.observed_vals, np.complex128)
        P = self.kernel.gram.shape[0]
        if idx.ndim != 1 or idx.size < 1 or idx.size != vals.size:
            raise ValueError("observed_idx and observed_vals must be aligned, non-empty vectors")
        if np.any(idx < 0) or np.any(idx >= P) or np.any(np.diff(idx) <= 0):
            raise ValueError("observed_idx must be strictly increasing within [0, P)")
        if self.ridge < 0:
            raise ValueError("ridge must be non-negative")
        object.__setattr__(self, "observed_idx", idx)
        object.__setattr__(self, "observed_vals", vals)


@dataclass(frozen=True)
class BlockDiagnostics:
    """Per-block solver health: row band, ridge used, condition estimate, solve time."""

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

    Real and imaginary parts of y share one Cholesky factorization. Raises
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
    y = np.column_stack([problem.observed_vals.real, problem.observed_vals.imag])
    alpha = cho_solve(factor, y)
    out = k_ao @ alpha
    return out[:, 0] + 1j * out[:, 1]


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


def stitch_blocks(blocks: list[np.ndarray]) -> np.ndarray:
    """Concatenate row-band estimates back into the full matrix."""
    return np.concatenate(blocks, axis=0)


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


def estimation_kernel(block: SparseChannelEstimate,
                      cfg: CntkConfig = CntkConfig(),
                      weights: PriorWeights = PriorWeights()) -> CoordinateKernel:
    """The unit-diagonal kernel `estimate_channel_cntk` solves with for a band's mask."""
    return normalize_kernel(compute_cntk(build_estimation_prior(block, weights), cfg))


def estimate_channel_cntk(sparse: SparseChannelEstimate,
                          cfg: CntkConfig = CntkConfig(),
                          ridge: float | None = None,
                          block_rows: int = SUBCARRIERS_PER_RB,
                          weights: PriorWeights = PriorWeights()) -> ImputedChannel:
    """Impute the full channel from a sparse pilot estimate, block by block.

    ridge semantics (against the unit-diagonal normalized kernel):
      None  -> relative jitter default (near-interpolating),
      0.0   -> strict interpolation; observed cells keep observed values,
      > 0   -> ridge smoothing of all cells; see `auto_ridge` for the
               noise-matched choice when the operating SNR is known.
    """
    blocks = split_blocks(sparse, block_rows)
    for bi, block in enumerate(blocks):
        if block.n_pilots < 1:
            raise ValueError(f"block {bi} contains no pilots")
    out_blocks = []
    diags = []
    prev_mask = None
    for bi, block in enumerate(blocks):
        if prev_mask is None or not np.array_equal(block.mask, prev_mask):
            kernel = estimation_kernel(block, cfg, weights)
            obs_idx = np.flatnonzero(block.mask)
            lam = default_ridge(kernel, obs_idx) if ridge is None else ridge
            prev_mask = block.mask
        vals = block.values.reshape(-1)[obs_idx]
        mean = vals.mean()
        t0 = time.perf_counter()
        flat, lam_used = _regress_with_escalation(kernel, obs_idx, vals - mean, lam)
        solve_s = time.perf_counter() - t0
        h_block = (flat + mean).reshape(block.shape)
        if ridge == 0:
            h_block[block.mask] = block.values[block.mask]
        reg = kernel.gram[np.ix_(obs_idx, obs_idx)] + lam_used * np.eye(obs_idx.size)
        diags.append(BlockDiagnostics(bi, lam_used, float(np.linalg.cond(reg)), solve_s))
        out_blocks.append(h_block)
    return ImputedChannel(stitch_blocks(out_blocks), tuple(diags))
