"""Reference kernel recursion: the direct forms the fast stages in `channel_cntk.cntk` are checked against.

`patch_aggregate` pads the 4-D pixel-pair field with `np.pad` and sums one
strided view per filter offset; `leaky_relu_duals` evaluates the textbook
closed forms with kappa0, kappa1 and a fresh array per step; `compute_cntk`
runs the recursion on them. They define the same kernel as the package
functions and differ from them only in rounding.
"""

from __future__ import annotations

import numpy as np

from channel_cntk.cntk import COV_TOL, EPS_RHO, CntkConfig, PriorTensor


def leaky_relu_duals(lam11, lam22, lam12, neg_slope: float, pos_slope: float):
    """(Sigma, Sigma_dot) of the leaky ReLU from kappa0 and kappa1."""
    lam11 = np.asarray(lam11, dtype=np.float64)
    lam22 = np.asarray(lam22, dtype=np.float64)
    lam12 = np.asarray(lam12, dtype=np.float64)
    if np.any(lam11 < 0) or np.any(lam22 < 0):
        raise ValueError("variances must be non-negative")
    prod = lam11 * lam22
    root = np.sqrt(prod)
    if np.any(np.abs(lam12) > root + COV_TOL):
        raise ValueError("invalid covariance: |lam12| exceeds sqrt(lam11*lam22)")
    a, b = neg_slope, pos_slope
    degenerate = prod < EPS_RHO * EPS_RHO
    with np.errstate(divide="ignore", invalid="ignore"):
        rho = np.where(degenerate, 0.0, lam12 / np.where(degenerate, 1.0, root))
    rho = np.clip(rho, -1.0, 1.0)
    theta = np.arccos(rho)
    kappa0 = (np.pi - theta) / np.pi
    kappa1 = (np.sqrt(np.maximum(1.0 - rho * rho, 0.0)) + (np.pi - theta) * rho) / np.pi
    sigma = root * (a * b * rho + 0.5 * (b - a) ** 2 * kappa1)
    sigma = np.where(degenerate, 0.0, sigma)
    sigma_dot = a * b + 0.5 * (b - a) ** 2 * kappa0
    if sigma.ndim == 0:
        return float(sigma), float(sigma_dot)
    return sigma, sigma_dot


def patch_aggregate(field: np.ndarray, dims: tuple[int, int], q: int) -> np.ndarray:
    """Mean over the q x q joint offsets of the `np.pad` odd-reflection padded field."""
    M, N = dims
    P = M * N
    r = q // 2
    padded = np.pad(field.reshape(M, N, M, N), r, mode="reflect", reflect_type="odd")
    out = np.zeros((M, N, M, N))
    for da in range(q):
        for db in range(q):
            out += padded[da:da + M, db:db + N, da:da + M, db:db + N]
    out /= q * q
    return out.reshape(P, P)


def compute_cntk(prior: PriorTensor, cfg: CntkConfig = CntkConfig()) -> np.ndarray:
    """The depth-L recursion on the reference stages; returns the symmetrized gram."""
    M, N = prior.dims
    P = M * N
    A = prior.planes.reshape(prior.n_channels, P)
    sigma = A.T @ A
    theta = sigma.copy()
    for _ in range(cfg.depth):
        cov = patch_aggregate(sigma, (M, N), cfg.filter_size)
        theta_agg = patch_aggregate(theta, (M, N), cfg.filter_size)
        diag = np.maximum(np.diag(cov).copy(), 0.0)
        sigma, sigma_dot = leaky_relu_duals(diag[:, None], diag[None, :], cov, cfg.neg_slope, 1.0)
        theta = theta_agg * sigma_dot + sigma
    return 0.5 * (theta + theta.T)
