"""Monte-Carlo oracle for the leaky-ReLU Gaussian activation duals.

Independent check on the closed forms in `channel_cntk.cntk.leaky_relu_duals`:
it samples the bivariate normal pre-activations directly instead of using
the arc-cosine formulas.
"""

from __future__ import annotations

import numpy as np

from channel_cntk.cntk import COV_TOL


def mc_dual_oracle(lam11: float, lam22: float, lam12: float, neg_slope: float,
                   pos_slope: float, samples: int, seed: int):
    """Monte-Carlo estimate of the activation duals, with standard errors.

    Draws `samples` bivariate normal pairs and averages act(u)act(v) and
    act'(u)act'(v). Returns (sigma_mc, sigma_dot_mc, se_sigma, se_sigma_dot).
    Deterministic given seed; serves as the independent check on the closed
    forms in `leaky_relu_duals`.
    """
    if samples < 10_000:
        raise ValueError("need at least 1e4 samples")
    root = np.sqrt(lam11 * lam22)
    if abs(lam12) > root + COV_TOL:
        raise ValueError("invalid covariance")
    rng = np.random.default_rng(seed)
    z1 = rng.standard_normal(samples)
    z2 = rng.standard_normal(samples)
    if lam11 > 0:
        u = np.sqrt(lam11) * z1
        resid = max(lam22 - lam12 * lam12 / lam11, 0.0)
        v = (lam12 / np.sqrt(lam11)) * z1 + np.sqrt(resid) * z2
    else:
        u = np.zeros(samples)
        v = np.sqrt(lam22) * z2
    a, b = neg_slope, pos_slope

    def act(x):
        return np.where(x >= 0, b * x, a * x)

    def dact(x):
        return np.where(x >= 0, b, a)

    prod = act(u) * act(v)
    dprod = dact(u) * dact(v)
    sigma_mc = float(prod.mean())
    sigma_dot_mc = float(dprod.mean())
    se_sigma = float(prod.std(ddof=1) / np.sqrt(samples))
    se_sigma_dot = float(dprod.std(ddof=1) / np.sqrt(samples))
    return sigma_mc, sigma_dot_mc, se_sigma, se_sigma_dot
