"""Monte-Carlo empirical NTK of a finite-width two-conv-layer network.

Independent oracle for the closed-form kernel recursion. It builds the
actual finite network the recursion describes (conv -> leaky ReLU -> conv
-> leaky ReLU -> 1x1 readout, NTK parameterization: layer scales 1/q,
1/(q*sqrt(width)), 1/sqrt(width)), differentiates every output pixel with
respect to every parameter exactly by hand-written backpropagation, and
averages the resulting tangent kernel over random initializations.

The kernel of one initialization is the sum over the three parameter
groups (first conv, second conv, readout) of the Gram matrices of their
output Jacobians; each is formed in closed form from the forward
activations without materializing the Jacobian. Each convolution is
preceded by the odd-reflection padding `patch_aggregate` describes; being
linear, its Jacobian is the patches of the identity images.
"""

from __future__ import annotations

import numpy as np


def _patches(x: np.ndarray, q: int) -> np.ndarray:
    """All q x q windows of the odd-reflection padded planes: (C, M, N) -> (C, q*q, M*N)."""
    C, M, N = x.shape
    r = q // 2
    padded = np.pad(x, ((0, 0), (r, r), (r, r)), mode="reflect", reflect_type="odd")
    cols = np.empty((C, q * q, M * N))
    k = 0
    for a in range(q):
        for b in range(q):
            cols[:, k, :] = padded[:, a:a + M, b:b + N].reshape(C, M * N)
            k += 1
    return cols


def empirical_ntk(planes: np.ndarray, *, q: int = 3, width: int = 512,
                  n_init: int = 20, seed: int = 0,
                  neg_slope: float = 0.05, pos_slope: float = 1.0) -> np.ndarray:
    """Average empirical NTK (P x P) over n_init random initializations.

    planes: (C0, M, N) input tensor (the prior). The architecture matches a
    depth-2 kernel recursion: two q x q conv + leaky-ReLU layers and a
    linear 1x1 readout.
    """
    C0, M, N = planes.shape
    P = M * N
    w = width
    a, b = neg_slope, pos_slope

    def act(x):
        return np.where(x >= 0, b * x, a * x)

    def act_prime(x):
        return np.where(x >= 0, b, a)

    rng = np.random.default_rng(seed)
    K = np.zeros((P, P))
    A = _patches(planes, q).reshape(C0 * q * q, P)  # constant across inits
    AtA = (A.T @ A) / q**2
    # Jacobian of the padded patches w.r.t. the input pixels: T[p, o, i] is
    # d(patch o at pixel i) / d(pixel p), the same for every channel
    T = _patches(np.eye(P).reshape(P, M, N), q)  # (P, q^2, P)

    for _ in range(n_init):
        W1 = rng.standard_normal((w, C0, q * q))
        W2 = rng.standard_normal((w, w, q * q))
        v = rng.standard_normal(w)

        u1 = (W1.reshape(w, -1) @ A) / q  # (w, P)
        pat1 = _patches(act(u1).reshape(w, M, N), q).reshape(w * q * q, P)
        u2 = (W2.reshape(w, -1) @ pat1) / (q * np.sqrt(w))
        y2 = act(u2)
        g2 = v[:, None] * act_prime(u2) / np.sqrt(w)  # df_i / du2[d, i]

        # readout: df_i / dv_d = y2[d, i] / sqrt(w)
        K += (y2.T @ y2) / w
        # second conv: df_i / dW2[d, c, o] = g2[d, i] * pat1[c, o, i] / (q sqrt(w))
        K += (g2.T @ g2) * (pat1.T @ pat1) / (q**2 * w)
        # first conv: df_i / du1[c, p] through W2 and the padding, then
        # df_i / dW1[c, c', o'] = sum_p d1[c, p, i] * A[c' o', p] / q
        H = np.einsum("dco,di->coi", W2, g2, optimize=True) / (q * np.sqrt(w))
        d1 = np.einsum("coi,poi->cpi", H, T) * act_prime(u1)[:, :, None]
        K += np.einsum("cpi,pr,crj->ij", d1, AtA, d1, optimize=True)

    return K / n_init


def cosine_similarity(A: np.ndarray, B: np.ndarray) -> float:
    """Frobenius cosine between two matrices."""
    return float(np.sum(A * B) / np.sqrt(np.sum(A * A) * np.sum(B * B)))
