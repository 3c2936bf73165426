"""Closed-form convolutional neural tangent kernel over grid coordinates.

The kernel is the infinite-width NTK of one depth-L convolutional network,
evaluated between every pair of grid pixels. Each layer pads by linear odd
reflection, which continues ramps through the grid border and leaves
constants invariant (boundary pixels stay as predictable as interior ones),
then applies a q x q convolution and a leaky ReLU of positive slope 1. The
recursion per layer is a patchwise covariance aggregation (the padded
convolution), then the Gaussian dual of the activation, accumulating the
tangent kernel alongside the covariance.

Both per-layer stages are arranged for speed without changing that math.
Odd-reflection padding and the joint-offset sum act on the row axes
(m, m') and the column axes (n, n') of the 4-D pixel-pair field
separately, so `patch_aggregate` fills the row padding in place and sums
over the joint row shift, then pads the columns of that partial sum and
sums over the joint column shift: 2q shifted sums instead of q^2, and no
np.pad. `leaky_relu_duals` works in a few preallocated buffers, computes
Sigma_dot once and reuses it in Sigma. Its root = sqrt(lam11*lam22) is
formed per pixel pair, never as sqrt(d_i)*sqrt(d_j): near rho = 1,
arccos turns a 1-ulp change in rho into ~1e-8 in theta, and the
normalized kernel would move by ~1e-7.

The input is a small stack of real feature planes. `build_estimation_prior`
builds the weighted 4-plane stack (mask, coordinates, constant bias) the
channel estimator uses, where the plane amplitudes set the kernel's length
scales. The stack carries no pilot values, so the estimator's kernel
depends only on the pilot mask.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import SparseChannelEstimate, _locked

#: Tolerance on the Cauchy-Schwarz covariance validity check.
COV_TOL = 1e-8

#: Variance floor of the activation dual: a pixel pair with
#: lam11*lam22 < EPS_RHO^2 is treated as zero-energy.
EPS_RHO = 1e-9


@dataclass(frozen=True)
class CntkConfig:
    """Kernel hyperparameters of the underlying convolutional architecture.

    depth: number of padding+conv+activation layers L.
    filter_size: odd spatial extent q of each conv filter.
    neg_slope: leaky-ReLU slope for negative inputs; the positive slope is 1, as
    `normalize_kernel` removes the b^(2L) factor any other slope b would give,
    so the normalized kernel depends on the slopes only through their ratio.
    """

    depth: int = 8
    filter_size: int = 3
    neg_slope: float = 0.05

    def __post_init__(self):
        if self.depth < 1:
            raise ValueError("depth must be >= 1")
        if self.filter_size < 1 or self.filter_size % 2 == 0:
            raise ValueError("filter_size must be odd and positive")
        if not 0 <= self.neg_slope <= 1:
            raise ValueError("neg_slope must satisfy 0 <= neg_slope <= 1")

    def fingerprint(self) -> str:
        """Compact tag used in serialized estimate headers."""
        return f"L{self.depth}q{self.filter_size}a{self.neg_slope:g}"


@dataclass(frozen=True)
class PriorWeights:
    """Amplitudes of the estimation prior's feature planes.

    The bias plane dominates, so pairwise feature gaps (hence kernel
    correlation gaps) scale like |delta features|^2 / (2 * bias^2): the
    coordinate weights set per-axis length scales, and the mask weight sets
    how strongly the pilot layout perturbs them. The column axis gets a
    larger weight because the channel decorrelates faster across OFDM
    symbols (Doppler) than across subcarriers.
    """

    mask: float = 0.03
    row: float = 1.0
    col: float = 2.0
    bias: float = 32.0


@dataclass(frozen=True)
class PriorTensor:
    """Real C x M x N feature stack fed to the kernel recursion.

    `build_estimation_prior` fills C = 4 weighted planes; `compute_cntk`
    accepts any stack of finite planes.
    """

    planes: np.ndarray  # float64, shape (C, M, N)

    def __post_init__(self):
        planes = _locked(self.planes, np.float64)
        if planes.ndim != 3 or planes.shape[0] < 1:
            raise ValueError("prior must be a non-empty stack of M x N planes")
        if not np.all(np.isfinite(planes)):
            raise ValueError("prior entries must be finite")
        object.__setattr__(self, "planes", planes)

    @property
    def n_channels(self) -> int:
        return self.planes.shape[0]

    @property
    def dims(self) -> tuple[int, int]:
        return self.planes.shape[1], self.planes.shape[2]


@dataclass(frozen=True)
class CoordinateKernel:
    """Symmetric PSD Gram matrix over the P = M*N flattened grid pixels.

    Pixel (m, n) maps to flat index m*N + n (row-major).
    """

    gram: np.ndarray  # float64, shape (P, P)
    dims: tuple[int, int]

    def __post_init__(self):
        gram = _locked(self.gram, np.float64)
        M, N = self.dims
        if gram.shape != (M * N, M * N):
            raise ValueError("gram shape does not match dims")
        object.__setattr__(self, "gram", gram)
        object.__setattr__(self, "dims", (int(M), int(N)))


def _coordinate_planes(M: int, N: int) -> tuple[np.ndarray, np.ndarray]:
    rows = np.arange(M, dtype=np.float64) / (M - 1) if M > 1 else np.zeros(M)
    cols = np.arange(N, dtype=np.float64) / (N - 1) if N > 1 else np.zeros(N)
    return (np.repeat(rows[:, None], N, axis=1),
            np.repeat(cols[None, :], M, axis=0))


def build_estimation_prior(sparse: SparseChannelEstimate,
                           weights: PriorWeights = PriorWeights()) -> PriorTensor:
    """Assemble the weighted 4-plane prior used by the channel estimator.

    Planes, each multiplied by its weight: the 0/1 pilot mask, the row and
    column coordinates m/(M-1) and n/(N-1) (0 along a dimension of one
    cell), and a constant bias plane. Only the pilot layout of `sparse` is
    read, never its values, so the kernel built on this prior is fixed by
    the mask and the estimator is linear in the pilots.
    """
    if sparse.n_pilots < 1:
        raise ValueError("prior needs at least one pilot")
    M, N = sparse.shape
    row_plane, col_plane = _coordinate_planes(M, N)
    planes = np.stack([
        weights.mask * sparse.mask.astype(np.float64),
        weights.row * row_plane,
        weights.col * col_plane,
        weights.bias * np.ones((M, N)),
    ])
    return PriorTensor(planes)


def leaky_relu_duals(lam11, lam22, lam12, neg_slope: float):
    """Gaussian dual of the leaky ReLU of slopes a = neg_slope and 1: (Sigma, Sigma_dot).

    For (u, v) zero-mean bivariate normal with covariance
    [[lam11, lam12], [lam12, lam22]], returns E[act(u)act(v)] and
    E[act'(u)act'(v)] in closed form. With root = sqrt(lam11*lam22),
    rho = lam12/root clamped to [-1, 1], theta = arccos(rho) and
    c = (1-a)^2/(2*pi):

        Sigma_dot = a + c*(pi - theta)
        Sigma     = root * (rho*Sigma_dot + c*sqrt(1 - rho^2))

    which is a*rho + ((1-a)^2/2)*kappa1 times root, with the arc-cosine
    kernels kappa0 = (pi - theta)/pi and
    kappa1 = (sqrt(1 - rho^2) + (pi - theta)*rho)/pi. Degenerate pixels
    (lam11*lam22 < EPS_RHO^2) take the rho = 0 limit: Sigma = 0 and
    Sigma_dot at independent inputs. Accepts scalars or broadcastable
    arrays; raises ValueError if |lam12| exceeds root beyond COV_TOL.
    """
    lam11 = np.asarray(lam11, dtype=np.float64)
    lam22 = np.asarray(lam22, dtype=np.float64)
    lam12 = np.asarray(lam12, dtype=np.float64)
    if np.any(lam11 < 0) or np.any(lam22 < 0):
        raise ValueError("variances must be non-negative")
    shape = np.broadcast(lam11, lam22, lam12).shape
    # root stays sqrt(lam11*lam22) per pair: near rho = 1, arccos turns a
    # 1-ulp change in rho (say from sqrt(lam11)*sqrt(lam22)) into ~1e-8 in theta
    root = np.multiply(lam11, lam22, out=np.empty(shape))
    degenerate = root < EPS_RHO * EPS_RHO
    np.sqrt(root, out=root)
    rho = np.abs(lam12, out=np.empty(shape))
    if np.any(rho > root + COV_TOL):
        raise ValueError("invalid covariance: |lam12| exceeds sqrt(lam11*lam22)")
    a = neg_slope
    c = (1.0 - a) ** 2 / (2 * np.pi)
    np.divide(lam12, root, out=rho, where=~degenerate)
    np.copyto(rho, 0.0, where=degenerate)
    np.clip(rho, -1.0, 1.0, out=rho)
    sigma_dot = np.arccos(rho, out=np.empty(shape))
    np.subtract(np.pi, sigma_dot, out=sigma_dot)
    sigma_dot *= c
    sigma_dot += a
    # sin(theta) as sqrt(1 - rho^2), a fraction of np.sin's cost; |rho| <= 1
    # makes 1 - rho*rho >= 0 exactly
    sine = np.multiply(rho, rho, out=np.empty(shape))
    np.subtract(1.0, sine, out=sine)
    np.sqrt(sine, out=sine)
    sine *= c
    sigma = rho
    sigma *= sigma_dot
    sigma += sine
    sigma *= root
    np.copyto(sigma, 0.0, where=degenerate)
    if sigma.ndim == 0:
        return float(sigma), float(sigma_dot)
    return sigma, sigma_dot


def _odd_reflect_pad(buf: np.ndarray, axis: int, r: int) -> None:
    """Fill the r entries at each end of `buf` along `axis` by odd reflection of the L between.

    Matches np.pad(mode="reflect", reflect_type="odd") on that interior up
    to rounding: the entry d places beyond an edge entry x[e] is 2*x[e]
    minus the entry d places back inside. For d >= L that entry lies in the
    opposite border, filled at a smaller d, which continues the reflection
    as np.pad's repeated reflection of a border wider than L - 1 does. A
    1-entry interior is repeated, np.pad's edge mode for a 1-wide axis.
    """
    L = buf.shape[axis] - 2 * r

    def at(i):
        return buf[(slice(None),) * axis + (slice(i, i + 1),)]

    for d in range(1, r + 1):
        if L == 1:
            at(r - d)[...] = at(r)
            at(r + d)[...] = at(r)
            continue
        for p, e in ((r - d, r), (r + L - 1 + d, r + L - 1)):
            dst = at(p)
            np.multiply(at(e), 2.0, out=dst)
            dst -= at(2 * e - p)


def patch_aggregate(field: np.ndarray, dims: tuple[int, int], q: int) -> np.ndarray:
    """Diagonal patch trace of a pixel-pair field: the conv layer's kernel map.

    out[i, j] = (1/q^2) * sum over offsets (a, b) in [-q//2, q//2]^2 of
    field[i + (a, b), j + (a, b)], where both pixel indices shift by the
    SAME offset. Out-of-bounds samples continue the field by odd reflection
    (linear extrapolation through the border), the covariance map of an
    odd-reflection padding layer.

    Padding and sum are separable, so the field (axes m, n, m', n') is
    padded on its row axes (m, m') and summed over the joint row shift,
    then the q-term partial sum is padded on its column axes (n, n') and
    summed over the joint column shift: 2q shifted sums instead of q^2.
    Each pass works on a transposed copy whose padded axis pair is
    outermost.
    """
    if q < 1 or q % 2 == 0:
        raise ValueError("q must be odd and positive")
    M, N = dims
    P = M * N
    if field.shape != (P, P):
        raise ValueError(f"field must be {P}x{P} for dims {dims}")
    if q == 1:
        return field.astype(np.float64)
    r = q // 2
    # each pass pads and shifts the outermost axis pair of its buffer, so a
    # fill is a few contiguous slabs: rows (m, m', n, n'), then cols (n, n', m, m')
    rows = np.empty((M + 2 * r, M + 2 * r, N, N))
    rows[r:r + M, r:r + M] = field.reshape(M, N, M, N).transpose(0, 2, 1, 3)
    _odd_reflect_pad(rows[:, r:r + M], 0, r)
    _odd_reflect_pad(rows, 1, r)
    part = rows[:M, :M] + rows[1:M + 1, 1:M + 1]
    for a in range(2, q):
        part += rows[a:a + M, a:a + M]
    del rows  # free each buffer once read: a 12x14 call peaks at 0.7 MB, not 1.1 MB
    cols = np.empty((N + 2 * r, N + 2 * r, M, M))
    cols[r:r + N, r:r + N] = part.transpose(2, 3, 0, 1)
    del part
    _odd_reflect_pad(cols[:, r:r + N], 0, r)
    _odd_reflect_pad(cols, 1, r)
    out = cols[:N, :N] + cols[1:N + 1, 1:N + 1]
    for b in range(2, q):
        out += cols[b:b + N, b:b + N]
    out /= q * q
    return out.transpose(2, 0, 3, 1).reshape(P, P)


def compute_cntk(prior: PriorTensor, cfg: CntkConfig = CntkConfig()) -> CoordinateKernel:
    """Run the depth-L kernel recursion on a prior tensor.

    Layer 0: Sigma = A^T A over channels, Theta = Sigma. Each layer h then
    aggregates patches, pushes the covariance through the activation dual,
    and updates Theta = aggregate(Theta) * Sigma_dot + Sigma. The result is
    the pixelwise tangent kernel (no pooling), symmetrized as (G + G^T)/2.
    """
    M, N = prior.dims
    P = M * N
    A = prior.planes.reshape(prior.n_channels, P)
    sigma = A.T @ A
    theta = sigma.copy()
    for _ in range(cfg.depth):
        cov = patch_aggregate(sigma, (M, N), cfg.filter_size)
        theta = patch_aggregate(theta, (M, N), cfg.filter_size)
        # the aggregated covariance is PSD up to rounding; clip float dust
        diag = np.maximum(np.diag(cov).copy(), 0.0)
        sigma, sigma_dot = leaky_relu_duals(diag[:, None], diag[None, :], cov, cfg.neg_slope)
        theta *= sigma_dot
        theta += sigma
    gram = 0.5 * (theta + theta.T)
    if not np.all(np.isfinite(gram)):
        raise ValueError("kernel recursion produced non-finite entries")
    return CoordinateKernel(gram, (M, N))


def normalize_kernel(kernel: CoordinateKernel) -> CoordinateKernel:
    """Rescale a kernel to unit diagonal (correlation form).

    D^-1/2 K D^-1/2 preserves symmetry and positive semi-definiteness and
    removes pixel-energy profiles, so regression weights depend only on the
    kernel's correlation structure. Zero-diagonal pixels pass through.
    """
    d = np.sqrt(np.maximum(np.diag(kernel.gram), 0.0))
    d = np.where(d > 0, d, 1.0)
    gram = kernel.gram / d[:, None] / d[None, :]
    return CoordinateKernel(gram, kernel.dims)
