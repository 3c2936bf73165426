"""Tests for the kernel recursion: duals, patch aggregation, prior, kernel."""

import numpy as np
import pytest

from channel_cntk import (
    CntkConfig,
    PriorWeights,
    SparseChannelEstimate,
    compute_cntk,
    normalize_kernel,
)
from channel_cntk.cntk import (
    PriorTensor,
    build_estimation_prior,
    leaky_relu_duals,
    patch_aggregate,
)

from dual_oracle import mc_dual_oracle
from ntk_finite_width import empirical_ntk
from value_prior import value_prior


class TestLeakyReluDuals:
    def test_unit_correlated(self):
        # E[act(u)^2] = (a^2 + b^2)/2 for standard normal u
        s, sd = leaky_relu_duals(1, 1, 1, 0.05, 1.0)
        assert abs(s - 0.50125) < 1e-12
        assert abs(sd - 0.50125) < 1e-12

    def test_identity_activation(self):
        s, sd = leaky_relu_duals(1, 1, 1, 1.0, 1.0)
        assert abs(s - 1.0) < 1e-12
        assert abs(sd - 1.0) < 1e-12

    def test_independent_inputs(self):
        # kappa0(0) = 1/2: sigma_dot = 0.05 + 0.9025/4
        _, sd = leaky_relu_duals(1, 1, 0, 0.05, 1.0)
        assert abs(sd - 0.275625) < 1e-12

    def test_anticorrelated_relu(self):
        s, sd = leaky_relu_duals(1, 1, -1, 0.0, 1.0)
        assert abs(s) < 1e-12
        assert abs(sd) < 1e-12

    def test_degenerate_variance_branch(self):
        s, sd = leaky_relu_duals(0.0, 5.0, 0.0, 0.05, 1.0)
        assert s == 0.0
        assert abs(sd - (0.05 + 0.9025 / 4)) < 1e-12

    def test_covariance_validity_error(self):
        with pytest.raises(ValueError, match="covariance"):
            leaky_relu_duals(1, 1, 1.1, 0.05, 1.0)
        with pytest.raises(ValueError):
            leaky_relu_duals(-1, 1, 0, 0.05, 1.0)

    def test_matches_monte_carlo_spot(self):
        s, sd = leaky_relu_duals(1, 1, 0.5, 0.05, 1.0)
        s_mc, sd_mc, se_s, se_sd = mc_dual_oracle(1, 1, 0.5, 0.05, 1.0,
                                                  1_000_000, seed=77)
        assert abs(s - s_mc) <= 3 * se_s
        assert abs(sd - sd_mc) <= 3 * se_sd

    def test_array_broadcast(self):
        lam = np.array([[1.0, 0.5], [0.5, 1.0]])
        d = np.diag(lam)
        s, sd = leaky_relu_duals(d[:, None], d[None, :], lam, 0.05, 1.0)
        assert s.shape == (2, 2)
        assert abs(s[0, 0] - 0.50125) < 1e-12


class TestMcDualOracle:
    def test_identity_converges(self):
        s_mc, _, se, _ = mc_dual_oracle(1, 1, 1, 1.0, 1.0, 100_000, seed=1)
        assert abs(s_mc - 1.0) <= 3 * se

    def test_scale_free_sigma_dot(self):
        # variances do not affect sigma_dot; at rho=0 with relu: kappa0/2 = 1/4
        _, sd_mc, _, se = mc_dual_oracle(4, 1, 0, 0.0, 1.0, 1_000_000, seed=2)
        assert abs(sd_mc - 0.25) <= 3 * se

    def test_requires_samples(self):
        with pytest.raises(ValueError):
            mc_dual_oracle(1, 1, 0, 0.05, 1.0, 100, seed=1)

    def test_deterministic(self):
        a = mc_dual_oracle(1, 1, 0.3, 0.05, 1.0, 10_000, seed=5)
        b = mc_dual_oracle(1, 1, 0.3, 0.05, 1.0, 10_000, seed=5)
        assert a == b


def _naive_patch_aggregate(field, dims, q):
    """Definitional triple loop; the oracle patch_aggregate is checked against."""
    M, N = dims
    r = q // 2
    f4 = field.reshape(M, N, M, N)

    def fetch(m1, n1, m2, n2):
        def idx(k, size):
            # odd reflection maps -1 -> mirror with sign through the border
            return k
        coords = (m1, n1, m2, n2)
        sizes = (M, N, M, N)
        # 1-D odd reflection per axis, value = 2*edge - inner
        val_idx = []
        weights = [(1.0, list(coords))]
        for ax, (c, s) in enumerate(zip(coords, sizes)):
            new_weights = []
            for wgt, cs in weights:
                cc = cs[ax]
                if 0 <= cc < s:
                    new_weights.append((wgt, cs))
                elif cc == -1:
                    c_a = list(cs); c_a[ax] = 0
                    c_b = list(cs); c_b[ax] = 1
                    new_weights.append((2.0 * wgt, c_a))
                    new_weights.append((-1.0 * wgt, c_b))
                elif cc == s:
                    c_a = list(cs); c_a[ax] = s - 1
                    c_b = list(cs); c_b[ax] = s - 2
                    new_weights.append((2.0 * wgt, c_a))
                    new_weights.append((-1.0 * wgt, c_b))
                else:
                    raise AssertionError("oracle only supports r=1")
            weights = new_weights
        return sum(wgt * f4[tuple(cs)] for wgt, cs in weights)

    out = np.zeros((M, N, M, N))
    for m1 in range(M):
        for n1 in range(N):
            for m2 in range(M):
                for n2 in range(N):
                    acc = 0.0
                    for da in range(-r, r + 1):
                        for db in range(-r, r + 1):
                            acc += fetch(m1 + da, n1 + db, m2 + da, n2 + db)
                    out[m1, n1, m2, n2] = acc / (q * q)
    return out.reshape(M * N, M * N)


class TestPatchAggregate:
    def test_constant_interior(self):
        M, N, q = 6, 6, 3
        field = np.full((36, 36), 2.5)
        out = patch_aggregate(field, (M, N), q)
        center = 2 * N + 2  # interior pixel (2, 2)
        assert abs(out[center, center] - 2.5) < 1e-12

    def test_extrapolate_preserves_constants_everywhere(self):
        field = np.full((16, 16), 3.0)
        out = patch_aggregate(field, (4, 4), 3)
        assert np.abs(out - 3.0).max() < 1e-12

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(8)
        M, N = 3, 4
        field = rng.standard_normal((M * N, M * N))
        field = field + field.T
        fast = patch_aggregate(field, (M, N), 3)
        slow = _naive_patch_aggregate(field, (M, N), 3)
        assert np.abs(fast - slow).max() < 1e-12

    def test_identity_supported_field(self):
        # spike at an interior pixel pair spreads over its q x q diagonal
        M, N, q = 6, 6, 3
        P = M * N
        field = np.zeros((P, P))
        i = 2 * N + 2
        j = 3 * N + 3
        field[i, j] = field[j, i] = 1.0
        out = patch_aggregate(field, (M, N), q)
        support = np.argwhere(out != 0)
        for a, bidx in support:
            am, an = divmod(int(a), N)
            bm, bn = divmod(int(bidx), N)
            # diagonal neighborhood: same displacement as (i, j) or (j, i)
            assert (bm - am, bn - an) in ((1, 1), (-1, -1))
            assert abs(am - 2) <= 1 or abs(am - 3) <= 1
        assert len(support) == 2 * q * q

    def test_q1_identity(self):
        field = np.arange(16.0).reshape(4, 4) @ np.ones((4, 4))
        out = patch_aggregate(field, (2, 2), 1)
        assert np.array_equal(out, field)

    def test_validation(self):
        with pytest.raises(ValueError):
            patch_aggregate(np.zeros((4, 4)), (2, 2), 2)
        with pytest.raises(ValueError):
            patch_aggregate(np.zeros((4, 5)), (2, 2), 3)


def _random_prior(rng, M=12, N=14):
    mask = rng.random((M, N)) < 0.3
    mask[0, 0] = True  # at least one pilot
    vals = np.where(mask, rng.standard_normal((M, N))
                    + 1j * rng.standard_normal((M, N)), 0)
    return value_prior(SparseChannelEstimate(vals, mask))


class TestBuildPrior:
    """Edge cases of the one prior builder, `build_estimation_prior`."""

    def test_single_row_coordinate_zero(self):
        mask = np.ones((1, 4), bool)
        prior = build_estimation_prior(SparseChannelEstimate(np.ones((1, 4), complex), mask))
        assert np.all(prior.planes[1] == 0.0)

    def test_empty_pilots_error(self):
        mask = np.zeros((2, 2), bool)
        with pytest.raises(ValueError, match="pilot"):
            build_estimation_prior(SparseChannelEstimate(np.zeros((2, 2), complex), mask))


def test_build_estimation_prior_planes():
    mask = np.zeros((4, 4), bool)
    mask[::2, ::2] = True
    w = PriorWeights(mask=0.25, row=2.0, col=3.0, bias=10.0)
    prior = build_estimation_prior(SparseChannelEstimate(np.where(mask, 1.0 - 2.0j, 0), mask), w)
    assert prior.n_channels == 4
    assert np.array_equal(prior.planes[0], 0.25 * mask)
    row_plane, col_plane = np.meshgrid(np.arange(4) / 3, np.arange(4) / 3, indexing="ij")
    assert np.abs(prior.planes[1] - 2.0 * row_plane).max() < 1e-12
    assert np.abs(prior.planes[2] - 3.0 * col_plane).max() < 1e-12
    assert np.all(prior.planes[3] == 10.0)
    # same mask, different values: identical planes
    other = build_estimation_prior(SparseChannelEstimate(np.where(mask, -7.0 + 0.5j, 0), mask), w)
    assert np.array_equal(other.planes, prior.planes)


class TestComputeCntk:
    def test_depth1_identity_activation_collapses(self):
        # L=1, q=1, a=b=1: Theta = 2 * Sigma0
        rng = np.random.default_rng(2)
        basis = rng.standard_normal((1, 3, 3))
        prior = PriorTensor(basis)
        cfg = CntkConfig(depth=1, filter_size=1, neg_slope=1.0)
        K = compute_cntk(prior, cfg)
        A = basis.reshape(1, 9)
        sigma0 = A.T @ A
        assert np.abs(K.gram - 2 * sigma0).max() < 1e-12

    def test_symmetry_and_psd_random_priors(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            prior = _random_prior(rng)
            K = compute_cntk(prior).gram
            scale = np.abs(K).max()
            assert np.abs(K - K.T).max() <= 1e-10 * scale
            eigs = np.linalg.eigvalsh(K)
            assert eigs[0] >= -1e-8 * np.trace(K) / K.shape[0]
            assert np.diag(K).min() > 0

    def test_scale_equivariance_identity_slopes(self):
        rng = np.random.default_rng(4)
        prior = _random_prior(rng, 6, 5)
        cfg = CntkConfig(depth=3, neg_slope=1.0)
        K1 = compute_cntk(prior, cfg).gram
        scaled = PriorTensor(prior.planes * 3.0)
        K2 = compute_cntk(scaled, cfg).gram
        assert np.abs(K2 - 9.0 * K1).max() <= 1e-10 * np.abs(K2).max()

    def test_constant_prior_stationarity(self):
        # constant planes + extrapolation padding: every pixel pair is
        # equivalent, so the gram is a constant matrix
        planes = np.ones((2, 5, 6))
        K = compute_cntk(PriorTensor(planes), CntkConfig(depth=4)).gram
        assert np.abs(K - K[0, 0]).max() <= 1e-10 * abs(K[0, 0])

    def test_dual_grid_agreement_with_oracle(self):
        # spot a coarse rho x variance grid; the full grid runs in acceptance
        for lam11, lam22 in ((1.0, 1.0), (4.0, 1.0), (0.25, 9.0)):
            for rho in (-1.0, -0.5, 0.0, 0.5, 1.0):
                lam12 = rho * np.sqrt(lam11 * lam22)
                s, sd = leaky_relu_duals(lam11, lam22, lam12, 0.05, 1.0)
                s_mc, sd_mc, se_s, se_sd = mc_dual_oracle(
                    lam11, lam22, lam12, 0.05, 1.0, 200_000, seed=int(10 * rho) + 50)
                assert abs(s - s_mc) <= max(3 * se_s, 1e-9)
                assert abs(sd - sd_mc) <= max(3 * se_sd, 1e-9)


def test_normalize_kernel_unit_diagonal():
    rng = np.random.default_rng(5)
    prior = _random_prior(rng, 6, 5)
    K = compute_cntk(prior)
    Kn = normalize_kernel(K)
    assert np.abs(np.diag(Kn.gram) - 1.0).max() < 1e-12
    eigs = np.linalg.eigvalsh(Kn.gram)
    assert eigs[0] >= -1e-10 * Kn.gram.shape[0]


def test_cntk_config_validation():
    with pytest.raises(ValueError):
        CntkConfig(depth=0)
    with pytest.raises(ValueError):
        CntkConfig(filter_size=2)
    with pytest.raises(ValueError):
        CntkConfig(neg_slope=2.0)
    with pytest.raises(ValueError):
        CntkConfig(neg_slope=-0.1)
    assert CntkConfig().fingerprint() == "L8q3a0.05"


def test_finite_width_ntk_relative_error():
    # the cosine of acceptance criterion 3 is blind to the kernel's scale and
    # to a missing layer's term; the relative Frobenius error sees both
    rng = np.random.default_rng(11)
    M = N = 4
    mask = np.zeros((M, N), bool)
    mask[[0, 1, 2, 3, 0, 2], [0, 2, 1, 3, 3, 3]] = True
    vals = np.where(mask, rng.standard_normal((M, N))
                    + 1j * rng.standard_normal((M, N)), 0)
    prior = value_prior(SparseChannelEstimate(vals, mask))
    cfg = CntkConfig(depth=2, filter_size=3, neg_slope=0.05)
    analytic = compute_cntk(prior, cfg).gram
    empirical = empirical_ntk(prior.planes, q=3, width=512, n_init=20, seed=0,
                              neg_slope=0.05, pos_slope=1.0)
    rel = np.linalg.norm(empirical - analytic) / np.linalg.norm(analytic)
    assert rel <= 0.1
