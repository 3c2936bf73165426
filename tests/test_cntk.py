"""Tests for the kernel recursion: duals, patch aggregation, prior, kernel."""

import numpy as np
import pytest

from channel_cntk import (
    CntkConfig,
    CoordinateKernel,
    PriorWeights,
    SparseChannelEstimate,
    cntk,
    compute_cntk,
    estimate_channel_cntk,
    imputer,
    normalize_kernel,
    preset_pattern,
)
from channel_cntk.cntk import (
    PriorTensor,
    build_estimation_prior,
    leaky_relu_duals,
    patch_aggregate,
)

import cntk_reference as reference
from dual_oracle import mc_dual_oracle
from estimator_caches import clear_estimator_caches
from ntk_finite_width import empirical_ntk
from value_prior import value_prior


class TestLeakyReluDuals:
    def test_unit_correlated(self):
        # E[act(u)^2] = (a^2 + b^2)/2 for standard normal u
        s, sd = leaky_relu_duals(1, 1, 1, 0.05)
        assert abs(s - 0.50125) < 1e-12
        assert abs(sd - 0.50125) < 1e-12

    def test_identity_activation(self):
        s, sd = leaky_relu_duals(1, 1, 1, 1.0)
        assert abs(s - 1.0) < 1e-12
        assert abs(sd - 1.0) < 1e-12

    def test_independent_inputs(self):
        # kappa0(0) = 1/2: sigma_dot = 0.05 + 0.9025/4
        _, sd = leaky_relu_duals(1, 1, 0, 0.05)
        assert abs(sd - 0.275625) < 1e-12

    def test_anticorrelated_relu(self):
        s, sd = leaky_relu_duals(1, 1, -1, 0.0)
        assert abs(s) < 1e-12
        assert abs(sd) < 1e-12

    def test_degenerate_variance_branch(self):
        s, sd = leaky_relu_duals(0.0, 5.0, 0.0, 0.05)
        assert s == 0.0
        assert abs(sd - (0.05 + 0.9025 / 4)) < 1e-12

    def test_covariance_validity_error(self):
        with pytest.raises(ValueError, match="covariance"):
            leaky_relu_duals(1, 1, 1.1, 0.05)
        with pytest.raises(ValueError):
            leaky_relu_duals(-1, 1, 0, 0.05)

    def test_matches_monte_carlo_spot(self):
        s, sd = leaky_relu_duals(1, 1, 0.5, 0.05)
        s_mc, sd_mc, se_s, se_sd = mc_dual_oracle(1, 1, 0.5, 0.05, 1.0,
                                                  1_000_000, seed=77)
        assert abs(s - s_mc) <= 3 * se_s
        assert abs(sd - sd_mc) <= 3 * se_sd

    def test_array_broadcast(self):
        lam = np.array([[1.0, 0.5], [0.5, 1.0]])
        d = np.diag(lam)
        s, sd = leaky_relu_duals(d[:, None], d[None, :], lam, 0.05)
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
                s, sd = leaky_relu_duals(lam11, lam22, lam12, 0.05)
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


# The fast stages against the direct forms in cntk_reference. They differ only
# in summation order and in how the dual's constants are grouped, so the
# tolerances are a few hundred float64 ulps, fixed from that and not from the
# measured differences: 1e-13 relative per aggregation or dual, 1e-9 on the
# normalized kernel after 8 layers, 1e-9 relative on the estimates.

@pytest.mark.parametrize("q", [1, 3, 5, 7])
@pytest.mark.parametrize("dims", [(1, 1), (1, 4), (4, 1), (2, 2), (2, 5), (5, 2), (3, 4), (6, 5)])
def test_patch_aggregate_matches_np_pad_reference(dims, q):
    # 1-wide axes take np.pad's edge mode; q//2 >= L reflects repeatedly
    rng = np.random.default_rng(100 * dims[0] + 10 * dims[1] + q)
    P = dims[0] * dims[1]
    field = rng.standard_normal((P, P))
    fast = patch_aggregate(field, dims, q)
    ref = reference.patch_aggregate(field, dims, q)
    assert np.abs(fast - ref).max() <= 1e-13 * np.abs(ref).max()


def test_leaky_relu_duals_match_reference_scalars():
    cases = [(1, 1, 1), (1, 1, 0), (1, 1, -1), (4, 1, 0.3), (0.25, 9, -1.5),
             (2, 3, 2.449489742783178), (0, 5, 0), (1e-20, 1e-20, 1e-20), (1, 1, 1 + 5e-9)]
    for lam11, lam22, lam12 in cases:
        for a in (0.0, 0.05, 0.5, 1.0):
            got = leaky_relu_duals(lam11, lam22, lam12, a)
            want = reference.leaky_relu_duals(lam11, lam22, lam12, a, 1.0)
            assert all(type(x) is float for x in got)
            assert abs(got[0] - want[0]) <= 1e-13 * max(np.sqrt(lam11 * lam22), 1e-300)
            assert abs(got[1] - want[1]) <= 1e-13
            if lam11 * lam22 < cntk.EPS_RHO ** 2:
                assert got[0] == 0.0


def test_leaky_relu_duals_match_reference_broadcast():
    # a pixel-pair covariance with zero-energy pixels, as compute_cntk passes it,
    # and mixed broadcast shapes
    rng = np.random.default_rng(31)
    A = rng.standard_normal((40, 5))
    A[[3, 17, 29]] = 0.0  # degenerate pixels
    cov = A @ A.T
    d = np.diag(cov).copy()
    inputs = [(d[:, None], d[None, :], cov),
              (d, 2.0, 0.5 * np.sqrt(2.0 * d)),
              (np.full((3, 1), 4.0), np.array([1.0, 0.0, 9.0]), np.array([[1.0, 0.0, -5.0]]))]
    for lam11, lam22, lam12 in inputs:
        got_s, got_sd = leaky_relu_duals(lam11, lam22, lam12, 0.05)
        want_s, want_sd = reference.leaky_relu_duals(lam11, lam22, lam12, 0.05, 1.0)
        assert got_s.shape == want_s.shape == got_sd.shape
        scale = np.sqrt(np.asarray(lam11) * np.asarray(lam22)).max()
        assert np.abs(got_s - want_s).max() <= 1e-13 * scale
        assert np.abs(got_sd - want_sd).max() <= 1e-13
    degenerate = np.zeros(cov.shape, bool)
    degenerate[[3, 17, 29]] = degenerate[:, [3, 17, 29]] = True
    s, sd = leaky_relu_duals(d[:, None], d[None, :], cov, 0.05)
    assert np.all(s[degenerate] == 0.0)
    assert np.abs(sd[degenerate] - (0.05 + 0.9025 / 4)).max() <= 1e-15


def test_leaky_relu_duals_leave_inputs_unchanged():
    rng = np.random.default_rng(32)
    A = rng.standard_normal((10, 3))
    cov = A @ A.T
    d = np.diag(cov).copy()
    before = (d.copy(), cov.copy())
    leaky_relu_duals(d[:, None], d[None, :], cov, 0.05)
    assert np.array_equal(d, before[0]) and np.array_equal(cov, before[1])


def _estimation_masks(rows):
    """Dense preset, sparse preset and a random mask with a pilot in every band."""
    rng = np.random.default_rng(rows)
    random = rng.random((rows, 14)) < 0.15
    random[::12, 0] = True
    return {"dense": preset_pattern("dense", rows, 14).mask,
            "sparse": preset_pattern("sparse", rows, 14).mask,
            "random": random}


@pytest.mark.parametrize("rows", [12, 36])
def test_normalized_kernel_matches_reference_recursion(rows):
    for name, mask in _estimation_masks(rows).items():
        prior = build_estimation_prior(SparseChannelEstimate(np.zeros(mask.shape), mask))
        fast = normalize_kernel(compute_cntk(prior)).gram
        ref = reference.compute_cntk(prior)
        d = np.sqrt(np.diag(ref))
        assert np.abs(fast - ref / d[:, None] / d[None, :]).max() <= 1e-9, name


def _reference_kernel(prior, cfg=CntkConfig()):
    return CoordinateKernel(reference.compute_cntk(prior, cfg), prior.dims)


@pytest.mark.parametrize("ridge", [imputer.DEFAULT_RIDGE_REL, 0.0, 1e-3, 1e-1])
def test_estimates_match_reference_recursion(monkeypatch, ridge):
    rng = np.random.default_rng(33)
    slots = [SparseChannelEstimate(np.where(mask, rng.standard_normal(mask.shape)
                                            + 1j * rng.standard_normal(mask.shape), 0), mask)
             for mask in _estimation_masks(24).values()]
    clear_estimator_caches()
    fast = [estimate_channel_cntk(sp, ridge=ridge).h_hat for sp in slots]
    clear_estimator_caches()
    monkeypatch.setattr(imputer, "compute_cntk", _reference_kernel)
    try:
        ref = [estimate_channel_cntk(sp, ridge=ridge).h_hat for sp in slots]
    finally:
        clear_estimator_caches()
    for got, want in zip(fast, ref):
        assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max()


def test_compute_cntk_stage_calls_per_layer(monkeypatch):
    # per layer: two aggregations called as patch_aggregate(field, (M, N), q),
    # the form the benchmark's tracer reads, and one activation dual
    calls = {"patch_aggregate": [], "leaky_relu_duals": 0}
    aggregate, duals = cntk.patch_aggregate, cntk.leaky_relu_duals

    def counting_aggregate(*args, **kwargs):
        calls["patch_aggregate"].append((args[1:], kwargs))
        return aggregate(*args, **kwargs)

    def counting_duals(*args, **kwargs):
        calls["leaky_relu_duals"] += 1
        return duals(*args, **kwargs)

    monkeypatch.setattr(cntk, "patch_aggregate", counting_aggregate)
    monkeypatch.setattr(cntk, "leaky_relu_duals", counting_duals)
    cfg = CntkConfig(depth=5, filter_size=3)
    compute_cntk(PriorTensor(np.ones((2, 3, 4))), cfg)
    assert calls["patch_aggregate"] == [(((3, 4), 3), {})] * (2 * cfg.depth)
    assert calls["leaky_relu_duals"] == cfg.depth
