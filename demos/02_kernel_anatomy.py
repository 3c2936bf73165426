"""Inspect the coordinate kernel of one resource block.

Builds the estimator's prior feature planes from a sparse pilot image, runs
the closed-form kernel recursion, and looks at what the Gram matrix encodes:
pixel energies, correlation vs. displacement, and positive
semi-definiteness. Also exports the estimator's kernel as CSV, mirroring
the `channel-cntk kernel-dump` subcommand.
"""

import numpy as np

from channel_cntk import (
    NoiseSpec,
    compute_cntk,
    default_profile,
    estimation_smoother,
    generate_channel,
    ls_estimate,
    make_qpsk_grid,
    preset_pattern,
    transmit,
)
from channel_cntk.cntk import build_estimation_prior

M, N = 12, 14  # one resource block

channel = generate_channel(default_profile(seed=5), M, N)
tx = make_qpsk_grid(M, N, seed=6)
rx = transmit(channel, tx, NoiseSpec(20.0, seed=7))
pattern = preset_pattern("dense", M, N)
sparse = ls_estimate(rx, tx, pattern)

# weighted mask, coordinate and bias planes only, so the kernel is fixed
# by the pilot layout and ignores the pilot values
prior = build_estimation_prior(sparse)
print(f"estimation prior: {prior.n_channels} planes "
      f"(mask, row coord, col coord, bias)")

kernel = compute_cntk(prior)
P = M * N
eigs = np.linalg.eigvalsh(kernel.gram)
print(f"kernel: {P}x{P}, trace/P = {np.trace(kernel.gram) / P:.4f}, "
      f"min eig = {eigs[0]:.2e} (PSD)")
print(f"symmetry defect: {np.abs(kernel.gram - kernel.gram.T).max():.2e}\n")

# correlation against displacement from a center pixel, on the estimator's
# kernel: the same recursion, normalized to unit diagonal
norm = estimation_smoother(sparse, 0).kernel.gram
center = (M // 2) * N + N // 2
corr_row = [norm[center, (M // 2 + d) * N + N // 2] for d in range(0, 5)]
corr_col = [norm[center, (M // 2) * N + N // 2 + d] for d in range(0, 5)]
print("estimation-kernel correlation vs displacement (from grid center):")
print("  along subcarriers:", " ".join(f"{c:.4f}" for c in corr_row))
print("  along symbols:    ", " ".join(f"{c:.4f}" for c in corr_col))
print("(the column axis decays faster: Doppler decorrelates time "
      "more quickly than delay spread decorrelates frequency)\n")

np.savetxt("demo02_kernel.csv", norm, fmt="%.17g", delimiter=",")
print(f"wrote demo02_kernel.csv ({P}x{P}, 17 significant digits)")
