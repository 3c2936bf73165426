"""Impute a full slot with every estimator and compare NMSE.

Runs the kernel imputer block by block over a 360 x 14 slot next to the
classical interpolators, on the same noisy observation, and reports the
per-method NMSE and wall time.
"""

import time

import numpy as np

from channel_cntk import (
    NoiseSpec,
    auto_ridge,
    default_profile,
    estimate_channel_cntk,
    generate_channel,
    knn_interpolate,
    linear_interpolate,
    ls_estimate,
    make_qpsk_grid,
    nearest_interpolate,
    nmse_db,
    preset_pattern,
    transmit,
)

M, N = 360, 14
SNR_DB = 10.0

channel = generate_channel(default_profile(seed=17), M, N)
tx = make_qpsk_grid(M, N, seed=18)
rx = transmit(channel, tx, NoiseSpec(SNR_DB, seed=19))
pattern = preset_pattern("dense", M, N)
sparse = ls_estimate(rx, tx, pattern)

print(f"slot {M}x{N}, {pattern.n_pilots} pilots, SNR {SNR_DB:.0f} dB")
print(f"kernel ridge (noise-matched): {auto_ridge(SNR_DB):g}\n")

results = {}
t0 = time.perf_counter()
imputed = estimate_channel_cntk(sparse, ridge=auto_ridge(SNR_DB))
results["cntk"] = (imputed.h_hat, time.perf_counter() - t0)

for name, fn in (("nearest", nearest_interpolate),
                 ("knn", lambda s: knn_interpolate(s, 4)),
                 ("linear", linear_interpolate)):
    t0 = time.perf_counter()
    results[name] = (fn(sparse), time.perf_counter() - t0)

print(f"{'method':>8s} {'NMSE dB':>9s} {'time s':>8s}")
for name, (h_hat, dt) in results.items():
    print(f"{name:>8s} {nmse_db(channel.h, h_hat):9.2f} {dt:8.3f}")

worst_block = max(imputed.diagnostics, key=lambda d: d.solve_s + d.kernel_s)
print(f"\nslowest mask group: smoother {worst_block.kernel_s * 1e3:.2f} ms "
      f"(kernel build and eigendecomposition, or a cache hit), "
      f"apply {worst_block.solve_s * 1e3:.2f} ms "
      f"(group of block {worst_block.block_index}, cond {worst_block.condition:.1f})")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, axes = plt.subplots(1, len(results) + 1, figsize=(15, 4))
    axes[0].imshow(np.abs(channel.h[:60]), aspect="auto", cmap="viridis")
    axes[0].set_title("|H| true")
    for ax, (name, (h_hat, _)) in zip(axes[1:], results.items()):
        ax.imshow(np.abs(h_hat[:60]), aspect="auto", cmap="viridis")
        ax.set_title(f"{name}: {nmse_db(channel.h, h_hat):.1f} dB")
    fig.tight_layout()
    fig.savefig("demo03_estimates.png", dpi=110)
    print("wrote demo03_estimates.png (first 5 resource blocks)")
except ImportError:
    print("matplotlib not available; skipping figure")
