"""Reproduce the NMSE-vs-SNR benchmark on a reduced protocol.

Sweeps every estimator over a range of SNRs and two pilot densities with
shared channel realizations, writes the CSV and an x/y series file, and
prints the resulting curves. Increase `realizations` (and grid rows) for
smoother curves; the acceptance suite runs the full 20-realization,
360-row protocol.
"""

from channel_cntk import run_sweep

result = run_sweep(
    methods=["cntk", "linear", "knn", "nearest"],
    snr_list=[0.0, 10.0, 20.0, 30.0],
    patterns=["dense", "sparse"],
    realizations=5,
    seed=99,
    rows=120,  # 10 resource blocks keeps the demo quick
    cols=14,
    measure_time=False,  # the demo prints no timing, so its CSV is byte-reproducible
)

result.write_csv("demo04_sweep.csv")
with open("demo04_sweep_series.txt", "w", encoding="utf-8") as fh:
    fh.write(result.plot_series())
print("wrote demo04_sweep.csv and demo04_sweep_series.txt\n")

by_density = {}
for row in result.rows:
    by_density.setdefault(row.pilots_per_rb, {}).setdefault(
        row.method, []).append((row.snr_db, row.nmse_db))

for density, methods in sorted(by_density.items(), reverse=True):
    print(f"--- {density} pilots per resource block ---")
    snrs = sorted({s for pts in methods.values() for s, _ in pts})
    header = f"{'method':>8s} " + " ".join(f"{s:7.0f}dB" for s in snrs)
    print(header)
    for method, pts in methods.items():
        vals = dict(pts)
        print(f"{method:>8s} " + " ".join(f"{vals[s]:9.2f}" for s in snrs))
    print()

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, axes = plt.subplots(1, 2, figsize=(11, 4), sharey=True)
    for ax, (density, methods) in zip(axes, sorted(by_density.items(),
                                                   reverse=True)):
        for method, pts in methods.items():
            pts = sorted(pts)
            ax.plot([p[0] for p in pts], [p[1] for p in pts],
                    marker="o", label=method)
        ax.set_title(f"{density} pilots / resource block")
        ax.set_xlabel("SNR (dB)")
        ax.grid(True, alpha=0.3)
    axes[0].set_ylabel("NMSE (dB)")
    axes[0].legend()
    fig.tight_layout()
    fig.savefig("demo04_sweep.png", dpi=110)
    print("wrote demo04_sweep.png")
except ImportError:
    print("matplotlib not available; skipping figure")
