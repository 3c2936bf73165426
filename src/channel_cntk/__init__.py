"""OFDM channel estimation from sparse pilots via a convolutional NTK.

The library simulates tapped-delay-line fading channels on a time-frequency
resource grid, extracts least-squares channel values at lattice pilot
positions, and imputes the full grid with kernel ridge regression under a
closed-form convolutional neural tangent kernel. Classical interpolators
(nearest, KNN, separable linear) and an NMSE sweep harness are included for
benchmarking.
"""

from .baselines import knn_interpolate, linear_interpolate, nearest_interpolate
from .chansim import (
    ChannelRealization,
    NoiseSpec,
    TdlProfile,
    default_profile,
    derive_seed,
    generate_channel,
    make_qpsk_grid,
    transmit,
)
from .cntk import (
    CntkConfig,
    CoordinateKernel,
    PriorWeights,
    compute_cntk,
    normalize_kernel,
)
from .evaluate import (
    METHOD_TAGS,
    SweepResult,
    SweepRow,
    make_method,
    nmse_db,
    run_sweep,
)
from .grid import (
    PATTERN_PRESETS,
    PilotPattern,
    ResourceGrid,
    SparseChannelEstimate,
    ls_estimate,
    make_pilot_pattern,
    preset_pattern,
)
from .imputer import (
    ImputedChannel,
    SpectralSmoother,
    auto_ridge,
    estimate_channel_cntk,
    estimation_smoother,
    kernel_regress,
    spectral_smoother,
)

__version__ = "0.1.0"

__all__ = [
    "ChannelRealization",
    "CntkConfig",
    "CoordinateKernel",
    "ImputedChannel",
    "METHOD_TAGS",
    "NoiseSpec",
    "PATTERN_PRESETS",
    "PilotPattern",
    "PriorWeights",
    "ResourceGrid",
    "SparseChannelEstimate",
    "SpectralSmoother",
    "SweepResult",
    "SweepRow",
    "TdlProfile",
    "auto_ridge",
    "compute_cntk",
    "default_profile",
    "derive_seed",
    "estimate_channel_cntk",
    "estimation_smoother",
    "generate_channel",
    "kernel_regress",
    "knn_interpolate",
    "linear_interpolate",
    "ls_estimate",
    "make_method",
    "make_pilot_pattern",
    "make_qpsk_grid",
    "nearest_interpolate",
    "nmse_db",
    "normalize_kernel",
    "preset_pattern",
    "run_sweep",
    "spectral_smoother",
    "transmit",
]
