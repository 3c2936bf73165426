"""Synthetic channel generation and noisy OFDM observation synthesis.

The ground truth is a tapped-delay-line (TDL) channel: a sum of delayed
complex-Gaussian paths, each Doppler-shifted by f_D*cos(theta) with a
uniformly random arrival angle (Jakes model). Observations follow
Y = X .* H + Z with circular complex AWGN calibrated against the realized
signal power.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import (
    DEFAULT_SUBCARRIER_SPACING_HZ,
    DEFAULT_SYMBOL_DURATION_S,
    ResourceGrid,
    _locked,
)

_MASK64 = (1 << 64) - 1

#: Compact TDL-A-like profile: (delay seconds, power dB) per tap.
DEFAULT_TAPS: tuple[tuple[float, float], ...] = (
    (0.0, 0.0),
    (30e-9, -2.0),
    (150e-9, -4.0),
    (310e-9, -8.0),
    (710e-9, -16.0),
)
DEFAULT_DOPPLER_HZ = 300.0


def _splitmix64(x: int) -> int:
    """One splitmix64 step; the fixed 64-bit mixer behind seed derivation."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def derive_seed(seed: int, *indices: int) -> int:
    """Mix stream indices into a base seed.

    Parallel and serial generation of the same (seed, index) pairs produce
    identical realizations, so datasets are schedule-independent. The mix
    is a fold over the indices, so derive_seed(derive_seed(s, i), j) ==
    derive_seed(s, i, j) for any int seed s: the `simulate` command seeds
    `evaluate.simulate_cell` with derive_seed(seed, r) and so reads the
    streams derive_seed(seed, r, k) it always has.
    """
    h = seed & _MASK64
    for idx in indices:
        h = _splitmix64(h ^ _splitmix64(idx & _MASK64))
    return h


@dataclass(frozen=True)
class TdlProfile:
    """Tapped-delay-line profile; tap powers are normalized to unit total.

    taps: sequence of (delay_s, power_db); stored sorted by delay, >= 0,
    so tap order at construction does not matter.
    doppler_hz: maximum Doppler shift f_D >= 0.
    seed: base seed for the tap gains and arrival angles.
    """

    taps: tuple[tuple[float, float], ...]
    doppler_hz: float
    seed: int

    def __post_init__(self):
        taps = tuple(sorted((float(d), float(p)) for d, p in self.taps))
        if len(taps) == 0:
            raise ValueError("profile needs at least one tap")
        if taps[0][0] < 0:
            raise ValueError("tap delays must be non-negative")
        if self.doppler_hz < 0:
            raise ValueError("doppler_hz must be non-negative")
        total = sum(10.0 ** (p / 10.0) for _, p in taps)
        shift_db = 10.0 * math.log10(total)
        taps = tuple((d, p - shift_db) for d, p in taps)
        object.__setattr__(self, "taps", taps)
        object.__setattr__(self, "doppler_hz", float(self.doppler_hz))

    @property
    def delays_s(self) -> np.ndarray:
        return np.array([d for d, _ in self.taps])

    @property
    def powers_linear(self) -> np.ndarray:
        return np.array([10.0 ** (p / 10.0) for _, p in self.taps])


def default_profile(seed: int) -> TdlProfile:
    return TdlProfile(DEFAULT_TAPS, DEFAULT_DOPPLER_HZ, seed)


@dataclass(frozen=True)
class NoiseSpec:
    """Receiver noise: target SNR in dB (math.inf means noiseless) plus a seed."""

    snr_db: float
    seed: int

    def __post_init__(self):
        if math.isnan(self.snr_db):
            raise ValueError("snr_db must not be NaN")


@dataclass(frozen=True)
class ChannelRealization:
    """One drawn channel response h (M x N) with its generating parameters."""

    h: np.ndarray
    profile: TdlProfile
    subcarrier_spacing_hz: float
    symbol_duration_s: float

    def __post_init__(self):
        h = _locked(self.h, np.complex128)
        if not np.all(np.isfinite(h.real)) or not np.all(np.isfinite(h.imag)):
            raise ValueError("channel entries must be finite")
        object.__setattr__(self, "h", h)

    @property
    def shape(self) -> tuple[int, int]:
        return self.h.shape


def tdl_response(gains: np.ndarray, delays_s: np.ndarray, dopplers_hz: np.ndarray,
                 M: int, N: int, subcarrier_spacing_hz: float,
                 symbol_duration_s: float) -> np.ndarray:
    """Deterministic TDL frequency response for given per-tap gains and Dopplers.

    h[m, n] = sum_p g_p * exp(-i 2 pi m df tau_p) * exp(+i 2 pi nu_p n T_sym)
    """
    m = np.arange(M)[:, None]
    n = np.arange(N)[None, :]
    h = np.zeros((M, N), dtype=np.complex128)
    for g, tau, nu in zip(gains, delays_s, dopplers_hz):
        freq_phase = np.exp(-2j * np.pi * (m * subcarrier_spacing_hz) * tau)
        time_phase = np.exp(2j * np.pi * nu * (n * symbol_duration_s))
        h += g * (freq_phase * time_phase)
    return h


def generate_channel(profile: TdlProfile, M: int, N: int,
                     subcarrier_spacing_hz: float = DEFAULT_SUBCARRIER_SPACING_HZ,
                     symbol_duration_s: float = DEFAULT_SYMBOL_DURATION_S) -> ChannelRealization:
    """Draw one TDL channel realization, deterministic given profile.seed.

    Tap gains are zero-mean complex Gaussian with variance equal to the tap's
    linear power; per-tap Doppler is f_D*cos(theta) with theta uniform on
    [0, 2 pi).
    """
    if M < 1 or N < 1:
        raise ValueError("grid dimensions must be >= 1")
    if subcarrier_spacing_hz <= 0 or symbol_duration_s <= 0:
        raise ValueError("grid spacings must be positive")
    rng = np.random.default_rng(derive_seed(profile.seed))
    n_taps = len(profile.taps)
    powers = profile.powers_linear
    gains = np.sqrt(powers / 2.0) * (rng.standard_normal(n_taps)
                                     + 1j * rng.standard_normal(n_taps))
    angles = rng.uniform(0.0, 2.0 * np.pi, size=n_taps)
    dopplers = profile.doppler_hz * np.cos(angles)
    h = tdl_response(gains, profile.delays_s, dopplers, M, N,
                     subcarrier_spacing_hz, symbol_duration_s)
    return ChannelRealization(h, profile, subcarrier_spacing_hz, symbol_duration_s)


def make_qpsk_grid(M: int, N: int, seed: int,
                   subcarrier_spacing_hz: float = DEFAULT_SUBCARRIER_SPACING_HZ,
                   symbol_duration_s: float = DEFAULT_SYMBOL_DURATION_S) -> ResourceGrid:
    """Unit-modulus QPSK transmit grid: entries uniform over {(+-1 +-i)/sqrt(2)}."""
    if M < 1 or N < 1:
        raise ValueError("grid dimensions must be >= 1")
    rng = np.random.default_rng(derive_seed(seed))
    c = 1.0 / math.sqrt(2.0)
    constellation = np.array([c + c * 1j, c - c * 1j, -c + c * 1j, -c - c * 1j])
    data = constellation[rng.integers(0, 4, size=(M, N))]
    return ResourceGrid(data, subcarrier_spacing_hz, symbol_duration_s)


def transmit(channel: ChannelRealization, symbols: ResourceGrid,
             noise: NoiseSpec) -> ResourceGrid:
    """Synthesize the received grid Y = X .* H + Z.

    Z is i.i.d. circular complex Gaussian with variance
    E|X.*H|^2 / 10^(snr_db/10), measured on the realized signal grid.
    An infinite snr_db returns Y = X .* H bit-exactly (no noise draw).
    """
    if channel.shape != symbols.shape:
        raise ValueError("channel and symbol grid dimensions must match")
    signal = symbols.data * channel.h
    if math.isinf(noise.snr_db) and noise.snr_db > 0:
        return ResourceGrid(signal, symbols.subcarrier_spacing_hz, symbols.symbol_duration_s)
    sig_power = float(np.mean(np.abs(signal) ** 2))
    noise_var = sig_power / (10.0 ** (noise.snr_db / 10.0))
    rng = np.random.default_rng(derive_seed(noise.seed))
    z = math.sqrt(noise_var / 2.0) * (rng.standard_normal(signal.shape)
                                      + 1j * rng.standard_normal(signal.shape))
    return ResourceGrid(signal + z, symbols.subcarrier_spacing_hz, symbols.symbol_duration_s)
