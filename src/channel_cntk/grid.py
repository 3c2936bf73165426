"""Resource-grid data model, pilot patterns, and least-squares pilot extraction.

Dimension convention, fixed repo-wide: rows are subcarriers (index m),
columns are OFDM symbols (index n).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: 5G-NR-like defaults: 15 kHz subcarrier spacing, 14 symbols per 1 ms slot.
DEFAULT_SUBCARRIER_SPACING_HZ = 15e3
DEFAULT_SYMBOL_DURATION_S = 1.0 / 14000.0

#: A resource block spans 12 subcarriers (all N symbols).
SUBCARRIERS_PER_RB = 12

#: Pilot symbols with magnitude below this are treated as a data error.
EPS_DIV = 1e-12


def _locked(arr: np.ndarray, dtype) -> np.ndarray:
    """Return a C-contiguous read-only copy; instances share no mutable state."""
    out = np.array(arr, dtype=dtype, order="C", copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class ResourceGrid:
    """Complex M x N time-frequency grid (transmit, receive, or channel role).

    Parameters
    ----------
    data : complex ndarray, shape (M, N)
        Per-cell complex values. Must be finite everywhere.
    subcarrier_spacing_hz : float
        Frequency step between adjacent rows, > 0.
    symbol_duration_s : float
        Time step between adjacent columns, > 0.
    """

    data: np.ndarray
    subcarrier_spacing_hz: float = DEFAULT_SUBCARRIER_SPACING_HZ
    symbol_duration_s: float = DEFAULT_SYMBOL_DURATION_S

    def __post_init__(self):
        data = np.asarray(self.data)
        if data.ndim != 2 or data.shape[0] < 1 or data.shape[1] < 1:
            raise ValueError(f"grid data must be a 2-D matrix, got shape {data.shape}")
        data = _locked(data, np.complex128)
        if not np.all(np.isfinite(data.real)) or not np.all(np.isfinite(data.imag)):
            raise ValueError("grid entries must be finite (no NaN/Inf)")
        if not (self.subcarrier_spacing_hz > 0):
            raise ValueError("subcarrier_spacing_hz must be positive")
        if not (self.symbol_duration_s > 0):
            raise ValueError("symbol_duration_s must be positive")
        object.__setattr__(self, "data", data)

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape


@dataclass(frozen=True)
class PilotPattern:
    """Lattice pilot layout: a pilot sits at (m, n) iff
    (m - sc_offset) % sc_spacing == 0 and (n - sym_offset) % sym_spacing == 0.
    """

    sc_spacing: int
    sym_spacing: int
    sc_offset: int
    sym_offset: int
    mask: np.ndarray  # bool, shape (M, N)

    def __post_init__(self):
        object.__setattr__(self, "mask", _locked(self.mask, bool))

    @property
    def shape(self) -> tuple[int, int]:
        return self.mask.shape

    @property
    def n_pilots(self) -> int:
        return int(self.mask.sum())

    @property
    def pilots_per_rb(self) -> int:
        """Pilot count inside the first resource block (12 subcarriers x N symbols)."""
        return int(self.mask[:SUBCARRIERS_PER_RB, :].sum())


@dataclass(frozen=True)
class SparseChannelEstimate:
    """Per-cell channel values known only at masked cells; zero elsewhere."""

    values: np.ndarray  # complex, shape (M, N)
    mask: np.ndarray  # bool, shape (M, N)

    def __post_init__(self):
        values = _locked(self.values, np.complex128)
        mask = _locked(self.mask, bool)
        if values.shape != mask.shape:
            raise ValueError("values and mask shapes differ")
        if np.any(values[~mask] != 0):
            raise ValueError("values must be zero outside the mask")
        if not np.all(np.isfinite(values)):
            raise ValueError("pilot values must be finite (no NaN/Inf)")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "mask", mask)

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    @property
    def n_pilots(self) -> int:
        return int(self.mask.sum())


def make_pilot_pattern(M: int, N: int, sc_spacing: int, sym_spacing: int,
                       sc_offset: int = 0, sym_offset: int = 0) -> PilotPattern:
    """Build a lattice pilot pattern on an M x N grid.

    Raises ValueError when a spacing/offset precondition fails or when the
    resulting pattern carries fewer than two pilots (too few for regression).
    """
    if M < 1 or N < 1:
        raise ValueError("grid dimensions must be >= 1")
    if sc_spacing < 1 or sym_spacing < 1:
        raise ValueError(f"invalid spacing ({sc_spacing}, {sym_spacing}): spacings must be >= 1")
    if not (0 <= sc_offset < sc_spacing) or not (0 <= sym_offset < sym_spacing):
        raise ValueError("offsets must satisfy 0 <= offset < spacing")
    m = np.arange(M)[:, None]
    n = np.arange(N)[None, :]
    mask = ((m - sc_offset) % sc_spacing == 0) & ((n - sym_offset) % sym_spacing == 0)
    if mask.sum() < 2:
        raise ValueError("pattern yields fewer than 2 pilots")
    return PilotPattern(sc_spacing, sym_spacing, sc_offset, sym_offset, mask)


#: Named presets keyed by pilots-per-resource-block target (verified at build).
PATTERN_PRESETS: dict[str, tuple[int, int, int]] = {
    # name: (sc_spacing, sym_spacing, pilots per 12 x 14 resource block)
    "dense": (2, 4, 24),
    "medium": (3, 4, 16),
    "sparse": (4, 4, 12),
}


def preset_pattern(name: str, M: int, N: int) -> PilotPattern:
    """Build a named pilot-density preset and verify its per-RB pilot count.

    A preset that misses its target count on the requested grid is a
    configuration error, not a silent approximation.
    """
    try:
        sc_spacing, sym_spacing, target = PATTERN_PRESETS[name]
    except KeyError:
        raise ValueError(
            f"unknown pattern preset {name!r}; valid presets: {sorted(PATTERN_PRESETS)}"
        ) from None
    pattern = make_pilot_pattern(M, N, sc_spacing, sym_spacing)
    if pattern.pilots_per_rb != target:
        raise ValueError(
            f"preset {name!r} produced {pattern.pilots_per_rb} pilots per resource block "
            f"on a {M}x{N} grid, expected {target}"
        )
    return pattern


def ls_estimate(received: ResourceGrid, transmitted: ResourceGrid,
                pattern: PilotPattern) -> SparseChannelEstimate:
    """Least-squares channel extraction at pilot cells: values = Y / X on the mask.

    Elementwise complex division; cells off the mask are zero. Raises
    ValueError if any pilot's transmitted symbol has magnitude below EPS_DIV.
    """
    if received.shape != transmitted.shape or received.shape != pattern.shape:
        raise ValueError("received, transmitted, and pattern dimensions must match")
    mask = pattern.mask
    x = transmitted.data[mask]
    if np.any(np.abs(x) < EPS_DIV):
        raise ValueError("transmitted symbol magnitude below EPS_DIV at a pilot cell")
    values = np.zeros(received.shape, dtype=np.complex128)
    values[mask] = received.data[mask] / x
    return SparseChannelEstimate(values, mask)
