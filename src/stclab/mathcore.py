"""Numerical kernels shared by the whole simulator.

The one PSD Cholesky factorization, with its one jitter retry, for every
covariance the simulator factors (the Clarke Toeplitz matrix, the array
correlations, the Wiener design covariance), scipy's zeroth-order Bessel
function as ``bessel_j0``, and the two unit-energy constellations (QPSK,
16QAM), their points listed in order of their Gray bit patterns.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import j0 as bessel_j0

from .errors import InputError, NumericError

# Relative singular/eigenvalue threshold used for every rank decision.
RANK_TOL = 1e-9

# Relative diagonal jitter applied once when a PSD factorization fails.
CHOL_JITTER = 1e-12


def cholesky_psd(m, cholesky=np.linalg.cholesky):
    """Lower Cholesky factor of a PSD matrix, with one jitter retry.

    On factorization failure a diagonal jitter of CHOL_JITTER * trace/n is
    added once; a second failure raises NumericError.  Used for near-singular
    correlation matrices (e.g. the Clarke Toeplitz matrix at low Doppler).
    ``cholesky`` is the lower-factor routine; numpy's and scipy's LAPACK
    builds can differ in the last bits, so a caller that solves with scipy
    passes scipy's.
    """
    m = np.asarray(m)
    n = m.shape[0]
    try:
        return cholesky(m)
    except np.linalg.LinAlgError:
        pass
    jitter = CHOL_JITTER * np.real(np.trace(m)) / n
    try:
        return cholesky(m + jitter * np.eye(n))
    except np.linalg.LinAlgError:
        raise NumericError(
            f"matrix is not positive semidefinite (jitter {jitter:.3e} did not help)"
        ) from None


@dataclass(frozen=True)
class Constellation:
    """Unit-average-energy signal set; bit pattern p (an MSB-first integer)
    transmits ``points[p]``."""

    name: str
    points: np.ndarray
    bits_per_symbol: int

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=complex)
        object.__setattr__(self, "points", pts)
        size = 2 ** self.bits_per_symbol
        if pts.shape != (size,):
            raise InputError(f"{self.name}: expected {size} points, got {pts.shape}")
        energy = np.mean(np.abs(pts) ** 2)
        if abs(energy - 1.0) > 1e-12:
            raise InputError(f"{self.name}: mean energy {energy!r} != 1")

    @property
    def size(self):
        return self.points.shape[0]


def _make_qpsk():
    # Gray map {00, 01, 11, 10} -> angles {45, 135, -135, -45} degrees.
    # The point list is ordered by bit pattern.
    angles = {0b00: 45.0, 0b01: 135.0, 0b11: -135.0, 0b10: -45.0}
    points = np.zeros(4, dtype=complex)
    for pattern, deg in angles.items():
        points[pattern] = np.exp(1j * np.deg2rad(deg))
    return Constellation("QPSK", points, 2)


def _make_qam16():
    # Per-axis Gray levels: bit pair 00,01,11,10 -> -3,-1,+1,+3 before the
    # 1/sqrt(10) unit-energy scaling.  First two pattern bits select the real
    # axis, last two the imaginary axis.
    gray_level = {0b00: -3.0, 0b01: -1.0, 0b11: 1.0, 0b10: 3.0}
    points = np.zeros(16, dtype=complex)
    for pattern in range(16):
        i_level = gray_level[pattern >> 2]
        q_level = gray_level[pattern & 0b11]
        points[pattern] = (i_level + 1j * q_level) / np.sqrt(10.0)
    return Constellation("16QAM", points, 4)


QPSK = _make_qpsk()
QAM16 = _make_qam16()

CONSTELLATIONS = {"QPSK": QPSK, "16QAM": QAM16}


def bits_to_patterns(bits, bits_per_symbol):
    """Group a flat bit sequence into MSB-first integer patterns."""
    bits = np.asarray(bits, dtype=int)
    if bits.ndim != 1:
        raise InputError("bits must be a flat sequence")
    if np.any((bits != 0) & (bits != 1)):
        raise InputError("bits must contain only 0 and 1")
    if bits.size % bits_per_symbol:
        raise InputError(
            f"bit count {bits.size} is not divisible by {bits_per_symbol}"
        )
    groups = bits.reshape(-1, bits_per_symbol)
    weights = 2 ** np.arange(bits_per_symbol - 1, -1, -1)
    return groups @ weights


def patterns_to_bits(patterns, bits_per_symbol):
    """Inverse of :func:`bits_to_patterns` (MSB first) along the last axis:
    (..., n) patterns give (..., n * bits_per_symbol) bits."""
    patterns = np.asarray(patterns, dtype=int)
    shifts = np.arange(bits_per_symbol - 1, -1, -1)
    bits = (patterns[..., None] >> shifts) & 1
    return bits.reshape(*patterns.shape[:-1], patterns.shape[-1] * bits_per_symbol)
