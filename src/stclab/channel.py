"""Correlated Rayleigh fading and the received-signal model.

Paths fade temporally per Clarke's model, autocorrelation J0(2 pi fD T m),
realized exactly by a Cholesky factor of the frame's Toeplitz correlation
matrix.  Spatial correlation follows the Kronecker model: a fading frame is
H(k) = A G(k) B^T with A, B the Cholesky factors of the receive / transmit
correlation matrices, so vec(H) (row-major) has covariance rrx kron rtx.
Correlation matrices come from array geometry: entry (m, n) is J0(2 pi d_mn)
with d_mn the element separation in wavelengths (isotropic scattering).

The received frame is Y(k) = H(k) sqrt(Es) X(k) + N(k) with independent
circular complex Gaussian noise of variance N0/2 per real dimension.

Shape conventions: a fading realization is an (nf, lr, lt) complex array and
a received frame an (nf, lr) one; the Es that produced it travels beside it.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatch
from .mathcore import bessel_j0, cholesky_psd, toeplitz_cholesky

MODES = ("clarke_varying", "quasi_static")

GEOMETRY_PRESETS = {
    # 4-element square arrays, listed so the first two elements form an
    # adjacent side pair (antenna-count truncation keeps the named spacing)
    "rx_square_0.5": [[0.0, 0.0], [0.5, 0.0], [0.0, 0.5], [0.5, 0.5]],
    "rx_square_0.25": [[0.0, 0.0], [0.25, 0.0], [0.0, 0.25], [0.25, 0.25]],
    # 4-element uniform linear arrays
    "tx_linear_2.0": [[0.0, 0.0], [2.0, 0.0], [4.0, 0.0], [6.0, 0.0]],
    "tx_linear_1.0": [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]],
}


@dataclass(frozen=True)
class ChannelParams:
    lt: int
    lr: int
    fdT: float
    es: float
    n0: float
    mode: str = "clarke_varying"

    def __post_init__(self):
        if self.lt < 1 or self.lr < 1:
            raise ValueError("antenna counts must be >= 1")
        if self.fdT < 0:
            raise ValueError("fdT must be >= 0")
        if not self.es > 0:
            raise ValueError("es must be > 0")
        if not self.n0 > 0:
            raise ValueError("n0 must be > 0")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")


@dataclass(frozen=True)
class ArrayGeometry:
    """Element positions in wavelengths, one (x, y) row per element."""

    positions: np.ndarray

    def __post_init__(self):
        pos = np.atleast_2d(np.asarray(self.positions, dtype=float))
        object.__setattr__(self, "positions", pos)
        if pos.ndim != 2 or pos.shape[1] != 2 or pos.shape[0] < 1:
            raise ValueError("positions must be an (n, 2) array with n >= 1")
        if not np.isfinite(pos).all():
            raise ValueError("positions must be finite")

    @classmethod
    def from_preset(cls, name):
        if name not in GEOMETRY_PRESETS:
            raise KeyError(
                f"unknown geometry preset {name!r};"
                f" available: {sorted(GEOMETRY_PRESETS)}"
            )
        return cls(np.array(GEOMETRY_PRESETS[name]))

    @property
    def n_elements(self):
        return self.positions.shape[0]

    def truncate(self, n):
        """First n elements (decoding with fewer antennas keeps spacing)."""
        if not 1 <= n <= self.n_elements:
            raise ValueError(f"cannot truncate {self.n_elements} elements to {n}")
        return ArrayGeometry(self.positions[:n].copy())


def spatial_correlation(g: ArrayGeometry):
    """Correlation matrix J0(2 pi d_mn) of an array under isotropic scattering.

    Unit diagonal, real symmetric, PSD (checked; degenerate geometries that
    defeat the jitter raise NotPSD).
    """
    pos = g.positions
    d = np.linalg.norm(pos[:, None, :] - pos[None, :, :], axis=-1)
    r = bessel_j0(2.0 * np.pi * d)
    r = np.atleast_2d(r)
    cholesky_psd(r)  # PSD check only; factor recomputed where needed
    return r


@functools.lru_cache(maxsize=16)
def _temporal_factor(nf, fdT):
    """Transposed Cholesky factor of the nf x nf Clarke Toeplitz correlation
    matrix, stored complex and contiguous.

    ``g @ factor`` then multiplies the complex innovations without casting
    the real factor for every frame, with the same result bits.
    """
    lags = np.arange(nf)
    f = toeplitz_cholesky(bessel_j0(2.0 * np.pi * fdT * lags))
    ft = np.ascontiguousarray(f.T, dtype=complex)
    ft.flags.writeable = False
    return ft


@functools.lru_cache(maxsize=16)
def _spatial_factor(n, data):
    """Cholesky factor of the n x n correlation matrix with these bytes.

    Keyed on the matrix bytes, so a sweep factors its correlations once
    instead of once per frame.
    """
    f = cholesky_psd(np.frombuffer(data).reshape(n, n))
    f.flags.writeable = False
    return f


def generate_fading(nf, p: ChannelParams, rtx, rrx, rng):
    """One frame of correlated Rayleigh fading, shape (nf, lr, lt).

    Each path is unit power with temporal autocovariance J0(2 pi fdT m);
    vec(H(k)) (row-major) has spatial covariance rrx kron rtx.  quasi_static
    mode (and fdT = 0) draws a single matrix and holds it over the frame.

    The white innovations are drawn with the receive-antenna axis leading,
    so truncating a frame to fewer receive antennas reproduces the frame a
    smaller-array simulation would draw from the same stream.
    """
    rtx = np.asarray(rtx, dtype=float)
    rrx = np.asarray(rrx, dtype=float)
    if rtx.shape != (p.lt, p.lt) or rrx.shape != (p.lr, p.lr):
        raise ShapeMismatch(
            f"correlation shapes {rtx.shape}/{rrx.shape} do not match"
            f" lt={p.lt}, lr={p.lr}"
        )
    static = p.mode == "quasi_static" or p.fdT == 0.0
    n_draws = 1 if static else nf
    w = rng.standard_normal((p.lr, p.lt, n_draws, 2))
    g = w.view(complex)[..., 0] / np.sqrt(2.0)  # w[..., 0] + 1j w[..., 1]
    if not static:
        g = g @ _temporal_factor(nf, p.fdT)  # (lr, lt, nf), Clarke-correlated
    a = _spatial_factor(p.lr, rrx.tobytes())
    b = _spatial_factor(p.lt, rtx.tobytes())
    h = np.einsum("ri,ijk,tj->rtk", a, g, b)
    if static:
        return np.repeat(h[None, :, :, 0], nf, axis=0)
    return np.ascontiguousarray(h.transpose(2, 0, 1))


def apply_channel(x, h, p: ChannelParams, rng):
    """Y(k) = H(k) sqrt(Es) X(k) + N(k) over one frame or a batch of frames.

    ``x`` is the lt x n_uses transmit matrix, ``h`` an (n_uses, lr, lt)
    fading realization; returns the (n_uses, lr) received frame.  Noise is
    circular complex Gaussian, variance N0/2 per real dimension, drawn with
    the receive axis leading (see generate_fading).  A batch gives ``x`` (frames, lt, n_uses), ``h``
    (frames, n_uses, lr, lt) and one generator per frame in ``rng``; each
    frame draws its noise from its own generator, so its (n_uses, lr) slice
    of the (frames, n_uses, lr) output equals the one-frame call.
    """
    x = np.asarray(x, dtype=complex)
    h = np.asarray(h, dtype=complex)
    batch = x.ndim == 3
    xb, hb = (x, h) if batch else (x[None], h[None])
    if xb.ndim != 3 or hb.ndim != 4 or hb.shape[0] != xb.shape[0]:
        raise ShapeMismatch("x must be (lt, n_uses) and h (n_uses, lr, lt)")
    lt, nf = xb.shape[1:]
    if hb.shape[1:] != (nf, p.lr, lt) or lt != p.lt:
        raise ShapeMismatch(
            f"x {x.shape} and h {h.shape} disagree with lt={p.lt}, lr={p.lr}"
        )
    rngs = rng if batch else [rng]
    w = np.empty((len(rngs), p.lr, nf, 2))
    for g, wf in zip(rngs, w):
        g.standard_normal(out=wf)
    noise = np.sqrt(p.n0 / 2.0) * w.view(complex)[..., 0]  # w[..., 0] + 1j w[..., 1]
    # use axis before antenna axis: the einsum's inner loop runs over the
    # contiguous transmit axis, with the same products and sums as the
    # per-frame "kij,jk->ki"
    xt = np.ascontiguousarray((np.sqrt(p.es) * xb).transpose(0, 2, 1))
    y = np.einsum("bkij,bkj->bki", hb, xt) + noise.transpose(0, 2, 1)
    return y if batch else y[0]
