"""Correlated Rayleigh fading and the received-signal model.

Paths fade temporally per Clarke's model, autocorrelation J0(2 pi fD T m),
realized exactly by a Cholesky factor of the frame's Toeplitz correlation
matrix.  Spatial correlation follows the Kronecker model: a fading frame is
H(k) = A G(k) B^T with A, B the Cholesky factors of the receive / transmit
correlation matrices, so vec(H) (row-major) has covariance rrx kron rtx.
Correlation matrices come from array geometry: entry (m, n) is J0(2 pi d_mn)
with d_mn the element separation in wavelengths (isotropic scattering).

An array is given as text: ``white`` (uncorrelated elements), a name from
``GEOMETRY_PRESETS``, or element positions ``x,y; x,y; ...`` in
wavelengths.  An n-antenna side uses the first n elements.

The received frame is Y(k) = H(k) sqrt(Es) X(k) + N(k) with independent
circular complex Gaussian noise of variance N0/2 per real dimension.

Shape conventions: a fading realization is an (nf, lr, lt) complex array,
drawn one frame per call, and the channel maps a batch of them to (frames,
nf, lr) received frames; lt and lr are read from the correlation matrices
and the fading array, and the Es that produced a frame travels beside it.
"""

import functools
import math
from numbers import Integral

import numpy as np
import scipy.linalg

from .errors import InputError, check_es
from .mathcore import bessel_j0, cholesky_psd

GEOMETRY_PRESETS = {
    # 4-element square arrays, listed so the first two elements form an
    # adjacent side pair (antenna-count truncation keeps the named spacing)
    "rx_square_0.5": [[0.0, 0.0], [0.5, 0.0], [0.0, 0.5], [0.5, 0.5]],
    "rx_square_0.25": [[0.0, 0.0], [0.25, 0.0], [0.0, 0.25], [0.25, 0.25]],
    # 4-element uniform linear arrays
    "tx_linear_2.0": [[0.0, 0.0], [2.0, 0.0], [4.0, 0.0], [6.0, 0.0]],
    "tx_linear_1.0": [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]],
}

# Longest Clarke-correlated frame: its Toeplitz matrix, Cholesky factor and
# complex copy take about 32 nf^2 bytes (134 MB here).
CLARKE_MAX_USES = 2048


def spatial_correlation(spec, n):
    """The n x n correlation matrix of the first n elements of array ``spec``.

    ``white`` gives the identity; a preset or ``x,y; x,y; ...`` positions
    give J0(2 pi d_mn) under isotropic scattering: unit diagonal, real
    symmetric, PSD (checked; degenerate geometries that defeat the jitter
    raise NumericError).  A count n that is not an integer >= 1, a
    malformed spec, or one with fewer than n elements, raises InputError.
    """
    if not (isinstance(n, Integral) and n >= 1):
        raise InputError(f"an array needs an integer count n >= 1, got n={n}")
    if spec == "white":
        return np.eye(n)
    rows = [chunk.split(",") for chunk in spec.split(";") if chunk.strip()]
    try:
        pos = np.atleast_2d(np.array(GEOMETRY_PRESETS.get(spec, rows), dtype=float))
    except ValueError:  # ragged rows, or a value that is not a number
        pos = np.empty((0, 0))
    if pos.shape[1] != 2 or not np.isfinite(pos).all():
        raise InputError(
            f"expected 'white', a preset {sorted(GEOMETRY_PRESETS)},"
            " or 'x,y; x,y; ...'"
        )
    if pos.shape[0] < n:
        raise InputError(f"geometry has {pos.shape[0]} elements, need {n}")
    pos = pos[:n]
    d = np.linalg.norm(pos[:, None, :] - pos[None, :, :], axis=-1)
    r = bessel_j0(2.0 * np.pi * d)
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
    f = cholesky_psd(scipy.linalg.toeplitz(bessel_j0(2.0 * np.pi * fdT * lags)))
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


def generate_fading(nf, fdt, rtx, rrx, rng):
    """One frame of correlated Rayleigh fading, shape (nf, lr, lt).

    lt and lr are the sizes of the transmit and receive correlation
    matrices.  Each path is unit power with temporal autocovariance
    J0(2 pi fdt m); vec(H(k)) (row-major) has spatial covariance rrx kron
    rtx.  fdt = 0 is quasi-static fading: a single matrix drawn and held
    over the frame.  A frame length that is not an integer from 1 (to
    CLARKE_MAX_USES for a Clarke frame) and a non-finite fdt are refused
    before anything is drawn or allocated.

    The white innovations are drawn with the receive-antenna axis leading,
    so truncating a frame to fewer receive antennas reproduces the frame a
    smaller-array simulation would draw from the same stream.
    """
    rtx = np.asarray(rtx, dtype=float)
    rrx = np.asarray(rrx, dtype=float)
    lt, lr = len(rtx), len(rrx)
    if rtx.shape != (lt, lt) or rrx.shape != (lr, lr):
        raise InputError(f"correlation shapes {rtx.shape}/{rrx.shape} are not square")
    if not math.isfinite(fdt):
        raise InputError(f"Doppler fdt={fdt} is not finite")
    static = fdt == 0.0
    if not (isinstance(nf, Integral) and nf >= 1) or (not static and nf > CLARKE_MAX_USES):
        limit = " or more" if static else f" to {CLARKE_MAX_USES}"
        raise InputError(f"frame of {nf} uses is not an integer from 1{limit}")
    n_draws = 1 if static else nf
    w = rng.standard_normal((lr, lt, n_draws, 2))
    g = w.view(complex)[..., 0] / np.sqrt(2.0)  # w[..., 0] + 1j w[..., 1]
    if not static:
        # (lr, lt, nf), Clarke-correlated.  All lr*lt paths go through one
        # zgemm; at lt = 1 the stacked form stays, because numpy sends each
        # one-row product to a vector kernel whose bits differ from gemm rows
        tf = _temporal_factor(nf, fdt)
        g = g @ tf if lt == 1 else (g.reshape(lr * lt, nf) @ tf).reshape(lr, lt, nf)
    a = _spatial_factor(lr, rrx.tobytes())
    b = _spatial_factor(lt, rtx.tobytes())
    h = np.einsum("ri,ijk,tj->rtk", a, g, b)
    if static:
        return np.repeat(h[None, :, :, 0], nf, axis=0)
    return np.ascontiguousarray(h.transpose(2, 0, 1))


def apply_channel(x, h, es, rngs, n0=1.0):
    """Y(k) = H(k) sqrt(Es) X(k) + N(k) over a batch of frames.

    ``x`` holds the (frames, lt, n_uses) transmit matrices, ``h`` the
    (frames, n_uses, lr, lt) fading realizations and ``rngs`` a list or
    tuple of one Generator per frame; returns the (frames, n_uses, lr)
    received frames.  Noise is circular complex Gaussian, variance N0/2 per
    real dimension, drawn with the receive axis leading (see
    generate_fading), each frame's from its own generator, so a frame's
    slice equals a batch of one.  ``es`` must be finite and > 0.
    """
    check_es(es)
    x = np.asarray(x, dtype=complex)
    h = np.asarray(h, dtype=complex)
    frames, lt, nf = x.shape if x.ndim == 3 else (-1, -1, -1)
    one_each = isinstance(rngs, (list, tuple)) and len(rngs) == frames and all(
        isinstance(g, np.random.Generator) for g in rngs
    )
    if h.ndim != 4 or h.shape[:2] + h.shape[3:] != (frames, nf, lt) or not one_each:
        raise InputError(
            f"x {x.shape}, h {h.shape} and rngs of type {type(rngs).__name__} must be"
            " (frames, lt, n_uses) and (frames, n_uses, lr, lt) batches and a list of"
            " one Generator per frame"
        )
    w = np.empty((frames, h.shape[2], nf, 2))
    for g, wf in zip(rngs, w):
        g.standard_normal(out=wf)
    noise = np.sqrt(n0 / 2.0) * w.view(complex)[..., 0]  # w[..., 0] + 1j w[..., 1]
    # use axis before antenna axis: the einsum's inner loop runs over the
    # contiguous transmit axis, with the same products and sums as the
    # per-frame "kij,jk->ki"
    xt = np.ascontiguousarray((np.sqrt(es) * x).transpose(0, 2, 1))
    return np.einsum("bkij,bkj->bki", h, xt) + noise.transpose(0, 2, 1)
