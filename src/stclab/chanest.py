"""Pilot-symbol-assisted channel estimation.

Pilot blocks of lt consecutive uses carry an orthogonal (scaled DFT) pilot
matrix P with P P^H = I.  One block sits flush at each frame edge and the
rest are spaced uniformly between, which keeps the interpolation error flat
over the frame.  Raw per-block estimates are FIR Wiener interpolated to
every frame position, with coefficients designed for a nominal Doppler and
SNR (the classic mismatched-filter PSAD arrangement).
"""

from dataclasses import dataclass, field
from functools import partial
from numbers import Integral

import numpy as np
import scipy.linalg

from .errors import InputError, check_es
from .mathcore import bessel_j0, cholesky_psd


@dataclass(frozen=True)
class PilotMap:
    """Pilot placement for one frame.

    ``pilot_matrix`` column t is the lt-vector transmitted at use t of each
    block (same matrix in every block); rows are antennas.
    """

    nf: int
    lt: int
    block_starts: np.ndarray
    pilot_matrix: np.ndarray = field(repr=False)
    pilot_positions: np.ndarray = field(repr=False)
    data_positions: np.ndarray = field(repr=False)

    @property
    def n_blocks(self):
        return self.block_starts.shape[0]

    @property
    def block_centers(self):
        return self.block_starts + (self.lt - 1) / 2.0


def _orthogonal_pilot_matrix(lt):
    # scaled DFT: P P^H = I, every column has total energy 1 across antennas
    j, k = np.meshgrid(np.arange(lt), np.arange(lt), indexing="ij")
    return np.exp(-2j * np.pi * j * k / lt) / np.sqrt(lt)


def build_pilot_map(nf, lt, n_pilot):
    """Edge-flush plus uniform interior pilot blocks of lt uses each; every
    count must be an integer."""
    if not (isinstance(lt, Integral) and lt >= 1):
        raise InputError(f"lt={lt} must be an integer >= 1")
    if not (isinstance(n_pilot, Integral) and n_pilot > 0) or n_pilot % lt:
        raise InputError(
            f"n_pilot={n_pilot} must be a positive multiple of lt={lt}"
        )
    if not (isinstance(nf, Integral) and n_pilot < nf):
        raise InputError(f"nf={nf} must be an integer above n_pilot={n_pilot}")
    n_blocks = n_pilot // lt
    if n_blocks < 2:
        raise InputError("need at least two pilot blocks (one per frame edge)")
    # nf > n_pilot spaces the starts more than lt apart, and rounding each
    # start to the nearest use keeps them at least lt apart
    frac = np.arange(n_blocks) / (n_blocks - 1)
    starts = np.rint(frac * (nf - lt)).astype(int)
    pilot_positions = (starts[:, None] + np.arange(lt)).reshape(-1)
    mask = np.ones(nf, dtype=bool)
    mask[pilot_positions] = False
    return PilotMap(
        nf=nf,
        lt=lt,
        block_starts=starts,
        pilot_matrix=_orthogonal_pilot_matrix(lt),
        pilot_positions=pilot_positions,
        data_positions=np.nonzero(mask)[0],
    )


@dataclass(frozen=True)
class WienerInterpolator:
    """Per-position FIR MMSE coefficients over the nearest pilot blocks of
    the map ``pmap`` they were designed for.

    ``weights[k]`` applies to raw block estimates ``block_idx[k]`` to
    estimate the channel at frame position k; ``mmse[k]`` is the analytic
    residual 1 - p^T R^-1 p of that design.
    """

    pmap: PilotMap
    block_idx: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)
    mmse: np.ndarray = field(repr=False)


def design_wiener(pmap: PilotMap, fdT_design, snr_design_db, taps):
    """MMSE interpolation coefficients w = R^-1 p for every frame position.

    R is the covariance of the raw estimates at the ``taps`` nearest pilot
    blocks: Clarke autocorrelation J0(2 pi fdT delta) between block centers
    plus a noise diagonal 10^(-snr/10) (the raw-estimate error at the design
    SNR).  p is the cross-covariance to the target position.  snr may be
    numpy.inf for a noise-free design; a non-finite fdT and a NaN or -inf
    snr are refused.
    """
    if not (isinstance(taps, Integral) and 1 <= taps <= pmap.n_blocks):
        raise InputError(
            f"taps={taps} must be an integer from 1 to the {pmap.n_blocks}"
            " available pilot blocks"
        )
    if not (np.isfinite(fdT_design) and snr_design_db > -np.inf):
        raise InputError(f"need a finite design fdT and an snr above -inf dB,"
                         f" got {fdT_design} and {snr_design_db}")
    centers = pmap.block_centers
    noise_var = 0.0 if np.isinf(snr_design_db) else 10.0 ** (-snr_design_db / 10.0)
    scale = 2.0 * np.pi * fdT_design
    pos = np.arange(pmap.nf)[:, None]
    # each position's taps nearest blocks, in block order
    order = np.argsort(np.abs(centers - pos), axis=1, kind="stable")
    block_idx = np.sort(order[:, :taps], axis=1)
    p = bessel_j0(scale * (centers[block_idx] - pos))
    weights = np.empty((pmap.nf, taps))
    mmse = np.empty(pmap.nf)
    # nearby positions share their tap window: factor each window once,
    # with scipy's LAPACK, and solve with the potrs that cho_solve calls,
    # one right-hand side at a time (a multi-column solve gives the same
    # bits but slows every later zgemm in the process)
    lower = partial(scipy.linalg.cholesky, lower=True)
    factors = {}
    for k, (sel, pk) in enumerate(zip(block_idx, p)):
        key = sel.tobytes()
        if key not in factors:
            dc = centers[sel]
            r = bessel_j0(scale * (dc[:, None] - dc[None, :]))
            factors[key] = cholesky_psd(r + noise_var * np.eye(taps), cholesky=lower)
        weights[k] = scipy.linalg.lapack.dpotrs(factors[key], pk, lower=1)[0]
        mmse[k] = 1.0 - float(pk @ weights[k])
    return WienerInterpolator(pmap, block_idx, weights, mmse)


def raw_block_estimates(y, es, pmap: PilotMap):
    """Per-block estimates H_hat = Y_b P^H / sqrt(Es) from the (nf, lr)
    received frame ``y``, shape (n_blocks, lr, lt)."""
    if y.ndim != 2 or y.shape[0] != pmap.nf:
        raise InputError(
            f"frame of shape {y.shape} is not (nf, lr) with pilot map nf={pmap.nf}"
        )
    p = pmap.pilot_matrix
    c = float(np.real((p @ p.conj().T)[0, 0]))
    blocks = y[pmap.block_starts[:, None] + np.arange(pmap.lt)]
    # blocks: (n_blocks, lt uses, lr) -> Y_b is (lr, lt uses)
    yb = blocks.transpose(0, 2, 1)
    return yb @ p.conj().T / (c * np.sqrt(es))


def estimate_channel(y, es, w: WienerInterpolator):
    """PSAD channel estimate at every frame position, shape (nf, lr, lt),
    from the (nf, lr) received frame ``y`` sent at symbol energy ``es``
    with the pilots of ``w.pmap``.

    Each transmit-receive path is interpolated independently (spatially
    separable processing), so the result for one receive antenna equals the
    joint result restricted to it.
    """
    check_es(es)
    raw = raw_block_estimates(y, es, w.pmap)
    # the real weights scale real and imaginary parts alike: gather both
    # as (2 lr lt, taps, nf) floats and add the taps in order from 0.0,
    # the same sums as einsum("ka,kaij->kij", weights, raw[block_idx]).
    # Contiguous operands keep the gather and the product on fast loops.
    parts = np.ascontiguousarray(raw.view(float).reshape(raw.shape[0], -1).T)
    terms = np.take(parts, w.block_idx.T, axis=1)
    terms *= np.ascontiguousarray(w.weights.T)
    est = np.add.reduce(terms, axis=1, initial=0.0).T
    return np.ascontiguousarray(est).view(complex).reshape((w.pmap.nf,) + raw.shape[1:])
