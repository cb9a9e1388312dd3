"""Tests for pilot placement, the Wiener interpolator design, and
pilot-based channel estimation."""

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from stclab import chanest
from stclab.chanest import (
    PilotMap,
    build_pilot_map,
    design_wiener,
    estimate_channel,
    raw_block_estimates,
)
from stclab.channel import apply_channel, generate_fading
from stclab.errors import InputError, NumericError
from stclab.mathcore import CHOL_JITTER, bessel_j0


def make_rng(seed):
    return np.random.Generator(np.random.PCG64(seed))


def per_position_design(pmap, fdt, snr, taps):
    """The Wiener design that factored R again at every frame position,
    kept as the bitwise reference for the one that factors each tap window
    once.  Returns (weights, mmse)."""
    centers = pmap.block_centers
    noise_var = 0.0 if np.isinf(snr) else 10.0 ** (-snr / 10.0)
    weights = np.zeros((pmap.nf, taps))
    mmse = np.zeros(pmap.nf)
    for k in range(pmap.nf):
        sel = np.sort(np.argsort(np.abs(centers - k), kind="stable")[:taps])
        dc = centers[sel]
        r = bessel_j0(2.0 * np.pi * fdt * (dc[:, None] - dc[None, :]))
        r = np.atleast_2d(r) + noise_var * np.eye(taps)
        p = np.atleast_1d(bessel_j0(2.0 * np.pi * fdt * (centers[sel] - k)))
        try:
            cf = scipy.linalg.cho_factor(r, lower=True)
        except scipy.linalg.LinAlgError:
            jitter = CHOL_JITTER * np.trace(r) / taps
            cf = scipy.linalg.cho_factor(r + jitter * np.eye(taps), lower=True)
        weights[k] = scipy.linalg.cho_solve(cf, p)
        mmse[k] = 1.0 - float(p @ weights[k])
    return weights, mmse


def pilot_frame(pmap, h, es, rng, n0=1.0):
    """Transmit pilots only (zeros elsewhere) through the channel."""
    x = np.zeros((pmap.lt, pmap.nf), dtype=complex)
    for s in pmap.block_starts:
        x[:, s : s + pmap.lt] = pmap.pilot_matrix
    return apply_channel(x[None], h[None], es, [rng], n0=n0)[0]


class TestPilotMap:
    def test_standard_frame_layout(self):
        pm = build_pilot_map(300, 2, 72)
        assert pm.n_blocks == 36
        # edge flush: the first block occupies uses 1..2, the last 299..300
        assert pm.block_starts[0] == 0
        assert pm.block_starts[-1] == 298
        assert pm.data_positions.size == 228
        assert pm.pilot_positions.size == 72

    def test_minimal_two_blocks(self):
        pm = build_pilot_map(10, 1, 2)
        np.testing.assert_array_equal(pm.block_starts, [0, 9])

    def test_positions_partition_frame(self):
        pm = build_pilot_map(120, 2, 24)
        both = np.concatenate([pm.pilot_positions, pm.data_positions])
        np.testing.assert_array_equal(np.sort(both), np.arange(120))

    def test_blocks_do_not_overlap(self):
        # down to one data use: nf > n_pilot is all a map needs to fit
        for lt in range(1, 5):
            for n_blocks in range(2, 41):
                for nf in range(n_blocks * lt + 1, n_blocks * lt + 41):
                    pm = build_pilot_map(nf, lt, n_blocks * lt)
                    assert np.all(np.diff(pm.block_starts) >= lt), (nf, lt, n_blocks)

    def test_near_uniform_interior(self):
        pm = build_pilot_map(300, 2, 72)
        gaps = np.diff(pm.block_starts)
        assert gaps.max() - gaps.min() <= 1

    def test_pilot_matrix_is_orthogonal(self):
        for lt in (1, 2, 3, 4):
            pm = build_pilot_map(40, lt, 4 * lt)
            gram = pm.pilot_matrix @ pm.pilot_matrix.conj().T
            assert_allclose(gram, np.eye(lt), atol=1e-12)

    def test_count_validation(self):
        with pytest.raises(InputError):
            build_pilot_map(300, 2, 71)  # not a multiple of lt
        with pytest.raises(InputError):
            build_pilot_map(300, 2, 300)  # no room for data
        with pytest.raises(InputError):
            build_pilot_map(300, 2, 2)  # fewer than two blocks
        with pytest.raises(InputError):
            build_pilot_map(8, 2, 8)

    def test_block_centers(self):
        pm = build_pilot_map(10, 2, 4)
        assert_allclose(pm.block_centers, [0.5, 8.5])


class TestWienerDesign:
    def test_weight_shapes(self):
        pm = build_pilot_map(300, 2, 72)
        w = design_wiener(pm, 0.01, 30.0, 12)
        assert w.weights.shape == (300, 12)
        assert w.block_idx.shape == (300, 12)
        assert w.mmse.shape == (300,)

    def test_design_carries_its_map(self):
        # estimate_channel reads the pilots of the map the design was made for
        pm = build_pilot_map(300, 2, 72)
        assert design_wiener(pm, 0.01, 30.0, 12).pmap is pm

    def test_taps_bounded_by_blocks(self):
        pm = build_pilot_map(300, 2, 72)
        with pytest.raises(InputError):
            design_wiener(pm, 0.01, 30.0, 37)

    def test_mmse_range(self):
        pm = build_pilot_map(300, 2, 72)
        w = design_wiener(pm, 0.01, 30.0, 12)
        assert np.all(w.mmse > 0.0)
        assert np.all(w.mmse < 1.0)

    def test_mmse_decreases_with_design_snr(self):
        pm = build_pilot_map(300, 2, 72)
        means = [
            design_wiener(pm, 0.01, snr, 12).mmse.mean() for snr in (10.0, 20.0, 30.0)
        ]
        assert means[0] > means[1] > means[2]

    def test_dc_pass_through_weights(self):
        # a static channel observed without noise must pass through exactly
        pm = build_pilot_map(300, 2, 72)
        w = design_wiener(pm, 0.0, np.inf, 8)
        assert_allclose(w.weights.sum(axis=1), np.ones(300), atol=1e-6)
        assert np.all(w.mmse < 1e-6)

    def test_symmetric_positions_mirror_weights(self):
        pm = build_pilot_map(20, 2, 4)  # blocks at 0 and 18, centers 0.5 / 18.5
        w = design_wiener(pm, 0.01, 20.0, 2)
        assert_allclose(np.sort(w.weights[9]), np.sort(w.weights[10]), atol=1e-12)
        assert_allclose(w.weights[9].sum(), w.weights[10].sum(), atol=1e-12)

    def test_nearest_blocks_selected(self):
        pm = build_pilot_map(300, 2, 72)
        w = design_wiener(pm, 0.01, 30.0, 4)
        centers = pm.block_centers
        for k in (0, 150, 299):
            d = np.abs(centers - k)
            expect = np.sort(np.argsort(d, kind="stable")[:4])
            np.testing.assert_array_equal(w.block_idx[k], expect)

    def test_analytic_mmse_formula(self):
        # mmse = 1 - p^T w with w = R^-1 p, independently recomputed
        pm = build_pilot_map(60, 2, 8)
        fdt, snr, taps = 0.02, 15.0, 3
        w = design_wiener(pm, fdt, snr, taps)
        sigma2 = 10 ** (-snr / 10)
        centers = pm.block_centers
        for k in (0, 17, 31, 59):
            idx = w.block_idx[k]
            r = bessel_j0(2 * np.pi * fdt * np.abs(centers[idx, None] - centers[None, idx]))
            r = r + sigma2 * np.eye(taps)
            p = bessel_j0(2 * np.pi * fdt * np.abs(centers[idx] - k))
            wk = np.linalg.solve(r, p)
            assert_allclose(w.weights[k], wk, atol=1e-9)
            assert_allclose(w.mmse[k], 1 - p @ wk, atol=1e-9)

    # the default frame; a noise-free static design, whose R is singular
    # and takes the jitter retry; one tap; a short frame of four blocks;
    # every block as a tap, one window for the whole frame
    @pytest.mark.parametrize(
        "nf, lt, count, fdt, snr, taps",
        [
            (300, 2, 72, 0.01, 30.0, 20),
            (300, 2, 72, 0.0, np.inf, 8),
            (300, 1, 40, 0.02, 12.0, 1),
            (60, 2, 8, 0.02, 15.0, 3),
            (300, 2, 72, 0.01, 12.0, 36),
            (60, 3, 12, 0.02, 15.0, 4),
        ],
    )
    def test_bitwise_equal_to_per_position_factoring(self, nf, lt, count, fdt, snr, taps):
        pm = build_pilot_map(nf, lt, count)
        w = design_wiener(pm, fdt, snr, taps)
        want_weights, want_mmse = per_position_design(pm, fdt, snr, taps)
        np.testing.assert_array_equal(w.weights.view(np.uint64), want_weights.view(np.uint64))
        np.testing.assert_array_equal(w.mmse.view(np.uint64), want_mmse.view(np.uint64))

    def test_factors_each_tap_window_once(self, monkeypatch):
        calls = []
        factor = chanest.cholesky_psd

        def counted(*args, **kwargs):
            calls.append(1)
            return factor(*args, **kwargs)

        monkeypatch.setattr(chanest, "cholesky_psd", counted)
        pm = build_pilot_map(300, 2, 72)
        w = design_wiener(pm, 0.01, 30.0, 20)
        windows = {row.tobytes() for row in w.block_idx}
        assert len(calls) == len(windows) < pm.nf

    def test_every_solve_has_one_right_hand_side(self, monkeypatch):
        # a multi-column solve gives the same bits, but scipy's threaded
        # BLAS then slows every later fading product in the process
        shapes = []
        potrs = scipy.linalg.lapack.dpotrs

        def recorded(c, b, *args, **kwargs):
            shapes.append(np.shape(b))
            return potrs(c, b, *args, **kwargs)

        monkeypatch.setattr(scipy.linalg.lapack, "dpotrs", recorded)
        pm = build_pilot_map(300, 2, 72)
        design_wiener(pm, 0.01, 12.0, 20)
        assert shapes == [(20,)] * pm.nf

    @pytest.mark.parametrize("fdt, snr", [(np.nan, 12.0), (np.inf, 12.0), (0.01, np.nan), (0.01, -np.inf)])
    def test_non_finite_design_refused(self, fdt, snr):
        pm = build_pilot_map(300, 2, 72)
        with pytest.raises(InputError):
            design_wiener(pm, fdt, snr, 20)

    def test_indefinite_design_covariance_is_a_numeric_error(self, monkeypatch):
        # a covariance the jitter cannot rescue: off-diagonal 2, diagonal 1
        monkeypatch.setattr(chanest, "bessel_j0", lambda x: np.where(x == 0, 1.0, 2.0))
        pm = build_pilot_map(300, 2, 72)
        with pytest.raises(NumericError, match="not positive semidefinite"):
            design_wiener(pm, 0.01, np.inf, 4)


class TestEstimation:
    def test_raw_block_estimates_noiseless(self):
        pm = build_pilot_map(20, 2, 8)
        h = generate_fading(20, 0.0, np.eye(2), np.eye(3), make_rng(0))
        frame = pilot_frame(pm, h, 4.0, make_rng(1), n0=1e-20)
        raw = raw_block_estimates(frame, 4.0, pm)
        assert raw.shape == (pm.n_blocks, 3, 2)
        for b, s in enumerate(pm.block_starts):
            assert_allclose(raw[b], h[s], atol=1e-8)

    def test_static_noiseless_estimate_is_exact(self):
        pm = build_pilot_map(300, 2, 72)
        w = design_wiener(pm, 0.0, np.inf, 8)
        h = generate_fading(300, 0.0, np.eye(2), np.eye(2), make_rng(2))
        frame = pilot_frame(pm, h, 1.0, make_rng(3), n0=1e-20)
        hh = estimate_channel(frame, 1.0, w)
        assert hh.shape == (300, 2, 2)
        assert_allclose(hh, h, atol=1e-6)

    def test_estimate_unbiased(self):
        pm = build_pilot_map(100, 2, 20)
        w = design_wiener(pm, 0.01, 20.0, 5)
        bias = np.zeros((100, 1, 2), dtype=complex)
        n = 400
        for f in range(n):
            h = generate_fading(100, 0.01, np.eye(2), np.eye(1), make_rng(40000 + f))
            frame = pilot_frame(pm, h, 100.0, make_rng(50000 + f))
            bias += estimate_channel(frame, 100.0, w) - h
        assert np.abs(bias / n).max() < 0.02

    def test_mse_tracks_analytic(self):
        # matched design: empirical MSE within 1.25x of 1 - p^T R^-1 p
        fdt, snr_db = 0.005, 20.0
        pm = build_pilot_map(300, 2, 72)
        w = design_wiener(pm, fdt, snr_db, 12)
        es = 10 ** (snr_db / 10)
        err2 = np.zeros(300)
        n = 250
        for f in range(n):
            h = generate_fading(300, fdt, np.eye(2), np.eye(2), make_rng(60000 + f))
            frame = pilot_frame(pm, h, es, make_rng(70000 + f))
            err2 += np.sum(np.abs(estimate_channel(frame, es, w) - h) ** 2, axis=(1, 2))
        mse = err2 / (n * 4)
        d = pm.data_positions
        assert mse[d].mean() <= 1.25 * w.mmse[d].mean()
        assert mse[d].mean() >= 0.5 * w.mmse[d].mean()

    @pytest.mark.parametrize("lt", [1, 2, 3, 4])
    @pytest.mark.parametrize("lr", [1, 2, 3, 4])
    def test_estimate_bitwise_equal_to_einsum(self, lr, lt):
        # the interpolation against the gather and einsum it replaced
        pm = build_pilot_map(300, lt, 72)
        rng = make_rng(80 + 10 * lr + lt)
        y = rng.standard_normal((300, lr)) + 1j * rng.standard_normal((300, lr))
        raw = raw_block_estimates(y, 2.0, pm)
        for taps in sorted({1, min(20, pm.n_blocks), pm.n_blocks}):
            w = design_wiener(pm, 0.01, 12.0, taps)
            want = np.einsum("ka,kaij->kij", w.weights, raw[w.block_idx])
            got = estimate_channel(y, 2.0, w)
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_antennas_estimated_separately(self):
        # orthogonal pilots decouple transmit antennas: zeroing one antenna's
        # rows must not disturb the other's estimate
        pm = build_pilot_map(40, 2, 8)
        w = design_wiener(pm, 0.0, np.inf, 4)
        h = generate_fading(40, 0.0, np.eye(2), np.eye(1), make_rng(4))
        h_masked = h.copy()
        h_masked[:, :, 1] = 0.0
        fa = pilot_frame(pm, h, 1.0, make_rng(5), n0=1e-20)
        fb = pilot_frame(pm, h_masked, 1.0, make_rng(5), n0=1e-20)
        ha = estimate_channel(fa, 1.0, w)
        hb = estimate_channel(fb, 1.0, w)
        assert_allclose(ha[:, :, 0], hb[:, :, 0], atol=1e-8)
        assert_allclose(hb[:, :, 1], np.zeros((40, 1)), atol=1e-8)

    def test_frame_length_check(self):
        pm = build_pilot_map(300, 2, 72)
        w = design_wiener(pm, 0.01, 20.0, 4)
        h = generate_fading(200, 0.0, np.eye(2), np.eye(1), make_rng(6))
        frame = apply_channel(np.zeros((1, 2, 200)), h[None], 1.0, [make_rng(7)])[0]
        with pytest.raises(InputError):
            raw_block_estimates(frame, 1.0, pm)
        with pytest.raises(InputError):
            estimate_channel(frame, 1.0, w)

    @pytest.mark.parametrize("shape", [(300,), (300, 1, 2), ()])
    def test_frame_not_nf_by_lr_refused(self, shape):
        pm = build_pilot_map(300, 2, 72)
        w = design_wiener(pm, 0.01, 20.0, 4)
        y = np.ones(shape, dtype=complex)
        with pytest.raises(InputError):
            raw_block_estimates(y, 1.0, pm)
        with pytest.raises(InputError):
            estimate_channel(y, 1.0, w)
