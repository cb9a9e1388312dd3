"""Tests for the correlated Rayleigh fading generator and the received
signal model."""

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from stclab.channel import (
    CLARKE_MAX_USES,
    GEOMETRY_PRESETS,
    apply_channel,
    generate_fading,
    spatial_correlation,
)
from stclab.errors import InputError
from stclab.mathcore import bessel_j0, cholesky_psd


def make_rng(seed):
    return np.random.Generator(np.random.PCG64(seed))


class TestGeometry:
    def test_presets_present(self):
        assert set(GEOMETRY_PRESETS) == {
            "rx_square_0.5",
            "rx_square_0.25",
            "tx_linear_2.0",
            "tx_linear_1.0",
        }

    def test_square_preset_truncation_keeps_side_pair(self):
        r = spatial_correlation("rx_square_0.5", 2)
        side = bessel_j0(2 * np.pi * 0.5)
        np.testing.assert_array_equal(r, [[1.0, side], [side, 1.0]])

    def test_linear_preset_spacing(self):
        d = np.diff(np.array(GEOMETRY_PRESETS["tx_linear_2.0"])[:, 0])
        assert_allclose(d, [2.0, 2.0, 2.0])

    @pytest.mark.parametrize(
        "spec", ["hexagon", "", "0,0; 0.5", "0,0,0; 1,0,0", "0,0; nan,0", "0,0; -inf,0", "1"]
    )
    def test_malformed_spec(self, spec):
        with pytest.raises(InputError, match="expected 'white'"):
            spatial_correlation(spec, 1)

    def test_too_few_elements(self):
        with pytest.raises(InputError, match="4 elements, need 5"):
            spatial_correlation("tx_linear_1.0", 5)
        with pytest.raises(InputError, match="1 elements, need 2"):
            spatial_correlation("0,0", 2)


class TestSpatialCorrelation:
    def test_single_element(self):
        r = spatial_correlation("0,0", 1)
        assert_allclose(r, [[1.0]])

    def test_half_wavelength_pair(self):
        r = spatial_correlation("0,0; 0.5,0", 2)
        assert_allclose(np.diag(r), [1.0, 1.0])
        assert_allclose(r[0, 1], -0.3042421776, atol=1e-9)
        assert_allclose(r, r.T)

    def test_quarter_wavelength_pair(self):
        r = spatial_correlation("0,0; 0.25,0", 2)
        assert_allclose(r[0, 1], 0.4720012157682347, atol=1e-12)

    def test_two_wavelength_pair(self):
        r = spatial_correlation("0,0; 2,0", 2)
        assert_allclose(r[0, 1], 0.15750739248213824, atol=1e-12)

    def test_depends_only_on_distance(self):
        a = spatial_correlation("0,0; 0.3,0.4", 2)
        b = spatial_correlation("0,0; 0.5,0", 2)
        assert_allclose(a, b, atol=1e-15)

    def test_full_square_structure(self):
        r = spatial_correlation("rx_square_0.5", 4)
        side = bessel_j0(2 * np.pi * 0.5)
        diag = bessel_j0(2 * np.pi * 0.5 * np.sqrt(2.0))
        want = np.array(
            [
                [1.0, side, side, diag],
                [side, 1.0, diag, side],
                [side, diag, 1.0, side],
                [diag, side, side, 1.0],
            ]
        )
        assert_allclose(r, want, atol=1e-12)


class TestGenerateFading:
    def test_shape_and_dtype(self):
        h = generate_fading(50, 0.01, np.eye(2), np.eye(3), make_rng(0))
        assert h.shape == (50, 3, 2)
        assert h.dtype == complex

    def test_zero_doppler_is_constant(self):
        h = generate_fading(40, 0.0, np.eye(2), np.eye(2), make_rng(1))
        assert_allclose(h, np.broadcast_to(h[0], h.shape), atol=1e-14)

    def test_marginal_moments(self):
        # fast Doppler so the time samples decorrelate within a few lags
        acc = []
        for f in range(400):
            acc.append(generate_fading(100, 0.2, np.eye(2), np.eye(2), make_rng(100 + f)))
        h = np.concatenate(acc, axis=0).ravel()
        assert abs(h.mean()) < 0.02
        assert_allclose(np.mean(np.abs(h) ** 2), 1.0, atol=0.02)
        # circularity: E[h^2] = 0 for proper complex Gaussians
        assert abs(np.mean(h**2)) < 0.02

    def test_temporal_autocorrelation(self):
        fdt = 0.02
        lags = (1, 5, 10, 25)
        num = np.zeros(len(lags), dtype=complex)
        den = 0.0
        for f in range(500):
            h = generate_fading(200, fdt, np.eye(1), np.eye(8), make_rng(1000 + f))
            path = h[:, :, 0]
            for i, m in enumerate(lags):
                num[i] += np.sum(path[: 200 - m] * np.conj(path[m:]))
            den += np.sum(np.abs(path) ** 2)
        got = (num / den).real * (200 / (200 - np.array(lags)))
        want = bessel_j0(2 * np.pi * fdt * np.array(lags))
        assert_allclose(got, want, atol=0.02)

    def test_spatial_covariance_kronecker(self):
        rtx = np.array([[1.0, 0.5], [0.5, 1.0]])
        rrx = spatial_correlation("0,0; 0.25,0", 2)
        cov = np.zeros((4, 4), dtype=complex)
        n = 4000
        for f in range(n):
            h = generate_fading(1, 0.0, rtx, rrx, make_rng(7000 + f))
            v = h[0].reshape(-1)  # row-major: receive index major, transmit minor
            cov += np.outer(v, v.conj())
        cov /= n
        assert_allclose(cov.real, np.kron(rrx, rtx), atol=0.06)
        assert np.abs(cov.imag).max() < 0.06

    def test_receive_truncation_nests(self):
        # decoding with fewer receive antennas must see the same streams:
        # the first lr rows of a wider simulation equal a narrower one
        rrx4 = spatial_correlation("rx_square_0.5", 4)
        rtx = np.eye(2)
        h4 = generate_fading(64, 0.01, rtx, rrx4, make_rng(42))
        h2 = generate_fading(64, 0.01, rtx, rrx4[:2, :2], make_rng(42))
        assert_allclose(h4[:, :2, :], h2, atol=0)

    def test_correlated_pair_sample_correlation(self):
        rrx = spatial_correlation("0,0; 0.5,0", 2)
        num = 0.0
        den = 0.0
        for f in range(6000):
            h = generate_fading(1, 0.0, np.eye(1), rrx, make_rng(20000 + f))
            num += (h[0, 0, 0] * np.conj(h[0, 1, 0])).real
            den += abs(h[0, 0, 0]) ** 2
        assert_allclose(num / den, -0.3042, atol=0.03)

    def test_lt_and_lr_come_from_the_correlations(self):
        h = generate_fading(5, 0.01, np.eye(3), np.eye(2), make_rng(3))
        assert h.shape == (5, 2, 3)
        with pytest.raises(InputError):
            generate_fading(5, 0.01, np.eye(3)[:2], np.eye(2), make_rng(3))

    def test_clarke_frame_cap_refuses_before_allocating(self, monkeypatch):
        def no_factor(*_args):
            raise AssertionError("the Toeplitz factor was built")

        monkeypatch.setattr("stclab.channel._temporal_factor", no_factor)
        with pytest.raises(InputError, match=str(CLARKE_MAX_USES)):
            generate_fading(CLARKE_MAX_USES + 1, 0.01, np.eye(1), np.eye(1), make_rng(4))
        for nf in (10**5, 0, -3):
            with pytest.raises(InputError):
                generate_fading(nf, 0.01, np.eye(1), np.eye(1), make_rng(4))
        # quasi-static frames build no temporal factor and have no cap
        h = generate_fading(CLARKE_MAX_USES + 1, 0.0, np.eye(1), np.eye(1), make_rng(4))
        assert h.shape == (CLARKE_MAX_USES + 1, 1, 1)

    @pytest.mark.parametrize(
        "nf, fdt", [(0, 0.0), (-3, 0.0), (10, np.nan), (10, np.inf), (10, -np.inf)]
    )
    def test_empty_frame_and_non_finite_doppler_refused_before_drawing(self, nf, fdt):
        class NoDraws:
            def standard_normal(self, *_args, **_kwargs):
                raise AssertionError("innovations were drawn")

        with pytest.raises(InputError):
            generate_fading(nf, fdt, np.eye(2), np.eye(2), NoDraws())

    @pytest.mark.parametrize("nf", [7, 60, 300, 301, 1000])
    @pytest.mark.parametrize("lt", [1, 2, 3, 4])
    @pytest.mark.parametrize("lr", [1, 2, 3, 4, 8])
    def test_cached_complex_factor_bitwise_equals_real_factor(self, lr, lt, nf):
        # the form the cached complex factor and the one-matrix product
        # replaced: numpy's stacked per-path (lt, nf) products with the real
        # Cholesky factor, cast to complex on every frame
        rtx = spatial_correlation("tx_linear_1.0", lt)
        rrx = spatial_correlation("; ".join(f"{0.5 * i},0" for i in range(lr)), lr)
        f = cholesky_psd(scipy.linalg.toeplitz(bessel_j0(2 * np.pi * 0.01 * np.arange(nf))))
        a, b = cholesky_psd(rrx), cholesky_psd(rtx)
        for seed in range(2):
            w = make_rng(nf + seed).standard_normal((lr, lt, nf, 2))
            g = (w.view(complex)[..., 0] / np.sqrt(2.0)) @ f.T
            want = np.einsum("ri,ijk,tj->rtk", a, g, b).transpose(2, 0, 1).copy()
            got = generate_fading(nf, 0.01, rtx, rrx, make_rng(nf + seed))
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


class TestApplyChannel:
    def test_near_noiseless_scaling(self):
        h = generate_fading(10, 0.0, np.eye(2), np.eye(2), make_rng(5))
        x = np.ones((2, 10), dtype=complex)
        frame = apply_channel(x[None], h[None], 4.0, [make_rng(6)], n0=1e-20)[0]
        want = 2.0 * np.einsum("kij,jk->ki", h, x)
        assert_allclose(frame, want, atol=1e-8)

    def test_result_shape(self):
        h = generate_fading(4, 0.0, np.eye(1), np.eye(2), make_rng(7))
        y = apply_channel(np.zeros((1, 1, 4)), h[None], 2.0, [make_rng(8)], n0=0.5)[0]
        assert y.shape == (4, 2) and y.dtype == complex

    def test_noise_power(self):
        n0 = 2.0
        x = np.zeros((1, 500), dtype=complex)
        pw = []
        for f in range(60):
            h = generate_fading(500, 0.0, np.eye(1), np.eye(2), make_rng(900 + f))
            frame = apply_channel(x[None], h[None], 1.0, [make_rng(30000 + f)], n0=n0)[0]
            pw.append(np.mean(np.abs(frame) ** 2))
        assert_allclose(np.mean(pw), n0, rtol=0.03)

    def test_noise_splits_evenly_per_real_dimension(self):
        n0 = 1.0
        x = np.zeros((1, 2000), dtype=complex)
        h = generate_fading(2000, 0.0, np.eye(1), np.eye(1), make_rng(77))
        frame = apply_channel(x[None], h[None], 1.0, [make_rng(78)], n0=n0)[0]
        assert_allclose(np.var(frame.real), n0 / 2, rtol=0.1)
        assert_allclose(np.var(frame.imag), n0 / 2, rtol=0.1)

    def test_shape_checks(self):
        h = generate_fading(8, 0.0, np.eye(2), np.eye(1), make_rng(9))
        with pytest.raises(InputError):
            apply_channel(np.zeros((1, 3, 8)), h[None], 1.0, [make_rng(10)])
        with pytest.raises(InputError):
            apply_channel(np.zeros((1, 2, 7)), h[None], 1.0, [make_rng(11)])
        # one generator for two frames would give both the same noise
        with pytest.raises(InputError):
            apply_channel(np.zeros((2, 2, 8)), np.stack([h, h]), 1.0, [make_rng(12)])
