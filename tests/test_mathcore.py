"""Tests for the numerical primitives: Bessel J0, the PSD Cholesky factor
of a Toeplitz matrix, and the bit-to-symbol mappers."""

from functools import partial

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from stclab.errors import InputError, NumericError
from stclab.mathcore import (
    CONSTELLATIONS,
    QAM16,
    QPSK,
    bessel_j0,
    bits_to_patterns,
    cholesky_psd,
    patterns_to_bits,
)


def toeplitz_cholesky(row):
    """The Clarke frame's factor: cholesky_psd of the symmetric Toeplitz
    matrix with first row ``row``."""
    return cholesky_psd(scipy.linalg.toeplitz(row))


def j0_series(x, terms=30):
    # independent power-series oracle: sum_k (-1)^k (x/2)^(2k) / (k!)^2
    acc = 0.0
    term = 1.0
    for k in range(terms):
        acc += term
        term *= -((x / 2.0) ** 2) / ((k + 1.0) ** 2)
    return acc


class TestBesselJ0:
    def test_known_values(self):
        assert_allclose(bessel_j0(0.0), 1.0, rtol=0, atol=1e-15)
        assert_allclose(bessel_j0(1.0), 0.7651976866, atol=1e-9)
        assert_allclose(bessel_j0(np.pi), -0.30424217764409384, atol=1e-12)

    def test_half_wavelength_correlation_value(self):
        # J0(2*pi*0.5) is the classic half-wavelength spacing value
        assert_allclose(bessel_j0(2 * np.pi * 0.5), -0.3042421776, atol=1e-9)

    def test_quarter_wavelength_correlation_value(self):
        assert_allclose(bessel_j0(2 * np.pi * 0.25), 0.4720012157682347, atol=1e-12)

    def test_against_power_series(self):
        xs = np.linspace(0.0, 8.0, 161)
        for x in xs:
            assert abs(bessel_j0(x) - j0_series(x)) < 1e-10

    def test_even_function(self):
        for x in (0.3, 1.7, 5.2):
            assert bessel_j0(-x) == bessel_j0(x)

    def test_scalar_float_return(self):
        out = bessel_j0(2.0)
        assert isinstance(out, float)


class TestToeplitzCholesky:
    def test_identity_row(self):
        assert_allclose(toeplitz_cholesky(np.array([1.0, 0.0, 0.0])), np.eye(3))

    def test_two_by_two_closed_form(self):
        f = toeplitz_cholesky(np.array([1.0, 0.5]))
        want = np.array([[1.0, 0.0], [0.5, np.sqrt(0.75)]])
        assert_allclose(f, want, atol=1e-15)

    def test_factor_reproduces_matrix(self):
        row = bessel_j0(2 * np.pi * 0.01 * np.arange(64))
        f = toeplitz_cholesky(np.asarray(row))
        r = f @ f.T
        from scipy.linalg import toeplitz

        assert_allclose(r, toeplitz(row), atol=1e-10)

    def test_lower_triangular(self):
        f = toeplitz_cholesky(bessel_j0(2 * np.pi * 0.02 * np.arange(16)))
        assert_allclose(f, np.tril(f), atol=0)

    def test_all_ones_row_is_psd_boundary(self):
        # rank-1 covariance: the jitter fallback must still return a factor
        f = toeplitz_cholesky(np.ones(5))
        assert_allclose(f @ f.T, np.ones((5, 5)), atol=1e-5)

    def test_leading_submatrix_nesting(self):
        # the n-sample factor restricted to its leading block equals the
        # smaller factor; this is what makes truncated streams consistent
        row = bessel_j0(2 * np.pi * 0.01 * np.arange(32))
        f_big = toeplitz_cholesky(row)
        f_small = toeplitz_cholesky(row[:10])
        assert_allclose(f_big[:10, :10], f_small, atol=1e-8)

    def test_rejects_indefinite_row(self):
        with pytest.raises(NumericError):
            toeplitz_cholesky(np.array([1.0, 2.0]))

    def test_given_factorizer_gets_the_jitter_retry(self):
        # the Wiener design factors with scipy's LAPACK through the same rule
        calls = []

        def counted(m):
            calls.append(m)
            return scipy.linalg.cholesky(m, lower=True)

        f = cholesky_psd(np.ones((5, 5)), cholesky=counted)
        assert len(calls) == 2
        assert_allclose(f, np.tril(f), atol=0)
        assert_allclose(f @ f.T, np.ones((5, 5)), atol=1e-5)
        with pytest.raises(NumericError, match="not positive semidefinite"):
            cholesky_psd(scipy.linalg.toeplitz([1.0, 2.0]),
                         cholesky=partial(scipy.linalg.cholesky, lower=True))


class TestConstellations:
    def test_registry(self):
        assert set(CONSTELLATIONS) == {"QPSK", "16QAM"}
        assert CONSTELLATIONS["QPSK"] is QPSK
        assert CONSTELLATIONS["16QAM"] is QAM16

    @pytest.mark.parametrize("c", [QPSK, QAM16])
    def test_unit_average_energy(self, c):
        assert_allclose(np.mean(np.abs(c.points) ** 2), 1.0, atol=1e-12)

    def test_qpsk_points(self):
        # index order follows the bit pattern: 00, 01, 10, 11
        s = 1 / np.sqrt(2)
        want = np.array([s + 1j * s, -s + 1j * s, s - 1j * s, -s - 1j * s])
        assert_allclose(QPSK.points, want, atol=1e-15)

    def test_qpsk_gray_pattern_angles(self):
        # 00 -> 45deg, 01 -> 135deg, 11 -> -135deg, 10 -> -45deg
        angles = {p: np.degrees(np.angle(QPSK.points[p])) for p in range(4)}
        assert_allclose(angles[0b00], 45.0)
        assert_allclose(angles[0b01], 135.0)
        assert_allclose(angles[0b11], -135.0)
        assert_allclose(angles[0b10], -45.0)

    def test_qam16_gray_per_axis(self):
        # per-axis Gray code: 00 -> -3, 01 -> -1, 11 -> +1, 10 -> +3 (scaled)
        axis = {0b00: -3, 0b01: -1, 0b11: 1, 0b10: 3}
        scale = 1 / np.sqrt(10)
        for b_re, lvl_re in axis.items():
            for b_im, lvl_im in axis.items():
                pattern = (b_re << 2) | b_im
                want = scale * (lvl_re + 1j * lvl_im)
                assert_allclose(QAM16.points[pattern], want, atol=1e-15)

    def test_qam16_gray_neighbours_differ_by_one_bit(self):
        pts = np.array([QAM16.points[p] for p in range(16)])
        scale = 1 / np.sqrt(10)
        for i in range(16):
            for j in range(i + 1, 16):
                if abs(abs(pts[i] - pts[j]) - 2 * scale) < 1e-9:
                    assert bin(i ^ j).count("1") == 1


class TestBitPatterns:
    def test_msb_first(self):
        # pattern 0b01 = bits (0, 1)
        assert_array_equal(bits_to_patterns(np.array([0, 1]), 2), [0b01])

    def test_length_check(self):
        with pytest.raises(InputError):
            bits_to_patterns(np.array([0, 1, 0]), 2)

    def test_bit_value_check(self):
        with pytest.raises(InputError):
            bits_to_patterns(np.array([0, 2]), 2)

    def test_empty(self):
        assert bits_to_patterns(np.array([], dtype=int), 2).size == 0

    @given(st.lists(st.integers(0, 1), min_size=2, max_size=40).filter(lambda b: len(b) % 2 == 0))
    def test_pattern_roundtrip_qpsk(self, bits):
        bits = np.asarray(bits)
        patterns = bits_to_patterns(bits, 2)
        assert_array_equal(patterns_to_bits(patterns, 2), bits)

    @given(st.lists(st.integers(0, 15), min_size=0, max_size=20))
    def test_pattern_roundtrip_qam16(self, patterns):
        patterns = np.asarray(patterns, dtype=int)
        bits = patterns_to_bits(patterns, 4)
        assert_array_equal(bits_to_patterns(bits, 4), patterns)
