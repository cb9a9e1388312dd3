"""Tests for the word demodulators: exhaustive ML, Viterbi, sphere, and the
Alamouti combiner.  The exhaustive search is the reference the others must
match decision-for-decision."""

import math
import re
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stclab import demod, stcodes
from stclab.channel import apply_channel, generate_fading, spatial_correlation
from stclab.demod import (
    alamouti_combine,
    ml_exhaustive_blocks,
    sphere_decode,
    viterbi_decode,
)
from stclab.errors import InputError
from stclab.harness import _es_for, build_setup, parse_config, simulate_frames
from stclab.mathcore import CONSTELLATIONS, QAM16, QPSK, Constellation, patterns_to_bits
from stclab.stcodes import (
    _block_codebook,
    alamouti_codebook,
    dispersion_code,
    encode_alamouti,
    encode_golden,
    encode_spatial_multiplex,
    encode_trellis,
    golden_codebook,
    load_packaged_trellis,
    load_trellis,
    spatial_multiplex_codebook,
    trellis_path_codebook,
)

RT2 = np.sqrt(2.0)


def make_rng(seed):
    return np.random.Generator(np.random.PCG64(seed))


def one_shot_ml_blocks(y, h, cb, es):
    """The single-einsum exhaustive ML that the sliced kernel replaced.

    It materializes every (block, codeword) prediction at once, so it is
    kept here only as the reference decisions for small frames.
    """
    yv = np.asarray(y, dtype=complex)
    u = cb.n_uses
    nb = yv.shape[0] // u
    lr = yv.shape[1]
    yb = yv.reshape(nb, u, lr)
    hb = np.asarray(h, dtype=complex).reshape(nb, u, lr, h.shape[2])
    pred = np.sqrt(es) * np.einsum("bkij,njk->bnki", hb, cb.codewords)
    metrics = np.sum(np.abs(yb[:, None] - pred) ** 2, axis=(2, 3))
    return patterns_to_bits(np.argmin(metrics, axis=1), cb.bits_per_codeword)


def per_block_sphere_decode(y, h, code, es):
    """The one-block-per-call sphere decoder that the frame kernel replaced.

    It redoes the lattice algebra (levels, real system, QR, sign fix) for
    every block and searches with numpy rows; a degenerate block is
    decided by exhaustive ML over the encoder's codebook.  Kept here only
    as the reference the frame kernel must match in bits, visits and
    degeneracy; returns (bits, visited, degenerate) summed over the frame's
    blocks.
    """
    u = code.n_uses
    c = code.constellation
    reals = np.unique(np.round(c.points.real, 12))
    table = np.full((reals.size, reals.size), -1)
    for pattern in range(c.size):
        pt = c.points[pattern]
        i_re = int(np.argmin(np.abs(reals - pt.real)))
        i_im = int(np.argmin(np.abs(reals - pt.imag)))
        table[(i_re, i_im)] = pattern
    m = code.n_syms
    d = 2 * m
    bits, visited, degenerate = [], 0, False
    for b in range(y.shape[0] // u):
        yb, hb = y[b * u : (b + 1) * u], h[b * u : (b + 1) * u]
        g = np.sqrt(es) * np.einsum("kij,mjk->kim", hb, code.basis)
        g = g.reshape(-1, m)
        yc = yb.reshape(-1)
        gr = np.block([[g.real, -g.imag], [g.imag, g.real]])
        yr = np.concatenate([yc.real, yc.imag])
        out = _per_block_search(yr, gr, reals, d)
        if out is None:
            degenerate = True
            cb = _block_codebook("dispersion", c, m, code.encode)
            ml = ml_exhaustive_blocks(yb[None], hb[None], cb, es)
            visited += ml.visited
            bits.append(ml.bits[0])
            continue
        v, n = out
        visited += n
        re_idx = [int(np.argmin(np.abs(reals - v[i]))) for i in range(m)]
        im_idx = [int(np.argmin(np.abs(reals - v[m + i]))) for i in range(m)]
        patterns = np.array([table[(re_idx[i], im_idx[i])] for i in range(m)])
        bits.append(patterns_to_bits(patterns, c.bits_per_symbol))
    return np.concatenate(bits), visited, degenerate


def _per_block_search(yr, gr, levels, d):
    q, r = np.linalg.qr(gr)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    r = signs[:, None] * r
    z = signs * (q.T @ yr)
    rows = [r[i] for i in range(d)]
    rdiag = [float(r[i, i]) for i in range(d)]
    if min(abs(v) for v in rdiag) < 1e-12 * max(abs(v) for v in rdiag + [1.0]):
        return None
    lv = [float(v) for v in levels]
    best_cost = np.inf
    best_v = None
    visited = 0
    v = np.zeros(d)

    def children(i, partial_v):
        resid = z[i] - float(rows[i][i + 1 :] @ partial_v[i + 1 :])
        center = resid / rdiag[i]
        return sorted(lv, key=lambda s: abs(s - center)), resid

    order0, resid0 = children(d - 1, v)
    stack = [(d - 1, order0, 0, 0.0, resid0)]
    while stack:
        i, order, pos, above, resid = stack.pop()
        if pos >= len(order):
            continue
        stack.append((i, order, pos + 1, above, resid))
        s = order[pos]
        visited += 1
        cost = above + (resid - rdiag[i] * s) ** 2
        if not cost < best_cost:
            stack.pop()
            continue
        v[i] = s
        if i == 0:
            best_cost = cost
            best_v = v.copy()
            continue
        order_c, resid_c = children(i - 1, v)
        stack.append((i - 1, order_c, 0, cost, resid_c))
    return best_v, visited


def _sphere_search(z, r, levels):
    """Depth-first closest-first search of one triangular system.

    The Python recursion that ``demod._lockstep_search`` replaced, kept
    here as its block-by-block reference.

    ``z`` and the rows of the upper-triangular ``r`` are lists of Python
    floats, searched from the last dimension down with the Babai point as
    the first leaf.  Children are tried closest-first (a stable sort, so
    equidistant levels keep ascending order) and a child whose cost is not
    strictly below the best leaf ends its sibling loop.  Returns the
    closest point as a list and the number of nodes visited.

    Each residual's partial dot accumulates in index order.  Where numpy's
    dot fuses each multiply-add (FMA hardware) a residual can differ from
    it in the last bit, which can move a decision or a visit count only
    at a tie to within that bit.
    """
    d = len(z)
    v = [0.0] * d
    best_cost = math.inf
    best_v = None
    visited = 0

    def expand(i, above):
        nonlocal best_cost, best_v, visited
        row = r[i]
        acc = 0.0
        for j in range(i + 1, d):
            acc += row[j] * v[j]
        resid = z[i] - acc
        rd = row[i]
        center = resid / rd
        for s in sorted(levels, key=lambda s: abs(s - center)):
            visited += 1
            cost = above + (resid - rd * s) ** 2
            if not cost < best_cost:
                # children are sorted by distance, so siblings only get worse
                return
            v[i] = s
            if i:
                expand(i - 1, cost)
            else:
                best_cost = cost
                best_v = v.copy()

    expand(d - 1, 0.0)
    return best_v, visited


def transmit(x, lr, es, n0, rng, fdt=0.0, geometry="white"):
    lt = x.shape[0]
    rtx, rrx = spatial_correlation(geometry, lt), spatial_correlation(geometry, lr)
    h = generate_fading(x.shape[1], fdt, rtx, rrx, rng)
    frame = apply_channel(x[None], h[None], es, [rng], n0=n0)[0]
    return frame, h


def word_metric(y, h, x, es):
    """sum_k ||y(k) - sqrt(es) H(k) x(k)||^2 for one candidate word x."""
    pred = np.sqrt(es) * np.einsum("kij,jk->ki", h, x)
    return float(np.sum(np.abs(y - pred) ** 2))


class TestMlExhaustive:
    def test_noiseless_recovery(self):
        cb = golden_codebook(QPSK)
        for n in (0, 1, 77, 255):
            x = cb.codewords[n]
            frame, h = transmit(x, 2, 4.0, 1e-20, make_rng(n))
            res = ml_exhaustive_blocks(frame[None], h[None], cb, 4.0)
            want = patterns_to_bits(np.array([n]), 8)
            np.testing.assert_array_equal(res.bits[0], want)
            assert res.visited == 256

    def test_metric_is_word_distance(self):
        # every block of a time-varying frame decides the word nearest to
        # it in word distance
        cb = alamouti_codebook(QPSK)
        x = np.concatenate([cb.codewords[n] for n in (5, 0, 15, 9)], axis=1)
        frame, h = transmit(x, 2, 1.0, 0.5, make_rng(1), fdt=0.05)
        res = ml_exhaustive_blocks(frame[None], h[None], cb, 1.0)
        for b, bits in enumerate(res.bits[0].reshape(4, 4)):
            sl = slice(2 * b, 2 * b + 2)
            metrics = [word_metric(frame[sl], h[sl], w, 1.0) for w in cb.codewords]
            n = int("".join(str(v) for v in bits), 2)
            assert metrics[n] == min(metrics)

    def test_metric_is_minimum(self):
        cb = alamouti_codebook(QPSK)
        frame, h = transmit(cb.codewords[9], 1, 1.0, 1.0, make_rng(2))
        res = ml_exhaustive_blocks(frame[None], h[None], cb, 1.0)
        metrics = [word_metric(frame, h, w, 1.0) for w in cb.codewords]
        # np.argmin takes the first index of equal minima
        want = patterns_to_bits(np.array([np.argmin(metrics)]), cb.bits_per_codeword)
        np.testing.assert_array_equal(res.bits[0], want)

    def test_single_word_codebook(self):
        from stclab.stcodes import BlockCodebook

        cb = BlockCodebook("one", np.eye(2)[None], 0)
        frame, h = transmit(np.eye(2, dtype=complex), 1, 1.0, 1.0, make_rng(3))
        res = ml_exhaustive_blocks(frame[None], h[None], cb, 1.0)
        assert res.bits.size == 0

    def test_blocks_match_per_block_ml(self):
        cb = golden_codebook(QPSK)
        rng = make_rng(4)
        idx = rng.integers(0, 256, size=5)
        x = np.concatenate([cb.codewords[n] for n in idx], axis=1)
        frame, h = transmit(x, 2, 2.0, 1.0, make_rng(5))
        whole = ml_exhaustive_blocks(frame[None], h[None], cb, 2.0)
        bits = []
        for b in range(5):
            sl = slice(2 * b, 2 * b + 2)
            bits.append(ml_exhaustive_blocks(frame[None, sl], h[None, sl], cb, 2.0).bits[0])
        np.testing.assert_array_equal(whole.bits[0], np.concatenate(bits))

    def test_tie_breaks_to_lowest_index(self):
        from stclab.stcodes import BlockCodebook

        w = np.zeros((2, 1, 1), dtype=complex)
        w[0, 0, 0] = 1.0
        w[1, 0, 0] = -1.0
        cb = BlockCodebook("pair", w, 1)
        y = np.zeros((1, 1), dtype=complex)  # equidistant from both words
        h = np.ones((1, 1, 1), dtype=complex)
        res = ml_exhaustive_blocks(y[None], h[None], cb, 1.0)
        np.testing.assert_array_equal(res.bits[0], [0])


class TestSlicedKernel:
    CODEBOOKS = {
        "alamouti_qpsk": lambda: alamouti_codebook(QPSK),
        "golden_qpsk": lambda: golden_codebook(QPSK),
        "spatial_multiplex_16qam": lambda: spatial_multiplex_codebook(QAM16),
        # given per-column, so a static H takes the column-prediction path
        "trellis_paths_4": lambda: trellis_path_codebook(load_packaged_trellis(), 4),
    }

    # u * lr per block: alamouti and golden 2 to 8, spatial multiplexing
    # 1 to 4, trellis paths 5 to 20
    @pytest.mark.parametrize("slice_elements", [demod.ML_SLICE_ELEMENTS, 40])
    @pytest.mark.parametrize("fdt", [0.0, 0.02])
    @pytest.mark.parametrize("lr", [1, 2, 3, 4])
    @pytest.mark.parametrize("name", sorted(CODEBOOKS))
    def test_bitwise_equal_to_one_shot(self, name, lr, fdt, slice_elements, monkeypatch):
        # a 40-element cap forces one codeword per slice, so the cross-slice
        # merge decides every block
        monkeypatch.setattr(demod, "ML_SLICE_ELEMENTS", slice_elements)
        cb = self.CODEBOOKS[name]()
        for t in range(6):
            rng = make_rng(7000 + t)
            idx = rng.integers(0, cb.size, size=12)
            x = np.concatenate([cb.codewords[n] for n in idx], axis=1)
            es = 10 ** (rng.uniform(-2, 15) / 10)
            frame, h = transmit(x, lr, es, 1.0, make_rng(8000 + t), fdt=fdt)
            assert np.all(h == h[0]) == (fdt == 0.0)
            res = ml_exhaustive_blocks(frame[None], h[None], cb, es)
            np.testing.assert_array_equal(res.bits[0], one_shot_ml_blocks(frame, h, cb, es))
            assert res.visited == 12 * cb.size

    def test_sum_terms_adds_in_np_sum_order(self):
        # np.sum over a contiguous axis of 1 to 300 terms: in sequence, then
        # 8 running sums from 8 terms, then split in two above 128
        rng = make_rng(26)
        for terms in range(1, 301):
            planes = rng.standard_normal((terms, 3, 5)) ** 2
            planes *= 10.0 ** rng.uniform(-8, 8, size=(terms, 1, 1))
            want = np.sum(np.ascontiguousarray(np.moveaxis(planes, 0, -1)), axis=-1)
            got = demod._sum_terms(planes.copy())
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_zero_channel_decides_index_zero_across_slices(self, monkeypatch):
        monkeypatch.setattr(demod, "ML_SLICE_ELEMENTS", 64)
        cb = golden_codebook(QPSK)
        nb = 10
        y = make_rng(21).standard_normal((2 * nb, 2)) + 0j
        h = np.zeros((2 * nb, 2, 2), dtype=complex)
        # 64 // (10 blocks * 2 uses * 2 antennas) = 1 word per slice
        res = ml_exhaustive_blocks(y[None], h[None], cb, 3.0)
        np.testing.assert_array_equal(res.bits[0], np.zeros(8 * nb, dtype=int))

    def test_long_sixteen_qam_golden_frame_stays_under_memory_cap(self):
        # 150 blocks x 65,536 words: the one-shot einsum needed ~1.5 GB
        cb = golden_codebook(QAM16)
        nb = 150
        idx = make_rng(22).integers(0, cb.size, size=nb)
        x = np.concatenate([cb.codewords[n] for n in idx], axis=1)
        frame, h = transmit(x, 2, 10.0, 1e-20, make_rng(23))
        tracemalloc.start()
        try:
            res = ml_exhaustive_blocks(frame[None], h[None], cb, 10.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 100 * 2**20
        np.testing.assert_array_equal(res.bits[0], patterns_to_bits(idx, 16))


class TestVaryingKernel:
    """Exact ML under a time-varying H, with the longer of the word and
    block axes innermost."""

    CODEBOOKS = {
        "golden_qpsk": lambda: golden_codebook(QPSK),
        "spatial_multiplex_qpsk_lt3": lambda: spatial_multiplex_codebook(QPSK, lt=3),
        "trellis_paths_4": lambda: trellis_path_codebook(load_packaged_trellis(), 4),
    }

    # u * lr per block: golden 2, 6, 8; spatial multiplexing 1, 3, 4;
    # trellis paths 5, 15, 20 (np.sum's pairwise order starts at 8 terms)
    @pytest.mark.parametrize(
        "tiles", [(demod.ML_SLICE_ELEMENTS, demod.ML_TILE_ELEMENTS), (300, 100)]
    )
    @pytest.mark.parametrize("lr", [1, 3, 4])
    @pytest.mark.parametrize("name", sorted(CODEBOOKS))
    def test_bitwise_equal_to_one_shot(self, name, lr, tiles, monkeypatch):
        # the small caps give slices of fewer words than blocks (so the
        # blocks run innermost), each in several chunks
        monkeypatch.setattr(demod, "ML_SLICE_ELEMENTS", tiles[0])
        monkeypatch.setattr(demod, "ML_TILE_ELEMENTS", tiles[1])
        cb = self.CODEBOOKS[name]()
        for t in range(4):
            rng = make_rng(9000 + t)
            idx = rng.integers(0, cb.size, size=7)
            x = np.concatenate([cb.codewords[n] for n in idx], axis=1)
            es = 10 ** (rng.uniform(-2, 15) / 10)
            frame, h = transmit(x, lr, es, 1.0, make_rng(9100 + t), fdt=0.05)
            assert not np.all(h == h[0])
            res = ml_exhaustive_blocks(frame[None], h[None], cb, es)
            np.testing.assert_array_equal(res.bits[0], one_shot_ml_blocks(frame, h, cb, es))
            assert res.visited == 7 * cb.size

    @pytest.mark.parametrize("h_kind", ["per block", "static", "per use"])
    @pytest.mark.parametrize("nb, n", [(6, 11), (11, 6)])
    @pytest.mark.parametrize(
        "u, lr, lt",
        [(1, 1, 1), (2, 2, 2), (3, 3, 2), (9, 4, 3), (32, 4, 2), (34, 4, 2), (41, 5, 2)],
    )
    def test_metrics_equal_einsum_sum(self, u, lr, lt, nb, n, h_kind, monkeypatch):
        # every metric, for 1 to 205 terms per block: above 128, np.sum
        # splits the terms in two before its 8-way sums.  More words than
        # blocks puts the words innermost, fewer puts the blocks there.  An
        # H of one row is shared by every block, the same at every use (a
        # quasi-static frame) or not, and words given by their columns are
        # scored both from the words and from the columns.
        monkeypatch.setattr(demod, "ML_TILE_ELEMENTS", 1000)
        rng = make_rng(u * 100 + lr)

        def cn(*shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        yb, hb, words = cn(nb, u, lr), cn(nb, u, lr, lt), cn(n, lt, u)
        gathers = [()]
        if h_kind != "per block":
            hb = cn(1, u, lr, lt)
            if h_kind == "static":
                hb = np.broadcast_to(hb[:, :1], hb.shape)
            columns, column_index = cn(7, lt), rng.integers(0, 7, size=(n, u))
            words = columns[column_index].transpose(0, 2, 1)
            gathers.append((columns, column_index))
        es = 2.7
        pred = np.sqrt(es) * np.einsum("bkij,njk->bnki", hb, words)
        want = np.sum(np.abs(yb[:, None] - pred) ** 2, axis=(2, 3))
        for gather in gathers:
            got = demod._varying_metrics(yb, hb, words, es, *gather)
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("lr", [1, 2, 4])
    def test_one_block_path_frame_bitwise_equal_to_one_shot(self, lr):
        # exhaustive ML over a path codebook decides one block a frame, so a
        # time-varying H comes as one row and the columns are gathered per use
        cb = trellis_path_codebook(load_packaged_trellis(), 4)
        for t in range(6):
            rng = make_rng(9200 + t)
            n = int(rng.integers(0, cb.size))
            es = 10 ** (rng.uniform(-2, 15) / 10)
            frame, h = transmit(cb.codewords[n], lr, es, 1.0, make_rng(9300 + t), fdt=0.05)
            assert not np.all(h == h[0])
            res = ml_exhaustive_blocks(frame[None], h[None], cb, es)
            np.testing.assert_array_equal(res.bits[0], one_shot_ml_blocks(frame, h, cb, es))

    def test_long_sixteen_qam_golden_frame_stays_under_memory_cap(self):
        # 40 blocks x 65,536 words: one einsum over them needed ~170 MB
        cb = golden_codebook(QAM16)
        nb = 40
        idx = make_rng(24).integers(0, cb.size, size=nb)
        x = np.concatenate([cb.codewords[n] for n in idx], axis=1)
        frame, h = transmit(x, 2, 10.0, 1e-20, make_rng(25), fdt=0.01)
        tracemalloc.start()
        try:
            res = ml_exhaustive_blocks(frame[None], h[None], cb, 10.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 100 * 2**20
        np.testing.assert_array_equal(res.bits[0], patterns_to_bits(idx, 16))


class TestScreen:
    """The matrix-product screen of exhaustive ML: it settles only the
    blocks whose direct-metric argmin it proves, and the direct scan
    decides the rest, so every decision stays the direct metric's."""

    CODEBOOKS = {**TestSlicedKernel.CODEBOOKS, **TestVaryingKernel.CODEBOOKS}

    @pytest.mark.parametrize("es", [1e-3, 1.0, 1e3, 1e20], ids=["-30dB", "0dB", "30dB", "200dB"])
    @pytest.mark.parametrize("fdt", [0.0, 0.02])
    @pytest.mark.parametrize("lr", [1, 2, 3, 4])
    @pytest.mark.parametrize("name", sorted(CODEBOOKS))
    def test_decisions_bitwise_equal_to_one_shot(self, name, lr, fdt, es):
        cb = self.CODEBOOKS[name]()
        for t in range(3):
            idx = make_rng(9400 + t).integers(0, cb.size, size=9)
            x = np.concatenate([cb.codewords[n] for n in idx], axis=1)
            frame, h = transmit(x, lr, es, 1.0, make_rng(9500 + t), fdt=fdt)
            res = ml_exhaustive_blocks(frame[None], h[None], cb, es)
            np.testing.assert_array_equal(res.bits[0], one_shot_ml_blocks(frame, h, cb, es))
            assert res.visited == 9 * cb.size

    @staticmethod
    def blocks(cb, lr, es, seed, fdt=0.0, nb=9):
        idx = make_rng(seed).integers(0, cb.size, size=nb)
        x = np.concatenate([cb.codewords[n] for n in idx], axis=1)
        frame, h = transmit(x, lr, es, 1.0, make_rng(seed + 1), fdt=fdt)
        u = cb.n_uses
        hb = h.reshape(nb, u, lr, -1)
        return frame.reshape(nb, u, lr), hb[:1] if fdt == 0.0 else hb

    @pytest.mark.parametrize("fdt", [0.0, 0.02])
    # the block codebooks, whose words come in pairs x, -x
    @pytest.mark.parametrize("name", sorted(set(CODEBOOKS) - {"trellis_paths_4"}))
    def test_small_slices_keep_the_two_smallest(self, name, fdt, monkeypatch):
        # one or a few words per slice: the running pair of smallest
        # screened values must give what one slice of every word gives.  A
        # block received as y = 0 screens each word x and -x alike, so the
        # screen must leave it unsettled however the words are sliced.
        cb = self.CODEBOOKS[name]()
        for t, es in enumerate([1.0, 30.0, 1e4]):
            yb, hb = self.blocks(cb, 2, es, 9600 + 2 * t, fdt)
            yb[0] = 0.0
            whole = demod._screen(yb, hb, cb, es)
            k = demod._screen_coefficients(yb, hb, es).shape[1]
            assert demod.ML_SLICE_ELEMENTS // 8 // k >= cb.size
            assert whole[1].any() and not whole[1][0]
            for elements in (40, 24 * k):
                monkeypatch.setattr(demod, "ML_SLICE_ELEMENTS", elements)
                sliced = demod._screen(yb, hb, cb, es)
                np.testing.assert_array_equal(sliced[1], whole[1])
                np.testing.assert_array_equal(sliced[0][whole[1]], whole[0][whole[1]])
                monkeypatch.undo()

    @pytest.mark.parametrize("h_kind", ["static", "per block", "per use"])
    @pytest.mark.parametrize("name", sorted(CODEBOOKS))
    def test_bound_covers_the_direct_metric(self, name, h_kind):
        # |screened + ||y||^2 - M| <= eps / 8 for every word, with received
        # values, channel gains and Es each spread over many decades
        cb = self.CODEBOOKS[name]()
        lt, u = cb.codewords.shape[1:]
        nb = 6
        rng = make_rng(9700)

        def cn(*shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        feats, xi = demod._word_features(cb.codewords)
        for lr in (1, 2, 4):
            for _ in range(4):
                es = 10 ** rng.uniform(-3, 20)
                hb = cn(nb, u, lr, lt) * 10 ** rng.uniform(-4, 4, (nb, u, lr, lt))
                if h_kind == "static":
                    hb = np.broadcast_to(hb[:1, :1], (1, u, lr, lt))
                elif h_kind == "per use":
                    hb = hb[:1]
                words = cb.codewords[rng.integers(0, cb.size, nb)]
                pred = np.einsum("bkij,bjk->bki", np.broadcast_to(hb, (nb, u, lr, lt)), words)
                yb = np.sqrt(es) * pred + cn(nb, u, lr) * 10 ** rng.uniform(-6, 6, (nb, 1, 1))
                screened = demod._screen_coefficients(yb, hb, es) @ feats
                metric = demod._varying_metrics(yb, hb, cb.codewords, es)
                y_energy = [math.fsum(v) for v in np.abs(yb.reshape(nb, -1)) ** 2]
                err = np.abs(screened + np.array(y_energy)[:, None] - metric).max(axis=1)
                eps = demod._screen_eps(yb, hb, es, xi)
                assert np.all(np.isfinite(eps))
                assert np.all(8 * err <= eps)

    @pytest.mark.parametrize("name", ["alamouti_qpsk", "golden_qpsk", "spatial_multiplex_16qam"])
    def test_null_space_ties_keep_todays_decisions(self, name, monkeypatch):
        # a rank-1 H, one row b^H per use orthogonal to the difference of
        # two words, predicts them alike, and noise-free frames put y on
        # that prediction: the screen cannot settle such a block
        cb = self.CODEBOOKS[name]()
        rng = make_rng(9800)
        scanned = []
        scan = demod._direct_scan
        monkeypatch.setattr(
            demod, "_direct_scan", lambda yb, *a: scanned.append(len(yb)) or scan(yb, *a)
        )
        for _ in range(5):
            a, b = rng.choice(cb.size, size=2, replace=False)
            diff = cb.codewords[a] - cb.codewords[b]
            # h_k = c_k [d_1k, -d_0k] has H_k (x_a - x_b)_k = 0 at every use
            h = rng.standard_normal((cb.n_uses, 1, 1)) * np.stack([diff[1], -diff[0]], 1)[:, None]
            frame = 3.0 * np.einsum("kij,jk->ki", h, cb.codewords[max(a, b)])
            res = ml_exhaustive_blocks(frame[None], h[None], cb, 9.0)
            np.testing.assert_array_equal(res.bits[0], one_shot_ml_blocks(frame, h, cb, 9.0))
        assert scanned and all(n == 1 for n in scanned)

    @pytest.mark.parametrize("bad", ["y nan", "y inf", "h nan", "h inf"])
    def test_non_finite_inputs_keep_todays_decisions(self, bad):
        cb = golden_codebook(QPSK)
        idx = make_rng(9900).integers(0, cb.size, size=6)
        x = np.concatenate([cb.codewords[n] for n in idx], axis=1)
        frame, h = transmit(x, 2, 10.0, 1.0, make_rng(9901), fdt=0.02)
        # use 4, block 2 of 6
        (h if bad.startswith("h") else frame)[4, 0] = np.nan if bad.endswith("nan") else np.inf
        with np.errstate(invalid="ignore", over="ignore"):
            res = ml_exhaustive_blocks(frame[None], h[None], cb, 10.0)
            want = one_shot_ml_blocks(frame, h, cb, 10.0)
        np.testing.assert_array_equal(res.bits[0], want)


class TestScreenKeepsDeciding:
    """Benchmark-like frames: the screen settles nearly every block, so a
    change that sends every block to the direct scan fails here."""

    @pytest.mark.parametrize(
        "config",
        [
            # golden-decode's 16QAM frame: 30 blocks of 65,536 words
            "code = golden\nconstellation = 16QAM\nlr = 2\nframe_uses = 60\n"
            "tx_geometry = 0,0; 0.05,0\nrx_geometry = 0,0; 0.05,0\nebn0_db = 12\n",
            # doppler-pilot's golden QPSK frame: Clarke fading, pilot CSI
            "code = golden\nconstellation = QPSK\nlr = 2\nchannel = clarke_varying\n"
            "fdt = 0.01\ntx_geometry = tx_linear_1.0\nrx_geometry = rx_square_0.5\n"
            "csi = pilot\npilot.count = 72\npilot.taps = 20\npilot.design_fdt = 0.01\n"
            "pilot.design_snr_db = 12\nebn0_db = 10\n",
        ],
        ids=["golden_16qam_quasi_static", "golden_qpsk_clarke_pilot"],
    )
    def test_few_blocks_reach_the_direct_scan(self, config, monkeypatch):
        setup = build_setup(parse_config(config))
        scanned = []
        metrics = demod._varying_metrics
        monkeypatch.setattr(
            demod, "_varying_metrics",
            lambda yb, *a: scanned.append(len(yb)) or metrics(yb, *a),
        )
        frames = [0, 1]
        simulate_frames(setup, 0, frames, _es_for(setup, setup.cfg.ebn0_db[0]))
        # a block scanned directly is one call of a single slice here
        assert sum(scanned) <= 2 * len(frames)


class TestViterbi:
    def test_noiseless_round_trip(self):
        code = load_packaged_trellis()
        rng = make_rng(6)
        bits = rng.integers(0, 2, size=60)
        x = encode_trellis(bits[None], code)[0]
        frame, h = transmit(x, 2, 4.0, 1e-20, make_rng(7))
        res = viterbi_decode(frame[None], h[None], code, 4.0)
        np.testing.assert_array_equal(res.bits[0], bits)

    def test_matches_path_codebook_ml_noisy(self):
        # brute force over all 4^6 terminated paths is the ML oracle
        code = load_packaged_trellis()
        n_steps = 6
        cb = trellis_path_codebook(code, n_steps)
        mismatch = 0
        for t in range(120):
            rng = make_rng(1000 + t)
            bits = rng.integers(0, 2, size=2 * n_steps)
            x = encode_trellis(bits[None], code)[0]
            es = 10 ** (rng.uniform(-2, 12) / 10)
            frame, h = transmit(x, 2, es, 1.0, make_rng(5000 + t))
            vd = viterbi_decode(frame[None], h[None], code, es)
            ml = ml_exhaustive_blocks(frame[None], h[None], cb, es)
            if not np.array_equal(vd.bits, ml.bits):
                mismatch += 1
        assert mismatch == 0

    @pytest.mark.parametrize("lr", [1, 2, 9])
    def test_branch_metrics_bitwise_equal_per_frame_einsum(self, lr):
        # the branch metrics as viterbi_decode computes them, one call for
        # a batch of frames, against the per-frame einsum they replaced
        code = load_packaged_trellis()
        cand = code.constellation.points[code.out_idx] / np.sqrt(code.lt)
        rng = make_rng(40 + lr)
        y = rng.standard_normal((3, 50, lr)) + 1j * rng.standard_normal((3, 50, lr))
        h = rng.standard_normal((3, 50, lr, 2)) + 1j * rng.standard_normal((3, 50, lr, 2))
        es = 1.9
        want = np.empty((3, 50, code.n_states, code.n_inputs))
        for f in range(3):
            pred = np.sqrt(es) * np.einsum("kij,suj->ksui", h[f], cand)
            want[f] = np.sum(np.abs(y[f, :, None, None, :] - pred) ** 2, axis=3)
        got = demod._varying_metrics(
            y.reshape(-1, 1, lr), h.reshape(-1, 1, lr, 2), cand.reshape(-1, 2, 1), es
        ).reshape(want.shape)
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_zero_length_data(self):
        code = load_packaged_trellis()
        x = encode_trellis(np.array([], dtype=int)[None], code)[0]
        frame, h = transmit(x, 1, 1.0, 1.0, make_rng(8))
        res = viterbi_decode(frame[None], h[None], code, 1.0)
        assert res.bits.size == 0

    def test_time_varying_channel(self):
        code = load_packaged_trellis()
        rng = make_rng(9)
        bits = rng.integers(0, 2, size=40)
        x = encode_trellis(bits[None], code)[0]
        frame, h = transmit(x, 2, 100.0, 1e-18, make_rng(10), fdt=0.01)
        res = viterbi_decode(frame[None], h[None], code, 100.0)
        np.testing.assert_array_equal(res.bits[0], bits)

    def test_multi_step_tails_match_path_codebook_ml(self):
        # random 8-state codes whose end states take different tails of 2
        # or more steps: every state's tail metric must land on its own
        # total for the decisions to be the brute-force ML ones
        tails = set()
        for seed in range(12):
            rng = make_rng(300 + seed)
            lines = ["trellis 8 1 2 QPSK"]
            for state in range(8):
                outs = rng.choice(16, size=2, replace=False)
                for u in range(2):
                    lines.append(f"{state} {u} {rng.integers(8)} {outs[u] // 4} {outs[u] % 4}")
            try:
                code = load_trellis("\n".join(lines))
            except InputError:  # some state cannot reach state 0
                continue
            if code.n_term_steps < 2:
                continue
            tails.add(code.n_term_steps)
            cb = trellis_path_codebook(code, 4)
            for t in range(8):
                bits = rng.integers(0, 2, size=4)
                x = encode_trellis(bits[None], code)[0]
                frame, h = transmit(x, 2, 3.0, 1.0, make_rng(900 + 10 * seed + t))
                vd = viterbi_decode(frame[None], h[None], code, 3.0)
                ml = ml_exhaustive_blocks(frame[None], h[None], cb, 3.0)
                np.testing.assert_array_equal(vd.bits, ml.bits)
        assert len(tails) >= 2

    def test_length_check(self):
        code = load_packaged_trellis()
        y = np.zeros((4, 1), dtype=complex)
        h = np.zeros((5, 1, 2), dtype=complex)
        with pytest.raises(InputError):
            viterbi_decode(y[None], h[None], code, 1.0)


class TestSphere:
    def test_noiseless_recovery(self):
        ld = dispersion_code(QPSK, 4, encode_golden)
        cb = golden_codebook(QPSK)
        for n in (0, 3, 200):
            frame, h = transmit(cb.codewords[n], 2, 4.0, 1e-20, make_rng(20 + n))
            res = sphere_decode(frame[None], h[None], ld, 4.0)
            np.testing.assert_array_equal(res.bits[0], patterns_to_bits(np.array([n]), 8))

    def test_matches_ml_noisy(self):
        ld = dispersion_code(QPSK, 4, encode_golden)
        cb = golden_codebook(QPSK)
        for t in range(400):
            rng = make_rng(30000 + t)
            n = int(rng.integers(0, 256))
            es = 10 ** (rng.uniform(-2, 20) / 10)
            frame, h = transmit(cb.codewords[n], 2, es, 1.0, make_rng(40000 + t))
            sd = sphere_decode(frame[None], h[None], ld, es)
            ml = ml_exhaustive_blocks(frame[None], h[None], cb, es)
            np.testing.assert_array_equal(sd.bits, ml.bits)

    def test_sixteen_qam_matches_ml(self):
        ld = dispersion_code(QAM16, 2, partial(encode_spatial_multiplex, lt=2))
        cb = spatial_multiplex_codebook(QAM16, lt=2)
        for t in range(100):
            rng = make_rng(50000 + t)
            n = int(rng.integers(0, 256))
            es = 10 ** (rng.uniform(0, 18) / 10)
            frame, h = transmit(cb.codewords[n], 2, es, 1.0, make_rng(60000 + t))
            sd = sphere_decode(frame[None], h[None], ld, es)
            ml = ml_exhaustive_blocks(frame[None], h[None], cb, es)
            np.testing.assert_array_equal(sd.bits, ml.bits)

    def test_visited_falls_with_snr(self):
        ld = dispersion_code(QPSK, 4, encode_golden)
        cb = golden_codebook(QPSK)

        def mean_visited(es_db, seed0):
            total = 0
            for t in range(60):
                rng = make_rng(seed0 + t)
                n = int(rng.integers(0, 256))
                es = 10 ** (es_db / 10)
                frame, h = transmit(cb.codewords[n], 2, es, 1.0, make_rng(seed0 + 500 + t))
                total += sphere_decode(frame[None], h[None], ld, es).visited
            return total / 60

    # high SNR shrinks the search radius, so fewer nodes are expanded
        lo, hi = mean_visited(0.0, 70000), mean_visited(30.0, 80000)
        assert hi < lo
        assert hi < 256  # beats enumerating the codebook

    def test_rank_deficient_channel_falls_back(self):
        ld = dispersion_code(QPSK, 4, encode_golden)
        cb = golden_codebook(QPSK)
        h = np.zeros((2, 2, 2), dtype=complex)  # lr x lt all zero: degenerate
        y = np.zeros((2, 2), dtype=complex)
        res = sphere_decode(y[None], h[None], ld, 1.0)
        assert res.degenerate == 1
        # every word has metric 0; ties resolve to the lowest codeword index
        np.testing.assert_array_equal(res.bits[0], np.zeros(8, dtype=int))

    def test_rejects_underdetermined_receiver(self):
        # 1 rx antenna, 4 real unknowns per 2 real observations: need lr >= lt
        ld = dispersion_code(QPSK, 4, encode_golden)
        cb = golden_codebook(QPSK)
        frame, h = transmit(cb.codewords[0], 1, 1.0, 1.0, make_rng(11))
        res_ok = ml_exhaustive_blocks(frame[None], h[None], cb, 1.0)
        assert res_ok.bits.shape == (1, 8)
        with pytest.raises(InputError):
            sphere_decode(frame[None], h[None], ld, 1.0)

    def test_rejects_plain_codebook(self):
        cb = golden_codebook(QPSK)
        frame, h = transmit(cb.codewords[0], 2, 1.0, 1.0, make_rng(12))
        with pytest.raises(InputError):
            sphere_decode(frame[None], h[None], cb, 1.0)


    CODES = {
        "golden_qpsk": lambda: (
            dispersion_code(QPSK, 4, encode_golden), golden_codebook(QPSK)
        ),
        "golden_16qam": lambda: (
            dispersion_code(QAM16, 4, encode_golden), golden_codebook(QAM16)
        ),
        "spatial_multiplex_16qam": lambda: (
            dispersion_code(QAM16, 2, partial(encode_spatial_multiplex, lt=2)),
            spatial_multiplex_codebook(QAM16, lt=2),
        ),
    }

    @pytest.mark.parametrize("n0", [1.0, 1e-20], ids=["low_snr", "noise_free"])
    @pytest.mark.parametrize("fdt", [0.0, 0.02], ids=["quasi_static", "clarke"])
    @pytest.mark.parametrize("name", sorted(CODES))
    def test_frame_kernel_matches_per_block_decoder(self, name, fdt, n0):
        ld, cb = self.CODES[name]()
        es = 10 ** (2.0 / 10) if n0 == 1.0 else 4.0
        for t in range(3):
            rng = make_rng(31000 + t)
            idx = rng.integers(0, cb.size, size=24 // ld.n_uses)
            x = np.concatenate([cb.codewords[n] for n in idx], axis=1)
            frame, h = transmit(x, 2, es, n0, make_rng(32000 + t), fdt=fdt)
            res = sphere_decode(frame[None], h[None], ld, es)
            bits, visited, degenerate = per_block_sphere_decode(frame, h, ld, es)
            np.testing.assert_array_equal(res.bits[0], bits)
            assert res.visited == visited
            assert res.degenerate == degenerate
            ml = ml_exhaustive_blocks(frame[None], h[None], cb, es)
            np.testing.assert_array_equal(res.bits, ml.bits)
            if n0 < 1.0:
                want = patterns_to_bits(idx, cb.bits_per_codeword)
                np.testing.assert_array_equal(res.bits[0], want)

    def test_degenerate_block_inside_frame(self):
        ld = dispersion_code(QPSK, 4, encode_golden)
        cb = golden_codebook(QPSK)
        idx = make_rng(33).integers(0, cb.size, size=5)
        x = np.concatenate([cb.codewords[n] for n in idx], axis=1)
        frame, h = transmit(x, 2, 3.0, 1.0, make_rng(34), fdt=0.02)
        h[4:6] = 0.0  # block 2 of 5 sees no channel at all
        res = sphere_decode(frame[None], h[None], ld, 3.0)
        assert res.degenerate == 1
        blocks = res.bits[0].reshape(5, 8)
        np.testing.assert_array_equal(blocks[2], np.zeros(8, dtype=int))
        visited = 0
        for b in range(5):
            sl = slice(2 * b, 2 * b + 2)
            one = sphere_decode(frame[None, sl], h[None, sl], ld, 3.0)
            np.testing.assert_array_equal(blocks[b], one.bits[0])
            assert one.degenerate == (b == 2)
            visited += one.visited
        assert res.visited == visited

    @staticmethod
    def rank_deficient_batch(cb, es, rng, n_frames=4, n_blocks=25, rank_one=None):
        """Frames of random words whose blocks each see their own 2 x 2
        channel, with two identical transmit columns where ``rank_one``
        (frames, blocks) is true (every block by default)."""
        u = cb.n_uses
        h = (rng.standard_normal((n_frames, n_blocks, 2, 2, 2)) @ [1, 1j]) / np.sqrt(2)
        if rank_one is None:
            rank_one = np.ones((n_frames, n_blocks), dtype=bool)
        h[rank_one, :, 1] = h[rank_one, :, 0]
        h = np.repeat(h, u, axis=1)
        x = cb.codewords[rng.integers(0, cb.size, size=(n_frames, n_blocks))]
        x = x.transpose(0, 2, 1, 3).reshape(n_frames, 2, n_blocks * u)
        y = apply_channel(x, h, es, [make_rng(n) for n in rng.integers(0, 2**32, n_frames)])
        return y, h

    @pytest.mark.parametrize("es", [1.0, 10.0])
    @pytest.mark.parametrize("name", ["golden_qpsk", "spatial_multiplex_16qam"])
    def test_rank_deficient_channels_match_ml(self, name, es):
        # two identical transmit columns make many words tie to within a
        # rounding; the degenerate blocks are decided as exhaustive ML does
        ld, cb = self.CODES[name]()
        y, h = self.rank_deficient_batch(cb, es, make_rng(41))
        res = sphere_decode(y, h, ld, es)
        ml = ml_exhaustive_blocks(y, h, cb, es)
        np.testing.assert_array_equal(res.bits, ml.bits)
        assert (res.visited, res.degenerate) == (ml.visited, 4)

    def test_mixed_rank_batch_matches_ml(self):
        ld, cb = self.CODES["spatial_multiplex_16qam"]()
        rank_one = make_rng(42).random((4, 25)) < 0.3
        rank_one[2] = False  # one frame of full-rank blocks only
        y, h = self.rank_deficient_batch(cb, 3.0, make_rng(43), rank_one=rank_one)
        res = sphere_decode(y, h, ld, 3.0)
        np.testing.assert_array_equal(res.bits, ml_exhaustive_blocks(y, h, cb, 3.0).bits)
        assert res.degenerate == 3

    def test_codebook_is_built_only_for_a_degenerate_block(self, monkeypatch):
        ld, cb = self.CODES["golden_qpsk"]()
        built = []
        build = stcodes._block_codebook
        monkeypatch.setattr(
            stcodes, "_block_codebook", lambda *a: built.append(a) or build(*a)
        )
        rank_one = np.zeros((2, 5), dtype=bool)
        y, h = self.rank_deficient_batch(cb, 3.0, make_rng(44), 2, 5, rank_one)
        assert sphere_decode(y, h, ld, 3.0).degenerate == 0
        assert built == []
        rank_one[1, 3] = True
        y, h = self.rank_deficient_batch(cb, 3.0, make_rng(44), 2, 5, rank_one)
        assert sphere_decode(y, h, ld, 3.0).degenerate == 1
        assert len(built) == 1

    def test_codebook_is_built_once_per_code(self, monkeypatch):
        # two degenerate batches on one code build its codebook once
        ld = dispersion_code(QPSK, 4, encode_golden)
        built = []
        check = stcodes.BlockCodebook.__post_init__
        monkeypatch.setattr(
            stcodes.BlockCodebook, "__post_init__", lambda cb: built.append(cb.name) or check(cb)
        )
        y, h = np.zeros((1, 2, 2), complex), np.zeros((1, 2, 2, 2), complex)
        for _ in range(2):
            assert sphere_decode(y, h, ld, 1.0).degenerate == 1
        assert built == ["dispersion"]

    def test_zero_channel_fallback_stays_small(self):
        # 2^20 words of spatial multiplexing over 5 antennas: the codebook
        # is 80 MiB, and exhaustive ML scans it in slices
        ld = dispersion_code(QAM16, 5, partial(encode_spatial_multiplex, lt=5))
        y, h = np.zeros((1, 1, 5), complex), np.zeros((1, 1, 5, 5), complex)
        tracemalloc.start()
        try:
            res = sphere_decode(y, h, ld, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 * 2**20
        assert (res.visited, res.degenerate) == (2**20, 1)
        np.testing.assert_array_equal(res.bits, np.zeros((1, 20), dtype=int))

    def test_rejects_constellation_without_lattice_form(self):
        psk8 = Constellation("8PSK", np.exp(2j * np.pi * np.arange(8) / 8), 3)
        ld = dispersion_code(psk8, 2, partial(encode_spatial_multiplex, lt=2))
        y, h = np.ones((1, 1, 2), complex), np.ones((1, 1, 2, 2), complex)
        with pytest.raises(InputError):
            sphere_decode(y, h, ld, 1.0)

    MIXED = {
        "golden_16qam_compact_pair": lambda: (
            dispersion_code(QAM16, 4, encode_golden), 2, "0,0; 0.05,0"
        ),
        "spatial_multiplex_16qam_3x3": lambda: (
            dispersion_code(QAM16, 3, partial(encode_spatial_multiplex, lt=3)), 3, "white"
        ),
    }

    @pytest.mark.parametrize("snr_db", [0.0, 12.0])
    @pytest.mark.parametrize("name", sorted(MIXED))
    def test_mixed_depth_batch_matches_per_block_decoder(self, name, snr_db, monkeypatch):
        # the blocks of one batch finish far apart: golden 16QAM at 0 dB
        # visits 20,026 nodes in its deepest block and 2,339 on average
        ld, lr, geometry = self.MIXED[name]()
        c = ld.constellation
        es = 10 ** (snr_db / 10)
        idx = make_rng(37).integers(0, c.size, size=(20, 4, ld.n_syms))
        x = np.einsum("fbm,mjk->fjbk", c.points[idx], ld.basis)
        sent = [
            transmit(xf.reshape(xf.shape[0], -1), lr, es, 1e-20 if f == 7 else 1.0,
                     make_rng(3800 + f), geometry=geometry)
            for f, xf in enumerate(x)
        ]
        y = np.array([frame for frame, _ in sent])
        h = np.array([hf for _, hf in sent])
        h[3, : ld.n_uses] = 0.0  # frame 3's first block sees no channel
        searches = []
        search = demod._lockstep_search
        monkeypatch.setattr(
            demod, "_lockstep_search", lambda *a: searches.append(search(*a)) or searches[-1]
        )
        res = sphere_decode(y, h, ld, es)
        # the searched blocks' visits, with the full scan of frame 3's first block
        nodes = np.insert(searches[0][1], 3 * 4, c.size**ld.n_syms).reshape(20, 4)
        for f in range(20):
            bits, visited, degenerate = per_block_sphere_decode(y[f], h[f], ld, es)
            np.testing.assert_array_equal(res.bits[f], bits)
            assert (nodes[f].sum(), degenerate) == (visited, f == 3)
        assert (res.visited, res.degenerate) == (nodes.sum(), 1)
        want = patterns_to_bits(idx[7].reshape(-1), c.bits_per_symbol)
        np.testing.assert_array_equal(res.bits[7], want)  # the noise-free frame

    @staticmethod
    def mixed_channel_batch(ld, es):
        """Five frames of six blocks over two receive antennas: frames 0 and
        1 quasi-static, 2 Clarke fading, 3 quasi-static with an all-zero H,
        4 quasi-static but for a zero first block."""
        c = ld.constellation
        idx = make_rng(45).integers(0, c.size, size=(5, 6, ld.n_syms))
        x = np.einsum("fbm,mjk->fjbk", c.points[idx], ld.basis)
        sent = [
            transmit(xf.reshape(xf.shape[0], -1), 2, es, 1.0, make_rng(4600 + f),
                     fdt=0.02 if f == 2 else 0.0, geometry="0,0; 0.05,0")
            for f, xf in enumerate(x)
        ]
        y = np.array([frame for frame, _ in sent])
        h = np.array([hf for _, hf in sent])
        h[3] = 0.0
        h[4, : ld.n_uses] = 0.0
        return y, h

    @pytest.mark.parametrize("name", ["golden_qpsk", "spatial_multiplex_16qam"])
    def test_shared_lattices_match_per_block_decoder(self, name):
        ld, _ = self.CODES[name]()
        y, h = self.mixed_channel_batch(ld, 3.0)
        res = sphere_decode(y, h, ld, 3.0)
        visited = degenerate = 0
        for f in range(5):
            bits, want_visited, want_degenerate = per_block_sphere_decode(y[f], h[f], ld, 3.0)
            one = sphere_decode(y[f : f + 1], h[f : f + 1], ld, 3.0)
            np.testing.assert_array_equal(one.bits[0], bits)
            np.testing.assert_array_equal(res.bits[f], bits)
            assert (one.visited, one.degenerate) == (want_visited, want_degenerate)
            assert want_degenerate == (f in (3, 4))
            visited, degenerate = visited + want_visited, degenerate + want_degenerate
        assert (res.visited, res.degenerate) == (visited, degenerate)

    def test_one_lattice_per_distinct_channel(self, monkeypatch):
        ld, _ = self.CODES["golden_qpsk"]()
        y, h = self.mixed_channel_batch(ld, 3.0)
        factored = []
        qr = np.linalg.qr
        monkeypatch.setattr(np.linalg, "qr", lambda a: factored.append(len(a)) or qr(a))
        sphere_decode(y, h, ld, 3.0)
        # frames 0, 1 and 3 have a constant H; frames 2 and 4 vary over six blocks
        assert factored == [3 + 2 * 6]

    def test_frame_length_must_hold_whole_words(self):
        ld = dispersion_code(QPSK, 4, encode_golden)
        frame, h = transmit(np.ones((2, 3), dtype=complex), 2, 1.0, 1.0, make_rng(35))
        with pytest.raises(InputError):
            sphere_decode(frame[None], h[None], ld, 1.0)

    def test_rejects_underdetermined_frame(self):
        ld = dispersion_code(QPSK, 4, encode_golden)
        cb = golden_codebook(QPSK)
        x = np.concatenate([cb.codewords[n] for n in (0, 1, 2)], axis=1)
        frame, h = transmit(x, 1, 1.0, 1.0, make_rng(36))
        with pytest.raises(InputError):
            sphere_decode(frame[None], h[None], ld, 1.0)


LATTICE_LEVELS = {
    "qpsk": demod._axis_levels(QPSK)[0],
    "16qam": demod._axis_levels(QAM16)[0],
    "qpsk_integer": np.array([-1.0, 1.0]),
    "16qam_integer": np.array([-3.0, -1.0, 1.0, 3.0]),
}


@st.composite
def triangular_systems(draw):
    """A batch of small upper-triangular systems whose centers often sit on
    a level or halfway between two, so that children and leaves tie."""
    levels = LATTICE_LEVELS[draw(st.sampled_from(sorted(LATTICE_LEVELS)))]
    half = levels[-1] / (levels.size - 1)  # half the level spacing
    nb, d = draw(st.integers(1, 4)), draw(st.integers(2, 6))

    def values(elements, n):
        return np.array(draw(st.lists(elements, min_size=n, max_size=n)))

    off = values(st.sampled_from([-1.0, -0.5, 0.0, 0.0, 0.5, 1.0]), nb * d * d)
    diag = values(st.sampled_from([0.5, 1.0, 2.0]), nb * d)
    r = np.triu(off.reshape(nb, d, d), 1) + diag.reshape(nb, d)[:, :, None] * np.eye(d)
    z = half * values(st.integers(-6, 6), nb * d).reshape(nb, d)
    return z, r, levels


class TestLockstepSearch:
    """The batch search visits what the scalar recursion visits, block by
    block: closest-first children in a stable order (equidistant levels
    ascending), and a child whose cost is not strictly below the best leaf
    ends its sibling loop."""

    @staticmethod
    def assert_matches_scalar(z, r, levels):
        v, visited = demod._lockstep_search(z, r, levels)
        for b in range(z.shape[0]):
            want_v, want_visited = _sphere_search(z[b].tolist(), r[b].tolist(), levels.tolist())
            np.testing.assert_array_equal(v[b], want_v)
            assert visited[b] == want_visited

    @pytest.mark.parametrize("name", sorted(LATTICE_LEVELS))
    def test_hand_built_ties(self, name):
        levels = LATTICE_LEVELS[name]
        mid = (levels[0] + levels[1]) / 2  # halfway between the two lowest levels
        for d in (2, 3, 5):
            eye, ones = np.eye(d), np.triu(np.ones((d, d)))
            # every center halfway: both children and all leaves tie
            self.assert_matches_scalar(np.zeros((1, d)), eye[None], levels)
            self.assert_matches_scalar(np.full((1, d), mid), eye[None], levels)
            # off-diagonal feedback: the first leaf and later siblings tie
            self.assert_matches_scalar(np.zeros((1, d)), ones[None], levels)
            self.assert_matches_scalar(np.full((1, d), mid), 2.0 * ones[None], levels)
        # d = 2 on identity with both centers at 0, a the smallest positive level:
        # the first leaf v = (-a, -a) costs 2a^2; the tied sibling v[0] = +a
        # and the later leaf v = (-a, +a) cost the same, so both are visited
        # and pruned: 5 visits, one more (v[1] = -3a, pruned) with 4 levels
        v, visited = demod._lockstep_search(np.zeros((1, 2)), np.eye(2)[None], levels)
        np.testing.assert_array_equal(v[0], levels[levels.size // 2 - 1])
        assert visited[0] == (5 if levels.size == 2 else 6)

    @settings(max_examples=150, deadline=None)
    @given(triangular_systems())
    def test_drawn_systems_match_scalar_search(self, system):
        self.assert_matches_scalar(*system)

    def test_random_batch_matches_scalar_search(self):
        rng = make_rng(41)
        for levels in (LATTICE_LEVELS["qpsk"], LATTICE_LEVELS["16qam"]):
            _, r = np.linalg.qr(rng.standard_normal((30, 10, 6)))
            r *= np.sign(np.diagonal(r, axis1=1, axis2=2))[:, :, None]  # positive diagonal
            self.assert_matches_scalar(2.0 * rng.standard_normal((30, 6)), r, levels)


class TestAlamoutiCombiner:
    def test_unit_channel_outputs(self):
        # h = [1, 1]: z1 = g s1', z2 = g s2' with g = 2, amp = sqrt(es/2) g
        s1, s2 = QPSK.points[0], QPSK.points[3]
        x = encode_alamouti([s1, s2])
        h = np.ones((2, 1, 2), dtype=complex)
        es = 8.0
        y = np.einsum("kij,jk->ki", h, np.sqrt(es) * x)
        res = alamouti_combine(y[None], h[None], es, QPSK)
        np.testing.assert_array_equal(res.bits[0], [0, 0, 1, 1])

    def test_noiseless_round_trip(self):
        rng = make_rng(13)
        patterns = rng.integers(0, 4, size=40)
        syms = np.array([QPSK.points[int(p)] for p in patterns])
        x = np.concatenate(
            [encode_alamouti(syms[2 * b : 2 * b + 2]) for b in range(20)], axis=1
        )
        frame, h = transmit(x, 2, 4.0, 1e-20, make_rng(14))
        res = alamouti_combine(frame[None], h[None], 4.0, QPSK)
        want = patterns_to_bits(patterns, 2)
        np.testing.assert_array_equal(res.bits[0], want)

    def test_matches_ml_noisy(self):
        cb = alamouti_codebook(QPSK)
        for lr in (1, 2):
            for t in range(300):
                rng = make_rng(90000 + 1000 * lr + t)
                n = int(rng.integers(0, 16))
                es = 10 ** (rng.uniform(-2, 15) / 10)
                frame, h = transmit(cb.codewords[n], lr, es, 1.0, make_rng(95000 + 1000 * lr + t))
                cm = alamouti_combine(frame[None], h[None], es, QPSK)
                ml = ml_exhaustive_blocks(frame[None], h[None], cb, es)
                np.testing.assert_array_equal(cm.bits, ml.bits)

    def test_sixteen_qam_matches_ml(self):
        cb = alamouti_codebook(QAM16)
        for t in range(150):
            rng = make_rng(110000 + t)
            n = int(rng.integers(0, 256))
            es = 10 ** (rng.uniform(0, 18) / 10)
            frame, h = transmit(cb.codewords[n], 2, es, 1.0, make_rng(120000 + t))
            cm = alamouti_combine(frame[None], h[None], es, QAM16)
            ml = ml_exhaustive_blocks(frame[None], h[None], cb, es)
            np.testing.assert_array_equal(cm.bits, ml.bits)

    def test_nonstatic_block_combines_first_use_channel(self):
        s = QPSK.points[0]
        x = encode_alamouti([s, s])
        h = generate_fading(2, 0.2, np.eye(2), np.eye(1), make_rng(15))
        assert not np.array_equal(h[0], h[1])
        frame = apply_channel(x[None], h[None], 1.0, [make_rng(16)])[0]
        res = alamouti_combine(frame[None], h[None], 1.0, QPSK)
        first = alamouti_combine(frame[None], h[None, [0, 0]], 1.0, QPSK)
        np.testing.assert_array_equal(res.bits, first.bits)

    def test_zero_channel_flags_degenerate(self):
        y = np.zeros((2, 1), dtype=complex)
        h = np.zeros((2, 1, 2), dtype=complex)
        res = alamouti_combine(y[None], h[None], 1.0, QPSK)
        assert res.degenerate == 1
        np.testing.assert_array_equal(res.bits[0], [0, 0, 0, 0])

    def test_odd_frame_rejected(self):
        y = np.zeros((3, 1), dtype=complex)
        h = np.zeros((3, 1, 2), dtype=complex)
        with pytest.raises(InputError):
            alamouti_combine(y[None], h[None], 1.0, QPSK)


class TestCrossDecoderConsistency:
    def test_scaling_joint_invariance(self):
        # scaling y and sqrt(es) together leaves decisions unchanged
        cb = golden_codebook(QPSK)
        frame, h = transmit(cb.codewords[17], 2, 1.0, 1.0, make_rng(17))
        a = ml_exhaustive_blocks(frame[None], h[None], cb, 1.0)
        b = ml_exhaustive_blocks((2.0 * frame)[None], h[None], cb, 4.0)
        np.testing.assert_array_equal(a.bits, b.bits)


class TestFrameBatches:
    """A batch of frames decodes to one result: row f of its bits is frame f
    decoded in a batch of one, and its visits and degenerate count are the
    sums over those one-frame decodes."""

    TRELLIS = load_packaged_trellis()
    PATHS = trellis_path_codebook(TRELLIS, 3)
    DECODERS = {
        "combiner": (2, lambda y, h: alamouti_combine(y, h, 3.0, QAM16)),
        "ml-alamouti": (2, lambda y, h: ml_exhaustive_blocks(y, h, alamouti_codebook(QPSK), 3.0)),
        "ml-golden": (2, lambda y, h: ml_exhaustive_blocks(y, h, golden_codebook(QPSK), 3.0)),
        "sphere-golden": (
            2, lambda y, h: sphere_decode(y, h, dispersion_code(QPSK, 4, encode_golden), 3.0)
        ),
        "ml-paths": (2, lambda y, h: ml_exhaustive_blocks(y, h, TestFrameBatches.PATHS, 3.0)),
        "viterbi": (2, lambda y, h: viterbi_decode(y, h, TestFrameBatches.TRELLIS, 3.0)),
    }

    @pytest.mark.parametrize("static", [True, False], ids=["static", "varying"])
    @pytest.mark.parametrize("name", sorted(DECODERS))
    def test_batch_equals_frame_by_frame(self, name, static):
        lt, decode = self.DECODERS[name]
        rng = make_rng(70)
        n = 4 if name == "ml-paths" else 40
        shape = (5, 1 if static else n, 2, lt)
        h = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        h = np.broadcast_to(h, (5, n, 2, lt)).copy()
        h[3] = 0.0  # a degenerate frame among regular ones
        y = 2.0 * (rng.standard_normal((5, n, 2)) + 1j * rng.standard_normal((5, n, 2)))
        batch = decode(y, h)
        alone = [decode(y[f : f + 1], h[f : f + 1]) for f in range(5)]
        assert batch.bits.shape[0] == 5
        for got, want in zip(batch.bits, alone):
            np.testing.assert_array_equal(got, want.bits[0])
        assert batch.visited == sum(a.visited for a in alone)
        assert batch.degenerate == sum(a.degenerate for a in alone)
        assert (type(batch.visited), type(batch.degenerate)) == (int, int)
        if name in ("combiner", "sphere-golden"):
            assert batch.degenerate == 1  # frame 3's zero channel

    ONE_FRAME = {
        "ml_exhaustive_blocks": lambda: ml_exhaustive_blocks(
            np.zeros((2, 1)), np.zeros((2, 1, 2)), alamouti_codebook(QPSK), 1.0
        ),
        "viterbi_decode": lambda: viterbi_decode(
            np.zeros((3, 1)), np.zeros((3, 1, 2)), TestFrameBatches.TRELLIS, 1.0
        ),
        "sphere_decode": lambda: sphere_decode(
            np.zeros((2, 2)), np.zeros((2, 2, 2)), dispersion_code(QPSK, 4, encode_golden), 1.0
        ),
        "alamouti_combine": lambda: alamouti_combine(
            np.zeros((2, 1)), np.zeros((2, 1, 2)), 1.0, QPSK
        ),
        "apply_channel": lambda: apply_channel(
            np.zeros((2, 4)), np.zeros((4, 1, 2)), 1.0, [make_rng(0)]
        ),
        "encode_trellis": lambda: encode_trellis(
            np.zeros(4, dtype=int), TestFrameBatches.TRELLIS
        ),
    }
    BATCH_SHAPES = {
        "apply_channel": "(frames, lt, n_uses)",
        "encode_trellis": "(frames, n_bits)",
    }

    @pytest.mark.parametrize("name", sorted(ONE_FRAME))
    def test_one_frame_arrays_are_refused(self, name):
        # a one-frame array would otherwise broadcast as a batch of frames
        shape = self.BATCH_SHAPES.get(name, "(frames, n_uses, lr)")
        with pytest.raises(InputError, match=re.escape(shape)):
            self.ONE_FRAME[name]()

    def test_batch_shape_checks(self):
        y = np.zeros((3, 4, 2), dtype=complex)
        with pytest.raises(InputError):
            ml_exhaustive_blocks(y, np.zeros((3, 4, 1, 2)), alamouti_codebook(QPSK), 1.0)
        with pytest.raises(InputError):
            viterbi_decode(y, np.zeros((4, 2, 2)), self.TRELLIS, 1.0)
