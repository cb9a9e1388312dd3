"""Tests for the block encoders, codebook enumeration, and the trellis code
machinery (parser, termination, frame encoding)."""

import hashlib
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from stclab.errors import InputError
from stclab.mathcore import CONSTELLATIONS, QAM16, QPSK, bits_to_patterns
from stclab import stcodes
from stclab.stcodes import (
    CODEBOOK_CAP,
    GOLDEN_ALPHA,
    GOLDEN_ALPHA_BAR,
    GOLDEN_SCALE,
    GOLDEN_THETA,
    GOLDEN_THETA_BAR,
    TRELLIS_TRANSITION_CAP,
    BlockCodebook,
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
    _enumerate_symbol_tuples,
    trellis_path_codebook,
)

RT2 = np.sqrt(2.0)


def sha256(a):
    return hashlib.sha256(a.tobytes()).hexdigest()


def scalar_encode_golden(s):
    """Golden codeword for four symbols s = (s1, s2, s3, s4)."""
    s1, s2, s3, s4 = (complex(v) for v in s)
    th, tb = GOLDEN_THETA, GOLDEN_THETA_BAR
    a, ab = GOLDEN_ALPHA, GOLDEN_ALPHA_BAR
    x = np.array(
        [
            [a * (s1 + s2 * th), a * (s3 + s4 * th)],
            [1j * ab * (s3 + s4 * tb), ab * (s1 + s2 * tb)],
        ],
        dtype=complex,
    )
    return GOLDEN_SCALE * x


class TestAlamouti:
    def test_unit_symbols(self):
        x = encode_alamouti([1.0, 0.0])
        assert_allclose(x, np.eye(2) / RT2, atol=1e-15)

    def test_layout(self):
        # column k is channel use k: [s1, s2] then [-s2*, s1*], scaled
        s1, s2 = 0.6 + 0.8j, -1.0 + 0.5j
        x = encode_alamouti([s1, s2])
        want = np.array([[s1, -np.conj(s2)], [s2, np.conj(s1)]]) / RT2
        assert_allclose(x, want, atol=1e-15)

    def test_orthogonality(self):
        s1, s2 = 0.3 - 1.1j, 0.7 + 0.2j
        x = encode_alamouti([s1, s2])
        gram = x.conj().T @ x
        scale = (abs(s1) ** 2 + abs(s2) ** 2) / 2
        assert_allclose(gram, scale * np.eye(2), atol=1e-14)

    def test_energy_per_use_is_symbol_energy(self):
        for p1 in range(4):
            for p2 in range(4):
                x = encode_alamouti(QPSK.points[[p1, p2]])
                assert_allclose(np.sum(np.abs(x) ** 2) / 2, 1.0, atol=1e-12)

    def test_codebook_all_pairs_full_rank(self):
        cb = alamouti_codebook(QPSK)
        assert cb.size == 16 and cb.codewords.shape == (16, 2, 2)
        cw = cb.codewords
        for i in range(16):
            for j in range(i + 1, 16):
                d = cw[i] - cw[j]
                assert np.linalg.matrix_rank(d) == 2

    def test_codebook_pair_min_det(self):
        cw = alamouti_codebook(QPSK).codewords
        d = cw[:, None] - cw[None, :]
        dets = np.abs(d[..., 0, 0] * d[..., 1, 1] - d[..., 0, 1] * d[..., 1, 0])
        assert_allclose(dets[np.triu_indices(16, 1)].min(), 1.0, atol=1e-12)

    def test_codebook_index_order(self):
        # word n carries bits of n MSB-first; symbol 1 owns the high bits
        cb = alamouti_codebook(QPSK)
        n = 0b0111
        s = QPSK.points[bits_to_patterns(np.array([0, 1, 1, 1]), 2)]
        assert_allclose(cb.codewords[n], encode_alamouti(s), atol=1e-15)

    def test_batch_equals_one_word_at_a_time(self):
        rng = np.random.default_rng(4)
        s1, s2 = rng.normal(size=(2, 3, 5)) + 1j * rng.normal(size=(2, 3, 5))
        s = np.stack([s1, s2], axis=-1)
        x = encode_alamouti(s)
        assert x.shape == (3, 5, 2, 2)
        for k in np.ndindex(3, 5):
            assert x[k].tobytes() == encode_alamouti(s[k]).tobytes()
        with pytest.raises(InputError, match=r"must be a \(\.\.\., 2\) array"):
            encode_alamouti(s1)


class TestGolden:
    def test_hand_formula(self):
        s = np.array([QPSK.points[p] for p in (0, 1, 2, 3)])
        scale = 1 / np.sqrt(10.0)
        want = scale * np.array(
            [
                [
                    GOLDEN_ALPHA * (s[0] + s[1] * GOLDEN_THETA),
                    GOLDEN_ALPHA * (s[2] + s[3] * GOLDEN_THETA),
                ],
                [
                    1j * GOLDEN_ALPHA_BAR * (s[2] + s[3] * GOLDEN_THETA_BAR),
                    GOLDEN_ALPHA_BAR * (s[0] + s[1] * GOLDEN_THETA_BAR),
                ],
            ]
        )
        assert_allclose(encode_golden(s), want, atol=1e-14)

    def test_frozen_entry(self):
        s = np.array([QPSK.points[p] for p in (0, 1, 2, 3)])
        assert_allclose(encode_golden(s)[0, 0], 0.2236068 + 0.67082039j, atol=1e-7)

    def test_codebook_distinct_and_sized(self):
        cb = golden_codebook(QPSK)
        assert cb.size == 256
        assert cb.bits_per_codeword == 8
        assert cb.codewords.shape == (256, 2, 2)

    @pytest.mark.parametrize("c", [QPSK, QAM16], ids=lambda c: c.name)
    def test_codebook_bitwise_equals_scalar_encoder(self, c):
        tuples = c.points[_enumerate_symbol_tuples(c, 4)]
        want = np.stack([scalar_encode_golden(s) for s in tuples])
        np.testing.assert_array_equal(encode_golden(tuples).view(np.uint64), want.view(np.uint64))
        np.testing.assert_array_equal(golden_codebook(c).codewords.view(np.uint64), want.view(np.uint64))

    def test_batch_bitwise_equals_scalar_encoder(self):
        # 2,000 tuples off the constellations, in two leading batch axes
        rng = np.random.default_rng(8)
        s = rng.normal(size=(40, 50, 4)) + 1j * rng.normal(size=(40, 50, 4))
        x = encode_golden(s)
        assert x.shape == (40, 50, 2, 2)
        want = np.stack([scalar_encode_golden(v) for v in s.reshape(-1, 4)])
        np.testing.assert_array_equal(x.reshape(-1, 2, 2).view(np.uint64), want.view(np.uint64))
        assert encode_golden(s[3, 7]).tobytes() == want[3 * 50 + 7].tobytes()

    @pytest.mark.parametrize("shape", [(3,), (2, 5), ()])
    def test_symbols_not_in_fours_are_refused(self, shape):
        with pytest.raises(InputError, match=r"\(\.\.\., 4\)"):
            encode_golden(np.zeros(shape))

    def test_mean_energy_per_use(self):
        cw = golden_codebook(QPSK).codewords
        assert_allclose(np.mean(np.sum(np.abs(cw) ** 2, axis=(1, 2)) / 2), 1.0, atol=1e-12)

    def test_full_diversity_min_det(self):
        # brute force over all distinct pairs; value is 1/sqrt(5) up to rounding
        cw = golden_codebook(QPSK).codewords
        d = cw[:, None] - cw[None, :]
        dets = np.abs(d[..., 0, 0] * d[..., 1, 1] - d[..., 0, 1] * d[..., 1, 0])
        min_det = dets[np.triu_indices(256, 1)].min()
        assert min_det > 1e-9
        assert_allclose(min_det, 0.4472135954999575, atol=1e-12)
        assert_allclose(min_det, 1 / np.sqrt(5.0), atol=1e-12)

    def test_linearity_matches_dispersion(self):
        ld = dispersion_code(QPSK, 4, encode_golden)
        rng = np.random.default_rng(1)
        for _ in range(10):
            s = rng.normal(size=4) + 1j * rng.normal(size=4)
            want = np.einsum("m,mij->ij", s, ld.basis)
            assert_allclose(encode_golden(s), want, atol=1e-13)

    def test_dispersion_shape(self):
        ld = dispersion_code(QPSK, 4, encode_golden)
        assert ld.basis.shape == (4, 2, 2)

    @pytest.mark.parametrize("c", [QPSK, QAM16], ids=lambda c: c.name)
    def test_dispersion_bytes_are_pinned(self, c):
        # the hand-written basis's digest; no entry is -0.0
        basis = dispersion_code(c, 4, encode_golden).basis
        assert sha256(basis) == "8b84058c515148226a6aa35a4ece05b814c440b27e10cf383c02df87668afb86"


class TestSpatialMultiplex:
    def test_column_fill(self):
        s = np.array([1.0, 2.0, 3.0, 4.0])
        x = encode_spatial_multiplex(s, 2)
        assert_allclose(x, np.array([[1.0, 3.0], [2.0, 4.0]]) / RT2, atol=1e-15)

    def test_energy_split(self):
        s = np.array([QPSK.points[p] for p in (0, 3)])
        x = encode_spatial_multiplex(s, 2)
        assert_allclose(np.sum(np.abs(x) ** 2), 1.0, atol=1e-12)

    def test_codebook_pairs_are_rank_one(self):
        cb = spatial_multiplex_codebook(QPSK, lt=2)
        assert cb.codewords.shape == (16, 2, 1)
        cw = cb.codewords
        for i in range(16):
            for j in range(i + 1, 16):
                assert np.linalg.matrix_rank(cw[i] - cw[j]) == 1

    def test_dispersion_matches_encoder(self):
        ld = dispersion_code(QPSK, 2, partial(encode_spatial_multiplex, lt=2))
        rng = np.random.default_rng(2)
        s = rng.normal(size=2) + 1j * rng.normal(size=2)
        x = np.einsum("m,mjk->jk", s, ld.basis)
        assert_allclose(x, encode_spatial_multiplex(s, 2), atol=1e-14)

    def test_three_antennas(self):
        s = np.arange(6, dtype=float)
        x = encode_spatial_multiplex(s, 3)
        assert x.shape == (3, 2)
        assert_allclose(x[:, 0], s[:3] / np.sqrt(3.0))

    def test_batch_equals_one_row_at_a_time(self):
        s = np.random.default_rng(5).normal(size=(2, 3, 6)) + 0.5j
        x = encode_spatial_multiplex(s, 3)
        assert x.shape == (2, 3, 3, 2)
        for k in np.ndindex(2, 3):
            assert x[k].tobytes() == encode_spatial_multiplex(s[k], 3).tobytes()
        with pytest.raises(InputError, match="divisible by lt=4"):
            encode_spatial_multiplex(s, 4)

    @pytest.mark.parametrize(
        "lt, sha",
        [
            (1, "3239b05c38b825ebb79f103172438292a22a0951351a6b81be1df5d44776cc65"),
            (2, "37fe4d07afc183c37066a83fb1e1ccff488c19a4bd0fe73a2ea8233dfe0ae1a0"),
            (3, "1ce781d032115d267292780a13f3512adbf8ff74b628e1b7c2014fb3794ab9bb"),
            (4, "389ac99cda7879e591a62fec5965bbe1e2c2b0c32351b1f044be81bdf292f39a"),
        ],
    )
    def test_dispersion_bytes_are_pinned(self, lt, sha):
        # digests of the eye(lt) / sqrt(lt) basis
        assert sha256(dispersion_code(QPSK, lt, partial(encode_spatial_multiplex, lt=lt)).basis) == sha

    @pytest.mark.parametrize("c, lt", [(QPSK, 2), (QPSK, 3), (QPSK, 1), (QAM16, 2), (QAM16, 3)])
    def test_codebook_bitwise_equals_encoder(self, c, lt):
        cb = spatial_multiplex_codebook(c, lt=lt)
        assert cb.codewords.shape == (c.size**lt, lt, 1)
        for n, word in enumerate(cb.codewords):
            syms = [(n // c.size ** (lt - 1 - m)) % c.size for m in range(lt)]
            want = encode_spatial_multiplex(np.array([c.points[p] for p in syms]), lt)
            assert word.tobytes() == want.tobytes()

    def test_codebook_cap_sits_at_five_sixteen_qam_antennas(self):
        # 16^5 = 2^20 words is the largest codebook that is enumerated
        assert _enumerate_symbol_tuples(QAM16, 5).shape == (CODEBOOK_CAP, 5)
        assert _enumerate_symbol_tuples(QPSK, 10).shape == (CODEBOOK_CAP, 10)
        with pytest.raises(InputError, match="16777216 codewords"):
            spatial_multiplex_codebook(QAM16, lt=6)
        with pytest.raises(InputError, match="4194304 codewords"):
            spatial_multiplex_codebook(QPSK, lt=11)

    def test_dispersion_code_refuses_past_the_codebook_cap(self):
        # a degenerate block scans every word, so the lattice form keeps the
        # codebook's cap, with the codebook's message
        assert dispersion_code(QAM16, 5, partial(encode_spatial_multiplex, lt=5)).n_syms == 5
        for c, lt, count in ((QAM16, 6, 16777216), (QPSK, 11, 4194304)):
            sm = partial(encode_spatial_multiplex, lt=lt)
            with pytest.raises(InputError, match=f"has {count} codewords, more than the"):
                dispersion_code(c, lt, sm)

    @pytest.mark.parametrize(
        "c, lt, sha",
        [
            (QAM16, 5, "4120353dac031f4b513b4451e78e044657f91bedd44c4b588d164b19dd5c1ff7"),
            (QPSK, 3, "d74141ada1f653b0e3649a77f9e56964c7ede209dd854a19c4b968965cb069f3"),
            (QAM16, 2, "b753d9de19fc8762857c0012fff054dddaa7cf88dd4545cb4427cd58328a21f4"),
        ],
    )
    def test_codebook_bytes_are_pinned(self, c, lt, sha):
        # digests of the codewords the one-shot build produced
        cb = spatial_multiplex_codebook(c, lt=lt)
        assert hashlib.sha256(cb.codewords.tobytes()).hexdigest() == sha

    @pytest.mark.parametrize(
        "build",
        [
            partial(spatial_multiplex_codebook, QPSK, lt=4),
            partial(golden_codebook, QPSK),
            partial(alamouti_codebook, QAM16),
        ],
        ids=["spatial_multiplex", "golden", "alamouti"],
    )
    @pytest.mark.parametrize("slice_elements", [1, 7, 100])
    def test_codebook_slices_join_seamlessly(self, monkeypatch, slice_elements, build):
        want = build().codewords
        monkeypatch.setattr(stcodes, "DUPLICATE_SLICE_ELEMENTS", slice_elements)
        got = build().codewords
        assert got.tobytes() == want.tobytes()

    def test_largest_codebook_builds_in_bounded_memory(self):
        # 2^20 words of 5 x 1, 80 MB; the one-shot build peaked at 200 MB
        tracemalloc.start()
        try:
            cb = spatial_multiplex_codebook(QAM16, lt=5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert cb.size == CODEBOOK_CAP
        assert peak <= 130 * 2**20



class TestDuplicateCheck:
    @staticmethod
    def planted(delta):
        # word 9 becomes word 5 with one entry's real part off by delta and
        # a zero imaginary part given as -0.0
        cw = alamouti_codebook(QPSK).codewords.copy()
        cw[9] = cw[5]
        cw[9, 0, 0] = complex(cw[5, 0, 0].real + delta, 0.0)
        cw[5, 0, 0] = complex(cw[5, 0, 0].real, -0.0)
        return cw

    def test_words_equal_to_twelve_digits_are_duplicates(self):
        with pytest.raises(InputError, match="duplicate"):
            BlockCodebook("planted", self.planted(1e-14), 4)

    def test_words_apart_beyond_twelve_digits_are_distinct(self):
        assert BlockCodebook("planted", self.planted(1e-10), 4).size == 16

    def test_hash_collisions_are_compared_exactly(self, monkeypatch):
        # every row hashes alike, so the byte comparison alone decides
        monkeypatch.setattr(
            stcodes, "_row_hashes", lambda rows: np.zeros(rows.shape[0], dtype=np.uint64)
        )
        monkeypatch.setattr(stcodes, "DUPLICATE_SLICE_ELEMENTS", 12)
        assert BlockCodebook("golden", golden_codebook(QPSK).codewords, 8).size == 256
        with pytest.raises(InputError, match="duplicate"):
            BlockCodebook("planted", self.planted(1e-14), 4)

    def test_largest_codebook_checks_in_bounded_memory(self):
        # spatial multiplexing over 5 antennas with 16QAM: 2^20 words, 80 MB;
        # a rounded copy plus one bytes object per word took 225 MB
        cw = spatial_multiplex_codebook(QAM16, lt=5).codewords
        tracemalloc.start()
        try:
            BlockCodebook("sm5", cw, 20)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 64 * 2**20


DELAY_DIVERSITY_TEXT = """\
# two-antenna delay diversity: antenna 1 sends the current QPSK point,
# antenna 2 repeats the previous one; the state is the previous point index
trellis 4 2 2 QPSK
0 00 0 0 0
0 01 1 1 0
0 10 2 2 0
0 11 3 3 0
1 00 0 0 1
1 01 1 1 1
1 10 2 2 1
1 11 3 3 1
2 00 0 0 2
2 01 1 1 2
2 10 2 2 2
2 11 3 3 2
3 00 0 0 3
3 01 1 1 3
3 10 2 2 3
3 11 3 3 3
"""


class TestTrellisParsing:
    def test_roundtrip_against_packaged(self):
        code = load_trellis(DELAY_DIVERSITY_TEXT)
        packaged = load_packaged_trellis("delay_diversity_4state_qpsk")
        assert code.n_states == packaged.n_states == 4
        assert code.bits_per_step == 2 and code.lt == 2
        np.testing.assert_array_equal(code.next_state, packaged.next_state)
        np.testing.assert_array_equal(code.out_idx, packaged.out_idx)

    def test_transition_count(self):
        code = load_trellis(DELAY_DIVERSITY_TEXT)
        assert code.next_state.shape == (4, 4)
        assert code.out_idx.shape == (4, 4, 2)

    def test_unknown_constellation(self):
        with pytest.raises(InputError):
            load_trellis("trellis 1 1 1 8PSK\n0 0 0 0\n0 1 1 0\n")

    def test_malformed_header(self):
        with pytest.raises(InputError) as exc:
            load_trellis("trellis 4 2\n")
        assert exc.value.key == "line 1"

    def test_transition_cap(self):
        # one state with every input at the cap is read; two states are not
        bits = TRELLIS_TRANSITION_CAP.bit_length() - 1
        text = f"trellis 1 {bits} 1 QPSK\n" + "".join(
            f"0 {u:0{bits}b} 0 0\n" for u in range(2**bits)
        )
        code = load_trellis(text)
        assert code.n_states * code.n_inputs == TRELLIS_TRANSITION_CAP
        with pytest.raises(InputError, match="transitions a trellis may have") as exc:
            load_trellis(text.replace("trellis 1", "trellis 2", 1))
        assert exc.value.key == "line 1"

    def test_huge_input_exponent_refused_from_the_header(self):
        # 2^100000000 would be a 12 MB integer, and printing it fails
        tracemalloc.start()
        try:
            with pytest.raises(InputError) as exc:
                load_trellis("# a comment line\ntrellis 1 100000000 1 QPSK\n")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert exc.value.key == "line 2"
        assert peak < 2**20

    def test_missing_transition(self):
        lines = DELAY_DIVERSITY_TEXT.strip().splitlines()
        with pytest.raises(InputError):
            load_trellis("\n".join(lines[:-1]) + "\n")

    def test_duplicate_transition(self):
        text = DELAY_DIVERSITY_TEXT + "3 11 3 3 3\n"
        with pytest.raises(InputError):
            load_trellis(text)

    def test_point_index_out_of_range(self):
        text = DELAY_DIVERSITY_TEXT.replace("0 11 3 3 0", "0 11 3 4 0")
        with pytest.raises(InputError) as exc:
            load_trellis(text)
        lineno = text.splitlines().index("0 11 3 4 0") + 1
        assert exc.value.key == f"line {lineno}"
        assert str(exc.value) == f"line {lineno}: point index out of range for QPSK"

    def test_bad_input_pattern_width(self):
        text = DELAY_DIVERSITY_TEXT.replace("0 00 0 0 0", "0 000 0 0 0")
        with pytest.raises(InputError):
            load_trellis(text)

    def test_unreachable_termination(self):
        # state 1 can never get back to state 0
        text = "trellis 2 1 1 QPSK\n0 0 0 0\n0 1 1 1\n1 0 1 2\n1 1 1 3\n"
        with pytest.raises(InputError):
            load_trellis(text)

    def test_termination_table_equals_per_state_loop(self):
        # random 1- to 8-state tables with 1, 2 or 4 inputs: the same tails,
        # or the same refusal, as the per-state loop
        rng = np.random.default_rng(11)
        for _ in range(500):
            n_states = int(rng.integers(1, 9))
            next_state = rng.integers(0, n_states, (n_states, int(2 ** rng.integers(0, 3))))
            try:
                want = loop_termination_table(next_state)
            except InputError as e:
                with pytest.raises(InputError, match=str(e)):
                    stcodes._termination_table(next_state)
                continue
            got = stcodes._termination_table(next_state)
            assert got.shape == want.shape and np.array_equal(got, want)


def loop_termination_table(next_state):
    """The per-state loop that the array form of the termination table
    replaced."""
    n_states, n_inputs = next_state.shape
    if n_states == 1:
        return np.zeros((1, 0), dtype=int)
    max_steps = max(2 * n_states, 8)
    reach = [np.zeros(n_states, dtype=bool)]
    reach[0][0] = True
    t = 0
    while not reach[t].all():
        t += 1
        if t > max_steps:
            raise InputError(
                "trellis cannot be driven to state 0 with a uniform-length tail"
            )
        nxt = np.zeros(n_states, dtype=bool)
        for s in range(n_states):
            nxt[s] = reach[t - 1][next_state[s]].any()
        reach.append(nxt)
    n_term = t
    term = np.zeros((n_states, n_term), dtype=int)
    for s in range(n_states):
        cur = s
        for step in range(n_term):
            remaining = n_term - step - 1
            for u in range(n_inputs):
                if reach[remaining][next_state[cur, u]]:
                    term[s, step] = u
                    cur = next_state[cur, u]
                    break
        if cur != 0:
            raise InputError("termination table construction failed")
    return term


def sequential_encode(bits, code):
    """The state-by-state encoder that frame batches replaced: the tail is
    the end-of-data state's whole termination sequence."""
    patterns = [int("".join(map(str, g)), 2) for g in np.reshape(bits, (-1, code.bits_per_step))]
    state, cols = 0, []
    for u in patterns:
        cols.append(code.out_idx[state, u])
        state = code.next_state[state, u]
    for u in code.term_inputs[state]:
        cols.append(code.out_idx[state, u])
        state = code.next_state[state, u]
    return code.constellation.points[np.array(cols)].T / np.sqrt(code.lt)


class TestTrellisEncoding:
    @pytest.mark.parametrize("seed", [0, 1, 3, 6, 7])
    def test_batch_equals_sequential_with_multi_step_tails(self, seed):
        # random 8-state codes whose termination tails take 3 to 6 steps
        rng = np.random.default_rng(seed)
        lines = ["trellis 8 1 2 QPSK"]
        for s in range(8):
            for u in range(2):
                lines.append(f"{s} {u} {rng.integers(8)} {rng.integers(4)} {rng.integers(4)}")
        code = load_trellis("\n".join(lines))
        assert code.n_term_steps >= 3
        bits = rng.integers(0, 2, (4, 10))
        batch = encode_trellis(bits, code)
        for row, x in zip(bits, batch):
            want = sequential_encode(row, code)
            assert x.tobytes() == want.tobytes()
            assert encode_trellis(row[None], code)[0].tobytes() == want.tobytes()

    @pytest.mark.parametrize("frames", [1, 2])
    def test_rows_of_partial_steps_are_refused(self, frames):
        # 3 bits do not fill 2-bit steps, however many rows hold them
        with pytest.raises(InputError, match=r"\(frames, n_bits\)"):
            encode_trellis(np.zeros((frames, 3), dtype=int), load_packaged_trellis())

    def test_termination_table(self):
        code = load_packaged_trellis()
        assert code.n_term_steps == 1
        np.testing.assert_array_equal(code.term_inputs, np.zeros((4, 1), dtype=int))

    def test_empty_bits_gives_termination_only(self):
        code = load_packaged_trellis()
        x = encode_trellis(np.array([], dtype=int)[None], code)[0]
        assert x.shape == (2, 1)
        # from state 0 the termination input is 0: both antennas send point 0
        p0 = QPSK.points[0]
        assert_allclose(x[:, 0], np.array([p0, p0]) / RT2, atol=1e-15)

    def test_frame_shape(self):
        code = load_packaged_trellis()
        bits = np.zeros(600, dtype=int)
        x = encode_trellis(bits[None], code)[0]
        assert x.shape == (2, 301)

    def test_delay_diversity_structure(self):
        # antenna 2 trails antenna 1 by one use
        code = load_packaged_trellis()
        rng = np.random.default_rng(3)
        bits = rng.integers(0, 2, size=40)
        x = encode_trellis(bits[None], code)[0]
        assert_allclose(x[1, 1:], x[0, :-1], atol=1e-15)
        p0 = QPSK.points[0] / RT2
        assert_allclose(x[1, 0], p0, atol=1e-15)

    def test_terminates_in_state_zero(self):
        code = load_packaged_trellis()
        rng = np.random.default_rng(4)
        bits = rng.integers(0, 2, size=600)
        x = encode_trellis(bits[None], code)[0]
        # last antenna-1 use is the termination input from state 0's table
        assert_allclose(x[0, -1], QPSK.points[0] / RT2, atol=1e-15)

    def test_energy_per_use(self):
        code = load_packaged_trellis()
        bits = np.array([1, 0, 1, 1, 0, 0, 1, 0])
        x = encode_trellis(bits[None], code)[0]
        assert_allclose(np.sum(np.abs(x) ** 2, axis=0), np.ones(x.shape[1]), atol=1e-12)

    @settings(max_examples=20)
    @given(st.lists(st.integers(0, 1), min_size=0, max_size=60).filter(lambda b: len(b) % 2 == 0))
    def test_frame_length_is_uniform(self, bits):
        code = load_packaged_trellis()
        x = encode_trellis(np.asarray(bits, dtype=int)[None], code)[0]
        assert x.shape == (2, len(bits) // 2 + 1)

    def test_path_codebook_matches_encoder(self):
        code = load_packaged_trellis()
        cb = trellis_path_codebook(code, n_steps=2)
        assert cb.codewords.shape == (16, 2, 3)
        bits = np.array([1, 0, 0, 1])
        n = int("".join(str(b) for b in bits), 2)
        assert_allclose(cb.codewords[n], encode_trellis(bits[None], code)[0], atol=1e-15)

    @pytest.mark.parametrize("n_steps", [2, 3, 8])
    def test_path_codebook_bitwise_equals_encoder(self, n_steps):
        code = load_packaged_trellis()
        cw = trellis_path_codebook(code, n_steps).codewords
        shifts = np.arange(2 * n_steps - 1, -1, -1)
        want = np.ascontiguousarray(
            [encode_trellis(((n >> shifts) & 1)[None], code)[0] for n in range(cw.shape[0])]
        )
        np.testing.assert_array_equal(cw.view(np.uint64), want.view(np.uint64))

    def test_path_codebook_takes_each_end_states_tail(self):
        # random 8-state, 1-bit QPSK codes; each state's two branches give
        # different outputs, so all path words are distinct.  The 24 codes
        # that terminate have tails of 2 to 6 steps, and every word, tail
        # included, must be the encoder's.
        tails = set()
        for seed in range(40):
            rng = np.random.default_rng(seed)
            lines = ["trellis 8 1 2 QPSK"]
            for state in range(8):
                outs = rng.choice(16, size=2, replace=False)
                for u in range(2):
                    nxt = rng.integers(8)
                    lines.append(f"{state} {u} {nxt} {outs[u] // 4} {outs[u] % 4}")
            try:
                code = load_trellis("\n".join(lines))
            except InputError:  # some state cannot reach state 0
                continue
            tails.add(code.n_term_steps)
            n_steps = 3
            cw = trellis_path_codebook(code, n_steps).codewords
            shifts = np.arange(n_steps - 1, -1, -1)
            want = np.ascontiguousarray(
                [encode_trellis(((n >> shifts) & 1)[None], code)[0] for n in range(2**n_steps)]
            )
            np.testing.assert_array_equal(cw.view(np.uint64), want.view(np.uint64))
        assert {2, 3, 4, 5, 6} <= tails

    def test_path_codebook_distinct(self):
        code = load_packaged_trellis()
        cb = trellis_path_codebook(code, n_steps=3)
        assert cb.size == 64

    def test_path_codebook_columns_must_give_the_words(self):
        cb = trellis_path_codebook(load_packaged_trellis(), n_steps=3)
        assert cb.columns.shape == (16, 2)
        wrong = cb.column_index.copy()
        wrong[5, 1] = (wrong[5, 1] + 1) % 16
        with pytest.raises(InputError):
            BlockCodebook("paths", cb.codewords, 6, cb.columns, wrong)


class TestSixteenQamTrellis:
    def test_constellation_from_header(self):
        text = "trellis 1 4 1 16QAM\n" + "".join(
            f"0 {u:04b} 0 {u}\n" for u in range(16)
        )
        code = load_trellis(text)
        assert code.constellation is QAM16
        x = encode_trellis(np.array([1, 0, 1, 0])[None], code)[0]
        assert x.shape == (1, 1)
        assert_allclose(x[0, 0], QAM16.points[0b1010], atol=1e-15)
