"""Tests for the Monte Carlo sweep harness: Wilson intervals, noise
estimation, the superframe container, config parsing, and sweep execution."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from stclab.errors import ConfigError, EmptyInput, SlotMismatch
from stclab.harness import (
    CSV_COLUMNS,
    SuperframeLayout,
    SweepConfig,
    _decode_data,
    assemble_superframe,
    build_setup,
    config_with_seed,
    estimate_noise,
    extract_slot,
    parse_config,
    run_sweep,
    wilson_interval,
)

BASE_CONFIG = """
# minimal sweep
code = alamouti
constellation = QPSK
lt = 2
lr = 1
channel = quasi_static
ebn0_db = 6.0, 10.0
min_frame_errors = 8
max_frames = 60
frame_uses = 60
seed = 5
"""


class TestWilsonInterval:
    def test_empty_sample(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)

    def test_no_errors(self):
        lo, hi = wilson_interval(0, 100)
        assert lo == 0.0
        assert 0.0 < hi < 0.05

    def test_all_errors(self):
        lo, hi = wilson_interval(100, 100)
        assert 0.95 < lo < 1.0
        assert hi == 1.0

    def test_hand_computed_value(self):
        # independent recomputation of the score interval for k=3, n=10
        z = 1.959963984540054
        k, n = 3, 10
        p = k / n
        den = 1 + z**2 / n
        center = (p + z**2 / (2 * n)) / den
        half = z * np.sqrt(p * (1 - p) / n + z**2 / (4 * n**2)) / den
        lo, hi = wilson_interval(k, n)
        assert_allclose((lo, hi), (center - half, center + half), rtol=1e-12)

    def test_contains_point_estimate(self):
        for k, n in ((1, 7), (10, 100), (99, 100)):
            lo, hi = wilson_interval(k, n)
            assert lo < k / n < hi

    def test_narrows_with_samples(self):
        w1 = np.diff(wilson_interval(10, 100))[0]
        w2 = np.diff(wilson_interval(100, 1000))[0]
        assert w2 < w1


class TestEstimateNoise:
    def test_zeros(self):
        assert estimate_noise(np.zeros(10, dtype=complex)) == 0.0

    def test_single_sample(self):
        assert_allclose(estimate_noise(np.array([3.0 + 4.0j])), 25.0)

    def test_matches_n0(self):
        rng = np.random.Generator(np.random.PCG64(0))
        n0 = 2.0
        s = np.sqrt(n0 / 2) * (rng.normal(size=20000) + 1j * rng.normal(size=20000))
        assert_allclose(estimate_noise(s), n0, rtol=0.03)

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            estimate_noise(np.array([], dtype=complex))

    def test_accepts_matrix_input(self):
        s = np.ones((4, 3), dtype=complex)
        assert_allclose(estimate_noise(s), 1.0)


class TestSuperframe:
    def test_total_length(self):
        lay = SuperframeLayout()
        assert lay.preamble_len == 100
        assert lay.n_slots == 42
        assert lay.frame_len == 300
        assert lay.silence_len == 70
        assert lay.total_len == 100 + 42 * 300 + 70

    def test_assemble_and_extract(self):
        lay = SuperframeLayout(preamble_len=4, n_slots=3, frame_len=5, silence_len=2)
        rng = np.random.Generator(np.random.PCG64(1))
        frames = [rng.normal(size=(2, 5)) + 1j * rng.normal(size=(2, 5)) for _ in range(3)]
        stream, slots = assemble_superframe(frames, lay)
        assert stream.shape == (2, lay.total_len)
        for i in range(3):
            assert_allclose(extract_slot(stream, lay, i), frames[i], atol=0)
            lo, hi = lay.slot_bounds(i)
            assert hi - lo == 5
        # preamble and silence are quiet
        assert_allclose(stream[:, :4], 0.0)
        assert_allclose(stream[:, -2:], 0.0)

    def test_slot_count_mismatch(self):
        lay = SuperframeLayout(preamble_len=1, n_slots=3, frame_len=4, silence_len=1)
        frames = [np.zeros((1, 4), dtype=complex)] * 2
        with pytest.raises(SlotMismatch):
            assemble_superframe(frames, lay)

    def test_frame_shape_mismatch(self):
        lay = SuperframeLayout(preamble_len=1, n_slots=2, frame_len=4, silence_len=1)
        frames = [np.zeros((1, 4), dtype=complex), np.zeros((1, 3), dtype=complex)]
        with pytest.raises(SlotMismatch):
            assemble_superframe(frames, lay)

    def test_default_layout_slot_count(self):
        lay = SuperframeLayout()
        frames = [np.zeros((2, 300), dtype=complex)] * 41
        with pytest.raises(SlotMismatch):
            assemble_superframe(frames, lay)

    def test_silence_supports_noise_estimation(self):
        lay = SuperframeLayout(preamble_len=10, n_slots=2, frame_len=20, silence_len=5000)
        frames = [np.ones((1, 20), dtype=complex)] * 2
        stream, _ = assemble_superframe(frames, lay)
        rng = np.random.Generator(np.random.PCG64(2))
        n0 = 0.5
        noisy = stream + np.sqrt(n0 / 2) * (
            rng.normal(size=stream.shape) + 1j * rng.normal(size=stream.shape)
        )
        silence = noisy[:, -lay.silence_len :]
        assert_allclose(estimate_noise(silence), n0, rtol=0.05)


class TestConfigParsing:
    def test_happy_path(self):
        cfg = parse_config(BASE_CONFIG)
        assert cfg.code == "alamouti"
        assert cfg.ebn0_db == (6.0, 10.0)
        assert cfg.lr == 1
        assert cfg.channel_mode == "quasi_static"
        assert cfg.min_frame_errors == 8
        assert cfg.seed == 5

    def test_pilot_keys(self):
        text = BASE_CONFIG + "csi = pilot\npilot.count = 20\npilot.taps = 4\n"
        cfg = parse_config(text)
        assert cfg.csi == "pilot"
        assert cfg.pilot_count == 20
        assert cfg.pilot_taps == 4

    def test_unknown_key(self):
        with pytest.raises(ConfigError) as exc:
            parse_config(BASE_CONFIG + "bandwidth = 20\n")
        assert exc.value.key == "bandwidth"

    def test_duplicate_key(self):
        with pytest.raises(ConfigError):
            parse_config(BASE_CONFIG + "lt = 2\n")

    def test_missing_required(self):
        with pytest.raises(ConfigError):
            parse_config("code = alamouti\n")
        with pytest.raises(ConfigError):
            parse_config("ebn0_db = 10\n")

    def test_type_errors(self):
        with pytest.raises(ConfigError):
            parse_config(BASE_CONFIG + "max_frames = soon\n")

    def test_grid_must_increase(self):
        bad = BASE_CONFIG.replace("ebn0_db = 6.0, 10.0", "ebn0_db = 10.0, 6.0")
        with pytest.raises(ConfigError):
            parse_config(bad)

    def test_validation_catches_bad_values(self):
        with pytest.raises(ConfigError):
            SweepConfig(code="turbo", ebn0_db=(1.0,))
        with pytest.raises(ConfigError):
            SweepConfig(code="alamouti", ebn0_db=())
        with pytest.raises(ConfigError):
            SweepConfig(code="alamouti", ebn0_db=(1.0,), csi="genie")
        with pytest.raises(ConfigError):
            SweepConfig(code="trellis", ebn0_db=(1.0,))  # needs trellis_file

    def test_config_with_seed(self):
        cfg = parse_config(BASE_CONFIG)
        assert config_with_seed(cfg, 99).seed == 99


class TestBuildSetup:
    def test_pilot_overhead_charged_to_info_bits(self):
        cfg = SweepConfig(
            code="alamouti",
            ebn0_db=(10.0,),
            lt=2,
            lr=1,
            csi="pilot",
            pilot_count=72,
            frame_uses=300,
        )
        setup = build_setup(cfg)
        assert setup.data_uses == 228
        assert setup.info_bits == 228 // 2 * 4

    def test_perfect_csi_uses_whole_frame(self):
        cfg = SweepConfig(code="alamouti", ebn0_db=(10.0,), lt=2, lr=1, frame_uses=300)
        setup = build_setup(cfg)
        assert setup.data_uses == 300
        assert setup.info_bits == 600

    def test_trellis_termination_charged(self):
        import importlib.resources as ir

        path = ir.files("stclab") / "codes" / "delay_diversity_4state_qpsk.txt"
        cfg = SweepConfig(
            code="trellis",
            trellis_file=str(path),
            ebn0_db=(10.0,),
            lt=2,
            lr=1,
            frame_uses=300,
        )
        setup = build_setup(cfg)
        # one termination use leaves 299 data steps of 2 bits
        assert setup.info_bits == 2 * 299

    def test_geometry_needs_enough_elements(self):
        cfg = SweepConfig(
            code="spatial_multiplex",
            ebn0_db=(10.0,),
            lt=2,
            lr=8,
            rx_geometry="rx_square_0.5",
            decoder="ml",
        )
        with pytest.raises(ConfigError):
            build_setup(cfg)

    def test_explicit_positions(self):
        cfg = SweepConfig(
            code="alamouti",
            ebn0_db=(10.0,),
            lt=2,
            lr=2,
            rx_geometry="0,0; 0.5,0",
        )
        setup = build_setup(cfg)
        assert_allclose(setup.rrx[0, 1], -0.3042421776, atol=1e-9)

    def test_sphere_needs_enough_rx(self):
        cfg = SweepConfig(code="golden", ebn0_db=(10.0,), lt=2, lr=1, decoder="sphere")
        with pytest.raises(ConfigError):
            build_setup(cfg)

    def test_sphere_decode_keeps_degenerate_flag(self):
        cfg = SweepConfig(
            code="golden", ebn0_db=(10.0,), lt=2, lr=2, frame_uses=10, decoder="sphere"
        )
        setup = build_setup(cfg)
        rng = np.random.default_rng(8)
        y = rng.standard_normal((10, 2)) + 1j * rng.standard_normal((10, 2))
        h = rng.standard_normal((10, 2, 2)) + 1j * rng.standard_normal((10, 2, 2))
        h[4:6] = 0.0
        res = _decode_data(setup, y, h, 2.0)
        assert res.degenerate
        np.testing.assert_array_equal(res.bits[16:24], np.zeros(8, dtype=int))

    def test_odd_data_span_rejected(self):
        cfg = SweepConfig(code="alamouti", ebn0_db=(10.0,), lt=2, lr=1, frame_uses=61)
        with pytest.raises(ConfigError):
            build_setup(cfg)


class TestRunSweep:
    def test_csv_schema(self):
        cfg = parse_config(BASE_CONFIG)
        out = run_sweep(cfg).to_csv()
        lines = out.strip().split("\n")
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 3
        first = lines[1].split(",")
        assert float(first[0]) == 6.0
        assert int(first[1]) > 0

    def test_rows_cover_grid_in_order(self):
        cfg = parse_config(BASE_CONFIG)
        res = run_sweep(cfg)
        assert [r.ebn0_db for r in res.rows] == [6.0, 10.0]

    def test_stops_at_error_target(self):
        cfg = SweepConfig(
            code="alamouti",
            ebn0_db=(0.0,),
            lt=2,
            lr=1,
            min_frame_errors=5,
            max_frames=500,
            frame_uses=60,
            seed=1,
        )
        row = run_sweep(cfg).rows[0]
        assert row.frame_errors >= 5
        assert row.frames < 500  # at 0 dB errors arrive quickly

    def test_zero_frames_row(self):
        cfg = SweepConfig(
            code="alamouti", ebn0_db=(10.0,), lt=2, lr=1, max_frames=0, frame_uses=60
        )
        row = run_sweep(cfg).rows[0]
        assert row.frames == 0
        assert row.fer == 0.0
        assert (row.fer_ci_lo, row.fer_ci_hi) == (0.0, 1.0)

    def test_serial_parallel_identical(self):
        cfg = SweepConfig(
            code="golden",
            ebn0_db=(4.0, 8.0),
            lt=2,
            lr=2,
            decoder="ml",
            min_frame_errors=10,
            max_frames=120,
            frame_uses=40,
            seed=9,
        )
        a = run_sweep(cfg).to_csv()
        b = run_sweep(cfg, workers=4).to_csv()
        c = run_sweep(config_with_seed(cfg, 9), workers=2).to_csv()
        assert a == b == c

    def test_seed_changes_stream(self):
        cfg = SweepConfig(
            code="alamouti",
            ebn0_db=(8.0,),
            lt=2,
            lr=1,
            min_frame_errors=5,
            max_frames=200,
            frame_uses=60,
            seed=0,
        )
        a = run_sweep(cfg).to_csv()
        b = run_sweep(config_with_seed(cfg, 1)).to_csv()
        assert a != b

    def test_noiseless_sentinel_is_error_free(self):
        cfg = SweepConfig(
            code="alamouti",
            ebn0_db=(200.0,),
            lt=2,
            lr=1,
            min_frame_errors=5,
            max_frames=40,
            frame_uses=60,
        )
        row = run_sweep(cfg).rows[0]
        assert row.frame_errors == 0
        assert row.bit_errors == 0

    def test_fer_falls_with_snr(self):
        cfg = SweepConfig(
            code="alamouti",
            ebn0_db=(0.0, 14.0),
            lt=2,
            lr=2,
            min_frame_errors=40,
            max_frames=1500,
            frame_uses=60,
            seed=2,
        )
        rows = run_sweep(cfg).rows
        assert rows[0].fer > rows[1].fer

    def test_trellis_sweep_runs(self):
        import importlib.resources as ir

        path = ir.files("stclab") / "codes" / "delay_diversity_4state_qpsk.txt"
        cfg = SweepConfig(
            code="trellis",
            trellis_file=str(path),
            ebn0_db=(12.0,),
            lt=2,
            lr=1,
            min_frame_errors=5,
            max_frames=50,
            frame_uses=40,
            seed=3,
        )
        row = run_sweep(cfg).rows[0]
        assert row.frames > 0
        assert row.mean_decoder_nodes > 0

    def test_pilot_csi_sweep_runs(self):
        cfg = SweepConfig(
            code="alamouti",
            ebn0_db=(14.0,),
            lt=2,
            lr=1,
            csi="pilot",
            pilot_count=20,
            pilot_taps=4,
            channel_mode="clarke_varying",
            fdt=0.01,
            min_frame_errors=10,
            max_frames=200,
            frame_uses=120,
            seed=4,
        )
        row = run_sweep(cfg).rows[0]
        assert row.frames > 0
        assert row.bits == row.frames * build_setup(cfg).info_bits

    def test_pilot_csi_costs_performance(self):
        # same grid point: pilot CSI cannot beat perfect CSI
        common = dict(
            code="alamouti",
            ebn0_db=(8.0,),
            lt=2,
            lr=1,
            channel_mode="clarke_varying",
            fdt=0.005,
            min_frame_errors=150,
            max_frames=1500,
            frame_uses=120,
            seed=6,
        )
        perfect = run_sweep(SweepConfig(**common)).rows[0]
        pilot = run_sweep(
            SweepConfig(csi="pilot", pilot_count=24, pilot_taps=6, **common)
        ).rows[0]
        assert pilot.fer >= perfect.fer * 0.9

    def test_sphere_decoder_sweep_matches_ml(self):
        common = dict(
            code="golden",
            ebn0_db=(6.0,),
            lt=2,
            lr=2,
            min_frame_errors=20,
            max_frames=150,
            frame_uses=30,
            seed=7,
        )
        ml = run_sweep(SweepConfig(decoder="ml", **common)).rows[0]
        sp = run_sweep(SweepConfig(decoder="sphere", **common)).rows[0]
        assert ml.frame_errors == sp.frame_errors
        assert ml.bit_errors == sp.bit_errors
        assert sp.mean_decoder_nodes < ml.mean_decoder_nodes
