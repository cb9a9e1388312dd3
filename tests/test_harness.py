"""Tests for the Monte Carlo sweep harness: Wilson intervals, config
parsing, the batched frame kernel, and sweep execution."""

import importlib.resources
import threading
import time
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from numpy.testing import assert_allclose

from stclab import harness
from stclab.chanest import estimate_channel
from stclab.channel import CLARKE_MAX_USES, apply_channel, generate_fading
from stclab.demod import (
    alamouti_combine,
    ml_exhaustive_blocks,
    sphere_decode,
    viterbi_decode,
)
from stclab.errors import InputError
from stclab.harness import (
    ANTENNA_CAP,
    BATCH_MAX,
    CSV_COLUMNS,
    FRAME_CHANNEL_CAP,
    PILOT_DESIGN_CAP,
    WORKER_CAP,
    SweepConfig,
    SweepResult,
    SweepRow,
    _es_for,
    build_setup,
    parse_config,
    run_sweep,
    simulate_frame,
    simulate_frames,
    wilson_interval,
)
from stclab.mathcore import CONSTELLATIONS, bessel_j0, bits_to_patterns
from stclab.stcodes import (
    alamouti_codebook,
    dispersion_code,
    encode_golden,
    encode_spatial_multiplex,
    encode_trellis,
    golden_codebook,
    load_trellis,
    spatial_multiplex_codebook,
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

    def test_every_key_sets_its_field(self):
        text = """
        code = golden
        trellis_file = codes.txt
        constellation = 16QAM
        lt = 2
        lr = 3
        channel = clarke_varying
        fdt = 0.02
        tx_geometry = tx_linear_1.0
        rx_geometry = 0,0; 0.5,0; 1,0
        csi = pilot
        pilot.count = 24
        pilot.taps = 6
        pilot.design_fdt = 0.03
        pilot.design_snr_db = 15.5
        ebn0_db = -1.5, 4
        min_frame_errors = 7
        max_frames = 900
        seed = 12
        frame_uses = 120
        decoder = sphere
        workers = 2
        """
        assert parse_config(text) == SweepConfig(
            code="golden", trellis_file="codes.txt", constellation="16QAM", lt=2,
            lr=3, channel_mode="clarke_varying", fdt=0.02,
            tx_geometry="tx_linear_1.0", rx_geometry="0,0; 0.5,0; 1,0", csi="pilot",
            pilot_count=24, pilot_taps=6, pilot_design_fdt=0.03,
            pilot_design_snr_db=15.5, ebn0_db=(-1.5, 4.0), min_frame_errors=7,
            max_frames=900, seed=12, frame_uses=120, decoder="sphere", workers=2,
        )
        with pytest.raises(InputError, match=r"^lt: cannot parse '2.5' as int$"):
            parse_config(text.replace("lt = 2", "lt = 2.5"))

    def test_unknown_key(self):
        with pytest.raises(InputError) as exc:
            parse_config(BASE_CONFIG + "bandwidth = 20\n")
        assert exc.value.key == "bandwidth"

    def test_duplicate_key(self):
        with pytest.raises(InputError):
            parse_config(BASE_CONFIG + "lt = 2\n")

    def test_missing_required(self):
        with pytest.raises(InputError):
            parse_config("code = alamouti\n")
        with pytest.raises(InputError):
            parse_config("ebn0_db = 10\n")

    def test_type_errors(self):
        with pytest.raises(InputError):
            parse_config(BASE_CONFIG + "max_frames = soon\n")

    def test_grid_must_increase(self):
        bad = BASE_CONFIG.replace("ebn0_db = 6.0, 10.0", "ebn0_db = 10.0, 6.0")
        with pytest.raises(InputError):
            parse_config(bad)

    def test_validation_catches_bad_values(self):
        with pytest.raises(InputError):
            SweepConfig(code="turbo", ebn0_db=(1.0,))
        with pytest.raises(InputError):
            SweepConfig(code="alamouti", ebn0_db=())
        with pytest.raises(InputError):
            SweepConfig(code="alamouti", ebn0_db=(1.0,), csi="genie")
        with pytest.raises(InputError):
            SweepConfig(code="trellis", ebn0_db=(1.0,))  # needs trellis_file

    @pytest.mark.parametrize(
        "field, value, key",
        [
            ("fdt", -0.01, "fdt"),
            ("fdt", np.nan, "fdt"),
            ("fdt", np.inf, "fdt"),
            ("channel_mode", "block", "channel"),
            ("pilot_design_fdt", np.nan, "pilot.design_fdt"),
            ("pilot_design_fdt", np.inf, "pilot.design_fdt"),
            ("pilot_design_snr_db", np.nan, "pilot.design_snr_db"),
            ("pilot_design_snr_db", -np.inf, "pilot.design_snr_db"),
        ],
    )
    def test_fading_refusals_name_their_key(self, field, value, key):
        kwargs = {"channel_mode": "clarke_varying", "csi": "pilot", field: value}
        with pytest.raises(InputError) as exc:
            SweepConfig(code="alamouti", ebn0_db=(1.0,), **kwargs)
        assert exc.value.key == key

    def test_noise_free_pilot_design_runs(self):
        cfg = parse_config(
            BASE_CONFIG.replace("quasi_static", "clarke_varying\nfdt = 0.01")
            + "csi = pilot\npilot.count = 8\npilot.taps = 4\npilot.design_snr_db = inf\n"
        )
        assert cfg.pilot_design_snr_db == np.inf
        assert [r.frames > 0 for r in run_sweep(cfg).rows] == [True, True]

    def test_line_without_equals_names_its_line(self):
        with pytest.raises(InputError) as exc:
            parse_config(BASE_CONFIG + "bandwidth\n")
        n = len((BASE_CONFIG + "bandwidth").splitlines())
        assert exc.value.key == f"line {n}"
        assert str(exc.value) == f"line {n}: expected 'key = value', got 'bandwidth'"

    @pytest.mark.parametrize("key", ["lt", "lr"])
    def test_antenna_count_refusal_names_its_key(self, key):
        with pytest.raises(InputError) as exc:
            SweepConfig(code="spatial_multiplex", ebn0_db=(1.0,), **{key: 0})
        assert exc.value.key == key

    @pytest.mark.parametrize("key", ["lt", "lr"])
    def test_antenna_cap(self, key):
        SweepConfig(code="spatial_multiplex", ebn0_db=(1.0,), frame_uses=1, **{key: ANTENNA_CAP})
        with pytest.raises(InputError) as exc:
            SweepConfig(code="spatial_multiplex", ebn0_db=(1.0,), **{key: ANTENNA_CAP + 1})
        assert exc.value.key == key

    def test_worker_cap(self, monkeypatch):
        def no_pool(*_args, **_kwargs):
            raise AssertionError("a thread pool was started")

        monkeypatch.setattr(harness.concurrent.futures, "ThreadPoolExecutor", no_pool)
        SweepConfig(code="alamouti", ebn0_db=(1.0,), workers=WORKER_CAP)
        with pytest.raises(InputError) as exc:
            SweepConfig(code="alamouti", ebn0_db=(1.0,), workers=WORKER_CAP + 1)
        assert exc.value.key == "workers"

    def test_frame_channel_cap(self):
        # the cap counts frame_uses x lr x lt, whichever factor grows
        uses = FRAME_CHANNEL_CAP // 8
        cfg = SweepConfig(code="alamouti", ebn0_db=(1.0,), lr=4, frame_uses=uses)
        for change in (dict(frame_uses=uses + 2), dict(lr=5)):
            with pytest.raises(InputError) as exc:
                replace(cfg, **change)
            assert exc.value.key == "frame_uses"

    def test_pilot_design_cap(self):
        # the cap counts frame_uses x pilot blocks of lt uses, whichever
        # factor grows, and only under pilot CSI
        cfg = SweepConfig(code="alamouti", ebn0_db=(1.0,), csi="pilot",
                          frame_uses=2048, pilot_count=2048)
        assert cfg.frame_uses * cfg.pilot_count // cfg.lt == PILOT_DESIGN_CAP
        for change in (dict(frame_uses=2050), dict(pilot_count=2052)):
            with pytest.raises(InputError) as exc:
                replace(cfg, **change)
            assert exc.value.key == "pilot.count"
        replace(cfg, csi="perfect", frame_uses=2050)

    def test_negative_seed_refused(self):
        with pytest.raises(InputError) as exc:
            SweepConfig(code="alamouti", ebn0_db=(1.0,), seed=-1)
        assert exc.value.key == "seed"

    def test_clarke_frame_cap(self):
        cfg = SweepConfig(code="alamouti", ebn0_db=(1.0,), channel_mode="clarke_varying",
                          fdt=0.01, frame_uses=CLARKE_MAX_USES)
        with pytest.raises(InputError) as exc:
            replace(cfg, frame_uses=CLARKE_MAX_USES + 2)
        assert exc.value.key == "frame_uses"
        # quasi-static frames, and Clarke at fdT = 0, hold one draw: no cap
        replace(cfg, frame_uses=10**6, channel_mode="quasi_static")
        replace(cfg, frame_uses=10**6, fdt=0.0)


# literal element positions of every preset and of some text specs
GEOMETRY_POSITIONS = {
    "rx_square_0.5": [[0.0, 0.0], [0.5, 0.0], [0.0, 0.5], [0.5, 0.5]],
    "rx_square_0.25": [[0.0, 0.0], [0.25, 0.0], [0.0, 0.25], [0.25, 0.25]],
    "tx_linear_2.0": [[0.0, 0.0], [2.0, 0.0], [4.0, 0.0], [6.0, 0.0]],
    "tx_linear_1.0": [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]],
    "0,0; 0.5,0; 1,0": [[0.0, 0.0], [0.5, 0.0], [1.0, 0.0]],
    "0,0; 0.3,0.4; -1.25,2": [[0.0, 0.0], [0.3, 0.4], [-1.25, 2.0]],
    " 0.05 , 0 ;0,0;": [[0.05, 0.0], [0.0, 0.0]],
}


def j0_of_positions(positions):
    pos = np.array(positions, dtype=float)
    d = np.linalg.norm(pos[:, None, :] - pos[None, :, :], axis=-1)
    return bessel_j0(2.0 * np.pi * d)


class TestGeometrySpecs:
    @pytest.mark.parametrize("spec", sorted(GEOMETRY_POSITIONS))
    def test_spec_gives_j0_of_its_first_positions(self, spec):
        pos = GEOMETRY_POSITIONS[spec]
        for n in range(1, len(pos) + 1):
            cfg = SweepConfig(
                code="spatial_multiplex", ebn0_db=(10.0,), lt=n, lr=n,
                tx_geometry=spec, rx_geometry=spec, decoder="ml", frame_uses=4,
            )
            setup = build_setup(cfg)
            want = j0_of_positions(pos[:n])
            np.testing.assert_array_equal(setup.rtx, want)
            np.testing.assert_array_equal(setup.rrx, want)

    def test_white_is_identity(self):
        cfg = SweepConfig(code="spatial_multiplex", ebn0_db=(10.0,), lt=3, lr=2,
                          decoder="ml", frame_uses=4)
        setup = build_setup(cfg)
        np.testing.assert_array_equal(setup.rtx, np.eye(3))
        np.testing.assert_array_equal(setup.rrx, np.eye(2))


class TestBuildSetup:
    def test_family_builders_are_looked_up_per_setup(self, monkeypatch):
        # the names a tracer wraps on the harness module see every call;
        # only exhaustive ML builds a codebook, only sphere decoding a lattice
        calls = []

        def counted(name):
            fn = getattr(harness, name)
            monkeypatch.setattr(harness, name, lambda *a, **k: calls.append(name) or fn(*a, **k))

        builders = ("alamouti_codebook", "golden_codebook", "spatial_multiplex_codebook")
        for name in builders + ("dispersion_code", "spatial_correlation"):
            counted(name)
        for code, decoder, built in (
            ("golden", "ml", ["golden_codebook"]),
            ("golden", "sphere", ["dispersion_code"]),
            ("alamouti", "combiner", []),
            ("alamouti", "ml", ["alamouti_codebook"]),
            ("spatial_multiplex", "ml", ["spatial_multiplex_codebook"]),
            ("spatial_multiplex", "sphere", ["dispersion_code"]),
        ):
            calls.clear()
            build_setup(SweepConfig(code=code, ebn0_db=(1.0,), lr=2, decoder=decoder))
            assert calls == built + ["spatial_correlation"] * 2, (code, decoder)

    @pytest.mark.parametrize("code", ["alamouti", "golden"])
    @pytest.mark.parametrize("decoder", ["auto", "ml"])
    def test_two_antenna_codes_refuse_other_lt(self, code, decoder):
        cfg = SweepConfig(code=code, ebn0_db=(1.0,), lt=3, lr=3, decoder=decoder)
        with pytest.raises(InputError, match=f"^lt: {code} requires lt = 2$") as exc:
            build_setup(cfg)
        assert exc.value.key == "lt"

    @pytest.mark.parametrize("constellation", ["QPSK", "16QAM"])
    @pytest.mark.parametrize(
        "code, lt",
        [("alamouti", 2), ("golden", 2)] + [("spatial_multiplex", lt) for lt in range(1, 6)],
    )
    def test_encode_equals_the_codebook_gather(self, code, lt, constellation):
        # frames were once the codebook's words gathered by bit pattern
        c = CONSTELLATIONS[constellation]
        cb = {
            "alamouti": alamouti_codebook,
            "golden": golden_codebook,
            "spatial_multiplex": partial(spatial_multiplex_codebook, lt=lt),
        }[code](c)
        decoder = "combiner" if code == "alamouti" else "sphere"
        cfg = SweepConfig(code=code, ebn0_db=(1.0,), lt=lt, lr=lt, decoder=decoder,
                          constellation=constellation, frame_uses=60)
        setup = build_setup(cfg)
        bits = np.random.default_rng(lt).integers(0, 2, size=(5, setup.info_bits))
        idx = bits_to_patterns(bits.reshape(-1), cb.bits_per_codeword)
        words = cb.codewords[idx.reshape(5, -1)]
        want = words.transpose(0, 2, 1, 3).reshape(5, lt, -1)
        got = setup.encode(bits)
        assert got.shape == want.shape == (5, lt, 60)
        assert got.tobytes() == want.tobytes()

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
        assert setup.wiener.pmap.data_positions.size == 228
        assert setup.info_bits == 228 // 2 * 4

    def test_perfect_csi_uses_whole_frame(self):
        cfg = SweepConfig(code="alamouti", ebn0_db=(10.0,), lt=2, lr=1, frame_uses=300)
        setup = build_setup(cfg)
        assert setup.wiener is None
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
        with pytest.raises(InputError):
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
        with pytest.raises(InputError):
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
        res = setup.decode(y[None], h[None], es=2.0)
        assert res.degenerate == 1
        np.testing.assert_array_equal(res.bits[0, 16:24], np.zeros(8, dtype=int))

    def test_odd_data_span_rejected(self):
        cfg = SweepConfig(code="alamouti", ebn0_db=(10.0,), lt=2, lr=1, frame_uses=61)
        with pytest.raises(InputError):
            build_setup(cfg)

    @pytest.mark.parametrize("ebn0", [np.nan, np.inf, -np.inf, -4000.0, 4000.0])
    def test_grid_point_without_finite_positive_es_rejected(self, ebn0, monkeypatch):
        calls = []
        monkeypatch.setattr(harness, "simulate_frames", lambda *a, **k: calls.append(a))
        # a valid point beside the bad one: no frame of it may run either
        grid = (ebn0, 8.0) if ebn0 < 0 else (8.0, ebn0)
        cfg = SweepConfig(code="alamouti", ebn0_db=grid, lt=2, lr=1, frame_uses=60)
        with pytest.raises(InputError) as exc:
            run_sweep(cfg)
        assert exc.value.key == "ebn0_db"
        assert calls == []


class TestRunSweep:
    def test_quasi_static_ignores_fdt(self):
        cfg = SweepConfig(code="alamouti", ebn0_db=(6.0,), lr=2, channel_mode="quasi_static",
                          fdt=0.05, min_frame_errors=5, max_frames=20, frame_uses=30, seed=4)
        assert run_sweep(cfg).to_csv() == run_sweep(replace(cfg, fdt=0.0)).to_csv()

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
        b = run_sweep(replace(cfg, workers=4)).to_csv()
        c = run_sweep(replace(cfg, seed=9, workers=2)).to_csv()
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
        b = run_sweep(replace(cfg, seed=1)).to_csv()
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


TRELLIS_FILE = str(
    importlib.resources.files("stclab") / "codes" / "delay_diversity_4state_qpsk.txt"
)


def old_simulate_frame(setup, si, fi, es):
    """The one-frame pipeline as it ran before frames were batched.

    It builds its own codebook or trellis and calls the decoders itself, so
    the sweep's bound encoder and decoder are checked against it; only the
    pilot map and interpolator come from the setup.  Returns the frame's
    (bit_errors, decoder_nodes).
    """
    cfg = setup.cfg
    ss = np.random.SeedSequence(entropy=cfg.seed, spawn_key=(si, fi))
    bits_ss, fade_ss, noise_ss = ss.spawn(3)
    bits_rng = np.random.Generator(np.random.PCG64(bits_ss))
    fade_rng = np.random.Generator(np.random.PCG64(fade_ss))
    noise_rng = np.random.Generator(np.random.PCG64(noise_ss))

    c = CONSTELLATIONS[cfg.constellation]
    bits = bits_rng.integers(0, 2, size=setup.info_bits)
    if cfg.code == "trellis":
        with open(cfg.trellis_file, encoding="utf-8") as fh:
            trellis = load_trellis(fh.read())
        x_data = encode_trellis(bits[None], trellis)[0]
    else:
        cb = {
            "alamouti": alamouti_codebook,
            "golden": golden_codebook,
            "spatial_multiplex": spatial_multiplex_codebook,
        }[cfg.code](c)
        idx = bits_to_patterns(bits, cb.bits_per_codeword)
        x_data = cb.codewords[idx].transpose(1, 0, 2).reshape(cfg.lt, -1)
    nf = cfg.frame_uses
    if cfg.csi == "pilot":
        pmap = setup.wiener.pmap
        x = np.zeros((cfg.lt, nf), dtype=complex)
        x[:, pmap.data_positions] = x_data
        for start in pmap.block_starts:
            x[:, start : start + cfg.lt] = pmap.pilot_matrix
    else:
        x = x_data
    fdt = cfg.fdt if cfg.channel_mode == "clarke_varying" else 0.0
    h = generate_fading(nf, fdt, setup.rtx, setup.rrx, fade_rng)
    y = apply_channel(x[None], h[None], es, [noise_rng])[0]
    if cfg.csi == "pilot":
        h_dec = estimate_channel(y, es, setup.wiener)
        y_data = y[pmap.data_positions]
        h_data = h_dec[pmap.data_positions]
    else:
        y_data = y
        h_data = h
    if cfg.decoder == "viterbi":
        res = viterbi_decode(y_data[None], h_data[None], trellis, es)
    elif cfg.decoder == "combiner":
        res = alamouti_combine(y_data[None], h_data[None], es, c)
    elif cfg.decoder == "sphere":
        disp = (
            dispersion_code(c, 4, encode_golden)
            if cfg.code == "golden"
            else dispersion_code(c, 2, partial(encode_spatial_multiplex, lt=2))
        )
        res = sphere_decode(y_data[None], h_data[None], disp, es)
    else:
        res = ml_exhaustive_blocks(y_data[None], h_data[None], cb, es)
    return int(np.count_nonzero(res.bits[0] != bits)), res.visited


def serial_sweep(cfg):
    """The frame-by-frame sweep with its stopping rule, as CSV text."""
    setup = build_setup(cfg)
    rows = []
    for si, ebn0 in enumerate(cfg.ebn0_db):
        es = _es_for(setup, ebn0)
        frames = errors = bits = bit_errors = nodes = 0
        for fi in range(cfg.max_frames):
            be, nv = old_simulate_frame(setup, si, fi, es)
            frames += 1
            errors += int(be > 0)
            bits += setup.info_bits
            bit_errors += be
            nodes += nv
            if errors >= cfg.min_frame_errors:
                break
        lo, hi = wilson_interval(errors, frames)
        rows.append(
            SweepRow(
                float(ebn0),
                frames,
                errors,
                errors / frames if frames else 0.0,
                lo,
                hi,
                bits,
                bit_errors,
                bit_errors / bits if bits else 0.0,
                nodes / frames if frames else 0.0,
            )
        )
    return SweepResult(rows=tuple(rows)).to_csv()


PAIRS = [
    ("alamouti", "combiner", 1),
    ("alamouti", "ml", 2),
    ("golden", "ml", 2),
    ("golden", "sphere", 2),
    ("spatial_multiplex", "ml", 2),
    ("spatial_multiplex", "sphere", 2),
    ("trellis", "viterbi", 2),
]
CHANNELS = {
    "perfect-static": dict(),
    "perfect-clarke": dict(channel_mode="clarke_varying", fdt=0.02),
    "pilot-static": dict(csi="pilot", pilot_count=8, pilot_taps=4),
    "pilot-clarke": dict(
        csi="pilot", pilot_count=8, pilot_taps=4, channel_mode="clarke_varying", fdt=0.02
    ),
}


def small_config(code, decoder, lr, channel, **extra):
    kw = dict(
        code=code,
        decoder=decoder,
        lr=lr,
        ebn0_db=(2.0, 9.0),
        frame_uses=40,
        seed=11,
        trellis_file=TRELLIS_FILE if code == "trellis" else None,
    )
    kw.update(CHANNELS[channel])
    kw.update(extra)
    return SweepConfig(**kw)


class TestFrameBatches:
    @pytest.mark.parametrize("channel", sorted(CHANNELS))
    @pytest.mark.parametrize("code, decoder, lr", PAIRS)
    def test_batch_equals_old_per_frame_pipeline(self, code, decoder, lr, channel):
        setup = build_setup(small_config(code, decoder, lr, channel))
        for si, ebn0 in enumerate(setup.cfg.ebn0_db):
            es = _es_for(setup, ebn0)
            want = [old_simulate_frame(setup, si, fi, es) for fi in range(9)]
            errs, nodes = simulate_frames(setup, si, range(9), es)
            assert errs.tolist() == [be for be, _ in want]
            assert nodes == sum(nv for _, nv in want)
            assert simulate_frame(setup, si, 4, es) == want[4]
            errs, nodes = simulate_frames(setup, si, [7, 2], es)
            assert errs.tolist() == [want[7][0], want[2][0]]
            assert nodes == want[7][1] + want[2][1]

    @pytest.mark.parametrize("channel", ["perfect-static", "pilot-clarke"])
    @pytest.mark.parametrize("code, decoder, lr", PAIRS)
    def test_sweep_stopping_on_errors_matches_serial(self, code, decoder, lr, channel):
        cfg = small_config(
            code, decoder, lr, channel, ebn0_db=(0.0, 6.0), min_frame_errors=5,
            max_frames=400,
        )
        want = serial_sweep(cfg)
        assert run_sweep(cfg).to_csv() == want
        assert run_sweep(replace(cfg, workers=3)).to_csv() == want

    def test_batch_size_not_dividing_max_frames(self, monkeypatch):
        cfg = small_config(
            "alamouti", "combiner", 1, "perfect-static", max_frames=2 * BATCH_MAX + 7,
            min_frame_errors=10**6,
        )
        want = serial_sweep(cfg)
        assert run_sweep(cfg).to_csv() == want
        monkeypatch.setattr(harness, "BATCH_MAX", 4)
        assert run_sweep(replace(cfg, max_frames=10)).to_csv() == serial_sweep(
            replace(cfg, max_frames=10)
        )

    def test_zero_max_frames_simulates_nothing(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            harness, "simulate_frames", lambda *a: calls.append(a) or []
        )
        cfg = small_config("golden", "ml", 2, "perfect-static", max_frames=0)
        rows = run_sweep(replace(cfg, workers=2)).rows
        assert calls == []
        assert [(r.frames, r.bits, r.fer_ci_lo, r.fer_ci_hi) for r in rows] == [
            (0, 0, 0.0, 1.0)
        ] * 2

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_no_frame_past_the_stopping_frame(self, monkeypatch, workers):
        calls = []

        def counting(*args):
            calls.append(args)
            return generate_fading(*args)

        monkeypatch.setattr(harness, "generate_fading", counting)
        cfg = small_config(
            "alamouti", "combiner", 1, "perfect-static", ebn0_db=(0.0, 30.0),
            min_frame_errors=3, max_frames=500,
        )
        rows = run_sweep(replace(cfg, workers=workers)).rows
        assert rows[0].frame_errors == 3 and rows[0].frames < 500
        assert len(calls) == sum(r.frames for r in rows)
        assert SweepResult(rows=rows).to_csv() == serial_sweep(cfg)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_one_channel_estimate_per_frame(self, monkeypatch, workers):
        shapes = []

        def counting(*args):
            est = estimate_channel(*args)
            shapes.append(est.shape)
            return est

        monkeypatch.setattr(harness, "estimate_channel", counting)
        cfg = small_config(
            "golden", "ml", 2, "pilot-clarke", ebn0_db=(0.0, 30.0),
            min_frame_errors=3, max_frames=40,
        )
        rows = run_sweep(replace(cfg, workers=workers)).rows
        assert len(shapes) == sum(r.frames for r in rows) > 0
        assert set(shapes) == {(cfg.frame_uses, cfg.lr, cfg.lt)}


def count_frames_in_flight(monkeypatch):
    """Wrap harness.simulate_frames; returns the list of batch sizes it
    ran and a one-element list holding the most frames in flight at once.
    Each call pauses briefly, so batches handed out together overlap."""
    lock = threading.Lock()
    sizes, in_flight, most = [], [0], [0]

    def counting(setup, si, frame_indices, es):
        with lock:
            sizes.append(len(frame_indices))
            in_flight[0] += len(frame_indices)
            most[0] = max(most[0], in_flight[0])
        time.sleep(0.02)
        try:
            return simulate_frames(setup, si, frame_indices, es)
        finally:
            with lock:
                in_flight[0] -= len(frame_indices)

    monkeypatch.setattr(harness, "simulate_frames", counting)
    return sizes, most


class TestBatchMemory:
    """A sweep holds one batch of frames, whatever the worker count and
    however large each frame's channel array is."""

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_workers_split_one_batch(self, monkeypatch, workers):
        sizes, most = count_frames_in_flight(monkeypatch)
        cfg = SweepConfig(code="alamouti", ebn0_db=(6.0,), min_frame_errors=10**6,
                          max_frames=4 * BATCH_MAX, seed=3, workers=workers)
        (row,) = run_sweep(cfg).rows
        assert row.frames == sum(sizes) == 4 * BATCH_MAX
        assert most[0] <= BATCH_MAX

    def test_batch_holds_at_most_the_frame_channel_cap(self, monkeypatch, tmp_path):
        # one-state code on 64 x 64 antennas: 300 x 64 x 64 channel values
        # a frame, so a batch of two would pass FRAME_CHANNEL_CAP
        lt = lr = ANTENNA_CAP
        lines = [f"trellis 1 1 {lt} QPSK"]
        lines += [f"0 {b} 0 " + " ".join([str(3 * b)] * lt) for b in (0, 1)]
        path = tmp_path / "one_state_64.txt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert FRAME_CHANNEL_CAP // (300 * lr * lt) == 1
        sizes, most = count_frames_in_flight(monkeypatch)
        cfg = SweepConfig(code="trellis", trellis_file=str(path), ebn0_db=(6.0,), lt=lt,
                          lr=lr, frame_uses=300, min_frame_errors=10**6, max_frames=3)
        (row,) = run_sweep(cfg).rows
        assert row.frames == 3
        assert sizes == [1, 1, 1] and most[0] == 1


class TestFrameStreams:
    """The frame generators, derived from a per-point hash, against
    numpy's own SeedSequence streams."""

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**200 + 7])
    def test_generators_equal_seed_sequence_streams(self, seed):
        # one- and two-word frame indices in one batch
        fis = [0, 15, 2**32 - 1, 2**32 + 3]
        for si in (0, 7, 2**32 + 1):
            for fi, gens in zip(fis, harness._frame_generators(seed, si, fis)):
                for k, g in enumerate(gens):
                    ss = np.random.SeedSequence(seed, spawn_key=(si, fi, k))
                    assert g.bit_generator.state == np.random.PCG64(ss).state

    def test_one_frame_batch_equals_sixteen_frame_batch(self):
        batch = harness._frame_generators(29, 2, range(16))
        for fi in (0, 9, 15):
            (alone,) = harness._frame_generators(29, 2, [fi])
            want = [g.bit_generator.state for g in batch[fi]]
            assert [g.bit_generator.state for g in alone] == want

    def test_negative_frame_index_refused(self):
        with pytest.raises(InputError):
            harness._frame_generators(0, 0, [-1])
