"""Tests for the stc-lab command line: sweep, metrics, and the
exit-code contract (0 ok, 2 config/usage, 3 numerical failure)."""

import ast
import hashlib
import re
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from stclab import cli, errors, harness
from stclab.cli import EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK, main
from stclab.errors import InputError, NumericError, StclabError

SWEEP_CONFIG = """
code = alamouti
constellation = QPSK
lt = 2
lr = 1
channel = quasi_static
ebn0_db = 8.0
min_frame_errors = 6
max_frames = 40
frame_uses = 60
seed = 11
"""


@pytest.fixture
def config_file(tmp_path):
    p = tmp_path / "sweep.cfg"
    p.write_text(SWEEP_CONFIG)
    return p


class TestSweepCommand:
    def test_csv_to_stdout(self, config_file, capsys):
        rc = main(["sweep", "--config", str(config_file)])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        lines = out.strip().split("\n")
        assert lines[0].startswith("ebn0_db,frames,frame_errors,fer,")
        assert len(lines) == 2

    def test_csv_to_file(self, config_file, tmp_path, capsys):
        out_path = tmp_path / "result.csv"
        rc = main(["sweep", "--config", str(config_file), "--out", str(out_path)])
        assert rc == EXIT_OK
        text = out_path.read_text()
        assert text.startswith("ebn0_db,")
        assert text.endswith("\n")

    def test_seed_override(self, config_file, capsys):
        main(["sweep", "--config", str(config_file)])
        a = capsys.readouterr().out
        main(["sweep", "--config", str(config_file), "--seed", "12"])
        b = capsys.readouterr().out
        main(["sweep", "--config", str(config_file), "--seed", "11"])
        c = capsys.readouterr().out
        assert a != b
        assert a == c

    def test_workers_flag_reproduces(self, config_file, capsys):
        main(["sweep", "--config", str(config_file)])
        serial = capsys.readouterr().out
        main(["sweep", "--config", str(config_file), "--workers", "3"])
        parallel = capsys.readouterr().out
        assert serial == parallel

    def test_missing_config_file(self, tmp_path, capsys):
        rc = main(["sweep", "--config", str(tmp_path / "absent.cfg")])
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err != ""

    def test_bad_config_key(self, tmp_path, capsys):
        p = tmp_path / "bad.cfg"
        p.write_text(SWEEP_CONFIG + "modulation = 8PSK\n")
        rc = main(["sweep", "--config", str(p)])
        assert rc == EXIT_CONFIG

    # sphere decoding builds no codebook, but its degenerate-block fallback
    # scans as many candidates as the codebook has words
    @pytest.mark.parametrize("decoder", ["auto", "sphere"])
    def test_codebook_cap_refuses_six_sixteen_qam_antennas(self, decoder, tmp_path, capsys):
        p = tmp_path / "big.cfg"
        p.write_text(
            SWEEP_CONFIG.replace("code = alamouti", "code = spatial_multiplex")
            .replace("QPSK", "16QAM")
            .replace("lt = 2", "lt = 6")
            .replace("lr = 1", "lr = 6")
            + f"decoder = {decoder}\n"
        )
        t0 = time.perf_counter()
        rc = main(["sweep", "--config", str(p)])
        assert rc == EXIT_CONFIG
        assert time.perf_counter() - t0 < 5.0
        assert "16777216 codewords" in capsys.readouterr().err

    def test_inconsistent_config(self, tmp_path, capsys):
        p = tmp_path / "bad.cfg"
        p.write_text(SWEEP_CONFIG.replace("lt = 2", "lt = 3"))
        rc = main(["sweep", "--config", str(p)])
        assert rc == EXIT_CONFIG

    def test_negative_seed_exits_config(self, config_file, tmp_path, capsys):
        rc = main(["sweep", "--config", str(config_file), "--seed", "-1"])
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error: seed: ")
        p = tmp_path / "seed.cfg"
        p.write_text(SWEEP_CONFIG.replace("seed = 11", "seed = -1"))
        assert main(["sweep", "--config", str(p)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error: seed: ")

    @pytest.mark.parametrize("key", ["lt", "lr"])
    def test_zero_antennas_names_the_key(self, key, tmp_path, capsys):
        p = tmp_path / "antennas.cfg"
        p.write_text(SWEEP_CONFIG.replace(f"{key} = ", f"{key} = 0  # "))
        assert main(["sweep", "--config", str(p)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"error: {key}: ")

    def test_long_clarke_frame_exits_config_before_any_frame(self, tmp_path, monkeypatch, capsys):
        def no_frames(*_args, **_kwargs):
            raise AssertionError("a frame ran")

        monkeypatch.setattr(harness, "simulate_frames", no_frames)
        p = tmp_path / "clarke.cfg"
        p.write_text(
            SWEEP_CONFIG.replace("quasi_static", "clarke_varying")
            .replace("frame_uses = 60", "frame_uses = 50000")
            + "fdt = 0.01\n"
        )
        assert main(["sweep", "--config", str(p)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: frame_uses: ")

    @pytest.mark.parametrize("grid", ["nan", "inf", "-4000", "4000"])
    def test_grid_without_finite_es_is_a_config_error(self, grid, tmp_path, capsys):
        p = tmp_path / "grid.cfg"
        p.write_text(SWEEP_CONFIG.replace("ebn0_db = 8.0", f"ebn0_db = {grid}"))
        rc = main(["sweep", "--config", str(p)])
        assert rc == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ebn0_db: ")


# a malformed array spec on either side, with lt = lr = 2
MALFORMED_GEOMETRY = {
    "ragged row": "0,0; 0.5",
    "three coordinates": "0,0,0; 1,0,0",
    "not a number": "0,0; nan,0",
    "infinite": "0,0; inf,0",
    "unknown name": "hexagon",
    "too few elements": "0,0",
}


class TestGeometrySpecs:
    @pytest.mark.parametrize("key", ["tx_geometry", "rx_geometry"])
    @pytest.mark.parametrize("case", sorted(MALFORMED_GEOMETRY))
    def test_malformed_spec_exits_config_and_names_key(self, key, case, tmp_path, capsys):
        p = tmp_path / "geometry.cfg"
        spec = MALFORMED_GEOMETRY[case]
        p.write_text(SWEEP_CONFIG.replace("lr = 1", "lr = 2") + f"{key} = {spec}\n")
        assert main(["sweep", "--config", str(p)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {key}: ")


class TestMetricsCommand:
    def test_alamouti_report(self, capsys):
        rc = main(["metrics", "--code", "alamouti"])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert re.search(r"min rank\s*: 2\b", out)
        assert re.search(r"examined\s*: 120\b", out)

    def test_golden_report(self, capsys):
        rc = main(["metrics", "--code", "golden"])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert re.search(r"min rank\s*: 2\b", out)

    def test_pair_cap_refuses_golden_sixteen_qam_only(self, capsys):
        t0 = time.perf_counter()
        rc = main(["metrics", "--code", "golden", "--constellation", "16QAM"])
        assert rc == EXIT_CONFIG
        assert time.perf_counter() - t0 < 5.0
        assert "2147450880 codeword pairs" in capsys.readouterr().err
        rc = main(["metrics", "--code", "golden", "--constellation", "QPSK"])
        assert rc == EXIT_OK
        assert re.search(r"examined\s*: 32640\b", capsys.readouterr().out)

    def test_spatial_multiplex_report(self, capsys):
        rc = main(["metrics", "--code", "spatial_multiplex"])
        assert rc == EXIT_OK
        assert re.search(r"min rank\s*: 1\b", capsys.readouterr().out)

    def test_delay_diversity_event_report(self, capsys):
        rc = main(["metrics", "--code", "delay_diversity", "--depth", "4"])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert re.search(r"min rank\s*: 2\b", out)
        assert "error events" in out

    def test_trellis_file_path(self, tmp_path, capsys):
        import importlib.resources as ir

        src = (ir.files("stclab") / "codes" / "delay_diversity_4state_qpsk.txt").read_text()
        p = tmp_path / "custom.txt"
        p.write_text(src)
        rc = main(["metrics", "--code", str(p), "--depth", "3"])
        assert rc == EXIT_OK
        assert re.search(r"min rank\s*: 2\b", capsys.readouterr().out)

    def test_csv_export(self, tmp_path, capsys):
        out_path = tmp_path / "metrics.csv"
        rc = main(["metrics", "--code", "alamouti", "--csv", str(out_path)])
        assert rc == EXIT_OK
        text = out_path.read_text()
        assert text.splitlines()[0].count(",") >= 2

    def test_missing_trellis_file(self, tmp_path, capsys):
        rc = main(["metrics", "--code", str(tmp_path / "nope.txt")])
        assert rc == EXIT_CONFIG

    def test_malformed_trellis_file(self, tmp_path, capsys):
        p = tmp_path / "broken.txt"
        p.write_text("trellis 4 2 2 QPSK\n0 00 0 0\n")
        rc = main(["metrics", "--code", str(p)])
        assert rc == EXIT_CONFIG

    @pytest.mark.parametrize("command", ["metrics", "sweep"])
    def test_oversized_trellis_header_refused(self, command, tmp_path, capsys):
        # 2^100000000 inputs a state: refused from the header alone
        code = tmp_path / "huge.txt"
        code.write_text("trellis 1 100000000 1 QPSK\n")
        argv = ["metrics", "--code", str(code)]
        if command == "sweep":
            cfg = tmp_path / "huge.cfg"
            cfg.write_text(
                SWEEP_CONFIG.replace("code = alamouti", f"code = trellis\ntrellis_file = {code}")
            )
            argv = ["sweep", "--config", str(cfg)]
        tracemalloc.start()
        try:
            rc = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == EXIT_CONFIG
        assert "line 1: 1 states x 2^100000000 inputs exceed" in capsys.readouterr().err
        assert peak < 10 * 2**20


# sha256 of (stdout, --csv file) of `stc-lab metrics`, pinned when the pair
# and event enumerators were plain Python loops; the array kernels must
# reproduce them byte for byte
METRICS_OUTPUT_SHA256 = {
    ("alamouti", "QPSK"): (
        "d9e1a137973964db242564aa3f3818843b7c75dec38d66d8f24698f04346e278",
        "f8d7031872a56ed7386816ccb44f342c845d4e03c3057b6b216fc9a308fd5c9b",
    ),
    ("alamouti", "16QAM"): (
        "0d270efb7fc3424aeb0c5c80c5ef6df099763a71d29a33b5de75e8edf74d0423",
        "6c24ecadc08b069fbdae58d7908dd220925597384980d2bf8c739a6433604b08",
    ),
    ("golden", "QPSK"): (
        "3cf065556ae8b653e77baa8ba05c26b2bb8358ba37d4bb2862bec3760d317470",
        "47a6ecbad00cc2a246539c5787679ac4865ed507bbd5ca025977fe9e03e551db",
    ),
    ("spatial_multiplex", "QPSK"): (
        "e3a108a6b5996e994b7b15d733faa2249621a7bb60f16fee96ccc5732d76eeb8",
        "575bcb59b77e7f7baa8778db894d187bffcb05e61ffccc34a06db129733359d5",
    ),
    ("delay_diversity", "QPSK"): (
        "34c4e15ced4821683ec260e20f2bbb7fde61872203c5b1b1969c83e93c64066b",
        "8004b2f55e680974a659c1595ff3e96c9366baaf50581de6a436550e95588b54",
    ),
}


@pytest.mark.parametrize("code, constellation", sorted(METRICS_OUTPUT_SHA256))
def test_metrics_output_is_byte_identical(code, constellation, tmp_path, capsys):
    csv = tmp_path / "metrics.csv"
    argv = ["metrics", "--code", code, "--constellation", constellation, "--csv", str(csv)]
    if code == "delay_diversity":
        argv += ["--depth", "10"]
    assert main(argv) == EXIT_OK
    out = capsys.readouterr().out.encode()
    got = (hashlib.sha256(out).hexdigest(), hashlib.sha256(csv.read_bytes()).hexdigest())
    assert got == METRICS_OUTPUT_SHA256[code, constellation]


_GOLDEN_SWEEP = {
    "code": "golden", "lt": 2, "lr": 2, "min_frame_errors": 10**9, "seed": 5,
}
_COMPACT_PAIR = {"tx_geometry": "0,0; 0.05,0", "rx_geometry": "0,0; 0.05,0"}
_PILOT_CSI = {
    "channel": "clarke_varying", "fdt": 0.01, "csi": "pilot", "pilot.count": 72,
    "pilot.taps": 20, "pilot.design_fdt": 0.01, "pilot.design_snr_db": 12,
}

# small sweeps whose CSV bytes, `mean_decoder_nodes` included, are pinned:
# a faster decoder must keep every decision and every visit count
SWEEP_CSV_SHA256 = {
    "golden-qpsk-sphere-compact": (
        dict(_GOLDEN_SWEEP, **_COMPACT_PAIR, constellation="QPSK", decoder="sphere",
             ebn0_db="12, 200", max_frames=16),
        "5360e8a970956bfa35e00e83e0cab3e204a2ef798e974165b838d73b1d514383",
    ),
    "golden-16qam-sphere-2x4": (
        dict(_GOLDEN_SWEEP, lr=4, tx_geometry="0,0; 0.05,0", constellation="16QAM",
             decoder="sphere", ebn0_db="6, 12, 200", max_frames=4),
        "d8fbad50cc513adabe621067a013ef53bd92b4b65cad4449d18e29d9fca04ed7",
    ),
    "golden-qpsk-sphere-pilot": (
        dict(_GOLDEN_SWEEP, **_PILOT_CSI, constellation="QPSK", decoder="sphere",
             ebn0_db="4, 10, 200", max_frames=8),
        "7d16e47cb32d7fe3691ed1baee7b0ae2b29fb0908c15d53d456e2e08e2d863f8",
    ),
    "golden-16qam-ml-60": (
        dict(_GOLDEN_SWEEP, **_COMPACT_PAIR, constellation="16QAM", decoder="ml",
             frame_uses=60, ebn0_db="12, 200", max_frames=2),
        "2786ec9ef5a3a473ac663020947a29166d20bc3dcace7f87861db1cd2e0de6f4",
    ),
}


@pytest.mark.parametrize("name", sorted(SWEEP_CSV_SHA256))
def test_sweep_csv_is_byte_identical(name, tmp_path, capsys):
    keys, want = SWEEP_CSV_SHA256[name]
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()))
    assert main(["sweep", "--config", str(cfg)]) == EXIT_OK
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == want


@pytest.mark.parametrize(
    "code, constellation",
    [key for key in sorted(METRICS_OUTPUT_SHA256) if key[0] in harness.FAMILIES],
)
def test_metrics_csv_agrees_with_report(code, constellation, tmp_path, capsys):
    csv = tmp_path / "metrics.csv"
    argv = ["metrics", "--code", code, "--constellation", constellation, "--csv", str(csv)]
    assert main(argv) == EXIT_OK
    report = dict(
        (k.strip(), v.strip())
        for k, v in (line.split(":", 1) for line in capsys.readouterr().out.splitlines()[1:])
    )
    header, rank_product, euclidean = (
        line.split(",") for line in csv.read_text().splitlines()
    )
    assert header == ["kind", "i", "j", "rank", "product_measure", "euclidean"]
    assert rank_product[0] == "rank_product"
    assert f"({rank_product[1]}, {rank_product[2]})" == report["worst pair (rank, product)"]
    assert rank_product[3] == report["min rank"]
    assert rank_product[4] == report["min product measure @ min rank"]
    assert euclidean[0] == "euclidean"
    assert f"({euclidean[1]}, {euclidean[2]})" == report["worst pair (euclidean)"]
    assert euclidean[5] == report["min euclidean"]


class TestExitCodes:
    def test_constants(self):
        assert (EXIT_OK, EXIT_CONFIG, EXIT_NUMERIC) == (0, 2, 3)

    def test_usage_error_from_argparse(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep"])  # --config is required
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", ["tune", "selftest"])
    def test_unknown_command(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command])
        assert exc.value.code == 2


# the exit code of each error family, and of the builtins the command line
# also maps
ERROR_EXIT_CODES = {
    "InputError": EXIT_CONFIG,
    "NumericError": EXIT_NUMERIC,
}
BUILTIN_EXIT_CODES = {
    OSError: EXIT_CONFIG,
    np.linalg.LinAlgError: EXIT_NUMERIC,
    FloatingPointError: EXIT_NUMERIC,
    OverflowError: EXIT_NUMERIC,
}


class TestErrorFamilies:
    def test_every_raise_names_a_family(self):
        # each raise in the package builds an InputError or a NumericError
        # (a bare raise re-raises), so every refusal reaches its exit code
        bad = []
        for path in sorted(Path(cli.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if not isinstance(node, ast.Raise) or node.exc is None:
                    continue
                func = getattr(node.exc, "func", None)
                if getattr(func, "id", None) not in ERROR_EXIT_CODES:
                    bad.append(f"{path.name}:{node.lineno}")
        assert bad == []

    def test_families(self):
        assert InputError.__bases__ == (StclabError, ValueError)
        assert NumericError.__bases__ == (StclabError, RuntimeError)
        assert str(InputError("bad", key="lt")) == "lt: bad"
        assert InputError("bad").key is None

    @pytest.mark.parametrize(
        "cls, code",
        [(getattr(errors, n), c) for n, c in sorted(ERROR_EXIT_CODES.items())]
        + list(BUILTIN_EXIT_CODES.items()),
    )
    def test_main_exit_code_per_error(self, cls, code, monkeypatch, capsys):
        def fail(_args):
            raise cls("injected fault")

        monkeypatch.setattr(cli, "_cmd_metrics", fail)
        assert main(["metrics", "--code", "golden"]) == code
        assert capsys.readouterr().err == "error: injected fault\n"

    def test_depth_too_large_exits_numeric(self, capsys):
        rc = main(["metrics", "--code", "delay_diversity", "--depth", "14"])
        assert rc == EXIT_NUMERIC
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "depth, message",
        [("0", "--depth: max_depth must be >= 1"), ("1", "--depth: no error event remerges by step 1")],
    )
    def test_depth_too_small_exits_config(self, depth, message, capsys):
        # at depth 1 no delay-diversity event has remerged yet
        rc = main(["metrics", "--code", "delay_diversity", "--depth", depth])
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {message}\n"


class TestRefusalsBeforeAllocation:
    """Oversized or malformed requests exit 2 with their key before the
    arrays they would need exist: each call peaks below 10 MB traced."""

    @staticmethod
    def traced_main(argv):
        tracemalloc.start()
        try:
            rc = main(argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20
        return rc

    @pytest.mark.parametrize(
        "key, edits",
        [
            # np.eye(100000), the white correlation matrix, is 74.5 GiB
            ("lr", {"lr = 1": "lr = 100000"}),
            # spatial multiplexing takes any lt
            ("lt", {"alamouti": "spatial_multiplex", "lt = 2": "lt = 100000"}),
            # a quasi-static frame's bit draw alone is 14.9 GiB
            ("frame_uses", {"frame_uses = 60": "frame_uses = 1000000000"}),
            ("pilot.taps", {"seed = 11": "csi = pilot\npilot.count = 8\npilot.taps = 0"}),
            ("pilot.count", {"seed = 11": "csi = pilot\npilot.count = 7"}),
            # the Wiener design's weights alone would be 763 MiB
            ("pilot.count", {
                "frame_uses = 60": "frame_uses = 20000",
                "seed = 11": "csi = pilot\npilot.count = 10000\npilot.taps = 5000",
            }),
            # 2e6 uses x 1e6 blocks of sorting, within every other cap
            ("pilot.count", {
                "alamouti": "spatial_multiplex",
                "lt = 2": "lt = 1",
                "frame_uses = 60": "frame_uses = 2000000",
                "seed = 11": "csi = pilot\npilot.count = 1000000",
            }),
            # 16^6 words, past the codebook cap, for exhaustive ML (auto) and
            # for sphere decoding's degenerate blocks
            ("lt", {"alamouti": "spatial_multiplex", "QPSK": "16QAM", "lt = 2": "lt = 6",
                    "lr = 1": "lr = 6"}),
            ("lt", {"alamouti": "spatial_multiplex", "QPSK": "16QAM", "lt = 2": "lt = 6",
                    "lr = 1": "lr = 6", "seed = 11": "seed = 11\ndecoder = sphere"}),
        ],
    )
    def test_sweep_refusal_names_the_key(self, key, edits, tmp_path, capsys):
        text = SWEEP_CONFIG
        for old, new in edits.items():
            text = text.replace(old, new)
        p = tmp_path / "refused.cfg"
        p.write_text(text)
        assert self.traced_main(["sweep", "--config", str(p)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"error: {key}: ")

    def test_worker_flag_above_the_cap_names_the_key(self, config_file, monkeypatch, capsys):
        # one thread per queued batch: no sweep runs with this many workers
        def no_pool(*_args, **_kwargs):
            raise AssertionError("a thread pool was started")

        monkeypatch.setattr(harness.concurrent.futures, "ThreadPoolExecutor", no_pool)
        argv = ["sweep", "--config", str(config_file), "--workers", str(harness.WORKER_CAP + 1)]
        assert self.traced_main(argv) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: workers: ")

    def test_huge_depth_names_the_flag(self, capsys):
        # the reference path alone would be 7.45 GiB
        argv = ["metrics", "--code", "delay_diversity", "--depth", "1000000000"]
        assert self.traced_main(argv) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error: --depth: ")
