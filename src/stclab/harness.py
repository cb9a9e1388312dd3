"""Monte Carlo experiment driver.

A sweep runs frames through encode -> correlated fading -> noise ->
(optional pilot estimation) -> decode at each Eb/N0 grid point, counting
frame and bit errors until a stopping rule fires.  Results carry Wilson 95%
confidence intervals and are emitted as CSV.

Energy accounting: N0 is fixed at 1 and Es = ebn0_linear * info_bits_per
frame / frame_uses.  Under pilot CSI the frame still spans ``frame_uses``
uses but carries fewer information bits, so the pilot overhead is charged
to Es exactly as a fair comparison requires.

Reproducibility: frame (snr_index, frame_index) draws its bit, fading and
noise generators from SeedSequence(seed, spawn_key=(snr_index,
frame_index)), so serial and parallel execution produce byte-identical
output and any frame can be regenerated in isolation.
"""

import concurrent.futures
from dataclasses import dataclass, field, replace

import numpy as np

from .chanest import build_pilot_map, design_wiener, estimate_channel
from .channel import (
    ArrayGeometry,
    ChannelParams,
    GEOMETRY_PRESETS,
    MODES,
    apply_channel,
    generate_fading,
    spatial_correlation,
)
from .demod import (
    alamouti_combine,
    ml_exhaustive_blocks,
    sphere_decode,
    viterbi_decode,
)
from .errors import ConfigError, EmptyInput, SlotMismatch
from .mathcore import CONSTELLATIONS, bits_to_patterns
from .stcodes import (
    alamouti_codebook,
    encode_trellis,
    golden_codebook,
    golden_dispersion,
    load_trellis,
    spatial_multiplex_codebook,
    spatial_multiplex_dispersion,
)

Z_95 = 1.959963984540054

CODES = ("alamouti", "golden", "spatial_multiplex", "trellis")
CSI_MODES = ("perfect", "pilot")
DECODERS = ("auto", "ml", "sphere", "combiner", "viterbi")

# nf = 300 symbols per frame slot, 42 slots, ~70 symbols of silence
DEFAULT_FRAME_USES = 300
NOISELESS_EBN0_DB = 200.0


@dataclass(frozen=True)
class SweepConfig:
    code: str
    ebn0_db: tuple
    trellis_file: str = None
    constellation: str = "QPSK"
    lt: int = 2
    lr: int = 1
    channel_mode: str = "quasi_static"
    fdt: float = 0.0
    tx_geometry: str = "white"
    rx_geometry: str = "white"
    csi: str = "perfect"
    pilot_count: int = 72
    pilot_taps: int = 20
    pilot_design_fdt: float = 0.01
    pilot_design_snr_db: float = 30.0
    min_frame_errors: int = 200
    max_frames: int = 100_000
    seed: int = 0
    frame_uses: int = DEFAULT_FRAME_USES
    decoder: str = "auto"
    workers: int = 1

    def __post_init__(self):
        if self.code not in CODES:
            raise ConfigError(f"must be one of {CODES}", key="code")
        if self.code == "trellis" and not self.trellis_file:
            raise ConfigError("required when code = trellis", key="trellis_file")
        if self.constellation not in CONSTELLATIONS:
            raise ConfigError(
                f"must be one of {sorted(CONSTELLATIONS)}", key="constellation"
            )
        if not self.ebn0_db:
            raise ConfigError("grid must be non-empty", key="ebn0_db")
        diffs = np.diff(np.asarray(self.ebn0_db, dtype=float))
        if np.any(diffs <= 0):
            raise ConfigError("grid must be strictly increasing", key="ebn0_db")
        if self.lt < 1 or self.lr < 1:
            raise ConfigError("antenna counts must be >= 1", key="lt")
        if self.channel_mode not in MODES:
            raise ConfigError(f"must be one of {MODES}", key="channel")
        if self.fdt < 0:
            raise ConfigError("must be >= 0", key="fdt")
        if self.csi not in CSI_MODES:
            raise ConfigError(f"must be one of {CSI_MODES}", key="csi")
        if self.decoder not in DECODERS:
            raise ConfigError(f"must be one of {DECODERS}", key="decoder")
        if self.min_frame_errors < 1:
            raise ConfigError("must be >= 1", key="min_frame_errors")
        if self.max_frames < 0:
            raise ConfigError("must be >= 0", key="max_frames")
        if self.frame_uses < 1:
            raise ConfigError("must be >= 1", key="frame_uses")
        if self.workers < 1:
            raise ConfigError("must be >= 1", key="workers")


@dataclass(frozen=True)
class SweepRow:
    ebn0_db: float
    frames: int
    frame_errors: int
    fer: float
    fer_ci_lo: float
    fer_ci_hi: float
    bits: int
    bit_errors: int
    ber: float
    mean_decoder_nodes: float


CSV_COLUMNS = (
    "ebn0_db",
    "frames",
    "frame_errors",
    "fer",
    "fer_ci_lo",
    "fer_ci_hi",
    "bits",
    "bit_errors",
    "ber",
    "mean_decoder_nodes",
)


@dataclass(frozen=True)
class SweepResult:
    rows: tuple

    def to_csv(self):
        lines = [",".join(CSV_COLUMNS)]
        for r in self.rows:
            lines.append(
                ",".join(
                    [
                        repr(float(r.ebn0_db)),
                        str(int(r.frames)),
                        str(int(r.frame_errors)),
                        repr(float(r.fer)),
                        repr(float(r.fer_ci_lo)),
                        repr(float(r.fer_ci_hi)),
                        str(int(r.bits)),
                        str(int(r.bit_errors)),
                        repr(float(r.ber)),
                        repr(float(r.mean_decoder_nodes)),
                    ]
                )
            )
        return "\n".join(lines) + "\n"


def wilson_interval(k, n, z=Z_95):
    """Wilson score 95% interval for k successes in n trials.

    n = 0 returns the uninformative (0, 1) interval.
    """
    if n == 0:
        return 0.0, 1.0
    p = k / n
    zz = z * z
    denom = 1.0 + zz / n
    center = (p + zz / (2.0 * n)) / denom
    half = z * np.sqrt(p * (1.0 - p) / n + zz / (4.0 * n * n)) / denom
    # score-interval endpoints are exact at the boundaries
    lo = 0.0 if k == 0 else max(0.0, center - half)
    hi = 1.0 if k == n else min(1.0, center + half)
    return lo, hi


def estimate_noise(silence):
    """N0 estimate: mean |sample|^2 of complex silence-period samples."""
    s = np.asarray(silence, dtype=complex).reshape(-1)
    if s.size == 0:
        raise EmptyInput("need at least one silence sample")
    return float(np.mean(np.abs(s) ** 2))


def _parse_geometry(spec_text, key):
    if spec_text == "white":
        return None
    if spec_text in GEOMETRY_PRESETS:
        return ArrayGeometry.from_preset(spec_text)
    try:
        rows = [
            [float(v) for v in chunk.split(",")]
            for chunk in spec_text.split(";")
            if chunk.strip()
        ]
        return ArrayGeometry(np.array(rows))
    except (ValueError, TypeError):
        raise ConfigError(
            f"expected 'white', a preset {sorted(GEOMETRY_PRESETS)},"
            " or 'x,y; x,y; ...'",
            key=key,
        ) from None


@dataclass
class _Setup:
    """Resolved per-sweep objects shared by every frame."""

    cfg: SweepConfig
    constellation: object
    codebook: object = None
    dispersion: object = None
    trellis: object = None
    decoder: str = "auto"
    rtx: np.ndarray = None
    rrx: np.ndarray = None
    pmap: object = None
    wiener: object = None
    data_positions: np.ndarray = None
    data_uses: int = 0
    info_bits: int = 0
    allow_nonstatic: bool = False


def _resolve_decoder(cfg, kind):
    if cfg.decoder != "auto":
        valid = {
            "alamouti": ("combiner", "ml"),
            "golden": ("ml", "sphere"),
            "spatial_multiplex": ("ml", "sphere"),
            "trellis": ("viterbi",),
        }[kind]
        if cfg.decoder not in valid:
            raise ConfigError(
                f"decoder {cfg.decoder!r} does not apply to code {kind!r}",
                key="decoder",
            )
        return cfg.decoder
    return {
        "alamouti": "combiner",
        "golden": "ml",
        "spatial_multiplex": "ml",
        "trellis": "viterbi",
    }[kind]


def build_setup(cfg: SweepConfig):
    """Resolve a SweepConfig into the concrete objects a sweep uses."""
    c = CONSTELLATIONS[cfg.constellation]
    setup = _Setup(cfg=cfg, constellation=c)
    setup.decoder = _resolve_decoder(cfg, cfg.code)

    if cfg.code == "trellis":
        try:
            with open(cfg.trellis_file, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as e:
            raise ConfigError(str(e), key="trellis_file") from None
        setup.trellis = load_trellis(text, name=cfg.trellis_file)
        if setup.trellis.lt != cfg.lt:
            raise ConfigError(
                f"trellis file has lt={setup.trellis.lt}, config says {cfg.lt}",
                key="lt",
            )
        if setup.trellis.constellation.name != c.name:
            raise ConfigError(
                "trellis file constellation differs from config",
                key="constellation",
            )
    elif cfg.code == "alamouti":
        if cfg.lt != 2:
            raise ConfigError("alamouti requires lt = 2", key="lt")
        setup.codebook = alamouti_codebook(c)
    elif cfg.code == "golden":
        if cfg.lt != 2:
            raise ConfigError("golden requires lt = 2", key="lt")
        setup.codebook = golden_codebook(c)
        setup.dispersion = golden_dispersion(c)
    else:
        setup.codebook = spatial_multiplex_codebook(c, lt=cfg.lt, n_uses=1)
        setup.dispersion = spatial_multiplex_dispersion(c, lt=cfg.lt, n_uses=1)
    if setup.decoder == "sphere" and cfg.lr < cfg.lt:
        raise ConfigError("sphere decoding requires lr >= lt", key="decoder")

    for side, key, count in (("tx", "tx_geometry", cfg.lt), ("rx", "rx_geometry", cfg.lr)):
        geom = _parse_geometry(getattr(cfg, key), key)
        if geom is None:
            corr = np.eye(count)
        else:
            if geom.n_elements < count:
                raise ConfigError(
                    f"geometry has {geom.n_elements} elements, need {count}",
                    key=key,
                )
            corr = spatial_correlation(geom.truncate(count))
        if side == "tx":
            setup.rtx = corr
        else:
            setup.rrx = corr

    if cfg.csi == "pilot":
        setup.pmap = build_pilot_map(cfg.frame_uses, cfg.lt, cfg.pilot_count)
        setup.wiener = design_wiener(
            setup.pmap,
            fdT_design=cfg.pilot_design_fdt,
            snr_design_db=cfg.pilot_design_snr_db,
            taps=min(cfg.pilot_taps, setup.pmap.n_blocks),
        )
        setup.data_positions = setup.pmap.data_positions
        setup.data_uses = int(setup.data_positions.size)
    else:
        setup.data_positions = None
        setup.data_uses = cfg.frame_uses

    if setup.trellis is not None:
        steps = setup.data_uses - setup.trellis.n_term_steps
        if steps < 1:
            raise ConfigError(
                "frame too short for the trellis termination tail",
                key="frame_uses",
            )
        setup.info_bits = steps * setup.trellis.bits_per_step
    else:
        u = setup.codebook.n_uses
        if setup.data_uses % u:
            raise ConfigError(
                f"data span {setup.data_uses} is not a multiple of the"
                f" {u}-use codeword",
                key="frame_uses",
            )
        setup.info_bits = (setup.data_uses // u) * setup.codebook.bits_per_codeword

    setup.allow_nonstatic = (
        cfg.channel_mode == "clarke_varying" and cfg.fdt > 0
    ) or cfg.csi == "pilot"
    return setup


def _encode_data(setup, bits):
    if setup.trellis is not None:
        return encode_trellis(bits, setup.trellis)
    cb = setup.codebook
    idx = bits_to_patterns(bits, cb.bits_per_codeword)
    return cb.codewords[idx].transpose(1, 0, 2).reshape(cb.lt, -1)


def _decode_data(setup, y_data, h_data, es):
    if setup.decoder == "viterbi":
        return viterbi_decode(y_data, h_data, setup.trellis, es)
    if setup.decoder == "combiner":
        return alamouti_combine(
            y_data,
            h_data,
            es,
            setup.constellation,
            allow_nonstatic=setup.allow_nonstatic,
        )
    if setup.decoder == "sphere":
        return sphere_decode(y_data, h_data, setup.dispersion, es)
    return ml_exhaustive_blocks(y_data, h_data, setup.codebook, es)


def simulate_frame(setup, si, fi, es):
    """Run one frame; returns (frame_error, bit_errors, info_bits, nodes)."""
    cfg = setup.cfg
    ss = np.random.SeedSequence(entropy=cfg.seed, spawn_key=(si, fi))
    bits_ss, fade_ss, noise_ss = ss.spawn(3)
    bits_rng = np.random.Generator(np.random.PCG64(bits_ss))
    fade_rng = np.random.Generator(np.random.PCG64(fade_ss))
    noise_rng = np.random.Generator(np.random.PCG64(noise_ss))

    bits = bits_rng.integers(0, 2, size=setup.info_bits)
    x_data = _encode_data(setup, bits)
    nf = cfg.frame_uses
    if cfg.csi == "pilot":
        x = np.zeros((cfg.lt, nf), dtype=complex)
        x[:, setup.data_positions] = x_data
        p = setup.pmap.pilot_matrix
        for start in setup.pmap.block_starts:
            x[:, start : start + cfg.lt] = p
    else:
        x = x_data
    params = ChannelParams(
        lt=cfg.lt, lr=cfg.lr, fdT=cfg.fdt, es=es, n0=1.0, mode=cfg.channel_mode
    )
    h = generate_fading(nf, params, setup.rtx, setup.rrx, fade_rng)
    rx = apply_channel(x, h, params, noise_rng)
    if cfg.csi == "pilot":
        h_dec = estimate_channel(rx, setup.pmap, setup.wiener)
        y_data = rx.y[setup.data_positions]
        h_data = h_dec[setup.data_positions]
    else:
        y_data = rx.y
        h_data = h
    res = _decode_data(setup, y_data, h_data, es)
    bit_errors = int(np.count_nonzero(res.bits != bits))
    return bit_errors > 0, bit_errors, setup.info_bits, res.visited


def _es_for(setup, ebn0_db):
    # Es = Eb/N0 * (info bits per frame) / (uses per frame), with N0 = 1;
    # pilot and termination overhead are charged automatically
    return 10.0 ** (ebn0_db / 10.0) * setup.info_bits / setup.cfg.frame_uses


def run_sweep(cfg: SweepConfig, workers=None):
    """Full Eb/N0 sweep per the config; deterministic for a fixed seed.

    Frames are scanned in index order at every grid point until
    ``min_frame_errors`` errors or ``max_frames`` frames, whichever first.
    ``workers`` > 1 evaluates frames in parallel batches whose results are
    consumed in the same index order, so output is identical to serial.
    """
    setup = build_setup(cfg)
    workers = cfg.workers if workers is None else workers
    rows = []
    for si, ebn0 in enumerate(cfg.ebn0_db):
        es = _es_for(setup, ebn0)
        frames = errors = bits = bit_errors = nodes = 0

        def consume(outcome):
            nonlocal frames, errors, bits, bit_errors, nodes
            fe, be, nb, nv = outcome
            frames += 1
            errors += int(fe)
            bits += nb
            bit_errors += be
            nodes += nv
            return errors >= cfg.min_frame_errors

        if workers <= 1:
            for fi in range(cfg.max_frames):
                if consume(simulate_frame(setup, si, fi, es)):
                    break
        else:
            with concurrent.futures.ThreadPoolExecutor(workers) as pool:
                fi = 0
                stopped = False
                while not stopped and fi < cfg.max_frames:
                    batch = range(fi, min(fi + 16 * workers, cfg.max_frames))
                    results = pool.map(
                        lambda f: simulate_frame(setup, si, f, es), batch
                    )
                    for outcome in results:
                        if consume(outcome):
                            stopped = True
                            break
                    fi = batch.stop
        lo, hi = wilson_interval(errors, frames)
        rows.append(
            SweepRow(
                ebn0_db=float(ebn0),
                frames=frames,
                frame_errors=errors,
                fer=errors / frames if frames else 0.0,
                fer_ci_lo=lo,
                fer_ci_hi=hi,
                bits=bits,
                bit_errors=bit_errors,
                ber=bit_errors / bits if bits else 0.0,
                mean_decoder_nodes=nodes / frames if frames else 0.0,
            )
        )
    return SweepResult(rows=tuple(rows))


@dataclass(frozen=True)
class SuperframeLayout:
    """42 frame slots of 300 symbols with a preamble and a silence tail."""

    preamble_len: int = 100
    n_slots: int = 42
    frame_len: int = DEFAULT_FRAME_USES
    silence_len: int = 70

    def slot_bounds(self, i):
        if not 0 <= i < self.n_slots:
            raise SlotMismatch(f"slot {i} out of range 0..{self.n_slots - 1}")
        start = self.preamble_len + i * self.frame_len
        return start, start + self.frame_len

    @property
    def total_len(self):
        return self.preamble_len + self.n_slots * self.frame_len + self.silence_len


def assemble_superframe(frames, layout: SuperframeLayout = None):
    """Concatenate 42 encoded frames into one transmit stream.

    Returns (stream, slots): stream is lt x total_len with a zero preamble
    placeholder and a zero silence tail; slots[i] = (start, stop) recovers
    frame i exactly.
    """
    layout = layout if layout is not None else SuperframeLayout()
    if len(frames) != layout.n_slots:
        raise SlotMismatch(
            f"expected {layout.n_slots} frames, got {len(frames)}"
        )
    frames = [np.asarray(f, dtype=complex) for f in frames]
    lt = frames[0].shape[0]
    for i, f in enumerate(frames):
        if f.ndim != 2 or f.shape != (lt, layout.frame_len):
            raise SlotMismatch(
                f"frame {i} has shape {f.shape}, expected ({lt},"
                f" {layout.frame_len})"
            )
    stream = np.zeros((lt, layout.total_len), dtype=complex)
    slots = []
    for i, f in enumerate(frames):
        start, stop = layout.slot_bounds(i)
        stream[:, start:stop] = f
        slots.append((start, stop))
    return stream, slots


def extract_slot(stream, layout: SuperframeLayout, i):
    start, stop = layout.slot_bounds(i)
    return stream[:, start:stop]


# --- config file parsing -------------------------------------------------

_CONFIG_KEYS = {
    "code": str,
    "trellis_file": str,
    "constellation": str,
    "lt": int,
    "lr": int,
    "channel": str,
    "fdt": float,
    "tx_geometry": str,
    "rx_geometry": str,
    "csi": str,
    "pilot.count": int,
    "pilot.taps": int,
    "pilot.design_fdt": float,
    "pilot.design_snr_db": float,
    "ebn0_db": str,
    "min_frame_errors": int,
    "max_frames": int,
    "seed": int,
    "frame_uses": int,
    "decoder": str,
    "workers": int,
}

_KEY_TO_FIELD = {
    "channel": "channel_mode",
    "pilot.count": "pilot_count",
    "pilot.taps": "pilot_taps",
    "pilot.design_fdt": "pilot_design_fdt",
    "pilot.design_snr_db": "pilot_design_snr_db",
}


def parse_config(text):
    """Parse ``key = value`` sweep-config text into a SweepConfig.

    ``#`` starts a comment; unknown or duplicate keys are hard errors.
    """
    seen = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(
                f"line {lineno}: expected 'key = value', got {line!r}",
                key=f"line{lineno}",
            )
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError("unknown key", key=key)
        if key in seen:
            raise ConfigError("duplicate key", key=key)
        conv = _CONFIG_KEYS[key]
        try:
            seen[key] = conv(value)
        except ValueError:
            raise ConfigError(
                f"cannot parse {value!r} as {conv.__name__}", key=key
            ) from None
    if "code" not in seen:
        raise ConfigError("required", key="code")
    if "ebn0_db" not in seen:
        raise ConfigError("required", key="ebn0_db")
    try:
        grid = tuple(float(v) for v in seen.pop("ebn0_db").split(","))
    except ValueError:
        raise ConfigError("expected comma-separated dB values", key="ebn0_db") from None
    kwargs = {"ebn0_db": grid}
    for key, value in seen.items():
        kwargs[_KEY_TO_FIELD.get(key, key)] = value
    return SweepConfig(**kwargs)


def config_with_seed(cfg: SweepConfig, seed):
    return replace(cfg, seed=seed)
