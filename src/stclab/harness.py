"""Monte Carlo experiment driver.

A sweep runs frames through encode -> correlated fading -> noise ->
(optional pilot estimation) -> decode at each Eb/N0 grid point, counting
frame and bit errors until a stopping rule fires.  Results carry Wilson 95%
confidence intervals and are emitted as CSV.

Frames run in batches through one kernel, :func:`simulate_frames`.  Only
the random draws, the fading draw and the pilot estimate run per frame;
encoding, the channel, the decoder and the error count each run once per
batch on arrays with a leading frame axis.  A batch holds at most the
channel uses of ``BATCH_MAX`` default-length frames (at least one frame)
and never more frames than the errors still missing at the grid point: a
frame adds at most one error, so the stopping rule can fire only on a
batch's last frame and no frame past the serial stopping frame is ever
simulated.

Energy accounting: N0 is fixed at 1 and Es = ebn0_linear * info_bits_per
frame / frame_uses.  Under pilot CSI the frame still spans ``frame_uses``
uses but carries fewer information bits, so the pilot overhead is charged
to Es exactly as a fair comparison requires.

Reproducibility: frame (snr_index, frame_index) draws its bit, fading and
noise generators from SeedSequence(seed, spawn_key=(snr_index,
frame_index, k)) for k = 0, 1, 2 (the children SeedSequence(seed,
spawn_key=(snr_index, frame_index)).spawn(3) would give), so the output
is byte-identical for any batch size and worker count, and
:func:`simulate_frame` replays any single frame in isolation.
"""

import concurrent.futures
import math
from dataclasses import dataclass, fields
from functools import partial

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
from .errors import ConfigError
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

CSI_MODES = ("perfect", "pilot")
# the decoders each code family accepts; the first is what "auto" picks
FAMILY_DECODERS = {
    "alamouti": ("combiner", "ml"),
    "golden": ("ml", "sphere"),
    "spatial_multiplex": ("ml", "sphere"),
    "trellis": ("viterbi",),
}

DEFAULT_FRAME_USES = 300
NOISELESS_EBN0_DB = 200.0

# Frames per batch of the frame kernel; frames longer than the default get
# proportionally fewer, so a batch holds at most BATCH_MAX default frames'
# worth of channel uses (or one frame).
BATCH_MAX = 16


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
        if self.code not in FAMILY_DECODERS:
            raise ConfigError(f"must be one of {tuple(FAMILY_DECODERS)}", key="code")
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
        decoders = ("auto", *sorted({d for ds in FAMILY_DECODERS.values() for d in ds}))
        if self.decoder not in decoders:
            raise ConfigError(f"must be one of {decoders}", key="decoder")
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


CSV_COLUMNS = tuple(f.name for f in fields(SweepRow))


@dataclass(frozen=True)
class SweepResult:
    rows: tuple

    def to_csv(self):
        """Header, then one line per row: counts as integers, the other
        columns as the repr of a float."""
        lines = [",".join(CSV_COLUMNS)]
        for r in self.rows:
            cells = []
            for f in fields(r):
                v = getattr(r, f.name)
                cells.append(str(int(v)) if f.type is int else repr(float(v)))
            lines.append(",".join(cells))
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


@dataclass(frozen=True)
class SweepSetup:
    """What every frame of a sweep shares.  ``encode(bits)`` maps (frames,
    info_bits) bits to (frames, lt, data uses) words, ``decode(y, h, es=es)``
    gives one DecodeResult per frame; no pilots under perfect CSI."""

    cfg: SweepConfig
    info_bits: int
    encode: object
    decode: object
    rtx: np.ndarray
    rrx: np.ndarray
    pmap: object = None
    wiener: object = None


def _encode_blocks(bits, cb):
    """(frames, lt, data uses) block-code words for (frames, info_bits) bits."""
    idx = bits_to_patterns(bits.reshape(-1), cb.bits_per_codeword)
    words = cb.codewords[idx.reshape(bits.shape[0], -1)]
    return words.transpose(0, 2, 1, 3).reshape(bits.shape[0], cb.lt, -1)


def build_setup(cfg: SweepConfig):
    """Resolve a SweepConfig into the objects a sweep uses, binding its code
    family to an encoder and a decoder once."""
    c = CONSTELLATIONS[cfg.constellation]
    accepted = FAMILY_DECODERS[cfg.code]
    decoder = accepted[0] if cfg.decoder == "auto" else cfg.decoder
    if decoder not in accepted:
        raise ConfigError(
            f"decoder {cfg.decoder!r} does not apply to code {cfg.code!r}",
            key="decoder",
        )
    if decoder == "sphere" and cfg.lr < cfg.lt:
        raise ConfigError("sphere decoding requires lr >= lt", key="decoder")

    pmap = wiener = None
    data_uses = cfg.frame_uses
    if cfg.csi == "pilot":
        pmap = build_pilot_map(cfg.frame_uses, cfg.lt, cfg.pilot_count)
        wiener = design_wiener(
            pmap,
            fdT_design=cfg.pilot_design_fdt,
            snr_design_db=cfg.pilot_design_snr_db,
            taps=min(cfg.pilot_taps, pmap.n_blocks),
        )
        data_uses = int(pmap.data_positions.size)

    if cfg.code == "trellis":
        try:
            with open(cfg.trellis_file, "r", encoding="utf-8") as fh:
                code = load_trellis(fh.read(), name=cfg.trellis_file)
        except OSError as e:
            raise ConfigError(str(e), key="trellis_file") from None
        if code.lt != cfg.lt:
            raise ConfigError(
                f"trellis file has lt={code.lt}, config says {cfg.lt}", key="lt"
            )
        if code.constellation.name != c.name:
            raise ConfigError(
                "trellis file constellation differs from config", key="constellation"
            )
        steps = data_uses - code.n_term_steps
        if steps < 1:
            raise ConfigError(
                "frame too short for the trellis termination tail",
                key="frame_uses",
            )
        info_bits = steps * code.bits_per_step
        encode = partial(encode_trellis, code=code)
        decode = partial(viterbi_decode, code=code)
    else:
        if cfg.code != "spatial_multiplex" and cfg.lt != 2:
            raise ConfigError(f"{cfg.code} requires lt = 2", key="lt")
        if cfg.code == "alamouti":
            cb = alamouti_codebook(c)
        elif cfg.code == "golden":
            cb, disp = golden_codebook(c), golden_dispersion(c)
        else:
            cb = spatial_multiplex_codebook(c, lt=cfg.lt, n_uses=1)
            disp = spatial_multiplex_dispersion(c, lt=cfg.lt, n_uses=1)
        if data_uses % cb.n_uses:
            raise ConfigError(
                f"data span {data_uses} is not a multiple of the"
                f" {cb.n_uses}-use codeword",
                key="frame_uses",
            )
        info_bits = (data_uses // cb.n_uses) * cb.bits_per_codeword
        encode = partial(_encode_blocks, cb=cb)
        if decoder == "combiner":
            allow_nonstatic = (
                cfg.channel_mode == "clarke_varying" and cfg.fdt > 0
            ) or cfg.csi == "pilot"
            decode = partial(alamouti_combine, c=c, allow_nonstatic=allow_nonstatic)
        elif decoder == "sphere":
            decode = partial(sphere_decode, code=disp)
        else:
            decode = partial(ml_exhaustive_blocks, cb=cb)

    corr = {}
    for side, count in (("tx", cfg.lt), ("rx", cfg.lr)):
        key = f"{side}_geometry"
        geom = _parse_geometry(getattr(cfg, key), key)
        if geom is not None and geom.n_elements < count:
            raise ConfigError(
                f"geometry has {geom.n_elements} elements, need {count}", key=key
            )
        corr[side] = spatial_correlation(geom.truncate(count)) if geom else np.eye(count)

    setup = SweepSetup(
        cfg, info_bits, encode, decode, corr["tx"], corr["rx"], pmap, wiener
    )
    for ebn0 in cfg.ebn0_db:
        try:
            ok = 0.0 < _es_for(setup, ebn0) < math.inf
        except OverflowError:
            ok = False
        if not ok:
            raise ConfigError(f"{ebn0!r} dB gives no finite Es > 0", key="ebn0_db")
    return setup


def _frame_generators(seed, si, fi):
    """The bit, fading and noise generators of frame (si, fi)."""
    keys = [np.random.SeedSequence(seed, spawn_key=(si, fi, k)) for k in range(3)]
    return [np.random.Generator(np.random.PCG64(key)) for key in keys]


def simulate_frames(setup, si, frame_indices, es):
    """Run frames ``frame_indices`` of grid point ``si`` as one batch.

    Returns one (frame_error, bit_errors, info_bits, nodes) tuple per frame,
    each equal to what the frame gives when it runs alone.
    """
    cfg, pmap = setup.cfg, setup.pmap
    gens = [_frame_generators(cfg.seed, si, fi) for fi in frame_indices]
    bits = np.array([g[0].integers(0, 2, size=setup.info_bits) for g in gens])
    x = setup.encode(bits)
    nf = cfg.frame_uses
    if pmap is not None:
        x_data = x
        x = np.empty((len(gens), cfg.lt, nf), dtype=complex)
        x[:, :, pmap.pilot_positions] = np.tile(pmap.pilot_matrix, pmap.n_blocks)
        x[:, :, pmap.data_positions] = x_data
    params = ChannelParams(
        lt=cfg.lt, lr=cfg.lr, fdT=cfg.fdt, es=es, n0=1.0, mode=cfg.channel_mode
    )
    h = np.empty((len(gens), nf, cfg.lr, cfg.lt), dtype=complex)
    for hf, g in zip(h, gens):
        hf[...] = generate_fading(nf, params, setup.rtx, setup.rrx, g[1])
    y = apply_channel(x, h, params, [g[2] for g in gens])
    if pmap is not None:
        pos = pmap.data_positions
        h = np.empty((len(gens), pos.size, cfg.lr, cfg.lt), dtype=complex)
        for hf, yf in zip(h, y):
            hf[...] = estimate_channel(yf, es, pmap, setup.wiener)[pos]
        y = y[:, pos]
    outcomes = []
    for res, sent in zip(setup.decode(y, h, es=es), bits):
        bit_errors = int(np.count_nonzero(res.bits != sent))
        outcomes.append((bit_errors > 0, bit_errors, setup.info_bits, res.visited))
    return outcomes


def simulate_frame(setup, si, fi, es):
    """Run one frame; returns (frame_error, bit_errors, info_bits, nodes)."""
    return simulate_frames(setup, si, [fi], es)[0]


def _es_for(setup, ebn0_db):
    # Es = Eb/N0 * (info bits per frame) / (uses per frame), with N0 = 1;
    # pilot and termination overhead are charged automatically
    return 10.0 ** (ebn0_db / 10.0) * setup.info_bits / setup.cfg.frame_uses


def run_sweep(cfg: SweepConfig, workers=None):
    """Full Eb/N0 sweep per the config; deterministic for a fixed seed.

    Frames are scanned in index order at every grid point until
    ``min_frame_errors`` errors or ``max_frames`` frames, whichever first.
    They run in batches of at most the errors still missing, so the
    stopping rule can only fire on the last frame in flight.  ``workers``
    > 1 runs that many batches at once in a thread pool; counts are sums
    over frames, so output is identical to serial.
    """
    setup = build_setup(cfg)
    workers = cfg.workers if workers is None else workers
    batch_max = max(1, BATCH_MAX * DEFAULT_FRAME_USES // cfg.frame_uses)
    rows = []
    with concurrent.futures.ThreadPoolExecutor(workers) as pool:
        run = pool.map if workers > 1 else map
        for si, ebn0 in enumerate(cfg.ebn0_db):
            es = _es_for(setup, ebn0)
            frames = errors = bits = bit_errors = nodes = 0
            while frames < cfg.max_frames and errors < cfg.min_frame_errors:
                # every frame adds at most one error, so no frame in flight
                # lies past the frame the serial scan would stop at
                missing = min(cfg.max_frames - frames, cfg.min_frame_errors - errors)
                room = min(missing, batch_max * workers)
                size = -(-room // workers)
                batches = [
                    range(frames + start, frames + min(start + size, room))
                    for start in range(0, room, size)
                ]
                for batch in run(partial(simulate_frames, setup, si, es=es), batches):
                    for fe, be, nb, nv in batch:
                        frames += 1
                        errors += int(fe)
                        bits += nb
                        bit_errors += be
                        nodes += nv
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


# --- config file parsing -------------------------------------------------

_KEY_TO_FIELD = {
    "channel": "channel_mode",
    "pilot.count": "pilot_count",
    "pilot.taps": "pilot_taps",
    "pilot.design_fdt": "pilot_design_fdt",
    "pilot.design_snr_db": "pilot_design_snr_db",
}
_FIELD_TO_KEY = {f: k for k, f in _KEY_TO_FIELD.items()}
# config key -> converter: each field's own type, except that the Eb/N0
# grid is read as comma-separated text
_CONFIG_KEYS = {_FIELD_TO_KEY.get(f.name, f.name): f.type for f in fields(SweepConfig)}
_CONFIG_KEYS["ebn0_db"] = str


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
