"""Monte Carlo experiment driver.

A sweep runs frames through encode -> correlated fading -> noise ->
(optional pilot estimation) -> decode at each Eb/N0 grid point, counting
frame and bit errors until a stopping rule fires.  Results carry Wilson 95%
confidence intervals and are emitted as CSV.  Each code family is declared
once, in ``FAMILIES``; :func:`build_setup` binds it to an encoder and a
decoder, and reads both arrays' correlation matrices from
:func:`stclab.channel.spatial_correlation`, once per sweep.

Frames run in batches through one kernel, :func:`simulate_frames`.  Only
the random draws, the fading draw and the pilot estimate run per frame;
the encoder, the channel and the decoder take only batches, arrays with a
leading frame axis, and run once per batch, as does the error count: a
batch gives each frame's bit errors and the batch's decoder node count.  A
batch holds at most the channel uses of ``BATCH_MAX`` default-length
frames and at most ``FRAME_CHANNEL_CAP`` channel values (at least one
frame), and never more frames than the errors still missing at the grid
point: a frame adds at most one error, so the stopping rule can fire only
on a batch's last frame and no frame past the serial stopping frame is
ever simulated.  One batch is in flight at a time; workers split it.

Energy accounting: N0 is fixed at 1 and Es = ebn0_linear * info_bits_per
frame / frame_uses.  Under pilot CSI the frame still spans ``frame_uses``
uses but carries fewer information bits, so the pilot overhead is charged
to Es exactly as a fair comparison requires.

Reproducibility: frame (snr_index, frame_index) draws its bit, fading and
noise generators from SeedSequence(seed, spawn_key=(snr_index,
frame_index, k)) for k = 0, 1, 2 (the children SeedSequence(seed,
spawn_key=(snr_index, frame_index)).spawn(3) would give), so the output
is byte-identical for any batch size and worker count, and
:func:`simulate_frame` replays any single frame in isolation.  No
SeedSequence is built per frame: :func:`_frame_generators` runs numpy's
SeedSequence hash itself, with the part shared by every frame of a grid
point cached per (seed, point), and seeds each PCG64 with the same state
words; ``tests/test_harness.py`` pins every stream against numpy's.
"""

import concurrent.futures
import functools
import math
import operator
from dataclasses import dataclass, fields
from functools import partial

import numpy as np

from .chanest import build_pilot_map, design_wiener, estimate_channel
from .channel import (
    CLARKE_MAX_USES,
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
from .errors import InputError
from .mathcore import CONSTELLATIONS, bits_to_patterns
from .stcodes import (
    alamouti_codebook,
    dispersion_code,
    encode_alamouti,
    encode_golden,
    encode_spatial_multiplex,
    encode_trellis,
    golden_codebook,
    load_trellis,
    spatial_multiplex_codebook,
)

Z_95 = 1.959963984540054

MODES = ("clarke_varying", "quasi_static")
CSI_MODES = ("perfect", "pilot")


@dataclass(frozen=True)
class Family:
    """A code family: the decoders it accepts (the first is what "auto"
    picks), its encoder ``lt -> (symbols per word, batch encoder)``, whose
    word shape sets the lt it requires, and its codebook builder, called as
    ``(constellation, lt)`` for exhaustive ML only.  A family without an
    encoder reads a trellis code-definition file.  The builders look their
    functions up on this module when they run, so a wrapper put on its
    names (a tracer, a test double) sees every call."""

    decoders: tuple
    encoder: object = None
    codebook: object = None


FAMILIES = {
    "alamouti": Family(("combiner", "ml"), lambda lt: (2, encode_alamouti),
                       lambda c, lt: alamouti_codebook(c)),
    "golden": Family(("ml", "sphere"), lambda lt: (4, encode_golden),
                     lambda c, lt: golden_codebook(c)),
    "spatial_multiplex": Family(("ml", "sphere"),
                                lambda lt: (lt, partial(encode_spatial_multiplex, lt=lt)),
                                lambda c, lt: spatial_multiplex_codebook(c, lt)),
    "trellis": Family(("viterbi",)),
}

DEFAULT_FRAME_USES = 300

# Frames per batch of the frame kernel; frames longer than the default get
# proportionally fewer, so a batch holds at most BATCH_MAX default frames'
# worth of channel uses, and at most FRAME_CHANNEL_CAP channel values (or
# one frame).  One batch is in flight at a time, whatever the worker count.
BATCH_MAX = 16
# Most antennas on either side: an lr x lr correlation matrix and its factor
# stay at 32 KB, at eight times the largest array the tests run (lr = 8).
ANTENNA_CAP = 64
# Most worker threads: the workers split one batch between them, so the
# cap bounds the threads a sweep starts, not the frames it holds.
WORKER_CAP = 64
# Most complex values in one frame's channel array, frame_uses x lr x lt
# (32 MB); it also bounds the frame's bit draw and received array.
FRAME_CHANNEL_CAP = 2**21
# Most frame_uses x pilot blocks under pilot CSI: the Wiener design sorts
# every block at every use in one argsort, whose distances and order take
# <= 32 MB, and its weights and indices stay <= 32 MB.
PILOT_DESIGN_CAP = 2**21


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
        if self.code not in FAMILIES:
            raise InputError(f"must be one of {tuple(FAMILIES)}", key="code")
        if FAMILIES[self.code].encoder is None and not self.trellis_file:
            raise InputError("required when code = trellis", key="trellis_file")
        if self.constellation not in CONSTELLATIONS:
            raise InputError(
                f"must be one of {sorted(CONSTELLATIONS)}", key="constellation"
            )
        if not self.ebn0_db:
            raise InputError("grid must be non-empty", key="ebn0_db")
        diffs = np.diff(np.asarray(self.ebn0_db, dtype=float))
        if np.any(diffs <= 0):
            raise InputError("grid must be strictly increasing", key="ebn0_db")
        for key in ("lt", "lr"):
            if not 1 <= getattr(self, key) <= ANTENNA_CAP:
                raise InputError(f"antenna counts must be 1 to {ANTENNA_CAP}", key=key)
        if self.channel_mode not in MODES:
            raise InputError(f"must be one of {MODES}", key="channel")
        if self.fdt < 0:
            raise InputError("must be >= 0", key="fdt")
        if not math.isfinite(self.fdt):
            raise InputError("must be finite", key="fdt")
        if not math.isfinite(self.pilot_design_fdt):
            raise InputError("must be finite", key="pilot.design_fdt")
        if not self.pilot_design_snr_db > -math.inf:  # inf: a noise-free design
            raise InputError("must be finite or inf", key="pilot.design_snr_db")
        if self.csi not in CSI_MODES:
            raise InputError(f"must be one of {CSI_MODES}", key="csi")
        decoders = ("auto", *sorted({d for f in FAMILIES.values() for d in f.decoders}))
        if self.decoder not in decoders:
            raise InputError(f"must be one of {decoders}", key="decoder")
        if self.min_frame_errors < 1:
            raise InputError("must be >= 1", key="min_frame_errors")
        if self.max_frames < 0:
            raise InputError("must be >= 0", key="max_frames")
        if self.frame_uses < 1:
            raise InputError("must be >= 1", key="frame_uses")
        if self.frame_uses * self.lr * self.lt > FRAME_CHANNEL_CAP:
            raise InputError(
                f"frame_uses x lr x lt must be <= {FRAME_CHANNEL_CAP}", key="frame_uses"
            )
        pilot_work = self.frame_uses * (self.pilot_count // self.lt)
        if self.csi == "pilot" and pilot_work > PILOT_DESIGN_CAP:
            msg = f"frame_uses x pilot blocks must be <= {PILOT_DESIGN_CAP}"
            raise InputError(msg, key="pilot.count")
        if self.fading_fdt > 0 and self.frame_uses > CLARKE_MAX_USES:
            raise InputError(
                f"a Clarke-correlated frame must be <= {CLARKE_MAX_USES} uses",
                key="frame_uses",
            )
        if not 1 <= self.workers <= WORKER_CAP:
            raise InputError(f"must be 1 to {WORKER_CAP}", key="workers")
        if self.seed < 0:
            raise InputError("must be >= 0", key="seed")

    @property
    def fading_fdt(self):
        """The fdT the fading runs at; 0 (quasi-static) unless Clarke."""
        return self.fdt if self.channel_mode == "clarke_varying" else 0.0


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


def csv_cell(v):
    """A CSV cell: the repr of a float (numpy floats included), else str."""
    return repr(float(v)) if isinstance(v, (float, np.floating)) else str(v)


@dataclass(frozen=True)
class SweepResult:
    rows: tuple

    def to_csv(self):
        """Header, then one line of :func:`csv_cell` cells per row."""
        lines = [",".join(CSV_COLUMNS)]
        for r in self.rows:
            lines.append(",".join(csv_cell(getattr(r, k)) for k in CSV_COLUMNS))
        return "\n".join(lines) + "\n"


def wilson_interval(k, n):
    """Wilson score 95% interval for k successes in n trials.

    n = 0 returns the uninformative (0, 1) interval.
    """
    if n == 0:
        return 0.0, 1.0
    p = k / n
    zz = Z_95 * Z_95
    denom = 1.0 + zz / n
    center = (p + zz / (2.0 * n)) / denom
    half = Z_95 * np.sqrt(p * (1.0 - p) / n + zz / (4.0 * n * n)) / denom
    # score-interval endpoints are exact at the boundaries
    lo = 0.0 if k == 0 else max(0.0, center - half)
    hi = 1.0 if k == n else min(1.0, center + half)
    return lo, hi


@dataclass(frozen=True)
class SweepSetup:
    """What every frame of a sweep shares.  ``encode(bits)`` maps (frames,
    info_bits) bits to (frames, lt, data uses) words, ``decode(y, h, es=es)``
    gives the batch's DecodeResult; no pilots under perfect CSI."""

    cfg: SweepConfig
    info_bits: int
    encode: object
    decode: object
    rtx: np.ndarray
    rrx: np.ndarray
    wiener: object = None


def _encode_blocks(bits, c, n_syms, encode):
    """(frames, lt, data uses) block-code words for (frames, info_bits) bits,
    each word ``encode`` of its n_syms points of c."""
    idx = bits_to_patterns(bits.reshape(-1), c.bits_per_symbol)
    words = encode(c.points[idx.reshape(bits.shape[0], -1, n_syms)])
    return words.transpose(0, 2, 1, 3).reshape(bits.shape[0], words.shape[-2], -1)


def build_setup(cfg: SweepConfig):
    """Resolve a SweepConfig into the objects a sweep uses, binding its code
    family to an encoder and a decoder once."""
    c = CONSTELLATIONS[cfg.constellation]
    family = FAMILIES[cfg.code]
    decoder = family.decoders[0] if cfg.decoder == "auto" else cfg.decoder
    if decoder not in family.decoders:
        raise InputError(
            f"decoder {cfg.decoder!r} does not apply to code {cfg.code!r}",
            key="decoder",
        )
    if decoder == "sphere" and cfg.lr < cfg.lt:
        raise InputError("sphere decoding requires lr >= lt", key="decoder")

    wiener = None
    data_uses = cfg.frame_uses
    if cfg.csi == "pilot":
        try:
            pmap = build_pilot_map(cfg.frame_uses, cfg.lt, cfg.pilot_count)
        except InputError as e:
            raise InputError(str(e), key="pilot.count") from None
        try:
            wiener = design_wiener(
                pmap,
                fdT_design=cfg.pilot_design_fdt,
                snr_design_db=cfg.pilot_design_snr_db,
                taps=min(cfg.pilot_taps, pmap.n_blocks),
            )
        except InputError as e:
            raise InputError(str(e), key="pilot.taps") from None
        data_uses = int(pmap.data_positions.size)

    if family.encoder is None:
        try:
            with open(cfg.trellis_file, "r", encoding="utf-8") as fh:
                code = load_trellis(fh.read(), name=cfg.trellis_file)
        except OSError as e:
            raise InputError(str(e), key="trellis_file") from None
        if code.lt != cfg.lt:
            raise InputError(
                f"trellis file has lt={code.lt}, config says {cfg.lt}", key="lt"
            )
        if code.constellation.name != c.name:
            raise InputError(
                "trellis file constellation differs from config", key="constellation"
            )
        steps = data_uses - code.n_term_steps
        if steps < 1:
            raise InputError(
                "frame too short for the trellis termination tail",
                key="frame_uses",
            )
        info_bits = steps * code.bits_per_step
        encode = partial(encode_trellis, code=code)
    else:
        n_syms, encoder = family.encoder(cfg.lt)
        word_lt, n_uses = encoder(np.zeros(n_syms)).shape
        if word_lt != cfg.lt:
            raise InputError(f"{cfg.code} requires lt = {word_lt}", key="lt")
        if data_uses % n_uses:
            raise InputError(
                f"data span {data_uses} is not a multiple of the"
                f" {n_uses}-use codeword",
                key="frame_uses",
            )
        info_bits = (data_uses // n_uses) * n_syms * c.bits_per_symbol
        encode = partial(_encode_blocks, c=c, n_syms=n_syms, encode=encoder)
    if decoder == "viterbi":
        decode = partial(viterbi_decode, code=code)
    elif decoder == "combiner":
        decode = partial(alamouti_combine, c=c)
    else:
        try:  # a code past CODEBOOK_CAP words, which lt sets
            if decoder == "sphere":
                decode = partial(sphere_decode, code=dispersion_code(c, n_syms, encoder))
            else:
                decode = partial(ml_exhaustive_blocks, cb=family.codebook(c, cfg.lt))
        except InputError as e:
            raise InputError(str(e), key="lt") from None

    corr = []
    for key, count in (("tx_geometry", cfg.lt), ("rx_geometry", cfg.lr)):
        try:
            corr.append(spatial_correlation(getattr(cfg, key), count))
        except InputError as e:
            raise InputError(str(e), key=key) from None
    setup = SweepSetup(cfg, info_bits, encode, decode, *corr, wiener)
    for ebn0 in cfg.ebn0_db:
        try:
            ok = 0.0 < _es_for(setup, ebn0) < math.inf
        except OverflowError:
            ok = False
        if not ok:
            raise InputError(f"{ebn0!r} dB gives no finite Es > 0", key="ebn0_db")
    return setup


# numpy's SeedSequence hash, on 32-bit words
_M32 = 0xFFFFFFFF


def _hash_steps(init, mult, start, n):
    """Hash steps start to start + n - 1 as (xor, multiply) pairs: step i
    xors with init * mult**i and multiplies by init * mult**(i + 1)."""
    c = [init * pow(mult, i, 1 << 32) & _M32 for i in range(start, start + n + 1)]
    return list(zip(c, c[1:]))


def _hashmix(v, step):
    v = (v ^ step[0]) * step[1] & _M32
    return v ^ v >> 16


def _mix(a, b):
    r = (0xCA01F9DD * a - 0x4973F715 * b) & _M32
    return r ^ r >> 16


def _words(n):
    """The 32-bit words SeedSequence reads from an int, low word first."""
    n = operator.index(n)
    if n < 0:
        raise InputError("seeds and indices must be >= 0")
    return [n >> s & _M32 for s in range(0, max(n.bit_length(), 1), 32)]


@functools.lru_cache(maxsize=64)
def _point_hash(seed, si, n_fi_words):
    """What the streams of every frame at grid point si whose index has
    n_fi_words words share: the pool after the seed (padded to four words)
    and si, the hash steps that mix each frame-index word into each pool
    word, and each stream number k hashed for its last mix.  A step
    depends only on its position, four per entropy word before it."""
    done = 4 * (max(len(_words(seed)), 4) + len(_words(si)))
    steps = _hash_steps(0x43B0D7E5, 0x931E8875, done, 4 * n_fi_words + 4)
    k_words = np.array([[_hashmix(k, s) for s in steps[-4:]] for k in range(3)], np.uint64)
    k_words.flags.writeable = False
    pool = np.random.SeedSequence(seed, spawn_key=(si,)).pool
    return tuple(map(int, pool)), tuple(steps[:-4]), k_words


class _StateWords(np.random.bit_generator.ISeedSequence):
    """Gives PCG64 precomputed state words in place of a SeedSequence."""

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


# generate_state(4, uint64) hashes pool word i % 4 into 32-bit word i
_STATE_STEPS = np.array(_hash_steps(0x8B51F9DD, 0x58F38DED, 0, 8), dtype=np.uint64).T


def _frame_generators(seed, si, frame_indices):
    """Each frame's bit, fading and noise generators, bit for bit those of
    Generator(PCG64(SeedSequence(seed, spawn_key=(si, fi, k)))), k = 0, 1, 2.
    The frame index is mixed in per frame, k and the state words per batch."""
    pools, k_words = [], []
    for fi in frame_indices:
        words = _words(fi)
        pool, steps, kw = _point_hash(seed, si, len(words))
        pool = list(pool)
        for j, step in enumerate(steps):
            pool[j & 3] = _mix(pool[j & 3], _hashmix(words[j >> 2], step))
        pools.append(pool)
        k_words.append(kw)
    pools = _mix(np.array(pools, dtype=np.uint64)[:, None], np.array(k_words))
    out = _hashmix(pools[..., [0, 1, 2, 3] * 2], _STATE_STEPS)
    # PCG64 reads its four words from each row's memory
    state = np.ascontiguousarray(out[..., 0::2] | out[..., 1::2] << 32)
    return [[np.random.Generator(np.random.PCG64(_StateWords(w))) for w in f] for f in state]


def simulate_frames(setup, si, frame_indices, es):
    """Run frames ``frame_indices`` of grid point ``si`` as one batch.

    Returns (bit_errors, nodes): the (frames,) bit errors, each equal to
    what the frame gives when it runs alone, and the batch's decoder node
    count.
    """
    cfg = setup.cfg
    pmap = None if setup.wiener is None else setup.wiener.pmap
    gens = _frame_generators(cfg.seed, si, frame_indices)
    bits = np.array([g[0].integers(0, 2, size=setup.info_bits) for g in gens])
    x = setup.encode(bits)
    nf = cfg.frame_uses
    if pmap is not None:
        x_data = x
        x = np.empty((len(gens), cfg.lt, nf), dtype=complex)
        x[:, :, pmap.pilot_positions] = np.tile(pmap.pilot_matrix, pmap.n_blocks)
        x[:, :, pmap.data_positions] = x_data
    h = np.empty((len(gens), nf, cfg.lr, cfg.lt), dtype=complex)
    for hf, g in zip(h, gens):
        hf[...] = generate_fading(nf, cfg.fading_fdt, setup.rtx, setup.rrx, g[1])
    y = apply_channel(x, h, es, [g[2] for g in gens])
    if pmap is not None:
        pos = pmap.data_positions
        h = np.empty((len(gens), pos.size, cfg.lr, cfg.lt), dtype=complex)
        for hf, yf in zip(h, y):
            hf[...] = estimate_channel(yf, es, setup.wiener)[pos]
        y = y[:, pos]
    res = setup.decode(y, h, es=es)
    return np.count_nonzero(res.bits != bits, axis=1), res.visited


def simulate_frame(setup, si, fi, es):
    """Replay one frame; returns its (bit_errors, decoder_nodes)."""
    bit_errors, nodes = simulate_frames(setup, si, [fi], es)
    return int(bit_errors[0]), nodes


def _es_for(setup, ebn0_db):
    # Es = Eb/N0 * (info bits per frame) / (uses per frame), with N0 = 1;
    # pilot and termination overhead are charged automatically
    return 10.0 ** (ebn0_db / 10.0) * setup.info_bits / setup.cfg.frame_uses


def run_sweep(cfg: SweepConfig):
    """Full Eb/N0 sweep per the config; deterministic for a fixed seed.

    Frames are scanned in index order at every grid point until
    ``min_frame_errors`` errors or ``max_frames`` frames, whichever first.
    They run in batches of at most the errors still missing, so the
    stopping rule can only fire on the last frame in flight.
    ``cfg.workers`` > 1 splits each batch between that many threads;
    counts are sums over frames, so output is identical to serial.
    """
    setup = build_setup(cfg)
    channel_values = cfg.frame_uses * cfg.lr * cfg.lt
    batch_max = max(1, min(BATCH_MAX * DEFAULT_FRAME_USES // cfg.frame_uses,
                           FRAME_CHANNEL_CAP // channel_values))
    rows = []
    with concurrent.futures.ThreadPoolExecutor(cfg.workers) as pool:
        run = pool.map if cfg.workers > 1 else map
        for si, ebn0 in enumerate(cfg.ebn0_db):
            es = _es_for(setup, ebn0)
            frames = errors = bit_errors = nodes = 0
            while frames < cfg.max_frames and errors < cfg.min_frame_errors:
                # every frame adds at most one error, so no frame in flight
                # lies past the frame the serial scan would stop at
                missing = min(cfg.max_frames - frames, cfg.min_frame_errors - errors)
                room = min(missing, batch_max)
                size = -(-room // cfg.workers)
                batches = [
                    range(frames + start, frames + min(start + size, room))
                    for start in range(0, room, size)
                ]
                for errs, nv in run(partial(simulate_frames, setup, si, es=es), batches):
                    frames += len(errs)
                    errors += int(np.count_nonzero(errs))
                    bit_errors += int(errs.sum())
                    nodes += nv
            bits = frames * setup.info_bits
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
            raise InputError(
                f"expected 'key = value', got {line!r}", key=f"line {lineno}"
            )
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _CONFIG_KEYS:
            raise InputError("unknown key", key=key)
        if key in seen:
            raise InputError("duplicate key", key=key)
        conv = _CONFIG_KEYS[key]
        try:
            seen[key] = conv(value)
        except ValueError:
            raise InputError(
                f"cannot parse {value!r} as {conv.__name__}", key=key
            ) from None
    if "code" not in seen:
        raise InputError("required", key="code")
    if "ebn0_db" not in seen:
        raise InputError("required", key="ebn0_db")
    try:
        grid = tuple(float(v) for v in seen.pop("ebn0_db").split(","))
    except ValueError:
        raise InputError("expected comma-separated dB values", key="ebn0_db") from None
    kwargs = {"ebn0_db": grid}
    for key, value in seen.items():
        kwargs[_KEY_TO_FIELD.get(key, key)] = value
    return SweepConfig(**kwargs)
