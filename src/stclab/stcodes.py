"""Space-time encoders.

Codewords are lt x n_uses complex arrays: row = transmit antenna, column =
channel use.  Every encoder normalizes so the total transmit energy summed
over antennas averages 1 per channel use across a uniform codebook, which
keeps code comparisons at fixed total radiated power.

Block codes: Alamouti (orthogonal, 2 antennas), the golden code (full rate,
full diversity, 2 antennas) and plain spatial multiplexing.  Each has one
batch encoder, which encodes frames; its codebook and lattice basis apply
it to every point tuple and to the unit symbol vectors.  Trellis codes are
loaded from a small line-oriented definition format (see
:func:`load_trellis`); frames and path codebooks share one stepper.
"""

from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

from .errors import InputError
from .mathcore import CONSTELLATIONS, Constellation, bits_to_patterns

# Golden-number constants of the [2x2] full-rate construction.
GOLDEN_THETA = (1.0 + np.sqrt(5.0)) / 2.0
GOLDEN_THETA_BAR = 1.0 - GOLDEN_THETA
GOLDEN_ALPHA = 1.0 + 1j - 1j * GOLDEN_THETA
GOLDEN_ALPHA_BAR = 1.0 + 1j - 1j * GOLDEN_THETA_BAR
# 1/sqrt(5) from the lattice generator, a further 1/sqrt(2) so the two
# antennas radiate unit total energy per use instead of unit energy each.
GOLDEN_SCALE = 1.0 / np.sqrt(10.0)
# The Alamouti word's real parts, row-major, as a real-linear map of the
# symbols' (re s1, im s1, re s2, im s2).  Each part has one weight +-1/sqrt(2),
# so it is one rounded product, the one numpy's complex x / sqrt(2) computes.
ALAMOUTI_PARTS = np.zeros((4, 8))
ALAMOUTI_PARTS[[0, 1, 2, 3, 2, 3, 0, 1], range(8)] = [1, 1, -1, 1, 1, 1, 1, -1]
ALAMOUTI_PARTS /= np.sqrt(2.0)

# Largest block codebook that is enumerated: 2^20 words, about 84 MB of
# codewords for spatial multiplexing over 5 antennas with 16QAM.  The next
# size up (6 antennas) would need about 1.6 GB before its duplicate check.
CODEBOOK_CAP = 2**20
# Most transitions (n_states * 2^bits_per_step) a trellis file may declare:
# a 4-state QPSK code, like the packaged one, has 16, and at the cap a
# 300-use frame's Viterbi branch metrics take about 10 MB.
TRELLIS_TRANSITION_CAP = 2**12
# Rows of a codebook's duplicate check are rounded and hashed this many
# complex values at a time (4 MB).
DUPLICATE_SLICE_ELEMENTS = 2**18


def encode_alamouti(s):
    """Alamouti codewords (..., 2, 2) [[s1, -s2*], [s2, s1*]] / sqrt(2) of
    finite symbols s (..., 2) = (s1, s2), as one real matrix product."""
    s = np.ascontiguousarray(s, dtype=complex)
    if s.shape[-1:] != (2,):
        raise InputError(f"symbols {s.shape} must be a (..., 2) array")
    return (s.view(float) @ ALAMOUTI_PARTS).view(complex).reshape(*s.shape[:-1], 2, 2)


def _cmul(ar, ai, br, bi):
    """Complex product on split parts, rounded like Python's scalar product.

    Numpy's complex-array multiply may fuse the multiply-add, which moves
    some golden-code entries by one ulp against Python's complex scalars.
    """
    return ar * br - ai * bi, ar * bi + ai * br


def encode_golden(s):
    """Golden codewords (..., 2, 2) of symbols s (..., 4) = (s1, s2, s3, s4):
    [[a(s1 + s2 th), a(s3 + s4 th)], [i ab(s3 + s4 tb), ab(s1 + s2 tb)]]
    times ``GOLDEN_SCALE``, on split parts so that each entry rounds as it
    does in Python's complex scalars."""
    s = np.asarray(s, dtype=complex)
    if s.shape[-1:] != (4,):
        raise InputError(f"symbols {s.shape} must be a (..., 4) array")
    sr, si = s.real, s.imag

    def entry(factor, m, t):
        # factor * (s_m + s_{m+1} * t), in the scalar formula's operation order
        pr, pi = _cmul(sr[..., m + 1], si[..., m + 1], t, 0.0)
        return _cmul(factor.real, factor.imag, sr[..., m] + pr, si[..., m] + pi)

    th, tb = GOLDEN_THETA, GOLDEN_THETA_BAR
    a, ab = GOLDEN_ALPHA, GOLDEN_ALPHA_BAR
    x = np.empty(s.shape[:-1] + (2, 2), dtype=complex)
    # row-major entries, each written before the next is computed
    for n, args in enumerate([(a, 0, th), (a, 2, th), (1j * ab, 2, tb), (ab, 0, tb)]):
        re, im = entry(*args)
        x.real[..., n // 2, n % 2] = GOLDEN_SCALE * re
        x.imag[..., n // 2, n % 2] = GOLDEN_SCALE * im
    return x


def encode_spatial_multiplex(symbols, lt):
    """Fill symbols column-wise, lt per channel use, scaled 1/sqrt(lt);
    symbols (..., n) give words (..., lt, n / lt)."""
    symbols = np.asarray(symbols, dtype=complex)
    if symbols.ndim == 0 or symbols.shape[-1] % lt:
        raise InputError(
            f"symbols {symbols.shape} are not (..., n) with n divisible by lt={lt}"
        )
    words = symbols.reshape(symbols.shape[:-1] + (-1, lt))
    return words.swapaxes(-1, -2) / np.sqrt(lt)


def rounded_row_bytes(rows):
    """Rows rounded to 12 digits as (n, bytes) uint8; + 0 turns -0.0 into 0.0."""
    rounded = np.ascontiguousarray(np.round(rows, 12) + (0.0 + 0.0j))
    return rounded.view(np.uint8).reshape(rows.shape[0], -1)


def _row_hashes(rows):
    """A 64-bit hash of each row's rounded bytes; equal rows hash equal."""
    words = rounded_row_bytes(rows).view(np.uint64)
    h = np.full(words.shape[0], 0xCBF29CE484222325, dtype=np.uint64)
    for w in words.T:
        h = (h ^ w) * np.uint64(0x100000001B3)
        h ^= h >> np.uint64(29)
    return h


def _has_duplicate_rows(rows):
    """True when two rows have the same bytes once rounded to 12 digits.

    Rows are hashed slice by slice, and only rows whose hash occurs more
    than once are compared byte for byte, so the check holds one 8-byte hash
    per row instead of a rounded copy of every row.
    """
    step = max(1, DUPLICATE_SLICE_ELEMENTS // rows.shape[1])
    hashes = np.concatenate(
        [_row_hashes(rows[a : a + step]) for a in range(0, rows.shape[0], step)]
    )
    ordered = np.sort(hashes)
    repeated = ordered[1:][ordered[1:] == ordered[:-1]]
    if repeated.size == 0:
        return False
    suspects = rounded_row_bytes(rows[np.isin(hashes, repeated)])
    return len(set(map(bytes, suspects))) != suspects.shape[0]


@dataclass(frozen=True)
class BlockCodebook:
    """All codewords of a block code, indexed by the word's bit pattern.

    ``codewords[n]`` is the lt x n_uses matrix transmitted for the
    bits-as-MSB-first-integer n.  A code whose words repeat a few
    distinct columns may also give them: ``columns`` (n_columns, lt) and
    ``column_index`` (size, n_uses) with codewords[n, :, k] equal to
    columns[column_index[n, k]], which lets exhaustive ML predict each
    column once instead of each word.
    """

    name: str
    codewords: np.ndarray
    bits_per_codeword: int
    columns: np.ndarray = None
    column_index: np.ndarray = None

    def __post_init__(self):
        cw = np.ascontiguousarray(np.asarray(self.codewords, dtype=complex))
        object.__setattr__(self, "codewords", cw)
        if cw.ndim != 3:
            raise InputError("codewords must be a (size, lt, n_uses) array")
        if cw.shape[0] != 2 ** self.bits_per_codeword:
            raise InputError(
                f"codebook size {cw.shape[0]} != 2^{self.bits_per_codeword}"
            )
        if self.columns is not None and not np.array_equal(
            self.columns[self.column_index].transpose(0, 2, 1), cw
        ):
            raise InputError("columns and column_index do not give the codewords")
        if _has_duplicate_rows(cw.reshape(cw.shape[0], -1)):
            raise InputError("codebook contains duplicate codewords")

    @property
    def size(self):
        return self.codewords.shape[0]

    @property
    def n_uses(self):
        return self.codewords.shape[2]


def _codebook_size(c: Constellation, n_syms):
    """Word count of a codebook of n_syms symbols; InputError past the cap."""
    n = c.size**n_syms
    if n > CODEBOOK_CAP:
        raise InputError(
            f"a codebook of {n_syms} {c.name} symbols has {n} codewords,"
            f" more than the {CODEBOOK_CAP} a block codebook enumerates"
        )
    return n


def _enumerate_symbol_tuples(c: Constellation, n_syms, start=0, stop=None):
    """Pattern tuples of codewords start..stop - 1 (all by default) in
    codeword-index order (first symbol is MSB).

    Raises InputError, before allocating anything, when the codebook has
    more than ``CODEBOOK_CAP`` words.
    """
    n = _codebook_size(c, n_syms)
    index = np.arange(start, n if stop is None else min(stop, n))
    return (index[:, None] >> c.bits_per_symbol * np.arange(n_syms - 1, -1, -1)) & (c.size - 1)


def _block_codebook(name, c: Constellation, n_syms, encode):
    """Codebook of ``encode`` over every tuple of n_syms points of c.

    ``encode`` maps symbols (..., n_syms) to words (..., lt, n_uses), here
    a symbol-major view, so that each symbol is contiguous.  A codebook of
    more than DUPLICATE_SLICE_ELEMENTS symbols is encoded and written slice
    by slice, so temporaries stay small next to it; a smaller one is the
    encoder's own output, with no copy.
    """
    n = _codebook_size(c, n_syms)
    step = max(1, DUPLICATE_SLICE_ELEMENTS // n_syms)
    if n <= step:
        words = encode(c.points[_enumerate_symbol_tuples(c, n_syms).T].T)
    else:
        words = np.empty((n,) + encode(np.zeros(n_syms)).shape, dtype=complex)
        for start in range(0, n, step):
            patterns = _enumerate_symbol_tuples(c, n_syms, start, start + step)
            words[start : start + step] = encode(c.points[patterns.T].T)
    return BlockCodebook(name, words, n_syms * c.bits_per_symbol)


def alamouti_codebook(c: Constellation):
    return _block_codebook("alamouti", c, 2, encode_alamouti)


def golden_codebook(c: Constellation):
    return _block_codebook("golden", c, 4, encode_golden)


def spatial_multiplex_codebook(c: Constellation, lt=2):
    encode = partial(encode_spatial_multiplex, lt=lt)
    return _block_codebook("spatial_multiplex", c, lt, encode)


@dataclass(frozen=True)
class LinearDispersionCode:
    """Codeword as a linear map X = sum_m s_m A_m over complex symbols.

    ``basis`` has shape (n_syms, lt, n_uses).  Symbol order matches the
    codebook bit order: symbol 0 carries the most significant bits.
    ``encode`` is the batch encoder the basis was derived from; a
    degenerate block is decided by exhaustive ML over its codebook, so a
    code past ``CODEBOOK_CAP`` words is refused like that codebook.
    """

    basis: np.ndarray
    constellation: Constellation
    encode: Callable = field(repr=False)

    def __post_init__(self):
        b = np.asarray(self.basis, dtype=complex)
        object.__setattr__(self, "basis", b)
        if b.ndim != 3:
            raise InputError("basis must be (n_syms, lt, n_uses)")
        _codebook_size(self.constellation, self.n_syms)

    @property
    def n_syms(self):
        return self.basis.shape[0]

    @property
    def n_uses(self):
        return self.basis.shape[2]

    @cached_property
    def codebook(self):
        """The BlockCodebook of ``encode``, built on first use and then kept
        with the code (up to about 84 MB of words at ``CODEBOOK_CAP``)."""
        return _block_codebook("dispersion", self.constellation, self.n_syms, self.encode)


def dispersion_code(c: Constellation, n_syms, encode):
    """The linear-dispersion form of ``encode`` over n_syms points of c:
    A_m is the encoder on unit vector m; + 0.0 turns -0.0 into 0.0."""
    return LinearDispersionCode(encode(np.eye(n_syms)) + 0.0, c, encode)


@dataclass(frozen=True)
class TrellisCode:
    """Trellis space-time code.

    ``next_state[s, u]`` and ``out_idx[s, u, :]`` give the successor state
    and the per-antenna constellation point indices for input pattern u in
    state s.  ``term_inputs[s]`` is the fixed input sequence (length
    ``n_term_steps``) that drives state s back to state 0; every frame is
    terminated with it, so all frames of equal data length have equal length.
    """

    name: str
    n_states: int
    bits_per_step: int
    lt: int
    constellation: Constellation
    next_state: np.ndarray = field(repr=False)
    out_idx: np.ndarray = field(repr=False)
    term_inputs: np.ndarray = field(repr=False)

    @property
    def n_inputs(self):
        return 2 ** self.bits_per_step

    @property
    def n_term_steps(self):
        return self.term_inputs.shape[1]


def _termination_table(next_state):
    """Per-state input sequences of minimal uniform length ending in state 0.

    Finds the smallest T such that every state has a length-T path to state
    0, then picks the lexicographically smallest input sequence per state.
    """
    n_states = next_state.shape[0]
    max_steps = max(2 * n_states, 8)
    # reach[t][s] is True when state s has an exact-t-step path to state 0
    reach = [np.zeros(n_states, dtype=bool)]
    reach[0][0] = True
    t = 0
    while not reach[t].all():
        t += 1
        if t > max_steps:
            raise InputError(
                "trellis cannot be driven to state 0 with a uniform-length tail"
            )
        reach.append(reach[t - 1][next_state].any(axis=1))
    # each step takes the smallest input that can still reach state 0 in
    # time; every state reaches it in t steps, so by induction every state
    # reached after step k does in t - k - 1, and the tails end in state 0
    term = np.zeros((n_states, t), dtype=int)
    cur = np.arange(n_states)
    for step in range(t):
        term[:, step] = reach[t - step - 1][next_state[cur]].argmax(axis=1)
        cur = next_state[cur, term[:, step]]
    return term


def load_trellis(text, name="trellis"):
    """Parse a code-definition document into a TrellisCode.

    Format: a header line ``trellis <n_states> <bits_per_step> <lt>
    <constellation>`` followed by exactly n_states * 2^bits_per_step lines
    ``<state> <input-bits> <next_state> <idx_ant1> ... <idx_ant_lt>``, at
    most ``TRELLIS_TRANSITION_CAP`` of them.
    ``#`` starts a comment.  Raises InputError on malformed text or a
    semantic violation, keyed ``line N`` when one line is at fault.
    """
    header = None
    transitions = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        at = f"line {lineno}"
        if header is None:
            if tokens[0] != "trellis" or len(tokens) != 5:
                raise InputError(
                    "expected header 'trellis <n_states> <bits_per_step>"
                    " <lt> <constellation>'",
                    key=at,
                )
            try:
                n_states, bits_per_step, lt = (int(v) for v in tokens[1:4])
            except ValueError:
                raise InputError("non-integer header field", key=at) from None
            if n_states < 1 or bits_per_step < 1 or lt < 1:
                raise InputError("header counts must be positive", key=at)
            # the bit-length test keeps a huge exponent from being shifted
            cap = TRELLIS_TRANSITION_CAP
            if bits_per_step >= cap.bit_length() or n_states << bits_per_step > cap:
                raise InputError(
                    f"{n_states} states x 2^{bits_per_step} inputs exceed the"
                    f" {cap} transitions a trellis may have",
                    key=at,
                )
            cname = tokens[4]
            if cname not in CONSTELLATIONS:
                raise InputError(f"unknown constellation {cname!r}", key=at)
            header = (n_states, bits_per_step, lt, CONSTELLATIONS[cname])
            continue
        n_states, bits_per_step, lt, constellation = header
        if len(tokens) != 3 + lt:
            raise InputError(f"expected {3 + lt} fields, got {len(tokens)}", key=at)
        if len(tokens[1]) != bits_per_step or set(tokens[1]) - {"0", "1"}:
            raise InputError(
                f"input pattern must be {bits_per_step} binary digits", key=at
            )
        try:
            state = int(tokens[0])
            pattern = int(tokens[1], 2)
            nxt = int(tokens[2])
            idx = [int(v) for v in tokens[3:]]
        except ValueError:
            raise InputError("non-integer transition field", key=at) from None
        transitions.append((at, state, pattern, nxt, idx))

    if header is None:
        raise InputError("empty document: missing header line", key="line 1")
    n_states, bits_per_step, lt, constellation = header
    n_inputs = 2**bits_per_step
    if len(transitions) != n_states * n_inputs:
        raise InputError(
            f"expected {n_states * n_inputs} transition lines,"
            f" got {len(transitions)}"
        )
    next_state = np.full((n_states, n_inputs), -1, dtype=int)
    out_idx = np.zeros((n_states, n_inputs, lt), dtype=int)
    for at, state, pattern, nxt, idx in transitions:
        if not 0 <= state < n_states:
            raise InputError(f"state {state} out of range", key=at)
        if not 0 <= nxt < n_states:
            raise InputError(f"next state {nxt} out of range", key=at)
        if any(not 0 <= v < constellation.size for v in idx):
            raise InputError(
                f"point index out of range for {constellation.name}", key=at
            )
        if next_state[state, pattern] != -1:
            raise InputError(
                f"duplicate transition for state {state},"
                f" input {pattern:0{bits_per_step}b}",
                key=at,
            )
        next_state[state, pattern] = nxt
        out_idx[state, pattern] = idx
    # n_states * n_inputs lines, in range and none repeated: every cell is set
    term = _termination_table(next_state)
    return TrellisCode(
        name=name,
        n_states=n_states,
        bits_per_step=bits_per_step,
        lt=lt,
        constellation=constellation,
        next_state=next_state,
        out_idx=out_idx,
        term_inputs=term,
    )


def encode_trellis(bits, code: TrellisCode):
    """Encode (frames, n_bits) bit rows, append each frame's termination
    tail and scale 1/sqrt(lt).

    Output is (frames, lt, data steps + termination steps); the encoder
    starts and ends in state 0.
    """
    bits = np.asarray(bits)
    if bits.ndim != 2 or bits.shape[1] % code.bits_per_step:
        raise InputError(f"bits {bits.shape} must be a (frames, n_bits) batch of whole steps")
    patterns = bits_to_patterns(bits.reshape(-1), code.bits_per_step)
    cols = _trellis_steps(code, patterns.reshape(bits.shape[0], -1))
    return code.constellation.points[cols].transpose(1, 2, 0) / np.sqrt(code.lt)


def _trellis_steps(code: TrellisCode, patterns):
    """Point indices (steps + tail, n, lt) of n rows of input patterns
    (n, steps), each stepped from state 0 and then through the tail of its
    end-of-data state back to state 0."""
    state = np.zeros(patterns.shape[0], dtype=int)
    cols = []
    for u in patterns.T:
        cols.append(code.out_idx[state, u])
        state = code.next_state[state, u]
    for u in code.term_inputs[state].T:
        cols.append(code.out_idx[state, u])
        state = code.next_state[state, u]
    if np.any(state != 0):
        raise InputError("termination tail did not reach state 0")
    return np.array(cols, dtype=int).reshape(-1, patterns.shape[0], code.lt)


def load_packaged_trellis(name="delay_diversity_4state_qpsk"):
    """Load one of the code-definition files shipped with the package."""
    import importlib.resources

    text = (
        importlib.resources.files("stclab")
        .joinpath(f"codes/{name}.txt")
        .read_text(encoding="utf-8")
    )
    return load_trellis(text, name=name)


def trellis_path_codebook(code: TrellisCode, n_steps):
    """Exhaustive codebook of all length-n_steps data paths (plus tails).

    Only usable for small codes and short frames; exists as the brute-force
    oracle for the Viterbi decoder.  Every path is stepped through the
    trellis at once, by the stepper :func:`encode_trellis` uses.
    """
    n_words = code.n_inputs**n_steps
    bits_per_word = n_steps * code.bits_per_step
    shifts = np.arange(n_steps - 1, -1, -1) * code.bits_per_step
    patterns = (np.arange(n_words)[:, None] >> shifts) & (code.n_inputs - 1)
    cols = _trellis_steps(code, patterns)
    # every column is one of the M^lt point tuples, numbered MSB first, and
    # is sent as their spatial-multiplexing word
    c = code.constellation
    tuples = c.points[_enumerate_symbol_tuples(c, code.lt)]
    columns = encode_spatial_multiplex(tuples, code.lt)[..., 0]
    column_index = cols.transpose(1, 0, 2) @ (c.size ** np.arange(code.lt - 1, -1, -1))
    words = columns[column_index].transpose(0, 2, 1)
    return BlockCodebook(
        f"{code.name}_paths", words, bits_per_word, columns, column_index
    )
