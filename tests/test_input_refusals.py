"""Malformed inputs at the package's public boundaries.

Each call below is refused with InputError, which the command line maps to
exit code 2.  Any other exception that escapes (numpy's ValueError from an
einsum, a ZeroDivisionError, an OverflowError that would read as exit 3)
fails its row.
"""

from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from stclab import stcodes
from stclab.chanest import build_pilot_map, design_wiener, estimate_channel
from stclab.channel import apply_channel, generate_fading, spatial_correlation
from stclab.demod import alamouti_combine, ml_exhaustive_blocks, sphere_decode, viterbi_decode
from stclab.designmetrics import codebook_report, trellis_error_events
from stclab.errors import InputError
from stclab.harness import build_setup, parse_config
from stclab.mathcore import QPSK, Constellation, bits_to_patterns
from stclab.stcodes import (
    BlockCodebook,
    LinearDispersionCode,
    alamouti_codebook,
    dispersion_code,
    encode_golden,
    encode_spatial_multiplex,
    encode_trellis,
    load_packaged_trellis,
    load_trellis,
)


def design(taps=20, fdt=0.01, snr=12.0):
    return design_wiener(build_pilot_map(300, 2, 72), fdt, snr, taps)


# decoders of 2-antenna codes
DECODERS = {
    "exhaustive ML": lambda y, h, es=1.0: ml_exhaustive_blocks(y, h, alamouti_codebook(QPSK), es),
    "sphere": lambda y, h, es=1.0: sphere_decode(
        y, h, dispersion_code(QPSK, 4, encode_golden), es
    ),
    "Viterbi": lambda y, h, es=1.0: viterbi_decode(y, h, load_packaged_trellis(), es),
    "combiner": lambda y, h, es=1.0: alamouti_combine(y, h, es, QPSK),
}


CASES = {
    # pilot maps: a zero, negative or NaN count
    "pilot map lt = 0": lambda: build_pilot_map(300, 0, 72),
    "pilot map lt = -2": lambda: build_pilot_map(300, -2, 72),
    "pilot map lt = NaN": lambda: build_pilot_map(300, np.nan, 72),
    "pilot map nf = NaN": lambda: build_pilot_map(np.nan, 2, 72),
    "pilot map nf = 300.5": lambda: build_pilot_map(300.5, 2, 72),
    "pilot map lt = 1.5": lambda: build_pilot_map(300, 1.5, 72),
    "pilot map count = 72.0": lambda: build_pilot_map(300, 2, 72.0),
    "pilot map count = 0": lambda: build_pilot_map(300, 2, 0),
    "pilot map count = NaN": lambda: build_pilot_map(300, 2, np.nan),
    "pilot map count not a multiple of lt": lambda: build_pilot_map(300, 2, 71),
    "pilot map without data": lambda: build_pilot_map(300, 2, 300),
    # Wiener designs: taps outside 1 to the 36 blocks, or not a number
    "design taps = NaN": lambda: design(taps=np.nan),
    "design taps = inf": lambda: design(taps=np.inf),
    "design taps = 0": lambda: design(taps=0),
    "design taps = -1": lambda: design(taps=-1),
    "design taps = 37": lambda: design(taps=37),
    "design taps = 2.5": lambda: design(taps=2.5),
    "design fdT = NaN": lambda: design(fdt=np.nan),
    "design snr = -inf": lambda: design(snr=-np.inf),
    # estimation: a frame that is not (nf, lr) for the design's map
    "estimate 200-use frame": lambda: estimate_channel(np.ones((200, 2), complex), 1.0, design()),
    "estimate flat frame": lambda: estimate_channel(np.ones(300, complex), 1.0, design()),
    "estimate scalar frame": lambda: estimate_channel(np.ones((), complex), 1.0, design()),
    "estimate es = 0": lambda: estimate_channel(np.ones((300, 2), complex), 0.0, design()),
    "estimate es = -1": lambda: estimate_channel(np.ones((300, 2), complex), -1.0, design()),
    "estimate es = NaN": lambda: estimate_channel(np.ones((300, 2), complex), np.nan, design()),
    # arrays: a count below one, too few or malformed elements
    "positions with n = -1": lambda: spatial_correlation("0,0; 1,0", -1),
    "positions with n = 0": lambda: spatial_correlation("0,0; 1,0", 0),
    "white with n = -1": lambda: spatial_correlation("white", -1),
    "white with n = NaN": lambda: spatial_correlation("white", np.nan),
    "white with n = 1.5": lambda: spatial_correlation("white", 1.5),
    "positions with n = 1.5": lambda: spatial_correlation("0,0; 1,0", 1.5),
    "positions too few": lambda: spatial_correlation("0,0; 1,0", 3),
    "positions not numbers": lambda: spatial_correlation("0,0; x,1", 2),
    "positions not finite": lambda: spatial_correlation("0,0; 1,inf", 2),
    # fading and the channel
    "fading nf = 0": lambda: generate_fading(0, 0.01, np.eye(2), np.eye(2), None),
    "fading nf = NaN": lambda: generate_fading(np.nan, 0.01, np.eye(2), np.eye(2), None),
    "fading Clarke nf = 4096": lambda: generate_fading(4096, 0.01, np.eye(2), np.eye(2), None),
    "fading fdt = NaN": lambda: generate_fading(300, np.nan, np.eye(2), np.eye(2), None),
    "fading Clarke nf = 2.5": lambda: generate_fading(2.5, 0.01, np.eye(2), np.eye(2), None),
    "fading quasi-static nf = 2.5": lambda: generate_fading(2.5, 0.0, np.eye(2), np.eye(2), None),
    "channel lt mismatch": lambda: apply_channel(
        np.ones((1, 2, 8)), np.ones((1, 8, 2, 3)), 1.0, [None]
    ),
    "channel es = -1": lambda: apply_channel(np.ones((1, 2, 8)), np.ones((1, 8, 2, 2)), -1.0, [None]),
    "channel es = NaN": lambda: apply_channel(np.ones((1, 2, 8)), np.ones((1, 8, 2, 2)), np.nan, [None]),
    # trellis documents
    "trellis 2^100000000 inputs": lambda: load_trellis("trellis 1 100000000 1 QPSK\n"),
    "trellis 2 x 2^12 transitions": lambda: load_trellis("trellis 2 12 1 QPSK\n"),
    "trellis huge state count": lambda: load_trellis(f"trellis {10**30} 1 1 QPSK\n"),
    "trellis zero states": lambda: load_trellis("trellis 0 1 1 QPSK\n"),
    "trellis short header": lambda: load_trellis("trellis 4 2\n"),
    "trellis empty": lambda: load_trellis(""),
    "trellis missing transition": lambda: load_trellis("trellis 1 1 1 QPSK\n0 0 0 0\n"),
    "error events max_depth = 2.5": lambda: trellis_error_events(
        load_packaged_trellis(), max_depth=2.5
    ),
    # encoders and bit mapping
    "spatial multiplexing 3 symbols on 2 antennas": lambda: encode_spatial_multiplex(
        np.ones(3), 2
    ),
    "trellis bits not a batch": lambda: encode_trellis(
        np.zeros(4, dtype=int), load_packaged_trellis()
    ),
    # a hand-built code whose tails (input 1 from every state) end in state 1
    "trellis tail not ending in state 0": lambda: encode_trellis(
        np.zeros((1, 4), dtype=int),
        replace(load_packaged_trellis(), term_inputs=np.ones((4, 1), dtype=int)),
    ),
    "bits not binary": lambda: bits_to_patterns([0, 2], 1),
    "bits not flat": lambda: bits_to_patterns([[0, 1]], 1),
    "constellation of 3 points for 2 bits": lambda: Constellation("bad", np.ones(3), 2),
    "constellation of mean energy 4": lambda: Constellation("bad", 2 * QPSK.points, 2),
    "codebook not (size, lt, n_uses)": lambda: BlockCodebook("flat", np.ones((4, 2)), 2),
    "codebook of 3 words for 2 bits": lambda: BlockCodebook("three", np.eye(3)[:, :, None], 2),
    "dispersion basis not 3-D": lambda: LinearDispersionCode(np.ones((4, 2)), QPSK, encode_golden),
    # decoders and metrics: frames and codebooks they cannot take
    "exhaustive ML frame of 7 uses, 2-use words": lambda: ml_exhaustive_blocks(
        np.ones((1, 7, 1)), np.ones((1, 7, 1, 2)), alamouti_codebook(QPSK), 1.0
    ),
    "Viterbi frame shorter than its tail": lambda: viterbi_decode(
        np.ones((1, 0, 1)), np.ones((1, 0, 1, 2)), load_packaged_trellis(), 1.0
    ),
    "codebook report of one word": lambda: codebook_report(
        BlockCodebook("one", np.ones((1, 2, 2)), 0)
    ),
    # sweep configs
    "config lr = 0": lambda: parse_config("code = alamouti\nlr = 0\nebn0_db = 1\n"),
    "config fdt = nan": lambda: parse_config("code = alamouti\nfdt = nan\nebn0_db = 1\n"),
}


# decoders at a symbol energy that is not finite and > 0
for _name, _decode in DECODERS.items():
    for _es in (-1.0, 0.0, np.nan, np.inf):
        CASES[f"{_name} es = {_es}"] = partial(
            _decode, np.ones((2, 8, 2), complex), np.ones((2, 8, 2, 2), complex), _es
        )


# the channel with right shapes but rngs that are not a list of one
# generator per frame
_RNGS = {"a Generator": np.random.default_rng(1), "None": None, "an int": 1, "a list of ints": [1]}
for _name, _rngs in _RNGS.items():
    CASES[f"channel rngs {_name}"] = partial(
        apply_channel, np.ones((1, 2, 8)), np.ones((1, 8, 2, 2)), 1.0, _rngs
    )


@pytest.mark.parametrize("call", CASES.values(), ids=CASES.keys())
def test_only_input_error_escapes(call):
    with pytest.raises(InputError):
        call()


PACKAGED_TRELLIS = Path(stcodes.__file__).parent / "codes" / "delay_diversity_4state_qpsk.txt"


def setup_of(code, *lines):
    """build_setup of a config of ``code`` and these lines, at one grid point."""
    return build_setup(parse_config("\n".join((f"code = {code}", "ebn0_db = 1", *lines)) + "\n"))


trellis_setup = partial(setup_of, "trellis", f"trellis_file = {PACKAGED_TRELLIS}")
MISSING_FILE = PACKAGED_TRELLIS.with_name("no_such_code.txt")

# refusals that name where the input is at fault: a config key, or a line
# of a trellis document
KEYED_CASES = {
    # sweep configs
    "config constellation = 8PSK": ("constellation", partial(
        setup_of, "alamouti", "constellation = 8PSK")),
    "config decoder = magic": ("decoder", partial(setup_of, "alamouti", "decoder = magic")),
    "config min_frame_errors = 0": ("min_frame_errors", partial(
        setup_of, "alamouti", "min_frame_errors = 0")),
    "config max_frames = -1": ("max_frames", partial(setup_of, "alamouti", "max_frames = -1")),
    "config frame_uses = 0": ("frame_uses", partial(setup_of, "alamouti", "frame_uses = 0")),
    "config grid not numbers": ("ebn0_db", partial(
        parse_config, "code = alamouti\nebn0_db = 1, x\n")),
    # sweep set-up
    "setup Viterbi for Alamouti": ("decoder", partial(setup_of, "alamouti", "decoder = viterbi")),
    "setup trellis file missing": ("trellis_file", partial(
        setup_of, "trellis", f"trellis_file = {MISSING_FILE}")),
    "setup trellis lt 2, config lt 3": ("lt", partial(trellis_setup, "lt = 3")),
    "setup trellis QPSK, config 16QAM": ("constellation", partial(
        trellis_setup, "constellation = 16QAM")),
    "setup frame shorter than the tail": ("frame_uses", partial(trellis_setup, "frame_uses = 1")),
    # trellis documents
    "trellis header not integers": ("line 1", partial(load_trellis, "trellis x 1 1 QPSK\n")),
    "trellis transition not integers": ("line 2", partial(
        load_trellis, "trellis 1 1 1 QPSK\n0 0 x 0\n0 1 0 0\n")),
    "trellis state out of range": ("line 3", partial(
        load_trellis, "trellis 1 1 1 QPSK\n0 0 0 0\n1 1 0 0\n")),
    "trellis next state out of range": ("line 2", partial(
        load_trellis, "trellis 1 1 1 QPSK\n0 0 1 0\n0 1 0 0\n")),
    # the right line count, with one (state, input) pair twice and one missing
    "trellis duplicate transition": ("line 3", partial(
        load_trellis, "trellis 1 1 1 QPSK\n0 0 0 0\n0 0 0 1\n")),
}


@pytest.mark.parametrize("key, call", KEYED_CASES.values(), ids=KEYED_CASES.keys())
def test_refusal_names_its_key(key, call):
    with pytest.raises(InputError) as exc:
        call()
    assert exc.value.key == key


def test_numpy_integers_are_counts():
    n = np.int64
    pmap = build_pilot_map(n(300), np.int32(2), n(72))
    np.testing.assert_array_equal(pmap.block_starts, build_pilot_map(300, 2, 72).block_starts)
    w = design_wiener(pmap, 0.01, 12.0, n(20))
    np.testing.assert_array_equal(w.weights, design().weights)
    r = spatial_correlation("rx_square_0.5", n(3))
    np.testing.assert_array_equal(r, spatial_correlation("rx_square_0.5", 3))
    for fdt in (0.0, 0.01):
        h = generate_fading(n(4), fdt, np.eye(2), r, np.random.default_rng(1))
        np.testing.assert_array_equal(
            h, generate_fading(4, fdt, np.eye(2), r, np.random.default_rng(1))
        )
    code = load_packaged_trellis()
    assert len(trellis_error_events(code, n(3))) == len(trellis_error_events(code, 3))


@pytest.mark.parametrize("lt", [1, 3])
@pytest.mark.parametrize("name", sorted(DECODERS))
def test_decoders_refuse_fading_of_another_lt(name, lt):
    y = np.ones((2, 8, 2), complex)
    with pytest.raises(InputError, match="lt=2"):
        DECODERS[name](y, np.ones((2, 8, 2, lt), complex))
