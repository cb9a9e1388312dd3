"""The benchmark's workloads: sweep configs, design-metric calls and checks.

Every sweep runs a fixed number of frames per Eb/N0 point (``max_frames``
with ``min_frame_errors`` out of reach), so the work is the same on every
commit, and at ``workers = 1`` so the numbers measure the simulator rather
than the scheduler.  Checks compare the program's outputs with values the
benchmark computes itself: closed forms, counts, or properties exact ML
must have.
"""

from dataclasses import dataclass, field
from math import comb
from pathlib import Path

import numpy as np
from scipy import integrate, special

import stclab
import stclab.designmetrics
import stclab.mathcore
import stclab.stcodes

UNREACHABLE_ERRORS = 10**9
NOISE_FREE_DB = 200.0
Z_95 = 1.959963984540054
COMPACT_PAIR = "0,0; 0.05,0"  # 0.05-wavelength pair, rho = J0(0.1 pi) = 0.975
# Eb/N0 where Alamouti QPSK with lr receive antennas (2 lr MRC branches) has
# closed-form BER 5.0e-3
RX_EBN0_DB = {1: 10.25, 2: 4.49, 4: 0.28}
# 600 frames make the sweeps about two thirds of an rx-antennas round, so
# frames_per_s rests on more measured frames than the design-metric calls
RX_FRAMES = 600
# bounds on (simulated - exact) / sd for the BER check; sd counts whole
# frames as the independent unit, since one quasi-static frame holds one
# channel draw and its bit errors cluster.  The mean of a few hundred
# frames is still right-skewed, hence the wider upper side.
BER_Z_LOW, BER_Z_HIGH = 5.0, 7.0
MSE_RATIO_MAX = 1.25
# The Wiener filter is designed for the workload's Doppler and for the Es/N0
# of its 10 dB Eb/N0 point (about 11.8 dB for Alamouti and the trellis code).
# At the 30 dB default the measured MSE is about 2.7 times the design MMSE
# at fdT 0.01: the design leaves out channel variation inside a pilot block,
# which leaks between the transmit antennas.
PILOT = {"pilot.count": 72, "pilot.taps": 20, "pilot.design_fdt": 0.01,
         "pilot.design_snr_db": 12.0}


@dataclass(frozen=True)
class Sweep:
    """One ``stc-lab sweep`` call; ``keys`` become the config file."""

    name: str
    keys: dict

    @property
    def frames(self):
        return int(self.keys["max_frames"])

    def config_text(self, seed, max_frames=None):
        keys = dict(self.keys, seed=seed, min_frame_errors=UNREACHABLE_ERRORS,
                    workers=1)
        if max_frames is not None:
            keys["max_frames"] = max_frames
        return "".join(f"{k} = {v}\n" for k, v in keys.items())


@dataclass
class Workload:
    name: str
    sweeps: list
    metric_ops: list = field(default_factory=list)  # (name, callable)
    check: object = None  # callable(outputs, runner) -> list of faults


def parse_csv(text):
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        row = dict(zip(header, line.split(",")))
        for k in ("frames", "frame_errors", "bits", "bit_errors"):
            row[k] = int(row[k])
        for k in ("ebn0_db", "fer", "fer_ci_lo", "fer_ci_hi", "ber"):
            row[k] = float(row[k])
        rows.append(row)
    return rows


def wilson(k, n):
    if n == 0:
        return 0.0, 1.0
    p = k / n
    zz = Z_95 * Z_95
    denom = 1.0 + zz / n
    center = (p + zz / (2.0 * n)) / denom
    half = Z_95 * np.sqrt(p * (1.0 - p) / n + zz / (4.0 * n * n)) / denom
    lo = 0.0 if k == 0 else max(0.0, center - half)
    hi = 1.0 if k == n else min(1.0, center + half)
    return lo, hi


def check_counts(sweep, rows):
    """Fixed frame count, and FER/BER/Wilson bounds recomputed from counts."""
    faults = []
    grid = [float(v) for v in str(sweep.keys["ebn0_db"]).split(",")]
    if [r["ebn0_db"] for r in rows] != grid:
        faults.append(f"{sweep.name}: grid {[r['ebn0_db'] for r in rows]} != {grid}")
    for r in rows:
        tag = f"{sweep.name} @ {r['ebn0_db']} dB"
        if r["frames"] != sweep.frames:
            faults.append(f"{tag}: {r['frames']} frames, configured {sweep.frames}")
        if r["frames"] == 0 or r["bits"] == 0:
            faults.append(f"{tag}: no frames or bits")
            continue
        lo, hi = wilson(r["frame_errors"], r["frames"])
        want = (r["frame_errors"] / r["frames"], lo, hi, r["bit_errors"] / r["bits"])
        got = (r["fer"], r["fer_ci_lo"], r["fer_ci_hi"], r["ber"])
        if any(abs(g - w) > 1e-12 for g, w in zip(got, want)):
            faults.append(f"{tag}: (fer, lo, hi, ber) {got} != recomputed {want}")
    return faults


def noise_free_clean(name, rows):
    return [f"{name}: {r['bit_errors']} bit errors at the noise-free point"
            for r in rows if r["ebn0_db"] == NOISE_FREE_DB and r["bit_errors"]]


# ---------------------------------------------------------------- golden-decode

def _golden_decode():
    common = {"code": "golden", "lt": 2, "lr": 2, "channel": "quasi_static",
              "tx_geometry": COMPACT_PAIR, "rx_geometry": COMPACT_PAIR,
              "csi": "perfect", "ebn0_db": f"12, {NOISE_FREE_DB:g}"}
    sweeps = [
        Sweep("golden-qpsk-ml", dict(common, constellation="QPSK", decoder="auto",
                                     max_frames=12)),
        Sweep("golden-qpsk-sphere", dict(common, constellation="QPSK",
                                         decoder="sphere", max_frames=12)),
        # 60 uses = 30 codewords per frame: exhaustive ML over 65,536 words
        # still dominates the frame and the process's peak memory, at about
        # 0.4 GB instead of 1.6 GB for a 300-use frame
        Sweep("golden-16qam-auto", dict(common, constellation="16QAM",
                                        decoder="auto", frame_uses=60,
                                        max_frames=1)),
    ]

    def check(outputs, runner):
        ml = parse_csv(outputs["golden-qpsk-ml"])
        sp = parse_csv(outputs["golden-qpsk-sphere"])
        faults = []
        keys = ("frames", "frame_errors", "bits", "bit_errors")
        for a, b in zip(ml, sp):
            if any(a[k] != b[k] for k in keys):
                faults.append(
                    f"sphere and ML disagree at {a['ebn0_db']} dB:"
                    f" {[b[k] for k in keys]} vs {[a[k] for k in keys]}")
        for name in outputs:
            faults += noise_free_clean(name, parse_csv(outputs[name]))
        return faults

    return Workload("golden-decode", sweeps, check=check)


# ----------------------------------------------------------------- rx-antennas

def mrc_ber(ebn0_db, branches):
    """Closed-form BER of Gray QPSK over ``branches`` i.i.d. Rayleigh MRC
    branches at half energy per branch (Alamouti, two transmit antennas)."""
    c = 10.0 ** (ebn0_db / 10.0) / 2.0
    mu = np.sqrt(c / (1.0 + c))
    p = 0.5 * (1.0 - mu)
    return p**branches * sum(comb(branches - 1 + k, k) * (1 - p) ** k
                             for k in range(branches))


def frame_ber_sd(ebn0_db, branches, bits_per_frame):
    """Standard deviation of one quasi-static frame's bit-error fraction.

    Given the frame's combining gain g ~ Gamma(branches, 1), its bits err
    independently with probability q(g) = Q(sqrt(2 c g)); the fraction's
    variance is Var q(g) + E[q (1 - q)] / bits.
    """
    c = 10.0 ** (ebn0_db / 10.0) / 2.0

    def q(g):
        return 0.5 * special.erfc(np.sqrt(c * g))

    def dens(g):
        return g ** (branches - 1) * np.exp(-g) / special.gamma(branches)

    m1 = integrate.quad(lambda g: q(g) * dens(g), 0, np.inf)[0]
    m2 = integrate.quad(lambda g: q(g) ** 2 * dens(g), 0, np.inf)[0]
    return float(np.sqrt(m2 - m1 * m1 + (m1 - m2) / bits_per_frame))


def unit_qam16():
    levels = np.array([-3.0, -1.0, 1.0, 3.0])
    return (levels[:, None] + 1j * levels[None, :]).reshape(-1) / np.sqrt(10.0)


def golden_qpsk_words():
    """Golden codewords over QPSK, built here from the published form."""
    theta = (1.0 + np.sqrt(5.0)) / 2.0
    theta_bar = (1.0 - np.sqrt(5.0)) / 2.0
    alpha = 1.0 + 1j * (1.0 - theta)
    alpha_bar = 1.0 + 1j * (1.0 - theta_bar)
    qpsk = np.exp(1j * np.pi * (np.arange(4) / 2.0 + 0.25))
    s = np.stack(np.meshgrid(qpsk, qpsk, qpsk, qpsk, indexing="ij"), -1).reshape(-1, 4)
    x = np.empty((s.shape[0], 2, 2), dtype=complex)
    x[:, 0, 0] = alpha * (s[:, 0] + theta * s[:, 1])
    x[:, 0, 1] = alpha * (s[:, 2] + theta * s[:, 3])
    x[:, 1, 0] = 1j * alpha_bar * (s[:, 2] + theta_bar * s[:, 3])
    x[:, 1, 1] = alpha_bar * (s[:, 0] + theta_bar * s[:, 1])
    return x / np.sqrt(10.0)


def min_pair_det(words):
    d = words[:, None] - words[None, :]
    det = np.abs(d[..., 0, 0] * d[..., 1, 1] - d[..., 0, 1] * d[..., 1, 0])
    return float(det[np.triu_indices(words.shape[0], k=1)].min())


def _rx_antennas():
    sweeps = [
        Sweep(f"alamouti-qpsk-lr{lr}",
              {"code": "alamouti", "constellation": "QPSK", "lt": 2, "lr": lr,
               "channel": "quasi_static", "csi": "perfect", "decoder": "auto",
               "ebn0_db": f"{eb}, {NOISE_FREE_DB:g}", "max_frames": RX_FRAMES})
        for lr, eb in RX_EBN0_DB.items()
    ]
    dm, st, cons = stclab.designmetrics, stclab.stcodes, stclab.mathcore.CONSTELLATIONS
    # attribute lookups happen at call time, so traced runs see the wrappers
    ops = [
        ("report-alamouti-16qam",
         lambda: dm.codebook_report(st.alamouti_codebook(cons["16QAM"]))),
        ("report-golden-qpsk",
         lambda: dm.codebook_report(st.golden_codebook(cons["QPSK"]))),
        ("events-delay-diversity",
         lambda: dm.trellis_error_events(st.load_packaged_trellis(), max_depth=10)),
    ]

    def check(outputs, runner):
        faults = []
        for lr, eb in RX_EBN0_DB.items():
            name = f"alamouti-qpsk-lr{lr}"
            rows = parse_csv(outputs[name])
            faults += noise_free_clean(name, rows)
            r = rows[0]
            want = mrc_ber(eb, 2 * lr)
            sd = frame_ber_sd(eb, 2 * lr, r["bits"] // r["frames"]) / np.sqrt(r["frames"])
            z = (r["ber"] - want) / sd
            if not -BER_Z_LOW <= z <= BER_Z_HIGH:
                faults.append(f"{name}: BER {r['ber']:.3e} vs closed form {want:.3e}"
                              f" ({z:+.2f} sd, allowed -{BER_Z_LOW}..+{BER_Z_HIGH})")
        pairs = 256 * 255 // 2
        d2min = min(abs(a - b) ** 2 for i, a in enumerate(unit_qam16())
                    for b in unit_qam16()[i + 1:])
        ala = outputs["report-alamouti-16qam"]
        if (ala.min_rank, ala.n_pairs) != (2, pairs) or \
                abs(ala.min_product_measure_at_min_rank - d2min / 2) > 1e-9:
            faults.append(f"alamouti-16QAM report {ala} != rank 2, {pairs} pairs,"
                          f" product measure d2min/2 = {d2min / 2}")
        gold = outputs["report-golden-qpsk"]
        det = min_pair_det(golden_qpsk_words())
        if (gold.min_rank, gold.n_pairs) != (2, pairs) or \
                abs(gold.min_product_measure_at_min_rank - det) > 1e-9:
            faults.append(f"golden-QPSK report {gold} != rank 2, {pairs} pairs,"
                          f" product measure min|det| = {det}")
        events = outputs["events-delay-diversity"]
        ranks = [pm.rank for _, pm in events]
        if not events or min(ranks) != 2:
            faults.append(f"delay-diversity events: {len(events)} events,"
                          f" min rank {min(ranks, default=None)} != 2")
        return faults

    return Workload("rx-antennas", sweeps, metric_ops=ops, check=check)


# --------------------------------------------------------------- doppler-pilot

def _doppler_pilot():
    trellis_file = Path(stclab.__file__).parent / "codes" / "delay_diversity_4state_qpsk.txt"
    common = {"lt": 2, "lr": 2, "channel": "clarke_varying", "fdt": 0.01,
              "tx_geometry": "tx_linear_1.0", "rx_geometry": "rx_square_0.5",
              "csi": "pilot", **PILOT, "decoder": "auto",
              "ebn0_db": f"10, {NOISE_FREE_DB:g}", "max_frames": 50}
    trellis = {"code": "trellis", "trellis_file": trellis_file, "constellation": "QPSK"}
    golden = {"code": "golden", "constellation": "QPSK"}
    sweeps = [
        Sweep("trellis-viterbi-pilot", dict(common, **trellis)),
        Sweep("alamouti-combiner-pilot", dict(common, code="alamouti", constellation="QPSK")),
        Sweep("golden-ml-pilot", dict(common, **golden)),
    ]
    perfect = dict(common, csi="perfect", ebn0_db=f"{NOISE_FREE_DB:g}", max_frames=30)
    for k in PILOT:
        del perfect[k]
    check_sweeps = [Sweep("trellis-viterbi-perfect", dict(perfect, **trellis)),
                    Sweep("golden-ml-perfect", dict(perfect, **golden))]
    # the Alamouti sweep's 10 dB point again, with h and its estimate captured
    mse_sweep = Sweep("alamouti-pilot-mse",
                      dict(common, code="alamouti", constellation="QPSK",
                           ebn0_db="10", max_frames=40))
    info_bits = 2 * (300 - PILOT["pilot.count"])

    def check(outputs, runner):
        faults = []
        for sw in check_sweeps:
            text, _ = runner(sw)
            if text is None:
                faults.append(f"{sw.name}: sweep failed")
                continue
            rows = parse_csv(text)
            faults += check_counts(sw, rows) + noise_free_clean(sw.name, rows)
        fading, estimates, maps, designs = [], [], [], []
        text, missing = runner(mse_sweep, capture={
            "generate_fading": fading.append, "estimate_channel": estimates.append,
            "build_pilot_map": maps.append, "design_wiener": designs.append})
        if missing or text is None:
            return faults + [f"pilot MSE: cannot capture {missing or 'the sweep'}"]
        rows = parse_csv(text)
        faults += check_counts(mse_sweep, rows)
        if rows[0]["bits"] != info_bits * mse_sweep.frames:
            faults.append(f"pilot MSE: {rows[0]['bits']} bits, expected"
                          f" {info_bits} per frame")
        data = maps[0].data_positions
        err = np.mean([np.mean(np.abs(e[data] - h[data]) ** 2)
                       for h, e in zip(fading, estimates)])
        design = float(np.mean(designs[0].mmse[data]))
        print(f"  pilot MSE on data positions {err:.4e}, design MMSE {design:.4e},"
              f" ratio {err / design:.3f}")
        if len(estimates) != mse_sweep.frames or not err <= MSE_RATIO_MAX * design:
            faults.append(f"pilot MSE {err:.3e} over {len(estimates)} frames vs design"
                          f" MMSE {design:.3e}: ratio {err / design:.3f} > {MSE_RATIO_MAX}")
        return faults

    return Workload("doppler-pilot", sweeps, check=check)


def all_workloads():
    return {w.name: w for w in (_golden_decode(), _rx_antennas(), _doppler_pilot())}
