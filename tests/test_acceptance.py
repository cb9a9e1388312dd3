"""Acceptance suite.

One test per acceptance criterion; each prints a PASS/FAIL line with the
measured numbers before asserting, so a full run leaves a readable scorecard
even when a criterion is not met.
"""

import time
from dataclasses import replace

import numpy as np

from stclab.chanest import build_pilot_map, design_wiener, estimate_channel
from stclab.channel import apply_channel, generate_fading, spatial_correlation
from stclab.demod import ml_exhaustive_blocks, sphere_decode, viterbi_decode
from stclab.designmetrics import codebook_report
from stclab.harness import (
    BATCH_MAX,
    SweepConfig,
    build_setup,
    run_sweep,
    simulate_frames,
    _es_for,
)
from stclab.mathcore import QPSK, bessel_j0
from stclab.stcodes import (
    alamouti_codebook,
    dispersion_code,
    encode_golden,
    encode_trellis,
    golden_codebook,
    load_packaged_trellis,
    spatial_multiplex_codebook,
    trellis_path_codebook,
)

Z95 = 1.959963984540054


def report(capsys, ok, name, detail):
    with capsys.disabled():
        print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def make_rng(seed):
    return np.random.Generator(np.random.PCG64(seed))


def closed_form_two_branch_ber(ebn0_db):
    """Two-branch maximal-ratio diversity BER for coherent Gray QPSK.

    Average branch SNR is Eb/N0 / 2: the code splits energy over two
    transmit antennas, so each of the two combined paths carries half.
    """
    c = 10.0 ** (ebn0_db / 10.0) / 2.0
    mu = np.sqrt(c / (1.0 + c))
    p = 0.5 * (1.0 - mu)
    return p * p * (1.0 + 2.0 * (1.0 - p))


def test_oracle_equivalence(capsys):
    t0 = time.time()
    # sphere vs exhaustive ML: 2x2 Golden QPSK words at 0 / 10 / 20 dB
    ld = dispersion_code(QPSK, 4, encode_golden)
    cb = golden_codebook(QPSK)
    sphere_trials = 0
    sphere_mismatches = 0
    for db_i, db in enumerate((0.0, 10.0, 20.0)):
        es = 10.0 ** (db / 10.0)
        for t in range(334):
            rng = make_rng(1_000_000 + 10_000 * db_i + t)
            n = int(rng.integers(0, cb.size))
            h = generate_fading(2, 0.0, np.eye(2), np.eye(2), rng)
            frame = apply_channel(cb.codewords[n][None], h[None], es, [rng])[0]
            sd = sphere_decode(frame[None], h[None], ld, es)
            ml = ml_exhaustive_blocks(frame[None], h[None], cb, es)
            sphere_trials += 1
            if not np.array_equal(sd.bits, ml.bits):
                sphere_mismatches += 1

    # viterbi vs exhaustive ML over all terminated 8-step paths
    code = load_packaged_trellis()
    path_cb = trellis_path_codebook(code, 8)
    vit_trials = 0
    vit_mismatches = 0
    for t in range(1000):
        rng = make_rng(2_000_000 + t)
        bits = rng.integers(0, 2, size=16)
        x = encode_trellis(bits[None], code)[0]
        es = 10.0 ** (float(rng.choice([0.0, 10.0, 20.0])) / 10.0)
        h = generate_fading(x.shape[1], 0.0, np.eye(2), np.eye(2), rng)
        frame = apply_channel(x[None], h[None], es, [rng])[0]
        vd = viterbi_decode(frame[None], h[None], code, es)
        ml = ml_exhaustive_blocks(frame[None], h[None], path_cb, es)
        vit_trials += 1
        if not np.array_equal(vd.bits, ml.bits):
            vit_mismatches += 1

    dt = time.time() - t0
    ok = (
        sphere_mismatches == 0
        and vit_mismatches == 0
        and sphere_trials >= 1000
        and vit_trials >= 1000
        and dt < 120.0
    )
    report(
        capsys,
        ok,
        "oracle equivalence",
        f"sphere {sphere_mismatches}/{sphere_trials} mismatches,"
        f" viterbi {vit_mismatches}/{vit_trials} mismatches, {dt:.1f} s",
    )


def test_channel_statistics(capsys):
    t0 = time.time()
    # temporal: 1e5 fading trajectories in batches of 50 independent paths
    fdt = 0.01
    nf = 300
    lags = np.arange(51)
    num = np.zeros(51)
    den = 0.0
    n_frames = 0
    for b in range(2000):
        h = generate_fading(nf, fdt, np.eye(1), np.eye(50), make_rng(3_000_000 + b))
        paths = h[:, :, 0]
        for m in lags:
            num[m] += np.sum((paths[: nf - m] * np.conj(paths[m:])).real) / (nf - m)
        den += np.sum(np.abs(paths) ** 2) / nf
        n_frames += 50
    r_hat = num / den
    r_want = bessel_j0(2 * np.pi * fdt * lags)
    temporal_err = float(np.abs(r_hat - r_want).max())

    # spatial: half-wavelength receive pair
    rrx = spatial_correlation("0,0; 0.5,0", 2)
    num2 = 0.0
    den2 = 0.0
    for f in range(20000):
        h = generate_fading(1, 0.0, np.eye(1), rrx, make_rng(4_000_000 + f))
        num2 += (h[0, 0, 0] * np.conj(h[0, 1, 0])).real
        den2 += (abs(h[0, 0, 0]) ** 2 + abs(h[0, 1, 0]) ** 2) / 2
    rho_hat = num2 / den2
    spatial_err = abs(rho_hat - (-0.3042))

    dt = time.time() - t0
    ok = n_frames == 100_000 and temporal_err <= 0.02 and spatial_err <= 0.02 and dt < 120.0
    report(
        capsys,
        ok,
        "channel statistics",
        f"{n_frames} frames, max temporal error {temporal_err:.4f} (lags<=50),"
        f" 0.5-wavelength correlation {rho_hat:.4f} vs -0.3042, {dt:.1f} s",
    )


def _alamouti_ber_with_ci(ebn0_db, n_frames, grid_index):
    cfg = SweepConfig(
        code="alamouti",
        ebn0_db=(ebn0_db,),
        constellation="QPSK",
        lt=2,
        lr=1,
        channel_mode="quasi_static",
        csi="perfect",
        seed=0,
        frame_uses=300,
    )
    setup = build_setup(cfg)
    es = _es_for(setup, ebn0_db)
    errs = np.concatenate([
        simulate_frames(setup, grid_index, range(f, min(f + BATCH_MAX, n_frames)), es)[0]
        for f in range(0, n_frames, BATCH_MAX)
    ])
    bits_per_frame = setup.info_bits
    ber = errs.mean() / bits_per_frame
    half = Z95 * errs.std(ddof=1) / np.sqrt(n_frames) / bits_per_frame
    return ber, ber - half, ber + half


def test_diversity_slope(capsys):
    t0 = time.time()
    points = ((10.0, 20_000), (15.0, 40_000), (20.0, 80_000))
    lines = []
    bers = {}
    ci_ok = True
    for gi, (db, n) in enumerate(points):
        ber, lo, hi = _alamouti_ber_with_ci(db, n, gi)
        bers[db] = ber
        want = closed_form_two_branch_ber(db)
        inside = lo <= want <= hi
        ci_ok = ci_ok and inside
        lines.append(f"{db:g} dB ber {ber:.3e} ci [{lo:.3e},{hi:.3e}] oracle {want:.3e}")

    b25, _, _ = _alamouti_ber_with_ci(25.0, 100_000, 3)
    slope = np.log10(bers[15.0] / b25)
    slope_ok = 1.7 <= slope <= 2.3

    dt = time.time() - t0
    ok = ci_ok and slope_ok and dt < 600.0
    report(
        capsys,
        ok,
        "diversity slope",
        "; ".join(lines) + f"; slope 15->25 dB {slope:.3f} decades/decade, {dt:.0f} s",
    )


def test_design_metrics(capsys):
    t0 = time.time()
    alam = codebook_report(alamouti_codebook(QPSK))
    sm = codebook_report(spatial_multiplex_codebook(QPSK, lt=2))
    cw = golden_codebook(QPSK).codewords
    d = cw[:, None] - cw[None, :]
    dets = np.abs(d[..., 0, 0] * d[..., 1, 1] - d[..., 0, 1] * d[..., 1, 0])
    min_det = float(dets[np.triu_indices(cw.shape[0], 1)].min())
    dt = time.time() - t0
    ok = alam.min_rank == 2 and sm.min_rank == 1 and min_det > 0 and dt < 60.0
    report(
        capsys,
        ok,
        "design metrics",
        f"alamouti min_rank {alam.min_rank}, spatial-multiplex min_rank {sm.min_rank},"
        f" golden min |det| {min_det:.4f}, {dt:.1f} s",
    )


def test_estimator_accuracy(capsys):
    t0 = time.time()
    fdt, snr_db = 0.005, 20.0
    pm = build_pilot_map(300, 2, 72)
    w = design_wiener(pm, fdt, snr_db, 12)
    es = 10.0 ** (snr_db / 10.0)
    x = np.zeros((2, 300), dtype=complex)
    for s in pm.block_starts:
        x[:, s : s + 2] = pm.pilot_matrix
    err2 = np.zeros(300)
    n = 400
    for f in range(n):
        h = generate_fading(300, fdt, np.eye(2), np.eye(2), make_rng(5_000_000 + f))
        frame = apply_channel(x[None], h[None], es, [make_rng(6_000_000 + f)])[0]
        err2 += np.sum(np.abs(estimate_channel(frame, es, w) - h) ** 2, axis=(1, 2))
    mse = err2 / (n * 4)
    d = pm.data_positions
    ratio = float(mse[d].mean() / w.mmse[d].mean())

    # DC pass-through: static channel, no design noise
    w0 = design_wiener(pm, 0.0, np.inf, 8)
    dc_err = float(np.abs(w0.weights.sum(axis=1) - 1.0).max())

    dt = time.time() - t0
    ok = ratio <= 1.25 and dc_err <= 1e-6 and dt < 300.0
    report(
        capsys,
        ok,
        "estimator",
        f"MSE {mse[d].mean():.5f} vs analytic {w.mmse[d].mean():.5f}"
        f" (ratio {ratio:.3f} <= 1.25), DC error {dc_err:.2e}, {dt:.1f} s",
    )


def _vb_fer(code, constellation, tx, rx, seed):
    cfg = SweepConfig(
        code=code,
        constellation=constellation,
        ebn0_db=(12.0,),
        lt=2,
        lr=2,
        channel_mode="quasi_static",
        csi="perfect",
        tx_geometry=tx,
        rx_geometry=rx,
        decoder="ml" if code == "golden" else "auto",
        min_frame_errors=200,
        max_frames=20_000,
        seed=seed,
        frame_uses=300,
    )
    return run_sweep(cfg).rows[0]


def _adjacent_rho(spec):
    """Adjacent-element correlation of a 2-antenna side, as the sweep builds it."""
    return float(spatial_correlation(spec, 2)[0, 1])


def test_geometry_code_ordering(capsys):
    # R = 4 bits/use, 2x2, quasi-static, 12 dB grid point.
    # The premise is the adjacent-element correlation rho = J0(2 pi d), not the
    # spacing: only rho enters the channel, and J0 decays and oscillates with
    # distance, so a "tighter" array can still be near-white (1.0 / 0.25
    # wavelengths give rho 0.22 / 0.47). At 12 dB the ranking crosses near
    # rho ~ 0.9 on both sides, so the correlated arm uses 0.05 wavelength pairs
    # (rho 0.975) and each arm asserts its rho bound.
    t0 = time.time()
    white_tx, white_rx = "tx_linear_2.0", "rx_square_0.5"
    corr_tx = corr_rx = "0,0; 0.05,0"
    rho_white = (_adjacent_rho(white_tx), _adjacent_rho(white_rx))
    rho_corr = (_adjacent_rho(corr_tx), _adjacent_rho(corr_rx))
    white_ok = max(abs(r) for r in rho_white) <= 0.35
    corr_ok = min(rho_corr) >= 0.97
    gw = _vb_fer("golden", "QPSK", white_tx, white_rx, 0)
    aw = _vb_fer("alamouti", "16QAM", white_tx, white_rx, 1)
    gc = _vb_fer("golden", "QPSK", corr_tx, corr_rx, 2)
    ac = _vb_fer("alamouti", "16QAM", corr_tx, corr_rx, 3)
    golden_wins_white = gw.fer_ci_hi < aw.fer_ci_lo
    alamouti_wins_corr = ac.fer_ci_hi < gc.fer_ci_lo
    dt = time.time() - t0
    ok = (
        white_ok
        and corr_ok
        and golden_wins_white
        and alamouti_wins_corr
        and dt < 1800.0
    )
    report(
        capsys,
        ok,
        "geometry-driven code ordering",
        f"near-white (rho tx {rho_white[0]:+.3f}, rx {rho_white[1]:+.3f};"
        f" |rho| <= 0.35: {white_ok}):"
        f" golden {gw.fer:.4f} [{gw.fer_ci_lo:.4f},{gw.fer_ci_hi:.4f}]"
        f" vs alamouti-16QAM {aw.fer:.4f} [{aw.fer_ci_lo:.4f},{aw.fer_ci_hi:.4f}]"
        f" (golden better: {golden_wins_white});"
        f" correlated (rho tx {rho_corr[0]:+.3f}, rx {rho_corr[1]:+.3f};"
        f" rho >= 0.97: {corr_ok}):"
        f" golden {gc.fer:.4f} [{gc.fer_ci_lo:.4f},{gc.fer_ci_hi:.4f}]"
        f" vs alamouti-16QAM {ac.fer:.4f} [{ac.fer_ci_lo:.4f},{ac.fer_ci_hi:.4f}]"
        f" (alamouti better: {alamouti_wins_corr}); {dt:.0f} s",
    )


def test_determinism(capsys):
    cfg = SweepConfig(
        code="golden",
        ebn0_db=(6.0, 10.0),
        lt=2,
        lr=2,
        decoder="ml",
        min_frame_errors=25,
        max_frames=250,
        frame_uses=60,
        seed=20,
    )
    a = run_sweep(cfg).to_csv()
    b = run_sweep(cfg).to_csv()
    c = run_sweep(replace(cfg, workers=4)).to_csv()
    d = run_sweep(replace(cfg, workers=2)).to_csv()
    ok = a == b == c == d
    report(
        capsys,
        ok,
        "determinism",
        f"serial repeat identical: {a == b}; 4-worker identical: {a == c};"
        f" 2-worker identical: {a == d}",
    )
