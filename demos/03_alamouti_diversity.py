"""Alamouti over 2x1 quasi-static Rayleigh: simulated BER vs closed form.

With perfect CSI and QPSK, the orthogonal combiner turns the 2x1 block
channel into a scalar link with two-branch maximal-ratio diversity at
half energy per branch.  That link has an exact BER:

    c  = (Eb/N0) / 2
    mu = sqrt(c / (1 + c))
    Pb = p^2 (1 + 2 (1 - p)),   p = (1 - mu) / 2

The simulator should track this curve, and its log-log slope should
approach 2 decades per 10 dB -- the signature of diversity order two.
"""

import numpy as np

from stclab.harness import parse_config, run_sweep


def closed_form_ber(ebn0_db):
    c = 10.0 ** (ebn0_db / 10.0) / 2.0
    mu = np.sqrt(c / (1.0 + c))
    p = 0.5 * (1.0 - mu)
    return p * p * (1.0 + 2.0 * (1.0 - p))


CONFIG = """
code = alamouti
constellation = QPSK
lt = 2
lr = 1
channel = quasi_static
csi = perfect
decoder = combiner
ebn0_db = 6, 10, 14, 18
min_frame_errors = 150
max_frames = 60000
frame_uses = 120
seed = 33
"""

cfg = parse_config(CONFIG)
rows = run_sweep(cfg).rows

print("=== Alamouti 2x1 QPSK, quasi-static, perfect CSI ===")
print(f"{'Eb/N0':>6s} {'sim BER':>10s} {'exact BER':>10s} {'ratio':>7s} {'frames':>7s}")
for r in rows:
    want = closed_form_ber(r.ebn0_db)
    print(
        f"{r.ebn0_db:6.1f} {r.ber:10.3e} {want:10.3e}"
        f" {r.ber / want:7.3f} {r.frames:7d}"
    )

slope = (np.log10(rows[1].ber) - np.log10(rows[-1].ber)) / ((rows[-1].ebn0_db - rows[1].ebn0_db) / 10.0)
print()
print(f"log-log slope from {rows[1].ebn0_db:.0f} to {rows[-1].ebn0_db:.0f} dB:"
      f" {slope:.2f} decades per 10 dB (diversity order two -> 2.0 asymptotically)")
