"""Pilot-aided Wiener channel estimation: measured MSE vs the design value.

A frame carries orthogonal pilot blocks at regular positions.  Raw per-block
least-squares estimates are interpolated to every use with FIR MMSE weights
built from the Clarke autocorrelation J0(2 pi fdT delta) plus a design noise
floor.  The interpolator reports its own analytic residual 1 - p^T R^-1 p;
this script checks that Monte Carlo error actually lands on that curve.
"""

import numpy as np

from stclab.chanest import build_pilot_map, design_wiener, estimate_channel
from stclab.channel import apply_channel, generate_fading

nf, lt, lr = 300, 2, 2
fdt = 0.005
snr_db = 20.0
es = 10.0 ** (snr_db / 10.0)
n_frames = 400

pm = build_pilot_map(nf, lt, 72)
w = design_wiener(pm, fdt, snr_db, taps=8)

x = np.zeros((lt, nf), dtype=complex)
for s in pm.block_starts:
    x[:, s : s + lt] = pm.pilot_matrix

rng = np.random.Generator(np.random.PCG64(7))
err2 = np.zeros(nf)
for _ in range(n_frames):
    h = generate_fading(nf, fdt, np.eye(lt), np.eye(lr), rng)
    frame = apply_channel(x[None], h[None], es, [rng])[0]
    err2 += np.sum(np.abs(estimate_channel(frame, es, w) - h) ** 2, axis=(1, 2))
mse = err2 / (n_frames * lt * lr)

print(f"=== {pm.n_blocks} pilot blocks in {nf} uses, fdT={fdt}, {snr_db:.0f} dB ===")
print(f"{'position':>9s} {'measured':>10s} {'analytic':>10s}")
for k in (0, 1, 8, 40, 75, 149, 225, 292, 298, 299):
    tag = "pilot" if k in pm.pilot_positions else "data"
    print(f"{k:4d} {tag:>5s} {mse[k]:10.5f} {w.mmse[k]:10.5f}")

data = pm.data_positions
ratio = mse[data].mean() / w.mmse[data].mean()
print()
print(f"mean over data positions: measured {mse[data].mean():.5f},"
      f" analytic {w.mmse[data].mean():.5f}, ratio {ratio:.3f}")
print("Pilot uses sit on a block so their error is near the raw-estimate")
print("floor; data uses between blocks pay a small interpolation penalty")
print("that grows with distance from the nearest pilots.")
