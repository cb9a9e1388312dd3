"""Statistics of the correlated Rayleigh fading generator.

Each path fades with autocorrelation J0(2 pi fD T m) (isotropic scattering),
and antennas correlate by J0(2 pi d) with d the element spacing in
wavelengths.  Both follow from the same physics: a ring of scatterers seen
through motion (time) or through aperture (space).  This script measures
both statistics by Monte Carlo and prints them against the Bessel targets.
"""

import numpy as np

from stclab import (
    bessel_j0,
    generate_fading,
    spatial_correlation,
)


def rng_for(seed):
    return np.random.Generator(np.random.PCG64(seed))


fdt = 0.01
nf = 300
n_batches = 400  # 50 independent paths per batch -> 20 000 trajectories
lags = np.array([0, 5, 10, 20, 35, 50])

num = np.zeros(lags.size)
den = 0.0
for b in range(n_batches):
    h = generate_fading(nf, fdt, np.eye(1), np.eye(50), rng_for(b))
    paths = h[:, :, 0]
    for i, m in enumerate(lags):
        num[i] += np.sum((paths[: nf - m] * np.conj(paths[m:])).real) / (nf - m)
    den += np.sum(np.abs(paths) ** 2) / nf
r_hat = num / den

print(f"=== temporal autocorrelation, fD*T = {fdt} ===")
print(f"{'lag':>4s} {'measured':>10s} {'J0 target':>10s} {'error':>8s}")
for i, m in enumerate(lags):
    want = bessel_j0(2 * np.pi * fdt * m)
    print(f"{m:4d} {r_hat[i]:10.4f} {want:10.4f} {abs(r_hat[i] - want):8.4f}")

print()
print("=== spatial correlation vs element spacing ===")
print(f"{'d (wavelengths)':>16s} {'measured':>10s} {'J0 target':>10s}")
for d in (0.25, 0.5, 1.0, 2.0):
    rrx = spatial_correlation(f"0,0; {d},0", 2)
    num2 = den2 = 0.0
    for f in range(8000):
        h = generate_fading(1, 0.0, np.eye(1), rrx, rng_for(100_000 + 10_000 * int(d * 4) + f))
        num2 += (h[0, 0, 0] * np.conj(h[0, 1, 0])).real
        den2 += (abs(h[0, 0, 0]) ** 2 + abs(h[0, 1, 0]) ** 2) / 2
    print(f"{d:16.2f} {num2 / den2:10.4f} {bessel_j0(2 * np.pi * d):10.4f}")

print()
print("Note the slow decay: even two wavelengths leave correlation ~0.16,")
print("and a quarter-wavelength pair is still at ~0.47.  Under isotropic")
print("scattering there is no spacing that makes antennas strongly coupled;")
print("heavy correlation needs a narrow scattering angle instead.")
