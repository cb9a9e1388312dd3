"""Design metrics of the bundled space-time codes.

The two classical design criteria for a codeword pair (x1, x2) act on
Cs = (x1 - x2)(x1 - x2)^H:

* rank of Cs sets the diversity advantage (the high-SNR slope),
* the geometric mean of its nonzero eigenvalues (product measure) sets the
  coding gain when the receive array is small,
* the arithmetic mean of all eigenvalues (euclidean criterion) takes over
  when many receive antennas average the fading out.

This script brute-forces all codeword pairs of each block code and walks the
error events of the delay-diversity trellis.
"""

import numpy as np

from stclab.designmetrics import codebook_report, event_report, trellis_error_events
from stclab.mathcore import QAM16, QPSK
from stclab.stcodes import (
    alamouti_codebook,
    golden_codebook,
    load_packaged_trellis,
    spatial_multiplex_codebook,
)


def show(name, rep, extra=""):
    print(f"{name:28s} pairs={rep.n_pairs:6d}  min_rank={rep.min_rank}"
          f"  min_product={rep.min_product_measure_at_min_rank:.4f}"
          f"  min_euclidean={rep.min_euclidean:.4f}{extra}")


print("=== block codebooks (exhaustive pair scan) ===")
show("alamouti / QPSK", codebook_report(alamouti_codebook(QPSK)))
show("alamouti / 16QAM", codebook_report(alamouti_codebook(QAM16)))
show("golden / QPSK", codebook_report(golden_codebook(QPSK)))
show("spatial multiplex / QPSK", codebook_report(spatial_multiplex_codebook(QPSK)))

print()
print("The orthogonal and Golden codes are full rank on every pair: diversity")
print("order lt * lr.  Spatial multiplexing sends independent streams, so a")
print("pair differing on one antenna has rank 1: no transmit diversity.")

print()
print("=== golden code determinant floor ===")
cw = golden_codebook(QPSK).codewords
d = cw[:, None] - cw[None, :]
dets = np.abs(d[..., 0, 0] * d[..., 1, 1] - d[..., 0, 1] * d[..., 1, 0])
print(f"min |det(x1 - x2)| over all pairs: {dets[np.triu_indices(256, 1)].min():.6f}"
      f"  (1/sqrt(5) = {1 / np.sqrt(5):.6f})")

print()
print("=== delay-diversity trellis error events ===")
code = load_packaged_trellis()
for depth in (2, 4, 8):
    events = trellis_error_events(code, max_depth=depth)
    rep = event_report(events)
    show(f"events to depth {depth}", rep, extra=f"  (distinct events: {len(events)})")
print()
print("Every error event keeps rank 2, the full transmit diversity of the")
print("4-state code; longer events only add euclidean distance.")
