"""Link-level simulator for space-time coded MIMO over correlated fading.

Modules:
    mathcore       shared numerical kernels and constellations
    stcodes        Alamouti, golden, spatial multiplexing, trellis encoders
    designmetrics  rank / product-measure / euclidean design criteria
    channel        Clarke temporal + Kronecker spatial Rayleigh fading
    chanest        pilot maps and FIR Wiener channel estimation
    demod          ML word demodulators (exhaustive, Viterbi, sphere, combiner)
    harness        Monte Carlo sweeps in frame batches, CSV output
    cli            ``stc-lab`` command line entry point
"""

__version__ = "0.1.0"

from .mathcore import (
    CONSTELLATIONS,
    QAM16,
    QPSK,
    Constellation,
    bessel_j0,
)
from .stcodes import (
    BlockCodebook,
    LinearDispersionCode,
    TrellisCode,
    alamouti_codebook,
    dispersion_code,
    encode_alamouti,
    encode_golden,
    encode_spatial_multiplex,
    encode_trellis,
    golden_codebook,
    load_packaged_trellis,
    load_trellis,
    spatial_multiplex_codebook,
)
from .designmetrics import (
    DesignMetricsReport,
    PairMetrics,
    codebook_report,
    event_report,
    pair_metrics,
    trellis_error_events,
)
from .channel import (
    apply_channel,
    generate_fading,
    spatial_correlation,
)
from .chanest import (
    PilotMap,
    WienerInterpolator,
    build_pilot_map,
    design_wiener,
    estimate_channel,
)
from .demod import (
    DecodeResult,
    alamouti_combine,
    sphere_decode,
    viterbi_decode,
)
from .harness import (
    SweepConfig,
    SweepResult,
    parse_config,
    run_sweep,
    wilson_interval,
)
