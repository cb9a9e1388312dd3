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
