"""The benchmark's span tracer wraps stclab names that still exist, and
reads what they return.

``perfbench/tracing.py`` skips a wrapped name that is gone and reports it
as a missing span instead of failing, so a deletion in ``src/stclab`` would
only show as a changed count in a benchmark run; this test fails instead.
The tracer also reads each decode call's node count; a sweep run under it
must give it the nodes the sweep's CSV counts.  Its codebook span opens
only in a sweep that decodes by exhaustive ML.  The benchmark's pilot-MSE
check listens to the fading and estimation calls and pairs their results
frame by frame, so a sweep must make one of each per frame.
"""

import importlib.util
from pathlib import Path

import pytest

from stclab import harness

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_targets():
    return load_tracing().TARGETS


@pytest.mark.parametrize("module, attr", [t[:2] for t in load_targets()])
def test_target_is_callable(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None))


@pytest.mark.parametrize(
    "code, decoder, lr, frame_uses",
    [("alamouti", "combiner", 1, 60), ("golden", "sphere", 2, 20), ("golden", "ml", 2, 20)],
)
def test_tracer_counts_the_sweeps_decoder_nodes(code, decoder, lr, frame_uses):
    cfg = harness.SweepConfig(
        code=code,
        decoder=decoder,
        lr=lr,
        ebn0_db=(0.0, 8.0),
        frame_uses=frame_uses,
        min_frame_errors=1000,
        max_frames=40 if decoder == "combiner" else 20,
        seed=3,
    )
    with load_tracing().Tracer() as tracer:
        rows = harness.run_sweep(cfg).rows
    want = sum(round(r.mean_decoder_nodes * r.frames) for r in rows)
    assert want > 0
    assert tracer.nodes == want


@pytest.mark.parametrize("decoder, codebook_spans", [("ml", 1), ("sphere", 0)])
def test_only_ml_sweeps_build_a_codebook(decoder, codebook_spans):
    cfg = harness.SweepConfig(
        code="golden", decoder=decoder, lr=2, ebn0_db=(8.0,), frame_uses=20,
        min_frame_errors=1000, max_frames=4, seed=3,
    )
    with load_tracing().Tracer() as tracer:
        harness.run_sweep(cfg)
    names = [span[0] for span in tracer.spans]
    assert names.count("stcodes.codebook") == codebook_spans
    assert names.count("harness.setup") == 1


def test_pilot_sweep_fades_and_estimates_once_per_frame():
    cfg = harness.SweepConfig(
        code="alamouti", lt=2, lr=2, channel_mode="clarke_varying", fdt=0.01,
        csi="pilot", pilot_design_snr_db=12.0, ebn0_db=(0.0, 10.0),
        min_frame_errors=1000, max_frames=6, seed=3,
    )
    captured = {"channel.fading": [], "chanest.estimate": []}
    tracing = load_tracing()
    targets = [t for t in tracing.TARGETS if t[0] == "stclab.harness"
               and t[1] in ("generate_fading", "estimate_channel")]
    listeners = {name: calls.append for name, calls in captured.items()}
    with tracing.Tracer(targets, listeners) as tracer:
        rows = harness.run_sweep(cfg).rows
    assert tracer.missing == []
    frames = sum(r.frames for r in rows)
    assert frames == 12
    for calls in captured.values():
        assert len(calls) == frames
        assert all(c.shape == (cfg.frame_uses, cfg.lr, cfg.lt) for c in calls)
