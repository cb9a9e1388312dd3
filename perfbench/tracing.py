"""Span tracing of stclab from outside the package.

The tracer replaces public functions of stclab modules with thin wrappers
that record one span per call (name, layer, start, end, parent span, frame
id) in memory.  Spans are written out only when the run ends.  Nothing in
``src/stclab`` is modified; a wrapped name that no longer exists is skipped
and reported as missing instead of failing the run.

Wrappers are installed at the name the *caller* looks up: the harness
imports its helpers with ``from .channel import generate_fading``, so the
span for fading wraps ``stclab.harness.generate_fading``.  ``mathcore`` has
no span of its own: its kernels run inside the channel, chanest, demod and
designmetrics spans, and a span around them would count that time twice.
"""

import importlib
import json
import time
from collections import defaultdict

LAYERS = ("cli", "harness", "stcodes", "channel", "chanest", "demod", "designmetrics")

# (module, attribute, layer, span name).  simulate_frame opens a new frame id
# that every span under it shares.
TARGETS = (
    ("stclab.cli", "main", "cli", "main"),
    ("stclab.cli", "run_sweep", "harness", "run_sweep"),
    ("stclab.harness", "build_setup", "harness", "setup"),
    ("stclab.harness", "simulate_frame", "harness", "frame"),
    ("stclab.harness", "alamouti_codebook", "stcodes", "codebook"),
    ("stclab.harness", "golden_codebook", "stcodes", "codebook"),
    ("stclab.harness", "spatial_multiplex_codebook", "stcodes", "codebook"),
    ("stclab.harness", "load_trellis", "stcodes", "load_trellis"),
    ("stclab.harness", "encode_trellis", "stcodes", "encode"),
    ("stclab.harness", "spatial_correlation", "channel", "correlation"),
    ("stclab.harness", "generate_fading", "channel", "fading"),
    ("stclab.harness", "apply_channel", "channel", "apply"),
    ("stclab.harness", "build_pilot_map", "chanest", "pilot_map"),
    ("stclab.harness", "design_wiener", "chanest", "design"),
    ("stclab.harness", "estimate_channel", "chanest", "estimate"),
    ("stclab.harness", "ml_exhaustive_blocks", "demod", "ml"),
    ("stclab.harness", "sphere_decode", "demod", "sphere"),
    ("stclab.harness", "alamouti_combine", "demod", "combiner"),
    ("stclab.harness", "viterbi_decode", "demod", "viterbi"),
    ("stclab.stcodes", "alamouti_codebook", "stcodes", "codebook"),
    ("stclab.stcodes", "golden_codebook", "stcodes", "codebook"),
    ("stclab.stcodes", "load_packaged_trellis", "stcodes", "load_trellis"),
    ("stclab.designmetrics", "codebook_report", "designmetrics", "report"),
    ("stclab.designmetrics", "trellis_error_events", "designmetrics", "events"),
    ("stclab.designmetrics", "event_report", "designmetrics", "event_report"),
)

DECODE_SPANS = ("demod.ml", "demod.sphere", "demod.combiner", "demod.viterbi")

# per-layer metric -> (span, statistic, unit); "per_frame" sums a span's time
# within each frame before averaging, so a decoder called once per block and
# one called once per frame read on the same scale.
SPAN_METRICS = {
    "harness.setup_ms": ("harness.setup", "per_call", "ms"),
    "harness.frame_ms": ("harness.frame", "per_call", "ms"),
    "harness.frame_self_ms": ("harness.frame", "self_per_call", "ms"),
    "stcodes.codebook_ms": ("stcodes.codebook", "per_call", "ms"),
    "stcodes.encode_ms": ("stcodes.encode", "per_frame", "ms"),
    "channel.correlation_ms": ("channel.correlation", "per_call", "ms"),
    "channel.fading_ms": ("channel.fading", "per_frame", "ms"),
    "channel.apply_ms": ("channel.apply", "per_frame", "ms"),
    "chanest.design_ms": ("chanest.design", "per_call", "ms"),
    "chanest.estimate_ms": ("chanest.estimate", "per_frame", "ms"),
    "demod.ml_ms": ("demod.ml", "per_frame", "ms"),
    "demod.sphere_ms": ("demod.sphere", "per_frame", "ms"),
    "demod.combiner_ms": ("demod.combiner", "per_frame", "ms"),
    "demod.viterbi_ms": ("demod.viterbi", "per_frame", "ms"),
    "cli.self_ms": ("cli.main", "self_per_call", "ms"),
}


class Tracer:
    """In-memory span recorder around a fixed set of stclab functions."""

    def __init__(self, targets=TARGETS, listeners=None):
        self.targets = targets
        # span name -> callable(result), for checks that need a call's output
        self.listeners = listeners or {}
        self.spans = []  # [name, start, end, parent, frame, self_s]
        self.missing = []
        self.nodes = 0
        self.degenerate = 0
        self.pairs = 0
        self._stack = []
        self._frame = None
        self._frames = 0
        self._saved = []

    def _wrap(self, fn, span):
        tracer = self

        def traced(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else None
            outer_frame = tracer._frame
            if span == "harness.frame":
                tracer._frames += 1
                tracer._frame = tracer._frames
            record = [span, 0.0, 0.0, parent, tracer._frame, 0.0]
            index = len(tracer.spans)
            tracer.spans.append(record)
            tracer._stack.append(index)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                tracer._stack.pop()
                tracer._frame = outer_frame
            tracer._count(span, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count(self, span, result):
        if span in DECODE_SPANS:
            self.nodes += int(getattr(result, "visited", 0))
            self.degenerate += int(bool(getattr(result, "degenerate", False)))
        elif span == "designmetrics.report":
            self.pairs += int(getattr(result, "n_pairs", 0))
        listener = self.listeners.get(span)
        if listener is not None:
            listener(result)

    def install(self):
        """Wrap every target that exists; remember the originals."""
        for module_name, attr, layer, name in self.targets:
            label = f"{module_name}.{attr}"
            try:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr)
            except (ImportError, AttributeError):
                fn = None
            if not callable(fn):
                if label not in self.missing:
                    self.missing.append(label)
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, f"{layer}.{name}"))

    def remove(self):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
        return False

    def _self_times(self):
        child = defaultdict(float)
        for name, start, end, parent, frame, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        for i, span in enumerate(self.spans):
            span[5] = (span[2] - span[1]) - child[i]

    def metrics(self, rounds):
        """Per-layer metrics over all recorded spans; ``rounds`` traced rounds."""
        self._self_times()
        by_name = defaultdict(list)
        for i, span in enumerate(self.spans):
            by_name[span[0]].append(i)
        out = {}
        absent = []
        for metric, (name, stat, unit) in SPAN_METRICS.items():
            idx = by_name.get(name, [])
            if not idx:
                absent.append(metric)
                out[metric] = (0.0, unit)
                continue
            if stat == "per_frame":
                groups = defaultdict(float)
                for i in idx:
                    s = self.spans[i]
                    groups[s[4] if s[4] is not None else -1 - i] += s[2] - s[1]
                value = sum(groups.values()) / len(groups)
            elif stat == "self_per_call":
                value = sum(self.spans[i][5] for i in idx) / len(idx)
            else:
                value = sum(self.spans[i][2] - self.spans[i][1] for i in idx) / len(idx)
            out[metric] = (value * 1e3, unit)

        frames = len(by_name.get("harness.frame", []))
        decoded = {
            self.spans[i][4] for n in DECODE_SPANS for i in by_name.get(n, [])
        }
        out["harness.frames"] = (frames / rounds, "count")
        if decoded:
            out["demod.nodes_per_frame"] = (self.nodes / len(decoded), "count")
            out["demod.degenerate_decodes"] = (self.degenerate / rounds, "count")
        else:
            absent += ["demod.nodes_per_frame", "demod.degenerate_decodes"]
            out["demod.nodes_per_frame"] = (0.0, "count")
            out["demod.degenerate_decodes"] = (0.0, "count")

        def total(name):
            return sum(self.spans[i][2] - self.spans[i][1] for i in by_name.get(name, []))

        reports = by_name.get("designmetrics.report", [])
        events = by_name.get("designmetrics.events", [])
        out["designmetrics.report_s"] = (total("designmetrics.report") / len(reports) if reports else 0.0, "s")
        out["designmetrics.events_s"] = (total("designmetrics.events") / len(events) if events else 0.0, "s")
        out["designmetrics.pairs_per_s"] = (
            self.pairs / total("designmetrics.report") if reports else 0.0,
            "pairs/s",
        )
        absent += [m for m, n in (("designmetrics.report_s", reports),
                                  ("designmetrics.pairs_per_s", reports),
                                  ("designmetrics.events_s", events)) if not n]

        layer_self = defaultdict(float)
        for span in self.spans:
            layer_self[span[0].split(".", 1)[0]] += span[5]
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (layer_self[layer] / rounds, "s")
        out["trace.missing_spans"] = (float(len(self.missing)), "count")
        return out, absent

    def dump(self, path, meta):
        fields = ["name", "start", "end", "parent", "frame", "self_s"]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"meta": meta, "missing": self.missing, "fields": fields,
                       "spans": self.spans}, fh)
