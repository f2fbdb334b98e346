"""Spans recorded from outside the package, and the per-layer metrics.

While a traced round runs, the public functions of each layer are replaced,
at every name a caller looks them up by (for example the `decompose` that
`freqfuse.harness.sweep` imported, or the `fuse_sequence` global that
`fit_demo` calls), with a wrapper that records a span (id, parent, name,
start, end). numpy's FFT entry points are wrapped the same way so transforms
and points transformed are counted exactly. Spans stay in memory and are
written out as JSONL when the run ends.
"""

import json
import os
import sys
import time

import numpy as np

FFT_ENTRY_POINTS = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft",
                    "irfft", "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft")

# (module, attribute, span name) for the functions wrapped in every module
# of the package that binds them.
FUNCTIONS = (
    ("freqfuse.spectral", "decompose", "spectral.decompose"),
    ("freqfuse.spectral", "decompose_attenuated", "spectral.decompose_attenuated"),
    ("freqfuse.encoder", "patch_tokens", "encoder.patch_tokens"),
    ("freqfuse.fusion", "fuse_sequence", "fusion.fuse_sequence"),
    ("freqfuse.fusion", "fuse_backward", "fusion.fuse_backward"),
    ("freqfuse.fusion", "fit_demo", "fusion.fit_demo"),
    ("freqfuse.fusion", "gradient_check", "fusion.gradient_check"),
    ("freqfuse.metrics", "extract_objects", "metrics.extract"),
    ("freqfuse.metrics", "chair", "metrics.chair"),
    ("freqfuse.harness.imageio", "load_image", "harness.imageio.load"),
    ("freqfuse.harness.imageio", "save_image", "harness.imageio.save"),
    ("freqfuse.harness.formats", "load_ground_truth", "harness.formats.load_ground_truth"),
    ("freqfuse.harness.formats", "load_caption_records", "harness.formats.load_caption_records"),
    ("freqfuse.harness.sweep", "run_sweep", "harness.sweep.run_sweep"),
    ("freqfuse.harness.cli", "main", "harness.cli.main"),
)
ORACLE_METHODS = (
    ("__init__", "harness.oracle.spawn"),
    ("caption_batch", "harness.oracle.batch"),
    ("_send", "harness.oracle.send"),
    ("_next_response", "harness.oracle.wait"),
    ("close", "harness.oracle.close"),
)
LAYERS = ("spectral", "encoder", "fusion", "metrics", "harness.imageio",
          "harness.oracle", "harness.formats", "harness.sweep", "harness.cli")

# Every per-layer metric a traced run prints, with its unit. Counts are per
# traced round; "pct" is a share of the traced rounds' wall time.
PER_LAYER = (
    ("spectral.decompose.calls", "count"),
    ("spectral.decompose.pct", "%"),
    ("spectral.decompose_attenuated.calls", "count"),
    ("spectral.decompose_attenuated.pct", "%"),
    ("spectral.fft_calls", "count"),
    ("spectral.fft_points", "count"),
    ("spectral.fft.pct", "%"),
    ("spectral.self_pct", "%"),
    ("harness.imageio.load.calls", "count"),
    ("harness.imageio.load.mb_per_s", "MB/s"),
    ("harness.imageio.load_png.pct", "%"),
    ("harness.imageio.load_ppm.pct", "%"),
    ("harness.imageio.save.calls", "count"),
    ("harness.imageio.save.bytes", "B"),
    ("harness.imageio.save.pct", "%"),
    ("harness.imageio.self_pct", "%"),
    ("harness.oracle.spawns", "count"),
    ("harness.oracle.spawn.pct", "%"),
    ("harness.oracle.requests", "count"),
    ("harness.oracle.requests_per_s", "1/s"),
    ("harness.oracle.batch.pct", "%"),
    ("harness.oracle.wait.pct", "%"),
    ("harness.oracle.close.pct", "%"),
    ("harness.oracle.self_pct", "%"),
    ("harness.formats.load_ground_truth.pct", "%"),
    ("harness.formats.load_caption_records.pct", "%"),
    ("harness.formats.self_pct", "%"),
    ("harness.sweep.self_pct", "%"),
    ("harness.cli.self_pct", "%"),
    ("encoder.patch_tokens.calls", "count"),
    ("encoder.patch_tokens.pct", "%"),
    ("encoder.self_pct", "%"),
    ("fusion.fuse_sequence.calls", "count"),
    ("fusion.fuse_sequence.pct", "%"),
    ("fusion.fuse_backward.calls", "count"),
    ("fusion.fuse_backward.pct", "%"),
    ("fusion.fit.forwards_per_sample_step", "count"),
    ("fusion.gradcheck.objective_calls", "count"),
    ("fusion.self_pct", "%"),
    ("metrics.extract.calls", "count"),
    ("metrics.extract.calls_per_s", "1/s"),
    ("metrics.extract.pct", "%"),
    ("metrics.chair.pct", "%"),
    ("metrics.self_pct", "%"),
    ("trace.spans", "count"),
    ("trace.overhead_s", "s"),
)


def layer_of(name):
    parts = name.split(".")
    return ".".join(parts[:2]) if parts[0] in ("harness", "numpy") else parts[0]


class Tracer:
    """Wrappers for every traced name, and the spans they record."""

    def __init__(self):
        self.spans = []  # (id, parent, name, start, end)
        self.bytes = {"load": 0, "save": 0}
        self.fft_points = 0
        self.fit_samples = self.fit_sample_steps = 0
        self._stack = [0]
        self._next_id = 1
        self._patches = []
        self._build()

    def _span(self, name, fn, after=None):
        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1]
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append((sid, parent, name(args) if callable(name) else name,
                                   start, end))
            if after is not None:
                after(args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _build(self):
        def load_name(args):
            ext = "png" if str(args[0]).lower().endswith(".png") else "ppm"
            return f"harness.imageio.load_{ext}"

        def loaded(args, out):
            self.bytes["load"] += out.size

        def saved(args, out):
            self.bytes["save"] += os.path.getsize(args[1])

        def fft_done(args, out):
            self.fft_points += max(np.size(args[0]), out.size)

        def fitted(args, out):
            samples = len(args[0])
            self.fit_samples += samples
            self.fit_sample_steps += samples * args[2]

        hooks = {"harness.imageio.load": (load_name, loaded),
                 "harness.imageio.save": ("harness.imageio.save", saved),
                 "fusion.fit_demo": ("fusion.fit_demo", fitted)}
        for module, attr, span in FUNCTIONS:
            original = getattr(sys.modules[module], attr)
            name, after = hooks.get(span, (span, None))
            wrapper = self._span(name, original, after)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "freqfuse" or mod_name.startswith("freqfuse."):
                    for key, value in vars(mod).items():
                        if value is original:
                            self._patches.append((mod, key, original, wrapper))
        oracle_cls = sys.modules["freqfuse.harness.oracle"].CaptionOracle
        for attr, span in ORACLE_METHODS:
            original = vars(oracle_cls)[attr]
            self._patches.append((oracle_cls, attr, original, self._span(span, original)))
        for attr in FFT_ENTRY_POINTS:
            original = getattr(np.fft, attr)
            self._patches.append((np.fft, attr, original,
                                  self._span(f"numpy.fft.{attr}", original, fft_done)))

    def recorded(self, call):
        """call, with every wrapper installed while it runs."""

        def traced_call():
            for owner, key, _, wrapper in self._patches:
                setattr(owner, key, wrapper)
            try:
                return call()
            finally:
                for owner, key, original, _ in self._patches:
                    setattr(owner, key, original)

        return traced_call

    def write(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": start, "end": end}) + "\n")

    def metrics(self, rounds, traced_wall, overhead_s):
        """Per-layer metrics over `rounds` traced rounds whose timed calls
        took `traced_wall` seconds of wall time in all."""
        by_id = {s[0]: s for s in self.spans}
        child = {}
        for sid, parent, _, start, end in self.spans:
            child[parent] = child.get(parent, 0.0) + (end - start)
        busy, calls, self_time = {}, {}, {}

        def ancestor(span, wanted):
            parent = span[1]
            while parent:
                span = by_id[parent]
                if span[2] == wanted:
                    return True
                parent = span[1]
            return False

        in_fit = in_gradcheck = 0
        for span in self.spans:
            sid, _, name, start, end = span
            busy[name] = busy.get(name, 0.0) + (end - start)
            calls[name] = calls.get(name, 0) + 1
            layer = layer_of(name)
            self_time[layer] = self_time.get(layer, 0.0) + (end - start) - child.get(sid, 0.0)
            if name in ("fusion.fuse_sequence", "fusion.fuse_backward"):
                in_fit += ancestor(span, "fusion.fit_demo")
                if name == "fusion.fuse_sequence":
                    in_gradcheck += ancestor(span, "fusion.gradient_check")

        def pct(seconds):
            return 100.0 * seconds / traced_wall

        def per_round(n):
            return n / rounds

        def ratio(num, den):
            return num / den if den else 0.0

        def total(prefix, table):
            return sum(v for k, v in table.items() if k.startswith(prefix))

        sends = calls.get("harness.oracle.send", 0)
        out = {
            "spectral.fft_calls": per_round(total("numpy.fft.", calls)),
            "spectral.fft_points": per_round(self.fft_points),
            "spectral.fft.pct": pct(total("numpy.fft.", busy)),
            "harness.imageio.load.calls": per_round(total("harness.imageio.load_", calls)),
            "harness.imageio.load.mb_per_s":
                ratio(self.bytes["load"] / 1e6, total("harness.imageio.load_", busy)),
            "harness.imageio.save.bytes": per_round(self.bytes["save"]),
            "harness.oracle.spawns": per_round(calls.get("harness.oracle.spawn", 0)),
            "harness.oracle.requests": per_round(sends),
            "harness.oracle.requests_per_s": ratio(sends, busy.get("harness.oracle.batch", 0.0)),
            # fit_demo's first loss is one more forward per sample
            "fusion.fit.forwards_per_sample_step":
                ratio(in_fit - self.fit_samples, self.fit_sample_steps),
            "fusion.gradcheck.objective_calls":
                ratio(in_gradcheck, calls.get("fusion.gradient_check", 0)),
            "metrics.extract.calls_per_s":
                ratio(calls.get("metrics.extract", 0), busy.get("metrics.extract", 0.0)),
            "trace.spans": per_round(len(self.spans)),
            "trace.overhead_s": overhead_s,
        }
        for layer in LAYERS:
            out[f"{layer}.self_pct"] = pct(self_time.get(layer, 0.0))
        for name, unit in PER_LAYER:
            if name in out:
                continue
            stem, _, kind = name.rpartition(".")
            if kind == "calls":
                out[name] = per_round(calls.get(stem, 0))
            elif kind == "pct":
                out[name] = pct(busy.get(stem, 0.0))
            else:
                raise KeyError(name)
        return {name: {"value": out[name], "unit": unit} for name, unit in PER_LAYER}
