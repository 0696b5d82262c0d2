"""Per-layer tracing from outside the program.

Each target is a public function bound under some name in the module that
calls it (`spincam.cli.read_dataset`, `spincam.downwash.simulate_detector`,
...). While a traced pass runs, that name is replaced by a wrapper that records
a span `[layer, start, end, parent]` in memory and bumps the layer's work
counters. Spans are written out once, when the benchmark ends.

A target whose module or name no longer exists is skipped; if none of a
layer's targets exist the layer is reported as absent (its metrics read 0),
so a refactor that removes a wrapped name does not crash the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _calls(key):
    def count(counts, args, kwargs, result):
        counts[key] += 1
    return count


def _pose_samples(counts, args, kwargs, result):
    counts["scenarios.pose_samples"] += sum(len(track) for track in result)


def _annotate(counts, args, kwargs, result):
    counts["camera.annotate_calls"] += 1
    counts["camera.neighbors_considered"] += len(_arg(args, kwargs, 1, "neighbor_poses"))
    counts["camera.neighbors_visible"] += len(result.neighbors)


def _bytes_written(counts, args, kwargs, result):
    counts["datasets.bytes_written"] += os.path.getsize(_arg(args, kwargs, 1, "path"))


def _bytes_read(counts, args, kwargs, result):
    counts["datasets.bytes_read"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


def _detections(counts, args, kwargs, result):
    if hasattr(result, "confidence"):  # grid map: every non-empty cell is a detection
        counts["perception.detections"] += int((result.confidence > 0).sum())
    else:
        counts["perception.detections"] += len(result)


def _estimates(counts, args, kwargs, result):
    counts["perception.estimates"] += len(result)


def _frames(counts, args, kwargs, result):
    counts["downwash.frames"] += len(result)


# (layer, module that binds the name, name, work counter or None)
TARGETS = [
    ("cli.main", "spincam.cli", "main", None),
    ("scenarios.generate", "spincam.cli", "generate_scenario", _pose_samples),
    ("geometry.interpolate", "spincam.cli", "interpolate_pose", _calls("geometry.interpolate_calls")),
    ("geometry.interpolate", "spincam.downwash", "interpolate_pose",
     _calls("geometry.interpolate_calls")),
    ("camera.annotate", "spincam.cli", "annotate_frame", _annotate),
    ("camera.annotate", "spincam.downwash", "annotate_frame", _annotate),
    ("datasets.write", "spincam.cli", "write_dataset", _bytes_written),
    ("datasets.read", "spincam.cli", "read_dataset", _bytes_read),
    ("downwash.eval", "spincam.cli", "evaluate_downwash_records", _frames),
    ("downwash.eval", "spincam.cli", "run_downwash_eval", _frames),
    ("perception.detect", "spincam.downwash", "simulate_detector", _detections),
    ("perception.decode", "spincam.downwash", "decode_detections", _estimates),
    # the benchmark's own localization protocol looks these up on their modules
    ("perception.detect", "spincam.perception", "simulate_detector", _detections),
    ("perception.decode", "spincam.perception", "decode_detections", _estimates),
    ("metrics.match", "spincam.metrics", "position_errors", _calls("metrics.match_calls")),
]

ROOT_LAYER = "bench.pass"
LAYERS = sorted({layer for layer, *_ in TARGETS})


class Tracer:
    """Installs the wrappers for one pass at a time and keeps every span."""

    def __init__(self):
        self.passes: list[list[list]] = []
        self.pass_counts: list[Counter] = []
        self.counter_errors: Counter = Counter()
        self._spans: list[list] = []
        self._stack: list[int] = []
        self._counts: Counter = Counter()
        self._bound = []  # (module, name, original, wrapper)
        present = set()
        for layer, module_name, name, count in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                continue
            original = getattr(module, name, None)
            if callable(original):
                self._bound.append((module, name, original, self._wrap(layer, original, count)))
                present.add(layer)
        self.absent = [layer for layer in LAYERS if layer not in present]

    def _enter(self, layer) -> int:
        index = len(self._spans)
        parent = self._stack[-1] if self._stack else -1
        self._spans.append([layer, 0.0, 0.0, parent])
        self._stack.append(index)
        return index

    def _exit(self, index, start, end):
        self._spans[index][1:3] = start, end
        self._stack.pop()

    def _wrap(self, layer, fn, count):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self._enter(layer)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(index, start, time.perf_counter())
            if count is not None:
                try:
                    count(self._counts, args, kwargs, result)
                except Exception as exc:  # a counter must never fail the pass
                    self.counter_errors[f"{layer}: {type(exc).__name__}: {exc}"] += 1
            return result

        return wrapper

    @contextmanager
    def traced_pass(self):
        """Wrap every target for the duration of one pass, under a root span."""
        self._spans, self._stack, self._counts = [], [], Counter()
        for module, name, _original, wrapper in self._bound:
            setattr(module, name, wrapper)
        index = self._enter(ROOT_LAYER)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._exit(index, start, time.perf_counter())
            for module, name, original, _wrapper in self._bound:
                setattr(module, name, original)
            self.passes.append(self._spans)
            self.pass_counts.append(self._counts)

    def dump(self) -> dict:
        """Every span of every traced pass, as plain JSON-able lists."""
        return {"span_fields": ["layer", "start_s", "end_s", "parent"],
                "passes": self.passes, "absent_layers": self.absent,
                "counter_errors": dict(self.counter_errors)}


def layer_times(spans) -> tuple[dict, dict]:
    """Busy and self time per layer for one pass.

    Busy time sums a layer's spans (no target calls another target of its own
    layer); self time is a span's duration minus the durations of its direct
    children (spans strictly nest in this single-threaded program).
    """
    child = [0.0] * len(spans)
    for _layer, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    busy, self_time = defaultdict(float), defaultdict(float)
    for i, (layer, start, end, _parent) in enumerate(spans):
        busy[layer] += end - start
        self_time[layer] += end - start - child[i]
    return busy, self_time


def pass_layer_metrics(spans, counts: Counter) -> dict[str, float]:
    """Per-layer metrics of one traced pass (0 where a layer did no work)."""
    busy, self_time = layer_times(spans)
    considered = counts["camera.neighbors_considered"]
    detections = counts["perception.detections"]
    return {
        "scenarios.generate_s": busy["scenarios.generate"],
        "scenarios.pose_samples": counts["scenarios.pose_samples"],
        "geometry.interpolate_s": busy["geometry.interpolate"],
        "geometry.interpolate_calls": counts["geometry.interpolate_calls"],
        "camera.annotate_s": busy["camera.annotate"],
        "camera.annotate_calls": counts["camera.annotate_calls"],
        "camera.visible_ratio": (
            counts["camera.neighbors_visible"] / considered if considered else 0.0
        ),
        "datasets.write_s": busy["datasets.write"],
        "datasets.read_s": busy["datasets.read"],
        "datasets.bytes_written": counts["datasets.bytes_written"],
        "datasets.bytes_read": counts["datasets.bytes_read"],
        "perception.detect_s": busy["perception.detect"],
        "perception.decode_s": busy["perception.decode"],
        "perception.detections": detections,
        "perception.decode_yield": (
            counts["perception.estimates"] / detections if detections else 0.0
        ),
        "downwash.eval_s": busy["downwash.eval"],
        "downwash.eval_self_s": self_time["downwash.eval"],
        "downwash.frames": counts["downwash.frames"],
        "metrics.match_s": busy["metrics.match"],
        "metrics.match_calls": counts["metrics.match_calls"],
        "cli.main_s": busy["cli.main"],
        "cli.self_s": self_time["cli.main"],
        "bench.self_s": self_time[ROOT_LAYER],
    }

