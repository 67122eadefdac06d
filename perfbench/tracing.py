"""Span tracing of celltrack's layers, installed from outside the package.

The tracer replaces the module globals that callers look up (for
example ``celltrack.tracker.batch_update``, which the tracker's frame
step calls) with wrappers that record one span per call: name, start,
end, parent span, and a few work counts taken from the arguments.
``Tracer.restore`` puts every original object back.  Spans stay in
memory; ``layer_metrics`` folds them into calls, counts and self time.
"""

from __future__ import annotations

import functools
import importlib
import os
import time

_perf = time.perf_counter


def _load_detections(args, kwargs, result) -> dict:
    return {"bytes": os.path.getsize(args[0]), "path": str(args[0])}


def _save_detections(args, kwargs, result) -> dict:
    return {"bytes": os.path.getsize(args[1])}


def _track_video(args, kwargs, result) -> dict:
    frames = args[0]
    return {"frames": len(frames), "detections": sum(len(f) for f in frames)}


def _build_candidates(args, kwargs, result) -> dict:
    return {"pairs_tested": len(args[0]) * len(args[1]), "pairs_kept": len(result)}


def _rows(args, kwargs, result) -> dict:
    return {"rows": args[0].shape[0]}


def _gap_frames(args, kwargs, result) -> dict:
    return {"frames": len(args[2])}


def _cells(args, kwargs, result) -> dict:
    return {"cells": args[0].shape[0] * args[1].shape[0]}


# (module, attribute in that module, span name, work counter).  A dotted
# attribute names a method on a class of the module.  Functions that
# several modules import appear once per module that calls them.
TARGETS: tuple[tuple[str, str, str, object], ...] = (
    ("celltrack.cli", "load_detections", "ingest.load_detections", _load_detections),
    ("celltrack.cli", "save_detections", "ingest.save_detections", _save_detections),
    ("celltrack.cli", "load_forest", "ingest.load_forest", None),
    ("celltrack.ingest", "load_forest", "ingest.load_forest", None),
    ("celltrack.cli", "save_forest", "ingest.save_forest", None),
    ("celltrack.cli", "simulate", "simulator.simulate", None),
    ("celltrack.cli", "corrupt", "simulator.corrupt", None),
    ("celltrack.cli", "track_video", "tracker.track_video", _track_video),
    ("celltrack.tracker", "build_candidates", "tracker.build_candidates", _build_candidates),
    ("celltrack.tracker", "resolve_conflicts", "tracker.resolve_conflicts", None),
    ("celltrack.tracker", "batch_update", "kalman.batch_update", _rows),
    ("celltrack.tracker", "batch_predict", "kalman.batch_predict", _rows),
    ("celltrack.tracker", "interpolate_gap", "kalman.interpolate_gap", _gap_frames),
    ("celltrack.core", "LineageForest.validate", "core.validate", None),
    ("celltrack.cli", "evaluate", "metrics.evaluate", None),
    ("celltrack.metrics", "build_graph", "metrics.build_graph", None),
    ("celltrack.metrics", "iou_matrix", "metrics.iou_matrix", _cells),
    ("celltrack.metrics", "linear_sum_assignment", "metrics.linear_sum_assignment", None),
    ("celltrack.metrics", "det_lnk_tra", "metrics.det_lnk_tra", None),
    ("celltrack.metrics", "hota", "metrics.hota", None),
    ("celltrack.metrics", "mota", "metrics.mota", None),
    ("celltrack.metrics", "motp", "metrics.motp", None),
    ("celltrack.metrics", "idf1", "metrics.idf1", None),
    ("celltrack.cli", "event_rates", "analysis.event_rates", None),
    ("celltrack.cli", "ancestor_descendant_correlation", "analysis.ancestor_descendant_correlation", None),
    ("celltrack.cli", "sister_correlation", "analysis.sister_correlation", None),
    ("celltrack.cli", "interdivision_records", "analysis.interdivision_records", None),
    ("celltrack.cli", "eligible_profiles", "analysis.eligible_profiles", None),
    ("celltrack.cli", "write_manifest", "cli.write_manifest", None),
    ("celltrack.cli", "_ablate_job", "cli.ablate_job", None),
)

LAYERS = ("cli", "ingest", "simulator", "tracker", "kalman", "core", "metrics", "analysis")


def _owner(module: str, attribute: str):
    owner = importlib.import_module(module)
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


def patched_objects() -> dict[tuple[str, str], object]:
    """The objects currently bound at every trace target."""
    out = {}
    for module, attribute, _, _ in TARGETS:
        owner, name = _owner(module, attribute)
        out[(module, attribute)] = owner.__dict__[name]
    return out


class Tracer:
    """Records spans ``[name, start, end, parent, counts]`` in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def call(self, name: str, fn, *args, counter=None, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = [name, _perf(), 0.0, parent, None]
        self.spans.append(span)
        self._stack.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = _perf()
            self._stack.pop()
        if counter is not None:
            span[4] = counter(args, kwargs, result)
        return result

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module, attribute, name, counter in TARGETS:
            owner, attr = _owner(module, attribute)
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, counter))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, name: str, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, counter=counter, **kwargs)

        return traced


def _ancestor_named(spans: list[list], index: int, name: str) -> bool:
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Calls, work counts and self times of one traced pass."""
    child = [0.0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            child[span[3]] += span[2] - span[1]
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    work: dict[str, float] = {}
    for i, (name, start, end, _, counts) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + (end - start - child[i])
        for key, value in (counts or {}).items():
            if key != "path":
                work[f"{name}.{key}"] = work.get(f"{name}.{key}", 0) + value

    def c(name):
        return calls.get(name, 0)

    def s(name):
        return self_s.get(name, 0.0)

    def w(key):
        return work.get(key, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    ablate_parses = [
        span[4]["path"]
        for i, span in enumerate(spans)
        if span[0] == "ingest.load_detections" and span[4]
        and _ancestor_named(spans, i, "cli.ablate")
    ]
    mb = 1024.0 * 1024.0
    out = {
        "ingest.load_detections.calls": c("ingest.load_detections"),
        "ingest.load_detections.self_s": s("ingest.load_detections"),
        "ingest.load_detections.mb_per_s": ratio(
            w("ingest.load_detections.bytes") / mb, s("ingest.load_detections")
        ),
        "ingest.save_detections.self_s": s("ingest.save_detections"),
        "ingest.save_detections.mb_per_s": ratio(
            w("ingest.save_detections.bytes") / mb, s("ingest.save_detections")
        ),
        "ingest.load_forest.calls": c("ingest.load_forest"),
        "ingest.load_forest.self_s": s("ingest.load_forest"),
        "ingest.save_forest.self_s": s("ingest.save_forest"),
        "simulator.simulate.self_s": s("simulator.simulate"),
        "simulator.corrupt.self_s": s("simulator.corrupt"),
        "tracker.track_video.self_s": s("tracker.track_video"),
        "tracker.frames": w("tracker.track_video.frames"),
        "tracker.detections": w("tracker.track_video.detections"),
        "tracker.build_candidates.calls": c("tracker.build_candidates"),
        "tracker.build_candidates.self_s": s("tracker.build_candidates"),
        "tracker.build_candidates.pairs_tested": w("tracker.build_candidates.pairs_tested"),
        "tracker.build_candidates.pairs_kept": w("tracker.build_candidates.pairs_kept"),
        "tracker.gate.keep_ratio": ratio(
            w("tracker.build_candidates.pairs_kept"),
            w("tracker.build_candidates.pairs_tested"),
        ),
        "tracker.resolve_conflicts.calls": c("tracker.resolve_conflicts"),
        "tracker.resolve_conflicts.self_s": s("tracker.resolve_conflicts"),
        "kalman.batch_update.calls": c("kalman.batch_update"),
        "kalman.batch_update.rows": w("kalman.batch_update.rows"),
        "kalman.batch_update.self_s": s("kalman.batch_update"),
        "kalman.batch_update.rows_per_call": ratio(
            w("kalman.batch_update.rows"), c("kalman.batch_update")
        ),
        "kalman.batch_predict.calls": c("kalman.batch_predict"),
        "kalman.batch_predict.rows": w("kalman.batch_predict.rows"),
        "kalman.batch_predict.self_s": s("kalman.batch_predict"),
        "kalman.interpolate_gap.calls": c("kalman.interpolate_gap"),
        "kalman.interpolate_gap.frames": w("kalman.interpolate_gap.frames"),
        "kalman.interpolate_gap.self_s": s("kalman.interpolate_gap"),
        "core.validate.calls": c("core.validate"),
        "core.validate.self_s": s("core.validate"),
        "metrics.build_graph.calls": c("metrics.build_graph"),
        "metrics.build_graph.self_s": s("metrics.build_graph"),
        "metrics.iou_matrix.calls": c("metrics.iou_matrix"),
        "metrics.iou_matrix.cells": w("metrics.iou_matrix.cells"),
        "metrics.linear_sum_assignment.calls": c("metrics.linear_sum_assignment"),
        "metrics.linear_sum_assignment.self_s": s("metrics.linear_sum_assignment"),
        "cli.ablate.jobs": c("cli.ablate_job"),
        "cli.ablate.parses_per_video": ratio(len(ablate_parses), len(set(ablate_parses))),
        "cli.write_manifest.self_s": s("cli.write_manifest"),
    }
    for name in ("det_lnk_tra", "hota", "mota", "motp", "idf1"):
        out[f"metrics.{name}.self_s"] = s(f"metrics.{name}")
    for name in (
        "event_rates",
        "ancestor_descendant_correlation",
        "sister_correlation",
        "interdivision_records",
        "eligible_profiles",
    ):
        out[f"analysis.{name}.self_s"] = s(f"analysis.{name}")
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(
            t for name, t in self_s.items() if name.split(".", 1)[0] == layer
        )
    out["trace.spans"] = len(spans)
    return out
