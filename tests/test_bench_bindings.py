"""The benchmark tracer in ``perfbench/tracing.py`` binds celltrack's
module globals by name; a refactor that renames or drops one, or changes
what the tracer counts from its arguments, fails here first."""

import importlib.util
from pathlib import Path

import numpy as np

import celltrack.cli
from celltrack import CellClass, Detection
from conftest import bx

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_is_bound():
    tracing = load_tracing()
    bound = tracing.patched_objects()
    assert set(bound) == {(m, a) for m, a, _, _ in tracing.TARGETS}
    assert all(callable(obj) for obj in bound.values())


def test_tracer_counts_tracker_layers_and_restores():
    tracing = load_tracing()
    # Two cells 200 px apart, three frames: from frame 1 on, stage 1
    # gates 2 x 2 pairs per frame and keeps the 2 genuine ones.
    frames = [
        [
            Detection(bx(50.0 + f, 50.0), 0.9, CellClass.ALIVE, np.zeros(4)),
            Detection(bx(250.0 + f, 50.0), 0.9, CellClass.ALIVE, np.ones(4)),
        ]
        for f in range(3)
    ]
    before = tracing.patched_objects()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        forest = celltrack.cli.track_video(frames)
    finally:
        tracer.restore()
    assert tracing.patched_objects() == before
    assert len(forest.tracks) == 2
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["tracker.frames"] == 3
    assert metrics["tracker.detections"] == 6
    assert metrics["tracker.build_candidates.calls"] == 2
    assert metrics["tracker.build_candidates.pairs_tested"] == 8
    assert metrics["tracker.build_candidates.pairs_kept"] == 4
    assert metrics["tracker.resolve_conflicts.calls"] == 2
    assert metrics["kalman.batch_update.rows"] == 4
