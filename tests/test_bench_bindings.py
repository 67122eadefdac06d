"""The benchmark tracer in ``perfbench/tracing.py`` binds celltrack's
module globals by name; a refactor that renames or drops one, or changes
what the tracer counts from its arguments, fails here first."""

import importlib.util
from pathlib import Path

import numpy as np

import celltrack.cli
from celltrack import CellClass, Detection
from celltrack.cli import main
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
    assert forest.ids.size == 2
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["tracker.frames"] == 3
    assert metrics["tracker.detections"] == 6
    assert metrics["tracker.build_candidates.calls"] == 2
    assert metrics["tracker.build_candidates.pairs_tested"] == 8
    assert metrics["tracker.build_candidates.pairs_kept"] == 4
    assert metrics["tracker.resolve_conflicts.calls"] == 2
    assert metrics["kalman.batch_update.rows"] == 4


def test_tracer_counts_the_cli_on_detection_columns(tmp_path):
    # ``track`` and ``ablate`` hand the tracker a detection file's columns:
    # the tracer counts its frames and records without building
    # ``Detection``s, and tracing changes no output.
    tracing = load_tracing()
    corpus = tmp_path / "corpus"
    assert main([
        "simulate", "--out", str(corpus), "--count", "2", "--seed", "4",
        "--set", "sim.frames=8", "--set", "sim.initial_cells=6",
        "--set", "sim.treatment_frame=3", "--set", "sim.drop_prob=0.2",
        "--set", "sim.false_positive_rate=0.5", "--set", "sim.box_jitter_sigma=1.0",
    ]) == 0
    files = sorted(corpus.glob("*/detections.txt"))
    lines = [p.read_text().splitlines() for p in files]
    frames = [int(next(x for x in ls if x.startswith("#frames="))[8:]) for ls in lines]
    records = [sum(1 for x in ls if x and not x.startswith("#")) for ls in lines]

    def run(argv, out, traced=False):
        tracer = tracing.Tracer()
        if traced:
            tracer.install()
        try:
            assert main([*argv, "--out", str(out)]) == 0
        finally:
            tracer.restore()
        return tracing.layer_metrics(tracer.spans)

    track = ["track", str(files[0])]
    metrics = run(track, tmp_path / "traced", traced=True)
    run(track, tmp_path / "plain")
    assert (metrics["tracker.frames"], metrics["tracker.detections"]) == (frames[0], records[0])
    for name in ("pred_tracks.txt", "pred_entries.txt"):
        assert (tmp_path / "traced" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()

    ablate = ["ablate", str(corpus), "--no-sweep"]
    metrics = run(ablate, tmp_path / "ablate" / "traced", traced=True)
    run(ablate, tmp_path / "ablate" / "plain")
    # Four tracker variants per video.
    assert metrics["tracker.frames"] == 4 * sum(frames)
    assert metrics["tracker.detections"] == 4 * sum(records)
    for name in ("ablation.csv", "ablation_summary.csv"):
        traced = (tmp_path / "ablate" / "traced" / name).read_bytes()
        assert traced == (tmp_path / "ablate" / "plain" / name).read_bytes()
