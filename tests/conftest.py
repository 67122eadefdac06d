"""Shared builders for hand-crafted lineage forests."""

from __future__ import annotations

from typing import Sequence

from celltrack import (
    Box,
    CellClass,
    Detection,
    EndReason,
    LineageForest,
    Provenance,
    Track,
    TrackEntry,
    TrackerConfig,
    VideoMeta,
)


def bx(cx: float, cy: float, w: float = 10.0, h: float = 10.0) -> Box:
    """Box from its center point."""
    return (cx - w / 2.0, cy - h / 2.0, w, h)


def make_track(
    tid: int,
    start: int,
    boxes: Sequence[Box],
    *,
    parent: int | None = None,
    children: Sequence[int] = (),
    classes: CellClass | Sequence[CellClass] = CellClass.ALIVE,
    provenances: Provenance | Sequence[Provenance] = Provenance.OBSERVED_HIGH,
    end_reason: EndReason | None = None,
) -> Track:
    """Track with one entry per consecutive frame from ``start``."""
    n = len(boxes)
    if isinstance(classes, CellClass):
        classes = [classes] * n
    if isinstance(provenances, Provenance):
        provenances = [provenances] * n
    entries = {
        start + i: TrackEntry(
            box=boxes[i], cell_class=classes[i], provenance=provenances[i]
        )
        for i in range(n)
    }
    return Track(
        track_id=tid,
        entries=entries,
        parent=parent,
        children=sorted(children),
        end_reason=end_reason,
    )


def make_chain(n: int) -> list[Track]:
    """``n`` one-frame tracks, each the single daughter of the one before."""
    return [
        make_track(
            tid,
            tid - 1,
            [bx(50, 50)],
            parent=tid - 1 if tid > 1 else None,
            children=[tid + 1] if tid < n else [],
            end_reason=EndReason.DIVISION if tid < n else EndReason.END_OF_VIDEO,
        )
        for tid in range(1, n + 1)
    ]


def make_forest(
    *tracks: Track,
    frames: int | None = None,
    video_id: str = "",
    width: float = 512.0,
    height: float = 512.0,
    dosage: str = "",
) -> LineageForest:
    """Forest from tracks; the frame count defaults to the last entry + 1."""
    if frames is None:
        frames = 1 + max(t.last_frame for t in tracks) if tracks else 1
    meta = VideoMeta(
        video_id=video_id,
        frames=frames,
        width=width,
        height=height,
        dosage=dosage,
    )
    return LineageForest(tracks={t.track_id: t for t in tracks}, meta=meta)


def assert_detections_used_at_most_once(
    forest: LineageForest,
    frames: Sequence[Sequence[Detection]],
    config: TrackerConfig,
) -> None:
    """Every observed entry of ``forest`` is one detection of its frame,
    and no detection is used twice.

    An entry is traced to its detection by box, so each frame's detection
    boxes must be distinct.  The entry must carry that detection's class,
    and its provenance must name the detection's confidence band:
    ``tau_high`` and above is high, ``[tau_low, tau_high)`` is low, and
    below ``tau_low`` the detection may not be used at all.
    """
    assert forest.meta.frames == len(frames)
    for fi, dets in enumerate(frames):
        index = {d.box: i for i, d in enumerate(dets)}
        assert len(index) == len(dets), f"frame {fi}: detection boxes repeat"
        used = []
        for track in forest.tracks.values():
            entry = track.entries.get(fi)
            if entry is None or entry.provenance is Provenance.INTERPOLATED:
                continue
            assert entry.box in index, f"frame {fi}: track {track.track_id} box"
            used.append(index[entry.box])
            det = dets[used[-1]]
            assert entry.cell_class is det.cell_class
            if det.confidence >= config.tau_high:
                assert entry.provenance is Provenance.OBSERVED_HIGH
            else:
                assert config.tau_low <= det.confidence
                assert entry.provenance is Provenance.OBSERVED_LOW
        assert len(used) == len(set(used)), f"frame {fi}: a detection used twice"
