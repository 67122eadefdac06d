"""Reading and writing the line-oriented exchange formats.

Two file kinds exist:

* detection files — one CSV-style record per detection::

      frame,x,y,w,h,confidence,class,emb_0,...,emb_{D-1}

  preceded by ``#key=value`` header lines (``frames``, ``width``,
  ``height``, ``embedding_dim`` are required; ``video_id`` and ``dosage``
  are optional).

* lineage forests — a pair of files sharing a path prefix:
  ``<prefix>_tracks.txt`` holds one record per track
  (``track_id,start,end,parent,end_reason``) after the same header style,
  and ``<prefix>_entries.txt`` holds one record per track-frame
  (``track_id,frame,x,y,w,h,provenance,class``).

Ground truth and tracker output use the identical forest format, so
either side of an evaluation can come from either producer.  All three
files go through one reader, ``_read``, and one writer, ``_write``.
Every bad header or record raises ``ValidationError`` naming
``<file>:<line>`` and the reason, as does text that is not UTF-8.
Floats are written with ``repr`` so that serialize -> load -> serialize
is byte-stable.
"""

from __future__ import annotations

import os
from collections.abc import Iterable
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .core import (
    CellClass,
    Detection,
    EndReason,
    LineageForest,
    Provenance,
    Track,
    TrackEntry,
    TrackerConfig,
    ValidationError,
    VideoMeta,
)

__all__ = [
    "DetectionFile",
    "load_detections",
    "save_detections",
    "partition_by_confidence",
    "load_ground_truth",
    "load_forest",
    "save_forest",
    "forest_paths",
]

_HEADER_TYPES = {"frames": int, "width": float, "height": float, "embedding_dim": int}


@dataclass
class DetectionFile:
    """Parsed detection file: metadata plus detections grouped per frame."""

    meta: VideoMeta
    embedding_dim: int
    frames: list[list[Detection]] = field(default_factory=list)

    def all_detections(self) -> list[Detection]:
        return [d for frame in self.frames for d in frame]


def _read(
    path: str, n_fields: int | None = None
) -> tuple[dict[str, Any], list[tuple[int, str]]]:
    """Return a file's ``#key=value`` headers and its ``(lineno, line)`` records.

    Blank lines are skipped and every header must precede the first
    record.  Numeric headers are converted.  With ``n_fields``, every
    record must have that many comma-separated fields.  Records stay
    unsplit until parsed: a split detection file takes several times the
    memory of its lines.
    """
    headers: dict[str, Any] = {}
    records: list[tuple[int, str]] = []
    with open(path, "r", encoding="utf-8") as fh:
        try:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line:
                    continue
                if line[0] != "#":
                    if n_fields is not None and line.count(",") + 1 != n_fields:
                        raise ValidationError(
                            f"{path}:{lineno}: expected {n_fields} fields, "
                            f"got {line.count(',') + 1}"
                        )
                    records.append((lineno, line))
                elif records:
                    raise ValidationError(f"{path}:{lineno}: header after first record")
                else:
                    key, eq, value = line[1:].partition("=")
                    if not eq:
                        raise ValidationError(
                            f"{path}:{lineno}: malformed header {line!r}"
                        )
                    key = key.strip()
                    try:
                        headers[key] = _HEADER_TYPES.get(key, str)(value.strip())
                    except ValueError as exc:
                        raise ValidationError(
                            f"{path}:{lineno}: non-numeric header value ({exc})"
                        ) from None
        except UnicodeDecodeError as exc:
            raise ValidationError(f"{path}: not UTF-8 text ({exc})") from None
    return headers, records


def _meta(headers: dict[str, Any], path: str, required: tuple[str, ...]) -> VideoMeta:
    """Build the ``VideoMeta`` of a file's headers, after checking ``required``."""
    for key in required:
        if key not in headers:
            raise ValidationError(f"{path}: missing required header #{key}=")
    for key in ("width", "height"):
        if not np.isfinite(headers[key]):
            raise ValidationError(f"{path}: #{key} must be finite, got {headers[key]}")
    return VideoMeta(
        video_id=headers.get("video_id", ""),
        frames=headers["frames"],
        width=headers["width"],
        height=headers["height"],
        dosage=headers.get("dosage", ""),
    )


def _write(
    path: str,
    meta: VideoMeta | None,
    records: Iterable[str],
    embedding_dim: int | None = None,
) -> None:
    """Write ``meta`` as headers (none when ``None``), then one line per record."""
    head = []
    if meta is not None:
        if meta.video_id:
            head.append(f"#video_id={meta.video_id}")
        head += [
            f"#frames={meta.frames}",
            f"#width={float(meta.width)!r}",
            f"#height={float(meta.height)!r}",
        ]
        if embedding_dim is not None:
            head.append(f"#embedding_dim={embedding_dim}")
        if meta.dosage:
            head.append(f"#dosage={meta.dosage}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join([*head, *records]) + "\n")


def load_detections(path: str) -> DetectionFile:
    """Parse a detection file, validating every record."""
    headers, records = _read(path)
    meta = _meta(headers, path, ("frames", "width", "height", "embedding_dim"))
    dim = headers["embedding_dim"]
    if meta.frames <= 0:
        raise ValidationError(f"{path}: frames must be positive, got {meta.frames}")
    if meta.width <= 0 or meta.height <= 0:
        raise ValidationError(f"{path}: width/height must be positive")
    if dim <= 0:
        raise ValidationError(f"{path}: embedding_dim must be positive")
    frames: list[list[Detection]] = [[] for _ in range(meta.frames)]
    for lineno, line in records:
        parts = line.split(",")
        try:
            if len(parts) != 7 + dim:
                raise ValidationError(
                    f"expected {7 + dim} fields (embedding_dim={dim}), "
                    f"got {len(parts)}"
                )
            frame = int(parts[0])
            if not 0 <= frame < meta.frames:
                raise ValidationError(f"frame {frame} outside [0, {meta.frames})")
            det = Detection(
                frame_index=frame,
                box=tuple(map(float, parts[1:5])),  # type: ignore[arg-type]
                confidence=float(parts[5]),
                cell_class=CellClass(parts[6]),
                embedding=np.array(list(map(float, parts[7:]))),
                source_id=lineno,
            )
        except ValueError as exc:
            raise ValidationError(f"{path}:{lineno}: {exc}") from None
        frames[frame].append(det)
    return DetectionFile(meta=meta, embedding_dim=dim, frames=frames)


def save_detections(det_file: DetectionFile, path: str) -> None:
    records = (
        ",".join((
            str(d.frame_index),
            *map(repr, map(float, d.box)),
            repr(float(d.confidence)),
            d.cell_class.value,
            *map(repr, d.embedding.tolist()),
        ))
        for frame_dets in det_file.frames
        for d in frame_dets
    )
    _write(path, det_file.meta, records, det_file.embedding_dim)


def partition_by_confidence(
    detections: list[Detection], config: TrackerConfig
) -> tuple[list[Detection], list[Detection], list[Detection]]:
    """Split detections into (high, low, discarded) by confidence.

    ``conf >= tau_high`` is high, ``tau_low <= conf < tau_high`` is low,
    anything below ``tau_low`` is discarded.
    """
    high: list[Detection] = []
    low: list[Detection] = []
    discarded: list[Detection] = []
    for det in detections:
        if det.confidence >= config.tau_high:
            high.append(det)
        elif det.confidence >= config.tau_low:
            low.append(det)
        else:
            discarded.append(det)
    return high, low, discarded


# ---------------------------------------------------------------------------
# Lineage forest serialization


def forest_paths(prefix: str) -> tuple[str, str]:
    """Paths of the track-table and entries files for a forest prefix."""
    return f"{prefix}_tracks.txt", f"{prefix}_entries.txt"


def save_forest(forest: LineageForest, prefix: str) -> tuple[str, str]:
    """Write a forest to ``<prefix>_tracks.txt`` / ``<prefix>_entries.txt``."""
    tracks_path, entries_path = forest_paths(prefix)
    track_lines: list[str] = []
    entry_lines: list[str] = []
    for tid in sorted(forest.tracks):
        track = forest.tracks[tid]
        parent = "" if track.parent is None else str(track.parent)
        reason = "" if track.end_reason is None else track.end_reason.value
        track_lines.append(
            f"{tid},{track.start_frame},{track.last_frame},{parent},{reason}"
        )
        for f in sorted(track.entries):
            e = track.entries[f]
            entry_lines.append(",".join((
                str(tid),
                str(f),
                *map(repr, map(float, e.box)),
                e.provenance.value,
                e.cell_class.value,
            )))
    _write(tracks_path, forest.meta, track_lines)
    _write(entries_path, None, entry_lines)
    return tracks_path, entries_path


def load_forest(prefix: str, strict: bool = True) -> LineageForest:
    """Load a forest from its file pair and validate structure.

    ``strict=False`` relaxes the gap-free / division-adjacency checks so
    that output of the interpolation-free ablation can be read back.
    """
    tracks_path, entries_path = forest_paths(prefix)
    if not os.path.exists(tracks_path):
        raise ValidationError(f"missing track table {tracks_path}")
    if not os.path.exists(entries_path):
        raise ValidationError(f"missing entries file {entries_path}")

    headers, records = _read(tracks_path, n_fields=5)
    meta = _meta(headers, tracks_path, ("frames", "width", "height"))
    spans: dict[int, tuple[int, int]] = {}
    tracks: dict[int, Track] = {}
    for lineno, line in records:
        tid_s, start_s, end_s, parent_s, reason_s = line.split(",")
        try:
            tid, start, end = int(tid_s), int(start_s), int(end_s)
            if tid in tracks:
                raise ValidationError(f"duplicate track id {tid}")
            if end < start:
                raise ValidationError(f"end {end} before start {start}")
            parent = int(parent_s) if parent_s else None
            reason = EndReason(reason_s) if reason_s else None
        except ValueError as exc:
            raise ValidationError(f"{tracks_path}:{lineno}: {exc}") from None
        spans[tid] = (start, end)
        tracks[tid] = Track(track_id=tid, parent=parent, end_reason=reason)

    _, records = _read(entries_path, n_fields=8)
    for lineno, line in records:
        parts = line.split(",")
        try:
            tid, frame = int(parts[0]), int(parts[1])
            if tid not in tracks:
                raise ValidationError(f"entry for undeclared track {tid}")
            entry = TrackEntry(
                box=tuple(map(float, parts[2:6])),  # type: ignore[arg-type]
                provenance=Provenance(parts[6]),
                cell_class=CellClass(parts[7]),
            )
            if frame in tracks[tid].entries:
                raise ValidationError(f"duplicate entry for track {tid} frame {frame}")
        except ValueError as exc:
            raise ValidationError(f"{entries_path}:{lineno}: {exc}") from None
        tracks[tid].entries[frame] = entry

    for tid, (start, end) in spans.items():
        track = tracks[tid]
        if not track.entries:
            raise ValidationError(f"{tracks_path}: track {tid} has no entries")
        if track.start_frame != start or track.last_frame != end:
            raise ValidationError(
                f"track {tid}: declared span [{start}, {end}] does not match "
                f"entries [{track.start_frame}, {track.last_frame}]"
            )
        if track.parent is not None and track.parent not in tracks:
            raise ValidationError(
                f"track {tid} references missing parent {track.parent}"
            )

    for tid, track in tracks.items():
        if track.parent is not None:
            tracks[track.parent].children.append(tid)
    for track in tracks.values():
        track.children.sort()

    forest = LineageForest(tracks=tracks, meta=meta)
    forest.validate(require_coverage=strict, require_adjacency=strict)
    return forest


def load_ground_truth(prefix: str) -> LineageForest:
    """Load a ground-truth forest (strict validation)."""
    return load_forest(prefix, strict=True)
