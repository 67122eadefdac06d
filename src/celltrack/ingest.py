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
either side of an evaluation can come from either producer.  Floats are
written with ``repr`` so that serialize -> load -> serialize is
byte-stable.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .core import (
    Box,
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

_REQUIRED_HEADERS = ("frames", "width", "height", "embedding_dim")


@dataclass
class DetectionFile:
    """Parsed detection file: metadata plus detections grouped per frame."""

    meta: VideoMeta
    embedding_dim: int
    frames: list[list[Detection]] = field(default_factory=list)

    def all_detections(self) -> list[Detection]:
        return [d for frame in self.frames for d in frame]


def _fmt(value: float) -> str:
    """Shortest round-tripping decimal form of a float."""
    return repr(float(value))


def _parse_headers(lines: list[tuple[int, str]], path: str) -> dict[str, str]:
    headers: dict[str, str] = {}
    for lineno, line in lines:
        body = line[1:].strip()
        if "=" not in body:
            raise ValidationError(f"{path}:{lineno}: malformed header {line!r}")
        key, value = body.split("=", 1)
        headers[key.strip()] = value.strip()
    return headers


def _split_lines(path: str) -> tuple[list[tuple[int, str]], list[tuple[int, str]]]:
    """Return (header_lines, record_lines) with 1-based line numbers."""
    header_lines: list[tuple[int, str]] = []
    record_lines: list[tuple[int, str]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                if record_lines:
                    raise ValidationError(
                        f"{path}:{lineno}: header after first record"
                    )
                header_lines.append((lineno, line))
            else:
                record_lines.append((lineno, line))
    return header_lines, record_lines


def _meta_from_headers(headers: dict[str, str], path: str) -> tuple[VideoMeta, int]:
    for key in _REQUIRED_HEADERS:
        if key not in headers:
            raise ValidationError(f"{path}: missing required header #{key}=")
    try:
        frames = int(headers["frames"])
        width = float(headers["width"])
        height = float(headers["height"])
        dim = int(headers["embedding_dim"])
    except ValueError as exc:
        raise ValidationError(f"{path}: non-numeric header value ({exc})") from None
    if frames <= 0:
        raise ValidationError(f"{path}: frames must be positive, got {frames}")
    if width <= 0 or height <= 0:
        raise ValidationError(f"{path}: width/height must be positive")
    if dim <= 0:
        raise ValidationError(f"{path}: embedding_dim must be positive")
    meta = VideoMeta(
        video_id=headers.get("video_id", ""),
        frames=frames,
        width=width,
        height=height,
        dosage=headers.get("dosage", ""),
    )
    return meta, dim


def _parse_float(token: str, path: str, lineno: int, what: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise ValidationError(
            f"{path}:{lineno}: non-numeric {what} {token!r}"
        ) from None


def load_detections(path: str) -> DetectionFile:
    """Parse a detection file, validating every record."""
    header_lines, record_lines = _split_lines(path)
    headers = _parse_headers(header_lines, path)
    meta, dim = _meta_from_headers(headers, path)
    frames: list[list[Detection]] = [[] for _ in range(meta.frames)]
    for lineno, line in record_lines:
        parts = line.split(",")
        if len(parts) != 7 + dim:
            raise ValidationError(
                f"{path}:{lineno}: expected {7 + dim} fields "
                f"(embedding_dim={dim}), got {len(parts)}"
            )
        try:
            frame = int(parts[0])
        except ValueError:
            raise ValidationError(
                f"{path}:{lineno}: non-integer frame {parts[0]!r}"
            ) from None
        if not (0 <= frame < meta.frames):
            raise ValidationError(
                f"{path}:{lineno}: frame {frame} outside [0, {meta.frames})"
            )
        box = tuple(
            _parse_float(parts[i], path, lineno, "box field") for i in range(1, 5)
        )
        conf = _parse_float(parts[5], path, lineno, "confidence")
        try:
            cls = CellClass(parts[6])
        except ValueError:
            raise ValidationError(
                f"{path}:{lineno}: unknown class {parts[6]!r}"
            ) from None
        emb = np.array(
            [_parse_float(p, path, lineno, "embedding value") for p in parts[7:]],
            dtype=float,
        )
        try:
            det = Detection(
                frame_index=frame,
                box=box,  # type: ignore[arg-type]
                confidence=conf,
                cell_class=cls,
                embedding=emb,
                source_id=lineno,
            )
        except ValidationError as exc:
            raise ValidationError(f"{path}:{lineno}: {exc}") from None
        frames[frame].append(det)
    return DetectionFile(meta=meta, embedding_dim=dim, frames=frames)


def save_detections(det_file: DetectionFile, path: str) -> None:
    meta = det_file.meta
    lines = []
    if meta.video_id:
        lines.append(f"#video_id={meta.video_id}")
    lines.append(f"#frames={meta.frames}")
    lines.append(f"#width={_fmt(meta.width)}")
    lines.append(f"#height={_fmt(meta.height)}")
    lines.append(f"#embedding_dim={det_file.embedding_dim}")
    if meta.dosage:
        lines.append(f"#dosage={meta.dosage}")
    for frame_dets in det_file.frames:
        for d in frame_dets:
            x, y, w, h = d.box
            emb = ",".join(_fmt(v) for v in d.embedding)
            lines.append(
                f"{d.frame_index},{_fmt(x)},{_fmt(y)},{_fmt(w)},{_fmt(h)},"
                f"{_fmt(d.confidence)},{d.cell_class.value},{emb}"
            )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


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
    meta = forest.meta
    head = []
    if meta.video_id:
        head.append(f"#video_id={meta.video_id}")
    head.append(f"#frames={meta.frames}")
    head.append(f"#width={_fmt(meta.width)}")
    head.append(f"#height={_fmt(meta.height)}")
    if meta.dosage:
        head.append(f"#dosage={meta.dosage}")

    track_lines = list(head)
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
            x, y, w, h = e.box
            entry_lines.append(
                f"{tid},{f},{_fmt(x)},{_fmt(y)},{_fmt(w)},{_fmt(h)},"
                f"{e.provenance.value},{e.cell_class.value}"
            )
    with open(tracks_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(track_lines) + "\n")
    with open(entries_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(entry_lines) + "\n")
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

    header_lines, record_lines = _split_lines(tracks_path)
    headers = _parse_headers(header_lines, tracks_path)
    for key in ("frames", "width", "height"):
        if key not in headers:
            raise ValidationError(
                f"{tracks_path}: missing required header #{key}="
            )
    try:
        meta = VideoMeta(
            video_id=headers.get("video_id", ""),
            frames=int(headers["frames"]),
            width=float(headers["width"]),
            height=float(headers["height"]),
            dosage=headers.get("dosage", ""),
        )
    except ValueError as exc:
        raise ValidationError(f"{tracks_path}: bad header value ({exc})") from None

    declared: dict[int, tuple[int, int, int | None, EndReason | None]] = {}
    for lineno, line in record_lines:
        parts = line.split(",")
        if len(parts) != 5:
            raise ValidationError(
                f"{tracks_path}:{lineno}: expected 5 fields, got {len(parts)}"
            )
        try:
            tid = int(parts[0])
            start = int(parts[1])
            end = int(parts[2])
        except ValueError:
            raise ValidationError(
                f"{tracks_path}:{lineno}: non-integer id/frame field"
            ) from None
        if tid in declared:
            raise ValidationError(
                f"{tracks_path}:{lineno}: duplicate track id {tid}"
            )
        if end < start:
            raise ValidationError(
                f"{tracks_path}:{lineno}: end {end} before start {start}"
            )
        parent = None
        if parts[3]:
            try:
                parent = int(parts[3])
            except ValueError:
                raise ValidationError(
                    f"{tracks_path}:{lineno}: non-integer parent {parts[3]!r}"
                ) from None
        reason = None
        if parts[4]:
            try:
                reason = EndReason(parts[4])
            except ValueError:
                raise ValidationError(
                    f"{tracks_path}:{lineno}: unknown end_reason {parts[4]!r}"
                ) from None
        declared[tid] = (start, end, parent, reason)

    tracks: dict[int, Track] = {
        tid: Track(track_id=tid, parent=parent, end_reason=reason)
        for tid, (_, _, parent, reason) in declared.items()
    }

    _, entry_records = _split_lines(entries_path)
    for lineno, line in entry_records:
        parts = line.split(",")
        if len(parts) != 8:
            raise ValidationError(
                f"{entries_path}:{lineno}: expected 8 fields, got {len(parts)}"
            )
        try:
            tid = int(parts[0])
            frame = int(parts[1])
        except ValueError:
            raise ValidationError(
                f"{entries_path}:{lineno}: non-integer id/frame field"
            ) from None
        if tid not in tracks:
            raise ValidationError(
                f"{entries_path}:{lineno}: entry for undeclared track {tid}"
            )
        box = tuple(
            _parse_float(parts[i], entries_path, lineno, "box field")
            for i in range(2, 6)
        )
        try:
            prov = Provenance(parts[6])
            cls = CellClass(parts[7])
        except ValueError as exc:
            raise ValidationError(f"{entries_path}:{lineno}: {exc}") from None
        if frame in tracks[tid].entries:
            raise ValidationError(
                f"{entries_path}:{lineno}: duplicate entry for track {tid} "
                f"frame {frame}"
            )
        try:
            tracks[tid].entries[frame] = TrackEntry(
                box=box,  # type: ignore[arg-type]
                cell_class=cls,
                provenance=prov,
            )
        except ValidationError as exc:
            raise ValidationError(f"{entries_path}:{lineno}: {exc}") from None

    for tid, (start, end, parent, _) in declared.items():
        track = tracks[tid]
        if not track.entries:
            raise ValidationError(f"{tracks_path}: track {tid} has no entries")
        if track.start_frame != start or track.last_frame != end:
            raise ValidationError(
                f"track {tid}: declared span [{start}, {end}] does not match "
                f"entries [{track.start_frame}, {track.last_frame}]"
            )
        if parent is not None and parent not in tracks:
            raise ValidationError(
                f"track {tid} references missing parent {parent}"
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
