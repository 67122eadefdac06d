"""Shared domain types and elementary geometry for cell tracking.

Everything downstream (ingest, tracking, metrics, simulation, analysis)
speaks in terms of these types.  Value objects are immutable; the lineage
forest is built once by a producer (tracker, simulator, or file loader)
and treated as read-only afterwards.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, fields
from enum import Enum

import numpy as np

__all__ = [
    "ValidationError",
    "CellClass",
    "Provenance",
    "TrackStatus",
    "EndReason",
    "Box",
    "Point",
    "centroid",
    "euclidean_distance",
    "embedding_l1",
    "iou",
    "Detection",
    "TrackerConfig",
    "TrackEntry",
    "Track",
    "VideoMeta",
    "LineageForest",
]


class ValidationError(ValueError):
    """Raised when an input file or a domain object violates its contract."""


class CellClass(Enum):
    ALIVE = "alive"
    DEAD = "dead"


class Provenance(Enum):
    """How a track entry came to be."""

    OBSERVED_HIGH = "high"
    OBSERVED_LOW = "low"
    INTERPOLATED = "interp"


class TrackStatus(Enum):
    DIVIDED = "divided"
    DEAD = "dead"
    CLOSED = "closed"


class EndReason(Enum):
    DIVISION = "division"
    DEATH = "death"
    END_OF_VIDEO = "end_of_video"
    LEFT_FOV = "left_fov"
    LOST = "lost"


# Axis-aligned box as (x, y, w, h) with (x, y) the top-left corner.
Box = tuple[float, float, float, float]
Point = tuple[float, float]


def centroid(box: Box) -> Point:
    """Center point of a box."""
    x, y, w, h = box
    return (x + w / 2.0, y + h / 2.0)


def euclidean_distance(p: Point, q: Point) -> float:
    return math.hypot(p[0] - q[0], p[1] - q[1])


def embedding_l1(a: np.ndarray, b: np.ndarray) -> float:
    """L1 distance between two embedding vectors of equal length."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValidationError(
            f"embedding shape mismatch: {a.shape} vs {b.shape}"
        )
    return float(np.abs(a - b).sum())


def iou(a: Box, b: Box) -> float:
    """Intersection over union of two boxes; 0.0 when disjoint."""
    ax, ay, aw, ah = a
    bx, by, bw, bh = b
    ix = max(ax, bx)
    iy = max(ay, by)
    ix2 = min(ax + aw, bx + bw)
    iy2 = min(ay + ah, by + bh)
    if ix2 <= ix or iy2 <= iy:
        return 0.0
    inter = (ix2 - ix) * (iy2 - iy)
    union = aw * ah + bw * bh - inter
    if union <= 0:
        return 0.0
    # Rounding in x+w can push the ratio a hair past 1 for equal boxes.
    return min(inter / union, 1.0)


def _validate_box(box: Box) -> None:
    x, y, w, h = box
    for v in (x, y, w, h):
        if not math.isfinite(v):
            raise ValidationError(f"non-finite box coordinate in {box!r}")
    if w <= 0 or h <= 0:
        raise ValidationError(f"box must have positive extent, got {box!r}")


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# What each config field annotation admits, keyed by the annotation's text
# (the config modules postpone annotations, so ``Field.type`` is a string).
_FIELD_RULES = {
    # Comparing, not converting, keeps a huge int from raising OverflowError.
    "float": (
        "a finite number",
        lambda v: isinstance(v, (int, float)) and abs(v) <= sys.float_info.max,
    ),
    "int": ("an integer", _is_int),
    "int | None": ("an integer or None", lambda v: v is None or _is_int(v)),
    "bool": ("true or false", lambda v: isinstance(v, bool)),
    "str": ("a string", lambda v: isinstance(v, str)),
}


def check_field_types(config: object) -> None:
    """Raise ``ValidationError`` unless every field of the dataclass
    ``config`` holds a value its annotation admits: a finite number for
    ``float``, an integer that is not a ``bool`` for ``int``, and so on."""
    for f in fields(config):  # type: ignore[arg-type]
        what, admits = _FIELD_RULES[f.type]  # type: ignore[index]
        value = getattr(config, f.name)
        if not admits(value):
            raise ValidationError(f"{f.name} must be {what}, got {value!r}")


@dataclass(frozen=True, eq=False)
class Detection:
    """One detector output on one frame.

    ``source_id`` is an opaque identifier carried through from the producer
    (e.g. the file line or the simulator's cell id); the tracker never
    reads it.
    """

    frame_index: int
    box: Box
    confidence: float
    cell_class: CellClass
    embedding: np.ndarray
    source_id: int | None = None

    def __post_init__(self) -> None:
        if self.frame_index < 0:
            raise ValidationError(f"negative frame index {self.frame_index}")
        _validate_box(self.box)
        if not (0.0 <= self.confidence <= 1.0):
            raise ValidationError(
                f"confidence {self.confidence!r} outside [0, 1]"
            )
        emb = np.asarray(self.embedding, dtype=float)
        if emb.ndim != 1 or emb.size == 0:
            raise ValidationError("embedding must be a non-empty 1-d vector")
        if not np.isfinite(emb).all():
            raise ValidationError("embedding contains non-finite values")
        emb.setflags(write=False)
        object.__setattr__(self, "embedding", emb)

    @property
    def centroid(self) -> Point:
        return centroid(self.box)


@dataclass(frozen=True)
class TrackerConfig:
    """Association engine parameters.

    The defaults are the operating point used throughout: confidence split
    at 0.45/0.25, spatial gate 50 px, appearance gate 65 (L1 on
    embeddings), equal blend of the two normalized distances, and a
    5-frame memory for lost tracks.
    """

    tau_high: float = 0.45
    tau_low: float = 0.25
    tau_dist: float = 50.0
    tau_sim: float = 65.0
    appearance_weight: float = 0.5
    memory_frames: int = 5
    max_daughters: int = 2
    process_noise: float = 1.0
    measurement_noise: float = 1.0
    # Ablation switch: when False, lost tracks are re-acquired against their
    # last observed position and re-identification gaps are left unfilled.
    use_kalman: bool = True

    def __post_init__(self) -> None:
        check_field_types(self)
        if not (0.0 <= self.tau_low <= self.tau_high <= 1.0):
            raise ValidationError(
                f"need 0 <= tau_low <= tau_high <= 1, got "
                f"{self.tau_low}/{self.tau_high}"
            )
        if self.tau_dist <= 0 or self.tau_sim <= 0:
            raise ValidationError("gates tau_dist and tau_sim must be positive")
        if not (0.0 <= self.appearance_weight <= 1.0):
            raise ValidationError("appearance_weight must lie in [0, 1]")
        if self.memory_frames < 0:
            raise ValidationError("memory_frames must be >= 0")
        if self.max_daughters < 1:
            raise ValidationError("max_daughters must be >= 1")
        if self.process_noise <= 0 or self.measurement_noise <= 0:
            raise ValidationError("noise variances must be positive")


@dataclass(frozen=True, eq=False)
class TrackEntry:
    """State of one track on one frame: exactly one record of an entries
    file.

    Interpolated entries are synthesized for frames the detector missed.
    The centroid is always derived from the box, never stored separately.
    """

    box: Box
    cell_class: CellClass
    provenance: Provenance

    def __post_init__(self) -> None:
        _validate_box(self.box)

    @property
    def centroid(self) -> Point:
        return centroid(self.box)


@dataclass(eq=False)
class Track:
    """One cell trajectory: per-frame entries plus lineage pointers."""

    track_id: int
    entries: dict[int, TrackEntry] = field(default_factory=dict)
    parent: int | None = None
    children: list[int] = field(default_factory=list)
    end_reason: EndReason | None = None

    @property
    def status(self) -> TrackStatus:
        """Fate of the track: divided, else dead, else closed."""
        if self.children:
            return TrackStatus.DIVIDED
        if any(e.cell_class is CellClass.DEAD for e in self.entries.values()):
            return TrackStatus.DEAD
        return TrackStatus.CLOSED

    @property
    def start_frame(self) -> int:
        return min(self.entries)

    @property
    def last_frame(self) -> int:
        return max(self.entries)

    @property
    def cell_class(self) -> CellClass:
        """Current class: the class of the most recent entry."""
        return self.entries[self.last_frame].cell_class

    def death_event_frame(self) -> int | None:
        """First dead frame of a track that was alive before, else None."""
        seen_alive = False
        for f in sorted(self.entries):
            cls = self.entries[f].cell_class
            if cls is CellClass.DEAD:
                return f if seen_alive else None
            seen_alive = True
        return None

    def observed_frames(self) -> list[int]:
        return [
            f
            for f in sorted(self.entries)
            if self.entries[f].provenance is not Provenance.INTERPOLATED
        ]

    def span(self) -> int:
        """Number of frames covered from first to last entry, inclusive."""
        return self.last_frame - self.start_frame + 1


@dataclass
class VideoMeta:
    """Per-video header data carried by detection and track files."""

    video_id: str = ""
    frames: int = 0
    width: float = 0.0
    height: float = 0.0
    dosage: str = ""


@dataclass(eq=False)
class LineageForest:
    """All tracks of one video, keyed by id, plus video metadata."""

    tracks: dict[int, Track] = field(default_factory=dict)
    meta: VideoMeta = field(default_factory=VideoMeta)

    def roots(self) -> list[Track]:
        return [t for t in self.tracks.values() if t.parent is None]

    def validate(
        self,
        require_coverage: bool = True,
        require_adjacency: bool = True,
    ) -> None:
        """Check structural invariants; raise ValidationError on the first hit.

        ``require_coverage`` demands gap-free entries over [start, last];
        ``require_adjacency`` demands that daughters start on the frame
        right after their parent's last.  Both hold for finalized output
        of the default tracker and for simulated ground truth; they are
        relaxed for the interpolation-free ablation.
        """
        for tid, track in self.tracks.items():
            if tid != track.track_id:
                raise ValidationError(
                    f"track keyed {tid} carries id {track.track_id}"
                )
            if not track.entries:
                raise ValidationError(f"track {tid} has no entries")
            frames = sorted(track.entries)
            if frames[0] < 0 or (
                self.meta.frames and frames[-1] >= self.meta.frames
            ):
                raise ValidationError(
                    f"track {tid} has entries outside the video frame range"
                )
            if require_coverage:
                if frames != list(range(frames[0], frames[-1] + 1)):
                    raise ValidationError(f"track {tid} has frame gaps")
            # Dead is absorbing: no alive entry may follow a dead one.
            dead_seen = False
            for f in frames:
                cls = track.entries[f].cell_class
                if dead_seen and cls is CellClass.ALIVE:
                    raise ValidationError(
                        f"track {tid} reverts to alive after death at frame {f}"
                    )
                dead_seen = dead_seen or cls is CellClass.DEAD
            if track.parent is not None:
                if track.parent not in self.tracks:
                    raise ValidationError(
                        f"track {tid} references missing parent {track.parent}"
                    )
                if track.parent == tid:
                    raise ValidationError(f"track {tid} is its own parent")
                parent = self.tracks[track.parent]
                if tid not in parent.children:
                    raise ValidationError(
                        f"track {tid} not listed among parent "
                        f"{track.parent}'s children"
                    )
                if require_adjacency and track.start_frame != parent.last_frame + 1:
                    raise ValidationError(
                        f"track {tid} starts at {track.start_frame}, parent "
                        f"{track.parent} ends at {parent.last_frame}"
                    )
            for child in track.children:
                if child not in self.tracks:
                    raise ValidationError(
                        f"track {tid} lists missing child {child}"
                    )
                if self.tracks[child].parent != tid:
                    raise ValidationError(
                        f"child {child} does not point back to parent {tid}"
                    )
            if track.children and track.death_event_frame() is not None:
                raise ValidationError(f"track {tid} both divided and died")
        # Parent pointers must form a forest (no cycles).
        state: dict[int, int] = {}
        for tid in self.tracks:
            path = []
            cur: int | None = tid
            while cur is not None and state.get(cur, 0) == 0:
                state[cur] = 1
                path.append(cur)
                cur = self.tracks[cur].parent
            if cur is not None and state[cur] == 1:
                raise ValidationError(f"lineage cycle through track {cur}")
            for p in path:
                state[p] = 2
