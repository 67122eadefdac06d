"""Shared domain types and elementary geometry for cell tracking.

Everything downstream (ingest, tracking, metrics, simulation, analysis)
speaks in terms of these types.  Value objects are immutable; the lineage
forest is built once by a producer (tracker, simulator, or file loader)
and treated as read-only afterwards.  Records store no frame: a
detection's frame is the index of its per-frame list, an entry's its key.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Sequence
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
    "Detection",
    "detections_from_columns",
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


# Largest relative error of a box's size as its edges give it back,
# ``(x + w) - x`` against ``w``.  A box whose size is lost to rounding at
# its position (``x = 1e200, w = 5``) would not overlap itself.
SIZE_ROUNDING = 1e-9


def _validate_box(box: Box) -> None:
    x, y, w, h = box
    # A NaN or inf coordinate shows in a far edge.  An IoU union adds two
    # areas, so twice the area must be finite too, or IoU(box, box) is NaN.
    for v in (x + w, y + h, 2.0 * w * h):
        if not math.isfinite(v):
            raise ValidationError(f"non-finite box edge or area in {box!r}")
    if w <= 0 or h <= 0:
        raise ValidationError(f"box must have positive extent, got {box!r}")
    if (
        abs(x + w - x - w) > SIZE_ROUNDING * w
        or abs(y + h - y - h) > SIZE_ROUNDING * h
    ):
        raise ValidationError(f"box size lost to rounding at its position in {box!r}")


def valid_boxes(boxes: np.ndarray) -> np.ndarray:
    """Row mask of an ``n x 4`` array of ``(x, y, w, h)``: True where
    ``_validate_box`` accepts the row."""
    x, y, w, h = boxes.T
    with np.errstate(over="ignore", invalid="ignore"):
        far_x, far_y = x + w, y + h
        return (
            np.isfinite(far_x)
            & np.isfinite(far_y)
            & np.isfinite(2.0 * w * h)
            & (w > 0)
            & (h > 0)
            & (np.abs(far_x - x - w) <= SIZE_ROUNDING * w)
            & (np.abs(far_y - y - h) <= SIZE_ROUNDING * h)
        )


def run_slots(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every slot of the runs ``lo[i] <= slot < hi[i]`` as (run, slot)
    pairs, run by run; a run with ``hi <= lo`` has none."""
    counts = np.maximum(hi - lo, 0)
    run = np.arange(counts.size).repeat(counts)
    # The k-th pair of run i holds slot lo[i] + k.
    start = counts.cumsum() - counts
    return run, np.arange(run.size) + (lo - start).repeat(counts)


def _search(ordered: np.ndarray, needles: np.ndarray, side: str = "left") -> np.ndarray:
    """``ordered.searchsorted(needles, side)``, searching the needles in
    ascending order: several times faster than in random order."""
    by = needles.argsort()
    found = np.empty(needles.size, dtype=np.intp)
    found[by] = ordered.searchsorted(needles.take(by), side)
    return found


def _positions(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``values`` sorted, and where each one lands there (ties in any
    order): ``v >= q`` exactly when its position is at least
    ``sorted.searchsorted(q)``, and ``v <= q`` exactly when it is below
    ``sorted.searchsorted(q, "right")``."""
    by = values.argsort()
    position = np.empty(by.size, dtype=np.intp)
    position[by] = np.arange(by.size)
    return values.take(by), position


def _ranks(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``values`` sorted, and each value's rank: the count of smaller
    ones, so equal values rank equal."""
    ordered = np.sort(values)
    return ordered, _search(ordered, values)


def meeting_pairs(
    groups: np.ndarray,
    rects: np.ndarray,
    q_groups: np.ndarray,
    q_rects: np.ndarray,
    band: float,
) -> tuple[np.ndarray, np.ndarray]:
    """(query, target) index pairs of one group whose rectangles may meet.

    ``rects`` and ``q_rects`` are ``(x1, y1, x2, y2)`` rows of the targets
    and the queries, ``groups``/``q_groups`` their integer groups (such
    as frames).  Every pair of one group whose closed x-extents and
    closed y-extents both meet is returned once, with some that do not
    meet but never one of two groups; a query with a NaN bound finds
    none.

    The targets of each group are sorted by y1 and cut into bands where
    ``floor(y1 / band)`` changes, and each band is sorted by x1.  A query
    reads the bands of its group from the first whose running maximum of
    y2 reaches its y1 to the last whose lowest y1 is at most its y2, and
    in each the targets from the first whose running maximum of x2
    reaches its x1 to the last whose x1 is at most its x2.  Those bands
    hold the y1 between the query's y1 less the tallest target's height
    and its y2: 2-3 bands when ``band`` is at least half that span.
    Coordinates enter the searches only as ranks and positions, so
    (group, rank) and (band, position) are exact integer keys, and
    ``band`` sets only where the bands are cut, never what is found.
    """
    m = len(rects) + 1
    x1, y1, x2, y2 = rects.T
    qx1, qy1, qx2, qy2 = q_rects.T
    q_key = q_groups * m
    by_y = (groups * m + _positions(y1)[1]).argsort()
    group, ys = groups.take(by_y), y1.take(by_y)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        cut = np.floor(ys / band)
    first = np.ones(m - 1, dtype=bool)
    first[1:] = (group[1:] != group[:-1]) | (cut[1:] != cut[:-1])
    starts = first.nonzero()[0]
    band_key = group.take(starts) * m
    lows, low_rank = _ranks(ys.take(starts))
    highs, high_rank = _ranks(np.maximum.reduceat(y2.take(by_y), starts))
    first_band = _search(
        np.maximum.accumulate(band_key + high_rank), q_key + _search(highs, qy1)
    )
    end_band = _search(band_key + low_rank, q_key + _search(lows, qy2, "right"))
    query, query_band = run_slots(first_band, end_band)

    target_band = first.cumsum() - 1
    x1s, x1_pos = _positions(x1)
    x2s, x2_pos = _positions(x2)
    key = target_band * m + x1_pos.take(by_y)
    by_x = key.argsort()
    order, key = by_y.take(by_x), key.take(by_x)
    reach = np.maximum.accumulate(target_band * m + x2_pos.take(order))
    base = query_band * m
    start = base + _search(x2s, qx1).take(query)
    # One sort of the (query, band) needles serves both window searches.
    by_start = start.argsort()
    query, base, start = query.take(by_start), base.take(by_start), start.take(by_start)
    lo = reach.searchsorted(start)
    hi = key.searchsorted(base + _search(x1s, qx2, "right").take(query))
    run, slot = run_slots(lo, hi)
    return query.take(run), order.take(slot)


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# What each config field annotation admits, keyed by the annotation's text
# (the config modules postpone annotations, so ``Field.type`` is a string).
_FIELD_RULES = {
    # Comparing, not converting, keeps a huge int from raising OverflowError.
    "float": (
        "a finite number",
        lambda v: isinstance(v, (int, float))
        and not isinstance(v, bool)
        and abs(v) <= sys.float_info.max,
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


def _slot_setters(cls: type) -> tuple:
    """The slot setters of a slotted dataclass's fields, in field order.
    ``trusted`` constructors fill a frozen record through them: straight
    into its slots, with no instance dict and no per-field name lookup."""
    return tuple(getattr(cls, f.name).__set__ for f in fields(cls))


@dataclass(frozen=True, eq=False, slots=True)
class Detection:
    """One detector output on one frame, named by the list that holds it.

    ``source_id`` is an opaque identifier carried through from the producer
    (e.g. the file line or the simulator's cell id); the tracker never
    reads it.
    """

    box: Box
    confidence: float
    cell_class: CellClass
    embedding: np.ndarray
    source_id: int | None = None

    def __post_init__(self) -> None:
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

    @classmethod
    def trusted(
        cls,
        box: Box,
        confidence: float,
        cell_class: CellClass,
        embedding: np.ndarray,
        source_id: int | None = None,
    ) -> Detection:
        """A detection from fields its caller has already checked against
        ``__post_init__``'s rules, which it skips: ``embedding`` must be a
        read-only 1-d float array."""
        det = object.__new__(cls)
        set_box, set_conf, set_class, set_emb, set_id = _DETECTION_SLOTS
        set_box(det, box)
        set_conf(det, confidence)
        set_class(det, cell_class)
        set_emb(det, embedding)
        set_id(det, source_id)
        return det

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


@dataclass(frozen=True, eq=False, slots=True)
class TrackEntry:
    """State of one track on one frame: exactly one record of an entries
    file.

    Interpolated entries are synthesized for frames the detector missed.
    """

    box: Box
    cell_class: CellClass
    provenance: Provenance

    def __post_init__(self) -> None:
        _validate_box(self.box)

    @classmethod
    def trusted(
        cls, box: Box, cell_class: CellClass, provenance: Provenance
    ) -> TrackEntry:
        """An entry whose ``box`` its caller has already validated; skips
        ``__post_init__``."""
        entry = object.__new__(cls)
        set_box, set_class, set_provenance = _ENTRY_SLOTS
        set_box(entry, box)
        set_class(entry, cell_class)
        set_provenance(entry, provenance)
        return entry


_DETECTION_SLOTS = _slot_setters(Detection)
_ENTRY_SLOTS = _slot_setters(TrackEntry)


def valid_detections(
    boxes: np.ndarray, confidences: np.ndarray, embeddings: np.ndarray
) -> np.ndarray:
    """Row mask of ``n x 4`` boxes, ``n`` confidences and ``n x D``
    embeddings: True where ``Detection(...)`` accepts the row."""
    ok = valid_boxes(boxes) & (confidences >= 0.0) & (confidences <= 1.0)
    return ok & np.isfinite(embeddings).all(axis=1) & (embeddings.shape[1] > 0)


def detections_from_columns(
    boxes: np.ndarray,
    confidences: Sequence[float] | np.ndarray,
    classes: Sequence[CellClass],
    embeddings: np.ndarray,
    source_ids: Sequence[int | None],
) -> list[Detection]:
    """Detections from ``n x 4`` boxes, ``n x D`` embeddings and ``n``
    confidences, classes and source ids.  ``Detection``'s rules run once
    per column, and the first bad row raises its ``Detection(...)``'s
    ``ValidationError``; each embedding is a read-only row."""
    conf = np.asarray(confidences, dtype=float)
    ok = valid_detections(boxes, conf, embeddings)
    if not ok.all():
        i = int(np.argmin(ok))
        Detection(
            tuple(boxes[i].tolist()), float(conf[i]), classes[i],
            embeddings[i], source_ids[i],
        )
    embeddings.setflags(write=False)
    return list(map(
        Detection.trusted, zip(*boxes.T.tolist()), conf.tolist(), classes,
        embeddings, source_ids,
    ))


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


# Most frames a video may declare.  Readers and scorers hold one slot per
# declared frame, so a header such as ``#frames=1000000000`` would exhaust
# memory before any record is read.
MAX_FRAMES = 10**6


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
            if frames[0] < 0 or frames[-1] >= self.meta.frames:
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
