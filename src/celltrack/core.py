"""Shared domain types and elementary geometry for cell tracking.

Everything downstream (ingest, tracking, metrics, simulation, analysis)
speaks in terms of these types.  Value objects are immutable; the lineage
forest is built once by a producer (tracker, simulator, or file loader)
and treated as read-only afterwards.  Records store no frame: a
detection's frame is the index of its per-frame list, an entry's its key.
"""

from __future__ import annotations

import math
import operator
import sys
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field, fields
from enum import Enum
from functools import cached_property
from itertools import chain

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
    "DetectionColumns",
    "TrackerConfig",
    "TrackEntry",
    "Track",
    "VideoMeta",
    "LineageForest",
    "ForestColumns",
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


def check_boxes(boxes: np.ndarray) -> None:
    """Raise ``_validate_box``'s ``ValidationError`` for the first row of
    an ``n x 4`` array of ``(x, y, w, h)`` that ``valid_boxes`` rejects."""
    ok = valid_boxes(boxes)
    if not ok.all():
        _validate_box(tuple(boxes[int(np.argmin(ok))].tolist()))


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
class DetectionColumns:
    """A video's checked detections as columns, in frame order and, within
    a frame, in the producer's order: frame ``f``'s records are rows
    ``offsets[f]:offsets[f + 1]`` of ``boxes`` (``n x 4``),
    ``confidences``, ``classes`` (indices into ``CELL_CLASSES``),
    ``embeddings`` (``n x D``, read-only) and ``source_ids``.

    As a sequence it holds one ``range`` of rows per frame, so ``len``
    counts frames and each item's ``len`` its detections.
    """

    offsets: np.ndarray
    boxes: np.ndarray
    confidences: np.ndarray
    classes: np.ndarray
    embeddings: np.ndarray
    source_ids: list[int | None]

    def __len__(self) -> int:
        return self.offsets.size - 1

    def __iter__(self):
        bounds = self.offsets.tolist()
        return map(range, bounds[:-1], bounds[1:])

    def detections(self) -> list[list[Detection]]:
        """Frame ``f``'s ``Detection``s at index ``f``."""
        dets = list(map(
            Detection.trusted, zip(*self.boxes.T.tolist()), self.confidences.tolist(),
            map(CELL_CLASSES.__getitem__, self.classes.tolist()), self.embeddings,
            self.source_ids,
        ))
        return [dets[rows.start:rows.stop] for rows in self]


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

        The checks that only objects can fail come first: each track's key
        is its id, each parent lists its daughters and each listed
        daughter points back.  The structural rules are then checked on
        ``self.columns(boxes=False)`` by ``ForestColumns.validate``, which
        also checks forests read from files.  ``require_coverage`` demands
        gap-free entries over [start, last]; ``require_adjacency`` demands
        that daughters start on the frame right after their parent's last.
        Both hold for finalized output of the default tracker and for
        simulated ground truth; they are relaxed for the
        interpolation-free ablation.
        """
        tracks = self.tracks
        for tid, track in tracks.items():
            if tid != track.track_id:
                raise ValidationError(
                    f"track keyed {tid} carries id {track.track_id}"
                )
            parent = tracks.get(track.parent)
            if parent not in (None, track) and tid not in parent.children:
                raise ValidationError(
                    f"track {tid} not listed among parent "
                    f"{track.parent}'s children"
                )
            for child in track.children:
                if child not in tracks:
                    raise ValidationError(
                        f"track {tid} lists missing child {child}"
                    )
                if tracks[child].parent != tid:
                    raise ValidationError(
                        f"child {child} does not point back to parent {tid}"
                    )
        self.columns(boxes=False).validate(require_coverage, require_adjacency)

    @classmethod
    def from_columns(cls, columns: ForestColumns) -> LineageForest:
        """The ``Track`` and ``TrackEntry`` objects of checked columns that
        carry boxes and provenances; tracks keep the columns' row order
        and list their daughters in id order."""
        ids = columns.ids.tolist()
        tracks = {
            tid: Track(track_id=tid, parent=parent, end_reason=reason)
            for tid, parent, reason in zip(ids, columns.parents, columns.end_reasons)
        }
        for t, f, box, cell_class, provenance in zip(
            columns.entry_ids.tolist(),
            columns.frames.tolist(),
            zip(*columns.boxes.T.tolist()),
            map(CELL_CLASSES.__getitem__, columns.classes.tolist()),
            map(PROVENANCES.__getitem__, columns.provenances.tolist()),
        ):
            tracks[t].entries[f] = TrackEntry.trusted(box, cell_class, provenance)
        for tid, parent in zip(ids, columns.parents):
            if parent is not None:
                tracks[parent].children.append(tid)
        for track in tracks.values():
            track.children.sort()
        return cls(tracks=tracks, meta=columns.meta)

    def columns(self, boxes: bool = True) -> ForestColumns:
        """This forest as ``ForestColumns``, tracks in key order; with
        ``boxes=False`` the columns carry neither boxes nor provenances."""
        tracks = self.tracks
        ids = sorted(tracks)
        counts, frames, entries = [], [], []
        for tid in ids:
            by_frame = tracks[tid].entries
            track_frames = sorted(by_frame)
            counts.append(len(track_frames))
            frames += track_frames
            entries += map(by_frame.__getitem__, track_frames)
        n = len(entries)
        columns = ForestColumns(
            meta=self.meta,
            ids=np.fromiter(tracks, np.int64, len(tracks)),
            parents=[t.parent for t in tracks.values()],
            end_reasons=[t.end_reason for t in tracks.values()],
            entry_ids=np.repeat(np.array(ids, dtype=np.int64), counts),
            frames=np.array(frames, dtype=np.int64),
            classes=np.fromiter(
                map(CELL_CLASSES.index, map(_CLASS_OF, entries)), np.intp, n
            ),
        )
        if boxes:
            columns.boxes = np.fromiter(
                chain.from_iterable(map(_BOX_OF, entries)), float, 4 * n
            ).reshape(n, 4)
            columns.provenances = np.fromiter(
                map(PROVENANCES.index, map(_PROVENANCE_OF, entries)), np.intp, n
            )
        return columns


# An entry's class is its index in ``CELL_CLASSES``, its provenance its
# index in ``PROVENANCES``.
CELL_CLASSES, PROVENANCES = tuple(CellClass), tuple(Provenance)
_DEAD = CELL_CLASSES.index(CellClass.DEAD)
_CLASS_OF, _BOX_OF = operator.attrgetter("cell_class"), operator.attrgetter("box")
_PROVENANCE_OF = operator.attrgetter("provenance")


def _first_fault(rules: list[tuple[np.ndarray, Callable[[int], str]]]) -> None:
    """Raise ``ValidationError`` for the first track, in row order, that
    some rule's mask flags, with the message of its first such rule."""
    hits = np.array([mask for mask, _ in rules], dtype=bool)
    flagged = hits.any(axis=0)
    if flagged.any():
        row = int(flagged.argmax())
        raise ValidationError(rules[int(hits[:, row].argmax())][1](row))


@dataclass(eq=False)
class ForestColumns:
    """A lineage forest as columns: the form that is checked and that the
    tracking graph is built from.

    Tracks are rows in table order (a track table's line order, a
    forest's key order): ``ids`` (int64), the declared ``parents`` (an id,
    which may name no track, or ``None``) and ``end_reasons``.  Entries
    are sorted by (track id, frame): ``entry_ids`` and ``frames`` (int64),
    ``classes`` (indices into ``CELL_CLASSES``) and, when present,
    ``boxes`` (``n x 4``) and ``provenances`` (indices into
    ``PROVENANCES``).  Columns read from a track table also carry its
    ``path`` and each track's declared (start, end) ``spans``.
    """

    meta: VideoMeta
    ids: np.ndarray
    parents: list[int | None]
    end_reasons: list[EndReason | None]
    entry_ids: np.ndarray
    frames: np.ndarray
    classes: np.ndarray
    boxes: np.ndarray | None = None
    provenances: np.ndarray | None = None
    spans: list[tuple[int, int]] | None = None
    path: str = ""

    @cached_property
    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Each track's entries as the index range ``[lo, hi)``."""
        return (
            self.entry_ids.searchsorted(self.ids),
            self.entry_ids.searchsorted(self.ids, "right"),
        )

    @cached_property
    def parent_rows(self) -> np.ndarray:
        """Each track's parent row: -1 for none, -2 for an id no row has."""
        row = dict(zip(self.ids.tolist(), range(self.ids.size)))
        return np.array(
            [-1 if p is None else row.get(p, -2) for p in self.parents],
            dtype=np.intp,
        )

    def validate(
        self, require_coverage: bool = True, require_adjacency: bool = True
    ) -> None:
        """Check the structural rules; raise ``ValidationError`` on the first hit.

        Three passes, each over the tracks in row order and each track's
        rules in the order given:

        1. the track has entries, its entries span its declared span
           (columns read from a track table), and its parent is a track;
        2. its entries lie in ``[0, meta.frames)`` and (with
           ``require_coverage``) leave no gap, no alive entry follows a
           dead one, it is not its own parent, (with
           ``require_adjacency``) it starts on the frame after its
           parent's last, and it did not both divide and die;
        3. parent pointers form no cycle.
        """
        ids, parents, n = self.ids.tolist(), self.parents, self.ids.size
        lo, hi = self.bounds
        parent = self.parent_rows
        # An empty track reads the pad or a neighbour; rule 1 flags it first.
        frames = np.append(self.frames, 0)
        first, last = frames[lo], frames[hi - 1]
        where = f"{self.path}: " if self.path else ""
        rules = [(hi == lo, lambda i: f"{where}track {ids[i]} has no entries")]
        if self.spans is not None:
            found = list(zip(first.tolist(), last.tolist()))
            rules.append((
                np.fromiter(map(operator.ne, self.spans, found), bool, n),
                lambda i: (
                    f"track {ids[i]}: declared span [{self.spans[i][0]}, "
                    f"{self.spans[i][1]}] does not match entries "
                    f"[{found[i][0]}, {found[i][1]}]"
                ),
            ))
        rules.append((
            parent == -2,
            lambda i: f"track {ids[i]} references missing parent {parents[i]}",
        ))
        _first_fault(rules)

        # A track's first dead entry, and the first alive one after it;
        # an index past the entries where there is none.
        dead = self.classes == _DEAD
        end = [self.frames.size]
        dead_at, alive_at = np.flatnonzero(dead), np.flatnonzero(~dead)
        first_dead = np.append(dead_at, end)[dead_at.searchsorted(lo)]
        revert = np.append(alive_at, end)[alive_at.searchsorted(first_dead)]
        has_children = np.bincount(parent[parent >= 0], minlength=n) > 0
        rules = [(
            (first < 0) | (last >= self.meta.frames),
            lambda i: f"track {ids[i]} has entries outside the video frame range",
        )]
        if require_coverage:
            rules.append((
                last - first + 1 != hi - lo,
                lambda i: f"track {ids[i]} has frame gaps",
            ))
        rules += [
            (
                revert < hi,
                lambda i: (
                    f"track {ids[i]} reverts to alive after death at frame "
                    f"{frames[revert[i]]}"
                ),
            ),
            (parent == np.arange(n), lambda i: f"track {ids[i]} is its own parent"),
        ]
        if require_adjacency:
            rules.append((
                (parent >= 0) & (first != last[parent] + 1),
                lambda i: (
                    f"track {ids[i]} starts at {first[i]}, parent "
                    f"{parents[i]} ends at {last[parent[i]]}"
                ),
            ))
        rules.append((
            has_children & (first_dead < hi) & (first_dead > lo),
            lambda i: f"track {ids[i]} both divided and died",
        ))
        _first_fault(rules)

        # Parent pointers form a forest: every chain of parents reaches a
        # root.  Doubling the jumps (roots jump to a sink at row n) takes
        # log2(n) steps; a chain that never reaches the sink is reported
        # where it first repeats a track.
        jump = np.append(np.where(parent >= 0, parent, n), n)
        for _ in range(n.bit_length()):
            jump = jump[jump]
        if (jump[:n] != n).any():
            row, seen = int((jump[:n] != n).argmax()), set()
            while row not in seen:
                seen.add(row)
                row = int(parent[row])
            raise ValidationError(f"lineage cycle through track {ids[row]}")
