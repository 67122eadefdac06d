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

Both kinds declare ``1 <= frames <= MAX_FRAMES``, and every record lies
in ``[0, frames)``.  Ground truth and tracker output use the identical
forest format, so either side of an evaluation can come from either
producer.  All three files go through one reader, ``_read``, and one
writer, ``_write``.  ``read_forest`` reads a forest's pair into checked
``core.ForestColumns``, from which ``metrics.build_graph`` builds the
tracking graph and ``load_forest`` the ``Track`` and ``TrackEntry``
objects.
Every bad header or record raises ``ValidationError`` naming
``<file>:<line>`` and the reason, as does text that is not UTF-8.
Each record kind has one reader, ``_columns``: one ``np.loadtxt`` call
reads every record, numpy parsing the numbers.  Should numpy fail, the
records are read one at a time with Python's ``int``/``float`` on every
number column, so a field reads as Python reads it and the first record
Python cannot read is named.  Each loader then checks every rule as one
row mask, and words the first rejected record as its scalar check
(``Detection(...)``, ``TrackEntry(...)``) does.  Floats are written with
``repr`` so that serialize -> load -> serialize is byte-stable.
"""

from __future__ import annotations

import os
from collections.abc import Callable, Iterable
from enum import Enum
from functools import partial
from itertools import chain, islice
from typing import Any

import numpy as np

from .core import (
    CELL_CLASSES,
    MAX_FRAMES,
    PROVENANCES,
    CellClass,
    Detection,
    DetectionColumns,
    EndReason,
    ForestColumns,
    LineageForest,
    Provenance,
    TrackEntry,
    ValidationError,
    VideoMeta,
    valid_boxes,
    valid_detections,
)

__all__ = [
    "DetectionFile",
    "load_detections",
    "save_detections",
    "read_forest",
    "load_forest",
    "save_forest",
    "forest_paths",
]

_HEADER_TYPES = {"frames": int, "width": float, "height": float, "embedding_dim": int}
# An enum field is read as the index of its member: by dict lookup in
# numpy's pass, through the enum (whose error names the value) in Python's.
_CLASS_INDEX = {c.value: i for i, c in enumerate(CELL_CLASSES)}
_PROVENANCE_INDEX = {p.value: i for i, p in enumerate(PROVENANCES)}
# The writers take a member's text from ``_value_``: an attribute read,
# not the Python-level ``.value`` property or a dict lookup, whose
# ``Enum.__hash__`` is Python-level too.


def _index_of(enum: type[Enum]) -> Callable[[str], int]:
    return lambda text: tuple(enum).index(enum(text))


def _int64(name: str) -> Callable[[str], int]:
    """Python's ``int`` for a field that scoring holds in int64 arrays."""

    def read(text: str) -> int:
        value = int(text)
        if not -(2**63) <= value < 2**63:
            raise ValueError(f"{name} {value} outside the signed 64-bit range")
        return value

    return read


_TRACK_ID, _FRAME = _int64("track id"), _int64("frame")
# An entries record: track id, frame, box, provenance, class.
_ENTRY = np.dtype([
    ("track", np.int64), ("frame", np.int64), ("box", np.float64, (4,)),
    ("provenance", np.intp), ("cls", np.intp),
])


class DetectionFile:
    """Parsed detection file: metadata, and frame f's detections in
    ``frames[f]``.

    ``load_detections`` keeps the records as checked ``columns``; the
    ``Detection`` lists are then built the first time ``frames`` is read.
    """

    def __init__(
        self,
        meta: VideoMeta,
        embedding_dim: int,
        frames: list[list[Detection]] | None = None,
        columns: DetectionColumns | None = None,
    ) -> None:
        self.meta, self.embedding_dim, self.columns = meta, embedding_dim, columns
        self._frames = frames

    @property
    def frames(self) -> list[list[Detection]]:
        if self._frames is None:
            self._frames = [] if self.columns is None else self.columns.detections()
        return self._frames


def _read(path: str) -> tuple[dict[str, Any], list[tuple[int, str]]]:
    """Return a file's ``#key=value`` headers and its ``(lineno, line)`` records.

    Blank lines are skipped and every header must precede the first
    record.  Numeric headers are converted.  Records stay unsplit until
    parsed: a split detection file takes several times the memory of its
    lines.
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
    """Build the ``VideoMeta`` of a file's headers, after checking ``required``
    and that ``frames`` lies in ``[1, MAX_FRAMES]``."""
    for key in required:
        if key not in headers:
            raise ValidationError(f"{path}: missing required header #{key}=")
    if headers["frames"] <= 0:
        raise ValidationError(f"{path}: frames must be positive, got {headers['frames']}")
    if headers["frames"] > MAX_FRAMES:
        raise ValidationError(
            f"{path}: frames must be at most {MAX_FRAMES}, got {headers['frames']}"
        )
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
    # A few hundred lines at a time, so that a file's text is never held
    # whole; a file with no lines holds one empty line.
    lines = chain(head, records)
    with open(path, "w", encoding="utf-8") as fh:
        while batch := list(islice(lines, 256)):
            fh.write("\n".join(batch) + "\n")
        if not fh.tell():
            fh.write("\n")


def _columns(
    path: str, records: list[tuple[int, str]], dtype: np.dtype, n_fields: int,
    fast: dict[int, Callable[[str], Any]], python: dict[int, Callable[[str], Any]],
    note: str = "",
) -> np.ndarray:
    """The records of ``n_fields`` comma-separated fields as one array:
    one row each of a plain ``dtype``, one element each of a structured one.

    numpy reads the numbers, and ``fast`` the columns it maps.  Should that
    fail, or the first record have another field count, the records are
    read one at a time with Python's reader on every column: ``python``'s
    on the columns it maps, ``float`` on the rest.  The first bad record
    raises ``ValidationError``: ``<path>:<line>: expected N fields<note>,
    got M`` or Python's message, which numpy keeps as its error's
    ``__cause__``.
    """
    if not records:
        return np.empty(0 if dtype.names else (0, n_fields), dtype)
    ndmin = 1 if dtype.names else 2
    load = partial(np.loadtxt, dtype=dtype, delimiter=",", comments=None, ndmin=ndmin)
    # A dict per column is built only for as many columns as a line holds.
    if records[0][1].count(",") + 1 == n_fields:
        try:
            return load([line for _, line in records], converters=fast)
        except ValueError:
            python = dict.fromkeys(range(n_fields), float) | python
    rows = []
    for lineno, line in records:
        got = line.count(",") + 1
        try:
            if got != n_fields:
                raise ValueError(f"expected {n_fields} fields{note}, got {got}")
            rows.append(load([line], converters=python))
        except ValueError as exc:
            raise ValidationError(f"{path}:{lineno}: {exc.__cause__ or exc}") from None
    return np.concatenate(rows)


def load_detections(path: str) -> DetectionFile:
    """Parse a detection file, validating every record."""
    headers, records = _read(path)
    meta = _meta(headers, path, ("frames", "width", "height", "embedding_dim"))
    dim = headers["embedding_dim"]
    if meta.width <= 0 or meta.height <= 0:
        raise ValidationError(f"{path}: width/height must be positive")
    if dim <= 0:
        raise ValidationError(f"{path}: embedding_dim must be positive")
    # Python's ``int`` reads the frame in both passes; no int that rounds to
    # a float in [0, frames) lies outside it, and one beyond int64 is named.
    values = _columns(
        path, records, np.dtype(np.float64), 7 + dim,
        {0: int, 6: _CLASS_INDEX.__getitem__}, {0: _FRAME, 6: _index_of(CellClass)},
        f" (embedding_dim={dim})",
    )
    frame, boxes, conf, emb = values[:, 0], values[:, 1:5], values[:, 5], values[:, 7:]
    codes = values[:, 6].astype(np.intp)
    ok = (frame >= 0) & (frame < meta.frames) & valid_detections(boxes, conf, emb)
    if not ok.all():
        i = int(np.argmin(ok))
        lineno, line = records[i]
        try:
            if not 0 <= frame[i] < meta.frames:
                text = line.partition(",")[0]
                raise ValidationError(f"frame {int(text)} outside [0, {meta.frames})")
            Detection(tuple(boxes[i].tolist()), float(conf[i]), CELL_CLASSES[codes[i]], emb[i])
        except ValidationError as exc:
            raise ValidationError(f"{path}:{lineno}: {exc}") from None
    # A stable sort keeps the file order of each frame's records.
    order = np.argsort(frame, kind="stable")
    emb = emb.take(order, axis=0)
    emb.setflags(write=False)
    columns = DetectionColumns(
        offsets=np.concatenate((
            [0], np.bincount(frame.astype(np.intp), minlength=meta.frames).cumsum()
        )),
        boxes=boxes.take(order, axis=0),
        confidences=conf.take(order),
        classes=codes.take(order),
        embeddings=emb,
        source_ids=[records[i][0] for i in order.tolist()],
    )
    return DetectionFile(meta=meta, embedding_dim=dim, columns=columns)


def save_detections(det_file: DetectionFile, path: str) -> None:
    """Write a detection file from its columns (``frames`` stacked when it
    has none), one frame at a time."""
    cols = det_file.columns
    if cols is None:
        cols = DetectionColumns.stack(det_file.frames)
    classes = [c._value_ for c in CELL_CLASSES]

    def records():
        for frame, rows in enumerate(cols):
            lo, hi = rows.start, rows.stop
            prefix = f"{frame},"
            for box, confidence, code, embedding in zip(
                cols.boxes[lo:hi].tolist(), cols.confidences[lo:hi].tolist(),
                cols.classes[lo:hi].tolist(), cols.embeddings[lo:hi].tolist(),
            ):
                yield prefix + ",".join((
                    *map(repr, box), repr(confidence), classes[code], *map(repr, embedding)
                ))

    _write(path, det_file.meta, records(), det_file.embedding_dim)


# ---------------------------------------------------------------------------
# Lineage forest serialization


def forest_paths(prefix: str) -> tuple[str, str]:
    """Paths of the track-table and entries files for a forest prefix."""
    return f"{prefix}_tracks.txt", f"{prefix}_entries.txt"


def save_forest(forest: LineageForest | ForestColumns, prefix: str) -> tuple[str, str]:
    """Write a forest to ``<prefix>_tracks.txt`` / ``<prefix>_entries.txt``,
    tracks in id order; a ``LineageForest`` is written from its columns."""
    if isinstance(forest, LineageForest):
        forest = forest.columns()
    tracks_path, entries_path = forest_paths(prefix)
    rows = np.argsort(forest.ids, kind="stable").tolist()
    lo, hi = forest.bounds
    frames = forest.frames.tolist()
    ids, first, end = forest.ids.tolist(), lo.tolist(), hi.tolist()
    if (hi == lo).any():
        # A track table line states the track's first and last frames.
        raise ValidationError(f"track {ids[int(np.argmax(hi == lo))]} has no entries")
    track_lines = []
    for i in rows:
        parent, reason = forest.parents[i], forest.end_reasons[i]
        track_lines.append(",".join((
            str(ids[i]), str(frames[first[i]]), str(frames[end[i] - 1]),
            "" if parent is None else str(parent),
            "" if reason is None else reason._value_,
        )))
    provenances = [p._value_ for p in PROVENANCES]
    classes = [c._value_ for c in CELL_CLASSES]
    entry_lines = [
        f"{t},{f},{x!r},{y!r},{w!r},{h!r},{provenances[p]},{classes[c]}"
        for t, f, (x, y, w, h), p, c in zip(
            forest.entry_ids.tolist(), frames, forest.boxes.tolist(),
            forest.provenances.tolist(), forest.classes.tolist(),
        )
    ]
    _write(tracks_path, forest.meta, track_lines)
    _write(entries_path, None, entry_lines)
    return tracks_path, entries_path


def read_forest(prefix: str, strict: bool = True) -> ForestColumns:
    """Read a forest's file pair as checked ``ForestColumns``.

    The track table is read line by line, the entries file by
    ``_columns``; each record is checked as it is read, every entry row
    in one mask, and the columns then pass ``ForestColumns.validate``.
    ``strict=False`` relaxes the gap-free / division-adjacency checks so
    that output of the interpolation-free ablation can be read back.
    """
    tracks_path, entries_path = forest_paths(prefix)
    if not os.path.exists(tracks_path):
        raise ValidationError(f"missing track table {tracks_path}")
    if not os.path.exists(entries_path):
        raise ValidationError(f"missing entries file {entries_path}")

    headers, records = _read(tracks_path)
    meta = _meta(headers, tracks_path, ("frames", "width", "height"))
    rows: dict[int, int] = {}
    spans: list[tuple[int, int]] = []
    parents: list[int | None] = []
    reasons: list[EndReason | None] = []
    for lineno, line in records:
        fields = line.split(",")
        try:
            if len(fields) != 5:
                raise ValueError(f"expected 5 fields, got {len(fields)}")
            tid_s, start_s, end_s, parent_s, reason_s = fields
            tid, start, end = _TRACK_ID(tid_s), int(start_s), int(end_s)
            if tid in rows:
                raise ValidationError(f"duplicate track id {tid}")
            if end < start:
                raise ValidationError(f"end {end} before start {start}")
            parents.append(int(parent_s) if parent_s else None)
            reasons.append(EndReason(reason_s) if reason_s else None)
        except ValueError as exc:
            raise ValidationError(f"{tracks_path}:{lineno}: {exc}") from None
        rows[tid] = len(spans)
        spans.append((start, end))
    ids = np.fromiter(rows, np.int64, len(rows))

    _, records = _read(entries_path)
    values = _columns(
        entries_path, records, _ENTRY, 8,
        {6: _PROVENANCE_INDEX.__getitem__, 7: _CLASS_INDEX.__getitem__},
        {0: _TRACK_ID, 1: _FRAME, 6: _index_of(Provenance), 7: _index_of(CellClass)},
    )
    entry_ids, frame, boxes = values["track"], values["frame"], values["box"]
    # The stable sort keeps file order among equal keys, so a repeated
    # (track, frame) is rejected where it repeats.
    key = np.lexsort((frame, entry_ids))
    repeated = np.zeros(len(values), dtype=bool)
    repeated[key[1:]] = (np.diff(entry_ids[key]) == 0) & (np.diff(frame[key]) == 0)
    declared = np.isin(entry_ids, ids)
    ok = declared & valid_boxes(boxes) & ~repeated
    if not ok.all():
        i = int(np.argmin(ok))
        try:
            if not declared[i]:
                raise ValidationError(f"entry for undeclared track {entry_ids[i]}")
            TrackEntry(
                tuple(boxes[i].tolist()),
                CELL_CLASSES[values["cls"][i]],
                PROVENANCES[values["provenance"][i]],
            )
            raise ValidationError(
                f"duplicate entry for track {entry_ids[i]} frame {frame[i]}"
            )
        except ValidationError as exc:
            raise ValidationError(f"{entries_path}:{records[i][0]}: {exc}") from None
    forest = ForestColumns(
        meta=meta,
        ids=ids,
        parents=parents,
        end_reasons=reasons,
        entry_ids=entry_ids[key],
        frames=frame[key],
        classes=values["cls"][key],
        boxes=boxes[key],
        provenances=values["provenance"][key],
        spans=spans,
        path=tracks_path,
    )
    forest.validate(require_coverage=strict, require_adjacency=strict)
    return forest


def load_forest(prefix: str, strict: bool = True) -> LineageForest:
    """Load a forest from its file pair: ``read_forest``'s columns as
    ``Track`` and ``TrackEntry`` objects."""
    return LineageForest.from_columns(read_forest(prefix, strict))
