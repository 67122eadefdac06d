"""Two-stage tracking-by-detection with division and death events.

Per frame the engine runs:

1. confidence partition of the frame's detections (high / low / dropped);
2. one gate pass: every open track against every high- and
   low-confidence detection within ``tau_dist`` of it; each stage below
   masks that pair list;
3. stage 1 — every open track against the high-confidence detections of
   its own class, under the spatial and appearance gates: living tracks
   continue or divide onto living detections, corpses follow dead ones;
4. death matching — living tracks left over from stage 1 against the
   high-confidence dead detections no corpse took, spatial gate only;
5. stage 2 — still-unmatched tracks (including the memory bank) against
   low-confidence detections of their own class, re-identification only;
6. new tracks from unclaimed high-confidence detections;
7. memory aging — unmatched tracks sit in the bank for up to
   ``memory_frames`` attempts before they are closed.

A track matching two or more detections in stage 1 is a division: the
parent closes and one daughter track starts per detection.  A living
track matching a dead detection is a death: the track keeps following
the corpse but can never return to the living pool.  Lost tracks are
re-acquired at their Kalman-predicted position, and the skipped frames
are filled with blended predictions so tracks stay gap-free.

The gate tests a track only against the detections within ``tau_dist``
of it in x, found by a sort-and-sweep over x, and on frames whose x
windows are crowded only against those within ``tau_dist`` in y as
well, read from y bands; the pair list is the one a full tracks x
detections mask gives.
Conflicts over detections are settled globally greedily: candidate pairs
are consumed in order of ascending cost, ties broken by lower track id
and then lower detection index.

Everything is columns.  A video's detections arrive as
``DetectionColumns`` sliced per frame, or as one ``Detection`` list per
``step``, stacked into the same records.  The open tracks are columns
with one row per track (``_OpenTracks``): the track id, the class it was
born with, the last matched detection, the frames lost and the Kalman
state.  Every entry the engine writes, gap fills included, is one row of
an entry buffer, and ``finalize`` sorts the buffer into checked
``ForestColumns``.
"""

from __future__ import annotations

from dataclasses import replace
from itertools import chain, pairwise
from typing import Iterable, Sequence

import numpy as np

from .core import (
    CELL_CLASSES,
    PROVENANCES,
    CellClass,
    Detection,
    DetectionColumns,
    EndReason,
    ForestColumns,
    Point,
    Provenance,
    TrackerConfig,
    ValidationError,
    VideoMeta,
    check_boxes,
    meeting_pairs,
    run_slots,
)
from .kalman import (
    batch_predict,
    batch_update,
    interpolate_gap,
    start_cov,
)

__all__ = [
    "pair_cost",
    "build_candidates",
    "resolve_conflicts",
    "CellTracker",
    "track_video",
]


def _confidence_bands(
    confidences: np.ndarray, config: TrackerConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Masks of the high (``conf >= tau_high``) and the low
    (``tau_low <= conf < tau_high``) confidences; the rest are dropped."""
    high = confidences >= config.tau_high
    return high, ~high & (confidences >= config.tau_low)


def pair_cost(
    similarity: float | np.ndarray,
    distance: float | np.ndarray,
    config: TrackerConfig,
) -> float | np.ndarray:
    """Association cost: gate-normalized blend of appearance and position.

    ``appearance_weight`` weighs the embedding L1 distance (normalized by
    ``tau_sim``) against the centroid distance (normalized by
    ``tau_dist``).  A pair sitting exactly on both gates costs 1.0.  A
    term of weight 0 is left out, so an infinite distance of its kind
    costs nothing rather than NaN.  Works on floats and elementwise on
    arrays alike.
    """
    w = config.appearance_weight
    with np.errstate(over="ignore"):
        if w == 0.0:
            return distance / config.tau_dist
        appearance = similarity / config.tau_sim
        if w == 1.0:
            return appearance
        return w * appearance + (1.0 - w) * (distance / config.tau_dist)


class _Pool:
    """One side of the gate, one row per track or detection: ``pos``, the
    position the gate measures from, ``dead``, the class, ``emb``, the
    embedding, and for tracks ``ids``, the ids the candidates name.  The
    tracker names a track by its row, which orders tracks as their ids
    do."""

    __slots__ = ("pos", "dead", "emb", "ids")

    def __init__(self, pos, dead, emb, ids=None) -> None:
        self.pos, self.dead, self.emb, self.ids = pos, dead, emb, ids

    def __len__(self) -> int:
        return len(self.pos)


class Candidates:
    """The pairs of a gate pass, in (track, detection) order: ``track``,
    the track pool's id, ``det``, the detection pool's index, and their
    centroid distance ``dist`` (at most ``tau_dist``), embedding L1
    distance ``sim`` and whether their classes agree, ``alike``."""

    __slots__ = ("track", "det", "dist", "sim", "alike")

    def __init__(self, track, det, dist, sim, alike) -> None:
        self.track, self.det, self.dist, self.sim, self.alike = track, det, dist, sim, alike

    def __len__(self) -> int:
        return self.track.size

    def gated(self, config: TrackerConfig) -> np.ndarray:
        """The pairs that pass the appearance gate ``sim <= tau_sim`` and
        the rule that a track pairs only with detections of its class."""
        return self.alike & (self.sim <= config.tau_sim)


_NO_ROWS = np.zeros(0, dtype=np.intp)
_NO_PAIRS = Candidates(_NO_ROWS, _NO_ROWS, np.zeros(0), np.zeros(0), np.zeros(0, bool))

# The columns of a detection record: box (x, y, w, h), centroid, embedding.
_BOX, _CEN, _EMB = slice(0, 4), slice(4, 6), slice(6, None)


def _records(boxes: np.ndarray, embeddings: np.ndarray) -> np.ndarray:
    """One record per detection; the centroid is ``core.centroid``'s."""
    return np.concatenate((boxes, boxes[:, :2] + boxes[:, 2:] / 2.0, embeddings), axis=1)


# Detections per track in the x windows above which the gate reads y
# bands instead.  On 2 cores with Python 3.11, a banded call costs about
# 70 us more than the sweep before it saves a pair, and each window pair
# it does not build saves about 60 ns.  ``noisy`` frames hold about 6
# detections per track, ``dense`` ones about 40.
BAND_AFTER = 32


def _window(p: np.ndarray, tau: float) -> tuple[np.ndarray, np.ndarray]:
    """``p - tau`` and ``p + tau`` widened by a few ulps of ``p``, so that
    rounding in ``p - c`` cannot drop a ``c`` the gate keeps; NaN bounds
    for a non-finite ``p``."""
    reach = tau + 8.0 * np.spacing(np.maximum(np.abs(p), tau))
    # Next to the largest float a bound overflows to inf, still a bound.
    with np.errstate(over="ignore"):
        return p - reach, p + reach


def build_candidates(
    tracks: _Pool, detections: _Pool, config: TrackerConfig
) -> Candidates:
    """Every pair of two gate pools within the spatial gate
    ``distance <= tau_dist``, with what each stage's gates read.

    Distances are computed only for the detections in each track's x
    window ``|cx - px| <= tau_dist``, found by a sweep over the x-sorted
    detections; when those windows hold more than ``BAND_AFTER``
    detections per track, only for those in its square window, also
    ``|cy - py| <= tau_dist``, read from ``core.meeting_pairs`` with
    bands ``tau_dist`` high.  Each window is widened by a few ulps of the
    track's position so that rounding in ``px - cx`` or ``py - cy``
    cannot drop a pair (empty for a non-finite position).  The pairs
    equal a full tracks x detections mask's, in its (track, detection
    index) order.
    """
    if not tracks or not detections:
        return _NO_PAIRS
    pos, cen, tau = tracks.pos, detections.pos, config.tau_dist
    cx = cen[:, 0]
    order = cx.argsort()
    xs = cx.take(order)
    low, high = _window(pos[:, 0], tau)
    lo, hi = xs.searchsorted(low), xs.searchsorted(high, side="right")
    # A window holds at most every detection.
    if len(cen) > BAND_AFTER and (hi - lo).sum() > BAND_AFTER * len(pos):
        low, high = _window(pos, tau)
        ti, di = meeting_pairs(
            np.zeros(len(cen), dtype=np.intp),
            np.concatenate((cen, cen), axis=1),
            np.zeros(len(pos), dtype=np.intp),
            np.concatenate((low, high), axis=1),
            tau,
        )
    else:
        ti, slot = run_slots(lo, hi)
        di = order.take(slot)
    delta = pos.take(ti, axis=0) - cen.take(di, axis=0)
    dist = np.hypot(delta[:, 0], delta[:, 1])
    kept = (dist <= tau).nonzero()[0]
    kept = kept.take(np.lexsort((di.take(kept), ti.take(kept))))
    ti, di, dist = ti.take(kept), di.take(kept), dist.take(kept)
    # Embeddings far apart may differ by more than the largest float.
    with np.errstate(over="ignore"):
        sim = np.abs(tracks.emb.take(ti, axis=0) - detections.emb.take(di, axis=0)).sum(axis=1)
    alike = tracks.dead.take(ti) == detections.dead.take(di)
    return Candidates(tracks.ids.take(ti), di, dist, sim, alike)


def resolve_conflicts(
    cost: np.ndarray,
    tracks: np.ndarray,
    dets: np.ndarray,
    caps: Sequence[int],
) -> dict[int, list[int]]:
    """Globally greedy assignment of detections to tracks.

    Pair ``k`` joins track ``tracks[k]`` to detection ``dets[k]`` at
    ``cost[k]``, which is not NaN.  Pairs are taken cheapest-first (ties:
    lower track, then lower detection), the order ``np.lexsort`` gives.
    A detection, once claimed, is gone for everyone else; track ``t``
    stops claiming at ``caps[t]`` detections.  Returns each track's
    claimed detections in ascending order, tracks in the order of their
    first claim.
    """
    order = np.lexsort((dets, tracks, cost))
    claimed: set[int] = set()
    out: dict[int, list[int]] = {}
    for t, j in zip(tracks.take(order).tolist(), dets.take(order).tolist()):
        if j in claimed:
            continue
        got = out.get(t)
        if got is None:
            out[t] = [j]
        elif len(got) < caps[t]:
            got.append(j)
        else:
            continue
        claimed.add(j)
    for indices in out.values():
        indices.sort()
    return out


class _OpenTracks:
    """The open tracks as columns, one row per track in opening order:
    closed rows are dropped and new ones appended, so rows ascend with
    track ``ids``.

    ``born_dead`` is the class of a track's first entry.  ``last`` and
    ``dead`` are the record and class of the last matched detection, and
    ``lost`` counts the frames without a match since, so a gap filled at
    frame ``f`` starts at ``f - lost``.  ``mean``/``cov`` is the Kalman
    filter, predicted every frame, and ``anchor`` its mean at the last
    observation, from which gaps are interpolated; without Kalman the
    three are never read.
    """

    __slots__ = ("ids", "born_dead", "last", "dead", "lost", "mean", "cov", "anchor")

    def __init__(self, dim: int) -> None:
        self.ids, self.lost = np.zeros(0, np.int64), np.zeros(0, int)
        self.born_dead, self.dead = np.zeros(0, bool), np.zeros(0, bool)
        self.last = np.zeros((0, 6 + dim))
        self.mean, self.anchor = np.zeros((0, 4)), np.zeros((0, 4))
        self.cov = np.zeros((0, 4, 4))

    def __len__(self) -> int:
        return self.ids.size

    def keep(self, rows: np.ndarray) -> None:
        for name in self.__slots__:
            setattr(self, name, getattr(self, name).take(rows, axis=0))

    def append(self, **columns: np.ndarray) -> None:
        for name in self.__slots__:
            setattr(self, name, np.concatenate((getattr(self, name), columns[name])))


# Entry codes in ``ForestColumns``.
_ALIVE, _DEAD = CELL_CLASSES.index(CellClass.ALIVE), CELL_CLASSES.index(CellClass.DEAD)
_HIGH, _LOW, _INTERP = map(PROVENANCES.index, (
    Provenance.OBSERVED_HIGH, Provenance.OBSERVED_LOW, Provenance.INTERPOLATED,
))


class CellTracker:
    """Stateful engine; feed frames in order, then finalize."""

    def __init__(self, config: TrackerConfig | None = None):
        self.config = config or TrackerConfig()
        self._open = _OpenTracks(0)
        # Closed tracks in closing order, which is the forest's row order.
        self._done_ids: list[int] = []
        self._done_reasons: list[EndReason] = []
        # Track ``t``'s parent id (or None) at index ``t - 1``.
        self._parents: list[int | None] = []
        # Entry blocks, one row per entry: track id, frame, box, dead flag
        # and provenance code.
        self._entries: list[np.ndarray] = []
        self._next_frame = 0
        self._dim: int | None = None
        self._start_cov = start_cov(self.config.measurement_noise)[None]

    # -- public API ---------------------------------------------------------

    def step(self, detections: Iterable[Detection]) -> None:
        """Track the next frame, given its detections (read once)."""
        dets = list(detections)
        for det in dets:
            self._check_dim(det.embedding.size)
        boxes = np.fromiter(
            chain.from_iterable(d.box for d in dets), float, 4 * len(dets)
        ).reshape(-1, 4)
        emb = np.array([d.embedding for d in dets], dtype=float)
        self._process(
            _records(boxes, emb.reshape(len(dets), self._dim or 0)),
            np.array([d.cell_class is CellClass.DEAD for d in dets], dtype=bool),
            np.array([d.confidence for d in dets], dtype=float),
        )

    def finalize(self, meta: VideoMeta | None = None) -> ForestColumns:
        """Close everything still open and emit the checked lineage forest,
        tracks in closing order.

        The forest carries ``meta`` with ``frames`` set to the number of
        frames fed, whatever ``meta`` declared.
        """
        self._close(np.arange(len(self._open)), EndReason.END_OF_VIDEO)
        self._open = _OpenTracks(self._dim or 0)
        block = np.concatenate(self._entries) if self._entries else np.zeros((0, 8))
        # Each track's entries were written in frame order.
        block = block.take(np.argsort(block[:, 0], kind="stable"), axis=0)
        forest = ForestColumns(
            meta=replace(meta or VideoMeta(), frames=self._next_frame),
            ids=np.array(self._done_ids, dtype=np.int64),
            parents=[self._parents[t - 1] for t in self._done_ids],
            end_reasons=list(self._done_reasons),
            entry_ids=block[:, 0].astype(np.int64),
            frames=block[:, 1].astype(np.int64),
            classes=np.where(block[:, 6] != 0, _DEAD, _ALIVE),
            boxes=block[:, 2:6].copy(),
            provenances=block[:, 7].astype(np.intp),
        )
        forest.validate(
            require_coverage=self.config.use_kalman,
            require_adjacency=True,
        )
        return forest

    # -- internals ----------------------------------------------------------

    def _check_dim(self, dim: int) -> None:
        if self._dim is None:
            # Nothing is open before the first detection.
            self._dim = dim
            self._open = _OpenTracks(dim)
        elif dim != self._dim:
            raise ValidationError(
                f"embedding length changed from {self._dim} to {dim} "
                f"at frame {self._next_frame}"
            )

    def _process(self, rec: np.ndarray, dead: np.ndarray, conf: np.ndarray) -> None:
        """Track the next frame: its detection records, dead flags and
        confidences.  Detections below ``tau_low`` are never read, so the
        frame step works on the others, indexed in frame order."""
        cfg, op, fi = self.config, self._open, self._next_frame
        high, low = _confidence_bands(conf, cfg)
        usable = high | low
        if not usable.all():
            rec, dead, high = rec[usable], dead[usable], high[usable]

        n = len(op)
        if cfg.use_kalman and n:
            op.mean, op.cov = batch_predict(op.mean, op.cov, cfg.process_noise)
        # The matcher looks for a lost track at its Kalman prediction,
        # otherwise (and always without Kalman) at its last centroid.
        pos = op.last[:, _CEN]
        if cfg.use_kalman:
            pos = np.where(op.lost[:, None] >= 1, op.mean[:, :2], pos)

        assign: dict[int, list[int]] = {}
        assign_low: dict[int, list[int]] = {}
        claimed = np.zeros(len(high), dtype=bool)
        hit = np.zeros(n, dtype=bool)
        pairs = _NO_PAIRS
        if n and len(high):
            pairs = build_candidates(
                _Pool(pos, op.dead, op.last[:, _EMB], np.arange(n)),
                _Pool(rec[:, _CEN], dead, rec[:, _EMB]),
                cfg,
            )
        if len(pairs):
            t, j = pairs.track, pairs.det
            cost = pair_cost(pairs.sim, pairs.dist, cfg)
            gated, high_pair = pairs.gated(cfg), high.take(j)
            ones = [1] * n

            # Stage 1: every open track vs the high-confidence detections
            # of its own class.  A corpse follows one detection; a lost
            # living track may only divide when interpolation can
            # reconnect the parent, otherwise it re-identifies a single
            # detection.
            divides = ~op.dead if cfg.use_kalman else ~op.dead & (op.lost == 0)
            caps = [cfg.max_daughters if d else 1 for d in divides.tolist()]
            assign = _resolve(gated & high_pair, cost, t, j, caps)
            claimed[list(chain.from_iterable(assign.values()))] = True
            hit[list(assign)] = True

            # Death matching: living tracks that found no living detection
            # vs dead detections nobody continues.  Spatial gate only.
            free_dead = high_pair & dead.take(j) & ~claimed.take(j)
            if free_dead.any():
                dying = ~op.dead & ~hit
                for r, (k,) in _resolve(free_dead & dying.take(t), cost, t, j, ones).items():
                    assign[r] = [k]
                    claimed[k] = hit[r] = True

            # Stage 2: whatever is still open and unmatched (current frame
            # misses and the whole memory bank) gets one shot at the
            # low-confidence detections of its own class.
            assign_low = _resolve(gated & ~high_pair & ~hit.take(t), cost, t, j, ones)

        # Apply the matches in the order they were made: one detection
        # continues a track, several divide it.
        births: list[tuple[int, int | None]] = []
        split = [r for r, js in assign.items() if len(js) > 1]
        for r in split:
            daughters = assign[r]
            if cfg.use_kalman and op.lost[r] >= 1:
                cen = rec[daughters, _CEN]
                self._fill_gaps(fi, [r], [(float(cen[:, 0].mean()), float(cen[:, 1].mean()))])
            births += [(k, int(op.ids[r])) for k in daughters]
        self._close(np.array(split, dtype=np.intp), EndReason.DIVISION)
        rows = [r for r, js in assign.items() if len(js) == 1]
        ds = [js[0] for js in assign.values() if len(js) == 1]
        provenance = [_HIGH] * len(rows) + [_LOW] * len(assign_low)
        rows += assign_low
        ds += [k for (k,) in assign_low.values()]
        if rows:
            self._continue(fi, rows, ds, provenance, rec, dead)

        # Memory aging: a track may miss up to memory_frames consecutive
        # matching attempts; one more and it is closed.
        hit[rows] = True
        missed = ~hit
        op.lost += missed
        closed = (missed & (op.lost > cfg.memory_frames)).nonzero()[0]
        self._close(closed, EndReason.LOST)
        if closed.size or split:
            hit[:] = True
            hit[closed] = hit[split] = False
            op.keep(hit.nonzero()[0])

        # New tracks: daughters, then the high-confidence detections
        # nobody claimed.
        births += [(k, None) for k in (high & ~claimed).nonzero()[0].tolist()]
        if births:
            self._open_tracks(fi, births, rec, dead)
        self._next_frame += 1

    def _write(self, ids, frames, boxes, dead, provenance) -> None:
        """Append one entry per box; the other columns broadcast."""
        block = np.empty((len(boxes), 8))
        block[:, 0], block[:, 1], block[:, 2:6] = ids, frames, boxes
        block[:, 6], block[:, 7] = dead, provenance
        self._entries.append(block)

    def _continue(self, fi, rows, ds, provenance, rec, dead) -> None:
        """Extend track row ``rows[k]`` with detection ``ds[k]``: its entry
        (after any gap fill) per track, its state columns by row."""
        op, cfg = self._open, self.config
        r, d = np.array(rows), np.array(ds)
        dead = dead.take(d)
        if (op.dead.take(r) > dead).any():
            raise AssertionError("dead track offered a living detection")
        last = rec.take(d, axis=0)
        if cfg.use_kalman:
            lost = (op.lost.take(r) >= 1).nonzero()[0]
            if lost.size:
                self._fill_gaps(fi, r.take(lost).tolist(), last[lost, _CEN])
        # A detection's box was validated when the detection was made.
        self._write(op.ids.take(r), fi, last[:, _BOX], dead, provenance)
        op.last[r], op.dead[r], op.lost[r] = last, dead, 0
        # Deferring the update is safe: a track is matched at most once
        # per frame, and later stages read only unmatched tracks' filters.
        if cfg.use_kalman:
            mean, op.cov[r] = batch_update(
                op.mean.take(r, axis=0),
                op.cov.take(r, axis=0),
                last[:, _CEN],
                cfg.measurement_noise,
            )
            op.mean[r] = op.anchor[r] = mean

    def _fill_gaps(self, fi: int, rows: list[int], anchors: Sequence[Point]) -> None:
        """Interpolate the frames each lost track row ``rows[k]`` skipped
        before its match at ``anchors[k]`` on frame ``fi``."""
        op = self._open
        gaps = [range(fi - int(op.lost[r]), fi) for r in rows]
        boxes = np.concatenate([
            interpolate_gap(op.anchor[r], op.last[r, _BOX][2:].tolist(), gap, anchor_after=a)
            for r, gap, a in zip(rows, gaps, anchors)
        ])
        # Unlike a detection's, a gap box has not been checked yet; the
        # first that breaks the box rule is named.
        check_boxes(boxes)
        counts = op.lost.take(rows)
        self._write(
            op.ids.take(rows).repeat(counts), list(chain.from_iterable(gaps)), boxes,
            op.dead.take(rows).repeat(counts), _INTERP,
        )

    def _open_tracks(self, fi, births, rec, dead) -> None:
        """Open one track per ``(detection, parent id)``, ids in that order."""
        d = np.array([k for k, _ in births])
        first = len(self._parents) + 1
        ids = np.arange(first, first + len(d), dtype=np.int64)
        self._parents += [parent for _, parent in births]
        last, born_dead = rec.take(d, axis=0), dead.take(d)
        self._write(ids, fi, last[:, _BOX], born_dead, _HIGH)
        mean = np.zeros((len(d), 4))
        mean[:, :2] = last[:, _CEN]
        # Appending copies each column, so dead and born_dead, and mean
        # and anchor, stay apart.
        self._open.append(
            ids=ids, born_dead=born_dead, last=last, dead=born_dead,
            lost=np.zeros(len(d), int), mean=mean,
            cov=self._start_cov.repeat(len(d), axis=0), anchor=mean,
        )

    def _close(self, rows: np.ndarray, reason: EndReason) -> None:
        """Close open ``rows`` in their order.  A track born alive that
        died keeps its death as its fate even if the corpse is later lost."""
        op = self._open
        died = op.dead.take(rows) & ~op.born_dead.take(rows)
        self._done_ids += op.ids.take(rows).tolist()
        self._done_reasons += [EndReason.DEATH if d else reason for d in died.tolist()]


def _resolve(mask, cost, tracks, dets, caps) -> dict[int, list[int]]:
    """``resolve_conflicts`` over the pairs ``mask`` selects."""
    k = mask.nonzero()[0]
    if not k.size:
        return {}
    return resolve_conflicts(cost.take(k), tracks.take(k), dets.take(k), caps)


def track_video(
    frames: DetectionColumns | Sequence[Sequence[Detection]],
    config: TrackerConfig | None = None,
    meta: VideoMeta | None = None,
) -> ForestColumns:
    """Track a whole video: ``DetectionColumns``, or a list of per-frame
    detection lists.

    The checked forest declares ``len(frames)`` frames and takes the rest
    of its metadata from ``meta``; ``LineageForest.from_columns`` gives
    its ``Track`` objects.
    """
    engine = CellTracker(config)
    if isinstance(frames, DetectionColumns):
        if frames.boxes.size:
            engine._check_dim(frames.embeddings.shape[1])
        rec = _records(frames.boxes, frames.embeddings)
        dead, conf = frames.classes == _DEAD, frames.confidences
        for lo, hi in pairwise(frames.offsets.tolist()):
            engine._process(rec[lo:hi], dead[lo:hi], conf[lo:hi])
    else:
        for dets in frames:
            engine.step(dets)
    return engine.finalize(meta=meta)
