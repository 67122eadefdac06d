"""Two-stage tracking-by-detection with division and death events.

Per frame the engine runs:

1. confidence partition of the frame's detections (high / low / dropped);
2. stage 1 — every open track against the high-confidence detections of
   its own class, under the spatial and appearance gates: living tracks
   continue or divide onto living detections, corpses follow dead ones;
3. death matching — living tracks left over from stage 1 against the
   high-confidence dead detections no corpse took, spatial gate only;
4. stage 2 — still-unmatched tracks (including the memory bank) against
   low-confidence detections of their own class, re-identification only;
5. new tracks from unclaimed high-confidence detections;
6. memory aging — unmatched tracks sit in the bank for up to
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
well, read from y bands; the candidate list is the one a full tracks x
detections mask gives.
Conflicts over detections are settled globally greedily: candidate pairs
are consumed in order of ascending cost, ties broken by lower track id
and then lower detection index.

The open tracks are columns with one row per track (``_OpenTracks``):
the last matched detection, the frames lost and the Kalman state.  Each
row builds a ``core.Track`` whose entries are the only record of what was
observed; when the track closes, that same ``Track`` goes into the
finalized forest.  A frame's detections are stacked into columns once,
each stage's pools are index arrays into them, and each stage runs as a
few array expressions over all its rows.
"""

from __future__ import annotations

from dataclasses import replace
from itertools import chain
from typing import Iterable, Mapping, Sequence

import numpy as np

from .core import (
    CellClass,
    Detection,
    EndReason,
    LineageForest,
    Point,
    Provenance,
    Track,
    TrackEntry,
    TrackerConfig,
    ValidationError,
    VideoMeta,
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
    """Indices of the high (``conf >= tau_high``) and the low
    (``tau_low <= conf < tau_high``) confidences; the rest are dropped."""
    high = confidences >= config.tau_high
    return high.nonzero()[0], (~high & (confidences >= config.tau_low)).nonzero()[0]


def pair_cost(
    similarity: float | np.ndarray,
    distance: float | np.ndarray,
    config: TrackerConfig,
) -> float | np.ndarray:
    """Association cost: gate-normalized blend of appearance and position.

    ``appearance_weight`` weighs the embedding L1 distance (normalized by
    ``tau_sim``) against the centroid distance (normalized by
    ``tau_dist``).  A pair sitting exactly on both gates costs 1.0.
    Works on floats and elementwise on arrays alike.
    """
    w = config.appearance_weight
    return w * (similarity / config.tau_sim) + (1.0 - w) * (
        distance / config.tau_dist
    )


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

    def take(self, rows: np.ndarray) -> _Pool:
        ids = None if self.ids is None else self.ids.take(rows)
        pos, emb = self.pos.take(rows, axis=0), self.emb.take(rows, axis=0)
        return _Pool(pos, self.dead.take(rows), emb, ids)


# The columns of a detection record: box (x, y, w, h), centroid, embedding.
_BOX, _CEN, _EMB = slice(0, 4), slice(4, 6), slice(6, None)


def _records(dets: list[Detection], dim: int) -> np.ndarray:
    """One record per detection; the centroid is ``core.centroid``'s."""
    box = np.fromiter(
        chain.from_iterable(d.box for d in dets), float, 4 * len(dets)
    ).reshape(-1, 4)
    emb = np.array([d.embedding for d in dets], dtype=float).reshape(len(dets), dim)
    return np.concatenate((box, box[:, :2] + box[:, 2:] / 2.0, emb), axis=1)


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
    tracks: _Pool,
    detections: _Pool,
    config: TrackerConfig,
    gate_similarity: bool = True,
) -> list[tuple[float, int, int]]:
    """All ``(cost, track_id, det_index)`` pairs of two gate pools that
    survive the gates; a pair names its track by the pool's ``ids``.

    The spatial gate ``distance <= tau_dist`` always applies.  The
    appearance gate ``similarity <= tau_sim``, and with it the rule that
    a track pairs only with detections of its own class, is skipped for
    death matching, where appearance is unreliable but the cost still
    ranks candidates.  The class rule masks the spatial gate, so the
    similarity is computed only for pairs that can still be kept.

    Distances are computed only for the detections in each track's x
    window ``|cx - px| <= tau_dist``, found by a sweep over the x-sorted
    detections; when those windows hold more than ``BAND_AFTER``
    detections per track, only for those in its square window, also
    ``|cy - py| <= tau_dist``, read from ``core.meeting_pairs`` with
    bands ``tau_dist`` high.  Each window is widened by a few ulps of the
    track's position so that rounding in ``px - cx`` or ``py - cy``
    cannot drop a pair (empty for a non-finite position).  The list
    equals a full tracks x detections mask's, in its (track, detection
    index) order.
    """
    if not tracks or not detections:
        return []
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
    near = dist <= tau
    if gate_similarity:
        near &= tracks.dead.take(ti) == detections.dead.take(di)
    kept = near.nonzero()[0]
    if kept.size == 0:
        return []
    kept = kept.take(np.lexsort((di.take(kept), ti.take(kept))))
    ti, di, dist = ti.take(kept), di.take(kept), dist.take(kept)
    sim = np.abs(tracks.emb.take(ti, axis=0) - detections.emb.take(di, axis=0)).sum(axis=1)
    if gate_similarity:
        keep = (sim <= config.tau_sim).nonzero()[0]
        if keep.size == 0:
            return []
        ti, di, sim, dist = ti.take(keep), di.take(keep), sim.take(keep), dist.take(keep)
    cost = pair_cost(sim, dist, config)
    return list(zip(cost.tolist(), tracks.ids.take(ti).tolist(), di.tolist()))


def resolve_conflicts(
    candidates: Sequence[tuple[float, int, int]],
    max_per_track: int | Mapping[int, int],
) -> dict[int, list[int]]:
    """Globally greedy assignment of detections to tracks.

    Pairs are taken cheapest-first (ties: lower track id, then lower
    detection index).  A detection, once claimed, is gone for everyone
    else; a track stops claiming at its cap.  Returns the per-track
    claimed detection indices in ascending index order.
    """
    claimed: set[int] = set()
    out: dict[int, list[int]] = {}
    for _, tid, j in sorted(candidates):
        if j in claimed:
            continue
        cap = (
            max_per_track
            if isinstance(max_per_track, int)
            else max_per_track.get(tid, 1)
        )
        got = out.get(tid)
        if got is not None and len(got) >= cap:
            continue
        claimed.add(j)
        out.setdefault(tid, []).append(j)
    for indices in out.values():
        indices.sort()
    return out


class _OpenTracks:
    """The open tracks as columns, one row per track in opening order:
    closed rows are dropped and new ones appended, so rows ascend with
    track ids.

    ``tracks[r]`` is the ``Track`` row ``r`` builds; its entries are the
    only record of what was observed.  ``last`` and ``dead`` are the
    record and class of the last matched detection, and
    ``lost`` counts the frames without a match since, so a gap filled at
    frame ``f`` starts at ``f - lost``.  ``mean``/``cov`` is the Kalman
    filter, predicted every frame, and ``anchor`` its mean at the last
    observation, from which gaps are interpolated; without Kalman the
    three are never read.
    """

    COLUMNS = ("last", "dead", "lost", "mean", "cov", "anchor")
    __slots__ = ("tracks",) + COLUMNS

    def __init__(self, dim: int) -> None:
        self.tracks: list[Track] = []
        self.last = np.zeros((0, 6 + dim))
        self.dead, self.lost = np.zeros(0, bool), np.zeros(0, int)
        self.mean, self.anchor = np.zeros((0, 4)), np.zeros((0, 4))
        self.cov = np.zeros((0, 4, 4))

    def keep(self, rows: np.ndarray) -> None:
        self.tracks = list(map(self.tracks.__getitem__, rows.tolist()))
        for name in self.COLUMNS:
            setattr(self, name, getattr(self, name).take(rows, axis=0))

    def append(self, tracks: list[Track], **columns: np.ndarray) -> None:
        self.tracks += tracks
        for name in self.COLUMNS:
            setattr(self, name, np.concatenate((getattr(self, name), columns[name])))


class CellTracker:
    """Stateful engine; feed frames in order, then finalize."""

    def __init__(self, config: TrackerConfig | None = None):
        self.config = config or TrackerConfig()
        self._open = _OpenTracks(0)
        # Closed tracks in closing order, which is the forest's key order.
        self._done: list[Track] = []
        self._next_id = 1
        self._next_frame = 0
        self._dim: int | None = None
        self._start_cov = start_cov(self.config.measurement_noise)[None]

    # -- public API ---------------------------------------------------------

    def step(self, detections: Iterable[Detection]) -> None:
        """Track the next frame, given its detections (read once)."""
        fi = self._next_frame
        dets = list(detections)
        for det in dets:
            if self._dim is None:
                # Nothing is open before the first detection.
                self._dim = det.embedding.size
                self._open = _OpenTracks(self._dim)
            elif det.embedding.size != self._dim:
                raise ValidationError(
                    f"embedding length changed from {self._dim} to "
                    f"{det.embedding.size} at frame {fi}"
                )
        self._process(fi, dets)
        self._next_frame += 1

    def finalize(self, meta: VideoMeta | None = None) -> LineageForest:
        """Close everything still open and emit the lineage forest.

        The forest carries ``meta`` with ``frames`` set to the number of
        frames fed, whatever ``meta`` declared.
        """
        for track in self._open.tracks:
            self._close(track, EndReason.END_OF_VIDEO)
        self._open = _OpenTracks(self._dim or 0)
        forest = LineageForest(
            tracks={track.track_id: track for track in self._done},
            meta=replace(meta or VideoMeta(), frames=self._next_frame),
        )
        forest.validate(
            require_coverage=self.config.use_kalman,
            require_adjacency=True,
        )
        return forest

    # -- internals ----------------------------------------------------------

    def _process(self, fi: int, dets: list[Detection]) -> None:
        cfg, op = self.config, self._open
        rec = _records(dets, self._dim or 0)
        dead = np.array([d.cell_class is CellClass.DEAD for d in dets], dtype=bool)
        frame = _Pool(rec[:, _CEN], dead, rec[:, _EMB])
        conf = np.array([d.confidence for d in dets], dtype=float)
        high, low = _confidence_bands(conf, cfg)

        n = len(op.tracks)
        if cfg.use_kalman and n:
            op.mean, op.cov = batch_predict(op.mean, op.cov, cfg.process_noise)
        # The matcher looks for a lost track at its Kalman prediction,
        # otherwise (and always without Kalman) at its last centroid.
        pos = op.last[:, _CEN]
        if cfg.use_kalman:
            pos = np.where(op.lost[:, None] >= 1, op.mean[:, :2], pos)
        tracks = _Pool(pos, op.dead, op.last[:, _EMB], np.arange(n))

        # Stage 1: every open track vs the high-confidence detections of
        # its own class.  A corpse follows one detection; a lost living
        # track may only divide when interpolation can reconnect the
        # parent, otherwise it re-identifies a single detection.
        divides = ~op.dead if cfg.use_kalman else ~op.dead & (op.lost == 0)
        caps = dict.fromkeys(divides.nonzero()[0].tolist(), cfg.max_daughters)
        hpool = frame.take(high)
        assign = self._match(tracks, hpool, caps)
        claimed = np.zeros(len(high), dtype=bool)
        claimed[list(chain.from_iterable(assign.values()))] = True
        hit = np.zeros(n, dtype=bool)
        hit[list(assign)] = True

        # Death matching: living tracks that found no living detection vs
        # dead detections nobody continues.  Spatial gate only.
        free_dead = (hpool.dead & ~claimed).nonzero()[0]
        if free_dead.size:
            dying = (~op.dead & ~hit).nonzero()[0]
            assign_death = self._match(
                tracks.take(dying), hpool.take(free_dead), 1, gate_similarity=False
            )
            for r, (k,) in assign_death.items():
                assign[r] = [int(free_dead[k])]
                claimed[free_dead[k]] = True
                hit[r] = True

        # Stage 2: whatever is still open and unmatched (current frame
        # misses and the whole memory bank) gets one shot at the
        # low-confidence detections of its own class.
        assign_low = {}
        if low.size:
            assign_low = self._match(tracks.take((~hit).nonzero()[0]), frame.take(low), 1)

        # Apply the matches in the order they were made: one detection
        # continues a track, several divide it.
        births: list[tuple[int, Track | None]] = []
        high_at, low_at = high.tolist(), low.tolist()
        split = [r for r, js in assign.items() if len(js) > 1]
        for r in split:
            track, daughters = op.tracks[r], [high_at[j] for j in assign[r]]
            if cfg.use_kalman and op.lost[r] >= 1:
                cen = frame.pos[daughters]
                self._fill_gap(r, fi, (float(cen[:, 0].mean()), float(cen[:, 1].mean())))
            track.end_reason = EndReason.DIVISION
            self._done.append(track)
            births += [(j, track) for j in daughters]
        rows = [r for r, js in assign.items() if len(js) == 1]
        ds = [high_at[js[0]] for js in assign.values() if len(js) == 1]
        provenance = [Provenance.OBSERVED_HIGH] * len(rows)
        rows += assign_low
        ds += [low_at[j] for (j,) in assign_low.values()]
        provenance += [Provenance.OBSERVED_LOW] * len(assign_low)
        if rows:
            self._continue(fi, rows, ds, provenance, dets, rec, frame)

        # Memory aging: a track may miss up to memory_frames consecutive
        # matching attempts; one more and it is closed.
        hit[rows] = True
        missed = ~hit
        op.lost += missed
        closed = (missed & (op.lost > cfg.memory_frames)).nonzero()[0].tolist()
        for r in closed:
            self._close(op.tracks[r], EndReason.LOST)
        if closed or split:
            hit[:] = True
            hit[closed + split] = False
            op.keep(hit.nonzero()[0])

        # New tracks: daughters, then the high-confidence detections
        # nobody claimed.
        births += [(j, None) for j in high.take((~claimed).nonzero()[0]).tolist()]
        if births:
            self._open_tracks(fi, births, dets, rec, frame)

    def _match(self, tracks, dets, caps, gate_similarity=True) -> dict[int, list[int]]:
        """Gate and greedily resolve two pools; per-track indices into ``dets``."""
        if not tracks or not dets:
            return {}
        return resolve_conflicts(
            build_candidates(tracks, dets, self.config, gate_similarity), caps
        )

    def _continue(self, fi, rows, ds, provenance, dets, rec, frame) -> None:
        """Extend track row ``rows[k]`` with detection ``ds[k]``: its entry
        (after any gap fill) per track, its state columns by row."""
        op, cfg = self._open, self.config
        r, d = np.array(rows), np.array(ds)
        dead = frame.dead.take(d)
        if (op.dead.take(r) > dead).any():
            raise AssertionError("dead track offered a living detection")
        if cfg.use_kalman:
            for k in (op.lost.take(r) >= 1).nonzero()[0].tolist():
                self._fill_gap(rows[k], fi, frame.pos[ds[k]])
        # A detection's box was validated when the detection was made.
        tracks, trusted = op.tracks, TrackEntry.trusted
        for row, det, prov in zip(rows, map(dets.__getitem__, ds), provenance):
            tracks[row].entries[fi] = trusted(det.box, det.cell_class, prov)
        op.last[r], op.dead[r], op.lost[r] = rec.take(d, axis=0), dead, 0
        # Deferring the update is safe: a track is matched at most once
        # per frame, and later stages read only unmatched tracks' filters.
        if cfg.use_kalman:
            mean, op.cov[r] = batch_update(
                op.mean.take(r, axis=0),
                op.cov.take(r, axis=0),
                frame.pos.take(d, axis=0),
                cfg.measurement_noise,
            )
            op.mean[r] = op.anchor[r] = mean

    def _fill_gap(self, r: int, fi: int, anchor: Point | np.ndarray) -> None:
        """Interpolate the frames lost track row ``r`` skipped before this match."""
        op = self._open
        op.tracks[r].entries.update(
            interpolate_gap(
                op.anchor[r],
                op.last[r, _BOX][2:].tolist(),
                range(fi - int(op.lost[r]), fi),
                anchor_after=anchor,
                cell_class=CellClass.DEAD if op.dead[r] else CellClass.ALIVE,
            )
        )

    def _open_tracks(self, fi, births, dets, rec, frame) -> None:
        """Open one track per ``(detection, parent)``, ids in that order."""
        tracks = []
        for j, parent in births:
            det = dets[j]
            entry = TrackEntry.trusted(det.box, det.cell_class, Provenance.OBSERVED_HIGH)
            track = Track(self._next_id, {fi: entry})
            if parent is not None:
                track.parent = parent.track_id
                parent.children.append(track.track_id)
            tracks.append(track)
            self._next_id += 1
        d = np.array([j for j, _ in births])
        last = rec.take(d, axis=0)
        mean = np.zeros((len(d), 4))
        mean[:, :2] = last[:, _CEN]
        # Appending copies each column, so mean and anchor stay apart.
        self._open.append(
            tracks, last=last, dead=frame.dead.take(d), lost=np.zeros(len(d), int),
            mean=mean, cov=self._start_cov.repeat(len(d), axis=0), anchor=mean,
        )

    def _close(self, track: Track, reason: EndReason) -> None:
        if track.death_event_frame() is not None:
            # A track that witnessed its death keeps that as its fate even
            # if the corpse is later lost.
            reason = EndReason.DEATH
        track.end_reason = reason
        self._done.append(track)


def track_video(
    frames: Sequence[Sequence[Detection]],
    config: TrackerConfig | None = None,
    meta: VideoMeta | None = None,
) -> LineageForest:
    """Track a whole video (list of per-frame detection lists).

    The forest declares ``len(frames)`` frames and takes the rest of its
    metadata from ``meta``.
    """
    engine = CellTracker(config)
    for dets in frames:
        engine.step(dets)
    return engine.finalize(meta=meta)
