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

The gate is a sort-and-sweep over x: only the detections within
``tau_dist`` of a track in x are tested against it, and the candidate
list is the one a full tracks x detections mask gives.
Conflicts over detections are settled globally greedily: candidate pairs
are consumed in order of ascending cost, ties broken by lower track id
and then lower detection index.

Each open track is the ``core.Track`` it is building, wrapped with its
last matched ``Detection`` (the embedding the matcher compares) and the
few values no entry records (frames lost, Kalman state); when the track
closes, that same ``Track`` goes into the finalized forest, holding
exactly what its entries file will hold.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Mapping, Sequence

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
)
from .kalman import (
    batch_predict,
    batch_update,
    interpolate_gap,
    kf_init,
)

__all__ = [
    "partition_by_confidence",
    "pair_cost",
    "build_candidates",
    "resolve_conflicts",
    "CellTracker",
    "track_video",
]


def partition_by_confidence(
    detections: list[Detection], config: TrackerConfig
) -> tuple[list[Detection], list[Detection]]:
    """Split detections into (high, low) by confidence.

    ``conf >= tau_high`` is high, ``tau_low <= conf < tau_high`` is low,
    anything below ``tau_low`` is discarded.
    """
    high: list[Detection] = []
    low: list[Detection] = []
    for det in detections:
        if det.confidence >= config.tau_high:
            high.append(det)
        elif det.confidence >= config.tau_low:
            low.append(det)
    return high, low


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


class _Runtime:
    """One open track: the ``Track`` being built plus its matcher state.

    ``track.entries`` records what the forest keeps.  ``last``, the last
    matched ``Detection``, supplies the position, box size, embedding and
    class the matcher needs.  The rest is: ``lost_count``, the
    consecutive frames without a match since ``last``, so a gap filled
    at frame ``f`` starts at ``f - lost_count``; the Kalman filter
    ``kf_mean``/``kf_cov``, predicted every frame; and ``anchor_mean``,
    the filter mean at the last observation, from which gaps are
    interpolated.  Without Kalman all three are None.
    """

    __slots__ = (
        "track",
        "last",
        "lost_count",
        "kf_mean",
        "kf_cov",
        "anchor_mean",
    )

    def __init__(
        self,
        track_id: int,
        frame: int,
        det: Detection,
        config: TrackerConfig,
        parent: int | None = None,
    ) -> None:
        self.track = Track(
            track_id=track_id,
            entries={frame: _entry_from_detection(det)},
            parent=parent,
        )
        self.last = det
        self.lost_count = 0
        self.kf_mean = self.kf_cov = None
        if config.use_kalman:
            state = kf_init(det.centroid, config)
            self.kf_mean, self.kf_cov = state.mean.copy(), state.cov.copy()
        self.anchor_mean = self.kf_mean

    @property
    def position(self) -> Point:
        """Where the matcher looks for the track.

        The Kalman prediction while the track is lost, otherwise (and
        always without Kalman) the last observed centroid.
        """
        if self.lost_count >= 1 and self.kf_mean is not None:
            return (float(self.kf_mean[0]), float(self.kf_mean[1]))
        return self.last.centroid


def build_candidates(
    tracks: Sequence[_Runtime],
    detections: Sequence[Detection],
    config: TrackerConfig,
    gate_similarity: bool = True,
) -> list[tuple[float, int, int]]:
    """All ``(cost, track_id, det_index)`` pairs that survive the gates.

    The spatial gate ``distance <= tau_dist`` always applies.  The
    appearance gate ``similarity <= tau_sim``, and with it the rule that
    a track pairs only with detections of its own class, is skipped for
    death matching, where appearance is unreliable but the cost still
    ranks candidates.  The class rule masks the spatial gate, so the
    similarity is computed only for pairs that can still be kept.

    Distances are computed only inside each track's window
    ``|cx - px| <= tau_dist`` over the x-sorted detections, widened by a
    few ulps of ``px`` so that rounding in ``px - cx`` cannot drop a pair
    (empty for a non-finite ``px``).  The list equals a full tracks x
    detections mask's, in its (track, detection index) order.
    """
    if not tracks or not detections:
        return []
    pos = np.array([t.position for t in tracks])
    cen = np.array([d.centroid for d in detections])
    order = cen[:, 0].argsort()
    xs = cen[order, 0]
    px, tau = pos[:, 0], config.tau_dist
    reach = tau + 8.0 * np.spacing(np.maximum(np.abs(px), tau))
    # Next to the largest float a bound overflows to inf, still a bound.
    with np.errstate(over="ignore"):
        lo = xs.searchsorted(px - reach)
        hi = xs.searchsorted(px + reach, side="right")
    counts = hi - lo
    ti = np.arange(len(tracks)).repeat(counts)
    # The k-th pair of a track's window holds sorted detection lo + k.
    run_start = counts.cumsum() - counts
    di = order[np.arange(ti.size) + (lo - run_start).repeat(counts)]
    dist = np.hypot(pos[ti, 0] - cen[di, 0], pos[ti, 1] - cen[di, 1])
    near = dist <= tau
    if gate_similarity:
        dead_t = np.array([t.last.cell_class is CellClass.DEAD for t in tracks])
        dead_d = np.array([d.cell_class is CellClass.DEAD for d in detections])
        near &= dead_t[ti] == dead_d[di]
    kept = np.flatnonzero(near)
    if kept.size == 0:
        return []
    kept = kept[np.lexsort((di[kept], ti[kept]))]
    ti, di, dist = ti[kept], di[kept], dist[kept]
    emb_t = np.array([t.last.embedding for t in tracks])
    emb_d = np.array([d.embedding for d in detections])
    sim = np.abs(emb_t[ti] - emb_d[di]).sum(axis=1)
    if gate_similarity:
        keep = sim <= config.tau_sim
        ti, di, sim, dist = ti[keep], di[keep], sim[keep], dist[keep]
        if ti.size == 0:
            return []
    cost = pair_cost(sim, dist, config)
    ids = [tracks[i].track.track_id for i in ti.tolist()]
    return list(zip(cost.tolist(), ids, di.tolist()))


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


def _entry_from_detection(
    det: Detection, provenance: Provenance = Provenance.OBSERVED_HIGH
) -> TrackEntry:
    # A detection's box was validated when the detection was made.
    return TrackEntry.trusted(det.box, det.cell_class, provenance)


class CellTracker:
    """Stateful engine; feed frames in order, then finalize."""

    def __init__(self, config: TrackerConfig | None = None):
        self.config = config or TrackerConfig()
        self._open: dict[int, _Runtime] = {}
        # Closed tracks in closing order, which is the forest's key order.
        self._done: list[Track] = []
        self._next_id = 1
        self._next_frame = 0
        self._dim: int | None = None
        self._pending_updates: list[_Runtime] = []

    # -- public API ---------------------------------------------------------

    def step(self, detections: Sequence[Detection]) -> None:
        """Track the next frame, given its detections."""
        fi = self._next_frame
        for det in detections:
            if self._dim is None:
                self._dim = det.embedding.size
            elif det.embedding.size != self._dim:
                raise ValidationError(
                    f"embedding length changed from {self._dim} to "
                    f"{det.embedding.size} at frame {fi}"
                )
        self._process(fi, list(detections))
        self._next_frame += 1

    def finalize(self, meta: VideoMeta | None = None) -> LineageForest:
        """Close everything still open and emit the lineage forest.

        The forest carries ``meta`` with ``frames`` set to the number of
        frames fed, whatever ``meta`` declared.
        """
        for rt in list(self._open.values()):
            self._close(rt, EndReason.END_OF_VIDEO)
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

    def _process(self, fi: int, detections: list[Detection]) -> None:
        cfg = self.config
        high, low = partition_by_confidence(detections, cfg)

        open_rts = list(self._open.values())
        if cfg.use_kalman and open_rts:
            self._predict_all(open_rts)

        # Stage 1: every open track vs the high-confidence detections of
        # its own class.  A corpse follows one detection; a lost living
        # track may only divide when interpolation can reconnect the
        # parent, otherwise it re-identifies a single detection.
        caps = {
            rt.track.track_id: (
                cfg.max_daughters
                if rt.last.cell_class is CellClass.ALIVE
                and (rt.lost_count == 0 or cfg.use_kalman)
                else 1
            )
            for rt in open_rts
        }
        assign = self._match(open_rts, high, caps)
        claimed_high = {j for indices in assign.values() for j in indices}

        # Death matching: living tracks that found no living detection vs
        # dead detections nobody continues.  Spatial gate only.
        dying = [
            rt
            for rt in open_rts
            if rt.last.cell_class is CellClass.ALIVE
            and rt.track.track_id not in assign
        ]
        free_dead = [
            j
            for j, d in enumerate(high)
            if d.cell_class is CellClass.DEAD and j not in claimed_high
        ]
        assign_death = self._match(
            dying, [high[j] for j in free_dead], 1, gate_similarity=False
        )
        for tid, (k,) in assign_death.items():
            assign[tid] = [free_dead[k]]
            claimed_high.add(free_dead[k])

        for tid, indices in assign.items():
            if len(indices) == 1:
                self._extend(self._open[tid], fi, high[indices[0]])
            else:
                self._divide(self._open[tid], fi, [high[j] for j in indices])

        # Stage 2: whatever is still open and unmatched (current frame
        # misses and the whole memory bank) gets one shot at the
        # low-confidence detections of its own class.
        missed = [rt for rt in open_rts if rt.track.track_id not in assign]
        assign_low = self._match(missed, low, 1)
        for tid, (j,) in assign_low.items():
            self._extend(self._open[tid], fi, low[j], Provenance.OBSERVED_LOW)
        self._update_matched()

        # Fresh tracks from high-confidence detections nobody claimed.
        for j, det in enumerate(high):
            if j not in claimed_high:
                self._new_track(fi, det)

        # Memory aging: a track may miss up to memory_frames consecutive
        # matching attempts; one more and it is closed.
        for rt in missed:
            if rt.track.track_id in assign_low:
                continue
            rt.lost_count += 1
            if rt.lost_count > self.config.memory_frames:
                self._close(rt, EndReason.LOST)

    def _match(
        self,
        tracks: list[_Runtime],
        dets: list[Detection],
        caps: int | Mapping[int, int],
        gate_similarity: bool = True,
    ) -> dict[int, list[int]]:
        """Gate + greedy-resolve a track pool against a detection list.

        Returns per-track lists of indices into ``dets``.
        """
        if not tracks or not dets:
            return {}
        pairs = build_candidates(
            tracks, dets, self.config, gate_similarity=gate_similarity
        )
        return resolve_conflicts(pairs, caps)

    def _predict_all(self, rts: list[_Runtime]) -> None:
        means = np.array([rt.kf_mean for rt in rts])
        covs = np.array([rt.kf_cov for rt in rts])
        means, covs = batch_predict(means, covs, self.config.process_noise)
        for k, rt in enumerate(rts):
            rt.kf_mean = means[k]
            rt.kf_cov = covs[k]

    def _fill_gap(self, rt: _Runtime, fi: int, anchor: Point | None) -> None:
        """Interpolate the frames a lost track skipped before this match."""
        if not self.config.use_kalman:
            return
        rt.track.entries.update(
            interpolate_gap(
                rt.anchor_mean,
                rt.last.box[2:],
                range(fi - rt.lost_count, fi),
                anchor_after=anchor,
                cell_class=rt.last.cell_class,
            )
        )

    def _extend(
        self,
        rt: _Runtime,
        fi: int,
        det: Detection,
        provenance: Provenance = Provenance.OBSERVED_HIGH,
    ) -> None:
        if rt.last.cell_class is CellClass.DEAD and det.cell_class is CellClass.ALIVE:
            raise AssertionError("dead track offered a living detection")
        if rt.lost_count >= 1:
            self._fill_gap(rt, fi, det.centroid)
        rt.track.entries[fi] = _entry_from_detection(det, provenance)
        rt.last = det
        rt.lost_count = 0
        if self.config.use_kalman:
            self._pending_updates.append(rt)

    def _update_matched(self) -> None:
        """Fold this frame's matched centroids into their filters at once.

        Deferring is safe: a track is matched at most once per frame, and
        later stages read the filter only of tracks that went unmatched.
        """
        rts = self._pending_updates
        if not rts:
            return
        means, covs = batch_update(
            np.array([rt.kf_mean for rt in rts]),
            np.array([rt.kf_cov for rt in rts]),
            np.array([rt.last.centroid for rt in rts]),
            self.config.measurement_noise,
        )
        for k, rt in enumerate(rts):
            rt.kf_mean = rt.anchor_mean = means[k]
            rt.kf_cov = covs[k]
        rts.clear()

    def _divide(self, rt: _Runtime, fi: int, dets: list[Detection]) -> None:
        if rt.lost_count >= 1:
            anchor = (
                float(np.mean([d.centroid[0] for d in dets])),
                float(np.mean([d.centroid[1] for d in dets])),
            )
            self._fill_gap(rt, fi, anchor)
        track = rt.track
        track.end_reason = EndReason.DIVISION
        del self._open[track.track_id]
        self._done.append(track)
        for det in dets:
            child = self._new_track(fi, det, parent=track.track_id)
            track.children.append(child.track.track_id)

    def _new_track(
        self, fi: int, det: Detection, parent: int | None = None
    ) -> _Runtime:
        tid = self._next_id
        self._next_id += 1
        rt = self._open[tid] = _Runtime(tid, fi, det, self.config, parent=parent)
        return rt

    def _close(self, rt: _Runtime, reason: EndReason) -> None:
        track = rt.track
        if track.death_event_frame() is not None:
            # A track that witnessed its death keeps that as its fate even
            # if the corpse is later lost.
            reason = EndReason.DEATH
        track.end_reason = reason
        del self._open[track.track_id]
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
