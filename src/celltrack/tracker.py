"""Two-stage tracking-by-detection with division and death events.

Per frame the engine runs:

1. confidence partition of the frame's detections (high / low / dropped);
2. stage 1 — living tracks against high-confidence alive detections, and
   dead tracks against high-confidence dead detections, both under the
   spatial and appearance gates;
3. death matching — living tracks left over from stage 1 against the
   remaining high-confidence dead detections, spatial gate only;
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
from .ingest import partition_by_confidence
from .kalman import (
    KalmanState,
    batch_predict,
    batch_update,
    interpolate_gap,
    kf_init,
)

__all__ = [
    "pair_cost",
    "build_candidates",
    "resolve_conflicts",
    "CellTracker",
    "track_video",
]


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
    class the matcher needs, and its ``frame_index`` is where a gap
    starts.  The rest is: ``lost_count``, the consecutive frames without
    a match; the Kalman filter ``kf_mean``/``kf_cov``, predicted every
    frame; and the ``anchor_mean``/``anchor_cov`` filter state at the
    last observation, from which gaps are interpolated.  Without Kalman
    all four are None.
    """

    __slots__ = (
        "track",
        "last",
        "lost_count",
        "kf_mean",
        "kf_cov",
        "anchor_mean",
        "anchor_cov",
    )

    def __init__(
        self,
        track_id: int,
        frame_index: int,
        det: Detection,
        config: TrackerConfig,
        parent: int | None = None,
    ) -> None:
        self.track = Track(
            track_id=track_id,
            entries={frame_index: _entry_from_detection(det)},
            parent=parent,
        )
        self.last = det
        self.lost_count = 0
        self.kf_mean = self.kf_cov = None
        if config.use_kalman:
            state = kf_init(det.centroid, config)
            self.kf_mean, self.kf_cov = state.mean.copy(), state.cov.copy()
        self.anchor_mean, self.anchor_cov = self.kf_mean, self.kf_cov

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

    The spatial gate ``distance <= tau_dist`` always applies; the
    appearance gate ``similarity <= tau_sim`` is skipped for death
    matching, where appearance is unreliable but the cost still ranks
    candidates.
    """
    if not tracks or not detections:
        return []
    pos = np.array([t.position for t in tracks])
    cen = np.array([d.centroid for d in detections])
    dx = pos[:, 0:1] - cen[None, :, 0]
    dy = pos[:, 1:2] - cen[None, :, 1]
    dist = np.hypot(dx, dy)
    ti, di = np.nonzero(dist <= config.tau_dist)
    if ti.size == 0:
        return []
    emb_t = np.array([t.last.embedding for t in tracks])
    emb_d = np.array([d.embedding for d in detections])
    if emb_t.shape[1] != emb_d.shape[1]:
        raise ValidationError(
            f"embedding length mismatch: tracks {emb_t.shape[1]} vs "
            f"detections {emb_d.shape[1]}"
        )
    sim = np.abs(emb_t[ti] - emb_d[di]).sum(axis=1)
    if gate_similarity:
        keep = sim <= config.tau_sim
        ti, di, sim = ti[keep], di[keep], sim[keep]
        if ti.size == 0:
            return []
    cost = pair_cost(sim, dist[ti, di], config)
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
    return TrackEntry(
        box=det.box, cell_class=det.cell_class, provenance=provenance
    )


class CellTracker:
    """Stateful engine; feed frames in order, then finalize."""

    def __init__(self, config: TrackerConfig | None = None, record_usage: bool = False):
        self.config = config or TrackerConfig()
        self._open: dict[int, _Runtime] = {}
        # Closed tracks in closing order, which is the forest's key order.
        self._done: list[Track] = []
        self._next_id = 1
        self._next_frame = 0
        self._dim: int | None = None
        self._pending_updates: list[_Runtime] = []
        self.record_usage = record_usage
        # frame -> list of (index into the frame's detection list, consumer)
        self.usage_log: dict[int, list[tuple[int, str]]] = {}
        # id(detection) -> its index in the current frame, when recording
        self._det_pos: dict[int, int] | None = None

    # -- public API ---------------------------------------------------------

    def step(self, frame_index: int, detections: Sequence[Detection]) -> None:
        if frame_index != self._next_frame:
            raise ValidationError(
                f"frames must be fed in order: expected {self._next_frame}, "
                f"got {frame_index}"
            )
        for det in detections:
            if det.frame_index != frame_index:
                raise ValidationError(
                    f"detection tagged frame {det.frame_index} fed at "
                    f"frame {frame_index}"
                )
            if self._dim is None:
                self._dim = det.embedding.size
            elif det.embedding.size != self._dim:
                raise ValidationError(
                    f"embedding length changed from {self._dim} to "
                    f"{det.embedding.size} at frame {frame_index}"
                )
        if self.record_usage:
            self._det_pos = {id(d): i for i, d in enumerate(detections)}
            self.usage_log[frame_index] = []
        self._process(frame_index, list(detections))
        self._next_frame += 1

    def finalize(self, meta: VideoMeta | None = None) -> LineageForest:
        """Close everything still open and emit the lineage forest."""
        for rt in list(self._open.values()):
            self._close(rt, EndReason.END_OF_VIDEO)
        for track in self._done:
            track.entries = dict(sorted(track.entries.items()))
            track.children.sort()
        if meta is None:
            meta = VideoMeta(frames=self._next_frame)
        forest = LineageForest(
            tracks={track.track_id: track for track in self._done}, meta=meta
        )
        forest.validate(
            require_coverage=self.config.use_kalman,
            require_adjacency=True,
        )
        return forest

    # -- internals ----------------------------------------------------------

    def _process(self, fi: int, detections: list[Detection]) -> None:
        cfg = self.config
        high, low, _ = partition_by_confidence(detections, cfg)

        open_rts = list(self._open.values())
        if cfg.use_kalman and open_rts:
            self._predict_all(open_rts)

        living = [rt for rt in open_rts if rt.last.cell_class is CellClass.ALIVE]
        dead = [rt for rt in open_rts if rt.last.cell_class is CellClass.DEAD]
        high_alive = [j for j, d in enumerate(high) if d.cell_class is CellClass.ALIVE]
        high_dead = [j for j, d in enumerate(high) if d.cell_class is CellClass.DEAD]

        matched: set[int] = set()
        claimed_high: set[int] = set()

        # Stage 1: living tracks vs high-confidence alive detections.  A
        # lost track may only divide when interpolation can reconnect the
        # parent, otherwise it re-identifies a single detection.
        caps = {
            rt.track.track_id: (
                cfg.max_daughters
                if rt.lost_count == 0 or cfg.use_kalman
                else 1
            )
            for rt in living
        }
        assign_living = self._match(
            living, high, high_alive, caps, gate_similarity=True
        )
        # Corpse continuation: dead tracks follow dead detections, one each.
        assign_corpse = self._match(
            dead, high, high_dead, 1, gate_similarity=True
        )

        # Death matching: living tracks that found no living detection vs
        # dead detections nobody continues.  Spatial gate only.
        unmatched_living = [
            rt for rt in living if rt.track.track_id not in assign_living
        ]
        corpse_taken = {j for js in assign_corpse.values() for j in js}
        free_dead = [j for j in high_dead if j not in corpse_taken]
        assign_death = self._match(
            unmatched_living, high, free_dead, 1, gate_similarity=False
        )

        by_id = {rt.track.track_id: rt for rt in open_rts}
        for tid, indices in assign_living.items():
            rt = by_id[tid]
            if len(indices) == 1:
                self._extend(rt, fi, high[indices[0]])
            else:
                self._divide(rt, fi, [high[j] for j in indices])
            matched.add(tid)
            claimed_high.update(indices)
        for tid, indices in [*assign_corpse.items(), *assign_death.items()]:
            self._extend(by_id[tid], fi, high[indices[0]])
            matched.add(tid)
            claimed_high.update(indices)

        # Stage 2: whatever is still open and unmatched (current frame
        # misses and the whole memory bank) gets one shot at the
        # low-confidence detections of its own class.
        remaining = [rt for rt in open_rts if rt.track.track_id not in matched]
        low_alive = [j for j, d in enumerate(low) if d.cell_class is CellClass.ALIVE]
        low_dead = [j for j, d in enumerate(low) if d.cell_class is CellClass.DEAD]
        rem_living = [rt for rt in remaining if rt.last.cell_class is CellClass.ALIVE]
        rem_dead = [rt for rt in remaining if rt.last.cell_class is CellClass.DEAD]
        assign_low = self._match(
            rem_living, low, low_alive, 1, gate_similarity=True
        )
        assign_low.update(
            self._match(rem_dead, low, low_dead, 1, gate_similarity=True)
        )
        for tid, indices in assign_low.items():
            self._extend(by_id[tid], fi, low[indices[0]], Provenance.OBSERVED_LOW)
            matched.add(tid)
        self._update_matched()

        # Fresh tracks from high-confidence detections nobody claimed.
        for j, det in enumerate(high):
            if j not in claimed_high:
                self._new_track(fi, det)

        # Memory aging: a track may miss up to memory_frames consecutive
        # matching attempts; one more and it is closed.  Divided tracks
        # closed this frame are among the matched.
        for rt in open_rts:
            if rt.track.track_id in matched:
                continue
            rt.lost_count += 1
            if rt.lost_count > self.config.memory_frames:
                self._close(rt, EndReason.LOST)

    def _match(
        self,
        tracks: list[_Runtime],
        dets: list[Detection],
        det_indices: list[int],
        caps: int | Mapping[int, int],
        gate_similarity: bool,
    ) -> dict[int, list[int]]:
        """Gate + greedy-resolve a track pool against a detection subset.

        Returns per-track lists of indices into ``dets``.
        """
        if not tracks or not det_indices:
            return {}
        subset = [dets[j] for j in det_indices]
        pairs = build_candidates(
            tracks, subset, self.config, gate_similarity=gate_similarity
        )
        assignment = resolve_conflicts(pairs, caps)
        return {
            tid: [det_indices[j] for j in indices]
            for tid, indices in assignment.items()
        }

    def _predict_all(self, rts: list[_Runtime]) -> None:
        means = np.array([rt.kf_mean for rt in rts])
        covs = np.array([rt.kf_cov for rt in rts])
        means, covs = batch_predict(means, covs, self.config.process_noise)
        for k, rt in enumerate(rts):
            rt.kf_mean = means[k]
            rt.kf_cov = covs[k]

    def _fill_gap(self, rt: _Runtime, fi: int, anchor: Point | None) -> None:
        """Interpolate the frames a lost track skipped before this match."""
        last = rt.last
        if not self.config.use_kalman or fi <= last.frame_index + 1:
            return
        gap = range(last.frame_index + 1, fi)
        state = KalmanState(mean=rt.anchor_mean, cov=rt.anchor_cov)
        rt.track.entries.update(
            interpolate_gap(
                state,
                last.box[2:],
                gap,
                self.config,
                anchor_after=anchor,
                cell_class=last.cell_class,
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
        self._log_use(fi, det, f"track:{rt.track.track_id}")
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
            rt.kf_cov = rt.anchor_cov = covs[k]
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
        self._log_use(fi, det, f"init:{tid}")
        return rt

    def _log_use(self, fi: int, det: Detection, consumer: str) -> None:
        """Note that ``det`` became an entry, when usage is being recorded."""
        if self._det_pos is not None:
            self.usage_log[fi].append((self._det_pos[id(det)], consumer))

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
    """Track a whole video (list of per-frame detection lists)."""
    engine = CellTracker(config)
    for fi, dets in enumerate(frames):
        engine.step(fi, dets)
    if meta is not None and meta.frames == 0:
        meta = replace(meta, frames=len(frames))
    return engine.finalize(meta=meta)
