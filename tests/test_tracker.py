"""Association engine: gating, conflicts, divisions, deaths, memory."""

import numpy as np
import pytest

from celltrack import (
    CellClass,
    CellTracker,
    Detection,
    EndReason,
    Provenance,
    TrackerConfig,
    TrackStatus,
    ValidationError,
    VideoMeta,
    pair_cost,
    save_forest,
    track_video,
)
from celltrack.tracker import _Runtime, build_candidates, resolve_conflicts
from conftest import bx

CFG = TrackerConfig()


def det(frame, cx, cy, conf=0.9, cls=CellClass.ALIVE, emb=(0.0, 0.0, 0.0, 0.0)):
    return Detection(
        frame_index=frame,
        box=bx(cx, cy),
        confidence=conf,
        cell_class=cls,
        embedding=np.array(emb, dtype=float),
    )


def ref(tid, cx, cy, emb=(0.0, 0.0, 0.0, 0.0)):
    return _Runtime(tid, 0, det(0, cx, cy, emb=emb), CFG)


def run(frames, config=CFG, **kw):
    engine = CellTracker(config, **kw)
    for fi, dets in enumerate(frames):
        engine.step(fi, dets)
    return engine


class TestPairCost:
    def test_unit_identity_at_both_gates(self):
        # A pair sitting exactly on the appearance and distance gates costs
        # exactly 1.0 under the default equal weighting.
        assert pair_cost(CFG.tau_sim, CFG.tau_dist, CFG) == 1.0

    def test_zero(self):
        assert pair_cost(0.0, 0.0, CFG) == 0.0

    def test_halfway(self):
        assert pair_cost(CFG.tau_sim / 2, CFG.tau_dist / 2, CFG) == pytest.approx(0.5)

    def test_weight_extremes(self):
        only_sim = TrackerConfig(appearance_weight=1.0)
        only_dist = TrackerConfig(appearance_weight=0.0)
        assert pair_cost(32.5, 999.0, only_sim) == pytest.approx(0.5)
        assert pair_cost(999.0, 25.0, only_dist) == pytest.approx(0.5)


class TestBuildCandidates:
    def test_distance_gate(self):
        # 51 px away: outside the 50 px gate.
        pairs = build_candidates([ref(1, 0, 0)], [det(0, 51, 0)], CFG)
        assert pairs == []
        pairs = build_candidates([ref(1, 0, 0)], [det(0, 49, 0)], CFG)
        assert len(pairs) == 1

    def test_similarity_gate(self):
        far_emb = (20.0, 20.0, 20.0, 20.0)  # L1 = 80 > 65
        pairs = build_candidates([ref(1, 0, 0)], [det(0, 10, 0, emb=far_emb)], CFG)
        assert pairs == []
        pairs = build_candidates(
            [ref(1, 0, 0)], [det(0, 10, 0, emb=far_emb)], CFG, gate_similarity=False
        )
        assert len(pairs) == 1
        assert pairs[0][0] == pytest.approx(pair_cost(80.0, 10.0, CFG))

    def test_cost_matches_pair_cost(self):
        emb = (10.0, 0.0, 0.0, 0.0)
        pairs = build_candidates([ref(1, 0, 0)], [det(0, 30, 40, emb=emb)], CFG)
        assert len(pairs) == 1
        cost, tid, di = pairs[0]
        assert (tid, di) == (1, 0)
        assert cost == pytest.approx(pair_cost(10.0, 50.0, CFG))

    def test_embedding_length_mismatch(self):
        with pytest.raises(ValidationError):
            build_candidates(
                [ref(1, 0, 0, emb=(0.0, 0.0))], [det(0, 10, 0)], CFG
            )

    def test_empty_inputs(self):
        assert build_candidates([], [det(0, 0, 0)], CFG) == []
        assert build_candidates([ref(1, 0, 0)], [], CFG) == []


class TestResolveConflicts:
    def pair(self, tid, di, cost):
        return (cost, tid, di)

    def test_cheapest_wins(self):
        out = resolve_conflicts(
            [self.pair(1, 0, 0.9), self.pair(2, 0, 0.1)], 1
        )
        assert out == {2: [0]}

    def test_tie_breaks_by_track_then_det(self):
        out = resolve_conflicts(
            [self.pair(2, 0, 0.5), self.pair(1, 0, 0.5)], 1
        )
        assert out == {1: [0]}
        out = resolve_conflicts(
            [self.pair(1, 1, 0.5), self.pair(1, 0, 0.5)], 1
        )
        assert out == {1: [0]}

    def test_per_track_cap(self):
        pairs = [self.pair(1, i, 0.1 * (i + 1)) for i in range(3)]
        assert resolve_conflicts(pairs, 2) == {1: [0, 1]}
        assert resolve_conflicts(pairs, {1: 1}) == {1: [0]}

    def test_loser_takes_next_detection(self):
        pairs = [
            self.pair(1, 0, 0.1),
            self.pair(2, 0, 0.2),
            self.pair(2, 1, 0.8),
        ]
        assert resolve_conflicts(pairs, 1) == {1: [0], 2: [1]}


class TestContinuation:
    def test_single_cell(self):
        engine = run(
            [[det(0, 50, 50)], [det(1, 52, 50)], [det(2, 54, 50)]]
        )
        forest = engine.finalize()
        assert set(forest.tracks) == {1}
        track = forest.tracks[1]
        assert sorted(track.entries) == [0, 1, 2]
        assert track.status is TrackStatus.CLOSED
        assert track.end_reason is EndReason.END_OF_VIDEO
        assert all(
            e.provenance is Provenance.OBSERVED_HIGH
            for e in track.entries.values()
        )

    def test_two_cells_stay_apart(self):
        a = (0.0, 0.0, 0.0, 0.0)
        b = (50.0, 50.0, 50.0, 50.0)  # L1 200 from a
        frames = [
            [det(0, 50, 50, emb=a), det(0, 80, 50, emb=b)],
            [det(1, 52, 50, emb=a), det(1, 78, 50, emb=b)],
        ]
        forest = run(frames).finalize()
        assert len(forest.tracks) == 2
        for track in forest.tracks.values():
            boxes = [track.entries[f].box for f in sorted(track.entries)]
            # Each track follows one cell: x moves by 2, never by 28.
            assert abs(boxes[1][0] - boxes[0][0]) < 5

    def test_crossing_resolved_by_appearance(self):
        # Two cells pass close by; embeddings keep identities straight.
        a = (0.0, 0.0, 0.0, 0.0)
        b = (30.0, 30.0, 0.0, 0.0)  # L1 60: inside the gate, but costly
        frames = [
            [det(0, 40, 50, emb=a), det(0, 60, 50, emb=b)],
            [det(1, 49, 50, emb=a), det(1, 51, 50, emb=b)],
            [det(2, 60, 50, emb=a), det(2, 40, 50, emb=b)],
        ]
        forest = run(frames).finalize()
        assert len(forest.tracks) == 2
        by_start = {
            t.entries[0].box[0] + 5.0: t for t in forest.tracks.values()
        }
        left = by_start[40.0]
        assert left.entries[2].box[0] + 5.0 == 60.0


class TestDivision:
    def test_two_daughters(self):
        frames = [
            [det(0, 50, 50)],
            [det(1, 43, 50), det(1, 57, 50)],
            [det(2, 41, 50), det(2, 59, 50)],
        ]
        forest = run(frames).finalize()
        assert set(forest.tracks) == {1, 2, 3}
        parent = forest.tracks[1]
        assert parent.status is TrackStatus.DIVIDED
        assert parent.end_reason is EndReason.DIVISION
        assert parent.children == [2, 3]
        assert parent.last_frame == 0
        for cid in (2, 3):
            child = forest.tracks[cid]
            assert child.parent == 1
            assert child.start_frame == 1
            assert sorted(child.entries) == [1, 2]
        forest.validate()

    def test_at_most_two_daughters(self):
        # Three nearby detections: the division cap leaves one to start
        # a fresh unparented track.
        frames = [
            [det(0, 50, 50)],
            [det(1, 44, 50), det(1, 56, 50), det(1, 50, 44)],
        ]
        forest = run(frames).finalize()
        assert len(forest.tracks) == 4
        children = forest.tracks[1].children
        assert len(children) == 2
        orphans = [
            t for t in forest.tracks.values()
            if t.parent is None and t.track_id != 1
        ]
        assert len(orphans) == 1

    def test_division_prefers_cheapest_pair(self):
        far = (15.0, 15.0, 15.0, 15.0)  # L1 60: admissible but expensive
        frames = [
            [det(0, 50, 50)],
            [det(1, 45, 50), det(1, 55, 50), det(1, 50, 60, emb=far)],
        ]
        forest = run(frames).finalize()
        kept = [
            forest.tracks[c].entries[1].box for c in forest.tracks[1].children
        ]
        centers = sorted((b[0] + 5.0, b[1] + 5.0) for b in kept)
        assert centers == [(45.0, 50.0), (55.0, 50.0)]


class TestDeathAndCorpses:
    def test_death_event(self):
        shifted = (30.0, 30.0, 30.0, 30.0)  # L1 120: outside the sim gate
        frames = [
            [det(0, 50, 50)],
            [det(1, 52, 50)],
            [det(2, 53, 50, cls=CellClass.DEAD, emb=shifted)],
            [det(3, 53, 50, cls=CellClass.DEAD, emb=shifted)],
        ]
        forest = run(frames).finalize()
        assert set(forest.tracks) == {1}
        track = forest.tracks[1]
        assert track.status is TrackStatus.DEAD
        assert track.end_reason is EndReason.DEATH
        assert track.death_event_frame() == 2
        assert track.entries[3].cell_class is CellClass.DEAD
        forest.validate()

    def test_dead_track_ignores_living_detections(self):
        frames = [
            [det(0, 50, 50)],
            [det(1, 50, 50, cls=CellClass.DEAD)],
            [det(2, 50, 50)],  # alive again at the same spot
        ]
        forest = run(frames).finalize()
        assert len(forest.tracks) == 2
        corpse = forest.tracks[1]
        assert corpse.entries[1].cell_class is CellClass.DEAD
        assert 2 not in corpse.entries
        newborn = forest.tracks[2]
        assert newborn.start_frame == 2
        assert newborn.entries[2].cell_class is CellClass.ALIVE

    def test_corpse_continuation_prefers_similarity(self):
        # Two corpses; embeddings disambiguate which track follows which.
        a = (0.0, 0.0, 0.0, 0.0)
        b = (30.0, 30.0, 0.0, 0.0)
        frames = [
            [
                det(0, 40, 50, cls=CellClass.DEAD, emb=a),
                det(0, 60, 50, cls=CellClass.DEAD, emb=b),
            ],
            [
                det(1, 49, 50, cls=CellClass.DEAD, emb=a),
                det(1, 51, 50, cls=CellClass.DEAD, emb=b),
            ],
        ]
        forest = run(frames).finalize()
        assert len(forest.tracks) == 2
        followed = {
            (t.entries[0].box, t.entries[1].box) for t in forest.tracks.values()
        }
        assert followed == {(bx(40, 50), bx(49, 50)), (bx(60, 50), bx(51, 50))}


class TestLowConfidence:
    def test_stage_two_reidentifies(self):
        frames = [
            [det(0, 50, 50)],
            [det(1, 52, 50, conf=0.3)],
            [det(2, 54, 50)],
        ]
        forest = run(frames).finalize()
        assert set(forest.tracks) == {1}
        entry = forest.tracks[1].entries[1]
        assert entry.provenance is Provenance.OBSERVED_LOW

    def test_low_confidence_never_starts_tracks(self):
        forest = run([[det(0, 50, 50, conf=0.3)], []]).finalize()
        assert forest.tracks == {}

    def test_below_tau_low_is_invisible(self):
        frames = [
            [det(0, 50, 50)],
            [det(1, 52, 50, conf=0.1)],
            [det(2, 54, 50)],
        ]
        forest = run(frames).finalize()
        track = forest.tracks[1]
        # Frame 1's detection was dropped; the gap was interpolated.
        assert track.entries[1].provenance is Provenance.INTERPOLATED

    def test_high_conf_track_beats_new_track_for_low_det(self):
        # A low-confidence detection near an unmatched track is consumed
        # by stage 2, so no spurious track appears.
        frames = [
            [det(0, 50, 50)],
            [det(1, 53, 50, conf=0.26)],
        ]
        forest = run(frames).finalize()
        assert set(forest.tracks) == {1}
        assert len(forest.tracks[1].entries) == 2


class TestMemoryBank:
    def test_reidentified_within_memory(self):
        frames = [
            [det(0, 50, 50)],
            [det(1, 52, 50)],
            [],
            [],
            [det(4, 58, 50)],
        ]
        forest = run(frames).finalize()
        assert set(forest.tracks) == {1}
        track = forest.tracks[1]
        assert sorted(track.entries) == [0, 1, 2, 3, 4]
        assert track.entries[2].provenance is Provenance.INTERPOLATED
        assert track.entries[3].provenance is Provenance.INTERPOLATED
        assert track.entries[4].provenance is Provenance.OBSERVED_HIGH

    def test_interpolation_rejoins_smoothly(self):
        frames = [
            [det(0, 40, 50)],
            [det(1, 44, 50)],
            [],
            [],
            [det(4, 56, 50)],
        ]
        forest = run(frames).finalize()
        xs = [
            forest.tracks[1].entries[f].box[0] + 5.0 for f in range(5)
        ]
        assert xs == sorted(xs)  # monotone rejoin, no backtracking
        assert max(abs(xs[i + 1] - xs[i]) for i in range(4)) < 8.0

    def test_closed_after_memory_expires(self):
        cfg = TrackerConfig(memory_frames=2)
        frames = [
            [det(0, 50, 50)],
            [],
            [],
            [],
            [det(4, 52, 50)],
        ]
        forest = run(frames, cfg).finalize()
        assert len(forest.tracks) == 2
        lost = forest.tracks[1]
        assert lost.end_reason is EndReason.LOST
        assert sorted(lost.entries) == [0]
        assert forest.tracks[2].start_frame == 4

    def test_memory_zero_closes_on_first_miss(self):
        cfg = TrackerConfig(memory_frames=0)
        frames = [[det(0, 50, 50)], [], [det(2, 52, 50)]]
        forest = run(frames, cfg).finalize()
        assert len(forest.tracks) == 2
        assert forest.tracks[1].end_reason is EndReason.LOST

    def test_lost_death_keeps_death_reason(self):
        # A track that died, then lost its corpse, still ends as DEATH.
        frames = [
            [det(0, 50, 50)],
            [det(1, 50, 50, cls=CellClass.DEAD, emb=(30.0, 30.0, 30.0, 30.0))],
            [],
            [],
        ]
        cfg = TrackerConfig(memory_frames=1)
        forest = run(frames, cfg).finalize()
        track = forest.tracks[1]
        assert track.end_reason is EndReason.DEATH
        assert track.status is TrackStatus.DEAD

    def test_born_dead_then_lost_ends_lost(self):
        # A track born from a corpse never witnessed a death: losing it is
        # a plain loss, though its entries make it a dead track.
        frames = [[det(0, 50, 50, cls=CellClass.DEAD)], [], []]
        cfg = TrackerConfig(memory_frames=1)
        forest = run(frames, cfg).finalize()
        track = forest.tracks[1]
        assert track.end_reason is EndReason.LOST
        assert track.status is TrackStatus.DEAD
        assert track.death_event_frame() is None

    def test_born_dead_open_at_end_ends_with_video(self):
        frames = [
            [det(0, 50, 50, cls=CellClass.DEAD)],
            [det(1, 50, 50, cls=CellClass.DEAD)],
        ]
        forest = run(frames).finalize()
        track = forest.tracks[1]
        assert sorted(track.entries) == [0, 1]
        assert track.end_reason is EndReason.END_OF_VIDEO
        assert track.status is TrackStatus.DEAD


class TestKalmanAblation:
    def test_gaps_left_open(self):
        cfg = TrackerConfig(use_kalman=False)
        frames = [
            [det(0, 50, 50)],
            [det(1, 52, 50)],
            [],
            [det(3, 54, 50)],
        ]
        forest = run(frames, cfg).finalize()
        assert set(forest.tracks) == {1}
        assert sorted(forest.tracks[1].entries) == [0, 1, 3]

    def test_reacquired_at_last_position(self):
        cfg = TrackerConfig(use_kalman=False)
        frames = [
            [det(0, 50, 50)],
            [],
            [det(2, 90, 50)],  # 40 px from last observation: in gate
        ]
        forest = run(frames, cfg).finalize()
        assert set(forest.tracks) == {1}
        frames2 = [
            [det(0, 50, 50)],
            [],
            [det(2, 105, 50)],  # 55 px: out of gate, new track
        ]
        forest2 = run(frames2, cfg).finalize()
        assert len(forest2.tracks) == 2


class TestEngineContracts:
    def noisy_frames(self, seed=0, frames=30, cells=6):
        rng = np.random.default_rng(seed)
        pos = rng.uniform(60, 400, (cells, 2))
        emb = rng.uniform(-12, 12, (cells, 4))
        out = []
        for f in range(frames):
            dets = []
            for c in range(cells):
                pos[c] += rng.normal(0, 2, 2)
                conf = 0.9 if rng.random() > 0.2 else 0.3
                dets.append(
                    Detection(
                        frame_index=f,
                        box=bx(pos[c][0], pos[c][1]),
                        confidence=conf,
                        cell_class=CellClass.ALIVE,
                        embedding=emb[c] + rng.normal(0, 0.1, 4),
                    )
                )
            out.append(dets)
        return out

    def test_deterministic(self, tmp_path):
        frames = self.noisy_frames()
        f1 = run(frames).finalize()
        f2 = run(frames).finalize()
        p1 = save_forest(f1, str(tmp_path / "a"))
        p2 = save_forest(f2, str(tmp_path / "b"))
        assert open(p1[0]).read() == open(p2[0]).read()
        assert open(p1[1]).read() == open(p2[1]).read()

    def test_detections_consumed_at_most_once(self):
        engine = CellTracker(record_usage=True)
        frames = self.noisy_frames(seed=3)
        for fi, dets in enumerate(frames):
            engine.step(fi, dets)
        forest = engine.finalize()
        assert sorted(engine.usage_log) == list(range(len(frames)))
        for fi, uses in engine.usage_log.items():
            indices = [i for i, _ in uses]
            assert len(indices) == len(set(indices))
            # Complete: every observed entry was logged as a use.
            observed = sum(
                fi in t.entries
                and t.entries[fi].provenance is not Provenance.INTERPOLATED
                for t in forest.tracks.values()
            )
            assert len(indices) == observed

    def test_frames_must_arrive_in_order(self):
        engine = CellTracker()
        engine.step(0, [det(0, 50, 50)])
        with pytest.raises(ValidationError):
            engine.step(2, [])

    def test_detection_frame_tag_checked(self):
        engine = CellTracker()
        with pytest.raises(ValidationError):
            engine.step(0, [det(3, 50, 50)])

    def test_embedding_dim_change_rejected(self):
        engine = CellTracker()
        engine.step(0, [det(0, 50, 50)])
        with pytest.raises(ValidationError):
            engine.step(
                1,
                [
                    Detection(
                        frame_index=1,
                        box=bx(52, 50),
                        confidence=0.9,
                        cell_class=CellClass.ALIVE,
                        embedding=np.zeros(7),
                    )
                ],
            )

    def test_track_video_wrapper(self):
        frames = [[det(0, 50, 50)], [det(1, 52, 50)]]
        forest = track_video(frames)
        assert set(forest.tracks) == {1}
        assert forest.meta.frames == 2

    def test_track_video_leaves_the_callers_meta_alone(self):
        # One VideoMeta() reused for a 1-frame and then a 2-frame video:
        # each forest counts its own frames and the caller's object keeps 0.
        meta = VideoMeta()
        one = track_video([[det(0, 50, 50)]], meta=meta)
        two = track_video([[det(0, 50, 50)], [det(1, 52, 50)]], meta=meta)
        assert (one.meta.frames, two.meta.frames, meta.frames) == (1, 2, 0)
        assert two.tracks[1].last_frame == 1
