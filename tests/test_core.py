"""Domain primitives: geometry helpers, validation, forest invariants."""

import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from celltrack import (
    CellClass,
    Detection,
    EndReason,
    LineageForest,
    Provenance,
    Track,
    TrackEntry,
    TrackerConfig,
    ValidationError,
    centroid,
    embedding_l1,
    euclidean_distance,
    iou,
)
from conftest import bx, make_forest, make_track


def boxes_strategy():
    coord = st.floats(-50, 50, allow_nan=False)
    extent = st.floats(1, 40, allow_nan=False)
    return st.tuples(coord, coord, extent, extent)


class TestGeometry:
    def test_centroid(self):
        assert centroid((0.0, 0.0, 10.0, 20.0)) == (5.0, 10.0)

    def test_euclidean_distance(self):
        assert euclidean_distance((0, 0), (3, 4)) == 5.0

    def test_iou_identical(self):
        assert iou((1.0, 2.0, 8.0, 8.0), (1.0, 2.0, 8.0, 8.0)) == 1.0

    def test_iou_disjoint(self):
        assert iou((0, 0, 5, 5), (10, 10, 5, 5)) == 0.0

    def test_iou_touching_edges_is_zero(self):
        assert iou((0, 0, 5, 5), (5, 0, 5, 5)) == 0.0

    def test_iou_half_shift(self):
        # Two 10x10 boxes offset by 5: intersection 50, union 150.
        assert iou((0, 0, 10, 10), (5, 0, 10, 10)) == pytest.approx(1 / 3)

    def test_iou_contained(self):
        # 4x4 inside 10x10: intersection 16, union 100.
        assert iou((0, 0, 10, 10), (3, 3, 4, 4)) == pytest.approx(0.16)

    @given(boxes_strategy(), boxes_strategy())
    def test_iou_symmetric_and_bounded(self, a, b):
        v = iou(a, b)
        assert v == iou(b, a)
        assert 0.0 <= v <= 1.0

    @given(boxes_strategy())
    def test_iou_self_is_one(self, a):
        # x + w then - x can lose a couple of ulps, so self-IoU is only
        # float-exact, never above 1.
        assert iou(a, a) == pytest.approx(1.0, abs=1e-12)
        assert iou(a, a) <= 1.0

    def test_embedding_l1(self):
        a = np.array([1.0, -2.0, 3.0])
        b = np.array([0.0, 0.0, 0.0])
        assert embedding_l1(a, b) == 6.0

    def test_embedding_l1_shape_mismatch(self):
        with pytest.raises(ValidationError):
            embedding_l1(np.zeros(3), np.zeros(4))


class TestDetection:
    def make(self, **kw):
        base = dict(
            frame_index=0,
            box=(0.0, 0.0, 10.0, 10.0),
            confidence=0.9,
            cell_class=CellClass.ALIVE,
            embedding=np.zeros(4),
        )
        base.update(kw)
        return Detection(**base)

    def test_valid(self):
        d = self.make()
        assert d.centroid == (5.0, 5.0)
        assert d.source_id is None

    def test_embedding_read_only(self):
        d = self.make()
        with pytest.raises(ValueError):
            d.embedding[0] = 1.0

    def test_negative_frame(self):
        with pytest.raises(ValidationError):
            self.make(frame_index=-1)

    def test_bad_confidence(self):
        with pytest.raises(ValidationError):
            self.make(confidence=1.5)
        with pytest.raises(ValidationError):
            self.make(confidence=-0.1)

    def test_degenerate_box(self):
        with pytest.raises(ValidationError):
            self.make(box=(0.0, 0.0, 0.0, 10.0))

    def test_non_finite_box(self):
        with pytest.raises(ValidationError):
            self.make(box=(0.0, math.nan, 10.0, 10.0))

    def test_empty_embedding(self):
        with pytest.raises(ValidationError):
            self.make(embedding=np.zeros(0))

    def test_non_finite_embedding(self):
        with pytest.raises(ValidationError):
            self.make(embedding=np.array([1.0, math.inf]))


class TestTrackerConfig:
    def test_defaults_valid(self):
        cfg = TrackerConfig()
        assert cfg.tau_high == 0.45
        assert cfg.tau_low == 0.25
        assert cfg.tau_dist == 50.0
        assert cfg.tau_sim == 65.0
        assert cfg.appearance_weight == 0.5
        assert cfg.memory_frames == 5
        assert cfg.max_daughters == 2
        assert cfg.use_kalman

    def test_threshold_ordering(self):
        with pytest.raises(ValidationError):
            TrackerConfig(tau_low=0.6, tau_high=0.4)

    def test_bad_gates(self):
        with pytest.raises(ValidationError):
            TrackerConfig(tau_dist=0.0)
        with pytest.raises(ValidationError):
            TrackerConfig(tau_sim=-1.0)

    def test_bad_weight(self):
        with pytest.raises(ValidationError):
            TrackerConfig(appearance_weight=1.5)

    def test_bad_memory(self):
        with pytest.raises(ValidationError):
            TrackerConfig(memory_frames=-1)

    def test_bad_daughters(self):
        with pytest.raises(ValidationError):
            TrackerConfig(max_daughters=0)

    def test_bad_noise(self):
        with pytest.raises(ValidationError):
            TrackerConfig(process_noise=0.0)

    @pytest.mark.parametrize(
        "field",
        [
            "tau_high",
            "tau_low",
            "tau_dist",
            "tau_sim",
            "appearance_weight",
            "process_noise",
            "measurement_noise",
        ],
    )
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_floats_must_be_finite(self, field, value):
        with pytest.raises(ValidationError, match=field):
            TrackerConfig(**{field: value})

    @pytest.mark.parametrize("field", ["memory_frames", "max_daughters"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, 2.5, 3.0, True])
    def test_counts_must_be_integers(self, field, value):
        with pytest.raises(ValidationError, match=field):
            TrackerConfig(**{field: value})

    def test_integral_floats_accepted(self):
        cfg = TrackerConfig(tau_dist=40, process_noise=np.float64(2.0))
        assert cfg.tau_dist == 40


class TestTrackEntry:
    def test_holds_exactly_the_entries_file_record(self):
        assert [f.name for f in fields(TrackEntry)] == [
            "box", "cell_class", "provenance",
        ]
        with pytest.raises(TypeError):
            TrackEntry(
                box=(0, 0, 5, 5),
                cell_class=CellClass.ALIVE,
                provenance=Provenance.OBSERVED_HIGH,
                embedding=np.zeros(3),
            )


class TestTrack:
    def test_frame_properties(self):
        t = make_track(1, 3, [bx(10, 10), bx(12, 10), bx(14, 10)])
        assert t.start_frame == 3
        assert t.last_frame == 5
        assert t.span() == 3

    def test_death_event_frame(self):
        t = make_track(
            1,
            0,
            [bx(10, 10)] * 4,
            classes=[
                CellClass.ALIVE,
                CellClass.ALIVE,
                CellClass.DEAD,
                CellClass.DEAD,
            ],
        )
        assert t.death_event_frame() == 2
        assert t.cell_class is CellClass.DEAD

    def test_death_event_needs_prior_life(self):
        # A track that is dead from its first frame records no event.
        t = make_track(1, 0, [bx(10, 10)] * 3, classes=CellClass.DEAD)
        assert t.death_event_frame() is None

    def test_no_death(self):
        t = make_track(1, 0, [bx(10, 10)] * 3)
        assert t.death_event_frame() is None

    def test_observed_frames_skip_interpolated(self):
        t = make_track(
            1,
            0,
            [bx(10, 10)] * 3,
            provenances=[
                Provenance.OBSERVED_HIGH,
                Provenance.INTERPOLATED,
                Provenance.OBSERVED_LOW,
            ],
        )
        assert t.observed_frames() == [0, 2]


class TestForestValidation:
    def valid_forest(self):
        parent = make_track(
            1,
            0,
            [bx(50, 50), bx(52, 50)],
            children=[2, 3],
            end_reason=EndReason.DIVISION,
        )
        d1 = make_track(2, 2, [bx(46, 50), bx(45, 50)], parent=1)
        d2 = make_track(3, 2, [bx(58, 50), bx(59, 50)], parent=1)
        return make_forest(parent, d1, d2)

    def test_valid_passes(self):
        self.valid_forest().validate()

    def test_roots(self):
        forest = self.valid_forest()
        assert [t.track_id for t in forest.roots()] == [1]

    def test_key_id_mismatch(self):
        forest = self.valid_forest()
        forest.tracks[9] = forest.tracks.pop(1)
        with pytest.raises(ValidationError):
            forest.validate()

    def test_empty_track(self):
        forest = self.valid_forest()
        forest.tracks[2].entries.clear()
        with pytest.raises(ValidationError):
            forest.validate()

    def test_frame_gap_caught(self):
        t = make_track(1, 0, [bx(10, 10)] * 4)
        del t.entries[2]
        forest = make_forest(t, frames=4)
        with pytest.raises(ValidationError):
            forest.validate()
        forest.validate(require_coverage=False)

    def test_entry_beyond_video(self):
        t = make_track(1, 0, [bx(10, 10)] * 4)
        forest = make_forest(t, frames=3)
        with pytest.raises(ValidationError):
            forest.validate()

    def test_dead_is_absorbing(self):
        t = make_track(
            1,
            0,
            [bx(10, 10)] * 3,
            classes=[CellClass.ALIVE, CellClass.DEAD, CellClass.ALIVE],
        )
        with pytest.raises(ValidationError):
            make_forest(t).validate()

    def test_missing_parent(self):
        forest = self.valid_forest()
        forest.tracks[2].parent = 42
        with pytest.raises(ValidationError):
            forest.validate()

    def test_parent_must_list_child(self):
        forest = self.valid_forest()
        forest.tracks[1].children.remove(2)
        with pytest.raises(ValidationError):
            forest.validate()

    def test_child_must_point_back(self):
        forest = self.valid_forest()
        forest.tracks[2].parent = None
        with pytest.raises(ValidationError):
            forest.validate()

    def test_division_adjacency(self):
        # Daughter starting two frames after the parent's end is rejected
        # unless adjacency is relaxed.
        parent = make_track(
            1,
            0,
            [bx(50, 50), bx(52, 50)],
            children=[2],
            end_reason=EndReason.DIVISION,
        )
        late = make_track(2, 4, [bx(46, 50), bx(45, 50)], parent=1)
        forest = make_forest(parent, late, frames=6)
        with pytest.raises(ValidationError):
            forest.validate()
        forest.validate(require_adjacency=False)

    def test_self_parent(self):
        t = make_track(1, 0, [bx(10, 10)])
        t.parent = 1
        t.children = [1]
        with pytest.raises(ValidationError):
            make_forest(t).validate()

    def test_divided_and_died_is_contradictory(self):
        forest = self.valid_forest()
        bad = forest.tracks[1]
        bad.entries[1] = TrackEntry(
            box=bad.entries[1].box,
            cell_class=CellClass.DEAD,
            provenance=Provenance.OBSERVED_HIGH,
        )
        with pytest.raises(ValidationError):
            forest.validate()
