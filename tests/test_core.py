"""Domain primitives: geometry helpers, validation, forest invariants."""

import gc
import math
from dataclasses import astuple, fields

import numpy as np
import pytest
from hypothesis import given, settings
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
)
from celltrack.core import CELL_CLASSES, DetectionColumns, meeting_pairs
from celltrack.metrics import iou_matrix
from conftest import bx, make_forest, make_track


def pair_iou(a, b) -> float:
    """IoU of two boxes, as the scorers compute it."""
    return float(iou_matrix(np.array([a], dtype=float), np.array([b], dtype=float))[0, 0])


def boxes_strategy():
    coord = st.floats(-50, 50, allow_nan=False)
    extent = st.floats(1, 40, allow_nan=False)
    return st.tuples(coord, coord, extent, extent)


class TestGeometry:
    def test_centroid(self):
        assert centroid((0.0, 0.0, 10.0, 20.0)) == (5.0, 10.0)

    def test_iou_identical(self):
        assert pair_iou((1.0, 2.0, 8.0, 8.0), (1.0, 2.0, 8.0, 8.0)) == 1.0

    def test_iou_disjoint(self):
        assert pair_iou((0, 0, 5, 5), (10, 10, 5, 5)) == 0.0

    def test_iou_touching_edges_is_zero(self):
        assert pair_iou((0, 0, 5, 5), (5, 0, 5, 5)) == 0.0

    def test_iou_half_shift(self):
        # Two 10x10 boxes offset by 5: intersection 50, union 150.
        assert pair_iou((0, 0, 10, 10), (5, 0, 10, 10)) == pytest.approx(1 / 3)

    def test_iou_contained(self):
        # 4x4 inside 10x10: intersection 16, union 100.
        assert pair_iou((0, 0, 10, 10), (3, 3, 4, 4)) == pytest.approx(0.16)

    @given(boxes_strategy(), boxes_strategy())
    def test_iou_symmetric_and_bounded(self, a, b):
        v = pair_iou(a, b)
        assert v == pair_iou(b, a)
        assert 0.0 <= v <= 1.0

    @given(boxes_strategy())
    def test_iou_self_is_one(self, a):
        # x + w then - x can lose a couple of ulps, so self-IoU is only
        # float-exact, never above 1.
        assert pair_iou(a, a) == pytest.approx(1.0, abs=1e-12)
        assert pair_iou(a, a) <= 1.0


@st.composite
def rect_fields(draw):
    """Targets and queries as (group, x1, y1, x2, y2) rows on a coarse
    grid, so that edges coincide, and a band height of any kind."""
    coord = st.integers(-8, 8).map(lambda v: v / 2.0)

    def rects(n):
        out = []
        for _ in range(n):
            g, x, y = draw(st.integers(0, 2)), draw(coord), draw(coord)
            out.append((g, x, y, x + draw(coord.map(abs)), y + draw(coord.map(abs))))
        return np.array(out, dtype=float).reshape(-1, 5)

    band = draw(st.sampled_from([0.5, 1.0, 3.0, 5e-324, 1e308, 0.0, -1.0, math.nan]))
    return rects(draw(st.integers(1, 30))), rects(draw(st.integers(0, 12))), band


class TestMeetingPairs:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(rect_fields())
    def test_finds_every_meeting_pair_once(self, case):
        # The band height, even 0, negative or NaN, only sets where bands
        # are cut.
        targets, queries, band = case
        q, t = meeting_pairs(
            targets[:, 0].astype(np.int64), targets[:, 1:],
            queries[:, 0].astype(np.int64), queries[:, 1:], band,
        )
        found = list(zip(q.tolist(), t.tolist()))
        assert len(found) == len(set(found))
        assert all(queries[i, 0] == targets[j, 0] for i, j in found)
        meet = {
            (i, j)
            for i, (qg, qx1, qy1, qx2, qy2) in enumerate(queries)
            for j, (g, x1, y1, x2, y2) in enumerate(targets)
            if qg == g and x1 <= qx2 and qx1 <= x2 and y1 <= qy2 and qy1 <= y2
        }
        assert meet <= set(found)

    def test_nan_query_finds_nothing(self):
        targets = np.array([[0.0, 0.0, 1.0, 1.0]])
        queries = np.array([[math.nan, 0.0, 1.0, 1.0], [0.0, math.nan, 1.0, 1.0]])
        zero = np.zeros(1, dtype=np.int64)
        q, _ = meeting_pairs(zero, targets, np.zeros(2, dtype=np.int64), queries, 1.0)
        assert q.size == 0


class TestDetection:
    def record(self, **kw):
        base = dict(
            box=(0.0, 0.0, 10.0, 10.0),
            confidence=0.9,
            cell_class=CellClass.ALIVE,
            embedding=np.zeros(4),
        )
        base.update(kw)
        return base

    def make(self, **kw):
        return Detection(**self.record(**kw))

    def rejects(self, match=None, **kw):
        """``Detection(...)`` rejects these fields, and
        ``DetectionColumns.validate`` raises the same message when they make
        the first bad row, behind a good row and ahead of another bad one."""
        with pytest.raises(ValidationError, match=match) as direct:
            self.make(**kw)
        dim = len(kw.get("embedding", np.zeros(4)))
        rows = [
            self.record(embedding=np.zeros(dim)),
            self.record(**kw),
            self.record(confidence=math.nan, embedding=np.zeros(dim)),
        ]
        columns = DetectionColumns(
            offsets=np.array([0, 1, 3]),
            boxes=np.array([r["box"] for r in rows], dtype=float),
            confidences=np.array([r["confidence"] for r in rows], dtype=float),
            classes=np.array([CELL_CLASSES.index(r["cell_class"]) for r in rows]),
            embeddings=np.array([r["embedding"] for r in rows], dtype=float),
            source_ids=[None] * len(rows),
        )
        with pytest.raises(ValidationError) as checked:
            columns.validate()
        assert str(checked.value) == str(direct.value)

    def test_valid(self):
        d = self.make()
        assert d.centroid == (5.0, 5.0)
        assert d.source_id is None

    def test_embedding_read_only(self):
        d = self.make()
        with pytest.raises(ValueError):
            d.embedding[0] = 1.0

    def test_bad_confidence(self):
        self.rejects(confidence=1.5)
        self.rejects(confidence=-0.1)

    def test_degenerate_box(self):
        self.rejects(box=(0.0, 0.0, 0.0, 10.0))

    def test_non_finite_box(self):
        self.rejects(box=(0.0, math.nan, 10.0, 10.0))

    @pytest.mark.parametrize(
        "box", [(1e200, 0.0, 5.0, 5.0), (0.0, -1e200, 5.0, 5.0), (1.0, 0.0, 1e-300, 5.0)]
    )
    def test_size_lost_to_rounding(self, box):
        # x + w == x: the box would not overlap itself.
        self.rejects("size lost to rounding", box=box)

    def test_trusted_holds_the_same_fields(self):
        d = self.make(source_id=3)
        t = Detection.trusted(d.box, d.confidence, d.cell_class, d.embedding, 3)
        assert [getattr(t, f.name) for f in fields(Detection)] == [
            getattr(d, f.name) for f in fields(Detection)
        ]

    def test_empty_embedding(self):
        self.rejects(embedding=np.zeros(0))

    def test_non_finite_embedding(self):
        self.rejects(embedding=np.array([1.0, math.inf]))


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
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, True, False])
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


def tracked_per_record(make, count=3000) -> float:
    """GC-tracked objects that each of ``count`` calls of ``make`` leaves."""
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects(0))
        kept = [make() for _ in range(count)]
        return (len(gc.get_objects(0)) - before - 1) / len(kept)
    finally:
        gc.enable()


class TestTrustedRecords:
    # A record built through ``trusted`` is as light for the garbage
    # collector as a validated one: no instance dict rides along.
    def test_detection(self):
        emb = np.ones(4)
        emb.setflags(write=False)
        box = (1.0, 2.0, 5.0, 5.0)
        validated = tracked_per_record(
            lambda: Detection(box, 0.9, CellClass.ALIVE, emb, 7)
        )
        trusted = tracked_per_record(
            lambda: Detection.trusted(box, 0.9, CellClass.ALIVE, emb, 7)
        )
        assert trusted <= validated

    def test_track_entry(self):
        args = ((1.0, 2.0, 5.0, 5.0), CellClass.DEAD, Provenance.INTERPOLATED)
        validated = tracked_per_record(lambda: TrackEntry(*args))
        trusted = tracked_per_record(lambda: TrackEntry.trusted(*args))
        assert trusted <= validated


class TestTrackEntry:
    def test_size_lost_to_rounding(self):
        with pytest.raises(ValidationError, match="size lost to rounding"):
            TrackEntry((1e200, 0.0, 5.0, 5.0), CellClass.ALIVE, Provenance.OBSERVED_HIGH)

    def test_trusted_holds_the_same_fields(self):
        args = ((1.0, 2.0, 5.0, 5.0), CellClass.DEAD, Provenance.INTERPOLATED)
        assert astuple(TrackEntry.trusted(*args)) == astuple(TrackEntry(*args))

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
        with pytest.raises(ValidationError, match="track keyed 9 carries id 1"):
            forest.validate()

    def test_empty_track(self):
        forest = self.valid_forest()
        forest.tracks[2].entries.clear()
        with pytest.raises(ValidationError, match="^track 2 has no entries$"):
            forest.validate()

    def test_frame_gap_caught(self):
        t = make_track(1, 0, [bx(10, 10)] * 4)
        del t.entries[2]
        forest = make_forest(t, frames=4)
        with pytest.raises(ValidationError, match="track 1 has frame gaps"):
            forest.validate()
        forest.validate(require_coverage=False)

    def test_entry_beyond_video(self):
        t = make_track(1, 0, [bx(10, 10)] * 4)
        forest = make_forest(t, frames=3)
        with pytest.raises(
            ValidationError, match="track 1 has entries outside the video frame range"
        ):
            forest.validate()

    def test_zero_frames_admit_no_entry(self):
        forest = make_forest(make_track(1, 0, [bx(10, 10)]), frames=0)
        with pytest.raises(ValidationError, match="outside the video frame range"):
            forest.validate()
        make_forest(frames=0).validate()

    def test_dead_is_absorbing(self):
        t = make_track(
            1,
            0,
            [bx(10, 10)] * 3,
            classes=[CellClass.ALIVE, CellClass.DEAD, CellClass.ALIVE],
        )
        with pytest.raises(
            ValidationError, match="track 1 reverts to alive after death at frame 2"
        ):
            make_forest(t).validate()

    def test_missing_parent(self):
        forest = self.valid_forest()
        forest.tracks[1].children.remove(2)
        forest.tracks[2].parent = 42
        with pytest.raises(ValidationError, match="track 2 references missing parent 42"):
            forest.validate()

    def test_parent_must_list_child(self):
        forest = self.valid_forest()
        forest.tracks[1].children.remove(2)
        with pytest.raises(
            ValidationError, match="track 2 not listed among parent 1's children"
        ):
            forest.validate()

    def test_child_must_point_back(self):
        forest = self.valid_forest()
        forest.tracks[2].parent = None
        with pytest.raises(
            ValidationError, match="child 2 does not point back to parent 1"
        ):
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
        with pytest.raises(ValidationError, match="track 2 starts at 4, parent 1 ends at 1"):
            forest.validate()
        forest.validate(require_adjacency=False)

    def test_self_parent(self):
        t = make_track(1, 0, [bx(10, 10)])
        t.parent = 1
        t.children = [1]
        with pytest.raises(ValidationError, match="track 1 is its own parent"):
            make_forest(t).validate()

    def test_divided_and_died_is_contradictory(self):
        forest = self.valid_forest()
        bad = forest.tracks[1]
        bad.entries[1] = TrackEntry(
            box=bad.entries[1].box,
            cell_class=CellClass.DEAD,
            provenance=Provenance.OBSERVED_HIGH,
        )
        with pytest.raises(ValidationError, match="track 1 both divided and died"):
            forest.validate()
