"""Downstream lineage analyses: rates, correlations, durations, profiles."""

import csv
import hashlib
from dataclasses import replace

import pytest

from celltrack import (
    AnalysisFilter,
    CellClass,
    EndReason,
    SimulationConfig,
    TrackerConfig,
    ValidationError,
    ancestor_descendant_correlation,
    cell_size_series,
    event_rates,
    generation_index,
    load_detections,
    pearson,
    save_forest,
    sister_correlation,
    track_video,
)
from celltrack.analysis import (
    DivisionProfile,
    _leaf_paths,
    eligible_profiles,
    interdivision_records,
    sample_profiles,
    summarize_durations,
    track_mean_size,
    write_event_rates_csv,
    write_profiles_csv,
    write_sister_csv,
)
from celltrack.cli import _simulate_one, main
from celltrack.core import Provenance, TrackEntry
from conftest import bx, make_chain, make_forest, make_track


def area_boxes(areas, h=1.0):
    """Boxes whose w*h equals each requested area."""
    return [bx(50, 50, a / h, h) for a in areas]


class TestAnalysisFilter:
    def test_defaults(self):
        f = AnalysisFilter()
        assert (f.min_track_frames, f.max_generation,
                f.max_interdivision_frames) == (10, 5, 100)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"min_track_frames": 0},
            {"max_generation": -1},
            {"max_interdivision_frames": 0},
        ],
    )
    def test_rejects_non_positive(self, kwargs):
        with pytest.raises(ValidationError):
            AnalysisFilter(**kwargs)

    @pytest.mark.parametrize(
        "field",
        ["min_track_frames", "max_generation", "max_interdivision_frames"],
    )
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 2.5, 3.0, True])
    def test_rejects_non_integers(self, field, value):
        with pytest.raises(ValidationError, match=field):
            AnalysisFilter(**{field: value})


class TestGenerationIndex:
    def test_three_generations(self):
        forest = make_forest(
            make_track(1, 0, [bx(50, 50)] * 2, children=[2, 3]),
            make_track(2, 2, [bx(40, 50)] * 2, parent=1, children=[4, 5]),
            make_track(3, 2, [bx(60, 50)] * 4, parent=1),
            make_track(4, 4, [bx(35, 50)] * 2, parent=2),
            make_track(5, 4, [bx(45, 50)] * 2, parent=2),
            make_track(9, 0, [bx(90, 90)] * 6),
        )
        assert generation_index(forest) == {
            1: 0, 2: 1, 3: 1, 4: 2, 5: 2, 9: 0,
        }


def recursive_generation_index(forest):
    """Recursive reference for the iterative walk."""
    gens = {}

    def resolve(tid):
        if tid not in gens:
            parent = forest.tracks[tid].parent
            gens[tid] = 0 if parent is None else resolve(parent) + 1
        return gens[tid]

    for tid in forest.tracks:
        resolve(tid)
    return gens


def recursive_leaf_paths(forest):
    """Recursive reference for the iterative walk."""
    paths = []

    def walk(tid, prefix):
        path = prefix + [tid]
        children = forest.tracks[tid].children
        for child in sorted(children):
            walk(child, path)
        if not children:
            paths.append(path)

    for root in sorted(t.track_id for t in forest.roots()):
        walk(root, [])
    return paths


class TestDeepLineages:
    CHAIN = 1500  # deeper than the default recursion limit

    def small_tracks(self):
        return [
            make_track(1, 0, [bx(50, 50)] * 2, children=[2, 3],
                       end_reason=EndReason.DIVISION),
            make_track(2, 2, [bx(40, 50)] * 2, parent=1, children=[4, 5],
                       end_reason=EndReason.DIVISION),
            make_track(3, 2, [bx(60, 50)] * 4, parent=1,
                       end_reason=EndReason.END_OF_VIDEO),
            make_track(4, 4, [bx(35, 50)] * 2, parent=2,
                       end_reason=EndReason.END_OF_VIDEO),
            make_track(5, 4, [bx(45, 50)] * 2, parent=2,
                       end_reason=EndReason.END_OF_VIDEO),
            make_track(9, 0, [bx(90, 90)] * 6,
                       end_reason=EndReason.END_OF_VIDEO),
            make_track(7, 0, [bx(20, 90)] * 6,
                       end_reason=EndReason.END_OF_VIDEO),
        ]

    @pytest.mark.parametrize("order", [1, -1], ids=["parents_first", "children_first"])
    def test_small_forest_matches_recursion(self, order):
        forest = make_forest(*self.small_tracks()[::order])
        forest.tracks[2].children.reverse()  # the walk sorts them itself
        # Items, not just the dicts: callers see the same iteration order.
        gens = list(generation_index(forest).items())
        assert gens == list(recursive_generation_index(forest).items())
        paths = _leaf_paths(forest)
        assert paths == recursive_leaf_paths(forest)
        assert paths == [[1, 2, 4], [1, 2, 5], [1, 3], [7], [9]]

    @pytest.mark.parametrize("order", [1, -1], ids=["parents_first", "children_first"])
    def test_chain_deeper_than_recursion_limit(self, order):
        forest = make_forest(*make_chain(self.CHAIN)[::order])
        forest.validate()
        assert generation_index(forest) == {
            tid: tid - 1 for tid in range(1, self.CHAIN + 1)
        }
        assert _leaf_paths(forest) == [list(range(1, self.CHAIN + 1))]
        (prof,) = eligible_profiles([forest])
        assert prof.tracks == tuple(range(1, self.CHAIN + 1))
        assert prof.divisions == self.CHAIN - 1
        assert prof.events[-1] == (self.CHAIN - 1, "censored")

    def test_parent_cycle_rejected(self):
        forest = make_forest(*make_chain(3))
        forest.tracks[1].parent = 3
        with pytest.raises(ValidationError, match="cycle"):
            generation_index(forest)

    def test_child_cycle_rejected(self):
        forest = make_forest(*make_chain(3))
        forest.tracks[3].children = [2]
        with pytest.raises(ValidationError, match="cycle"):
            _leaf_paths(forest)


class TestEventRates:
    def forest(self):
        return make_forest(
            make_track(1, 0, [bx(50, 50)] * 5, children=[2, 3]),
            make_track(2, 5, [bx(40, 50)] * 5, parent=1),
            make_track(3, 5, [bx(60, 50)] * 5, parent=1),
            make_track(
                4, 0, [bx(90, 90)] * 10,
                classes=[CellClass.ALIVE] * 8 + [CellClass.DEAD] * 2,
            ),
            frames=10,
        )

    def test_hand_computed_bins(self):
        r = event_rates([self.forest()], bin_size=5)
        assert r.bin_starts == (0, 5)
        assert r.divisions == (0, 1)  # daughters appear at frame 5
        assert r.deaths == (0, 1)  # first dead frame is 8
        assert r.population == (2,) * 5 + (3,) * 5
        assert r.alive == (2, 2, 2, 2, 2, 3, 3, 3, 2, 2)
        assert r.division_rate[1] == pytest.approx(1 / 2.6)
        assert r.death_rate[1] == pytest.approx(1 / 2.6)
        assert r.division_rate[0] == r.death_rate[0] == 0.0

    def test_partial_final_bin(self):
        r = event_rates([self.forest()], bin_size=4)
        assert r.bin_starts == (0, 4, 8)
        assert sum(r.divisions) == 1 and sum(r.deaths) == 1

    def test_empty_forest(self):
        from celltrack import LineageForest

        r = event_rates([LineageForest(tracks={})], bin_size=5)
        assert r.bin_starts == ()

    def test_bins_cover_declared_frames(self):
        # A cell alive over frames 0-4 of a 40-frame video fills half of
        # bin 0 and none of the three later bins.
        r = event_rates(
            [make_forest(make_track(1, 0, [bx(50, 50)] * 5), frames=40)]
        )
        assert r.bin_starts == (0, 10, 20, 30)
        assert r.population == (1,) * 5 + (0,) * 35
        assert r.mean_alive == (0.5, 0.0, 0.0, 0.0)

    def test_bad_bin_size(self):
        with pytest.raises(ValidationError):
            event_rates([self.forest()], bin_size=0)

    def test_group_sums_counts_before_dividing(self):
        # A second, longer video: one alive cell over frames 0-14 of 15.
        other = make_forest(make_track(1, 0, [bx(50, 50)] * 15), frames=15)
        one, two = event_rates([self.forest()], 5), event_rates([other], 5)
        r = event_rates([self.forest(), other], 5)
        assert r.bin_starts == (0, 5, 10)
        assert r.divisions == (0, 1, 0) and r.deaths == (0, 1, 0)
        assert r.population[:10] == tuple(
            a + b for a, b in zip(one.population, two.population)
        )
        assert r.mean_alive == (3.0, 3.6, 1.0)
        assert r.division_rate[1] == pytest.approx(1 / 3.6)


class TestSizeSeries:
    def test_skips_interpolated(self):
        t = make_track(1, 0, area_boxes([10, 20, 30, 40]))
        t.entries[2] = TrackEntry(
            box=t.entries[2].box,
            cell_class=CellClass.ALIVE,
            provenance=Provenance.INTERPOLATED,
        )
        frames, sizes = cell_size_series(t)
        assert frames == (0, 1, 3)
        assert sizes == pytest.approx((10.0, 20.0, 40.0))

    def test_mean(self):
        t = make_track(1, 0, area_boxes([10, 20, 60]))
        assert track_mean_size(t) == pytest.approx(30.0)

    def test_all_interpolated_is_none(self):
        t = make_track(1, 0, area_boxes([10, 20]))
        for f in list(t.entries):
            t.entries[f] = TrackEntry(
                box=t.entries[f].box,
                cell_class=CellClass.ALIVE,
                provenance=Provenance.INTERPOLATED,
            )
        assert track_mean_size(t) is None


class TestPearson:
    def test_hand_value(self):
        assert pearson([0, 1, 2], [0, 2, 1]) == pytest.approx(0.5)

    def test_perfect_and_inverse(self):
        assert pearson([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0)
        assert pearson([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_undefined(self):
        assert pearson([1], [2]) is None
        assert pearson([1, 2, 3], [5, 5, 5]) is None
        assert pearson([], []) is None

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            pearson([1, 2], [1, 2, 3])


def inheritance_forest(gen2_widths):
    """One root, two gen-1 tracks (widths 10/20), four gen-2 tracks."""
    return make_forest(
        make_track(1, 0, area_boxes([15.0] * 3), children=[2, 3]),
        make_track(2, 3, area_boxes([10.0] * 3), parent=1, children=[4, 5]),
        make_track(3, 3, area_boxes([20.0] * 3), parent=1, children=[6, 7]),
        make_track(4, 6, area_boxes([gen2_widths[0]] * 3), parent=2),
        make_track(5, 6, area_boxes([gen2_widths[1]] * 3), parent=2),
        make_track(6, 6, area_boxes([gen2_widths[2]] * 3), parent=3),
        make_track(7, 6, area_boxes([gen2_widths[3]] * 3), parent=3),
    )


class TestInheritance:
    FILT = AnalysisFilter(min_track_frames=2)

    def test_perfect_heritability(self):
        report = ancestor_descendant_correlation(
            [inheritance_forest([10, 10, 20, 20])], self.FILT
        )
        assert set(report.by_pair) == {(1, 2)}
        stat = report.by_pair[(1, 2)]
        assert stat.n == 4
        assert stat.r == pytest.approx(1.0)
        assert report.by_gap[1] == stat

    def test_noisy_heritability(self):
        report = ancestor_descendant_correlation(
            [inheritance_forest([12, 8, 22, 18])], self.FILT
        )
        assert 0.8 < report.by_pair[(1, 2)].r < 1.0

    def test_zero_variance_descendants_dropped(self):
        report = ancestor_descendant_correlation(
            [inheritance_forest([15, 15, 15, 15])], self.FILT
        )
        assert report.by_pair == {} and report.by_gap == {}

    def test_generation_cap(self):
        report = ancestor_descendant_correlation(
            [inheritance_forest([10, 10, 20, 20])],
            AnalysisFilter(min_track_frames=2, max_generation=1),
        )
        assert report.by_pair == {}

    def test_group_pools_pairs(self):
        # Each forest alone correlates perfectly; pooled, the eight pairs
        # are taken together.
        a = inheritance_forest([10, 10, 20, 20])
        b = inheritance_forest([12, 8, 22, 18])
        report = ancestor_descendant_correlation([a, b], self.FILT)
        assert report.by_pair[(1, 2)].n == 8
        assert 0.9 < report.by_pair[(1, 2)].r < 1.0

    def test_length_filter_removes_short_ancestors(self):
        report = ancestor_descendant_correlation(
            [inheritance_forest([10, 10, 20, 20])],
            AnalysisFilter(min_track_frames=4),
        )
        assert report.by_pair == {}


class TestSisters:
    FILT = AnalysisFilter(min_track_frames=2)

    def sisters(self, areas_a, areas_b, start=1):
        n = max(len(areas_a), len(areas_b))
        return make_forest(
            make_track(1, 0, [bx(50, 50)], children=[2, 3]),
            make_track(2, start, area_boxes(areas_a), parent=1),
            make_track(3, 1, area_boxes(areas_b), parent=1),
            frames=1 + n + start,
        )

    def test_correlated_pair(self):
        pairs = sister_correlation(
            [self.sisters([10, 20, 30], [15, 25, 35])], self.FILT
        )
        assert len(pairs) == 1
        p = pairs[0]
        assert (p.track_a, p.track_b, p.generation, p.overlap) == (2, 3, 1, 3)
        assert p.r == pytest.approx(1.0)

    def test_anticorrelated_pair(self):
        pairs = sister_correlation(
            [self.sisters([10, 20, 30], [30, 20, 10])], self.FILT
        )
        assert pairs[0].r == pytest.approx(-1.0)

    def test_overlap_under_two_frames_skipped(self):
        # Sister 2 starts late: only one shared frame.
        forest = self.sisters([10, 20], [10, 20, 30], start=3)
        assert sister_correlation([forest], self.FILT) == []

    def test_short_sister_skipped(self):
        forest = self.sisters([10, 20, 30], [15, 25, 35])
        assert (
            sister_correlation([forest], AnalysisFilter(min_track_frames=4))
            == []
        )

    def test_zero_variance_skipped(self):
        forest = self.sisters([10, 10, 10], [15, 25, 35])
        assert sister_correlation([forest], self.FILT) == []

    def test_group_tags_pairs_with_their_video(self):
        a = self.sisters([10, 20, 30], [15, 25, 35])
        b = self.sisters([10, 20, 30], [30, 20, 10])
        a.meta = replace(a.meta, video_id="v1")
        b.meta = replace(b.meta, video_id="v2")
        pairs = sister_correlation([a, b], self.FILT)
        assert [(p.video, p.track_a, p.track_b) for p in pairs] == [
            ("v1", 2, 3), ("v2", 2, 3),
        ]
        assert [p.r for p in pairs] == pytest.approx([1.0, -1.0])


class TestInterdivision:
    def cycle_forest(self, mid_frames, dosage="5uM"):
        leaves_at = 1 + mid_frames
        return make_forest(
            make_track(1, 0, [bx(50, 50)], children=[2]),
            make_track(
                2, 1, [bx(50, 50)] * mid_frames, parent=1, children=[4, 5]
            ),
            make_track(4, leaves_at, [bx(40, 50)] * 2, parent=2),
            make_track(5, leaves_at, [bx(60, 50)] * 2, parent=2),
            dosage=dosage,
        )

    def test_full_cycles_only(self):
        recs = interdivision_records([self.cycle_forest(20)])
        # Root has no parent, leaves never divide: only the middle track
        # is a complete cycle.
        assert [(r.track_id, r.duration, r.generation)
                for r in recs] == [(2, 20, 1)]

    def test_duration_cap_boundary(self):
        f = AnalysisFilter()
        assert len(interdivision_records([self.cycle_forest(99)], f)) == 1
        assert len(interdivision_records([self.cycle_forest(100)], f)) == 1
        assert interdivision_records([self.cycle_forest(101)], f) == []

    def test_summaries(self):
        recs = interdivision_records([self.cycle_forest(20)]) + [
            r for r in interdivision_records([self.cycle_forest(30)])
        ]
        stats = summarize_durations(recs)
        assert set(stats) == {1}
        s = stats[1]
        assert (s.n, s.mean, s.median) == (2, 25.0, 25.0)

    def test_group_pools_its_forests(self):
        forests = [self.cycle_forest(20), self.cycle_forest(30)]
        recs = interdivision_records(forests)
        assert [(r.track_id, r.duration) for r in recs] == [(2, 20), (2, 30)]
        assert summarize_durations(recs)[1].mean == 25.0


class TestProfiles:
    def forest(self):
        return make_forest(
            make_track(1, 0, [bx(50, 50)] * 3, children=[2, 3]),
            make_track(
                2, 3, [bx(40, 50)] * 4, parent=1,
                classes=[CellClass.ALIVE] * 2 + [CellClass.DEAD] * 2,
                end_reason=EndReason.DEATH,
            ),
            make_track(
                3, 3, [bx(60, 50)] * 5, parent=1,
                end_reason=EndReason.END_OF_VIDEO,
            ),
            make_track(
                9, 0, [bx(90, 90)] * 4, end_reason=EndReason.LOST,
            ),
            frames=8, video_id="v3",
        )

    def test_eligibility_and_events(self):
        profiles = eligible_profiles([self.forest()])
        # The lost singleton is not followed to an outcome.
        assert [p.tracks for p in profiles] == [(1, 2), (1, 3)]
        died, censored = profiles
        assert died.events == ((2, "division"), (5, "death"))
        assert died.divisions == 1
        assert censored.events == ((2, "division"), (7, "censored"))
        assert died.video == "v3"

    def test_profiles_of_undivided_survivor(self):
        forest = make_forest(
            make_track(1, 0, [bx(50, 50)] * 4,
                       end_reason=EndReason.END_OF_VIDEO),
            frames=4,
        )
        (prof,) = eligible_profiles([forest])
        assert prof.events == ((3, "censored"),)
        assert prof.divisions == 0


def profile_with(divisions: int, tag: int) -> DivisionProfile:
    events = tuple((10 * k, "division") for k in range(divisions))
    return DivisionProfile(
        tracks=(tag,), events=events + ((99, "censored"),)
    )


class TestSampling:
    def test_exact_quotas(self):
        pool = (
            [profile_with(0, i) for i in range(15)]
            + [profile_with(1, 100 + i) for i in range(9)]
            + [profile_with(2, 200 + i) for i in range(6)]
        )
        out = sample_profiles(pool, 10, seed=1)
        counts = {}
        for p in out:
            counts[p.divisions] = counts.get(p.divisions, 0) + 1
        assert counts == {0: 5, 1: 3, 2: 2}

    def test_largest_remainder_rounding(self):
        pool = (
            [profile_with(0, i) for i in range(7)]
            + [profile_with(1, 100 + i) for i in range(2)]
            + [profile_with(2, 200 + i) for i in range(1)]
        )
        out = sample_profiles(pool, 5, seed=0)
        counts = {}
        for p in out:
            counts[p.divisions] = counts.get(p.divisions, 0) + 1
        # Quotas 3.5 / 1.0 / 0.5: the leftover slot goes to the larger
        # remainder, ties to the lower stratum.
        assert counts == {0: 4, 1: 1}
        assert len(out) == 5

    def test_small_input_returned_whole(self):
        pool = [profile_with(0, i) for i in range(3)]
        out = sample_profiles(pool, 10, seed=0)
        assert out == pool and out is not pool

    def test_deterministic(self):
        pool = [profile_with(i % 3, i) for i in range(40)]
        a = sample_profiles(pool, 12, seed=5)
        b = sample_profiles(pool, 12, seed=5)
        assert a == b
        c = sample_profiles(pool, 12, seed=6)
        assert len(c) == 12

    def test_bad_sample_size(self):
        with pytest.raises(ValidationError):
            sample_profiles([], 0)


class TestCsvWriters:
    def test_event_rates_csv(self, tmp_path):
        forest = TestEventRates().forest()
        path = tmp_path / "rates.csv"
        write_event_rates_csv(
            path, [("control", event_rates([forest], bin_size=5))]
        )
        rows = list(csv.reader(open(path)))
        assert rows[0][:4] == ["group", "bin_start", "bin_end", "divisions"]
        assert len(rows) == 3
        assert rows[2][:5] == ["control", "5", "9", "1", "1"]
        # A partial last bin ends at the last frame: bins 0-3, 4-7, 8-9.
        write_event_rates_csv(
            path, [("control", event_rates([forest], bin_size=4))]
        )
        rows = list(csv.reader(open(path)))
        assert [row[1:3] for row in rows[1:]] == [["0", "3"], ["4", "7"], ["8", "9"]]
        assert rows[3][-1] == "2.000"

    def test_sister_csv(self, tmp_path):
        forest = TestSisters().sisters([10, 20, 30], [15, 25, 35])
        forest.meta = replace(forest.meta, video_id="v1")
        path = tmp_path / "sisters.csv"
        write_sister_csv(
            path, [("g", sister_correlation([forest], TestSisters.FILT))]
        )
        rows = list(csv.reader(open(path)))
        assert rows[0][:3] == ["group", "video", "generation"]
        assert rows[1] == ["g", "v1", "1", "2", "3", "3", "1.000000"]

    def test_profiles_csv(self, tmp_path):
        profiles = eligible_profiles([TestProfiles().forest()])
        path = tmp_path / "profiles.csv"
        write_profiles_csv(path, [("g", profiles)])
        rows = list(csv.reader(open(path)))
        # Header plus one row per event (2 + 2).
        assert len(rows) == 5
        assert rows[1][-1] == "division"
        assert rows[2][-1] == "death"


class TestGoldenTables:
    """The five tables ``celltrack analyze`` writes over a fixed set of
    forests, pinned by one digest: a refactor of the analyses or their
    writers that changes any byte or any row order fails here.

    The set covers heritable and independent sizes, deaths after
    treatment, two dosage labels, a forest labeled by its video id, and
    a no-Kalman prediction, under a video id of its own, whose tracks
    have gaps.  The filter is not
    the default and the sample size forces profile sampling."""

    SIMS = {
        "heritable": dict(
            frames=36, width=300.0, height=300.0, initial_cells=5,
            division_period=8, death_prob=0.05, treatment_frame=20,
            dosage="10uM", seed=41,
        ),
        "independent": dict(
            frames=36, width=300.0, height=300.0, initial_cells=8,
            division_prob=0.06, death_prob=0.04, treatment_frame=15,
            size_inheritance="independent", dosage="0uM", seed=42,
        ),
        "tracked": dict(
            frames=30, width=300.0, height=300.0, initial_cells=8,
            division_prob=0.05, death_prob=0.03, treatment_frame=12,
            box_jitter_sigma=1.0, drop_prob=0.25, fade_frames=3.0,
            false_positive_rate=0.5, video_id="video_007", seed=43,
        ),
    }
    TABLES = (
        "event_rates.csv", "size_inheritance.csv", "sister_correlation.csv",
        "interdivision.csv", "division_profiles.csv",
    )
    DIGEST = "b56694a16fc674f5f4c9107ebd12380fb12c2d6c1af731a11b1783891fe91f15"

    def test_tables_unchanged(self, tmp_path):
        prefixes = []
        for name, kwargs in self.SIMS.items():
            _simulate_one(SimulationConfig(**kwargs), str(tmp_path / name))
            prefixes.append(str(tmp_path / name / "gt"))
        det_file = load_detections(str(tmp_path / "tracked" / "detections.txt"))
        # The prediction is a video of its own: one video given twice
        # is rejected.
        meta = replace(det_file.meta, video_id="video_007_pred")
        pred = track_video(det_file.frames, TrackerConfig(use_kalman=False), meta=meta)
        assert any(
            len(t.entries) < t.span() for t in pred.tracks.values()
        )  # the prediction has gaps
        save_forest(pred, str(tmp_path / "pred"))
        prefixes.append(str(tmp_path / "pred"))

        out = tmp_path / "analysis"
        argv = [
            "analyze", *prefixes, "--out", str(out),
            "--seed", "5", "--sample-size", "4",
            "--set", "analysis.min_track_frames=4",
            "--set", "analysis.max_generation=4",
            "--set", "analysis.max_interdivision_frames=9",
        ]
        assert main(argv) == 0
        digest = hashlib.sha256()
        for name in self.TABLES:
            digest.update((out / name).read_bytes())
        assert digest.hexdigest() == self.DIGEST
