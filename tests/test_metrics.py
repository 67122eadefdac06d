"""Graph-edit and detection-association scores against reference values.

Reference numbers in this file were computed with the exhaustive
implementations in ``oracles.py`` and then frozen as literals.
"""

import hashlib
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment
from scipy.sparse.csgraph import connected_components

from celltrack import (
    LineageForest,
    SimulationConfig,
    Track,
    TrackerConfig,
    ValidationError,
    build_graph,
    corrupt,
    det_lnk_tra,
    evaluate,
    hota,
    idf1,
    mota,
    motp,
    simulate,
    track_video,
)
import celltrack.metrics
from celltrack.metrics import (
    DEFAULT_ALPHAS,
    LINK,
    PARENT,
    FramePairs,
    TrackingGraph,
    UndefinedMetricError,
    _max_iou_pairs,
    aogm_counts,
    aogm_penalty,
    iou_matrix,
)
from conftest import bx, make_forest, make_track
from oracles import (
    brute_aogm_counts,
    brute_det_lnk_tra,
    brute_hota,
    brute_idf1,
    brute_mota,
    brute_motp,
    center_match_frame,
    exhaustive_matching,
    iou_scalar,
    random_instance,
)

B = bx(50, 50)


def node_graph(frames, node_frames, boxes) -> TrackingGraph:
    """Edgeless graph whose node ``i`` is ``boxes[i]`` at ``node_frames[i]``
    (in frame order), as track ``i``."""
    node_frames = np.asarray(node_frames, dtype=np.int64).reshape(-1)
    return TrackingGraph(
        frames=frames,
        node_frames=node_frames,
        ids=np.arange(node_frames.size),
        boxes=np.asarray(boxes, dtype=float).reshape(-1, 4),
    )


def frame_pairs(gt_boxes, pred_boxes) -> FramePairs:
    """The evaluation pass of a one-frame video holding these boxes."""
    return FramePairs(
        *(node_graph(1, np.zeros(len(b)), b) for b in (gt_boxes, pred_boxes))
    )


def edge_kinds(g: TrackingGraph) -> dict:
    """The graph's edges as ``{((track, frame), (track, frame)): kind}``."""
    names = {LINK: "link", PARENT: "parent"}
    node = list(zip(g.ids.tolist(), g.node_frames.tolist()))
    return {
        (node[s], node[d]): names[k]
        for s, d, k in zip(g.src.tolist(), g.dst.tolist(), g.kinds.tolist())
    }


def iou_matches(gt_boxes, pred_boxes, alpha) -> list[tuple[int, int]]:
    """The frame's (gt index, pred index) pairs matched at IoU threshold ``alpha``."""
    pairs = frame_pairs(gt_boxes, pred_boxes)
    idx = pairs.matches(alpha)
    return list(zip(pairs.rows[idx].tolist(), pairs.cols[idx].tolist()))


def relabel(forest: LineageForest, offset: int = 500) -> LineageForest:
    """Same forest under a scrambled id assignment."""
    mapping = {
        tid: offset + i
        for i, tid in enumerate(sorted(forest.tracks, reverse=True))
    }
    tracks = {}
    for tid, t in forest.tracks.items():
        nid = mapping[tid]
        tracks[nid] = Track(
            track_id=nid,
            entries=dict(t.entries),
            parent=None if t.parent is None else mapping[t.parent],
            children=sorted(mapping[c] for c in t.children),
            end_reason=t.end_reason,
        )
    return LineageForest(tracks=tracks, meta=forest.meta)


class TestGraphBuilding:
    def forest(self):
        return make_forest(
            make_track(1, 0, [bx(50, 50)] * 2, children=[2, 3]),
            make_track(2, 2, [bx(40, 50)] * 2, parent=1),
            make_track(3, 2, [bx(60, 50)] * 2, parent=1),
            frames=4,
        )

    def test_counts(self):
        g = build_graph(self.forest())
        assert g.frames == 4
        assert g.node_count == 6
        # 3 within-track links + 2 division edges.
        assert g.edge_count == 5
        kinds = sorted(edge_kinds(g).values())
        assert kinds == ["link", "link", "link", "parent", "parent"]

    def test_parent_edges_span_division(self):
        g = build_graph(self.forest())
        assert edge_kinds(g)[((1, 1), (2, 2))] == "parent"
        assert edge_kinds(g)[((1, 1), (3, 2))] == "parent"

    def test_gap_breaks_link_chain(self):
        t = make_track(1, 0, [B] * 4)
        del t.entries[2]
        g = build_graph(make_forest(t, frames=4))
        assert g.node_count == 3
        assert set(edge_kinds(g)) == {((1, 0), (1, 1))}

    def test_child_listed_twice_is_one_edge(self):
        forest = self.forest()
        forest.tracks[1].children.append(2)
        g = build_graph(forest)
        assert g.edge_count == 5
        assert edge_kinds(g) == edge_kinds(build_graph(self.forest()))

    def test_track_beyond_declared_frames(self):
        with pytest.raises(ValidationError):
            build_graph(make_forest(make_track(1, 0, [B] * 3), frames=2))

    def test_entry_at_negative_frame(self):
        # A list index of -1 would file the entry under the last frame.
        bad = make_forest(make_track(1, -1, [B] * 3), frames=3)
        good = make_forest(make_track(1, 0, [B] * 3), frames=3)
        outside = "track 1 has entries outside the video frame range"
        with pytest.raises(ValidationError, match=outside):
            build_graph(bad)
        with pytest.raises(ValidationError, match=outside):
            evaluate(bad, good)
        with pytest.raises(ValidationError, match=outside):
            evaluate(good, bad)


class TestIouMatrix:
    def test_matches_scalar_iou(self):
        rng = np.random.default_rng(5)
        a = np.column_stack(
            [rng.uniform(0, 50, 6), rng.uniform(0, 50, 6),
             rng.uniform(2, 20, 6), rng.uniform(2, 20, 6)]
        )
        b = np.column_stack(
            [rng.uniform(0, 50, 4), rng.uniform(0, 50, 4),
             rng.uniform(2, 20, 4), rng.uniform(2, 20, 4)]
        )
        mat = iou_matrix(a, b)
        for i in range(6):
            for j in range(4):
                assert mat[i, j] == pytest.approx(
                    iou_scalar(tuple(a[i]), tuple(b[j])), abs=1e-12
                )

    def test_empty(self):
        assert iou_matrix(np.zeros((0, 4)), np.zeros((3, 4))).shape == (0, 3)
        assert iou_matrix(np.zeros((2, 4)), np.zeros((0, 4))).shape == (2, 0)

    def test_never_above_one(self):
        a = np.array([[0.0, 1.0, 1.0, 15.9]])
        assert iou_matrix(a, a)[0, 0] <= 1.0

    def test_underflowing_union_is_zero(self):
        # A valid box whose area underflows to 0: the oracle's rule.
        tiny = (0.0, 0.0, 1e-200, 1e-200)
        assert iou_scalar(tiny, tiny) == 0.0
        a = np.array([tiny])
        assert iou_matrix(a, a).tolist() == [[0.0]]


class TestCenterMatching:
    def match(self, gt_boxes, pred_boxes):
        return frame_pairs(gt_boxes, pred_boxes).cover

    def test_simple_containment(self):
        out = self.match([bx(50, 50)], [bx(80, 80), bx(51, 51)])
        assert list(out) == [1]

    def test_uncovered_is_minus_one(self):
        out = self.match([bx(50, 50)], [bx(80, 80)])
        assert list(out) == [-1]

    def test_largest_intersection_wins(self):
        # Both cover the center; the wider box overlaps more of the target.
        target = bx(50, 50, 20, 20)
        small = bx(52, 50, 8, 8)
        big = bx(50, 50, 18, 18)
        assert list(self.match([target], [small, big])) == [1]

    def test_full_containment_tie_prefers_snugger_box(self):
        # A box nested inside a bigger one intersects the small target
        # completely either way; IoU breaks the tie toward the tight fit.
        target = bx(50, 50, 6, 6)
        snug = bx(50, 50, 8, 8)
        huge = bx(50, 50, 40, 40)
        assert list(self.match([target], [huge, snug])) == [1]

    def test_exact_duplicate_goes_to_lowest_index(self):
        target = bx(50, 50)
        assert list(self.match([target], [target, target])) == [0]

    def test_near_duplicate_tie_agrees_with_oracle(self):
        # Both boxes cover all of the target; rounding puts one IoU a hair
        # past 1, and capped at 1 the tie goes to the lower index.
        target = (
            912.7555772777217, 606.6357757671799,
            36.745331488215925, 27.63762458180572,
        )
        wider = (*target[:2], 36.745331488215946, target[3])
        preds = [wider, target]
        assert list(self.match([target], preds)) == center_match_frame(
            [target], preds
        ) == [0]

    def test_boundary_center_counts_as_covered(self):
        # Target center at x=55 on the predictor's right edge.
        target = bx(55, 50, 4, 4)
        edge = (45.0, 45.0, 10.0, 10.0)
        assert list(self.match([target], [edge])) == [0]

    def test_many_to_one(self):
        big = bx(50, 50, 40, 40)
        out = self.match([bx(45, 50), bx(55, 50)], [big])
        assert list(out) == [0, 0]


class TestIouMatchingCriterion:
    def test_prefers_total_overlap(self):
        # One prediction overlaps both targets; assignment keeps it
        # one-to-one and maximizes the summed IoU.
        gt = [bx(50, 50), bx(60, 50)]
        pred = [bx(51, 50), bx(61, 50)]
        assert iou_matches(gt, pred, 0.5) == [(0, 0), (1, 1)]

    def test_alpha_gate(self):
        gt = [bx(50, 50)]
        pred = [bx(58, 50)]  # IoU = 2/18
        assert iou_matches(gt, pred, 0.5) == []

    def test_agrees_with_exhaustive_search(self):
        # Boxes crowd a small field, so low thresholds join neighbours
        # into multi-pair components while high ones leave 1x1 pairs.
        rng = np.random.default_rng(1885)
        single = multi = 0
        for _ in range(80):
            n_gt, n_pred = rng.integers(1, 6, size=2)
            size = rng.uniform(6.0, 14.0, size=(n_gt, 2))
            gt = np.column_stack([rng.uniform(0.0, 30.0, size=(n_gt, 2)), size])
            pred = gt[rng.integers(0, n_gt, size=n_pred)].copy()
            pred[:, :2] += rng.normal(0.0, 3.0, size=(n_pred, 2))
            pred[:, 2:] *= rng.uniform(0.8, 1.25, size=(n_pred, 2))
            for alpha in DEFAULT_ALPHAS[::3]:
                eligible = iou_matrix(gt, pred) >= alpha
                lone = eligible & (eligible.sum(1, keepdims=True) == 1)
                lone &= eligible.sum(0, keepdims=True) == 1
                single += int(lone.any())
                multi += int((eligible.sum(1) > 1).any() or (eligible.sum(0) > 1).any())
                got = iou_matches(gt, pred, alpha)
                want = exhaustive_matching(
                    [tuple(b) for b in gt], [tuple(b) for b in pred], alpha
                )
                assert got == want, (alpha, gt.tolist(), pred.tolist())
        assert single > 50 and multi > 50

    def test_exact_ties_resolve_as_per_component_solver(self):
        # Grid boxes tie exactly, where the optimum is not unique; the
        # matcher must pick what linear_sum_assignment picks when run on
        # each connected component of the eligible graph by itself.
        def per_component(ious, alpha):
            eligible = ious >= alpha
            m, n = eligible.shape
            adjacency = np.zeros((m + n, m + n))
            adjacency[:m, m:] = eligible
            _, label = connected_components(adjacency, directed=False)
            pairs = []
            for comp in np.unique(label):
                rows = np.flatnonzero(label[:m] == comp)
                cols = np.flatnonzero(label[m:] == comp)
                if rows.size == 0 or cols.size == 0:
                    continue
                sub = ious[np.ix_(rows, cols)].copy()
                sub[sub < alpha] = 0.0
                for a, b in zip(*linear_sum_assignment(sub, maximize=True)):
                    if sub[a, b] >= alpha:
                        pairs.append((int(rows[a]), int(cols[b])))
            return sorted(pairs)

        rng = np.random.default_rng(20)
        ties = 0
        for _ in range(150):
            n_gt, n_pred = rng.integers(1, 8, size=2)
            gt, pred = (
                np.column_stack(
                    [rng.integers(0, 12, size=(n, 2)), rng.choice([4, 6, 8], size=(n, 2))]
                ).astype(float)
                for n in (n_gt, n_pred)
            )
            ious = iou_matrix(gt, pred)
            for alpha in DEFAULT_ALPHAS[::2]:
                row_tops = (ious == ious.max(axis=1, keepdims=True)) & (ious >= alpha)
                ties += int((row_tops.sum(axis=1) > 1).any())
                got = iou_matches(gt, pred, alpha)
                assert got == per_component(ious, alpha), (alpha, gt.tolist(), pred.tolist())
        assert ties > 50


class TestEditCounts:
    def test_identical_forests_zero_edits(self):
        gt = make_forest(
            make_track(1, 0, [bx(50, 50)] * 2, children=[2, 3]),
            make_track(2, 2, [bx(40, 50)] * 2, parent=1),
            make_track(3, 2, [bx(60, 50)] * 2, parent=1),
            frames=4,
        )
        scores = det_lnk_tra(gt, gt)
        c = scores.counts
        assert (
            c.node_splits,
            c.false_negatives,
            c.false_positives,
            c.edge_deletions,
            c.edge_additions,
            c.edge_changes,
        ) == (0, 0, 0, 0, 0, 0)
        assert scores.det == scores.lnk == scores.tra == 1.0

    def test_missing_node_mid_track(self):
        # 5-node track, prediction lost frame 2: one node addition and
        # two unserved link edges.
        gt = make_forest(make_track(1, 0, [B] * 5), frames=5)
        pr = make_track(101, 0, [B] * 5)
        del pr.entries[2]
        pred = make_forest(pr, frames=5)
        s = det_lnk_tra(pred, gt)
        assert s.counts.false_negatives == 1
        assert s.counts.edge_additions == 2
        assert s.counts.edge_deletions == 0
        assert s.det == pytest.approx(0.8)
        assert s.lnk == pytest.approx(0.5)
        assert s.tra == pytest.approx(43 / 56)

    def test_identity_switch(self):
        gt = make_forest(make_track(1, 0, [B] * 3), frames=3)
        pred = make_forest(
            make_track(101, 0, [B]), make_track(102, 1, [B] * 2), frames=3
        )
        s = det_lnk_tra(pred, gt)
        assert s.counts.edge_additions == 1
        assert s.det == 1.0
        assert s.lnk == pytest.approx(0.5)
        assert s.tra == pytest.approx(21 / 22)

    def test_division_tracked_straight_through(self):
        # The prediction rides through the division as one track: the
        # division edge it crosses becomes a semantics change, the other
        # daughter link is simply missing.
        gt = make_forest(
            make_track(1, 0, [bx(50, 50)] * 2, children=[2, 3]),
            make_track(2, 2, [bx(40, 50)] * 2, parent=1),
            make_track(3, 2, [bx(60, 50)] * 2, parent=1),
            frames=4,
        )
        pred = make_forest(
            make_track(101, 0, [bx(50, 50), bx(50, 50), bx(40, 50), bx(40, 50)]),
            make_track(102, 2, [bx(60, 50)] * 2),
            frames=4,
        )
        s = det_lnk_tra(pred, gt)
        assert s.counts.edge_changes == 1
        assert s.counts.edge_additions == 1
        assert s.counts.edge_deletions == 0
        assert s.det == 1.0
        assert s.lnk == pytest.approx(2 / 3)
        assert s.tra == pytest.approx(0.962962962962963)

    def test_missed_division(self):
        # Daughters found but not linked to the parent: two edge additions.
        gt = make_forest(
            make_track(1, 0, [bx(50, 50)] * 2, children=[2, 3]),
            make_track(2, 2, [bx(40, 50)] * 2, parent=1),
            make_track(3, 2, [bx(60, 50)] * 2, parent=1),
            frames=4,
        )
        pred = make_forest(
            make_track(101, 0, [bx(50, 50)] * 2),
            make_track(102, 2, [bx(40, 50)] * 2),
            make_track(103, 2, [bx(60, 50)] * 2),
            frames=4,
        )
        s = det_lnk_tra(pred, gt)
        assert s.counts.edge_additions == 2
        assert s.lnk == pytest.approx(0.6)
        assert s.tra == pytest.approx(43 / 45)

    def test_node_split(self):
        # One prediction box swallowing two ground-truth cells.
        gt = make_forest(
            make_track(1, 0, [bx(45, 50)]), make_track(2, 0, [bx(55, 50)]),
            frames=1,
        )
        pred = make_forest(make_track(101, 0, [bx(50, 50, 40, 40)]), frames=1)
        c = det_lnk_tra(pred, gt).counts
        assert c.node_splits == 1
        assert c.false_negatives == 0
        assert c.false_positives == 0

    def test_false_positive_node(self):
        gt = make_forest(make_track(1, 0, [B]), frames=1)
        pred = make_forest(
            make_track(101, 0, [B]), make_track(102, 0, [bx(200, 200)]),
            frames=1,
        )
        c = det_lnk_tra(pred, gt).counts
        assert c.false_positives == 1

    def test_spurious_edge_deleted(self):
        gt = make_forest(
            make_track(1, 0, [bx(40, 50)]), make_track(2, 1, [bx(60, 50)]),
            frames=2,
        )
        # Prediction invents a division between the two unrelated cells.
        pred = make_forest(
            make_track(101, 0, [bx(40, 50)], children=[102]),
            make_track(102, 1, [bx(60, 50)], parent=101),
            frames=2,
        )
        c = det_lnk_tra(pred, gt).counts
        assert c.edge_deletions == 1

    def test_empty_prediction_scores_zero(self):
        gt = make_forest(make_track(1, 0, [B] * 3), frames=3)
        pred = LineageForest(tracks={}, meta=gt.meta)
        s = det_lnk_tra(pred, gt)
        assert s.det == 0.0
        assert s.lnk == 0.0
        assert s.tra == 0.0

    def test_empty_gt_is_undefined(self):
        gt = LineageForest(tracks={})
        gt.meta.frames = 2
        pred = make_forest(make_track(101, 0, [B]), frames=2)
        with pytest.raises(UndefinedMetricError):
            det_lnk_tra(pred, gt)

    def test_frame_mismatch_rejected(self):
        g1 = build_graph(make_forest(make_track(1, 0, [B]), frames=2))
        g2 = build_graph(make_forest(make_track(1, 0, [B]), frames=3))
        with pytest.raises(ValidationError):
            aogm_counts(g1, g2)

    def test_counts_match_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(60):
            gt, pred, frames = random_instance(rng)
            c = aogm_counts(build_graph(gt), build_graph(pred))
            want = brute_aogm_counts(gt, pred, frames)
            assert (
                c.node_splits,
                c.false_negatives,
                c.false_positives,
                c.edge_deletions,
                c.edge_additions,
                c.edge_changes,
            ) == tuple(want[k] for k in ("ns", "fn", "fp", "ed", "ea", "ec"))

    @pytest.mark.parametrize(
        "divides, ea, ec",
        [
            # Two links map onto the one predicted link: one is served as
            # it stands, the other is an addition.
            (False, 1, 0),
            # Two division edges map onto the one predicted link: one is a
            # semantics change, the other an addition.
            (True, 1, 1),
        ],
    )
    def test_two_gt_edges_onto_one_pred_edge(self, divides, ea, ec):
        if divides:
            gt = make_forest(
                make_track(1, 0, [bx(50, 50)], children=[2, 3]),
                make_track(2, 1, [bx(45, 50)], parent=1),
                make_track(3, 1, [bx(55, 50)], parent=1),
                frames=2,
            )
            boxes = [bx(50, 50), bx(50, 50, 40, 40)]
        else:
            gt = make_forest(
                make_track(1, 0, [bx(45, 50)] * 2),
                make_track(2, 0, [bx(55, 50)] * 2),
                frames=2,
            )
            boxes = [bx(50, 50, 40, 40)] * 2
        # One predicted track whose big box covers both cells of frame 1.
        pred = make_forest(make_track(101, 0, boxes), frames=2)
        c = aogm_counts(build_graph(gt), build_graph(pred))
        assert (c.edge_deletions, c.edge_additions, c.edge_changes) == (0, ea, ec)
        assert c.node_splits == (1 if divides else 2)
        want = brute_aogm_counts(gt, pred, 2)
        assert (want["ed"], want["ea"], want["ec"], want["ns"]) == (
            0, ea, ec, c.node_splits
        )

    def test_penalty_weights(self):
        from celltrack import AOGMCounts

        counts = AOGMCounts(
            node_splits=1,
            false_negatives=2,
            false_positives=3,
            edge_deletions=4,
            edge_additions=5,
            edge_changes=6,
        )
        assert aogm_penalty(counts, "nodes") == 5 + 20 + 3
        assert aogm_penalty(counts, "edges") == 4 + 7.5 + 6
        assert aogm_penalty(counts, "all") == 45.5
        with pytest.raises(ValueError):
            aogm_penalty(counts, "bogus")


class TestHota:
    def test_perfect_prediction(self):
        gt = make_forest(
            make_track(1, 0, [bx(50, 50)] * 2, children=[2, 3]),
            make_track(2, 2, [bx(40, 50)] * 2, parent=1),
            make_track(3, 2, [bx(60, 50)] * 2, parent=1),
            frames=4,
        )
        h = hota(gt, gt)
        assert h.hota == pytest.approx(1.0, abs=1e-12)
        assert h.det_a == pytest.approx(1.0, abs=1e-12)
        assert h.ass_a == pytest.approx(1.0, abs=1e-12)
        assert len(h.hota_alpha) == len(DEFAULT_ALPHAS) == 19

    def test_identity_switch_values(self):
        # Perfect boxes, one switch after the first of three frames:
        # DetA 1, AssA (1/3 + 2*(2/3))/3 = 5/9 at every threshold.
        gt = make_forest(make_track(1, 0, [B] * 3), frames=3)
        pred = make_forest(
            make_track(101, 0, [B]), make_track(102, 1, [B] * 2), frames=3
        )
        h = hota(pred, gt)
        assert h.det_a == pytest.approx(1.0, abs=1e-12)
        assert h.ass_a == pytest.approx(5 / 9, abs=1e-12)
        assert h.hota == pytest.approx(math.sqrt(5 / 9), abs=1e-12)

    def test_assa_sums_per_pair_terms_in_first_match_order(self):
        # The per-frame loop below is the reference: it counts (gt, pred)
        # pairs in a dict and sums their terms in insertion order, so the
        # vectorized sums must equal it to the last bit.
        cfg = SimulationConfig(
            frames=30, initial_cells=40, box_jitter_sigma=2.0, drop_prob=0.15,
            false_positive_rate=2.0, embedding_noise_sigma=0.8, treatment_frame=10,
            seed=31,
        )
        res = simulate(cfg)
        pred = track_video(corrupt(res.clean, cfg), TrackerConfig())
        pred.meta.frames = cfg.frames
        g, p = build_graph(res.ground_truth), build_graph(pred)
        gt_sizes, pred_sizes = (Counter(graph.ids.tolist()) for graph in (g, p))
        want = []
        for alpha in DEFAULT_ALPHAS:
            counts: dict[tuple[int, int], int] = {}
            for f in range(g.frames):
                gf, pf = g.node_frames == f, p.node_frames == f
                for gi, pi in iou_matches(g.boxes[gf], p.boxes[pf], alpha):
                    key = (int(g.ids[gf][gi]), int(p.ids[pf][pi]))
                    counts[key] = counts.get(key, 0) + 1
            acc = 0.0
            for (gid, pid), c in counts.items():
                acc += c * (c / (gt_sizes[gid] + pred_sizes[pid] - c))
            want.append(acc / sum(counts.values()))
        assert len(want) > 10 and want[0] < 1.0
        assert hota(pred, res.ground_truth).ass_a_alpha == tuple(want)

    def test_alpha_grid(self):
        assert DEFAULT_ALPHAS[0] == pytest.approx(0.05)
        assert DEFAULT_ALPHAS[-1] == pytest.approx(0.95)
        assert len(DEFAULT_ALPHAS) == 19

    def test_empty_gt_undefined(self):
        gt = LineageForest(tracks={})
        gt.meta.frames = 1
        pred = make_forest(make_track(101, 0, [B]), frames=1)
        with pytest.raises(UndefinedMetricError):
            hota(pred, gt)


class TestClearMetrics:
    def switch_case(self):
        gt = make_forest(make_track(1, 0, [B] * 3), frames=3)
        pred = make_forest(
            make_track(101, 0, [B]), make_track(102, 1, [B] * 2), frames=3
        )
        return gt, pred

    def test_mota_counts_switch(self):
        gt, pred = self.switch_case()
        assert mota(pred, gt) == pytest.approx(2 / 3)

    def test_mota_counts_misses_and_ghosts(self):
        gt = make_forest(make_track(1, 0, [B] * 4), frames=4)
        pr = make_track(101, 0, [B] * 4)
        del pr.entries[3]
        pred = make_forest(pr, make_track(102, 0, [bx(200, 200)]), frames=4)
        # 1 FN + 1 FP over 4 ground-truth boxes.
        assert mota(pred, gt) == pytest.approx(0.5)

    def test_mota_can_go_negative(self):
        gt = make_forest(make_track(1, 0, [B]), frames=1)
        pred = make_forest(
            make_track(101, 0, [bx(200, 200)]),
            make_track(102, 0, [bx(300, 300)]),
            frames=1,
        )
        assert mota(pred, gt) == pytest.approx(-2.0)

    def test_motp_mean_overlap(self):
        gt = make_forest(make_track(1, 0, [bx(50, 50), bx(50, 50)]), frames=2)
        pred = make_forest(
            make_track(101, 0, [bx(50, 50), bx(52, 50)]), frames=2
        )
        # Frame 0 perfect (IoU 1), frame 1 offset by 2 (IoU 2/3).
        assert motp(pred, gt) == pytest.approx((1.0 + 2 / 3) / 2)

    def test_motp_undefined_without_matches(self):
        gt = make_forest(make_track(1, 0, [B]), frames=1)
        pred = make_forest(make_track(101, 0, [bx(200, 200)]), frames=1)
        with pytest.raises(UndefinedMetricError):
            motp(pred, gt)

    def test_idf1_switch(self):
        gt, pred = self.switch_case()
        assert idf1(pred, gt) == pytest.approx(2 / 3)

    def test_idf1_perfect(self):
        gt, _ = self.switch_case()
        assert idf1(gt, gt) == pytest.approx(1.0)

    def test_idf1_empty_prediction(self):
        gt = make_forest(make_track(1, 0, [B] * 2), frames=2)
        pred = LineageForest(tracks={}, meta=gt.meta)
        assert idf1(pred, gt) == 0.0

    def test_idf1_pairs_tracks_optimally(self):
        # Overlap counts A-P 3, A-Q 2, B-P 2: each ground truth's best
        # prediction is P, but pairing A-Q and B-P gives 4 frames, not 3.
        far = bx(300, 300)
        gt = make_forest(
            make_track(1, 0, [B] * 5), make_track(2, 5, [B] * 2), frames=7
        )
        pred = make_forest(
            make_track(101, 0, [B] * 3 + [far] * 2 + [B] * 2),
            make_track(102, 3, [B] * 2),
            frames=7,
        )
        # idtp 4 over 7 ground-truth and 9 predicted nodes.
        assert idf1(pred, gt) == 8 / 16
        assert idf1(pred, gt) == brute_idf1(pred, gt, 7)

    @pytest.mark.parametrize("metric", [mota, motp, idf1])
    @pytest.mark.parametrize("pred_frames", [1, 3])
    def test_frame_count_mismatch_rejected(self, metric, pred_frames):
        gt = build_graph(make_forest(make_track(1, 0, [B] * 2), frames=2))
        pred = build_graph(make_forest(make_track(101, 0, [B]), frames=pred_frames))
        with pytest.raises(ValidationError, match="frame count mismatch"):
            metric(pred, gt)


class TestInvariances:
    def test_relabeling_leaves_all_metrics_unchanged(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            gt, pred, frames = random_instance(rng)
            shuffled = relabel(pred)
            a = det_lnk_tra(pred, gt)
            b = det_lnk_tra(shuffled, gt)
            assert a.counts == b.counts
            assert (a.det, a.lnk, a.tra) == (b.det, b.lnk, b.tra)
            ha, hb = hota(pred, gt), hota(shuffled, gt)
            assert ha.hota == pytest.approx(hb.hota, abs=1e-12)
            assert ha.ass_a == pytest.approx(hb.ass_a, abs=1e-12)
            assert mota(pred, gt) == mota(shuffled, gt)
            assert idf1(pred, gt) == pytest.approx(idf1(shuffled, gt), abs=1e-12)

    def test_det_ignores_edge_only_perturbations(self):
        gt = make_forest(
            make_track(1, 0, [bx(50, 50)] * 2, children=[2, 3]),
            make_track(2, 2, [bx(40, 50)] * 2, parent=1),
            make_track(3, 2, [bx(60, 50)] * 2, parent=1),
            frames=4,
        )
        intact = det_lnk_tra(gt, gt)
        # Forget one division link, keep every node.
        broken = relabel(gt, offset=100)
        parent = broken.tracks[102]
        dropped = parent.children.pop()
        broken.tracks[dropped].parent = None
        s = det_lnk_tra(broken, gt)
        assert s.det == intact.det == 1.0
        assert s.lnk < intact.lnk

    def test_lnk_ignores_isolated_false_positives(self):
        gt = make_forest(make_track(1, 0, [B] * 3), frames=3)
        clean = relabel(gt, offset=100)
        with_fp = relabel(gt, offset=100)
        with_fp.tracks[999] = make_track(999, 1, [bx(300, 300)])
        a = det_lnk_tra(clean, gt)
        b = det_lnk_tra(with_fp, gt)
        assert b.lnk == a.lnk
        assert b.det < a.det

    def test_quick_oracle_agreement(self):
        # A fast slice of the full 200-instance equivalence run in the
        # acceptance suite.
        rng = np.random.default_rng(99)
        for _ in range(20):
            gt, pred, frames = random_instance(rng)
            det, lnk, tra, c = brute_det_lnk_tra(pred, gt, frames)
            s = det_lnk_tra(pred, gt)
            assert (
                s.counts.node_splits,
                s.counts.false_negatives,
                s.counts.false_positives,
                s.counts.edge_deletions,
                s.counts.edge_additions,
                s.counts.edge_changes,
            ) == (c["ns"], c["fn"], c["fp"], c["ed"], c["ea"], c["ec"])
            assert s.tra == pytest.approx(tra, abs=1e-12)
            bh = brute_hota(pred, gt, frames, DEFAULT_ALPHAS)
            h = hota(pred, gt)
            assert h.hota == pytest.approx(bh[0], abs=1e-9)
            assert mota(pred, gt) == pytest.approx(
                brute_mota(pred, gt, frames), abs=1e-12
            )
            assert idf1(pred, gt) == brute_idf1(pred, gt, frames)


class TestEvaluateReport:
    def test_full_report(self):
        gt = make_forest(
            make_track(1, 0, [bx(50, 50)] * 2, children=[2, 3]),
            make_track(2, 2, [bx(40, 50)] * 2, parent=1),
            make_track(3, 2, [bx(60, 50)] * 2, parent=1),
            frames=4,
        )
        report = evaluate(relabel(gt), gt)
        assert report.det == report.lnk == report.tra == 1.0
        assert report.hota == pytest.approx(1.0, abs=1e-12)
        assert report.mota == 1.0
        assert report.motp == pytest.approx(1.0, abs=1e-12)
        assert report.idf1 == 1.0
        flat = report.to_flat()
        assert flat["tra"] == 1.0
        assert "hota_alpha_0.50" in flat
        assert len([k for k in flat if k.startswith("hota_alpha_")]) == 19

    def test_motp_reported_zero_when_undefined(self):
        gt = make_forest(make_track(1, 0, [B]), frames=1)
        pred = make_forest(make_track(101, 0, [bx(400, 400)]), frames=1)
        report = evaluate(pred, gt)
        assert report.motp == 0.0

    def test_frame_range_mismatch_rejected(self):
        gt = make_forest(make_track(1, 0, [B]), frames=2)
        pred = make_forest(make_track(101, 0, [B]), frames=3)
        with pytest.raises(ValidationError):
            evaluate(pred, gt)


# Multiples of 4 and the floats one ulp either side of them.
BAND_EDGES = [
    v for e in (-4.0, 0.0, 4.0, 8.0)
    for v in (np.nextafter(e, -np.inf), e, np.nextafter(e, np.inf))
]


@st.composite
def videos(draw):
    """Per frame, (gt boxes, pred boxes) on a coarse grid, so that edges
    touch, centers fall on edges and intersections tie; some predictions
    repeat a ground-truth box, and some videos sit 1e6 box sizes out."""
    origin = draw(st.sampled_from([0.0, 3e6]))
    unit = draw(st.sampled_from([1.0, 0.1]))
    cell = st.tuples(
        st.integers(0, 12), st.integers(0, 12), st.integers(1, 6), st.integers(1, 6)
    )
    video = []
    for _ in range(draw(st.integers(1, 4))):
        gt = draw(st.lists(cell, max_size=6))
        pred = draw(st.lists(cell, max_size=6))
        if gt:
            pred += draw(st.lists(st.sampled_from(gt), max_size=2))
        video.append(
            tuple(
                [(origin + x * unit, origin + y * unit, w * unit, h * unit)
                 for x, y, w, h in side]
                for side in (gt, pred)
            )
        )
    return video


class TestEvaluationPass:
    """Both scorer families read one overlap pass per (pred, gt) pair."""

    def test_one_overlap_computation_over_touching_pairs(self, monkeypatch):
        calls = []
        inter_union = celltrack.metrics._inter_union

        def counted(gt_boxes, pred_boxes):
            calls.append(gt_boxes.shape)
            return inter_union(gt_boxes, pred_boxes)

        monkeypatch.setattr(celltrack.metrics, "_inter_union", counted)
        gt = make_forest(
            make_track(1, 0, [bx(50, 50)] * 2, children=[2, 3]),
            make_track(2, 2, [bx(40, 50)] * 3, parent=1),
            make_track(3, 2, [bx(60, 50)] * 2, parent=1),
            frames=5,
        )
        pred = relabel(gt)
        pred.tracks[999] = make_track(999, 1, [bx(300, 300)] * 3)
        evaluate(pred, gt)
        # One call over all frames.  A gap of 10 parts the daughters' boxes,
        # so each frame pairs every box with its own copy only: 7 of the 16
        # (gt, pred) pairs of full per-frame matrices.
        assert calls == [(7, 4)]

    def test_shared_pass_gives_standalone_counts(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            gt, pred, frames = random_instance(rng)
            gt_graph, pred_graph = build_graph(gt), build_graph(pred)
            pairs = FramePairs(gt_graph, pred_graph)
            shared = det_lnk_tra(pred_graph, gt_graph, pairs=pairs)
            standalone = det_lnk_tra(pred, gt)
            assert shared.counts == standalone.counts
            assert (shared.det, shared.lnk, shared.tra) == (
                standalone.det, standalone.lnk, standalone.tra
            )
            assert aogm_counts(gt_graph, pred_graph, pairs=pairs) == standalone.counts

    def test_frame_count_checked_once_in_the_pass(self):
        g2 = build_graph(make_forest(make_track(1, 0, [B]), frames=2))
        g3 = build_graph(make_forest(make_track(1, 0, [B]), frames=3))
        with pytest.raises(ValidationError, match="frame count mismatch: gt 2 vs pred 3"):
            FramePairs(g2, g3)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(videos())
    @example([([(0.0, 0.0, 4.0, 4.0)], [(4.0, 0.0, 4.0, 4.0), (-4.0, -4.0, 4.0, 4.0)])])
    @example([([(0.0, 0.0, 4.0, 4.0)], [(2.0, 0.0, 4.0, 4.0), (-2.0, -2.0, 4.0, 4.0)])])
    @example(
        [([(1.0, 1.0, 2.0, 2.0)], [(-1.0, -1.0, 6.0, 6.0), (0.0, 0.0, 4.0, 4.0)] * 2)]
    )
    @example([([], [(0.0, 0.0, 2.0, 2.0)]), ([(0.0, 0.0, 2.0, 2.0)], []), ([], [])])
    @example([([(3e6, 3e6, 3.0, 3.0)], [(3e6 + 1.5, 3e6, 3.0, 3.0), (3e6, 3e6, 3.0, 3.0)])])
    @example([([(3e6, 3e6, 3.0, 3.0)], [(3e6, 3e6 + 1.5, 3.0, 3.0), (3e6, 3e6, 3.0, 3.0)])])
    @example([([(2.0 * i, 0.0, 3.0, 3.0) for i in range(12)],
               [(2.0 * i + 1.0, 0.5, 3.0, 2.0) for i in range(12)])])
    @example([([(0.0, y - 4.0, 4.0, 4.0) for y in BAND_EDGES]
               + [(1.0, y - 2.0, 2.0, 4.0) for y in BAND_EDGES],
               [(0.5, y, 3.0, 4.0) for y in BAND_EDGES])])
    @example([([(0.0, 0.0, 3.0, 5e-324), (0.0, 1.0, 3.0, 5e-324)],
               [(1.0, 0.0, 3.0, 5e-324), (1.0, 5e-324, 3.0, 5e-324), (1.0, -1.0, 3.0, 5e-324)])])
    def test_sparse_pass_equals_full_matrices(self, video):
        # Examples: boxes touching at an edge and at a corner; a center on
        # a predicted box's edge; nested boxes of equal intersection, each
        # twice; frames empty on either side; boxes 1e6 sizes out, along x
        # and along y; every box in one row; predictions starting on the
        # 4-high bands' edges and one ulp either side, under ground truth
        # ending or centred there; bands 5e-324 high.
        def graph(side):
            frames = [f for f, boxes in enumerate(side) for _ in boxes]
            return node_graph(len(video), frames, [b for boxes in side for b in boxes])

        pairs = FramePairs(graph([g for g, _ in video]), graph([p for _, p in video]))
        cover, want = [], []
        row = col = 0
        for gt_boxes, pred_boxes in video:
            cover += [
                -1 if j < 0 else col + j for j in center_match_frame(gt_boxes, pred_boxes)
            ]
            for i, g in enumerate(gt_boxes):
                for j, p in enumerate(pred_boxes):
                    iou = iou_scalar(g, p)
                    if iou >= DEFAULT_ALPHAS[0]:
                        want.append((row + i, col + j, iou))
            row += len(gt_boxes)
            col += len(pred_boxes)
        assert pairs.cover.tolist() == cover
        got = zip(pairs.rows.tolist(), pairs.cols.tolist(), pairs.ious.tolist())
        assert list(got) == want


class TestGoldenScores:
    """Every score of a small noisy corpus, pinned by digest: a change to
    the scoring protocol (an AOGM weight, the HOTA threshold grid, the
    0.5 IoU threshold) or to the rounding of any sum fails here."""

    DIGEST = "a10471502fa78d979aeecb018a06633c0746222a3beed5ab1582e248116e7842"

    @staticmethod
    def cases():
        for seed in (4, 5, 6):
            sim = SimulationConfig(
                frames=30, initial_cells=30, treatment_frame=15,
                death_prob=0.02, box_jitter_sigma=2.0, drop_prob=0.15,
                false_positive_rate=1.0, embedding_noise_sigma=1.0, seed=seed,
            )
            res = simulate(sim)
            dets = corrupt(res.clean, sim)
            for config in (
                TrackerConfig(),
                TrackerConfig(use_kalman=False),
                TrackerConfig(tau_low=0.45, tau_high=0.45),
            ):
                pred = track_video(dets, config)
                pred.meta.frames = sim.frames
                yield pred, res.ground_truth
        # No prediction overlaps the truth at IoU 0.5: MOTP reads 0.0.
        gt = make_forest(make_track(1, 0, [bx(50, 50)] * 3), frames=3)
        yield make_forest(make_track(7, 0, [bx(57, 50)] * 3), frames=3), gt

    def test_scores_unchanged(self):
        digest = hashlib.sha256()
        motps = []
        for pred, gt in self.cases():
            report = evaluate(pred, gt)
            h = hota(pred, gt)
            s = det_lnk_tra(pred, gt)
            try:
                standalone_motp = motp(pred, gt)
            except UndefinedMetricError:
                standalone_motp = None
            motps.append(report.motp)
            values = (
                sorted(report.to_flat().items()),
                (h.hota, h.det_a, h.ass_a),
                (h.hota_alpha, h.det_a_alpha, h.ass_a_alpha),
                (mota(pred, gt), standalone_motp, idf1(pred, gt)),
                (s.det, s.lnk, s.tra, s.counts),
            )
            digest.update(repr(values).encode())
        assert motps[-1] == 0.0 and min(motps[:-1]) > 0.5
        assert digest.hexdigest() == self.DIGEST


def fresh_solve(
    pairs: FramePairs, alpha: float
) -> tuple[np.ndarray, np.ndarray | None]:
    """The pairs matched at ``alpha`` by one solve over all its eligible pairs,
    and that solve's component labels (None when it settled every row)."""
    idx = pairs.eligible(alpha)
    kept, label = _max_iou_pairs(
        pairs.rows[idx], pairs.cols[idx], pairs.ious[idx], pairs.n_rows, pairs.n_cols
    )
    return idx[kept], label


def assert_sweep_exact(gt: TrackingGraph, pred: TrackingGraph) -> bool:
    """Thresholds asked up the grid, and down it then off it, each on a fresh
    pass, match as a from-scratch solve does.  Returns whether the lowest
    threshold left a row unsettled, so that components were re-solved."""
    for order in (DEFAULT_ALPHAS, (*DEFAULT_ALPHAS[::-1], 0.33)):
        pairs = FramePairs(gt, pred)
        for alpha in order:
            want, _ = fresh_solve(pairs, alpha)
            assert pairs.matches(alpha).tolist() == want.tolist(), (alpha, order[0])
    return fresh_solve(pairs, DEFAULT_ALPHAS[0])[1] is not None


class TestThresholdSweep:
    """``FramePairs.matches`` carries each threshold's matching to the next,
    re-solving only the components that lost a pair; every threshold's
    index array equals a from-scratch solve."""

    def test_golden_score_cases(self):
        unsettled = [
            assert_sweep_exact(build_graph(gt), build_graph(pred))
            for pred, gt in TestGoldenScores.cases()
        ]
        assert sum(unsettled) >= 5

    def test_random_instances(self):
        rng = np.random.default_rng(40)
        unsettled = 0
        for _ in range(300):
            gt, pred, _ = random_instance(rng)
            unsettled += assert_sweep_exact(build_graph(gt), build_graph(pred))
        assert unsettled >= 5

    def test_exact_tie_grids(self):
        # The draws of test_exact_ties_resolve_as_per_component_solver.
        rng = np.random.default_rng(20)
        unsettled = 0
        for _ in range(150):
            n_gt, n_pred = rng.integers(1, 8, size=2)
            gt, pred = (
                np.column_stack(
                    [rng.integers(0, 12, size=(n, 2)), rng.choice([4, 6, 8], size=(n, 2))]
                ).astype(float)
                for n in (n_gt, n_pred)
            )
            unsettled += assert_sweep_exact(
                node_graph(1, np.zeros(n_gt), gt), node_graph(1, np.zeros(n_pred), pred)
            )
        assert unsettled > 50

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(videos())
    def test_generated_videos(self, video):
        def graph(side):
            frames = [f for f, boxes in enumerate(side) for _ in boxes]
            return node_graph(len(video), frames, [b for boxes in side for b in boxes])

        assert_sweep_exact(graph([g for g, _ in video]), graph([p for _, p in video]))
