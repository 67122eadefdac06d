"""Association engine: gating, conflicts, divisions, deaths, memory."""

import hashlib
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from celltrack import (
    CellClass,
    CellTracker,
    Detection,
    DetectionFile,
    EndReason,
    LineageForest,
    Provenance,
    SimulationConfig,
    TrackerConfig,
    TrackStatus,
    ValidationError,
    VideoMeta,
    pair_cost,
    corrupt,
    load_detections,
    save_detections,
    save_forest,
    simulate,
    track_video,
)
import celltrack.tracker
from celltrack.cli import _ablation_configs
from celltrack.tracker import _Pool, build_candidates, resolve_conflicts
from conftest import assert_detections_used_at_most_once, bx
from oracles import dense_candidates

CFG = TrackerConfig()


def det(cx, cy, conf=0.9, cls=CellClass.ALIVE, emb=(0.0, 0.0, 0.0, 0.0)):
    return Detection(
        box=bx(cx, cy),
        confidence=conf,
        cell_class=cls,
        embedding=np.array(emb, dtype=float),
    )


def pool(dets, ids=None, pos=None):
    """Gate pool of ``dets``; with ``ids``, of tracks whose last matches
    they are, looked for at their centroids or else at ``pos``."""
    cen = np.array([d.centroid for d in dets], dtype=float).reshape(-1, 2)
    return _Pool(
        cen if pos is None else np.array(pos, dtype=float).reshape(-1, 2),
        np.array([d.cell_class is CellClass.DEAD for d in dets], dtype=bool),
        np.array([d.embedding for d in dets], dtype=float),
        None if ids is None else np.array(ids, dtype=np.int64),
    )


def ref(tid, cx, cy):
    return pool([det(cx, cy)], ids=[tid])


def run(frames, config=CFG):
    engine = CellTracker(config)
    for dets in frames:
        engine.step(dets)
    return engine


def forest_of(engine):
    """The finalized forest of ``engine`` as ``Track`` objects."""
    return LineageForest.from_columns(engine.finalize())


def listed(pairs, config, gate_similarity=True):
    """A gate pass's pairs as ``(cost, track id, detection index)`` in
    its order, the form of ``oracles.dense_candidates``: with
    ``gate_similarity``, only those that pass the class rule and the
    appearance gate, as stage 1 and stage 2 read them; without, all of
    them, as death matching does."""
    keep = pairs.gated(config) if gate_similarity else np.ones(len(pairs), dtype=bool)
    cost = pair_cost(pairs.sim[keep], pairs.dist[keep], config)
    return list(zip(cost.tolist(), pairs.track[keep].tolist(), pairs.det[keep].tolist()))


def gate(tracks, dets, config, gate_similarity=True):
    """``build_candidates``'s pairs, ``listed``."""
    return listed(build_candidates(tracks, dets, config), config, gate_similarity)


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
        pairs = gate(ref(1, 0, 0), pool([det(51, 0)]), CFG)
        assert pairs == []
        pairs = gate(ref(1, 0, 0), pool([det(49, 0)]), CFG)
        assert len(pairs) == 1

    def test_similarity_gate(self):
        far_emb = (20.0, 20.0, 20.0, 20.0)  # L1 = 80 > 65
        pairs = gate(ref(1, 0, 0), pool([det(10, 0, emb=far_emb)]), CFG)
        assert pairs == []
        pairs = gate(
            ref(1, 0, 0), pool([det(10, 0, emb=far_emb)]), CFG, gate_similarity=False
        )
        assert len(pairs) == 1
        assert pairs[0][0] == pytest.approx(pair_cost(80.0, 10.0, CFG))

    def test_cost_matches_pair_cost(self):
        emb = (10.0, 0.0, 0.0, 0.0)
        pairs = gate(ref(1, 0, 0), pool([det(30, 40, emb=emb)]), CFG)
        assert len(pairs) == 1
        cost, tid, di = pairs[0]
        assert (tid, di) == (1, 0)
        assert cost == pytest.approx(pair_cost(10.0, 50.0, CFG))

    def test_empty_inputs(self):
        assert gate(pool([], ids=[]), pool([det(0, 0)]), CFG) == []
        assert gate(ref(1, 0, 0), pool([]), CFG) == []


FINITE = st.one_of(st.integers(-60, 160).map(float), st.floats(-60.0, 160.0))
NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


@st.composite
def gate_inputs(draw):
    """Tracks and detections around a few shared sites.

    Points sit on a site or ``tau_dist`` away from it (straight or as a
    3-4-5 triangle), so many pairs lie exactly on the gate; a shared
    offset moves the field to large coordinates, where the offsets round;
    a lost track is looked for at a Kalman position that may be NaN or
    infinite.
    """
    tau = draw(st.sampled_from([50.0, 12.5, 0.25]))
    cfg = TrackerConfig(tau_dist=tau, tau_sim=draw(st.sampled_from([65.0, 2.0])))
    offset = draw(st.sampled_from([0.0, 1e6 + 0.1, -3e9]))
    sites = draw(st.lists(st.tuples(FINITE, FINITE), min_size=1, max_size=4))
    steps = [(0.0, 0.0), (tau, 0.0), (-tau, 0.0), (0.6 * tau, -0.8 * tau), (-0.8 * tau, 0.6 * tau)]

    def point():
        if draw(st.booleans()):
            x, y = draw(FINITE), draw(FINITE)
        else:
            (x, y), (dx, dy) = draw(st.sampled_from(sites)), draw(st.sampled_from(steps))
            x, y = x + dx, y + dy
        return x + offset, y

    def detection():
        return Detection(
            bx(*point()),
            0.9,
            draw(st.sampled_from(CellClass)),
            np.array(draw(st.lists(st.integers(0, 3).map(float), min_size=2, max_size=2))),
        )

    ids, lasts, pos = [], [], []
    for tid in draw(st.permutations(range(1, draw(st.integers(0, 8)) + 1))):
        ids.append(tid)
        lasts.append(detection())
        pos.append(lasts[-1].centroid)
        if draw(st.booleans()):
            x, y = point()
            pos[-1] = (
                draw(st.one_of(st.just(x), NON_FINITE)), draw(st.one_of(st.just(y), NON_FINITE)),
            )
    dets = [detection() for _ in range(draw(st.integers(0, 12)))]
    return pool(lasts, ids, pos), pool(dets), cfg, draw(st.booleans())


@pytest.fixture
def gate_calls(monkeypatch):
    """Check every ``build_candidates`` call the tracker makes against the
    dense reference, with and without the appearance gate and class rule;
    records each call's track positions and whether it held pairs that
    only death matching reads."""
    calls = []

    def both(tracks, dets, config):
        got = build_candidates(tracks, dets, config)
        for gate_similarity in (True, False):
            assert listed(got, config, gate_similarity) == dense_candidates(
                tracks, dets, config, gate_similarity
            )
        calls.append((tracks.pos.copy(), len(listed(got, config)) < len(got)))
        return got

    monkeypatch.setattr(celltrack.tracker, "build_candidates", both)
    return calls


def on_both_paths(tracks, dets, cfg, gate_similarity=True):
    """``build_candidates`` on the plain x sweep and with every call cut
    into y bands; both must equal the dense reference, which is returned."""
    want = dense_candidates(tracks, dets, cfg, gate_similarity)
    for band_after in (10**9, -1):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(celltrack.tracker, "BAND_AFTER", band_after)
            assert gate(tracks, dets, cfg, gate_similarity) == want
    return want


def column(ys, ids=None):
    """Gate pool of detections (or, given ``ids``, tracks) centred at
    ``(0, y)`` for each ``y``, so every x window holds all of them."""
    return pool([det(0, 0)] * len(ys), ids=ids, pos=[(0.0, y) for y in ys])


def around(edges):
    """Each edge and the floats one ulp either side of it."""
    return [v for e in edges for v in (np.nextafter(e, -np.inf), e, np.nextafter(e, np.inf))]


class TestGateMatchesDenseReference:
    """The sort-and-sweep gate returns the full tracks x detections
    mask's candidate list, element for element and in its order, on the
    x sweep and cut into y bands alike."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(gate_inputs())
    def test_drawn_inputs(self, case):
        tracks, dets, cfg, gate_similarity = case
        assert gate(tracks, dets, cfg, gate_similarity) == dense_candidates(
            tracks, dets, cfg, gate_similarity
        )

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(gate_inputs())
    def test_drawn_inputs_in_y_bands(self, case):
        on_both_paths(*case)

    def test_centroids_on_band_edges(self):
        # Bands are tau_dist = 50 high: detections on the band edges and
        # one ulp either side, and tracks whose windows end there.
        edges = [-100.0, -50.0, 0.0, 50.0, 100.0, 150.0]
        dets = column(around(edges))
        tracks = column(around(edges) + [25.0, 75.0], ids=range(1, 21))
        pairs = on_both_paths(tracks, dets, CFG)
        assert len(pairs) > len(edges) * 9

    @pytest.mark.parametrize("tau", [5e-324, 1e308])
    def test_extreme_gate_distances(self, tau):
        # 5e-324 / 5e-324 is 1 but 1.0 / 5e-324 overflows: bands are 0 and
        # +-inf.  At 1e308 the whole field is one or two bands.
        ys = [0.0, 5e-324, -5e-324, 1e-323, 1.0, -1.0, 1e307, -1e307, 6e307, -6e307]
        cfg = TrackerConfig(tau_dist=tau)
        pairs = on_both_paths(column(ys, ids=range(1, 11)), column(ys), cfg)
        assert len(pairs) > len(ys)

    def test_exact_gate_at_large_y(self):
        py = 1e6 + 0.1
        tracks = column([py], ids=[1])
        ys = around([py - 50.0, py + 50.0])
        dets = column(ys)
        pairs = on_both_paths(tracks, dets, CFG)
        on_gate = {j for j, y in enumerate(ys) if abs(py - y) == 50.0}
        assert on_gate and on_gate <= {j for _, _, j in pairs}

    def test_rounding_at_the_y_window_edge(self):
        # The y form of test_rounding_at_the_window_edge.
        dets = column([10.0 - 2.0**-49])
        tracks = column([60.0], ids=[1])
        assert [(tid, j) for _, tid, j in on_both_paths(tracks, dets, CFG)] == [(1, 0)]

    def test_rounding_at_the_window_edge(self):
        # 60 - (10 - 2**-49) is 50 + 2**-49, which rounds to exactly
        # tau_dist: the exact test keeps a pair whose true x offset is past
        # the gate, so the window must reach below 60 - 50.
        cx = 10.0 - 2.0**-49
        assert Fraction(60.0) - Fraction(cx) > 50 and 60.0 - cx == 50.0
        tracks = ref(1, 60.0, 0.0)
        dets = [det(cx, 0.0)]
        assert dets[0].centroid[0] == cx
        pairs = gate(tracks, pool(dets), CFG)
        assert [(tid, j) for _, tid, j in pairs] == [(1, 0)]
        assert pairs == dense_candidates(tracks, pool(dets), CFG)

    def test_exact_gate_at_large_coordinates(self):
        px = 1e6 + 0.1
        tracks = ref(1, px, 0.0)
        edges = [px - 50.0, px + 50.0]
        xs = [np.nextafter(e, d) for e in edges for d in (-np.inf, np.inf)] + edges
        dets = [det(x, 0.0) for x in xs]
        pairs = gate(tracks, pool(dets), CFG)
        assert pairs == dense_candidates(tracks, pool(dets), CFG)
        on_gate = {j for j, d in enumerate(dets) if abs(px - d.centroid[0]) == 50.0}
        assert on_gate and on_gate <= {j for _, _, j in pairs}

    def test_non_finite_kalman_positions(self, gate_calls):
        # A huge process noise overflows the filter of a track that keeps
        # missing, and its predicted position turns NaN.
        frames = [
            [det(50 + 3 * f, 50), det(200, 200 + 2 * f, emb=(1.0,) * 4)] if f % 3 == 0 else []
            for f in range(12)
        ]
        with np.errstate(all="ignore"):
            track_video(frames, TrackerConfig(process_noise=1.7e308, memory_frames=10))
        assert any(not np.isfinite(pos).all() for pos, _ in gate_calls)

    def test_every_cell_in_one_x_band(self):
        # The x sweep's worst case: every window holds every detection.
        rng = np.random.default_rng(5)
        cells = [(rng.uniform(0, 20), rng.uniform(0, 4000)) for _ in range(300)]
        tracks = pool([det(x, y) for x, y in cells], ids=range(1, len(cells) + 1))
        dets = pool([det(x + rng.normal(0, 3), y + rng.normal(0, 3)) for x, y in cells])
        pairs = gate(tracks, dets, CFG)
        assert len(pairs) > len(cells)
        assert pairs == dense_candidates(tracks, dets, CFG)

    def test_every_cell_in_one_y_row(self):
        rng = np.random.default_rng(5)
        cells = [(rng.uniform(0, 4000), rng.uniform(0, 20)) for _ in range(300)]
        tracks = pool([det(x, y) for x, y in cells], ids=range(1, len(cells) + 1))
        dets = pool([det(x + rng.normal(0, 3), y + rng.normal(0, 3)) for x, y in cells])
        assert len(on_both_paths(tracks, dets, CFG)) > len(cells)

    def test_simulated_videos(self, gate_calls):
        # Every gate pass, which stage 1, death matching and stage 2 all
        # read, on noisy videos with divisions and deaths, with and
        # without Kalman; some passes hold pairs outside the gates.
        for seed in range(3):
            cfg = SimulationConfig(
                frames=40, width=400.0, height=400.0, initial_cells=30,
                division_prob=0.02, death_prob=0.05, treatment_frame=10,
                box_jitter_sigma=2.0, drop_prob=0.1, fade_frames=6.0,
                false_positive_rate=0.5, embedding_noise_sigma=1.0, seed=seed,
            )
            dets = corrupt(simulate(cfg).clean, cfg)
            for tracker_cfg in (CFG, replace(CFG, use_kalman=False)):
                track_video(dets, tracker_cfg)
        assert any(outside for _, outside in gate_calls)


class TestResolveConflicts:
    def pair(self, tid, di, cost):
        return (cost, tid, di)

    @staticmethod
    def resolve(pairs, caps):
        """``resolve_conflicts`` on ``(cost, track, detection)`` tuples;
        an int cap holds for tracks 0-2."""
        cost, tracks, dets = map(np.array, zip(*pairs))
        return resolve_conflicts(cost, tracks, dets, [caps] * 3 if isinstance(caps, int) else caps)

    def test_cheapest_wins(self):
        out = self.resolve(
            [self.pair(1, 0, 0.9), self.pair(2, 0, 0.1)], 1
        )
        assert out == {2: [0]}

    def test_tie_breaks_by_track_then_det(self):
        out = self.resolve(
            [self.pair(2, 0, 0.5), self.pair(1, 0, 0.5)], 1
        )
        assert out == {1: [0]}
        out = self.resolve(
            [self.pair(1, 1, 0.5), self.pair(1, 0, 0.5)], 1
        )
        assert out == {1: [0]}

    def test_per_track_cap(self):
        pairs = [self.pair(1, i, 0.1 * (i + 1)) for i in range(3)]
        assert self.resolve(pairs, 2) == {1: [0, 1]}
        assert self.resolve(pairs, [2, 1, 2]) == {1: [0]}

    def test_loser_takes_next_detection(self):
        pairs = [
            self.pair(1, 0, 0.1),
            self.pair(2, 0, 0.2),
            self.pair(2, 1, 0.8),
        ]
        assert self.resolve(pairs, 1) == {1: [0], 2: [1]}

    def test_first_claim_order(self):
        # Tracks come out in the order of their first claim, not by id.
        pairs = [self.pair(2, 0, 0.1), self.pair(1, 1, 0.2), self.pair(2, 2, 0.3)]
        assert list(self.resolve(pairs, 2).items()) == [(2, [0, 2]), (1, [1])]

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.lists(
        st.tuples(st.sampled_from([0.0, 0.5, 1.0, math.inf]), st.integers(0, 4), st.integers(0, 6)),
        max_size=20, unique_by=lambda p: p[1:],
    ), st.lists(st.integers(1, 3), min_size=5, max_size=5))
    def test_lexsort_order_is_sorted_order(self, pairs, caps):
        # With no NaN cost, np.lexsort on (cost, track, detection) is
        # sorted() of the tuples: the greedy loop the order feeds gives
        # the same claims.
        want: dict[int, list[int]] = {}
        claimed = set()
        for _, t, j in sorted(pairs):
            if j not in claimed and len(want.get(t, [])) < caps[t]:
                claimed.add(j)
                want.setdefault(t, []).append(j)
        got = self.resolve(pairs, caps) if pairs else {}
        assert list(got.items()) == [(t, sorted(js)) for t, js in want.items()]


class TestContinuation:
    def test_single_cell(self):
        engine = run(
            [[det(50, 50)], [det(52, 50)], [det(54, 50)]]
        )
        forest = forest_of(engine)
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
            [det(50, 50, emb=a), det(80, 50, emb=b)],
            [det(52, 50, emb=a), det(78, 50, emb=b)],
        ]
        forest = forest_of(run(frames))
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
            [det(40, 50, emb=a), det(60, 50, emb=b)],
            [det(49, 50, emb=a), det(51, 50, emb=b)],
            [det(60, 50, emb=a), det(40, 50, emb=b)],
        ]
        forest = forest_of(run(frames))
        assert len(forest.tracks) == 2
        by_start = {
            t.entries[0].box[0] + 5.0: t for t in forest.tracks.values()
        }
        left = by_start[40.0]
        assert left.entries[2].box[0] + 5.0 == 60.0


class TestDivision:
    def test_two_daughters(self):
        frames = [
            [det(50, 50)],
            [det(43, 50), det(57, 50)],
            [det(41, 50), det(59, 50)],
        ]
        forest = forest_of(run(frames))
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
            [det(50, 50)],
            [det(44, 50), det(56, 50), det(50, 44)],
        ]
        forest = forest_of(run(frames))
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
            [det(50, 50)],
            [det(45, 50), det(55, 50), det(50, 60, emb=far)],
        ]
        forest = forest_of(run(frames))
        kept = [
            forest.tracks[c].entries[1].box for c in forest.tracks[1].children
        ]
        centers = sorted((b[0] + 5.0, b[1] + 5.0) for b in kept)
        assert centers == [(45.0, 50.0), (55.0, 50.0)]


class TestDeathAndCorpses:
    def test_death_event(self):
        shifted = (30.0, 30.0, 30.0, 30.0)  # L1 120: outside the sim gate
        frames = [
            [det(50, 50)],
            [det(52, 50)],
            [det(53, 50, cls=CellClass.DEAD, emb=shifted)],
            [det(53, 50, cls=CellClass.DEAD, emb=shifted)],
        ]
        forest = forest_of(run(frames))
        assert set(forest.tracks) == {1}
        track = forest.tracks[1]
        assert track.status is TrackStatus.DEAD
        assert track.end_reason is EndReason.DEATH
        assert track.death_event_frame() == 2
        assert track.entries[3].cell_class is CellClass.DEAD
        forest.validate()

    def test_dead_track_ignores_living_detections(self):
        frames = [
            [det(50, 50)],
            [det(50, 50, cls=CellClass.DEAD)],
            [det(50, 50)],  # alive again at the same spot
        ]
        forest = forest_of(run(frames))
        assert len(forest.tracks) == 2
        corpse = forest.tracks[1]
        assert corpse.entries[1].cell_class is CellClass.DEAD
        assert 2 not in corpse.entries
        newborn = forest.tracks[2]
        assert newborn.start_frame == 2
        assert newborn.entries[2].cell_class is CellClass.ALIVE

    def test_corpse_continuation_prefers_similarity(self):
        # Two corpses; each is nearer the detection that looks like the
        # other one, so only the embeddings give the right pairing.
        a = (0.0, 0.0, 0.0, 0.0)
        b = (30.0, 30.0, 0.0, 0.0)
        frames = [
            [
                det(40, 50, cls=CellClass.DEAD, emb=a),
                det(60, 50, cls=CellClass.DEAD, emb=b),
            ],
            [
                det(52, 50, cls=CellClass.DEAD, emb=a),
                det(48, 50, cls=CellClass.DEAD, emb=b),
            ],
        ]
        forest = forest_of(run(frames))
        assert len(forest.tracks) == 2
        followed = {
            (t.entries[0].box, t.entries[1].box) for t in forest.tracks.values()
        }
        assert followed == {(bx(40, 50), bx(52, 50)), (bx(60, 50), bx(48, 50))}


class TestStageOrder:
    def test_continuation_comes_before_death(self):
        # The dead detection is nearer, but a living track first looks for
        # a living one; the dead detection starts a track of its own.
        frames = [
            [det(50, 50)],
            [det(60, 50), det(51, 50, cls=CellClass.DEAD)],
        ]
        forest = forest_of(run(frames))
        assert set(forest.tracks) == {1, 2}
        assert forest.tracks[1].entries[1].box == bx(60, 50)
        assert forest.tracks[1].entries[1].cell_class is CellClass.ALIVE
        assert forest.tracks[2].start_frame == 1
        assert forest.tracks[2].entries[1].box == bx(51, 50)

    def test_corpse_continues_before_a_death(self):
        # A corpse keeps its dead detection even though a living track
        # sits nearer to it; the living track does not die onto it.
        frames = [
            [det(50, 50, cls=CellClass.DEAD), det(62, 50)],
            [det(58, 50, cls=CellClass.DEAD)],
        ]
        forest = forest_of(run(frames))
        assert set(forest.tracks) == {1, 2}
        assert forest.tracks[1].entries[1].box == bx(58, 50)
        assert list(forest.tracks[2].entries) == [0]
        assert forest.tracks[2].death_event_frame() is None

    def test_stage_two_keeps_each_class(self):
        # After a missed frame each lost track takes the farther
        # low-confidence detection of its own class, not the nearer one
        # of the other class.
        frames = [
            [det(50, 50), det(70, 50, cls=CellClass.DEAD)],
            [],
            [
                det(64, 50, conf=0.3),
                det(56, 50, conf=0.3, cls=CellClass.DEAD),
            ],
        ]
        forest = forest_of(run(frames))
        assert set(forest.tracks) == {1, 2}
        living, corpse = forest.tracks[1].entries[2], forest.tracks[2].entries[2]
        assert living.box == bx(64, 50)
        assert living.cell_class is CellClass.ALIVE
        assert corpse.box == bx(56, 50)
        assert corpse.cell_class is CellClass.DEAD
        assert living.provenance is corpse.provenance is Provenance.OBSERVED_LOW


class TestLowConfidence:
    def test_stage_two_reidentifies(self):
        frames = [
            [det(50, 50)],
            [det(52, 50, conf=0.3)],
            [det(54, 50)],
        ]
        forest = forest_of(run(frames))
        assert set(forest.tracks) == {1}
        entry = forest.tracks[1].entries[1]
        assert entry.provenance is Provenance.OBSERVED_LOW

    def test_low_confidence_never_starts_tracks(self):
        forest = forest_of(run([[det(50, 50, conf=0.3)], []]))
        assert forest.tracks == {}

    def test_below_tau_low_is_invisible(self):
        frames = [
            [det(50, 50)],
            [det(52, 50, conf=0.1)],
            [det(54, 50)],
        ]
        forest = forest_of(run(frames))
        track = forest.tracks[1]
        # Frame 1's detection was dropped; the gap was interpolated.
        assert track.entries[1].provenance is Provenance.INTERPOLATED

    def test_high_conf_track_beats_new_track_for_low_det(self):
        # A low-confidence detection near an unmatched track is consumed
        # by stage 2, so no spurious track appears.
        frames = [
            [det(50, 50)],
            [det(53, 50, conf=0.26)],
        ]
        forest = forest_of(run(frames))
        assert set(forest.tracks) == {1}
        assert len(forest.tracks[1].entries) == 2


class TestMemoryBank:
    def test_reidentified_within_memory(self):
        frames = [
            [det(50, 50)],
            [det(52, 50)],
            [],
            [],
            [det(58, 50)],
        ]
        forest = forest_of(run(frames))
        assert set(forest.tracks) == {1}
        track = forest.tracks[1]
        assert sorted(track.entries) == [0, 1, 2, 3, 4]
        assert track.entries[2].provenance is Provenance.INTERPOLATED
        assert track.entries[3].provenance is Provenance.INTERPOLATED
        assert track.entries[4].provenance is Provenance.OBSERVED_HIGH

    def test_interpolation_rejoins_smoothly(self):
        frames = [
            [det(40, 50)],
            [det(44, 50)],
            [],
            [],
            [det(56, 50)],
        ]
        forest = forest_of(run(frames))
        xs = [
            forest.tracks[1].entries[f].box[0] + 5.0 for f in range(5)
        ]
        assert xs == sorted(xs)  # monotone rejoin, no backtracking
        assert max(abs(xs[i + 1] - xs[i]) for i in range(4)) < 8.0

    def test_closed_after_memory_expires(self):
        cfg = TrackerConfig(memory_frames=2)
        frames = [
            [det(50, 50)],
            [],
            [],
            [],
            [det(52, 50)],
        ]
        forest = forest_of(run(frames, cfg))
        assert len(forest.tracks) == 2
        lost = forest.tracks[1]
        assert lost.end_reason is EndReason.LOST
        assert sorted(lost.entries) == [0]
        assert forest.tracks[2].start_frame == 4

    def test_memory_zero_closes_on_first_miss(self):
        cfg = TrackerConfig(memory_frames=0)
        frames = [[det(50, 50)], [], [det(52, 50)]]
        forest = forest_of(run(frames, cfg))
        assert len(forest.tracks) == 2
        assert forest.tracks[1].end_reason is EndReason.LOST

    def test_lost_death_keeps_death_reason(self):
        # A track that died, then lost its corpse, still ends as DEATH.
        frames = [
            [det(50, 50)],
            [det(50, 50, cls=CellClass.DEAD, emb=(30.0, 30.0, 30.0, 30.0))],
            [],
            [],
        ]
        cfg = TrackerConfig(memory_frames=1)
        forest = forest_of(run(frames, cfg))
        track = forest.tracks[1]
        assert track.end_reason is EndReason.DEATH
        assert track.status is TrackStatus.DEAD

    def test_born_dead_then_lost_ends_lost(self):
        # A track born from a corpse never witnessed a death: losing it is
        # a plain loss, though its entries make it a dead track.
        frames = [[det(50, 50, cls=CellClass.DEAD)], [], []]
        cfg = TrackerConfig(memory_frames=1)
        forest = forest_of(run(frames, cfg))
        track = forest.tracks[1]
        assert track.end_reason is EndReason.LOST
        assert track.status is TrackStatus.DEAD
        assert track.death_event_frame() is None

    def test_born_dead_open_at_end_ends_with_video(self):
        frames = [
            [det(50, 50, cls=CellClass.DEAD)],
            [det(50, 50, cls=CellClass.DEAD)],
        ]
        forest = forest_of(run(frames))
        track = forest.tracks[1]
        assert sorted(track.entries) == [0, 1]
        assert track.end_reason is EndReason.END_OF_VIDEO
        assert track.status is TrackStatus.DEAD


class TestKalmanAblation:
    def test_gaps_left_open(self):
        cfg = TrackerConfig(use_kalman=False)
        frames = [
            [det(50, 50)],
            [det(52, 50)],
            [],
            [det(54, 50)],
        ]
        forest = forest_of(run(frames, cfg))
        assert set(forest.tracks) == {1}
        assert sorted(forest.tracks[1].entries) == [0, 1, 3]

    def test_reacquired_at_last_position(self):
        cfg = TrackerConfig(use_kalman=False)
        frames = [
            [det(50, 50)],
            [],
            [det(90, 50)],  # 40 px from last observation: in gate
        ]
        forest = forest_of(run(frames, cfg))
        assert set(forest.tracks) == {1}
        frames2 = [
            [det(50, 50)],
            [],
            [det(105, 50)],  # 55 px: out of gate, new track
        ]
        forest2 = forest_of(run(frames2, cfg))
        assert len(forest2.tracks) == 2


@st.composite
def noisy_videos(draw):
    """A small noisy simulated video, its tracker settings and metadata."""
    frames = draw(st.integers(1, 10))
    sim = SimulationConfig(
        frames=frames, width=160.0, height=160.0,
        initial_cells=draw(st.integers(1, 8)),
        division_prob=draw(st.sampled_from([0.0, 0.05, 0.3])),
        death_prob=draw(st.sampled_from([0.0, 0.05, 0.3])),
        treatment_frame=draw(st.integers(0, frames - 1)),
        box_jitter_sigma=draw(st.sampled_from([0.0, 1.0, 4.0])),
        drop_prob=draw(st.sampled_from([0.0, 0.1, 0.4])),
        fade_frames=draw(st.sampled_from([1.0, 4.0])),
        false_positive_rate=draw(st.sampled_from([0.0, 0.5, 2.0])),
        embedding_noise_sigma=draw(st.sampled_from([0.0, 1.0, 3.0])),
        embedding_dim=draw(st.integers(1, 4)),
        seed=draw(st.integers(0, 2**16)),
    )
    tau_low, tau_high = sorted(draw(st.lists(st.sampled_from([0.0, 0.25, 0.45, 0.7, 1.0]), min_size=2, max_size=2)))
    tracker = TrackerConfig(
        tau_low=tau_low, tau_high=tau_high,
        tau_dist=draw(st.sampled_from([5.0, 25.0, 50.0])),
        tau_sim=draw(st.sampled_from([1.0, 6.5, 65.0])),
        appearance_weight=draw(st.sampled_from([0.0, 0.5, 1.0])),
        memory_frames=draw(st.integers(0, 3)),
        max_daughters=draw(st.integers(1, 3)),
        use_kalman=draw(st.booleans()),
    )
    meta = VideoMeta(video_id="v", frames=frames, width=160.0, height=160.0)
    return corrupt(simulate(sim).clean, sim), tracker, sim.embedding_dim, meta


class TestDetectionColumnsPath:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(noisy_videos())
    def test_file_columns_lists_and_steps_agree(self, tmp_path_factory, case):
        # The detection file's columns, the in-memory columns and lists
        # and a step loop track to the same forest file bytes, and that
        # forest is a valid one that uses each detection at most once.
        columns, config, dim, meta = case
        frames = columns.detections()
        tmp = tmp_path_factory.mktemp("columns")
        save_detections(DetectionFile(meta, dim, columns=columns), str(tmp / "d.txt"))
        loaded = load_detections(str(tmp / "d.txt"))
        engine = CellTracker(config)
        for dets in frames:
            engine.step(dets)
        forests = {
            "file": track_video(loaded.columns, config, loaded.meta),
            "columns": track_video(columns, config, meta),
            "lists": track_video(frames, config, meta),
            "steps": engine.finalize(meta),
        }
        saved = {}
        for name, forest in forests.items():
            paths = save_forest(forest, str(tmp / name))
            saved[name] = [open(p, "rb").read() for p in paths]
        assert saved["file"] == saved["columns"] == saved["lists"] == saved["steps"]
        objects = LineageForest.from_columns(forests["file"])
        objects.validate(require_coverage=config.use_kalman)
        assert_detections_used_at_most_once(objects, frames, config)


class TestEngineContracts:
    def noisy_frames(self, seed=0, frames=30, cells=6):
        rng = np.random.default_rng(seed)
        pos = rng.uniform(60, 400, (cells, 2))
        emb = rng.uniform(-12, 12, (cells, 4))
        out = []
        for _ in range(frames):
            dets = []
            for c in range(cells):
                pos[c] += rng.normal(0, 2, 2)
                conf = 0.9 if rng.random() > 0.2 else 0.3
                dets.append(
                    Detection(
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
        f1 = forest_of(run(frames))
        f2 = forest_of(run(frames))
        p1 = save_forest(f1, str(tmp_path / "a"))
        p2 = save_forest(f2, str(tmp_path / "b"))
        assert open(p1[0]).read() == open(p2[0]).read()
        assert open(p1[1]).read() == open(p2[1]).read()

    def test_detections_consumed_at_most_once(self):
        frames = self.noisy_frames(seed=3)
        forest = forest_of(run(frames))
        assert_detections_used_at_most_once(forest, frames, CFG)

    def test_embedding_dim_change_rejected(self):
        engine = CellTracker()
        engine.step([det(50, 50)])
        with pytest.raises(ValidationError):
            engine.step(
                [
                    Detection(
                        box=bx(52, 50),
                        confidence=0.9,
                        cell_class=CellClass.ALIVE,
                        embedding=np.zeros(7),
                    )
                ],
            )

    def test_embedding_dim_change_named_alike_by_lists_and_steps(self):
        # ``track_video`` stacks the lists before tracking; the stack names
        # the frame of the first embedding of another length, as a step
        # loop does.
        frames = [[det(50, 50)], [], [det(52, 50), det(90, 90, emb=(0.0,) * 7)]]
        with pytest.raises(ValidationError) as stacked:
            track_video(frames)
        engine = CellTracker()
        with pytest.raises(ValidationError) as stepped:
            for frame in frames:
                engine.step(frame)
        message = "embedding length changed from 4 to 7 at frame 2"
        assert str(stacked.value) == str(stepped.value) == message

    def test_step_takes_any_iterable(self, tmp_path):
        # A one-shot iterator of a frame's detections is read once and
        # tracked like the frame's list.
        frames = [
            [det(50 + 2 * f, 50), det(200, 200 + f, emb=(1.0,) * 4)] for f in range(3)
        ]
        by_list, by_iter = CellTracker(), CellTracker()
        for frame in frames:
            by_list.step(frame)
            by_iter.step(iter(frame))
        forests = forest_of(by_list), forest_of(by_iter)
        assert len(forests[1].tracks) == 2
        assert sum(len(t.entries) for t in forests[1].tracks.values()) == 6
        a, b = (save_forest(f, str(tmp_path / name)) for f, name in zip(forests, "ab"))
        assert [open(p).read() for p in a] == [open(p).read() for p in b]

    def test_track_video_wrapper(self):
        frames = [[det(50, 50)], [det(52, 50)]]
        forest = track_video(frames)
        assert forest.ids.tolist() == [1]
        assert forest.meta.frames == 2

    def test_track_video_leaves_the_callers_meta_alone(self):
        # One VideoMeta() reused for a 1-frame and then a 2-frame video:
        # each forest counts its own frames and the caller's object keeps 0.
        meta = VideoMeta()
        one = track_video([[det(50, 50)]], meta=meta)
        two = track_video([[det(50, 50)], [det(52, 50)]], meta=meta)
        assert (one.meta.frames, two.meta.frames, meta.frames) == (1, 2, 0)
        assert two.frames[two.entry_ids == 1].max() == 1

    def test_track_video_declares_the_frames_fed(self):
        # A prefix of a longer video declares the frames it was given.
        frames = [[det(50 + f, 50)] for f in range(5)]
        meta = VideoMeta(video_id="v", frames=5, width=64.0, height=64.0)
        forest = track_video(frames[:3], meta=meta)
        assert forest.meta == replace(meta, frames=3)
        assert meta.frames == 5


class TestGoldenForests:
    """Saved forests of a small README-noise corpus under the four
    ``ablate`` variants and every swept memory, and of a division- and
    death-heavy video, pinned by digest: a refactor of the tracker that
    changes any byte of any forest fails here."""

    DIGESTS = {
        "full": "2db5d6360be4ec71c5a3ce304c29618794e9ff5f5df7d8949b062a85fc3cc409",
        "no_low_conf": "d9064b39d0be8647139ecc9d06a9ad08c4c2e1f77e45320d09e3c02463b331ea",
        "no_kalman": "4e4c01fca10bcb3dada0f9f52f44fb6f838a15bfb4de532f61bcbf402f71714e",
        "neither": "34cdb7a4ccb3e0519e46875ef199a8483d1e92fba16e1f5c2e7fa4faf53ef0e9",
    }
    SWEEP_DIGESTS = {
        "0": "227f68e85652d5fbf0328b035132e487c741b621c46eeaea20d03e554e76276d",
        "1": "dfbc861b538b89a26a6dd3aa41ce28338ac1060a8b65ead9b98656c6d6cccc1d",
        "2": "34e31129c08edf1644a76636a7ac743342f1c9134982cc037bfcf39f56cb8b05",
        "3": "98b974d42db06303ea7397980920068aba0468d47f2bdea3fbef3d44f1e32326",
        "4": "b9049e43ab952bdb6a662f924e4f2837f0257515cadb3e775c8a50e73ec51616",
        "5": "f9bd2116d17cb697757788588139bdbc7398158fd4715871ab791069f0754378",
        "6": "96ed2db741182ef27bcce29cd88efb0e63f2bbb16c6f5d8068e510abcaeda433",
        "7": "04bb9a980a3e7aace059e6f0dd405bcc1c1cb3e92986b41f023f8c24e0881a99",
        "8": "12a1d5f4220d9642d1814dfb0a164dc659fe809b3fc32f30f737281b2a9b917a",
        "9": "0a4d3c2f544074faf0db3bdceffbc69a4d97c586f46e99830bcc5869029e074b",
        "10": "3da3ca436b0c9ccc894f9a6d4a7dd20bfb29a98538a5b0a352b6b57f94f83c60",
        "11": "ef1f0ad978195329dd766459551d8e2a0ecfa60b9fcdb71c35ded6a51fc19960",
        "12": "5e7a10ae446e72eaa9b15e8e91c6ae863ac2f9d26faca3d8e6b2edc8cba84b72",
        "13": "93444c3e3324e9e16d662f89e53fe8180dbce054b090e256ac99084085bc6fb2",
        "14": "3893bb50f6fd80bda71c213f0cc2f1c179129ed984be20c0d0bab6aeff7baac6",
        "15": "c8d15dd8b04a1012684a6277f9e44ba13e87925f683edbbf01bc6c5cb9ca43ce",
    }
    HEAVY_DIGESTS = {
        "three_mem0": "07521a366a622701b860887e50c6ecf1b2b831c6434b2c77ce8ac65d6ae059bd",
        "three": "212c7759d17879f0e9d40efd431da95c837e8b87c8afe599ca870bce7c1fa257",
        "three_no_kalman": "9a64fc1858e429714a389acb5470dc091aa427ddb6c3c3073de6af45ae48e5df",
    }

    @pytest.fixture(scope="class")
    def videos(self):
        out = []
        for seed in (1, 2, 3):
            sim = SimulationConfig(
                frames=40,
                initial_cells=40,
                treatment_frame=20,
                death_prob=0.01,
                box_jitter_sigma=2.0,
                drop_prob=0.1,
                false_positive_rate=0.5,
                embedding_noise_sigma=1.4,
                seed=seed,
            )
            out.append(corrupt(simulate(sim).clean, sim))
        return out

    @staticmethod
    def digest(videos, config, tmp_path, name):
        digest = hashlib.sha256()
        for v, frames in enumerate(videos):
            prefix = str(tmp_path / f"{name}_{v}")
            for path in save_forest(track_video(frames, config), prefix):
                with open(path, "rb") as fh:
                    digest.update(fh.read())
        return digest.hexdigest()

    def test_forest_bytes_unchanged(self, videos, tmp_path):
        digests = {
            name: self.digest(videos, config, tmp_path, name)
            for _, name, config in _ablation_configs(TrackerConfig(), sweep=False)
        }
        assert digests == self.DIGESTS

    def test_memory_sweep_bytes_unchanged(self, videos, tmp_path):
        # Two of the three videos keep the sweep's 16 runs each quick.
        digests = {
            name: self.digest(videos[:2], config, tmp_path, name)
            for kind, name, config in _ablation_configs(TrackerConfig(), sweep=True)
            if kind == "memory"
        }
        assert digests == self.SWEEP_DIGESTS

    def test_division_and_death_heavy_bytes_unchanged(self, tmp_path):
        # Frequent divisions and deaths with many false positives: the
        # trackers below see two- and three-way divisions, dozens of
        # deaths and, with Kalman and memory, interpolated gaps.
        sim = SimulationConfig(
            frames=40,
            initial_cells=40,
            treatment_frame=10,
            division_prob=0.03,
            death_prob=0.05,
            box_jitter_sigma=2.0,
            drop_prob=0.1,
            false_positive_rate=2.0,
            embedding_noise_sigma=1.4,
            seed=5,
        )
        frames = corrupt(simulate(sim).clean, sim)
        three = replace(CFG, max_daughters=3)
        configs = {
            "three_mem0": replace(three, memory_frames=0),
            "three": three,
            "three_no_kalman": replace(three, use_kalman=False),
        }
        digests = {
            name: self.digest([frames], config, tmp_path, name)
            for name, config in configs.items()
        }
        assert digests == self.HEAVY_DIGESTS
