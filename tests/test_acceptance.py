"""Acceptance gate for the tracking engine and its instruments.

Eight release criteria, each reported as one PASS/FAIL line written
straight to the terminal (past output capture, so it shows under plain
``pytest`` and ``pytest -v`` alike):

1. Clean detections reproduce ground truth exactly on 20 simulations.
2. Every score matches an exhaustive reference on 200 random instances.
3. Ablations order as expected on a noisy corpus (10 seeded draws).
4. Memory-bank sweep rises from n=0 to n=5 and plateaus by n=10.
5. Kalman filter converges and keeps covariances symmetric PSD.
6. Tracking invariants hold over 50 random noisy simulations.
7. Lineage analyses recover built-in signal and reject the null.
8. The pair-cost normalization equals one at the gate thresholds.
"""

import math
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from celltrack import (
    AnalysisFilter,
    CellClass,
    LineageForest,
    SimulationConfig,
    TrackerConfig,
    ancestor_descendant_correlation,
    build_graph,
    corrupt,
    det_lnk_tra,
    evaluate,
    event_rates,
    hota,
    idf1,
    mota,
    motp,
    simulate,
    track_video,
)
from celltrack.analysis import interdivision_records
from celltrack.kalman import batch_predict, batch_update, start_cov
from celltrack.metrics import DEFAULT_ALPHAS, UndefinedMetricError, aogm_penalty
from celltrack.tracker import pair_cost
from conftest import assert_detections_used_at_most_once, bx, make_forest, make_track
from oracles import (
    brute_det_lnk_tra,
    brute_hota,
    brute_idf1,
    brute_mota,
    brute_motp,
    random_instance,
)


_REPORTER = None


@pytest.fixture(scope="module", autouse=True)
def _criterion_reporter(request):
    """Route criterion lines past output capture to the live terminal."""
    global _REPORTER
    _REPORTER = request.config.pluginmanager.get_plugin("terminalreporter")
    yield
    _REPORTER = None


@contextmanager
def criterion(num: int, title: str):
    status = "FAIL"
    try:
        yield
        status = "PASS"
    finally:
        line = f"[criterion {num}] {status} - {title}"
        if _REPORTER is None:
            print(line)
        else:
            _REPORTER.ensure_newline()
            _REPORTER.write_line(line)


# ---------------------------------------------------------------------------
# 1. Identity oracle


def identity_config(seed: int) -> SimulationConfig:
    return SimulationConfig(
        frames=234,
        width=1024.0,
        height=1024.0,
        initial_cells=20 + (seed * 7) % 61,
        division_prob=0.004,
        death_prob=0.01,
        treatment_frame=96,
        seed=seed,
    )


def forest_signatures(forest: LineageForest) -> dict:
    sig: dict = {}
    for tid, t in forest.tracks.items():
        key = (
            t.start_frame,
            tuple((f, t.entries[f].box) for f in sorted(t.entries)),
        )
        sig.setdefault(key, []).append(tid)
    return sig


def assert_isomorphic(pred: LineageForest, gt: LineageForest) -> None:
    """Exact forest isomorphism via box-sequence signatures.

    Every track's (start frame, box series) must appear exactly once on
    each side, and the induced bijection must carry parent and child
    links onto each other.
    """
    gt_sig = forest_signatures(gt)
    pred_sig = forest_signatures(pred)
    assert set(gt_sig) == set(pred_sig)
    mapping: dict[int, int] = {}
    for key, gt_ids in gt_sig.items():
        pred_ids = pred_sig[key]
        assert len(gt_ids) == 1 and len(pred_ids) == 1
        mapping[gt_ids[0]] = pred_ids[0]
    for gt_id, pred_id in mapping.items():
        gt_t = gt.tracks[gt_id]
        pred_t = pred.tracks[pred_id]
        if gt_t.parent is None:
            assert pred_t.parent is None
        else:
            assert pred_t.parent == mapping[gt_t.parent]
        assert sorted(pred_t.children) == sorted(
            mapping[c] for c in gt_t.children
        )


def test_criterion_1_identity_oracle():
    with criterion(1, "clean detections reproduce ground truth exactly"):
        start = time.perf_counter()
        for seed in range(20):
            cfg = identity_config(seed)
            res = simulate(cfg)
            dets = corrupt(res.clean, cfg)
            pred = track_video(dets, TrackerConfig())
            pred.meta.frames = cfg.frames
            report = evaluate(pred, res.forest)
            scores = (
                report.det,
                report.lnk,
                report.tra,
                report.hota,
                report.mota,
                report.idf1,
            )
            assert scores == (1.0,) * 6, f"seed {seed}: {scores}"
            assert_isomorphic(LineageForest.from_columns(pred), res.ground_truth)
        assert time.perf_counter() - start < 60.0


# ---------------------------------------------------------------------------
# 2. Exhaustive-reference equivalence


def test_criterion_2_reference_equivalence():
    with criterion(2, "scores match the exhaustive reference on 200 instances"):
        start = time.perf_counter()
        rng = np.random.default_rng(2024)
        for _ in range(200):
            gt, pred, frames = random_instance(rng)

            det, lnk, tra, c = brute_det_lnk_tra(pred, gt, frames)
            s = det_lnk_tra(pred, gt)
            counts = s.counts
            assert (
                counts.node_splits,
                counts.false_negatives,
                counts.false_positives,
                counts.edge_deletions,
                counts.edge_additions,
                counts.edge_changes,
            ) == (c["ns"], c["fn"], c["fp"], c["ed"], c["ea"], c["ec"])
            node_pen = 5 * c["ns"] + 10 * c["fn"] + 1 * c["fp"]
            edge_pen = 1 * c["ed"] + 1.5 * c["ea"] + 1 * c["ec"]
            assert aogm_penalty(counts, ops="nodes") == pytest.approx(
                node_pen, abs=1e-9
            )
            assert aogm_penalty(counts, ops="edges") == pytest.approx(
                edge_pen, abs=1e-9
            )
            assert aogm_penalty(counts, ops="all") == pytest.approx(
                node_pen + edge_pen, abs=1e-9
            )
            assert s.det == pytest.approx(det, abs=1e-9)
            assert s.lnk == pytest.approx(lnk, abs=1e-9)
            assert s.tra == pytest.approx(tra, abs=1e-9)

            bh, bd, ba, _ = brute_hota(pred, gt, frames, DEFAULT_ALPHAS)
            h = hota(pred, gt)
            assert h.hota == pytest.approx(bh, abs=1e-9)
            assert h.det_a == pytest.approx(bd, abs=1e-9)
            assert h.ass_a == pytest.approx(ba, abs=1e-9)

            assert mota(pred, gt) == pytest.approx(
                brute_mota(pred, gt, frames), abs=1e-9
            )
            assert idf1(pred, gt) == pytest.approx(
                brute_idf1(pred, gt, frames), abs=1e-9
            )
            ref_motp = brute_motp(pred, gt, frames)
            try:
                got_motp = motp(pred, gt)
            except UndefinedMetricError:
                got_motp = None
            if ref_motp is None:
                assert got_motp is None
            else:
                assert got_motp == pytest.approx(ref_motp, abs=1e-9)
        assert time.perf_counter() - start < 120.0


# ---------------------------------------------------------------------------
# 3/4. Noisy-corpus ablations and memory sweep


NOISY_DRAWS = 10
VIDEOS_PER_DRAW = 10

_BASE_TRACKER = TrackerConfig()
NOISY_VARIANTS = {
    "full": _BASE_TRACKER,
    "no_low_conf": replace(_BASE_TRACKER, tau_low=_BASE_TRACKER.tau_high),
    "no_kalman": replace(_BASE_TRACKER, use_kalman=False),
    "neither": replace(
        _BASE_TRACKER, tau_low=_BASE_TRACKER.tau_high, use_kalman=False
    ),
    "mem0": replace(_BASE_TRACKER, memory_frames=0),
    "mem10": replace(_BASE_TRACKER, memory_frames=10),
}


def noisy_sim_config(seed: int) -> SimulationConfig:
    # Embedding noise is calibrated so the appearance gate turns away
    # roughly one in twenty genuine consecutive pairs.
    return SimulationConfig(
        frames=100,
        width=640.0,
        height=640.0,
        initial_cells=20,
        division_prob=0.004,
        death_prob=0.01,
        treatment_frame=50,
        box_jitter_sigma=2.0,
        drop_prob=0.1,
        fade_frames=8.0,
        false_positive_rate=0.5,
        embedding_noise_sigma=1.43,
        seed=seed,
    )


def _score_noisy_video(seed: int) -> dict[str, float]:
    cfg = noisy_sim_config(seed)
    res = simulate(cfg)
    dets = corrupt(res.clean, cfg)
    gt = build_graph(res.forest)  # built once, scored by every variant
    out = {}
    for name, tracker_cfg in NOISY_VARIANTS.items():
        pred = track_video(dets, tracker_cfg)
        pred.meta.frames = cfg.frames
        out[name] = det_lnk_tra(pred, gt).tra
    return out


@pytest.fixture(scope="module")
def noisy_draw_means():
    draws = []
    for d in range(NOISY_DRAWS):
        videos = [
            _score_noisy_video(1000 + VIDEOS_PER_DRAW * d + v)
            for v in range(VIDEOS_PER_DRAW)
        ]
        draws.append(
            {
                name: float(np.mean([v[name] for v in videos]))
                for name in NOISY_VARIANTS
            }
        )
    return draws


def embedding_gate_rejection_fraction(seed: int) -> float:
    """Share of true consecutive-frame pairs outside the L1 gate."""
    cfg = noisy_sim_config(seed)
    noisy = corrupt(simulate(cfg).clean, cfg)
    last: dict[int, np.ndarray] = {}
    total = rejected = 0
    for frame in noisy.detections():
        seen: dict[int, np.ndarray] = {}
        for d in frame:
            if d.source_id is None:
                continue
            seen[d.source_id] = d.embedding
            prev = last.get(d.source_id)
            if prev is not None:
                total += 1
                if float(np.abs(d.embedding - prev).sum()) > 65.0:
                    rejected += 1
        last = seen
    return rejected / total


def test_criterion_3_ablation_ordering(noisy_draw_means):
    with criterion(3, "ablation ordering holds on the noisy corpus"):
        assert 0.02 <= embedding_gate_rejection_fraction(777) <= 0.10
        good = sum(
            1
            for m in noisy_draw_means
            if m["full"] >= m["no_kalman"] >= m["no_low_conf"] >= m["neither"]
            and m["full"] - m["neither"] >= 0.01
        )
        assert good >= 8, f"ordering held in only {good}/10 draws"


def test_criterion_4_memory_sweep(noisy_draw_means):
    with criterion(4, "memory bank helps by n=5 and plateaus by n=10"):
        good = sum(
            1
            for m in noisy_draw_means
            # memory_frames defaults to 5, so the full variant is n=5.
            if m["full"] > m["mem0"] and m["mem10"] >= m["full"] - 0.005
        )
        assert good >= 8, f"memory shape held in only {good}/10 draws"


# ---------------------------------------------------------------------------
# 5. Kalman convergence and covariance health


def _assert_healthy_cov(cov: np.ndarray) -> None:
    assert np.allclose(cov, cov.T, atol=1e-9)
    assert float(np.linalg.eigvalsh(cov).min()) > -1e-9


def test_criterion_5_kalman():
    # One filter as the tracker runs it: a (1, 4) / (1, 4, 4) stack.
    with criterion(5, "filter converges; covariance stays symmetric PSD"):
        cfg = TrackerConfig()
        mean, cov = np.zeros((1, 4)), start_cov(cfg.measurement_noise)[None]
        err = math.inf
        for i in range(1, 11):
            mean, cov = batch_predict(mean, cov, cfg.process_noise)
            mean, cov = batch_update(
                mean, cov, np.array([[3.0 * i, -2.0 * i]]), cfg.measurement_noise
            )
            err = math.hypot(mean[0, 0] - 3.0 * i, mean[0, 1] + 2.0 * i)
        assert err < 1e-3

        rng = np.random.default_rng(55)
        for _ in range(1000):
            q = float(10 ** rng.uniform(-2, 1))
            r = float(10 ** rng.uniform(-2, 1))
            mean = np.zeros((1, 4))
            mean[0, :2] = rng.uniform(-100, 100, 2)
            cov = start_cov(r)[None]
            for _ in range(int(rng.integers(3, 12))):
                mean, cov = batch_predict(mean, cov, q)
                _assert_healthy_cov(cov[0])
                if rng.random() < 0.8:
                    mean, cov = batch_update(
                        mean, cov, rng.uniform(-200, 200, (1, 2)), r
                    )
                    _assert_healthy_cov(cov[0])


# ---------------------------------------------------------------------------
# 6. Tracking invariants on random noisy inputs


def random_sim_config(rng: np.random.Generator, i: int) -> SimulationConfig:
    frames = int(rng.integers(30, 61))
    return SimulationConfig(
        frames=frames,
        width=float(rng.integers(400, 701)),
        height=float(rng.integers(400, 701)),
        initial_cells=int(rng.integers(5, 13)),
        division_prob=float(rng.uniform(0.0, 0.01)),
        death_prob=float(rng.uniform(0.0, 0.1)),
        treatment_frame=int(rng.integers(5, frames - 5)),
        box_jitter_sigma=float(rng.uniform(0.0, 2.0)),
        drop_prob=float(rng.uniform(0.0, 0.15)),
        fade_frames=float(rng.uniform(2.0, 10.0)),
        false_positive_rate=float(rng.uniform(0.0, 0.8)),
        embedding_noise_sigma=float(rng.uniform(0.0, 1.2)),
        seed=9000 + i,
    )


def _entries_identical(a: LineageForest, b: LineageForest) -> bool:
    if set(a.tracks) != set(b.tracks):
        return False
    for tid, ta in a.tracks.items():
        tb = b.tracks[tid]
        if (
            ta.parent != tb.parent
            or sorted(ta.children) != sorted(tb.children)
            or ta.status is not tb.status
            or ta.end_reason is not tb.end_reason
            or ta.entries.keys() != tb.entries.keys()
        ):
            return False
        for f, ea in ta.entries.items():
            eb = tb.entries[f]
            if (
                ea.box != eb.box
                or ea.cell_class is not eb.cell_class
                or ea.provenance is not eb.provenance
            ):
                return False
    return True


def test_criterion_6_invariants():
    with criterion(6, "determinism and structural invariants on 50 runs"):
        rng = np.random.default_rng(6)
        tracker_cfg = TrackerConfig()
        for i in range(50):
            cfg = random_sim_config(rng, i)
            dets = corrupt(simulate(cfg).clean, cfg)

            forest = LineageForest.from_columns(track_video(dets, tracker_cfg))

            # Bit-identical rerun.
            again = LineageForest.from_columns(track_video(dets, tracker_cfg))
            assert _entries_identical(forest, again)

            # Gap-free spans, dead monotonicity, division adjacency.
            forest.validate()
            for t in forest.tracks.values():
                assert sorted(t.entries) == list(
                    range(t.start_frame, t.last_frame + 1)
                )
                seen_dead = False
                for f in sorted(t.entries):
                    if t.entries[f].cell_class is CellClass.DEAD:
                        seen_dead = True
                    else:
                        assert not seen_dead
                for c in t.children:
                    assert forest.tracks[c].start_frame == t.last_frame + 1

            # Each observed entry is one detection, used at most once.
            assert_detections_used_at_most_once(forest, dets.detections(), tracker_cfg)


# ---------------------------------------------------------------------------
# 7. Analysis sanity on constructed signal


def test_criterion_7_analysis_sanity():
    with criterion(7, "analyses recover built-in signal and reject the null"):
        herit_cfg = SimulationConfig(
            frames=140,
            width=1024.0,
            height=1024.0,
            initial_cells=60,
            division_period=40,
            treatment_frame=120,
            seed=11,
            size_inheritance="heritable",
            daughter_size_noise=0.01,
        )
        herit = ancestor_descendant_correlation(
            [simulate(herit_cfg).ground_truth], AnalysisFilter()
        ).by_pair[(1, 2)]
        assert herit.r > 0.9

        null = ancestor_descendant_correlation(
            [
                simulate(
                    replace(herit_cfg, size_inheritance="independent")
                ).ground_truth
            ],
            AnalysisFilter(),
        ).by_pair[(1, 2)]
        assert null.n >= 100
        assert abs(null.r) < 0.2

        treated_cfg = SimulationConfig(
            frames=160,
            width=1024.0,
            height=1024.0,
            initial_cells=150,
            division_prob=0.01,
            treatment_frame=80,
            post_treatment_division_factor=0.2,
            seed=3,
        )
        treated = event_rates([simulate(treated_cfg).ground_truth], bin_size=20)
        control = event_rates(
            [
                simulate(
                    replace(treated_cfg, post_treatment_division_factor=1.0)
                ).ground_truth
            ],
            bin_size=20,
        )
        treated_pre = float(np.mean(treated.division_rate[:4]))
        treated_post = float(np.mean(treated.division_rate[4:]))
        control_post = float(np.mean(control.division_rate[4:]))
        assert treated_post < control_post
        assert treated_post < treated_pre

        # Cycle-duration screen keeps 100-frame cycles, drops 101-frame.
        chains = []
        for k, span in enumerate([40, 99, 100, 101, 130]):
            base = 100 * (k + 1)
            chains.append(
                make_track(base + 1, 0, [bx(50, 50)], children=[base + 2])
            )
            chains.append(
                make_track(
                    base + 2, 1, [bx(50, 50)] * span, parent=base + 1,
                    children=[base + 3, base + 4],
                )
            )
            chains.append(
                make_track(base + 3, 1 + span, [bx(40, 50)] * 2,
                           parent=base + 2)
            )
            chains.append(
                make_track(base + 4, 1 + span, [bx(60, 50)] * 2,
                           parent=base + 2)
            )
        forest = make_forest(*chains)
        durations = sorted(
            r.duration for r in interdivision_records([forest], AnalysisFilter())
        )
        assert durations == [40, 99, 100]


# ---------------------------------------------------------------------------
# 8. Cost normalization identity


def test_criterion_8_cost_identity():
    with criterion(8, "pair cost equals one exactly at both gate thresholds"):
        cfg = TrackerConfig()
        assert pair_cost(cfg.tau_sim, cfg.tau_dist, cfg) == 1.0
        skewed = TrackerConfig(appearance_weight=0.3)
        assert pair_cost(skewed.tau_sim, skewed.tau_dist, skewed) == 1.0
