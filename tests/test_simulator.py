"""Generative model and detector-corruption behavior."""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from celltrack import (
    CellClass,
    Detection,
    EndReason,
    SimulationConfig,
    TrackerConfig,
    TrackStatus,
    ValidationError,
    corrupt,
    det_lnk_tra,
    evaluate,
    simulate,
    track_video,
)
from celltrack import simulator
from celltrack.cli import _simulate_one
from celltrack.core import MAX_FRAMES, DetectionColumns
from celltrack.simulator import MAX_CELLS, corrupts


def dets_equal(a, b) -> bool:
    return (
        a.box == b.box
        and a.confidence == b.confidence
        and a.cell_class == b.cell_class
        and a.source_id == b.source_id
        and np.array_equal(a.embedding, b.embedding)
    )


def frames_equal(fa, fb) -> bool:
    if len(fa) != len(fb):
        return False
    for da, db in zip(fa, fb):
        if len(da) != len(db):
            return False
        if not all(dets_equal(x, y) for x, y in zip(da, db)):
            return False
    return True


class TestConfigValidation:
    def test_defaults_are_valid(self):
        SimulationConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"frames": 0},
            {"treatment_frame": 50, "frames": 50},
            {"treatment_frame": -1},
            {"width": 0.0},
            {"initial_cells": 0},
            {"embedding_dim": 0},
            {"drop_prob": 1.5},
            {"fade_miss_fraction": -0.1},
            {"fade_frames": 0.5},
            {"size_inheritance": "psychic"},
            {"sister_growth_weight": 2.0},
            {"post_treatment_division_factor": -1.0},
            {"division_prob": 1.5},
            {"death_prob": -0.2},
            {"frames": 20.5},
            {"seed": 1.5},
            {"embedding_dim": 2.5},
            {"initial_cells": True},
            {"division_period": 2.5},
            {"fade_frames": float("nan")},
            {"box_jitter_sigma": float("nan")},
            {"width": float("inf")},
            {"height": 10**400},
            {"drop_prob": "0.1"},
            {"video_id": 7},
            {"daughter_size_noise": -0.1},
            {"box_jitter_sigma": -0.1},
            {"embedding_noise_sigma": -0.1},
            {"false_positive_rate": -0.1},
            {"division_period": 0},
            {"division_period": -3},
            {"width": 1.0},
            {"height": 37.0},
            {"division_pulse_frame": -1},
            {"division_pulse_frame": 59},
            {"division_pulse_frame": 99},
            {"division_period": 6, "division_pulse_frame": 2},
            {"seed": -1},
            {"box_jitter_sigma": True},
        ],
    )
    def test_rejects(self, kwargs):
        base = {"frames": 60, "treatment_frame": 10}
        base.update(kwargs)
        with pytest.raises(ValidationError):
            SimulationConfig(**base)

    def test_frame_ceiling(self):
        # simulate never writes a file the loaders refuse.
        assert SimulationConfig(frames=MAX_FRAMES).frames == MAX_FRAMES
        with pytest.raises(
            ValidationError,
            match=f"frames must be at most {MAX_FRAMES}, got {MAX_FRAMES + 1}",
        ):
            SimulationConfig(frames=MAX_FRAMES + 1)

    def test_cell_ceiling(self, monkeypatch):
        assert SimulationConfig(initial_cells=MAX_CELLS).initial_cells == MAX_CELLS
        with pytest.raises(ValidationError, match=f"initial_cells must be at most {MAX_CELLS}"):
            SimulationConfig(initial_cells=MAX_CELLS + 1)
        # A population doubling every frame: 5, 10, 20, then 40 cells.
        cfg = SimulationConfig(frames=4, initial_cells=5, division_period=1,
                               treatment_frame=3)
        monkeypatch.setattr(simulator, "MAX_CELLS", 40)
        assert len(simulate(cfg).clean_frames[3]) == 40
        monkeypatch.setattr(simulator, "MAX_CELLS", 39)
        with pytest.raises(ValidationError, match="frame 3 would hold 40 cells"):
            simulate(cfg)


class TestGenerativeModel:
    def test_deterministic_per_seed(self):
        cfg = SimulationConfig(
            frames=25, initial_cells=6, division_prob=0.02,
            death_prob=0.03, treatment_frame=8, seed=4,
        )
        a, b = simulate(cfg), simulate(cfg)
        assert frames_equal(a.clean_frames, b.clean_frames)
        assert set(a.ground_truth.tracks) == set(b.ground_truth.tracks)
        for tid, ta in a.ground_truth.tracks.items():
            tb = b.ground_truth.tracks[tid]
            assert ta.entries.keys() == tb.entries.keys()
            assert all(
                ta.entries[f].box == tb.entries[f].box for f in ta.entries
            )
        c = simulate(SimulationConfig(**{**cfg.__dict__, "seed": 5}))
        assert not frames_equal(a.clean_frames, c.clean_frames)

    def test_initial_population(self):
        cfg = SimulationConfig(frames=5, initial_cells=9, treatment_frame=0)
        res = simulate(cfg)
        roots = [t for t in res.ground_truth.tracks.values() if t.parent is None]
        assert len(roots) == 9
        assert all(t.start_frame == 0 for t in roots)
        assert len(res.clean_frames[0]) == 9

    def test_forest_passes_validation(self):
        cfg = SimulationConfig(
            frames=40, initial_cells=8, division_prob=0.03,
            death_prob=0.02, treatment_frame=10, seed=2,
        )
        simulate(cfg).ground_truth.validate()  # includes adjacency + coverage

    def test_meta_matches_config(self):
        cfg = SimulationConfig(
            frames=6, width=300.0, height=200.0, initial_cells=2,
            treatment_frame=0, video_id="vid_7", dosage="10uM",
        )
        meta = simulate(cfg).ground_truth.meta
        assert (meta.video_id, meta.frames, meta.width, meta.height,
                meta.dosage) == ("vid_7", 6, 300.0, 200.0, "10uM")

    def test_clean_detections_are_exact(self):
        cfg = SimulationConfig(frames=4, initial_cells=3, treatment_frame=0)
        res = simulate(cfg)
        for frame, frame_dets in enumerate(res.clean_frames):
            for d in frame_dets:
                assert d.confidence == 1.0
                assert not d.embedding.flags.writeable
                assert d.source_id in res.ground_truth.tracks
                entry = res.ground_truth.tracks[d.source_id].entries[frame]
                assert entry.box == d.box

    def test_population_accounting(self):
        cfg = SimulationConfig(
            frames=60, initial_cells=12, division_prob=0.03,
            death_prob=0.04, treatment_frame=20, seed=7,
        )
        res = simulate(cfg)
        forest = res.ground_truth
        alive = [
            sum(1 for d in frame if d.cell_class is CellClass.ALIVE)
            for frame in res.clean_frames
        ]
        present = [len(frame) for frame in res.clean_frames]
        divisions = [0] * cfg.frames
        deaths = [0] * cfg.frames
        for t in forest.tracks.values():
            if t.children:
                divisions[t.last_frame] += 1
            f = t.death_event_frame()
            if f is not None:
                deaths[f - 1] += 1
        for t in range(cfg.frames - 1):
            assert alive[t + 1] == alive[t] + divisions[t] - deaths[t]
            assert present[t + 1] == present[t] + divisions[t]
        assert sum(divisions) > 0 and sum(deaths) > 0

    def test_death_only_after_treatment(self):
        cfg = SimulationConfig(
            frames=50, initial_cells=15, division_prob=0.0,
            death_prob=0.2, treatment_frame=30, seed=1,
        )
        forest = simulate(cfg).ground_truth
        death_frames = [
            t.death_event_frame()
            for t in forest.tracks.values()
            if t.death_event_frame() is not None
        ]
        assert death_frames
        assert min(death_frames) >= cfg.treatment_frame + 1

    def test_dead_cells_persist_to_video_end(self):
        cfg = SimulationConfig(
            frames=12, initial_cells=8, division_prob=0.0,
            death_prob=1.0, treatment_frame=4,
        )
        forest = simulate(cfg).ground_truth
        for t in forest.tracks.values():
            # Everyone dies at the first eligible transition and the
            # corpse is recorded through the final frame.
            assert t.death_event_frame() == 5
            assert t.last_frame == 11
            assert t.status is TrackStatus.DEAD
            assert t.end_reason is EndReason.DEATH
            assert t.entries[4].cell_class is CellClass.ALIVE
            assert all(
                t.entries[f].cell_class is CellClass.DEAD for f in range(5, 12)
            )

    def test_division_period_synchronous_waves(self):
        cfg = SimulationConfig(
            frames=7, initial_cells=1, division_period=3,
            division_prob=0.9, treatment_frame=0,
        )
        forest = simulate(cfg).ground_truth
        assert len(forest.tracks) == 7  # 1 + 2 + 4
        root = forest.tracks[1]
        assert (root.start_frame, root.last_frame) == (0, 2)
        for cid in root.children:
            child = forest.tracks[cid]
            assert (child.start_frame, child.last_frame) == (3, 5)
            assert len(child.children) == 2
            for gid in child.children:
                assert forest.tracks[gid].entries.keys() == {6}

    def test_division_pulse_single_wave(self):
        cfg = SimulationConfig(
            frames=5, initial_cells=3, division_pulse_frame=2,
            division_prob=0.0, treatment_frame=0,
        )
        forest = simulate(cfg).ground_truth
        parents = [t for t in forest.tracks.values() if t.children]
        daughters = [t for t in forest.tracks.values() if t.parent is not None]
        assert len(parents) == 3 and len(daughters) == 6
        assert all(t.last_frame == 2 for t in parents)
        assert all(
            (t.start_frame, t.last_frame) == (3, 4) for t in daughters
        )

    def test_post_treatment_factor_suppresses_division(self):
        base = dict(
            frames=80, initial_cells=40, division_prob=0.05,
            treatment_frame=40, seed=6,
        )
        free = simulate(SimulationConfig(**base)).ground_truth
        halted = simulate(
            SimulationConfig(**base, post_treatment_division_factor=0.0)
        ).ground_truth

        def divisions_after(forest, frame):
            return sum(
                1
                for t in forest.tracks.values()
                if t.children and t.last_frame >= frame
            )

        assert divisions_after(halted, 40) == 0
        assert divisions_after(free, 40) > 0
        # Before treatment the two runs are statistically alike.
        assert divisions_after(halted, 0) > 0

    def test_daughters_start_adjacent_to_parent(self):
        cfg = SimulationConfig(
            frames=30, initial_cells=10, division_prob=0.05,
            treatment_frame=0, seed=3,
        )
        forest = simulate(cfg).ground_truth
        count = 0
        for t in forest.tracks.values():
            for cid in t.children:
                count += 1
                assert forest.tracks[cid].start_frame == t.last_frame + 1
        assert count >= 2


# ``corrupt`` fades confidences into the tracker's default bands.
BANDS = TrackerConfig()


class TestCorruption:
    def clean(self, **overrides):
        cfg = SimulationConfig(
            frames=40, initial_cells=10, division_prob=0.01,
            treatment_frame=10, seed=9, **overrides,
        )
        return simulate(cfg).clean, cfg

    @staticmethod
    def noisy(clean, cfg):
        """``corrupt``'s output as per-frame ``Detection`` lists."""
        return corrupt(clean, cfg).detections()

    def test_zero_noise_is_identity(self):
        frames, cfg = self.clean()
        assert not corrupts(cfg)
        assert frames_equal(frames.detections(), self.noisy(frames, cfg))
        for setting in ("box_jitter_sigma", "drop_prob", "false_positive_rate",
                        "embedding_noise_sigma"):
            assert corrupts(replace(cfg, **{setting: 1e-3})), setting

    def test_returns_its_input_when_nothing_corrupts(self):
        # Fade lengths and miss fractions alone degrade nothing.
        clean, cfg = self.clean(fade_frames=3.0, fade_miss_fraction=1.0)
        assert not corrupts(cfg)
        assert corrupt(clean, cfg) is clean

    def test_deterministic(self):
        frames, cfg = self.clean(
            box_jitter_sigma=1.0, drop_prob=0.1, false_positive_rate=0.5,
            embedding_noise_sigma=0.5,
        )
        assert frames_equal(self.noisy(frames, cfg), self.noisy(frames, cfg))

    def test_full_drop_fades_everything(self):
        frames, cfg = self.clean(drop_prob=1.0, fade_miss_fraction=1.0)
        for frame in self.noisy(frames, cfg):
            for d in frame:
                assert d.confidence < BANDS.tau_low

    def test_fade_confidence_bands(self):
        # miss fraction 0 keeps every faded detection in the low band
        # instead of dropping it below the floor.
        frames, cfg = self.clean(drop_prob=1.0, fade_miss_fraction=0.0)
        for frame in self.noisy(frames, cfg):
            for d in frame:
                assert BANDS.tau_low <= d.confidence < BANDS.tau_high

    def test_fade_fraction_near_stationary_level(self):
        cfg = SimulationConfig(
            frames=200, initial_cells=30, division_prob=0.0,
            treatment_frame=0, seed=12, drop_prob=0.2, fade_frames=8.0,
            fade_miss_fraction=1.0,
        )
        noisy = self.noisy(simulate(cfg).clean, cfg)
        total = sum(len(f) for f in noisy)
        faded = sum(
            1 for f in noisy for d in f if d.confidence < BANDS.tau_low
        )
        assert 0.10 < faded / total < 0.30

    def test_fades_come_in_runs(self):
        cfg = SimulationConfig(
            frames=200, initial_cells=30, division_prob=0.0,
            treatment_frame=0, seed=12, drop_prob=0.2, fade_frames=8.0,
            fade_miss_fraction=1.0,
        )
        noisy = self.noisy(simulate(cfg).clean, cfg)
        state = {}
        runs = []
        for frame in noisy:
            for d in frame:
                low = d.confidence < BANDS.tau_low
                if low:
                    state[d.source_id] = state.get(d.source_id, 0) + 1
                elif state.get(d.source_id):
                    runs.append(state.pop(d.source_id))
        runs.extend(state.values())
        # Mean faded streak should sit near the configured persistence,
        # far above the length-1 runs independent drops would produce.
        assert 4.0 < float(np.mean(runs)) < 13.0

    def test_jitter_keeps_positive_sizes(self):
        frames, cfg = self.clean(box_jitter_sigma=30.0)
        for frame in self.noisy(frames, cfg):
            for d in frame:
                assert d.box[2] >= 1.0 and d.box[3] >= 1.0

    def test_jitter_that_loses_a_box_is_rejected(self):
        # Jitter of 1e300 carries a box to where its size is lost to
        # rounding; the video's column check raises that row's error.
        frames, cfg = self.clean(box_jitter_sigma=1e300)
        with pytest.raises(ValidationError, match="size lost to rounding"):
            corrupt(frames, cfg)

    def test_jitter_perturbs_boxes(self):
        frames, cfg = self.clean(box_jitter_sigma=2.0)
        noisy = self.noisy(frames, cfg)
        moved = [
            abs(n.box[0] - c.box[0])
            for cf, nf in zip(frames.detections(), noisy)
            for c, n in zip(cf, nf)
        ]
        assert np.mean(moved) == pytest.approx(
            2.0 * np.sqrt(2 / np.pi), rel=0.2
        )

    def test_false_positives(self):
        frames, cfg = self.clean(false_positive_rate=2.0)
        noisy = self.noisy(frames, cfg)
        fps = [d for f in noisy for d in f if d.source_id is None]
        per_frame = len(fps) / len(noisy)
        assert per_frame == pytest.approx(2.0, rel=0.35)
        for d in fps:
            assert BANDS.tau_low <= d.confidence < 1.0
            assert d.cell_class is CellClass.ALIVE
            x, y, w, h = d.box
            assert 0.0 <= x and x + w <= cfg.width
            assert 0.0 <= y and y + h <= cfg.height
        # Random embeddings sit far outside the latent range of real
        # cells, so appearance gating can reject them.
        emb = np.stack([d.embedding for d in fps])
        assert abs(float(emb.mean())) < 0.1
        assert float(emb.std()) == pytest.approx(1.0, rel=0.1)

    def test_hand_built_frames(self):
        # An empty frame between two others, and detections without a
        # source id next to ones with it.
        emb = np.ones(4)

        def det(source_id):
            return Detection(
                (10.0, 10.0, 30.0, 30.0), 0.8, CellClass.ALIVE, emb, source_id
            )

        frames = [[det(1), det(None)], [], [det(None), det(1)]]
        cfg = SimulationConfig(
            frames=3, treatment_frame=0, embedding_dim=4, drop_prob=1.0,
            fade_miss_fraction=1.0, false_positive_rate=4.0, seed=3,
        )
        noisy = self.noisy(DetectionColumns.stack(frames), cfg)
        # The empty middle frame's false positives land in its own list.
        assert len(noisy) == len(frames)
        assert noisy[1]
        assert all(d.source_id is None for d in noisy[1])
        for clean, out in zip(frames, noisy):
            assert all(not d.embedding.flags.writeable for d in out)
            # Every detection with an id fades; those without never do.
            real = out[: len(clean)]
            assert [d.source_id for d in real] == [d.source_id for d in clean]
            for d in real:
                if d.source_id is None:
                    assert d.confidence == 0.8
                else:
                    assert d.confidence < BANDS.tau_low

    def test_embedding_noise(self):
        clean, cfg = self.clean(embedding_noise_sigma=0.7)
        frames, noisy = clean.detections(), self.noisy(clean, cfg)
        deltas = [
            n.embedding - c.embedding
            for cf, nf in zip(frames, noisy)
            for c, n in zip(cf, nf)
        ]
        flat = np.concatenate(deltas)
        assert float(flat.std()) == pytest.approx(0.7, rel=0.1)
        # Identity columns untouched.
        assert all(
            n.source_id == c.source_id
            for cf, nf in zip(frames, noisy)
            for c, n in zip(cf, nf)
        )


class TestOracleRoundTrip:
    def test_clean_run_tracks_perfectly(self):
        cfg = SimulationConfig(
            frames=30, width=512.0, height=512.0, initial_cells=6,
            division_prob=0.01, death_prob=0.02, treatment_frame=10, seed=21,
        )
        res = simulate(cfg)
        dets = corrupt(res.clean, cfg)
        tracker_cfg = TrackerConfig()
        pred = track_video(dets, tracker_cfg)
        pred.meta.frames = cfg.frames
        s = det_lnk_tra(pred, res.ground_truth)
        assert (s.det, s.lnk, s.tra) == (1.0, 1.0, 1.0)
        report = evaluate(pred, res.ground_truth)
        assert report.hota == pytest.approx(1.0, abs=1e-12)
        assert report.idf1 == 1.0


class TestGoldenOutputs:
    """Everything ``celltrack simulate`` writes for a few small configs,
    pinned by digest, plus the in-memory track, entry and child order of
    the ground truth: a refactor of the simulator that changes any byte
    or any order fails here."""

    CONFIGS = {
        # Random division scaled after treatment, deaths, heritable sizes,
        # shared sister growth, and every corruption at once.
        "random": dict(
            frames=30, width=300.0, height=300.0, initial_cells=8,
            division_prob=0.05, death_prob=0.05, treatment_frame=12,
            post_treatment_division_factor=2.5, sister_growth_weight=0.5,
            box_jitter_sigma=1.5, drop_prob=0.2, fade_frames=3.0,
            false_positive_rate=1.0, embedding_noise_sigma=0.7, seed=31,
        ),
        # Synchronous waves, independent daughter sizes, strong sister
        # growth; false positives draw sizes from the same range.
        "period": dict(
            frames=24, width=400.0, height=400.0, initial_cells=3,
            division_period=7, treatment_frame=20,
            size_inheritance="independent", sister_growth_weight=0.8,
            false_positive_rate=2.0, seed=32,
        ),
        # One division pulse followed by deaths; every detection fades,
        # half of them into the low-confidence band.
        "pulse": dict(
            frames=20, width=250.0, height=250.0, initial_cells=5,
            division_pulse_frame=4, death_prob=0.1, treatment_frame=8,
            sister_growth_weight=1.0, drop_prob=1.0, fade_miss_fraction=0.5,
            box_jitter_sigma=0.5, seed=33,
        ),
        # A field barely wider than a cell: boxes at the 4.0 size floor,
        # boxes wider than the field (reflection's empty span), deaths
        # from frame 0, and heavy jitter, drops, false positives and
        # embedding noise.
        "tight": dict(
            frames=40, width=40.0, height=60.0, initial_cells=6,
            division_prob=0.1, death_prob=0.1, treatment_frame=0,
            daughter_size_noise=1.5, embedding_dim=3, box_jitter_sigma=3.0,
            drop_prob=0.5, false_positive_rate=3.0, embedding_noise_sigma=2.0,
            seed=34,
        ),
        # No corruption at all (the default): detections.txt is the clean
        # detections' bytes, with divisions, deaths and dead-class rows.
        "clean": dict(
            frames=25, width=320.0, height=320.0, initial_cells=6,
            division_prob=0.08, death_prob=0.05, treatment_frame=5,
            embedding_dim=5, seed=35,
        ),
    }

    DIGESTS = {
        "clean": "d7d289c04ed3f94dff947e6394053e473b496c6cf4070791b138ca0baeed20cc",
        "random": "e06a8a5f9662dd2df072c858a36ad4f34432472f293d57ac280a3e95e842b308",
        "period": "8638c4b51868c1006b4dd7e0dea1c74fa41553c551eab483ec4baef724b7939b",
        "pulse": "eb43d74285f77086e83c8effc68a84acd1523da8c3c888aa6a7b7ea64441e185",
        "tight": "11331c2a5137d67fe667f23bd82babb88e26af1eea18866ec39c2abb922ac632",
    }

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_outputs_unchanged(self, name, tmp_path):
        cfg = SimulationConfig(**self.CONFIGS[name])
        _simulate_one(cfg, str(tmp_path))
        digest = hashlib.sha256()
        for fname in ("gt_tracks.txt", "gt_entries.txt", "clean.txt",
                      "detections.txt"):
            digest.update((tmp_path / fname).read_bytes())
        for tid, t in simulate(cfg).ground_truth.tracks.items():
            digest.update(repr((tid, t.children, list(t.entries))).encode())
        assert digest.hexdigest() == self.DIGESTS[name]
