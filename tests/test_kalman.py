"""Constant-velocity filter: convergence, stability, gap interpolation."""

import numpy as np
import pytest

from celltrack import (
    CellClass,
    Provenance,
    TrackerConfig,
    interpolate_gap,
    kf_init,
    kf_predict,
    kf_update,
)
from celltrack.kalman import KalmanState, batch_predict, batch_update

CFG = TrackerConfig()


def run_track(velocity, steps, start=(0.0, 0.0), cfg=CFG):
    """Feed noiseless constant-velocity measurements; return final state."""
    state = kf_init(start, cfg)
    errors = []
    for k in range(1, steps + 1):
        truth = (start[0] + velocity[0] * k, start[1] + velocity[1] * k)
        state = kf_predict(state, cfg)
        state = kf_update(state, truth, cfg)
        errors.append(
            float(np.hypot(state.position[0] - truth[0], state.position[1] - truth[1]))
        )
    return state, errors


class TestFilterBasics:
    def test_init(self):
        state = kf_init((12.0, -3.0), CFG)
        assert state.position == (12.0, -3.0)
        assert state.velocity == (0.0, 0.0)
        assert state.mean.shape == (4,)
        assert state.cov.shape == (4, 4)

    def test_state_arrays_frozen(self):
        state = kf_init((0.0, 0.0), CFG)
        with pytest.raises(ValueError):
            state.mean[0] = 5.0

    def test_predict_moves_by_velocity(self):
        state = KalmanState(
            mean=np.array([10.0, 20.0, 2.0, -1.0]), cov=np.eye(4)
        )
        nxt = kf_predict(state, CFG)
        assert nxt.position == (12.0, 19.0)
        assert nxt.velocity == (2.0, -1.0)

    def test_predict_grows_uncertainty(self):
        state = kf_init((0.0, 0.0), CFG)
        nxt = kf_predict(state, CFG)
        assert np.trace(nxt.cov) > np.trace(state.cov)

    def test_update_pulls_toward_measurement(self):
        state = kf_init((0.0, 0.0), CFG)
        state = kf_predict(state, CFG)
        updated = kf_update(state, (10.0, 0.0), CFG)
        assert 0.0 < updated.position[0] <= 10.0

    def test_stationary_convergence(self):
        state, errors = run_track((0.0, 0.0), 10, start=(50.0, 50.0))
        assert errors[-1] < 1e-6
        assert abs(state.velocity[0]) < 1e-6

    def test_constant_velocity_convergence(self):
        # The acceptance bound, at unit scale: under 1e-3 px after 10
        # noiseless updates.
        state, errors = run_track((3.0, -2.0), 10)
        assert errors[9] < 1e-3
        assert state.velocity == pytest.approx((3.0, -2.0), abs=1e-2)

    def test_velocity_estimate_settles(self):
        state, _ = run_track((5.0, 0.0), 30)
        assert state.velocity == pytest.approx((5.0, 0.0), abs=1e-6)


class TestCovarianceHealth:
    def test_symmetric_psd_through_random_sequences(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            state = kf_init(tuple(rng.uniform(0, 100, 2)), CFG)
            for _ in range(int(rng.integers(3, 15))):
                state = kf_predict(state, CFG)
                if rng.random() < 0.7:
                    state = kf_update(state, tuple(rng.normal(0, 40, 2)), CFG)
                cov = state.cov
                assert np.allclose(cov, cov.T, atol=1e-9)
                assert np.linalg.eigvalsh(cov).min() > -1e-9

    def test_long_coast_stays_finite_and_psd(self):
        state = kf_init((0.0, 0.0), CFG)
        for _ in range(500):
            state = kf_predict(state, CFG)
        assert np.all(np.isfinite(state.cov))
        assert np.linalg.eigvalsh(state.cov).min() > -1e-9


class TestBatchConsistency:
    def test_batch_matches_single(self):
        rng = np.random.default_rng(3)
        states = [
            KalmanState(
                mean=rng.normal(0, 10, 4),
                cov=np.diag(rng.uniform(0.5, 4.0, 4)),
            )
            for _ in range(5)
        ]
        means = np.stack([s.mean for s in states])
        covs = np.stack([s.cov for s in states])
        pm, pc = batch_predict(means, covs, CFG.process_noise)
        meas = rng.normal(0, 10, (5, 2))
        um, uc = batch_update(pm, pc, meas, CFG.measurement_noise)
        for k, s in enumerate(states):
            sp = kf_predict(s, CFG)
            su = kf_update(sp, tuple(meas[k]), CFG)
            assert np.allclose(pm[k], sp.mean, atol=1e-12)
            assert np.allclose(pc[k], sp.cov, atol=1e-12)
            assert np.allclose(um[k], su.mean, atol=1e-12)
            assert np.allclose(uc[k], su.cov, atol=1e-12)


class TestGapInterpolation:
    def settled_state(self, velocity=(4.0, 0.0), steps=20):
        state, _ = run_track(velocity, steps)
        return state, (
            velocity[0] * steps,
            velocity[1] * steps,
        )

    def test_empty_gap(self):
        state, _ = self.settled_state()
        assert interpolate_gap(state, (8.0, 8.0), [], CFG) == {}

    def test_pure_prediction_without_anchor(self):
        state, last = self.settled_state(velocity=(4.0, 0.0))
        entries = interpolate_gap(state, (8.0, 6.0), [21, 22, 23], CFG)
        assert sorted(entries) == [21, 22, 23]
        for i, frame in enumerate([21, 22, 23], start=1):
            e = entries[frame]
            cx = e.box[0] + e.box[2] / 2.0
            assert cx == pytest.approx(last[0] + 4.0 * i, abs=0.05)
            assert e.box[2:] == (8.0, 6.0)
            assert e.provenance is Provenance.INTERPOLATED

    def test_anchor_blending_rejoins_without_jump(self):
        # Re-identified 12 px off the dead-reckoned line: interpolated
        # points bend toward the anchor, proportionally along the gap.
        state, last = self.settled_state(velocity=(4.0, 0.0))
        gap = [21, 22, 23]
        anchor = (last[0] + 4.0 * 4, 12.0)
        entries = interpolate_gap(state, (8.0, 8.0), gap, CFG, anchor_after=anchor)
        cys = [entries[f].box[1] + entries[f].box[3] / 2.0 for f in gap]
        expected = [12.0 * (i / 4.0) for i in (1, 2, 3)]
        assert cys == pytest.approx(expected, abs=0.2)

    def test_cell_class_propagates(self):
        state, _ = self.settled_state()
        entries = interpolate_gap(
            state, (8.0, 8.0), [21], CFG, cell_class=CellClass.DEAD
        )
        assert entries[21].cell_class is CellClass.DEAD
