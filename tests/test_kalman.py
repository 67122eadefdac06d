"""Constant-velocity filter: convergence, stability, gap interpolation.

The filter is exercised as the tracker runs it: ``batch_predict`` and
``batch_update`` on stacks, here mostly of one row, (1, 4) means and
(1, 4, 4) covariances."""

import numpy as np
import pytest

from celltrack import (
    CellClass,
    CellTracker,
    Detection,
    Provenance,
    TrackerConfig,
    interpolate_gap,
)
from celltrack.kalman import batch_predict, batch_update, start_cov
from conftest import bx

CFG = TrackerConfig()


def start(position, cfg=CFG):
    """A one-row stack: a new filter at ``position`` with zero velocity."""
    mean = np.array([[position[0], position[1], 0.0, 0.0]])
    return mean, start_cov(cfg.measurement_noise)[None]


def predict(mean, cov, cfg=CFG):
    return batch_predict(mean, cov, cfg.process_noise)


def update(mean, cov, measurement, cfg=CFG):
    return batch_update(mean, cov, np.array([measurement]), cfg.measurement_noise)


def run_track(velocity, steps, start_at=(0.0, 0.0), cfg=CFG):
    """Feed noiseless constant-velocity measurements; return the final
    mean (4,) and covariance (4, 4), and the position error per step."""
    mean, cov = start(start_at, cfg)
    errors = []
    for k in range(1, steps + 1):
        truth = (start_at[0] + velocity[0] * k, start_at[1] + velocity[1] * k)
        mean, cov = update(*predict(mean, cov, cfg), truth, cfg)
        errors.append(float(np.hypot(mean[0, 0] - truth[0], mean[0, 1] - truth[1])))
    return mean[0], cov[0], errors


class TestStartCovariance:
    @pytest.mark.parametrize("r", [3, 2.5, 10**30])
    def test_float_diagonal(self, r):
        cov = start_cov(r)
        assert cov.dtype == np.float64
        assert np.array_equal(cov, np.diag([float(r), float(r), 1000.0, 1000.0]))

    @pytest.mark.parametrize("r", [3, 2.5])
    def test_seeds_new_tracker_rows(self, r):
        tracker = CellTracker(TrackerConfig(measurement_noise=r))
        emb = np.zeros(4)
        tracker.step(
            [Detection(bx(cx, 50.0), 0.9, CellClass.ALIVE, emb) for cx in (20.0, 80.0)]
        )
        assert tracker._open.cov.shape == (2, 4, 4)
        for row in tracker._open.cov:
            assert np.array_equal(row, start_cov(r))


class TestFilterBasics:
    def test_init(self):
        mean, cov = start((12.0, -3.0))
        assert mean.tolist() == [[12.0, -3.0, 0.0, 0.0]]
        assert mean.shape == (1, 4)
        assert cov.shape == (1, 4, 4)

    def test_predict_moves_by_velocity(self):
        mean, _ = predict(np.array([[10.0, 20.0, 2.0, -1.0]]), np.eye(4)[None])
        assert mean.tolist() == [[12.0, 19.0, 2.0, -1.0]]

    def test_predict_grows_uncertainty(self):
        mean, cov = start((0.0, 0.0))
        _, nxt = predict(mean, cov)
        assert np.trace(nxt[0]) > np.trace(cov[0])

    def test_update_pulls_toward_measurement(self):
        mean, cov = predict(*start((0.0, 0.0)))
        updated, _ = update(mean, cov, (10.0, 0.0))
        assert 0.0 < updated[0, 0] <= 10.0

    def test_stationary_convergence(self):
        mean, _, errors = run_track((0.0, 0.0), 10, start_at=(50.0, 50.0))
        assert errors[-1] < 1e-6
        assert abs(mean[2]) < 1e-6

    def test_constant_velocity_convergence(self):
        # The acceptance bound, at unit scale: under 1e-3 px after 10
        # noiseless updates.
        mean, _, errors = run_track((3.0, -2.0), 10)
        assert errors[9] < 1e-3
        assert tuple(mean[2:]) == pytest.approx((3.0, -2.0), abs=1e-2)

    def test_velocity_estimate_settles(self):
        mean, _, _ = run_track((5.0, 0.0), 30)
        assert tuple(mean[2:]) == pytest.approx((5.0, 0.0), abs=1e-6)


class TestCovarianceHealth:
    def test_symmetric_psd_through_random_sequences(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            mean, cov = start(tuple(rng.uniform(0, 100, 2)))
            for _ in range(int(rng.integers(3, 15))):
                mean, cov = predict(mean, cov)
                if rng.random() < 0.7:
                    mean, cov = update(mean, cov, tuple(rng.normal(0, 40, 2)))
                assert np.allclose(cov[0], cov[0].T, atol=1e-9)
                assert np.linalg.eigvalsh(cov[0]).min() > -1e-9

    def test_long_coast_stays_finite_and_psd(self):
        mean, cov = start((0.0, 0.0))
        for _ in range(500):
            mean, cov = predict(mean, cov)
        assert np.all(np.isfinite(cov))
        assert np.linalg.eigvalsh(cov[0]).min() > -1e-9


class TestBatchConsistency:
    """A filter's row comes out of a stack bit for bit as it does alone,
    whatever the stack's size and order: the tracker gathers and scatters
    rows of its open-track arrays through these calls."""

    def stack(self, m, seed=3):
        rng = np.random.default_rng(seed)
        a = rng.normal(0, 2, (m, 4, 4))
        covs = a @ a.transpose(0, 2, 1) + np.eye(4)
        return rng.normal(0, 10, (m, 4)), covs, rng.normal(0, 10, (m, 2))

    def test_rows_independent_of_stack_size_and_order(self):
        means, covs, meas = self.stack(800)
        pm, pc = batch_predict(means, covs, CFG.process_noise)
        um, uc = batch_update(pm, pc, meas, CFG.measurement_noise)
        for k in range(800):
            alone = batch_predict(means[k : k + 1], covs[k : k + 1], CFG.process_noise)
            assert np.array_equal(alone[0][0], pm[k])
            assert np.array_equal(alone[1][0], pc[k])
            alone = batch_update(
                pm[k : k + 1], pc[k : k + 1], meas[k : k + 1], CFG.measurement_noise
            )
            assert np.array_equal(alone[0][0], um[k])
            assert np.array_equal(alone[1][0], uc[k])
        for m in (1, 2, 3, 5, 8, 17, 64, 100, 255, 799):
            got = batch_predict(means[:m], covs[:m], CFG.process_noise)
            assert np.array_equal(got[0], pm[:m]) and np.array_equal(got[1], pc[:m])
            got = batch_update(pm[:m], pc[:m], meas[:m], CFG.measurement_noise)
            assert np.array_equal(got[0], um[:m]) and np.array_equal(got[1], uc[:m])
        perm = np.random.default_rng(4).permutation(800)
        got = batch_predict(means[perm], covs[perm], CFG.process_noise)
        assert np.array_equal(got[0], pm[perm]) and np.array_equal(got[1], pc[perm])
        got = batch_update(pm[perm], pc[perm], meas[perm], CFG.measurement_noise)
        assert np.array_equal(got[0], um[perm]) and np.array_equal(got[1], uc[perm])


class TestGapInterpolation:
    def settled_state(self, velocity=(4.0, 0.0), steps=20):
        mean, _, _ = run_track(velocity, steps)
        return mean, (
            velocity[0] * steps,
            velocity[1] * steps,
        )

    def test_anchor_on_dead_reckoned_line_gives_pure_prediction(self):
        mean, last = self.settled_state(velocity=(4.0, 0.0))
        cx, cy, vx, vy = mean.tolist()
        anchor = (cx + 4 * vx, cy + 4 * vy)
        entries = interpolate_gap(
            mean, (8.0, 6.0), [21, 22, 23], anchor, CellClass.ALIVE
        )
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
        mean, last = self.settled_state(velocity=(4.0, 0.0))
        gap = [21, 22, 23]
        anchor = (last[0] + 4.0 * 4, 12.0)
        entries = interpolate_gap(mean, (8.0, 8.0), gap, anchor, CellClass.ALIVE)
        cys = [entries[f].box[1] + entries[f].box[3] / 2.0 for f in gap]
        expected = [12.0 * (i / 4.0) for i in (1, 2, 3)]
        assert cys == pytest.approx(expected, abs=0.2)

    def test_cell_class_propagates(self):
        mean, last = self.settled_state()
        entries = interpolate_gap(
            mean, (8.0, 8.0), [21], anchor_after=last, cell_class=CellClass.DEAD
        )
        assert entries[21].cell_class is CellClass.DEAD
