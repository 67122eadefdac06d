"""Constant-velocity Kalman filter on box centroids, for stacks of filters.

State vector is (cx, cy, vx, vy) with unit frame spacing.  Process noise
acts on the velocity components only; measurements are centroid
positions.  A stack of ``m`` filters is a means array (m, 4) and a
covariances array (m, 4, 4), one row per filter; the tracker keeps one
row per open track and predicts and updates its rows together.  The
filter serves two things: predicting where a lost track should be while
it sits in the memory bank, and filling the skipped frames once such a
track is re-identified.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .core import (
    Box,
    CellClass,
    Point,
    Provenance,
    TrackEntry,
)

__all__ = [
    "start_cov",
    "batch_predict",
    "batch_update",
    "interpolate_gap",
]

# Transition and observation matrices for unit time steps.
_F = np.array(
    [
        [1.0, 0.0, 1.0, 0.0],
        [0.0, 1.0, 0.0, 1.0],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
    ]
)
_H = np.array(
    [
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
    ]
)

_I2, _I4 = np.eye(2), np.eye(4)

# Initial velocity variance: the first position pins the filter down, the
# velocity is unknown until a second measurement arrives.
_INIT_VELOCITY_VAR = 1000.0


def start_cov(measurement_noise: float) -> np.ndarray:
    """Covariance (4, 4) of a new filter, wherever it starts."""
    r = float(measurement_noise)  # a huge int would make an object array
    return np.diag([r, r, _INIT_VELOCITY_VAR, _INIT_VELOCITY_VAR])


def batch_predict(
    means: np.ndarray, covs: np.ndarray, process_noise: float
) -> tuple[np.ndarray, np.ndarray]:
    """Predict step for a stack of filters: means (m, 4), covs (m, 4, 4)."""
    means = means @ _F.T
    covs = _F @ covs @ _F.T
    q = float(process_noise)  # a huge int would make an object array
    covs = covs + np.diag([0.0, 0.0, q, q])
    covs = (covs + covs.transpose(0, 2, 1)) / 2.0
    return means, covs


def batch_update(
    means: np.ndarray,
    covs: np.ndarray,
    measurements: np.ndarray,
    measurement_noise: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Measurement step for a stack of filters (Joseph-form covariance).

    ``measurements`` is (m, 2) centroid positions.
    """
    noise = measurement_noise * _I2
    innovation = measurements - means[:, :2]
    s = covs[:, :2, :2] + noise
    gain = covs[:, :, :2] @ np.linalg.inv(s)  # (m, 4, 2)
    means = means + (gain @ innovation[:, :, None])[:, :, 0]
    ikh = _I4 - gain @ _H
    covs = ikh @ covs @ ikh.transpose(0, 2, 1) + gain @ noise @ gain.transpose(0, 2, 1)
    covs = (covs + covs.transpose(0, 2, 1)) / 2.0
    return means, covs


def interpolate_gap(
    mean: np.ndarray,
    size: tuple[float, float],
    gap_frames: Sequence[int],
    anchor_after: Point,
    cell_class: CellClass,
) -> dict[int, TrackEntry]:
    """Synthesize ``cell_class`` entries for the frames a track was
    unobserved, ``gap_frames`` (at least one).

    ``mean`` is the filter mean (cx, cy, vx, vy) at the last observed
    frame (post update), rolled forward one predict per gap frame; the
    covariance never moves the mean of a predict, so it is not needed.
    ``anchor_after`` is the re-identified position on the frame right
    after the gap: the predictions are blended linearly toward it so the
    track rejoins the new observation without a jump.  Returned boxes
    have ``size``, the last observed (width, height).
    """
    w, h = size
    positions: list[np.ndarray] = []
    rolling = mean
    for _ in gap_frames:
        rolling = rolling @ _F.T
        positions.append(rolling[:2])
    rolling = rolling @ _F.T
    residual = np.array(anchor_after) - rolling[:2]
    k = len(gap_frames)
    for i in range(k):
        positions[i] = positions[i] + residual * ((i + 1) / (k + 1))
    entries: dict[int, TrackEntry] = {}
    for frame, pos in zip(gap_frames, positions):
        box: Box = (float(pos[0]) - w / 2.0, float(pos[1]) - h / 2.0, w, h)
        entries[frame] = TrackEntry(
            box=box,
            cell_class=cell_class,
            provenance=Provenance.INTERPOLATED,
        )
    return entries
