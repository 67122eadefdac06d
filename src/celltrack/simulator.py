"""Synthetic videos with known lineage: the test bench for the tracker.

``simulate`` grows a population of cells with random-walk motion,
drifting latent appearance vectors, divisions and (post-treatment)
deaths, and emits both the exact lineage forest and per-frame clean
detections.  Each cell writes its own ground-truth ``Track`` as it
goes; a division ends the record there and hands it to the two
daughters, whose tracks take it up on the next frame.  Dead cells
linger in place as dead-class detections rather than vanishing.
``corrupt`` then degrades the clean detections the way a real detector
would: jittered boxes, false positives, noisy embeddings, and
confidence fades.

Fades are modeled per cell and stretched over consecutive frames —
signals weaken for a stretch, they do not flicker frame by frame.  While
faded, a detection's confidence drops either below the discard threshold
(a miss) or into the low-confidence band (recoverable by the second
matching stage), both taken from ``TrackerConfig``'s defaults;
``drop_prob`` sets the long-run fraction of degraded detections.

A seed gives the same bytes; the per-cell draw order is the contract.
Each frame, one loop draws every cell's random numbers in id order, and
then the cells' positions, sizes and latents (arrays indexed by cell id
- 1) advance at once.  ``corrupt`` draws per detection in frame order.
Clean and noisy embeddings are read-only rows of their frame's array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    MAX_FRAMES,
    CellClass,
    Detection,
    LineageForest,
    Provenance,
    Track,
    TrackerConfig,
    TrackEntry,
    EndReason,
    ValidationError,
    VideoMeta,
    check_field_types,
    detections_from_columns,
)

__all__ = [
    "SimulationConfig",
    "SimulationResult",
    "simulate",
    "corrupts",
    "corrupt",
]

# The cell model's calibration.  The latent geometry is sized against the
# tracker's similarity gate (L1 <= 65): at 32 dimensions, unrelated cells
# sit near 256, aunts/cousins drift past the gate within a few frames of
# separation, while same-cell frame pairs (~10) and parent-to-daughter
# pairs (~25) stay far inside it.
MOTION_SIGMA = 2.0  # sd of a living cell's per-frame step on each axis, px
DEAD_MOTION_SIGMA = 0.3
LATENT_RANGE = 12.0  # founders' latents are uniform in +-LATENT_RANGE
LATENT_DRIFT_SIGMA = 0.4
DIVISION_LATENT_SIGMA = 0.9
INITIAL_SIZE_MEAN = 30.0  # initial sides are uniform in MEAN +- SPREAD
INITIAL_SIZE_SPREAD = 8.0
SIZE_WALK_SIGMA = 0.05
DAUGHTER_OFFSET_FRAC = 0.35  # daughters' offset from the parent, in its widths
_LARGEST_INITIAL_SIDE = INITIAL_SIZE_MEAN + INITIAL_SIZE_SPREAD
# Input ceilings.  ``corrupt`` draws each false positive one by one, the
# latent geometry is calibrated at the default 32 dimensions, and every
# cell present on a frame is drawn for one by one.
MAX_FALSE_POSITIVE_RATE = 1000.0  # expected false positives per frame
MAX_EMBEDDING_DIM = 1024
MAX_CELLS = 20_000  # cells present on one frame


@dataclass(frozen=True)
class SimulationConfig:
    """The settings of one simulated experiment.  The cell model's
    calibration is the module constants above, and fades use the default
    ``TrackerConfig`` confidence bands."""

    # Geometry and duration
    frames: int = 234
    width: float = 1024.0
    height: float = 1024.0
    initial_cells: int = 40
    seed: int = 0
    video_id: str = ""
    dosage: str = ""

    # Appearance and cell size
    embedding_dim: int = 32
    size_inheritance: str = "heritable"  # or "independent"
    daughter_size_noise: float = 0.01
    sister_growth_weight: float = 0.0

    # Event model
    division_prob: float = 0.004
    death_prob: float = 0.0
    treatment_frame: int = 96
    post_treatment_division_factor: float = 1.0
    division_period: int | None = None
    division_pulse_frame: int | None = None

    # Corruption model
    box_jitter_sigma: float = 0.0
    drop_prob: float = 0.0
    fade_frames: float = 8.0
    fade_miss_fraction: float = 0.5
    false_positive_rate: float = 0.0
    embedding_noise_sigma: float = 0.0

    def __post_init__(self) -> None:
        check_field_types(self)
        if self.frames <= 0:
            raise ValidationError("frames must be positive")
        if self.frames > MAX_FRAMES:
            raise ValidationError(
                f"frames must be at most {MAX_FRAMES}, got {self.frames}"
            )
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        # Both become header lines of the written files.
        for name in ("video_id", "dosage"):
            if any(c in getattr(self, name) for c in "\r\n"):
                raise ValidationError(f"{name} must not contain a line break")
        if not (0 <= self.treatment_frame < self.frames):
            raise ValidationError("treatment_frame must lie inside the video")
        if self.initial_cells <= 0:
            raise ValidationError("initial_cells must be positive")
        if self.embedding_dim <= 0:
            raise ValidationError("embedding_dim must be positive")
        if not (0.0 <= self.drop_prob <= 1.0):
            raise ValidationError("drop_prob must lie in [0, 1]")
        if not (0.0 <= self.fade_miss_fraction <= 1.0):
            raise ValidationError("fade_miss_fraction must lie in [0, 1]")
        if self.fade_frames < 1.0:
            raise ValidationError("fade_frames must be >= 1")
        if self.size_inheritance not in ("heritable", "independent"):
            raise ValidationError(
                f"unknown size_inheritance {self.size_inheritance!r}"
            )
        if not (0.0 <= self.sister_growth_weight <= 1.0):
            raise ValidationError("sister_growth_weight must lie in [0, 1]")
        if not (0.0 <= self.post_treatment_division_factor):
            raise ValidationError("division factor must be non-negative")
        for p in (self.division_prob, self.death_prob):
            if not (0.0 <= p <= 1.0):
                raise ValidationError("event probabilities must lie in [0, 1]")
        if self.division_period is not None and self.division_period < 1:
            raise ValidationError(
                f"division_period must be >= 1, got {self.division_period}"
            )
        pulse = self.division_pulse_frame
        if pulse is not None and self.division_period is not None:
            raise ValidationError("set division_period or division_pulse_frame, not both")
        if pulse is not None and not (0 <= pulse < self.frames - 1):
            raise ValidationError(
                f"division_pulse_frame must lie in [0, frames - 1), got {pulse}"
            )
        for name in (
            "daughter_size_noise",
            "box_jitter_sigma",
            "embedding_noise_sigma",
            "false_positive_rate",
        ):
            value = getattr(self, name)
            if value < 0:
                raise ValidationError(f"{name} must be >= 0, got {value!r}")
        for name, ceiling in (
            ("initial_cells", MAX_CELLS),
            ("embedding_dim", MAX_EMBEDDING_DIM),
            ("false_positive_rate", MAX_FALSE_POSITIVE_RATE),
        ):
            if getattr(self, name) > ceiling:
                raise ValidationError(f"{name} must be at most {ceiling!r}")
        if min(self.width, self.height) < _LARGEST_INITIAL_SIDE:
            raise ValidationError(
                "width and height must be >= the largest initial cell "
                f"side ({_LARGEST_INITIAL_SIDE!r})"
            )


@dataclass(eq=False)
class SimulationResult:
    ground_truth: LineageForest
    clean_frames: list[list[Detection]]


def _reflect(values: np.ndarray, half: np.ndarray, extent: np.ndarray) -> np.ndarray:
    """Bounce box centers back into [half, extent - half], per row and
    axis; a box wider than the field sits at ``half``."""
    span = (extent - half) - half
    with np.errstate(divide="ignore", invalid="ignore"):
        v = (values - half) % (2 * span)
        bounced = half + (span - np.abs(v - span))
    return np.where(span > 0, bounced, half)


def _initial_size(rng: np.random.Generator) -> np.ndarray:
    """A fresh ``(w, h)``, each uniform over the initial size range."""
    return rng.uniform(
        INITIAL_SIZE_MEAN - INITIAL_SIZE_SPREAD, _LARGEST_INITIAL_SIDE, size=2
    )


def _divides(
    cfg: SimulationConfig, rng: np.random.Generator, age: int, frame: int
) -> bool:
    """The division rule for a cell present for ``age`` frames: a fixed
    period or one pulse frame (the config allows at most one), else a
    draw at the division probability, scaled from treatment on."""
    if cfg.division_period is not None:
        return age >= cfg.division_period
    if cfg.division_pulse_frame is not None:
        return frame == cfg.division_pulse_frame
    p = cfg.division_prob
    if frame >= cfg.treatment_frame:
        p *= cfg.post_treatment_division_factor
    return rng.random() < p


def simulate(config: SimulationConfig) -> SimulationResult:
    """Run the generative model; returns ground truth plus clean detections.

    Clean detections carry the exact box, confidence 1.0, and the cell's
    latent vector as embedding; ``Detection.source_id`` is the cell id.
    Divisions replace one cell by two adjacent daughters on the next
    frame; deaths turn the cell into a motionless dead-class object that
    persists to the end of the video.
    """
    cfg = config
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0]))
    dim = cfg.embedding_dim
    extent = np.array([cfg.width, cfg.height])
    classes = (CellClass.DEAD, CellClass.ALIVE)
    # Cell state, cell id k at row k - 1.
    tracks: list[Track] = []
    positions, sizes, latents = [], [], []
    for cid in range(1, cfg.initial_cells + 1):
        size = _initial_size(rng)
        half = size / 2
        positions.append((rng.uniform(half[0], cfg.width - half[0]),
                          rng.uniform(half[1], cfg.height - half[1])))
        sizes.append(size)
        latents.append(rng.uniform(-LATENT_RANGE, LATENT_RANGE, size=dim))
        tracks.append(Track(cid, end_reason=EndReason.END_OF_VIDEO))
    position, size, latent = np.array(positions), np.array(sizes), np.array(latents)
    alive = np.ones(len(tracks), dtype=bool)
    present = np.arange(len(tracks))  # rows of cells that have not divided

    clean_frames: list[list[Detection]] = []
    for frame in range(cfg.frames):
        # Record every present cell on this frame.
        boxes = np.concatenate(
            [position[present] - size[present] / 2.0, size[present]], axis=1
        )
        ids = (present + 1).tolist()
        is_alive = alive[present].tolist()
        detections = detections_from_columns(
            boxes, [1.0] * len(ids), list(map(classes.__getitem__, is_alive)),
            latent[present], ids,
        )
        for det, track in zip(detections, map(tracks.__getitem__, present.tolist())):
            track.entries[frame] = TrackEntry.trusted(
                det.box, det.cell_class, Provenance.OBSERVED_HIGH
            )
        clean_frames.append(detections)
        if frame == cfg.frames - 1:
            break

        # Advance to the next frame.  The loop draws each cell's random
        # numbers in a fixed order (events first, then motion); the arrays
        # then move every stepped (dead or moving) cell at once.  Sisters
        # share one growth draw, keyed by their parent's id.
        stepped, steps, drifts, growths = [], [], [], []
        divided, angles, daughter_sizes, daughter_drifts = [], [], [], []
        pair_growth: dict[int, float] = {}
        w_share = cfg.sister_growth_weight
        for row, (cid, live) in enumerate(zip(ids, is_alive)):
            track = tracks[cid - 1]
            if not live:
                steps.append(rng.normal(0.0, DEAD_MOTION_SIGMA, size=2))
            elif _divides(cfg, rng, len(track.entries), frame):
                track.end_reason = EndReason.DIVISION
                divided.append(row)
                angles.append(rng.uniform(0.0, 2.0 * math.pi))
                for _ in range(2):
                    daughter_sizes.append(
                        rng.normal(0.0, cfg.daughter_size_noise, size=2)
                        if cfg.size_inheritance == "heritable"
                        else _initial_size(rng)
                    )
                    daughter_drifts.append(
                        rng.normal(0.0, DIVISION_LATENT_SIGMA, size=dim)
                    )
                    daughter = len(tracks) + 1
                    tracks.append(
                        Track(daughter, parent=cid, end_reason=EndReason.END_OF_VIDEO)
                    )
                    track.children.append(daughter)
                continue
            elif frame >= cfg.treatment_frame and rng.random() < cfg.death_prob:
                alive[cid - 1] = False
                track.end_reason = EndReason.DEATH
                continue
            else:
                steps.append(rng.normal(0.0, MOTION_SIGMA, size=2))
                growth = rng.normal(0.0, SIZE_WALK_SIGMA)
                pair = track.parent
                if w_share > 0.0 and pair is not None:
                    if pair not in pair_growth:
                        pair_growth[pair] = rng.normal(0.0, SIZE_WALK_SIGMA)
                    growth = (
                        math.sqrt(w_share) * pair_growth[pair]
                        + math.sqrt(1.0 - w_share) * growth
                    )
                growths.append(growth)
            # Every cell that neither divided nor died drifts in appearance.
            stepped.append(row)
            drifts.append(rng.normal(0.0, LATENT_DRIFT_SIGMA, size=dim))
        if len(ids) + len(divided) > MAX_CELLS:
            raise ValidationError(
                f"frame {frame + 1} would hold {len(ids) + len(divided)} cells; "
                f"the simulator holds at most {MAX_CELLS} (simulator.MAX_CELLS)"
            )

        if stepped:
            rows = present[stepped]
            moving = alive[rows]
            moved = position[rows] + np.array(steps)
            rows_m = rows[moving]
            moved[moving] = _reflect(moved[moving], size[rows_m] / 2, extent)
            position[rows] = moved
            size[rows_m] = np.maximum(size[rows_m] + np.array(growths)[:, None], 4.0)
            latent[rows] = latent[rows] + np.array(drifts)
        if divided:
            # Two daughters per parent, offset to either side of it.
            parents = np.repeat(present[divided], 2)
            unit = np.array([[math.cos(a), math.sin(a)] for a in angles])
            offset = unit * DAUGHTER_OFFSET_FRAC * size[present[divided], :1]
            step = np.stack([offset, -offset], axis=1).reshape(-1, 2)
            new_size = np.array(daughter_sizes)
            if cfg.size_inheritance == "heritable":
                new_size = np.maximum(size[parents] * (1.0 + new_size), 4.0)
            new_position = _reflect(position[parents] + step, new_size / 2, extent)
            new_latent = latent[parents] + np.array(daughter_drifts)
            first = len(position)
            position = np.concatenate([position, new_position])
            size = np.concatenate([size, new_size])
            latent = np.concatenate([latent, new_latent])
            alive = np.concatenate([alive, np.ones(len(parents), dtype=bool)])
            keep = np.ones(len(present), dtype=bool)
            keep[divided] = False
            present = np.concatenate([present[keep], np.arange(first, len(position))])

    meta = VideoMeta(
        video_id=cfg.video_id, frames=cfg.frames, width=cfg.width,
        height=cfg.height, dosage=cfg.dosage,
    )
    forest = LineageForest(tracks={t.track_id: t for t in tracks}, meta=meta)
    forest.validate()
    return SimulationResult(ground_truth=forest, clean_frames=clean_frames)


def corrupts(config: SimulationConfig) -> bool:
    """Whether ``corrupt`` changes anything under ``config``: False when
    box jitter, drops, false positives and embedding noise are all 0."""
    return any((
        config.box_jitter_sigma, config.drop_prob,
        config.false_positive_rate, config.embedding_noise_sigma,
    ))


def corrupt(
    clean_frames: list[list[Detection]], config: SimulationConfig
) -> list[list[Detection]]:
    """Degrade clean detections into realistic detector output.

    When ``corrupts(config)`` is False the input comes back unchanged
    (same values, fresh Detection objects).  Each true detection keeps
    its identity through per-cell fade states; detections without a
    ``source_id`` never fade.  False positives carry isotropic-normal
    embeddings that sit far from every real latent.  A faded detection's
    confidence falls below the default ``TrackerConfig.tau_low`` (a miss)
    or in [tau_low, tau_high) (the low-confidence band); false positives
    score in [tau_low, 1).  Embeddings are ``config.embedding_dim`` long,
    as ``simulate`` makes them; each output embedding is a read-only row
    of its frame's array.
    """
    cfg = config
    bands = TrackerConfig()
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 1]))
    faded: set[int] = set()
    if cfg.drop_prob >= 1.0:
        enter_prob = 1.0
    else:
        # Stationary faded fraction equal to drop_prob given mean fade
        # length fade_frames.
        enter_prob = cfg.drop_prob / (cfg.fade_frames * (1.0 - cfg.drop_prob))
    exit_prob = 1.0 / cfg.fade_frames

    out: list[list[Detection]] = []
    for frame_dets in clean_frames:
        # Draw per detection in frame order, then degrade the frame's columns.
        confidences, jitters, noises = [], [], []
        for det in frame_dets:
            cid = det.source_id
            if cid is not None:
                if cid in faded:
                    if rng.random() < exit_prob:
                        faded.discard(cid)
                elif rng.random() < enter_prob:
                    faded.add(cid)
                if cfg.drop_prob >= 1.0:
                    faded.add(cid)
            confidence = det.confidence
            if cid in faded:
                if rng.random() < cfg.fade_miss_fraction:
                    confidence = rng.uniform(0.0, bands.tau_low)
                else:
                    confidence = rng.uniform(bands.tau_low, bands.tau_high)
            confidences.append(confidence)
            if cfg.box_jitter_sigma > 0.0:
                jitters.append(rng.normal(0.0, cfg.box_jitter_sigma, size=4))
            if cfg.embedding_noise_sigma > 0.0:
                noises.append(
                    rng.normal(0.0, cfg.embedding_noise_sigma, size=cfg.embedding_dim)
                )
        boxes = [det.box for det in frame_dets]
        classes = [det.cell_class for det in frame_dets]
        embeddings = [det.embedding for det in frame_dets]
        ids = [det.source_id for det in frame_dets]
        if cfg.false_positive_rate > 0.0:
            for _ in range(int(rng.poisson(cfg.false_positive_rate))):
                w, h = _initial_size(rng).tolist()
                cx = rng.uniform(w / 2, cfg.width - w / 2)
                cy = rng.uniform(h / 2, cfg.height - h / 2)
                boxes.append((cx - w / 2, cy - h / 2, w, h))
                confidences.append(rng.uniform(bands.tau_low, 1.0))
                classes.append(CellClass.ALIVE)
                embeddings.append(rng.normal(0.0, 1.0, size=cfg.embedding_dim))
                ids.append(None)
        boxes = np.array(boxes, dtype=float).reshape(-1, 4)
        embeddings = np.array(embeddings, dtype=float)
        embeddings = embeddings.reshape(len(boxes), cfg.embedding_dim)
        n = len(frame_dets)
        if jitters:
            jitter = np.array(jitters)
            boxes[:n, :2] += jitter[:, :2]
            boxes[:n, 2:] = np.maximum(boxes[:n, 2:] + jitter[:, 2:], 1.0)
        if noises:
            embeddings[:n] += np.array(noises)
        out.append(
            detections_from_columns(boxes, confidences, classes, embeddings, ids)
        )
    return out
