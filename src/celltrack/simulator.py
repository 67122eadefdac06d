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
)

__all__ = [
    "SimulationConfig",
    "SimulatedCell",
    "SimulationResult",
    "simulate",
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
        if min(self.width, self.height) < _LARGEST_INITIAL_SIDE:
            raise ValidationError(
                "width and height must be >= the largest initial cell "
                f"side ({_LARGEST_INITIAL_SIDE!r})"
            )


@dataclass(eq=False)
class SimulatedCell:
    """Model state of one simulated cell and the ground-truth ``Track`` it
    writes: one entry per frame it is present, then its end reason.  A
    division hands the record on: the daughters' ids go into
    ``track.children`` and each daughter writes its own track from the
    next frame."""

    track: Track
    position: np.ndarray  # centroid (2,)
    size: np.ndarray  # (w, h)
    latent: np.ndarray  # appearance vector
    born_frame: int
    alive: bool = True


@dataclass(eq=False)
class SimulationResult:
    ground_truth: LineageForest
    clean_frames: list[list[Detection]]


def _reflect(value: float, low: float, high: float) -> float:
    """Bounce a coordinate back into [low, high]."""
    span = high - low
    if span <= 0:
        return low
    v = (value - low) % (2 * span)
    return low + (span - abs(v - span))


def _initial_size(rng: np.random.Generator) -> np.ndarray:
    """A fresh ``(w, h)``, each uniform over the initial size range."""
    return rng.uniform(
        INITIAL_SIZE_MEAN - INITIAL_SIZE_SPREAD, _LARGEST_INITIAL_SIDE, size=2
    )


def _divides(
    cfg: SimulationConfig, rng: np.random.Generator, cell: SimulatedCell, frame: int
) -> bool:
    """The division rule: a fixed period or one pulse frame (the config
    allows at most one), else a draw at the division probability,
    scaled from treatment on."""
    if cfg.division_period is not None:
        return frame - cell.born_frame + 1 >= cfg.division_period
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
    cells: list[SimulatedCell] = []  # cell id k at index k - 1
    for cid in range(1, cfg.initial_cells + 1):
        size = _initial_size(rng)
        pos = np.array(
            [
                rng.uniform(size[0] / 2, cfg.width - size[0] / 2),
                rng.uniform(size[1] / 2, cfg.height - size[1] / 2),
            ]
        )
        cells.append(
            SimulatedCell(
                track=Track(cid, end_reason=EndReason.END_OF_VIDEO),
                position=pos,
                size=size,
                latent=rng.uniform(-LATENT_RANGE, LATENT_RANGE, size=dim),
                born_frame=0,
            )
        )

    clean_frames: list[list[Detection]] = []
    for frame in range(cfg.frames):
        # Record every present cell (one that has not divided) on this frame.
        present = [cell for cell in cells if not cell.track.children]
        detections: list[Detection] = []
        for cell in present:
            w, h = cell.size.tolist()
            x, y = cell.position.tolist()
            box = (x - w / 2.0, y - h / 2.0, w, h)
            cls = CellClass.ALIVE if cell.alive else CellClass.DEAD
            cell.track.entries[frame] = TrackEntry(
                box=box, cell_class=cls, provenance=Provenance.OBSERVED_HIGH
            )
            detections.append(
                Detection(
                    frame_index=frame,
                    box=box,
                    confidence=1.0,
                    cell_class=cls,
                    embedding=cell.latent.copy(),
                    source_id=cell.track.track_id,
                )
            )
        clean_frames.append(detections)
        if frame == cfg.frames - 1:
            break

        # Advance to the next frame: events first, then motion.  Sisters
        # share one growth draw, keyed by their parent's id.
        pair_growth: dict[int, float] = {}
        for cell in present:
            if not cell.alive:
                step = rng.normal(0.0, DEAD_MOTION_SIGMA, size=2)
                cell.position = cell.position + step
            elif _divides(cfg, rng, cell, frame):
                _divide_cell(cfg, rng, cells, cell, frame)
                continue
            elif frame >= cfg.treatment_frame and rng.random() < cfg.death_prob:
                cell.alive = False
                cell.track.end_reason = EndReason.DEATH
                continue
            else:
                # Plain motion and size walk; every cell that neither
                # divided nor died then drifts in appearance.
                step = rng.normal(0.0, MOTION_SIGMA, size=2)
                x, y = (cell.position + step).tolist()
                half_w, half_h = (cell.size / 2).tolist()
                cell.position = np.array(
                    [
                        _reflect(x, half_w, cfg.width - half_w),
                        _reflect(y, half_h, cfg.height - half_h),
                    ]
                )
                growth = rng.normal(0.0, SIZE_WALK_SIGMA)
                w_share = cfg.sister_growth_weight
                pair = cell.track.parent
                if w_share > 0.0 and pair is not None:
                    if pair not in pair_growth:
                        pair_growth[pair] = rng.normal(0.0, SIZE_WALK_SIGMA)
                    growth = (
                        math.sqrt(w_share) * pair_growth[pair]
                        + math.sqrt(1.0 - w_share) * growth
                    )
                cell.size = np.maximum(cell.size + growth, 4.0)
            cell.latent = cell.latent + rng.normal(0.0, LATENT_DRIFT_SIGMA, size=dim)

    meta = VideoMeta(
        video_id=cfg.video_id,
        frames=cfg.frames,
        width=cfg.width,
        height=cfg.height,
        dosage=cfg.dosage,
    )
    forest = LineageForest(
        tracks={cell.track.track_id: cell.track for cell in cells}, meta=meta
    )
    forest.validate()
    return SimulationResult(ground_truth=forest, clean_frames=clean_frames)


def _divide_cell(
    cfg: SimulationConfig,
    rng: np.random.Generator,
    cells: list[SimulatedCell],
    parent: SimulatedCell,
    frame: int,
) -> None:
    """End ``parent``'s track and add two daughters that appear on
    ``frame + 1``."""
    parent.track.end_reason = EndReason.DIVISION
    angle = rng.uniform(0.0, 2.0 * math.pi)
    offset = (
        np.array([math.cos(angle), math.sin(angle)])
        * DAUGHTER_OFFSET_FRAC
        * float(parent.size[0])
    )
    for step in (offset, -offset):
        if cfg.size_inheritance == "heritable":
            size = parent.size * (
                1.0 + rng.normal(0.0, cfg.daughter_size_noise, size=2)
            )
            size = np.maximum(size, 4.0)
        else:
            size = _initial_size(rng)
        pos = parent.position + step
        pos[0] = _reflect(pos[0], size[0] / 2, cfg.width - size[0] / 2)
        pos[1] = _reflect(pos[1], size[1] / 2, cfg.height - size[1] / 2)
        latent = parent.latent + rng.normal(
            0.0, DIVISION_LATENT_SIGMA, size=cfg.embedding_dim
        )
        cid = len(cells) + 1
        cells.append(
            SimulatedCell(
                track=Track(
                    cid,
                    parent=parent.track.track_id,
                    end_reason=EndReason.END_OF_VIDEO,
                ),
                position=pos,
                size=size,
                latent=latent,
                born_frame=frame + 1,
            )
        )
        parent.track.children.append(cid)


def corrupt(
    clean_frames: list[list[Detection]], config: SimulationConfig
) -> list[list[Detection]]:
    """Degrade clean detections into realistic detector output.

    With all noise parameters at zero the input comes back unchanged
    (same values, fresh Detection objects).  Each true detection keeps
    its identity through per-cell fade states; false positives carry
    isotropic-normal embeddings that sit far from every real latent.
    A faded detection's confidence falls below the default
    ``TrackerConfig.tau_low`` (a miss) or in [tau_low, tau_high) (the
    low-confidence band); false positives score in [tau_low, 1).
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
        frame_out: list[Detection] = []
        frame_index = frame_dets[0].frame_index if frame_dets else len(out)
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
            x, y, w, h = det.box
            if cfg.box_jitter_sigma > 0.0:
                jitter = rng.normal(0.0, cfg.box_jitter_sigma, size=4)
                x, y = x + jitter[0], y + jitter[1]
                w = max(1.0, w + jitter[2])
                h = max(1.0, h + jitter[3])
            emb = det.embedding
            if cfg.embedding_noise_sigma > 0.0:
                emb = emb + rng.normal(
                    0.0, cfg.embedding_noise_sigma, size=emb.shape
                )
            frame_out.append(
                Detection(
                    frame_index=det.frame_index,
                    box=(x, y, w, h),
                    confidence=confidence,
                    cell_class=det.cell_class,
                    embedding=np.asarray(emb, dtype=float).copy(),
                    source_id=det.source_id,
                )
            )
        if cfg.false_positive_rate > 0.0:
            for _ in range(int(rng.poisson(cfg.false_positive_rate))):
                w, h = _initial_size(rng).tolist()
                cx = rng.uniform(w / 2, cfg.width - w / 2)
                cy = rng.uniform(h / 2, cfg.height - h / 2)
                frame_out.append(
                    Detection(
                        frame_index=frame_index,
                        box=(cx - w / 2, cy - h / 2, w, h),
                        confidence=rng.uniform(bands.tau_low, 1.0),
                        cell_class=CellClass.ALIVE,
                        embedding=rng.normal(0.0, 1.0, size=cfg.embedding_dim),
                        source_id=None,
                    )
                )
        out.append(frame_out)
    return out
