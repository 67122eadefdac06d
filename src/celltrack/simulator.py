"""Synthetic videos with known lineage: the test bench for the tracker.

``simulate`` grows a population of cells with random-walk motion,
drifting latent appearance vectors, divisions and (post-treatment)
deaths, and emits both the exact lineage forest and per-frame clean
detections, as columns.  Each frame snapshots the present cells'
boxes, latents and classes; the snapshots become the video's
``DetectionColumns`` and, sorted by cell, the entries of its
``ForestColumns``, whose tracks are the cells: a parent id, an end
reason and a birth frame per cell, a division ending the parent's
track there and starting the two daughters' on the next frame.  Dead
cells linger in place as dead-class detections rather than vanishing.
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
Clean and noisy embeddings are read-only rows of the video's array.
Each video's detections and forest are checked once, the first bad row
raising its ``Detection(...)`` error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import (
    CELL_CLASSES,
    MAX_FRAMES,
    PROVENANCES,
    CellClass,
    Detection,
    DetectionColumns,
    EndReason,
    ForestColumns,
    LineageForest,
    Provenance,
    TrackerConfig,
    ValidationError,
    VideoMeta,
    check_field_types,
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
_ALIVE, _DEAD = CELL_CLASSES.index(CellClass.ALIVE), CELL_CLASSES.index(CellClass.DEAD)
_HIGH = PROVENANCES.index(Provenance.OBSERVED_HIGH)


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
    """A simulated video: its checked ground-truth ``forest`` and ``clean``
    detections.  ``ground_truth`` (the forest's ``Track`` objects) and
    ``clean_frames`` (the per-frame ``Detection`` lists) are built the
    first time they are read."""

    forest: ForestColumns
    clean: DetectionColumns

    @cached_property
    def ground_truth(self) -> LineageForest:
        return LineageForest.from_columns(self.forest)

    @cached_property
    def clean_frames(self) -> list[list[Detection]]:
        return self.clean.detections()


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
    latent vector as embedding; their source id is the cell id.
    Divisions replace one cell by two adjacent daughters on the next
    frame; deaths turn the cell into a motionless dead-class object that
    persists to the end of the video.
    """
    cfg = config
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0]))
    dim = cfg.embedding_dim
    extent = np.array([cfg.width, cfg.height])
    # Cell state, cell id k at row k - 1.
    positions, sizes, latents = [], [], []
    for _ in range(cfg.initial_cells):
        size = _initial_size(rng)
        half = size / 2
        positions.append((rng.uniform(half[0], cfg.width - half[0]),
                          rng.uniform(half[1], cfg.height - half[1])))
        sizes.append(size)
        latents.append(rng.uniform(-LATENT_RANGE, LATENT_RANGE, size=dim))
    position, size, latent = np.array(positions), np.array(sizes), np.array(latents)
    alive = np.ones(cfg.initial_cells, dtype=bool)
    parent_ids: list[int | None] = [None] * cfg.initial_cells
    births = [0] * cfg.initial_cells
    reasons = [EndReason.END_OF_VIDEO] * cfg.initial_cells
    present = np.arange(cfg.initial_cells)  # rows of cells that have not divided

    # Each frame's present rows, boxes, latents and dead flags.
    shots: list[tuple[np.ndarray, ...]] = []

    def clean() -> DetectionColumns:
        """The checked detections of the frames recorded so far."""
        rows, boxes, emb, dead = map(np.concatenate, zip(*shots))
        emb.setflags(write=False)
        columns = DetectionColumns(
            offsets=np.append(0, np.cumsum([len(s[0]) for s in shots])),
            boxes=boxes,
            confidences=np.ones(len(rows)),
            classes=np.where(dead, _DEAD, _ALIVE),
            embeddings=emb,
            source_ids=(rows + 1).tolist(),
        )
        columns.validate()
        return columns

    for frame in range(cfg.frames):
        # Record every present cell on this frame.
        boxes = np.concatenate(
            [position[present] - size[present] / 2.0, size[present]], axis=1
        )
        is_alive = alive[present]
        shots.append((present, boxes, latent[present], ~is_alive))
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
        for row, (k, live) in enumerate(zip(present.tolist(), is_alive.tolist())):
            if not live:
                steps.append(rng.normal(0.0, DEAD_MOTION_SIGMA, size=2))
            elif _divides(cfg, rng, frame - births[k] + 1, frame):
                reasons[k] = EndReason.DIVISION
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
                    parent_ids.append(k + 1)
                    births.append(frame + 1)
                    reasons.append(EndReason.END_OF_VIDEO)
                continue
            elif frame >= cfg.treatment_frame and rng.random() < cfg.death_prob:
                alive[k] = False
                reasons[k] = EndReason.DEATH
                continue
            else:
                steps.append(rng.normal(0.0, MOTION_SIGMA, size=2))
                growth = rng.normal(0.0, SIZE_WALK_SIGMA)
                pair = parent_ids[k]
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
        if len(present) + len(divided) > MAX_CELLS:
            clean()  # a bad box of an earlier frame is reported first
            raise ValidationError(
                f"frame {frame + 1} would hold {len(present) + len(divided)} cells; "
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

    detections = clean()
    # Entries in (cell, frame) order: a stable sort of the frame-ordered rows.
    cells = np.array(detections.source_ids, dtype=np.int64)
    order = np.argsort(cells, kind="stable")
    frames = np.arange(cfg.frames, dtype=np.int64).repeat(np.diff(detections.offsets))
    forest = ForestColumns(
        meta=VideoMeta(
            video_id=cfg.video_id, frames=cfg.frames, width=cfg.width,
            height=cfg.height, dosage=cfg.dosage,
        ),
        ids=np.arange(1, len(parent_ids) + 1, dtype=np.int64),
        parents=parent_ids,
        end_reasons=reasons,
        entry_ids=cells.take(order),
        frames=frames.take(order),
        classes=detections.classes.take(order),
        boxes=detections.boxes.take(order, axis=0),
        provenances=np.full(cells.size, _HIGH, dtype=np.intp),
    )
    forest.validate()
    return SimulationResult(forest=forest, clean=detections)


def corrupts(config: SimulationConfig) -> bool:
    """Whether ``corrupt`` changes anything under ``config``: False when
    box jitter, drops, false positives and embedding noise are all 0."""
    return any((
        config.box_jitter_sigma, config.drop_prob,
        config.false_positive_rate, config.embedding_noise_sigma,
    ))


def corrupt(clean: DetectionColumns, config: SimulationConfig) -> DetectionColumns:
    """Degrade clean detections into realistic detector output.

    When ``corrupts(config)`` is False, ``clean`` itself comes back.
    Each true detection keeps its identity through per-cell fade states;
    detections without a source id never fade.  False positives follow
    their frame's detections and carry isotropic-normal embeddings that
    sit far from every real latent.  A faded detection's confidence falls
    below the default ``TrackerConfig.tau_low`` (a miss) or in [tau_low,
    tau_high) (the low-confidence band); false positives score in
    [tau_low, 1).  Embeddings are ``config.embedding_dim`` long, as
    ``simulate`` makes them, and read-only.  The output is checked once,
    and its first bad row raises ``Detection(...)``'s error.
    """
    if not corrupts(config):
        return clean
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

    # Per frame, draw per detection in frame order, then the false
    # positives, then degrade the frame's slice of the columns.
    ids, dim = clean.source_ids, cfg.embedding_dim
    clean_emb = clean.embeddings.reshape(len(ids), dim)
    confidences, classes = clean.confidences.tolist(), clean.classes.tolist()
    offsets, out_conf, out_classes, out_ids = [0], [], [], []
    boxes, embeddings = [clean.boxes[:0]], [clean_emb[:0]]
    for rows in clean:
        jitters, noises, fp_boxes, fp_embeddings = [], [], [], []
        for i in rows:
            cid = ids[i]
            if cid is not None:
                if cid in faded:
                    if rng.random() < exit_prob:
                        faded.discard(cid)
                elif rng.random() < enter_prob:
                    faded.add(cid)
                if cfg.drop_prob >= 1.0:
                    faded.add(cid)
            confidence = confidences[i]
            if cid in faded:
                if rng.random() < cfg.fade_miss_fraction:
                    confidence = rng.uniform(0.0, bands.tau_low)
                else:
                    confidence = rng.uniform(bands.tau_low, bands.tau_high)
            out_conf.append(confidence)
            if cfg.box_jitter_sigma > 0.0:
                jitters.append(rng.normal(0.0, cfg.box_jitter_sigma, size=4))
            if cfg.embedding_noise_sigma > 0.0:
                noises.append(rng.normal(0.0, cfg.embedding_noise_sigma, size=dim))
        if cfg.false_positive_rate > 0.0:
            for _ in range(int(rng.poisson(cfg.false_positive_rate))):
                w, h = _initial_size(rng).tolist()
                cx = rng.uniform(w / 2, cfg.width - w / 2)
                cy = rng.uniform(h / 2, cfg.height - h / 2)
                fp_boxes.append((cx - w / 2, cy - h / 2, w, h))
                out_conf.append(rng.uniform(bands.tau_low, 1.0))
                fp_embeddings.append(rng.normal(0.0, 1.0, size=dim))
        lo, hi = rows.start, rows.stop
        frame_boxes, frame_emb = clean.boxes[lo:hi], clean_emb[lo:hi]
        if jitters:
            frame_boxes = frame_boxes + np.array(jitters)
            np.maximum(frame_boxes[:, 2:], 1.0, out=frame_boxes[:, 2:])
        if noises:
            frame_emb = frame_emb + np.array(noises)
        boxes += (frame_boxes, np.reshape(fp_boxes, (-1, 4)))
        embeddings += (frame_emb, np.reshape(fp_embeddings, (-1, dim)))
        out_classes += classes[lo:hi] + [_ALIVE] * len(fp_boxes)
        out_ids += ids[lo:hi] + [None] * len(fp_boxes)
        offsets.append(len(out_ids))

    emb = np.concatenate(embeddings)
    emb.setflags(write=False)
    out = DetectionColumns(
        offsets=np.array(offsets),
        boxes=np.concatenate(boxes),
        confidences=np.array(out_conf, dtype=float),
        classes=np.array(out_classes, dtype=np.intp),
        embeddings=emb,
        source_ids=out_ids,
    )
    out.validate()
    return out
