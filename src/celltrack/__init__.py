"""celltrack: lineage tracking for multi-channel live-cell microscopy.

Detections in, lineage forests out.  The package bundles the two-stage
association engine, a constant-velocity Kalman filter for coasting
through detector dropouts, graph-edit and MOT-style evaluation metrics,
a synthetic video simulator with exact ground truth, and the
population-level lineage analyses built on top.
"""

from .core import (
    Box,
    CellClass,
    Detection,
    EndReason,
    LineageForest,
    Provenance,
    Track,
    TrackEntry,
    TrackerConfig,
    TrackStatus,
    ValidationError,
    VideoMeta,
    centroid,
    embedding_l1,
    euclidean_distance,
    iou,
)
from .ingest import (
    DetectionFile,
    load_detections,
    load_forest,
    load_ground_truth,
    partition_by_confidence,
    save_detections,
    save_forest,
)
from .kalman import KalmanState, interpolate_gap, kf_init, kf_predict, kf_update
from .tracker import CellTracker, pair_cost, track_video
from .metrics import (
    AOGMCounts,
    AOGMWeights,
    MetricReport,
    TrackingGraph,
    build_graph,
    det_lnk_tra,
    evaluate,
    hota,
    idf1,
    mota,
    motp,
)
from .simulator import SimulationConfig, SimulationResult, corrupt, simulate
from .analysis import (
    AnalysisFilter,
    ancestor_descendant_correlation,
    cell_size_series,
    event_rates,
    generation_index,
    pearson,
    sister_correlation,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "Box",
    "CellClass",
    "Detection",
    "EndReason",
    "LineageForest",
    "Provenance",
    "Track",
    "TrackEntry",
    "TrackerConfig",
    "TrackStatus",
    "ValidationError",
    "VideoMeta",
    "centroid",
    "embedding_l1",
    "euclidean_distance",
    "iou",
    "DetectionFile",
    "load_detections",
    "load_forest",
    "load_ground_truth",
    "partition_by_confidence",
    "save_detections",
    "save_forest",
    "KalmanState",
    "interpolate_gap",
    "kf_init",
    "kf_predict",
    "kf_update",
    "CellTracker",
    "pair_cost",
    "track_video",
    "AOGMCounts",
    "AOGMWeights",
    "MetricReport",
    "TrackingGraph",
    "build_graph",
    "det_lnk_tra",
    "evaluate",
    "hota",
    "idf1",
    "mota",
    "motp",
    "SimulationConfig",
    "SimulationResult",
    "corrupt",
    "simulate",
    "AnalysisFilter",
    "ancestor_descendant_correlation",
    "cell_size_series",
    "event_rates",
    "generation_index",
    "pearson",
    "sister_correlation",
]
