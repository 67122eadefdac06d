"""Evaluation of predicted lineage forests against ground truth.

Two metric families are computed over the same pair of acyclic tracking
graphs (nodes = per-frame boxes, edges = within-track links and
parent->daughter division edges):

* graph-edit scores DET / LNK / TRA.  Ground truth is matched to
  prediction per frame by the covered-center rule, and the weighted
  count of edit operations needed to turn the prediction into ground
  truth (node splits, additions, deletions; edge additions, deletions,
  semantics changes) is normalized against the cost of building ground
  truth from an empty prediction.

* detection-association scores HOTA (with its DetA / AssA factors over
  an IoU threshold grid), MOTA, MOTP and IDF1, all based on per-frame
  one-to-one box matching that maximizes total IoU subject to
  ``iou >= alpha``.

Both families are invariant to track relabeling and deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from .core import (
    Box,
    LineageForest,
    ValidationError,
    VideoMeta,
)

__all__ = [
    "UndefinedMetricError",
    "AOGMWeights",
    "AOGMCounts",
    "CtcScores",
    "TrackingGraph",
    "build_graph",
    "iou_matrix",
    "match_frame_objects",
    "FramePairs",
    "aogm_counts",
    "aogm_penalty",
    "det_lnk_tra",
    "HotaScores",
    "hota",
    "mota",
    "motp",
    "idf1",
    "MetricReport",
    "check_frame_range",
    "evaluate",
    "DEFAULT_ALPHAS",
]

LINK = "link"
PARENT = "parent"

# IoU threshold grid for HOTA: 0.05, 0.10, ..., 0.95.
DEFAULT_ALPHAS: tuple[float, ...] = tuple(i / 20 for i in range(1, 20))


class UndefinedMetricError(ValueError):
    """A metric has no defined value on this input (e.g. empty support)."""


@dataclass(frozen=True)
class AOGMWeights:
    """Edit-operation weights; defaults are the conventional ones."""

    node_split: float = 5.0
    false_negative: float = 10.0
    false_positive: float = 1.0
    edge_delete: float = 1.0
    edge_add: float = 1.5
    edge_change: float = 1.0


@dataclass(frozen=True)
class AOGMCounts:
    """Raw edit-operation counts from graph comparison."""

    node_splits: int = 0
    false_negatives: int = 0
    false_positives: int = 0
    edge_deletions: int = 0
    edge_additions: int = 0
    edge_changes: int = 0


Node = tuple[int, int]  # (track_id, frame)


@dataclass(eq=False)
class TrackingGraph:
    """Frame-indexed node arrays plus typed edges for one forest."""

    frames: int
    frame_ids: list[np.ndarray] = field(default_factory=list)
    frame_boxes: list[np.ndarray] = field(default_factory=list)
    edges: dict[tuple[Node, Node], str] = field(default_factory=dict)

    @property
    def node_count(self) -> int:
        return sum(ids.size for ids in self.frame_ids)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def nodes_per_track(self) -> dict[int, int]:
        counts: dict[int, int] = {}
        for ids in self.frame_ids:
            for tid in ids:
                counts[tid] = counts.get(tid, 0) + 1
        return counts


def build_graph(forest: LineageForest, frames: int | None = None) -> TrackingGraph:
    """Flatten a lineage forest into its tracking graph."""
    if frames is None:
        frames = forest.meta.frames
        if frames <= 0:
            frames = 1 + max(
                (t.last_frame for t in forest.tracks.values()), default=-1
            )
    frame_ids: list[list[int]] = [[] for _ in range(frames)]
    frame_boxes: list[list[Box]] = [[] for _ in range(frames)]
    edges: dict[tuple[Node, Node], str] = {}
    for tid in sorted(forest.tracks):
        entries = forest.tracks[tid].entries
        entry_frames = sorted(entries)
        if entry_frames and entry_frames[-1] >= frames:
            raise ValidationError(
                f"track {tid} extends to frame {entry_frames[-1]}, "
                f"beyond the declared {frames} frames"
            )
        if entry_frames and entry_frames[0] < 0:
            raise ValidationError(
                f"track {tid} has an entry at negative frame {entry_frames[0]}"
            )
        for f in entry_frames:
            frame_ids[f].append(tid)
            frame_boxes[f].append(entries[f].box)
        for a, b in zip(entry_frames, entry_frames[1:]):
            if b == a + 1:
                edges[((tid, a), (tid, b))] = LINK
    for tid in sorted(forest.tracks):
        track = forest.tracks[tid]
        for child_id in track.children:
            child = forest.tracks[child_id]
            edges[
                ((tid, track.last_frame), (child_id, child.start_frame))
            ] = PARENT
    return TrackingGraph(
        frames=frames,
        frame_ids=[np.array(ids, dtype=int) for ids in frame_ids],
        frame_boxes=[
            np.array(boxes, dtype=float).reshape(-1, 4) for boxes in frame_boxes
        ],
        edges=edges,
    )


def iou_matrix(boxes_a: np.ndarray, boxes_b: np.ndarray) -> np.ndarray:
    """Pairwise IoU between two (n, 4) box arrays in (x, y, w, h) form."""
    if boxes_a.size == 0 or boxes_b.size == 0:
        return np.zeros((boxes_a.shape[0], boxes_b.shape[0]))
    ax1, ay1 = boxes_a[:, 0], boxes_a[:, 1]
    ax2, ay2 = ax1 + boxes_a[:, 2], ay1 + boxes_a[:, 3]
    bx1, by1 = boxes_b[:, 0], boxes_b[:, 1]
    bx2, by2 = bx1 + boxes_b[:, 2], by1 + boxes_b[:, 3]
    iw = np.minimum(ax2[:, None], bx2[None, :]) - np.maximum(
        ax1[:, None], bx1[None, :]
    )
    ih = np.minimum(ay2[:, None], by2[None, :]) - np.maximum(
        ay1[:, None], by1[None, :]
    )
    inter = np.clip(iw, 0.0, None) * np.clip(ih, 0.0, None)
    inter[(iw <= 0) | (ih <= 0)] = 0.0
    areas_a = boxes_a[:, 2] * boxes_a[:, 3]
    areas_b = boxes_b[:, 2] * boxes_b[:, 3]
    union = areas_a[:, None] + areas_b[None, :] - inter
    return _ratio(inter, union)


def _ratio(inter: np.ndarray, union: np.ndarray) -> np.ndarray:
    """``inter / union`` capped at 1, and 0 where the union underflows to 0."""
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = inter / union
    ratio[union <= 0] = 0.0
    # Rounding in x+w can push the ratio a hair past 1 for equal boxes.
    return np.minimum(ratio, 1.0, out=ratio)


def _center_cover_mapping(
    gt_boxes: np.ndarray, pred_boxes: np.ndarray
) -> np.ndarray:
    """Covered-center assignment for one frame.

    Returns, per ground-truth node, the index of the prediction whose box
    contains the ground-truth box center with the largest intersection
    area, or -1 when no box covers it.  Intersection ties are broken by
    IoU — when a small box sits wholly inside a larger one, both cover
    the small ground truth completely, and the snugger box is the right
    partner — and remaining ties go to the lowest prediction index.
    Several ground-truth nodes may map to one prediction; that surfaces
    as node splits in the edit counts.
    """
    m = gt_boxes.shape[0]
    out = np.full(m, -1, dtype=int)
    if m == 0 or pred_boxes.shape[0] == 0:
        return out
    cx = gt_boxes[:, 0] + gt_boxes[:, 2] / 2.0
    cy = gt_boxes[:, 1] + gt_boxes[:, 3] / 2.0
    px1, py1 = pred_boxes[:, 0], pred_boxes[:, 1]
    px2, py2 = px1 + pred_boxes[:, 2], py1 + pred_boxes[:, 3]
    inside = (
        (cx[:, None] >= px1[None, :])
        & (cx[:, None] <= px2[None, :])
        & (cy[:, None] >= py1[None, :])
        & (cy[:, None] <= py2[None, :])
    )
    if not inside.any():
        return out
    ix1 = np.maximum(gt_boxes[:, 0][:, None], px1[None, :])
    iy1 = np.maximum(gt_boxes[:, 1][:, None], py1[None, :])
    ix2 = np.minimum((gt_boxes[:, 0] + gt_boxes[:, 2])[:, None], px2[None, :])
    iy2 = np.minimum((gt_boxes[:, 1] + gt_boxes[:, 3])[:, None], py2[None, :])
    inter = np.clip(ix2 - ix1, 0.0, None) * np.clip(iy2 - iy1, 0.0, None)
    union = (
        (gt_boxes[:, 2] * gt_boxes[:, 3])[:, None]
        + (pred_boxes[:, 2] * pred_boxes[:, 3])[None, :]
        - inter
    )
    iou_tie = _ratio(inter, union)
    masked_inter = np.where(inside, inter, -1.0)
    top_inter = masked_inter.max(axis=1, keepdims=True)
    tied = inside & (masked_inter == top_inter)
    masked_iou = np.where(tied, iou_tie, -1.0)
    top_iou = masked_iou.max(axis=1, keepdims=True)
    best = tied & (masked_iou == top_iou)
    rows = inside.any(axis=1)
    out[rows] = np.argmax(best[rows], axis=1)
    return out


def _unique_best(
    key: np.ndarray, other: np.ndarray, ious: np.ndarray, n_other: int
) -> tuple[np.ndarray, np.ndarray]:
    """Each key node's best pair, and whether that choice is settled.

    The pairs come sorted by ``key``.  Returns, per key node in that
    order, the index of its highest-IoU pair and a flag: the maximum is
    strict within the node and no other key node's best pair shares its
    partner.
    """
    first = np.empty(key.size, dtype=bool)
    first[0] = True
    np.not_equal(key[1:], key[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    group = np.cumsum(first) - 1
    top = ious == np.maximum.reduceat(ious, starts)[group]
    n_top = np.add.reduceat(top.astype(np.intp), starts)
    best = np.maximum.reduceat(np.where(top, np.arange(key.size), -1), starts)
    partner = other[best]
    settled = (n_top == 1) & (np.bincount(partner, minlength=n_other)[partner] == 1)
    return best, settled


def _max_iou_pairs(
    rows: np.ndarray, cols: np.ndarray, ious: np.ndarray, n_rows: int, n_cols: int
) -> np.ndarray:
    """One-to-one matching maximizing total IoU over the given eligible pairs.

    ``rows``/``cols`` index ground-truth and predicted nodes (possibly of
    many frames at once, since frames share no nodes); the pairs come
    sorted by row, then column.  Returns the indices of the matched
    pairs in that order.

    The eligible bipartite graph is split into connected components and
    each is solved as the Hungarian algorithm (scipy's
    ``linear_sum_assignment``, maximizing, over the component's rows and
    columns with ineligible cells at zero) solves it.  That solver walks
    the rows of a component with no more rows than columns, and the
    columns otherwise.  When every node it walks has a strictly best pair
    and no two of those share a partner, each walk ends at once on that
    pair, with no floating-point work, so those pairs are its answer;
    this settles 1x1 components and nearly every component of clean
    input in a few array passes.  The remaining components go to the
    solver one at a time.
    """
    if rows.size == 0:
        return np.zeros(0, dtype=np.intp)
    row_best, row_settled = _unique_best(rows, cols, ious, n_cols)
    if row_settled.all():
        # Row bests are distinct, so no component has more rows than columns.
        return row_best
    by_col = np.lexsort((rows, cols))
    col_best, col_settled = _unique_best(cols[by_col], rows[by_col], ious[by_col], n_rows)
    col_best = by_col[col_best]

    graph = coo_matrix(
        (np.ones(rows.size), (rows, cols + n_rows)), shape=(n_rows + n_cols,) * 2
    )
    n_comp, label = connected_components(graph, directed=False)
    row_comp = label[rows[row_best]]
    col_comp = label[cols[col_best] + n_rows]
    walks_rows = np.bincount(row_comp, minlength=n_comp) <= np.bincount(
        col_comp, minlength=n_comp
    )
    unsettled = np.zeros(n_comp, dtype=bool)
    stuck_rows = row_comp[~row_settled]
    unsettled[stuck_rows[walks_rows[stuck_rows]]] = True
    stuck_cols = col_comp[~col_settled]
    unsettled[stuck_cols[~walks_rows[stuck_cols]]] = True
    keep = [
        row_best[walks_rows[row_comp] & ~unsettled[row_comp]],
        col_best[~walks_rows[col_comp] & ~unsettled[col_comp]],
    ]

    pair_comp = label[rows]
    rest = np.flatnonzero(unsettled[pair_comp])
    rest = rest[np.argsort(pair_comp[rest], kind="stable")]
    bounds = np.flatnonzero(np.diff(pair_comp[rest])) + 1
    for idx in np.split(rest, bounds) if rest.size else ():
        comp_rows, r = np.unique(rows[idx], return_inverse=True)
        comp_cols, c = np.unique(cols[idx], return_inverse=True)
        sub = np.zeros((comp_rows.size, comp_cols.size))
        sub[r, c] = ious[idx]
        pair_at = np.full(sub.shape, -1)
        pair_at[r, c] = idx
        ri, ci = linear_sum_assignment(sub, maximize=True)
        # A cell outside the eligible pairs holds 0 < alpha: not a match.
        chosen = pair_at[ri, ci]
        keep.append(chosen[chosen >= 0])
    return np.sort(np.concatenate(keep))


def match_frame_objects(
    gt_boxes: np.ndarray,
    pred_boxes: np.ndarray,
    criterion: str = "center",
    alpha: float = 0.5,
) -> np.ndarray | list[tuple[int, int]]:
    """Frame-level correspondence between ground truth and prediction.

    ``criterion="center"`` applies the covered-center rule and returns a
    per-ground-truth array of prediction indices (-1 for unmatched);
    ``criterion="iou"`` returns the one-to-one (gt, pred) index pairs of
    the total-IoU-maximizing assignment under ``iou >= alpha``.
    """
    gt_boxes = np.asarray(gt_boxes, dtype=float).reshape(-1, 4)
    pred_boxes = np.asarray(pred_boxes, dtype=float).reshape(-1, 4)
    if criterion == "center":
        return _center_cover_mapping(gt_boxes, pred_boxes)
    if criterion == "iou":
        ious = iou_matrix(gt_boxes, pred_boxes)
        rows, cols = np.nonzero(ious >= alpha)
        keep = _max_iou_pairs(rows, cols, ious[rows, cols], *ious.shape)
        return list(zip(rows[keep].tolist(), cols[keep].tolist()))
    raise ValueError(f"unknown matching criterion {criterion!r}")


# ---------------------------------------------------------------------------
# Graph-edit scores


def aogm_counts(gt: TrackingGraph, pred: TrackingGraph) -> AOGMCounts:
    """Count the edit operations turning ``pred`` into ``gt``.

    Nodes: ground-truth nodes without a covering prediction are
    additions (FN); predictions covering nothing are deletions (FP); a
    prediction covering k > 1 ground-truth nodes needs k - 1 splits.
    Edges: each ground-truth edge is served by the prediction edge
    between its mapped endpoints — exactly once, matching semantics
    preferred, a semantics change when only the wrong kind is there, an
    addition otherwise.  Prediction edges serving no ground-truth edge
    are deletions.
    """
    if gt.frames != pred.frames:
        raise ValidationError(
            f"frame count mismatch: gt {gt.frames} vs pred {pred.frames}"
        )
    ns = fn = fp = 0
    mapping: dict[Node, Node] = {}
    for f in range(gt.frames):
        gt_ids = gt.frame_ids[f]
        pred_ids = pred.frame_ids[f]
        assigned = _center_cover_mapping(gt.frame_boxes[f], pred.frame_boxes[f])
        covered = assigned >= 0
        hits = np.bincount(assigned[covered], minlength=pred_ids.size)
        fn += int(assigned.size - np.count_nonzero(covered))
        fp += int(np.count_nonzero(hits == 0))
        ns += int(np.clip(hits - 1, 0, None).sum())
        mapping.update(
            zip(
                zip(gt_ids[covered].tolist(), repeat(f)),
                zip(pred_ids[assigned[covered]].tolist(), repeat(f)),
            )
        )

    used: set[tuple[Node, Node]] = set()
    deferred: list[tuple[Node, Node] | None] = []
    ea = ec = 0
    for (ga, gb), kind in gt.edges.items():
        pa = mapping.get(ga)
        pb = mapping.get(gb)
        if pa is None or pb is None or pa == pb:
            ea += 1
            continue
        pkey = (pa, pb)
        pkind = pred.edges.get(pkey)
        if pkind == kind and pkey not in used:
            used.add(pkey)
        elif pkind is None:
            ea += 1
        else:
            deferred.append(pkey)
    for pkey in deferred:
        if pkey is not None and pkey not in used:
            used.add(pkey)
            ec += 1
        else:
            ea += 1
    ed = len(pred.edges) - len(used)
    return AOGMCounts(
        node_splits=ns,
        false_negatives=fn,
        false_positives=fp,
        edge_deletions=ed,
        edge_additions=ea,
        edge_changes=ec,
    )


def aogm_penalty(
    counts: AOGMCounts, weights: AOGMWeights | None = None, ops: str = "all"
) -> float:
    """Weighted edit cost; ``ops`` restricts to "nodes" or "edges"."""
    w = weights or AOGMWeights()
    nodes = (
        w.node_split * counts.node_splits
        + w.false_negative * counts.false_negatives
        + w.false_positive * counts.false_positives
    )
    edges = (
        w.edge_delete * counts.edge_deletions
        + w.edge_add * counts.edge_additions
        + w.edge_change * counts.edge_changes
    )
    if ops == "all":
        return nodes + edges
    if ops == "nodes":
        return nodes
    if ops == "edges":
        return edges
    raise ValueError(f"unknown ops selector {ops!r}")


def _normalized(penalty: float, empty_cost: float) -> float:
    if empty_cost == 0:
        return 1.0 if penalty == 0 else 0.0
    return 1.0 - min(penalty, empty_cost) / empty_cost


@dataclass(frozen=True)
class CtcScores:
    det: float
    lnk: float
    tra: float
    counts: AOGMCounts


def det_lnk_tra(
    pred: LineageForest | TrackingGraph,
    gt: LineageForest | TrackingGraph,
    weights: AOGMWeights | None = None,
) -> CtcScores:
    """DET / LNK / TRA of a prediction against ground truth.

    Each score is ``1 - min(penalty, empty) / empty`` where ``empty`` is
    the cost of building the ground-truth graph from nothing, restricted
    to node operations (DET), edge operations (LNK), or both (TRA).
    """
    w = weights or AOGMWeights()
    gt_graph, pred_graph = _graphs(pred, gt)
    n_gt = gt_graph.node_count
    if n_gt == 0:
        raise UndefinedMetricError("ground truth has no objects")
    e_gt = gt_graph.edge_count
    counts = aogm_counts(gt_graph, pred_graph)
    det = _normalized(aogm_penalty(counts, w, "nodes"), n_gt * w.false_negative)
    lnk = _normalized(aogm_penalty(counts, w, "edges"), e_gt * w.edge_add)
    tra = _normalized(
        aogm_penalty(counts, w, "all"),
        n_gt * w.false_negative + e_gt * w.edge_add,
    )
    return CtcScores(det=det, lnk=lnk, tra=tra, counts=counts)


# ---------------------------------------------------------------------------
# Detection-association scores


@dataclass(frozen=True)
class HotaScores:
    hota: float
    det_a: float
    ass_a: float
    alphas: tuple[float, ...]
    hota_alpha: tuple[float, ...]
    det_a_alpha: tuple[float, ...]
    ass_a_alpha: tuple[float, ...]


class FramePairs:
    """Every frame's overlapping (gt, pred) box pairs, for one evaluation pass.

    Each frame's IoU matrix is computed once, and the pairs with
    ``iou >= floor`` are kept, flattened over frames in (frame, gt
    index, pred index) order.  Rows and columns number the ground-truth
    and predicted nodes in frame order, and map to dense track codes
    (indices into the sorted track ids).  HOTA, MOTA, MOTP and IDF1 all
    read their pairs from here, and each threshold's matching is
    computed once and shared.
    """

    def __init__(self, gt: TrackingGraph, pred: TrackingGraph, floor: float) -> None:
        self.floor = floor
        rows = [np.zeros(0, dtype=np.intp)]
        cols = [np.zeros(0, dtype=np.intp)]
        ious = [np.zeros(0)]
        self.n_rows = self.n_cols = 0
        for f in range(gt.frames):
            frame = iou_matrix(gt.frame_boxes[f], pred.frame_boxes[f])
            r, c = np.nonzero(frame >= floor)
            rows.append(r + self.n_rows)
            cols.append(c + self.n_cols)
            ious.append(frame[r, c])
            self.n_rows += frame.shape[0]
            self.n_cols += frame.shape[1]
        self.rows = np.concatenate(rows)
        self.cols = np.concatenate(cols)
        self.ious = np.concatenate(ious)
        empty = [np.zeros(0, dtype=int)]
        self.gt_tracks, self.gt_track = np.unique(
            np.concatenate(empty + gt.frame_ids), return_inverse=True
        )
        self.pred_tracks, self.pred_track = np.unique(
            np.concatenate(empty + pred.frame_ids), return_inverse=True
        )
        self._matches: dict[float, np.ndarray] = {}

    def eligible(self, alpha: float) -> np.ndarray:
        """Indices of the pairs with ``iou >= alpha``."""
        if alpha < self.floor:
            raise ValueError(f"threshold {alpha} is below the pair floor {self.floor}")
        return np.flatnonzero(self.ious >= alpha)

    def matches(self, alpha: float) -> np.ndarray:
        """Indices of the pairs matched at ``alpha``, in (frame, gt index) order."""
        if alpha not in self._matches:
            idx = self.eligible(alpha)
            kept = _max_iou_pairs(
                self.rows[idx], self.cols[idx], self.ious[idx], self.n_rows, self.n_cols
            )
            self._matches[alpha] = idx[kept]
        return self._matches[alpha]

    def track_codes(self, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(gt, pred) track codes of the pairs ``idx``."""
        return self.gt_track[self.rows[idx]], self.pred_track[self.cols[idx]]


def _graphs(
    pred: LineageForest | TrackingGraph, gt: LineageForest | TrackingGraph
) -> tuple[TrackingGraph, TrackingGraph]:
    """(gt, pred) as graphs; a prediction forest spans the ground truth's frames."""
    gt_graph = gt if isinstance(gt, TrackingGraph) else build_graph(gt)
    pred_graph = (
        pred if isinstance(pred, TrackingGraph) else build_graph(pred, gt_graph.frames)
    )
    return gt_graph, pred_graph


def hota(
    pred: LineageForest | TrackingGraph,
    gt: LineageForest | TrackingGraph,
    alphas: tuple[float, ...] = DEFAULT_ALPHAS,
    *,
    pairs: FramePairs | None = None,
) -> HotaScores:
    """HOTA with its detection and association factors.

    Per threshold alpha, frames are matched one-to-one maximizing total
    IoU over pairs with ``iou >= alpha``; DetA is TP / (TP + FN + FP)
    and AssA averages, over true-positive detections, the Jaccard index
    between the ground-truth and predicted trajectories they join.  The
    headline numbers average over the threshold grid.

    ``pairs``, when given, is the evaluation pass of these two graphs
    (with a floor at or below every alpha), shared with other metrics.
    """
    gt_graph, pred_graph = _graphs(pred, gt)
    if gt_graph.frames != pred_graph.frames:
        raise ValidationError("frame count mismatch")
    if gt_graph.node_count == 0:
        raise UndefinedMetricError("ground truth has no objects")
    if pairs is None:
        pairs = FramePairs(gt_graph, pred_graph, min(alphas, default=1.0))
    gt_sizes = np.bincount(pairs.gt_track)
    pred_sizes = np.bincount(pairs.pred_track)
    n_pred_tracks = pairs.pred_tracks.size
    gt_total = gt_graph.node_count
    pred_total = pred_graph.node_count

    h_list: list[float] = []
    d_list: list[float] = []
    a_list: list[float] = []
    for alpha in alphas:
        kept = pairs.matches(alpha)
        tp = int(kept.size)
        det_a = tp / (gt_total + pred_total - tp) if gt_total + pred_total else 0.0
        if tp == 0:
            ass_a = 0.0
        else:
            g, p = pairs.track_codes(kept)
            keys, first, counts = np.unique(
                g * n_pred_tracks + p, return_index=True, return_counts=True
            )
            # Sum (gt, pred) terms left to right in first-match order, so the
            # rounding is that of a running per-pair count.
            order = np.argsort(first)
            g, p = np.divmod(keys[order], n_pred_tracks)
            c = counts[order]
            terms = c * (c / (gt_sizes[g] + pred_sizes[p] - c))
            ass_a = float(np.add.accumulate(terms)[-1]) / tp
        h_list.append(math.sqrt(det_a * ass_a))
        d_list.append(det_a)
        a_list.append(ass_a)
    return HotaScores(
        hota=float(np.mean(h_list)),
        det_a=float(np.mean(d_list)),
        ass_a=float(np.mean(a_list)),
        alphas=tuple(alphas),
        hota_alpha=tuple(h_list),
        det_a_alpha=tuple(d_list),
        ass_a_alpha=tuple(a_list),
    )


def mota(
    pred: LineageForest | TrackingGraph,
    gt: LineageForest | TrackingGraph,
    alpha: float = 0.5,
    *,
    pairs: FramePairs | None = None,
) -> float:
    """1 - (FN + FP + IDSW) / |GT| at the given IoU threshold."""
    gt_graph, pred_graph = _graphs(pred, gt)
    if gt_graph.node_count == 0:
        raise UndefinedMetricError("ground truth has no objects")
    if pairs is None:
        pairs = FramePairs(gt_graph, pred_graph, alpha)
    kept = pairs.matches(alpha)
    gt_total = gt_graph.node_count
    tp = int(kept.size)
    fn = gt_total - tp
    fp = pred_graph.node_count - tp
    # An identity switch is a ground-truth track matched to another
    # prediction than at its previous match.
    g, p = pairs.track_codes(kept)
    by_track = np.argsort(g, kind="stable")
    g, p = g[by_track], p[by_track]
    idsw = int(np.count_nonzero((g[1:] == g[:-1]) & (p[1:] != p[:-1])))
    return 1.0 - (fn + fp + idsw) / gt_total


def motp(
    pred: LineageForest | TrackingGraph,
    gt: LineageForest | TrackingGraph,
    alpha: float = 0.5,
    *,
    pairs: FramePairs | None = None,
) -> float:
    """Mean IoU over matched pairs; undefined without any match."""
    if pairs is None:
        pairs = FramePairs(*_graphs(pred, gt), alpha)
    kept = pairs.matches(alpha)
    if kept.size == 0:
        raise UndefinedMetricError("no matched pairs at this threshold")
    return float(np.mean(pairs.ious[kept]))


def idf1(
    pred: LineageForest | TrackingGraph,
    gt: LineageForest | TrackingGraph,
    alpha: float = 0.5,
    *,
    pairs: FramePairs | None = None,
) -> float:
    """Identity F1: optimal trajectory pairing, then detection-level F1.

    Trajectories are paired one-to-one to maximize the number of frames
    where the paired tracks overlap with ``iou >= alpha``; those frames
    are the identity true positives.
    """
    gt_graph, pred_graph = _graphs(pred, gt)
    if gt_graph.node_count == 0:
        raise UndefinedMetricError("ground truth has no objects")
    if pairs is None:
        pairs = FramePairs(gt_graph, pred_graph, alpha)
    overlap = np.zeros((pairs.gt_tracks.size, pairs.pred_tracks.size))
    np.add.at(overlap, pairs.track_codes(pairs.eligible(alpha)), 1.0)
    idtp = 0.0
    if overlap.size:
        ri, ci = linear_sum_assignment(overlap, maximize=True)
        idtp = float(overlap[ri, ci].sum())
    idfn = gt_graph.node_count - idtp
    idfp = pred_graph.node_count - idtp
    return 2.0 * idtp / (2.0 * idtp + idfp + idfn)


# ---------------------------------------------------------------------------
# Combined report


@dataclass(frozen=True)
class MetricReport:
    det: float
    lnk: float
    tra: float
    hota: float
    det_a: float
    ass_a: float
    mota: float
    motp: float
    idf1: float
    counts: AOGMCounts
    alphas: tuple[float, ...]
    hota_alpha: tuple[float, ...]

    def to_flat(self) -> dict[str, float]:
        out = {
            "det": self.det,
            "lnk": self.lnk,
            "tra": self.tra,
            "hota": self.hota,
            "det_a": self.det_a,
            "ass_a": self.ass_a,
            "mota": self.mota,
            "motp": self.motp,
            "idf1": self.idf1,
            "aogm_node_splits": float(self.counts.node_splits),
            "aogm_false_negatives": float(self.counts.false_negatives),
            "aogm_false_positives": float(self.counts.false_positives),
            "aogm_edge_deletions": float(self.counts.edge_deletions),
            "aogm_edge_additions": float(self.counts.edge_additions),
            "aogm_edge_changes": float(self.counts.edge_changes),
        }
        for alpha, value in zip(self.alphas, self.hota_alpha):
            out[f"hota_alpha_{alpha:.2f}"] = value
        return out


def check_frame_range(pred: VideoMeta, gt: VideoMeta) -> None:
    """Raise ``ValidationError`` if both declare a frame count and they differ."""
    if pred.frames and gt.frames and pred.frames != gt.frames:
        raise ValidationError(
            f"frame-range mismatch: prediction covers {pred.frames} "
            f"frames, ground truth {gt.frames}"
        )


def evaluate(
    pred: LineageForest,
    gt: LineageForest,
    weights: AOGMWeights | None = None,
    alphas: tuple[float, ...] = DEFAULT_ALPHAS,
) -> MetricReport:
    """Compute the full metric suite for one video.

    MOTP is reported as 0.0 when no pair matches at the 0.5 threshold
    (the mean overlap is undefined there).
    """
    check_frame_range(pred.meta, gt.meta)
    gt_graph = build_graph(gt)
    pred_graph = build_graph(pred, gt_graph.frames)
    scores = det_lnk_tra(pred_graph, gt_graph, weights)
    # One pass of IoU pairs serves every threshold, including MOTA, MOTP
    # and IDF1's 0.5, whose matching HOTA has computed when 0.5 is an alpha.
    pairs = FramePairs(gt_graph, pred_graph, min([*alphas, 0.5]))
    h = hota(pred_graph, gt_graph, alphas, pairs=pairs)
    try:
        motp_value = motp(pred_graph, gt_graph, pairs=pairs)
    except UndefinedMetricError:
        motp_value = 0.0
    return MetricReport(
        det=scores.det,
        lnk=scores.lnk,
        tra=scores.tra,
        hota=h.hota,
        det_a=h.det_a,
        ass_a=h.ass_a,
        mota=mota(pred_graph, gt_graph, pairs=pairs),
        motp=motp_value,
        idf1=idf1(pred_graph, gt_graph, pairs=pairs),
        counts=scores.counts,
        alphas=h.alphas,
        hota_alpha=h.hota_alpha,
    )
