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

Both read one pass, ``FramePairs``, that computes each frame's box
intersections once.  The scoring protocol is fixed by the constants
below, as the metric definitions fix it.  Both families are invariant
to track relabeling and deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .core import Box, LineageForest, ValidationError

__all__ = [
    "UndefinedMetricError",
    "AOGMCounts",
    "CtcScores",
    "TrackingGraph",
    "build_graph",
    "iou_matrix",
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
    "evaluate",
    "DEFAULT_ALPHAS",
]

# scipy is imported on first use: only scoring needs it, and importing it
# takes longer than importing the rest of the package.


def linear_sum_assignment(cost: np.ndarray, maximize: bool = False):
    from scipy.optimize import linear_sum_assignment as solve

    return solve(cost, maximize=maximize)


def coo_matrix(*args, **kwargs):
    from scipy.sparse import coo_matrix as matrix

    return matrix(*args, **kwargs)


def connected_components(graph, directed: bool = True):
    from scipy.sparse.csgraph import connected_components as components

    return components(graph, directed=directed)


LINK = "link"
PARENT = "parent"

# AOGM edit weights of the Cell Tracking Challenge (Matula et al., PLoS
# ONE 2015): node split, false negative, false positive; edge deletion,
# addition, semantics change.
NODE_SPLIT_WEIGHT, FALSE_NEGATIVE_WEIGHT, FALSE_POSITIVE_WEIGHT = 5.0, 10.0, 1.0
EDGE_DELETE_WEIGHT, EDGE_ADD_WEIGHT, EDGE_CHANGE_WEIGHT = 1.0, 1.5, 1.0

# HOTA's IoU threshold grid (Luiten et al., IJCV 2021): 0.05, 0.10, ..., 0.95.
DEFAULT_ALPHAS: tuple[float, ...] = tuple(i / 20 for i in range(1, 20))

# The IoU threshold of MOTA, MOTP and IDF1.
MOT_ALPHA = 0.5


class UndefinedMetricError(ValueError):
    """A metric has no defined value on this input (e.g. empty support)."""


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


def build_graph(forest: LineageForest) -> TrackingGraph:
    """Flatten a lineage forest into its tracking graph over
    ``forest.meta.frames`` frames.  An entry outside them raises
    ``ValidationError``: a forest built in memory may be unvalidated."""
    frames = forest.meta.frames
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
    return _ratio(*_inter_union(boxes_a, boxes_b))


def _inter_union(
    boxes_a: np.ndarray, boxes_b: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Pairwise intersection and union areas of two (n, 4) box arrays."""
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
    inter = np.maximum(iw, 0.0) * np.maximum(ih, 0.0)
    inter[(iw <= 0) | (ih <= 0)] = 0.0
    areas_a = boxes_a[:, 2] * boxes_a[:, 3]
    areas_b = boxes_b[:, 2] * boxes_b[:, 3]
    union = areas_a[:, None] + areas_b[None, :] - inter
    return inter, union


def _ratio(inter: np.ndarray, union: np.ndarray) -> np.ndarray:
    """``inter / union`` capped at 1, and 0 where the union underflows to 0."""
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = inter / union
    ratio[union <= 0] = 0.0
    # Rounding in x+w can push the ratio a hair past 1 for equal boxes.
    return np.minimum(ratio, 1.0, out=ratio)


def _center_cover_mapping(
    gt_boxes: np.ndarray, pred_boxes: np.ndarray, inter: np.ndarray, ious: np.ndarray
) -> np.ndarray:
    """Covered-center assignment for one frame, from its pairwise (gt, pred)
    intersection areas ``inter`` and IoUs ``ious``.

    Returns, per ground-truth node, the index of the prediction whose box
    contains the ground-truth box center with the largest intersection
    area, or -1 when no box covers it.  Intersection ties are broken by
    IoU — when a small box sits wholly inside a larger one, both cover
    the small ground truth completely, and the snugger box is the right
    partner — and remaining ties go to the lowest prediction index.
    Several ground-truth nodes may map to one prediction; that surfaces
    as node splits in the edit counts.
    """
    if pred_boxes.shape[0] == 0:
        return np.full(gt_boxes.shape[0], -1, dtype=int)
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
    masked = np.where(inside, inter, -1.0)
    tied = inside & (masked == masked.max(axis=1, keepdims=True))
    # IoUs are >= 0, so the top IoU among the tied lies on a tied pair.
    masked = np.where(tied, ious, -1.0)
    best = np.argmax(masked == masked.max(axis=1, keepdims=True), axis=1)
    return np.where(inside.any(axis=1), best, -1)


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


# ---------------------------------------------------------------------------
# The evaluation pass


class FramePairs:
    """The one evaluation pass over two graphs of equal frame count.

    Each frame's (gt, pred) intersections are computed once.  ``cover``
    holds each frame's covered-center assignment (DET / LNK / TRA); the
    pairs with IoU >= ``DEFAULT_ALPHAS[0]`` (HOTA, MOTA, MOTP, IDF1) are
    flattened over frames in (frame, gt index, pred index) order.  Rows
    and columns number the ground-truth and predicted nodes in frame
    order (``n_rows`` and ``n_cols`` are the two node counts), and map to
    dense track codes (indices into the sorted track ids).  Each
    threshold's matching is computed once and shared.
    """

    def __init__(self, gt: TrackingGraph, pred: TrackingGraph) -> None:
        if gt.frames != pred.frames:
            raise ValidationError(
                f"frame count mismatch: gt {gt.frames} vs pred {pred.frames}"
            )
        self.gt, self.pred = gt, pred
        self.cover: list[np.ndarray] = []
        rows = [np.zeros(0, dtype=np.intp)]
        cols = [np.zeros(0, dtype=np.intp)]
        ious = [np.zeros(0)]
        self.n_rows = self.n_cols = 0
        for gt_boxes, pred_boxes in zip(gt.frame_boxes, pred.frame_boxes):
            inter, union = _inter_union(gt_boxes, pred_boxes)
            frame = _ratio(inter, union)
            self.cover.append(_center_cover_mapping(gt_boxes, pred_boxes, inter, frame))
            r, c = np.nonzero(frame >= DEFAULT_ALPHAS[0])
            rows.append(r + self.n_rows)
            cols.append(c + self.n_cols)
            ious.append(frame[r, c])
            self.n_rows += frame.shape[0]
            self.n_cols += frame.shape[1]
            # Free this frame's matrices before the next frame's are built.
            del inter, union, frame
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
    """(gt, pred) as graphs, each forest built over its own declared frames.
    ``UndefinedMetricError`` when the ground truth has no objects."""
    gt_graph = gt if isinstance(gt, TrackingGraph) else build_graph(gt)
    pred_graph = pred if isinstance(pred, TrackingGraph) else build_graph(pred)
    if gt_graph.node_count == 0:
        raise UndefinedMetricError("ground truth has no objects")
    return gt_graph, pred_graph


# ---------------------------------------------------------------------------
# Graph-edit scores


def aogm_counts(
    gt: TrackingGraph, pred: TrackingGraph, *, pairs: FramePairs | None = None
) -> AOGMCounts:
    """Count the edit operations turning ``pred`` into ``gt``.

    Nodes: ground-truth nodes without a covering prediction are
    additions (FN); predictions covering nothing are deletions (FP); a
    prediction covering k > 1 ground-truth nodes needs k - 1 splits.
    Edges: each ground-truth edge is served by the prediction edge
    between its mapped endpoints — exactly once, matching semantics
    preferred, a semantics change when only the wrong kind is there, an
    addition otherwise.  Prediction edges serving no ground-truth edge
    are deletions.  ``pairs``, when given, is the evaluation pass of
    these two graphs.
    """
    pairs = pairs or FramePairs(gt, pred)
    ns = fn = fp = 0
    mapping: dict[Node, Node] = {}
    for f, assigned in enumerate(pairs.cover):
        gt_ids = gt.frame_ids[f]
        pred_ids = pred.frame_ids[f]
        covered = assigned >= 0
        hits = np.bincount(assigned[covered], minlength=pred_ids.size)
        fn += int(assigned.size - np.count_nonzero(covered))
        fp += int(np.count_nonzero(hits == 0))
        ns += int(np.maximum(hits - 1, 0).sum())
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


def aogm_penalty(counts: AOGMCounts, ops: str = "all") -> float:
    """Weighted edit cost; ``ops`` restricts to "nodes" or "edges"."""
    nodes = (
        NODE_SPLIT_WEIGHT * counts.node_splits
        + FALSE_NEGATIVE_WEIGHT * counts.false_negatives
        + FALSE_POSITIVE_WEIGHT * counts.false_positives
    )
    edges = (
        EDGE_DELETE_WEIGHT * counts.edge_deletions
        + EDGE_ADD_WEIGHT * counts.edge_additions
        + EDGE_CHANGE_WEIGHT * counts.edge_changes
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
    *,
    pairs: FramePairs | None = None,
) -> CtcScores:
    """DET / LNK / TRA of a prediction against ground truth.

    Each score is ``1 - min(penalty, empty) / empty`` where ``empty`` is
    the cost of building the ground-truth graph from nothing, restricted
    to node operations (DET), edge operations (LNK), or both (TRA).
    ``pairs`` is shared as in ``hota``.
    """
    pairs = pairs or FramePairs(*_graphs(pred, gt))
    n_gt = pairs.n_rows
    e_gt = pairs.gt.edge_count
    counts = aogm_counts(pairs.gt, pairs.pred, pairs=pairs)
    det = _normalized(aogm_penalty(counts, "nodes"), n_gt * FALSE_NEGATIVE_WEIGHT)
    lnk = _normalized(aogm_penalty(counts, "edges"), e_gt * EDGE_ADD_WEIGHT)
    tra = _normalized(
        aogm_penalty(counts, "all"),
        n_gt * FALSE_NEGATIVE_WEIGHT + e_gt * EDGE_ADD_WEIGHT,
    )
    return CtcScores(det=det, lnk=lnk, tra=tra, counts=counts)


# ---------------------------------------------------------------------------
# Detection-association scores


@dataclass(frozen=True)
class HotaScores:
    hota: float
    det_a: float
    ass_a: float
    hota_alpha: tuple[float, ...]
    det_a_alpha: tuple[float, ...]
    ass_a_alpha: tuple[float, ...]


def hota(
    pred: LineageForest | TrackingGraph,
    gt: LineageForest | TrackingGraph,
    *,
    pairs: FramePairs | None = None,
) -> HotaScores:
    """HOTA with its detection and association factors.

    Per threshold alpha of ``DEFAULT_ALPHAS``, frames are matched
    one-to-one maximizing total IoU over pairs with ``iou >= alpha``;
    DetA is TP / (TP + FN + FP) and AssA averages, over true-positive
    detections, the Jaccard index between the ground-truth and predicted
    trajectories they join.  The headline numbers average over the
    threshold grid.

    ``pairs``, when given, is the evaluation pass of these two graphs,
    shared with other metrics; ``pred`` and ``gt`` are then not read.
    """
    pairs = pairs or FramePairs(*_graphs(pred, gt))
    gt_sizes = np.bincount(pairs.gt_track)
    pred_sizes = np.bincount(pairs.pred_track)
    n_pred_tracks = pairs.pred_tracks.size
    gt_total = pairs.n_rows
    pred_total = pairs.n_cols

    h_list: list[float] = []
    d_list: list[float] = []
    a_list: list[float] = []
    for alpha in DEFAULT_ALPHAS:
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
        hota_alpha=tuple(h_list),
        det_a_alpha=tuple(d_list),
        ass_a_alpha=tuple(a_list),
    )


def mota(
    pred: LineageForest | TrackingGraph,
    gt: LineageForest | TrackingGraph,
    *,
    pairs: FramePairs | None = None,
) -> float:
    """1 - (FN + FP + IDSW) / |GT| at IoU threshold ``MOT_ALPHA``."""
    pairs = pairs or FramePairs(*_graphs(pred, gt))
    kept = pairs.matches(MOT_ALPHA)
    gt_total = pairs.n_rows
    tp = int(kept.size)
    fn = gt_total - tp
    fp = pairs.n_cols - tp
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
    *,
    pairs: FramePairs | None = None,
) -> float:
    """Mean IoU over the pairs matched at ``MOT_ALPHA``; undefined without any."""
    pairs = pairs or FramePairs(*_graphs(pred, gt))
    kept = pairs.matches(MOT_ALPHA)
    if kept.size == 0:
        raise UndefinedMetricError("no matched pairs at this threshold")
    return float(np.mean(pairs.ious[kept]))


def idf1(
    pred: LineageForest | TrackingGraph,
    gt: LineageForest | TrackingGraph,
    *,
    pairs: FramePairs | None = None,
) -> float:
    """Identity F1: optimal trajectory pairing, then detection-level F1.

    Trajectories are paired one-to-one to maximize the number of frames
    where the paired tracks overlap with ``iou >= MOT_ALPHA``; those
    frames are the identity true positives.
    """
    pairs = pairs or FramePairs(*_graphs(pred, gt))
    overlap = np.zeros((pairs.gt_tracks.size, pairs.pred_tracks.size))
    np.add.at(overlap, pairs.track_codes(pairs.eligible(MOT_ALPHA)), 1.0)
    idtp = 0.0
    if overlap.size:
        ri, ci = linear_sum_assignment(overlap, maximize=True)
        idtp = float(overlap[ri, ci].sum())
    idfn = pairs.n_rows - idtp
    idfp = pairs.n_cols - idtp
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
        for alpha, value in zip(DEFAULT_ALPHAS, self.hota_alpha):
            out[f"hota_alpha_{alpha:.2f}"] = value
        return out


def evaluate(pred: LineageForest, gt: LineageForest) -> MetricReport:
    """Compute the full metric suite for one video.

    MOTP is reported as 0.0 when no pair matches at the 0.5 threshold
    (the mean overlap is undefined there).
    """
    # One overlap pass serves every score; MOTA and MOTP reuse HOTA's
    # matching at 0.5.
    pairs = FramePairs(*_graphs(pred, gt))
    scores = det_lnk_tra(pred, gt, pairs=pairs)
    h = hota(pred, gt, pairs=pairs)
    try:
        motp_value = motp(pred, gt, pairs=pairs)
    except UndefinedMetricError:
        motp_value = 0.0
    return MetricReport(
        det=scores.det,
        lnk=scores.lnk,
        tra=scores.tra,
        hota=h.hota,
        det_a=h.det_a,
        ass_a=h.ass_a,
        mota=mota(pred, gt, pairs=pairs),
        motp=motp_value,
        idf1=idf1(pred, gt, pairs=pairs),
        counts=scores.counts,
        hota_alpha=h.hota_alpha,
    )
