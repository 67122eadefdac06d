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

Both read one sparse pass, ``FramePairs``.  Over all frames at once it
cuts the predicted boxes of each frame into bands by top edge and sorts
each band by left edge, takes for each ground-truth box the predictions
in its frame whose closed x-extents and y-extents may both meet it, and
computes each such pair's intersection, IoU and covered-center test
once.  A pair left out neither overlaps nor covers a center, so every
score equals the one full per-frame matrices give.  The scoring
protocol is fixed by the constants below, as the metric definitions fix
it.  Both families are invariant to track relabeling and deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import ForestColumns, LineageForest, ValidationError, meeting_pairs

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


# Edge kind codes of ``TrackingGraph.kinds``.
LINK, PARENT = 0, 1

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


@dataclass(eq=False)
class TrackingGraph:
    """One forest as flat node arrays plus typed edge arrays.

    Node ``i`` is the box ``boxes[i]`` of track ``ids[i]`` at frame
    ``node_frames[i]``; nodes run in (frame, track id) order.  Edge ``k``
    joins node ``src[k]`` to node ``dst[k]`` and has kind ``kinds[k]``:
    ``LINK`` between consecutive frames of one track, ``PARENT`` from a
    track's last node to a daughter's first.
    """

    frames: int
    node_frames: np.ndarray
    ids: np.ndarray
    boxes: np.ndarray
    src: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.intp))
    dst: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.intp))
    kinds: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int8))

    @property
    def node_count(self) -> int:
        return self.ids.size

    @property
    def edge_count(self) -> int:
        return self.src.size


def build_graph(forest: LineageForest | ForestColumns) -> TrackingGraph:
    """The tracking graph of a forest over its ``meta.frames`` frames.

    Columns are taken as checked, as ``ingest.read_forest`` returns them.
    An in-memory forest may be unvalidated: it is converted to columns,
    which are checked without the coverage and adjacency rules, so an
    entry outside the frames raises ``ValidationError``.
    """
    if isinstance(forest, LineageForest):
        forest = forest.columns()
        forest.validate(require_coverage=False, require_adjacency=False)
    ids, frames = forest.entry_ids, forest.frames
    # Entries are in (track, frame) order: a link joins neighbours one
    # frame apart.
    link = np.flatnonzero((ids[1:] == ids[:-1]) & (np.diff(frames) == 1))
    # A division joins its parent's last node to the daughter's first,
    # parents in id order and each one's daughters in id order.
    lo, hi = forest.bounds
    parent = forest.parent_rows
    child = np.flatnonzero(parent >= 0)
    child = child[np.lexsort((forest.ids[child], forest.ids[parent[child]]))]
    # Tracks run in id order, so a stable sort by frame gives (frame, id).
    order = np.argsort(frames, kind="stable")
    rank = np.argsort(order)
    return TrackingGraph(
        frames=forest.meta.frames,
        node_frames=frames[order],
        ids=ids[order],
        boxes=forest.boxes[order],
        src=rank[np.concatenate([link, hi[parent[child]] - 1])],
        dst=rank[np.concatenate([link + 1, lo[child]])],
        kinds=np.repeat(
            np.array([LINK, PARENT], dtype=np.int8), [link.size, child.size]
        ),
    )


def iou_matrix(boxes_a: np.ndarray, boxes_b: np.ndarray) -> np.ndarray:
    """Pairwise IoU between two (n, 4) box arrays in (x, y, w, h) form."""
    return _ratio(*_inter_union(boxes_a[:, None], boxes_b[None, :]))


def _inter_union(
    boxes_a: np.ndarray, boxes_b: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Intersection and union areas of boxes ``boxes_a`` and ``boxes_b``,
    (x, y, w, h) on the last axis; the leading axes broadcast."""
    ax1, ay1, aw, ah = np.moveaxis(boxes_a, -1, 0)
    bx1, by1, bw, bh = np.moveaxis(boxes_b, -1, 0)
    iw = np.minimum(ax1 + aw, bx1 + bw) - np.maximum(ax1, bx1)
    ih = np.minimum(ay1 + ah, by1 + bh) - np.maximum(ay1, by1)
    inter = np.maximum(iw, 0.0) * np.maximum(ih, 0.0)
    inter[(iw <= 0) | (ih <= 0)] = 0.0
    union = aw * ah + bw * bh - inter
    return inter, union


def _ratio(inter: np.ndarray, union: np.ndarray) -> np.ndarray:
    """``inter / union`` capped at 1, and 0 where the union underflows to 0."""
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = inter / union
    ratio[union <= 0] = 0.0
    # Rounding in x+w can push the ratio a hair past 1 for equal boxes.
    return np.minimum(ratio, 1.0, out=ratio)


def _touching_pairs(
    gt: TrackingGraph, pred: TrackingGraph
) -> tuple[np.ndarray, np.ndarray]:
    """(gt node, pred node) pairs of one frame whose closed x-extents and
    closed y-extents may both meet, as ``core.meeting_pairs`` finds them
    with bands as high as the tallest box.  Every pair that overlaps,
    touches, or has the ground-truth center inside the prediction is
    among them."""
    band = np.concatenate((gt.boxes[:, 3], pred.boxes[:, 3])).max(initial=0.0)
    return meeting_pairs(
        pred.node_frames, _corners(pred.boxes), gt.node_frames, _corners(gt.boxes), band
    )


def _corners(boxes: np.ndarray) -> np.ndarray:
    """``(x1, y1, x2, y2)`` rows of ``(x, y, w, h)`` boxes; the far edges
    are the sums ``_inter_union`` takes."""
    return np.concatenate((boxes[:, :2], boxes[:, :2] + boxes[:, 2:]), axis=1)


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
) -> tuple[np.ndarray, np.ndarray | None]:
    """One-to-one matching maximizing total IoU over the given eligible pairs.

    ``rows``/``cols`` index ground-truth and predicted nodes (possibly of
    many frames at once, since frames share no nodes); the pairs come
    sorted by row, then column.  Returns the indices of the matched
    pairs in that order, and the connected-component label of each node
    (ground-truth nodes, then predicted ones), or None when every row was
    settled and no labels were needed.

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
    solver one at a time.  Every step reads one component's pairs only,
    so the answer over a union of components is the union of their
    answers.
    """
    if rows.size == 0:
        return np.zeros(0, dtype=np.intp), None
    row_best, row_settled = _unique_best(rows, cols, ious, n_cols)
    if row_settled.all():
        # Row bests are distinct, so no component has more rows than columns.
        return row_best, None
    by_col = np.lexsort((rows, cols))
    col_best, col_settled = _unique_best(cols[by_col], rows[by_col], ious[by_col], n_rows)
    col_best = by_col[col_best]

    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

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
    return np.sort(np.concatenate(keep)), label


# ---------------------------------------------------------------------------
# The evaluation pass


class FramePairs:
    """The one evaluation pass over two graphs of equal frame count.

    The pass reads only the (gt, pred) pairs of a frame that
    ``_touching_pairs`` finds, and computes each one's intersection, IoU
    and covered-center test once, with the expressions ``iou_matrix``
    uses.  Rows and columns number the ground-truth and predicted nodes
    in frame order (``n_rows`` and ``n_cols`` are the two node counts).

    ``cover`` maps each ground-truth node to the predicted node of its
    frame whose box contains the ground-truth box center (edges
    included) with the largest intersection area, or -1 when none does.
    Intersection ties go to the larger IoU — when a small box sits wholly
    inside a larger one, both cover the small ground truth completely,
    and the snugger box is the right partner — and remaining ties to the
    lowest predicted node.  Several ground-truth nodes may map to one
    prediction; that surfaces as node splits in the edit counts.

    The pairs with IoU >= ``DEFAULT_ALPHAS[0]`` (HOTA, MOTA, MOTP, IDF1)
    are ``rows``/``cols``/``ious`` in (frame, gt, pred) order, and map to
    dense track codes (indices into the sorted track ids).

    Each threshold's matching is computed once.  ``matches`` starts from
    the largest threshold solved below ``alpha`` and re-solves only the
    components that lost a pair since, as labelled by the chain's first
    solve.  Components only split as ``alpha`` rises, and
    ``_max_iou_pairs`` answers each from its own pairs, so the result
    equals a from-scratch matching at every ``alpha``.
    """

    def __init__(self, gt: TrackingGraph, pred: TrackingGraph) -> None:
        if gt.frames != pred.frames:
            raise ValidationError(
                f"frame count mismatch: gt {gt.frames} vs pred {pred.frames}"
            )
        self.gt, self.pred = gt, pred
        self.n_rows, self.n_cols = gt.node_count, pred.node_count
        g, p = _touching_pairs(gt, pred)
        gt_boxes, pred_boxes = gt.boxes[g], pred.boxes[p]
        inter, union = _inter_union(gt_boxes, pred_boxes)
        ious = _ratio(inter, union)

        cx = gt_boxes[:, 0] + gt_boxes[:, 2] / 2.0
        cy = gt_boxes[:, 1] + gt_boxes[:, 3] / 2.0
        px1, py1 = pred_boxes[:, 0], pred_boxes[:, 1]
        inside = np.flatnonzero(
            (cx >= px1)
            & (cx <= px1 + pred_boxes[:, 2])
            & (cy >= py1)
            & (cy <= py1 + pred_boxes[:, 3])
        )
        ranked = inside[
            np.lexsort((p[inside], -ious[inside], -inter[inside], g[inside]))
        ]
        _, best = np.unique(g[ranked], return_index=True)
        self.cover = np.full(self.n_rows, -1, dtype=np.intp)
        self.cover[g[ranked[best]]] = p[ranked[best]]

        kept = np.flatnonzero(ious >= DEFAULT_ALPHAS[0])
        kept = kept[np.lexsort((p[kept], g[kept]))]
        self.rows, self.cols, self.ious = g[kept], p[kept], ious[kept]
        self.gt_tracks, self.gt_track = np.unique(gt.ids, return_inverse=True)
        self.pred_tracks, self.pred_track = np.unique(pred.ids, return_inverse=True)
        # alpha -> (matched pairs, node component labels from the solve the
        # chain started at, or None when that solve settled every row)
        self._matches: dict[float, tuple[np.ndarray, np.ndarray | None]] = {}

    def eligible(self, alpha: float) -> np.ndarray:
        """Indices of the pairs with ``iou >= alpha``."""
        return np.flatnonzero(self.ious >= alpha)

    def matches(self, alpha: float) -> np.ndarray:
        """Indices of the pairs matched at ``alpha``, in (frame, gt index) order.
        An unchanged matching is the previous threshold's array itself."""
        if alpha not in self._matches:
            below = [a for a in self._matches if a < alpha]
            if below:
                self._matches[alpha] = self._carry(max(below), alpha)
            else:
                self._matches[alpha] = self._solve(self.eligible(alpha))
        return self._matches[alpha][0]

    def _solve(self, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        kept, label = _max_iou_pairs(
            self.rows[idx], self.cols[idx], self.ious[idx], self.n_rows, self.n_cols
        )
        return idx[kept], label

    def _carry(
        self, prev: float, alpha: float
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """The matching at ``alpha`` from the one at ``prev`` < ``alpha``."""
        kept, label = self._matches[prev]
        if label is None:
            # Every row was settled: each keeps its best pair or loses all.
            still = self.ious[kept] >= alpha
            return (kept if still.all() else kept[still]), None
        lost = (self.ious >= prev) & (self.ious < alpha)
        if not lost.any():
            return kept, label
        dirty = np.zeros(label.size, dtype=bool)
        dirty[label[self.rows[lost]]] = True
        idx = self.eligible(alpha)
        redo, _ = self._solve(idx[dirty[label[self.rows[idx]]]])
        clean = kept[~dirty[label[self.rows[kept]]]]
        return np.sort(np.concatenate([clean, redo])), label

    def track_codes(self, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(gt, pred) track codes of the pairs ``idx``."""
        return self.gt_track[self.rows[idx]], self.pred_track[self.cols[idx]]


def _graphs(
    pred: LineageForest | ForestColumns | TrackingGraph,
    gt: LineageForest | ForestColumns | TrackingGraph,
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
    Edges: a ground-truth edge maps to the prediction edge between the
    predictions covering its endpoints.  The ground-truth edges that map
    to one existing prediction edge form a group, and that edge serves
    exactly one of them: as it stands when some edge of the group has
    the same kind, as a semantics change otherwise.  Every other
    ground-truth edge is an addition, and the prediction edges serving
    no group are deletions.  ``pairs``, when given, is the evaluation
    pass of these two graphs.
    """
    pairs = pairs or FramePairs(gt, pred)
    cover = pairs.cover
    covered = cover >= 0
    hits = np.bincount(cover[covered], minlength=pred.node_count)

    # Key each edge by its (source, target) prediction nodes.
    n = pred.node_count
    src, dst = cover[gt.src], cover[gt.dst]
    mapped = (src >= 0) & (dst >= 0) & (src != dst)
    keys = src[mapped] * n + dst[mapped]
    pred_keys = pred.src * n + pred.dst
    by_key = np.argsort(pred_keys)
    slot = np.searchsorted(pred_keys, keys, sorter=by_key)
    found = slot < pred_keys.size
    found[found] = pred_keys[by_key[slot[found]]] == keys[found]
    same = gt.kinds[mapped][found] == pred.kinds[by_key[slot[found]]]
    groups, group = np.unique(keys[found], return_inverse=True)
    return AOGMCounts(
        node_splits=int(np.maximum(hits - 1, 0).sum()),
        false_negatives=int(cover.size - np.count_nonzero(covered)),
        false_positives=int(np.count_nonzero(hits == 0)),
        edge_deletions=pred.edge_count - groups.size,
        edge_additions=gt.edge_count - groups.size,
        edge_changes=groups.size - np.unique(group[same]).size,
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
    pred: LineageForest | ForestColumns | TrackingGraph,
    gt: LineageForest | ForestColumns | TrackingGraph,
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
    pred: LineageForest | ForestColumns | TrackingGraph,
    gt: LineageForest | ForestColumns | TrackingGraph,
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
    last = None
    for alpha in DEFAULT_ALPHAS:
        kept = pairs.matches(alpha)
        # The previous threshold's matching, as the same array, keeps its scores.
        if kept is not last:
            last = kept
            tp = int(kept.size)
            det_a = tp / (gt_total + pred_total - tp) if gt_total + pred_total else 0.0
            if tp == 0:
                ass_a = 0.0
            else:
                g, p = pairs.track_codes(kept)
                keys, first, counts = np.unique(
                    g * n_pred_tracks + p, return_index=True, return_counts=True
                )
                # Sum (gt, pred) terms left to right in first-match order, so
                # the rounding is that of a running per-pair count.
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
    pred: LineageForest | ForestColumns | TrackingGraph,
    gt: LineageForest | ForestColumns | TrackingGraph,
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
    pred: LineageForest | ForestColumns | TrackingGraph,
    gt: LineageForest | ForestColumns | TrackingGraph,
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
    pred: LineageForest | ForestColumns | TrackingGraph,
    gt: LineageForest | ForestColumns | TrackingGraph,
    *,
    pairs: FramePairs | None = None,
) -> float:
    """Identity F1: optimal trajectory pairing, then detection-level F1.

    Trajectories are paired one-to-one, per connected component of the
    overlapping track pairs, to maximize the frames where the paired
    tracks overlap with ``iou >= MOT_ALPHA`` (the identity true positives).
    """
    pairs = pairs or FramePairs(*_graphs(pred, gt))
    gt_code, pred_code = pairs.track_codes(pairs.eligible(MOT_ALPHA))
    n_gt, n_pred = pairs.gt_tracks.size, pairs.pred_tracks.size
    codes, counts = np.unique(gt_code * n_pred + pred_code, return_counts=True)
    kept, _ = _max_iou_pairs(*np.divmod(codes, n_pred), counts, n_gt, n_pred)
    idtp = float(counts[kept].sum())
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


def evaluate(
    pred: LineageForest | ForestColumns | TrackingGraph,
    gt: LineageForest | ForestColumns | TrackingGraph,
) -> MetricReport:
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
