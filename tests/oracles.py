"""Slow, obvious reference implementations used to cross-check the metrics.

Everything here is written with plain Python loops and exhaustive search,
deliberately avoiding the library's own matching helpers.  The only thing
shared with the fast code is the contract: the covered-center rule, the
edit-operation semantics, and the maximize-total-IoU matching criterion.
"""

from __future__ import annotations

import numpy as np

from celltrack import (
    CellClass,
    LineageForest,
    Provenance,
    Track,
    TrackEntry,
    VideoMeta,
)
from celltrack.tracker import pair_cost

LINK = "link"
PARENT = "parent"

# AOGM weights: node split, false negative, false positive, edge delete,
# edge add, edge change.
W_NS, W_FN, W_FP, W_ED, W_EA, W_EC = 5.0, 10.0, 1.0, 1.0, 1.5, 1.0


# ---------------------------------------------------------------------------
# Scalar geometry


def inter_area(a, b) -> float:
    ix1 = max(a[0], b[0])
    iy1 = max(a[1], b[1])
    ix2 = min(a[0] + a[2], b[0] + b[2])
    iy2 = min(a[1] + a[3], b[1] + b[3])
    iw = ix2 - ix1
    ih = iy2 - iy1
    if iw <= 0 or ih <= 0:
        return 0.0
    return iw * ih


def iou_scalar(a, b) -> float:
    inter = inter_area(a, b)
    union = a[2] * a[3] + b[2] * b[3] - inter
    if union <= 0:
        return 0.0
    return min(inter / union, 1.0)


# ---------------------------------------------------------------------------
# Graph extraction (independent of metrics.build_graph)


def forest_nodes_edges(forest: LineageForest, frames: int):
    """Per-frame (track_id, box) lists plus the typed edge dict."""
    nodes: dict[int, list[tuple[int, tuple]]] = {f: [] for f in range(frames)}
    edges: dict[tuple, str] = {}
    for tid in sorted(forest.tracks):
        track = forest.tracks[tid]
        fs = sorted(track.entries)
        for f in fs:
            nodes[f].append((tid, track.entries[f].box))
        for a, b in zip(fs, fs[1:]):
            if b == a + 1:
                edges[((tid, a), (tid, b))] = LINK
    for tid in sorted(forest.tracks):
        track = forest.tracks[tid]
        last = max(track.entries)
        for child in track.children:
            first = min(forest.tracks[child].entries)
            edges[((tid, last), (child, first))] = PARENT
    return nodes, edges


def node_total(nodes) -> int:
    return sum(len(v) for v in nodes.values())


# ---------------------------------------------------------------------------
# Structural rules of a forest file pair, one track and one entry at a time


def forest_fault(frames, table, entries, strict):
    """The first structural fault of a forest, worded as the loader words
    it, or ``None``.

    ``table`` lists ``(track id, start, end, parent)`` in file order and
    ``entries`` maps a track id to ``{frame: dead}``.  The track-table
    rules run over every track first (entries, declared span, parent),
    then the per-track rules, then the parent walk for cycles; ``strict``
    adds the gap and adjacency rules.  ``{tracks}`` stands for the track
    table's path.
    """
    parent_of = {tid: parent for tid, _, _, parent in table}
    for tid, start, end, parent in table:
        fs = sorted(entries.get(tid, {}))
        if not fs:
            return f"{{tracks}}: track {tid} has no entries"
        if (start, end) != (fs[0], fs[-1]):
            return (
                f"track {tid}: declared span [{start}, {end}] does not match "
                f"entries [{fs[0]}, {fs[-1]}]"
            )
        if parent is not None and parent not in parent_of:
            return f"track {tid} references missing parent {parent}"
    divided = {parent for parent in parent_of.values() if parent is not None}
    for tid, _, _, parent in table:
        dead = entries[tid]
        fs = sorted(dead)
        if fs[0] < 0 or fs[-1] >= frames:
            return f"track {tid} has entries outside the video frame range"
        if strict and fs != list(range(fs[0], fs[-1] + 1)):
            return f"track {tid} has frame gaps"
        dead_seen = False
        for f in fs:
            if dead_seen and not dead[f]:
                return f"track {tid} reverts to alive after death at frame {f}"
            dead_seen = dead_seen or dead[f]
        if parent == tid:
            return f"track {tid} is its own parent"
        if strict and parent is not None and fs[0] != max(entries[parent]) + 1:
            return (
                f"track {tid} starts at {fs[0]}, parent {parent} ends at "
                f"{max(entries[parent])}"
            )
        if tid in divided and not dead[fs[0]] and any(dead.values()):
            return f"track {tid} both divided and died"
    done: set[int] = set()
    for tid, *_ in table:
        path: list[int] = []
        cur = tid
        while cur is not None and cur not in done and cur not in path:
            path.append(cur)
            cur = parent_of[cur]
        if cur is not None and cur in path:
            return f"lineage cycle through track {cur}"
        done.update(path)
    return None


# ---------------------------------------------------------------------------
# Covered-center matching and edit counts


def center_match_frame(gt_boxes, pred_boxes) -> list[int]:
    """Per ground-truth box, the covering prediction index or -1.

    Candidates containing the ground-truth center are ranked by
    intersection area, then IoU, then lowest index.
    """
    out = []
    for g in gt_boxes:
        cx = g[0] + g[2] / 2.0
        cy = g[1] + g[3] / 2.0
        best = -1
        best_key = None
        for j, p in enumerate(pred_boxes):
            if (
                p[0] <= cx <= p[0] + p[2]
                and p[1] <= cy <= p[1] + p[3]
            ):
                key = (inter_area(g, p), iou_scalar(g, p), -j)
                if best_key is None or key > best_key:
                    best_key = key
                    best = j
        out.append(best)
    return out


def brute_aogm_counts(
    gt_forest: LineageForest, pred_forest: LineageForest, frames: int
) -> dict[str, int]:
    """Edit-operation counts turning the prediction into ground truth."""
    gt_nodes, gt_edges = forest_nodes_edges(gt_forest, frames)
    pr_nodes, pr_edges = forest_nodes_edges(pred_forest, frames)

    mapping: dict[tuple, tuple] = {}
    fn = fp = ns = 0
    for f in range(frames):
        gts = gt_nodes[f]
        prs = pr_nodes[f]
        assigned = center_match_frame(
            [b for _, b in gts], [b for _, b in prs]
        )
        hits = [0] * len(prs)
        for (gtid, _), j in zip(gts, assigned):
            if j < 0:
                fn += 1
            else:
                hits[j] += 1
                mapping[(gtid, f)] = (prs[j][0], f)
        fp += sum(1 for c in hits if c == 0)
        ns += sum(c - 1 for c in hits if c > 1)

    ea = ec = 0
    used: set[tuple] = set()
    deferred: list[tuple] = []
    for (ga, gb), kind in gt_edges.items():
        pa = mapping.get(ga)
        pb = mapping.get(gb)
        if pa is None or pb is None or pa == pb:
            ea += 1
            continue
        pkind = pr_edges.get((pa, pb))
        if pkind == kind and (pa, pb) not in used:
            used.add((pa, pb))
        elif pkind is None:
            ea += 1
        else:
            deferred.append((pa, pb))
    for pkey in deferred:
        if pkey not in used:
            used.add(pkey)
            ec += 1
        else:
            ea += 1
    ed = len(pr_edges) - len(used)
    return {"ns": ns, "fn": fn, "fp": fp, "ed": ed, "ea": ea, "ec": ec}


def _norm(penalty: float, empty: float) -> float:
    if empty == 0:
        return 1.0 if penalty == 0 else 0.0
    return 1.0 - min(penalty, empty) / empty


def brute_det_lnk_tra(
    pred_forest: LineageForest, gt_forest: LineageForest, frames: int
) -> tuple[float, float, float, dict[str, int]]:
    c = brute_aogm_counts(gt_forest, pred_forest, frames)
    node_pen = W_NS * c["ns"] + W_FN * c["fn"] + W_FP * c["fp"]
    edge_pen = W_ED * c["ed"] + W_EA * c["ea"] + W_EC * c["ec"]
    gt_nodes, gt_edges = forest_nodes_edges(gt_forest, frames)
    n_gt = node_total(gt_nodes)
    e_gt = len(gt_edges)
    det = _norm(node_pen, W_FN * n_gt)
    lnk = _norm(edge_pen, W_EA * e_gt)
    tra = _norm(node_pen + edge_pen, W_FN * n_gt + W_EA * e_gt)
    return det, lnk, tra, c


# ---------------------------------------------------------------------------
# Exhaustive IoU matching and the detection-association metrics


def exhaustive_matching(gt_boxes, pred_boxes, alpha) -> list[tuple[int, int]]:
    """One-to-one pairing with iou >= alpha maximizing total IoU.

    Plain depth-first search over all assignments; fine for the tiny
    frames these oracles see.
    """
    m, n = len(gt_boxes), len(pred_boxes)
    ious = [[iou_scalar(g, p) for p in pred_boxes] for g in gt_boxes]
    best_pairs: list[tuple[int, int]] = []
    best_total = 0.0

    def search(i, used, pairs, total):
        nonlocal best_pairs, best_total
        if i == m:
            if total > best_total + 1e-15:
                best_total = total
                best_pairs = list(pairs)
            return
        search(i + 1, used, pairs, total)
        for j in range(n):
            if j in used or ious[i][j] < alpha:
                continue
            used.add(j)
            pairs.append((i, j))
            search(i + 1, used, pairs, total + ious[i][j])
            pairs.pop()
            used.discard(j)

    search(0, set(), [], 0.0)
    return sorted(best_pairs)


def _frame_lists(forest: LineageForest, frames: int):
    nodes, _ = forest_nodes_edges(forest, frames)
    ids = {f: [tid for tid, _ in nodes[f]] for f in range(frames)}
    boxes = {f: [b for _, b in nodes[f]] for f in range(frames)}
    return ids, boxes


def _track_sizes(forest: LineageForest) -> dict[int, int]:
    return {tid: len(t.entries) for tid, t in forest.tracks.items()}


def brute_hota(
    pred_forest: LineageForest,
    gt_forest: LineageForest,
    frames: int,
    alphas,
) -> tuple[float, float, float, list[float]]:
    gt_ids, gt_boxes = _frame_lists(gt_forest, frames)
    pr_ids, pr_boxes = _frame_lists(pred_forest, frames)
    gt_sizes = _track_sizes(gt_forest)
    pr_sizes = _track_sizes(pred_forest)
    gt_total = sum(len(v) for v in gt_ids.values())
    pr_total = sum(len(v) for v in pr_ids.values())

    h_vals, d_vals, a_vals = [], [], []
    for alpha in alphas:
        tp = 0
        pair_counts: dict[tuple[int, int], int] = {}
        for f in range(frames):
            for gi, pi in exhaustive_matching(
                gt_boxes[f], pr_boxes[f], alpha
            ):
                key = (gt_ids[f][gi], pr_ids[f][pi])
                pair_counts[key] = pair_counts.get(key, 0) + 1
                tp += 1
        denom = gt_total + pr_total - tp
        det_a = tp / denom if denom else 0.0
        if tp == 0:
            ass_a = 0.0
        else:
            acc = 0.0
            for (g, p), c in sorted(pair_counts.items()):
                acc += c * (c / (gt_sizes[g] + pr_sizes[p] - c))
            ass_a = acc / tp
        h_vals.append((det_a * ass_a) ** 0.5)
        d_vals.append(det_a)
        a_vals.append(ass_a)
    n = len(alphas)
    return (
        sum(h_vals) / n,
        sum(d_vals) / n,
        sum(a_vals) / n,
        h_vals,
    )


def brute_mota(
    pred_forest: LineageForest,
    gt_forest: LineageForest,
    frames: int,
    alpha: float = 0.5,
) -> float:
    gt_ids, gt_boxes = _frame_lists(gt_forest, frames)
    pr_ids, pr_boxes = _frame_lists(pred_forest, frames)
    gt_total = sum(len(v) for v in gt_ids.values())
    pr_total = sum(len(v) for v in pr_ids.values())
    tp = 0
    idsw = 0
    last_pred: dict[int, int] = {}
    for f in range(frames):
        for gi, pi in exhaustive_matching(gt_boxes[f], pr_boxes[f], alpha):
            g = gt_ids[f][gi]
            p = pr_ids[f][pi]
            if g in last_pred and last_pred[g] != p:
                idsw += 1
            last_pred[g] = p
            tp += 1
    fn = gt_total - tp
    fp = pr_total - tp
    return 1.0 - (fn + fp + idsw) / gt_total


def brute_motp(
    pred_forest: LineageForest,
    gt_forest: LineageForest,
    frames: int,
    alpha: float = 0.5,
) -> float | None:
    """Mean IoU of matched pairs, or None when nothing matches."""
    _, gt_boxes = _frame_lists(gt_forest, frames)
    _, pr_boxes = _frame_lists(pred_forest, frames)
    overlaps = []
    for f in range(frames):
        for gi, pi in exhaustive_matching(gt_boxes[f], pr_boxes[f], alpha):
            overlaps.append(iou_scalar(gt_boxes[f][gi], pr_boxes[f][pi]))
    if not overlaps:
        return None
    return sum(overlaps) / len(overlaps)


def brute_idf1(
    pred_forest: LineageForest,
    gt_forest: LineageForest,
    frames: int,
    alpha: float = 0.5,
) -> float:
    gt_ids, gt_boxes = _frame_lists(gt_forest, frames)
    pr_ids, pr_boxes = _frame_lists(pred_forest, frames)
    gt_total = sum(len(v) for v in gt_ids.values())
    pr_total = sum(len(v) for v in pr_ids.values())

    counts: dict[tuple[int, int], int] = {}
    for f in range(frames):
        for gi, g in enumerate(gt_ids[f]):
            for pi, p in enumerate(pr_ids[f]):
                if iou_scalar(gt_boxes[f][gi], pr_boxes[f][pi]) >= alpha:
                    counts[(g, p)] = counts.get((g, p), 0) + 1

    gts = sorted({t for t, _ in counts} | set(gt_forest.tracks))
    prs = sorted({p for _, p in counts} | set(pred_forest.tracks))
    best = 0

    def search(i, used, total):
        nonlocal best
        if total > best:
            best = total
        if i == len(gts):
            return
        search(i + 1, used, total)
        for p in prs:
            if p in used:
                continue
            c = counts.get((gts[i], p), 0)
            if c:
                used.add(p)
                search(i + 1, used, total + c)
                used.discard(p)

    search(0, set(), 0)
    idtp = best
    idfn = gt_total - idtp
    idfp = pr_total - idtp
    return 2.0 * idtp / (2.0 * idtp + idfp + idfn)


# ---------------------------------------------------------------------------
# Tracker gate


def dense_candidates(tracks, detections, config, gate_similarity=True):
    """``tracker.build_candidates`` as a full tracks x detections mask.

    Takes the same gate pools.  Every pair's distance is computed and
    tested; the pairs come out in ``np.nonzero`` order.  The tracker's
    sort-and-sweep gate must return exactly this list.
    """
    if not tracks or not detections:
        return []
    pos, cen = tracks.pos, detections.pos
    dx = pos[:, 0:1] - cen[None, :, 0]
    dy = pos[:, 1:2] - cen[None, :, 1]
    dist = np.hypot(dx, dy)
    near = dist <= config.tau_dist
    if gate_similarity:
        near &= tracks.dead[:, None] == detections.dead[None, :]
    ti, di = np.nonzero(near)
    if ti.size == 0:
        return []
    sim = np.abs(tracks.emb[ti] - detections.emb[di]).sum(axis=1)
    if gate_similarity:
        keep = sim <= config.tau_sim
        ti, di, sim = ti[keep], di[keep], sim[keep]
        if ti.size == 0:
            return []
    cost = pair_cost(sim, dist[ti, di], config)
    ids = tracks.ids[ti].tolist()
    return list(zip(cost.tolist(), ids, di.tolist()))


# ---------------------------------------------------------------------------
# Random tiny-instance generator


def random_instance(
    rng: np.random.Generator,
) -> tuple[LineageForest, LineageForest, int]:
    """A small ground-truth forest plus a perturbed prediction.

    Stays within 5 tracks and 6 objects per frame on either side, and
    10 frames.  The prediction derives from ground truth by dropping
    nodes, jittering boxes, splitting identities, forgetting division
    links, and adding a spurious track.
    """
    frames = int(rng.integers(3, 11))

    def walk_boxes(n):
        x = float(rng.uniform(0, 100))
        y = float(rng.uniform(0, 100))
        w = float(rng.uniform(6, 14))
        h = float(rng.uniform(6, 14))
        out = []
        for _ in range(n):
            out.append((x - w / 2, y - h / 2, w, h))
            x += float(rng.normal(0, 3))
            y += float(rng.normal(0, 3))
        return out

    gt_tracks: dict[int, Track] = {}
    tid = 1
    n_roots = int(rng.integers(1, 4))
    for r in range(n_roots):
        if len(gt_tracks) >= 5:
            break
        start = int(rng.integers(0, frames - 1))
        length = int(rng.integers(2, frames - start + 1))
        boxes = walk_boxes(length)
        root_id = tid
        tid += 1
        divide = (
            r == 0
            and len(gt_tracks) + 3 <= 5
            and start + length <= frames - 1
            and rng.random() < 0.5
        )
        children: list[int] = []
        if divide:
            cstart = start + length
            for k in range(2):
                clen = int(rng.integers(1, frames - cstart + 1))
                cboxes = walk_boxes(clen)
                gt_tracks[tid] = Track(
                    track_id=tid,
                    entries={
                        cstart + i: TrackEntry(
                            box=cboxes[i],
                            cell_class=CellClass.ALIVE,
                            provenance=Provenance.OBSERVED_HIGH,
                        )
                        for i in range(clen)
                    },
                    parent=root_id,
                )
                children.append(tid)
                tid += 1
        gt_tracks[root_id] = Track(
            track_id=root_id,
            entries={
                start + i: TrackEntry(
                    box=boxes[i],
                    cell_class=CellClass.ALIVE,
                    provenance=Provenance.OBSERVED_HIGH,
                )
                for i in range(length)
            },
            children=children,
        )

    gt = LineageForest(
        tracks=gt_tracks, meta=VideoMeta(frames=frames, width=200, height=200)
    )

    # Prediction: perturb ground truth.
    pred_tracks: dict[int, Track] = {}
    pid = 101
    gt_to_pred: dict[int, list[int]] = {}
    split_done = False
    for g, track in sorted(gt.tracks.items()):
        fs = sorted(track.entries)
        if not split_done and len(fs) >= 3 and rng.random() < 0.25:
            cut = int(rng.integers(1, len(fs)))
            pieces = [fs[:cut], fs[cut:]]
            split_done = True
        else:
            pieces = [fs]
        ids = []
        for piece in pieces:
            entries = {}
            for f in piece:
                if rng.random() < 0.12:
                    continue
                x, y, w, h = track.entries[f].box
                x += float(rng.normal(0, 1.5))
                y += float(rng.normal(0, 1.5))
                w = max(2.0, w + float(rng.normal(0, 1.0)))
                h = max(2.0, h + float(rng.normal(0, 1.0)))
                entries[f] = TrackEntry(
                    box=(x, y, w, h),
                    cell_class=CellClass.ALIVE,
                    provenance=Provenance.OBSERVED_HIGH,
                )
            if entries:
                pred_tracks[pid] = Track(track_id=pid, entries=entries)
                ids.append(pid)
                pid += 1
        gt_to_pred[g] = ids

    # Carry division links over when the endpoints survived (sometimes).
    for g, track in sorted(gt.tracks.items()):
        if not track.children or not gt_to_pred.get(g):
            continue
        parent_pid = gt_to_pred[g][-1]
        for child in track.children:
            if not gt_to_pred.get(child) or rng.random() < 0.3:
                continue
            child_pid = gt_to_pred[child][0]
            if pred_tracks[child_pid].parent is not None:
                continue
            pred_tracks[child_pid].parent = parent_pid
            pred_tracks[parent_pid].children.append(child_pid)

    if rng.random() < 0.3 and len(pred_tracks) < 5:
        start = int(rng.integers(0, frames))
        length = int(rng.integers(1, min(4, frames - start) + 1))
        boxes = walk_boxes(length)
        pred_tracks[pid] = Track(
            track_id=pid,
            entries={
                start + i: TrackEntry(
                    box=boxes[i],
                    cell_class=CellClass.ALIVE,
                    provenance=Provenance.OBSERVED_HIGH,
                )
                for i in range(length)
            },
        )
        pid += 1

    pred = LineageForest(
        tracks=pred_tracks,
        meta=VideoMeta(frames=frames, width=200, height=200),
    )
    return gt, pred, frames
