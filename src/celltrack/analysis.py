"""Population-level readouts of lineage forests.

Five analyses, each a pure function of one group of forests (the
videos of one dosage, say) and a filter, pooled over the group:

* division/death rates over time, binned and normalized by population;
* cell-size inheritance (ancestor vs. descendant Pearson correlations);
* sister-cell size synchrony over their shared frames;
* interdivision durations by generation;
* per-lineage event timelines, for stratified subsampling.

Cell size is box area (w*h).  Correlations use each track's mean
observed size.  Generations count from 0 at the roots.  All outputs
are plain data; CSV writers live at the bottom.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from typing import Iterable, Sequence

import numpy as np

from .core import (
    CellClass,
    EndReason,
    LineageForest,
    Track,
    ValidationError,
    check_field_types,
)

__all__ = [
    "AnalysisFilter",
    "EventRates",
    "CorrelationStat",
    "InheritanceReport",
    "SisterPair",
    "InterdivisionRecord",
    "DurationStats",
    "DivisionProfile",
    "eligible_profiles",
    "sample_profiles",
    "generation_index",
    "event_rates",
    "cell_size_series",
    "track_mean_size",
    "pearson",
    "ancestor_descendant_correlation",
    "sister_correlation",
    "interdivision_records",
    "summarize_durations",
    "write_event_rates_csv",
    "write_inheritance_csv",
    "write_sister_csv",
    "write_interdivision_csv",
    "write_profiles_csv",
]


@dataclass(frozen=True)
class AnalysisFilter:
    """Shared eligibility thresholds for the lineage analyses."""

    min_track_frames: int = 10
    max_generation: int = 5
    max_interdivision_frames: int = 100

    def __post_init__(self) -> None:
        check_field_types(self)
        for name in (
            "min_track_frames",
            "max_generation",
            "max_interdivision_frames",
        ):
            if getattr(self, name) <= 0:
                raise ValidationError(f"{name} must be positive")


def generation_index(forest: LineageForest) -> dict[int, int]:
    """Map track id -> generation; roots are generation 0.

    Iterative, so lineages of any depth work; ancestors are numbered
    before their descendants.
    """
    gens: dict[int, int] = {}
    for tid in forest.tracks:
        chain: list[int] = []
        cur: int | None = tid
        while cur is not None and cur not in gens:
            if len(chain) == len(forest.tracks):
                raise ValidationError(f"lineage cycle through track {cur}")
            chain.append(cur)
            cur = forest.tracks[cur].parent
        g = -1 if cur is None else gens[cur]
        for t in reversed(chain):
            g += 1
            gens[t] = g
    return gens


# ---------------------------------------------------------------------------
# Event rates


@dataclass(frozen=True)
class EventRates:
    """Binned division/death counts and rates plus the population curve,
    summed over a group of forests, over every frame the longest of them
    declares (``meta.frames``).

    ``population[f]`` counts tracks whose span covers frame ``f``;
    ``alive[f]`` counts tracks with an alive-class entry at ``f``.
    ``mean_alive[b]`` is the mean of ``alive`` over bin ``b``'s frames
    (the last bin may be shorter).  Rates divide the per-bin event
    count by it (0.0 when the bin is empty of cells).
    """

    bin_size: int
    bin_starts: tuple[int, ...]
    divisions: tuple[int, ...]
    deaths: tuple[int, ...]
    division_rate: tuple[float, ...]
    death_rate: tuple[float, ...]
    population: tuple[int, ...]
    alive: tuple[int, ...]
    mean_alive: tuple[float, ...]


def event_rates(
    forests: Sequence[LineageForest], bin_size: int = 10
) -> EventRates:
    if bin_size <= 0:
        raise ValidationError("bin_size must be positive")
    tracks = [t for forest in forests for t in forest.tracks.values()]
    n_frames = max((forest.meta.frames for forest in forests), default=0)
    population = np.zeros(n_frames, dtype=int)
    for track in tracks:
        population[track.start_frame : track.last_frame + 1] += 1
    alive_frames = [
        frame
        for track in tracks
        for frame, entry in track.entries.items()
        if entry.cell_class is CellClass.ALIVE
    ]
    alive = np.bincount(np.array(alive_frames, dtype=int), minlength=n_frames)
    starts = np.arange(0, n_frames, bin_size)
    mean_alive = np.add.reduceat(alive, starts) / np.diff(starts, append=n_frames)

    def per_bin(frames: list[int]) -> np.ndarray:
        return np.bincount(
            np.array(frames, dtype=int) // bin_size, minlength=starts.size
        )

    def rate(counts: np.ndarray) -> tuple[float, ...]:
        out = np.zeros(starts.size)
        np.divide(counts, mean_alive, out=out, where=mean_alive > 0)
        return tuple(out.tolist())

    # One division event, placed where the daughters appear.
    divisions = per_bin(
        [
            t.last_frame + 1
            for forest in forests
            for t in forest.tracks.values()
            if t.children and t.last_frame + 1 < forest.meta.frames
        ]
    )
    deaths = per_bin(
        [f for t in tracks if (f := t.death_event_frame()) is not None]
    )
    return EventRates(
        bin_size=bin_size,
        bin_starts=tuple(starts.tolist()),
        divisions=tuple(divisions.tolist()),
        deaths=tuple(deaths.tolist()),
        division_rate=rate(divisions),
        death_rate=rate(deaths),
        population=tuple(population.tolist()),
        alive=tuple(alive.tolist()),
        mean_alive=tuple(mean_alive.tolist()),
    )


# ---------------------------------------------------------------------------
# Size series and correlations


def cell_size_series(track: Track) -> tuple[tuple[int, ...], tuple[float, ...]]:
    """(frames, w*h) over the track's observed entries, in frame order.

    Interpolated entries carry no measured box and are skipped.
    """
    frames = track.observed_frames()
    boxes = [track.entries[f].box for f in frames]
    return tuple(frames), tuple(box[2] * box[3] for box in boxes)


def track_mean_size(track: Track) -> float | None:
    _, sizes = cell_size_series(track)
    return float(np.mean(sizes)) if sizes else None


def pearson(x: Sequence[float], y: Sequence[float]) -> float | None:
    """Pearson correlation, or None when it is undefined.

    Undefined means fewer than two points or zero variance on either
    side; callers drop such pairs rather than inventing a value.
    """
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    if xa.shape != ya.shape:
        raise ValidationError("series must have equal length")
    if xa.size < 2:
        return None
    xd = xa - xa.mean()
    yd = ya - ya.mean()
    denom = float(np.sqrt(np.dot(xd, xd)) * np.sqrt(np.dot(yd, yd)))
    if denom == 0.0:
        return None
    return float(np.dot(xd, yd) / denom)


@dataclass(frozen=True)
class CorrelationStat:
    n: int
    r: float


@dataclass(frozen=True)
class InheritanceReport:
    """Size correlations between ancestors (generation >= 1) and descendants.

    ``by_pair`` keys are (ancestor_generation, descendant_generation);
    ``by_gap`` pools every pair with the same generation distance.
    Cells with undefined correlations are omitted.
    """

    by_pair: dict[tuple[int, int], CorrelationStat]
    by_gap: dict[int, CorrelationStat]


def _correlations(values: dict) -> dict:
    """``CorrelationStat`` of each key's (x, y) pairs, in key order; keys
    whose correlation is undefined are left out."""
    out = {}
    for key in sorted(values):
        r = pearson(*zip(*values[key]))
        if r is not None:
            out[key] = CorrelationStat(n=len(values[key]), r=r)
    return out


def ancestor_descendant_correlation(
    forests: Sequence[LineageForest], filt: AnalysisFilter | None = None
) -> InheritanceReport:
    """Correlations over the (ancestor, descendant) pairs of every forest."""
    filt = filt or AnalysisFilter()
    pair_values: dict[tuple[int, int], list[tuple[float, float]]] = {}
    for forest in forests:
        gens = generation_index(forest)
        sizes: dict[int, float] = {}
        for tid, track in forest.tracks.items():
            if track.span() < filt.min_track_frames:
                continue
            s = track_mean_size(track)
            if s is not None:
                sizes[tid] = s

        # One walk up each descendant's parent chain; generations fall by
        # one per step, so each ancestor generation is met once.
        for tid, size in sizes.items():
            g = gens[tid]
            if g > filt.max_generation:
                continue
            anc = forest.tracks[tid].parent
            while anc is not None and gens[anc] >= 1:
                if anc in sizes:
                    pair_values.setdefault((gens[anc], g), []).append(
                        (sizes[anc], size)
                    )
                anc = forest.tracks[anc].parent

    gap_values: dict[int, list[tuple[float, float]]] = {}
    for (anc_gen, g), pairs in sorted(pair_values.items()):
        gap_values.setdefault(g - anc_gen, []).extend(pairs)
    return InheritanceReport(
        by_pair=_correlations(pair_values), by_gap=_correlations(gap_values)
    )


@dataclass(frozen=True)
class SisterPair:
    generation: int
    track_a: int
    track_b: int
    overlap: int
    r: float
    video: str


def sister_correlation(
    forests: Sequence[LineageForest], filt: AnalysisFilter | None = None
) -> list[SisterPair]:
    """Per sister pair, the Pearson r of box area over shared frames.

    Pairs where either sister fails the length filter, the overlap is
    under two frames, or the correlation is undefined are skipped.
    Pairs come forest by forest, each tagged with its video id.
    """
    filt = filt or AnalysisFilter()
    out: list[SisterPair] = []
    for forest in forests:
        gens = generation_index(forest)
        for tid in sorted(forest.tracks):
            track = forest.tracks[tid]
            if len(track.children) != 2:
                continue
            a, b = sorted(track.children)
            ta, tb = forest.tracks[a], forest.tracks[b]
            if min(ta.span(), tb.span()) < filt.min_track_frames:
                continue
            da = dict(zip(*cell_size_series(ta)))
            db = dict(zip(*cell_size_series(tb)))
            common = sorted(da.keys() & db.keys())
            if len(common) < 2:
                continue
            r = pearson([da[f] for f in common], [db[f] for f in common])
            if r is not None:
                out.append(
                    SisterPair(gens[a], a, b, len(common), r, forest.meta.video_id)
                )
    return out


# ---------------------------------------------------------------------------
# Interdivision durations


@dataclass(frozen=True)
class InterdivisionRecord:
    generation: int
    track_id: int
    duration: int


@dataclass(frozen=True)
class DurationStats:
    n: int
    mean: float
    median: float


def interdivision_records(
    forests: Sequence[LineageForest], filt: AnalysisFilter | None = None
) -> list[InterdivisionRecord]:
    """Durations of full division cycles: born by division, ends dividing.

    Duration is the inclusive frame span; cycles longer than the
    filter's cap are dropped as likely tracking artifacts.
    """
    filt = filt or AnalysisFilter()
    out: list[InterdivisionRecord] = []
    for forest in forests:
        gens = generation_index(forest)
        for tid in sorted(forest.tracks):
            track = forest.tracks[tid]
            if track.parent is None or not track.children:
                continue
            duration = track.span()
            if duration <= filt.max_interdivision_frames:
                out.append(InterdivisionRecord(gens[tid], tid, duration))
    return out


def summarize_durations(
    records: Iterable[InterdivisionRecord],
) -> dict[int, DurationStats]:
    """Duration statistics per generation, in generation order."""
    grouped: dict[int, list[int]] = {}
    for rec in records:
        grouped.setdefault(rec.generation, []).append(rec.duration)
    return {
        gen: DurationStats(len(vals), float(np.mean(vals)), float(median(vals)))
        for gen, vals in sorted(grouped.items())
    }


# ---------------------------------------------------------------------------
# Division profiles


@dataclass(frozen=True)
class DivisionProfile:
    """One lineage line from a root to a leaf, as an event timeline.

    ``events`` is ordered (frame, kind) with kind in
    {"division", "death", "censored"}; the terminal event is always
    last.  ``divisions`` counts the division events.
    """

    tracks: tuple[int, ...]
    events: tuple[tuple[int, str], ...]
    video: str = ""

    @property
    def divisions(self) -> int:
        return sum(1 for _, kind in self.events if kind == "division")


def _leaf_paths(forest: LineageForest) -> list[list[int]]:
    """Root-to-leaf id paths, depth first with roots and children sorted."""
    paths: list[list[int]] = []
    roots = sorted((t.track_id for t in forest.roots()), reverse=True)
    stack = [[root] for root in roots]
    while stack:
        path = stack.pop()
        if len(path) > len(forest.tracks):
            raise ValidationError(f"lineage cycle through track {path[-1]}")
        children = forest.tracks[path[-1]].children
        if children:
            stack.extend(path + [c] for c in sorted(children, reverse=True))
        else:
            paths.append(path)
    return paths


def eligible_profiles(forests: Sequence[LineageForest]) -> list[DivisionProfile]:
    """All root-to-leaf timelines that end in death or at the video end,
    forest by forest.

    Lineage lines whose final track was simply lost are not eligible:
    the line was not followed to a real outcome.
    """
    profiles: list[DivisionProfile] = []
    for forest in forests:
        for path in _leaf_paths(forest):
            leaf = forest.tracks[path[-1]]
            if leaf.end_reason not in (EndReason.DEATH, EndReason.END_OF_VIDEO):
                continue
            events = [(forest.tracks[t].last_frame, "division") for t in path[:-1]]
            death = leaf.death_event_frame()
            if death is not None:
                events.append((death, "death"))
            else:
                events.append((leaf.last_frame, "censored"))
            profiles.append(
                DivisionProfile(tuple(path), tuple(events), forest.meta.video_id)
            )
    return profiles


def sample_profiles(
    profiles: list[DivisionProfile], sample_size: int, seed: int = 0
) -> list[DivisionProfile]:
    """Stratified subsample preserving the division-count histogram.

    Proportional allocation per division count with largest-remainder
    rounding (each stratum lands within one of its exact quota), then a
    uniform draw inside each stratum.  Deterministic for a fixed seed;
    returns the input unchanged when it is already small enough.
    """
    if sample_size <= 0:
        raise ValidationError("sample_size must be positive")
    if len(profiles) <= sample_size:
        return list(profiles)

    strata: dict[int, list[DivisionProfile]] = {}
    for prof in profiles:
        strata.setdefault(prof.divisions, []).append(prof)
    total = len(profiles)
    keys = sorted(strata)
    quotas = {k: sample_size * len(strata[k]) / total for k in keys}
    counts = {k: int(quotas[k]) for k in keys}
    short = sample_size - sum(counts.values())
    # Hand the leftover slots to the largest fractional remainders.
    for k in sorted(
        keys, key=lambda k: (-(quotas[k] - counts[k]), k)
    )[:short]:
        counts[k] += 1

    rng = np.random.default_rng(seed)
    sampled: list[DivisionProfile] = []
    for k in keys:
        members = strata[k]
        take = counts[k]
        if take >= len(members):
            sampled.extend(members)
            continue
        idx = rng.choice(len(members), size=take, replace=False)
        sampled.extend(members[i] for i in sorted(idx))
    return sampled


# ---------------------------------------------------------------------------
# CSV output


def _write_csv(path: str | Path, header: list[str], rows: Iterable) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def write_event_rates_csv(
    path: str | Path, groups: Sequence[tuple[str, EventRates]]
) -> None:
    """One row per (group, bin); the last bin ends at the last frame."""
    _write_csv(
        path,
        [
            "group",
            "bin_start",
            "bin_end",
            "divisions",
            "deaths",
            "division_rate",
            "death_rate",
            "mean_alive",
        ],
        (
            [
                label,
                start,
                min(start + rates.bin_size, len(rates.population)) - 1,
                rates.divisions[i],
                rates.deaths[i],
                f"{rates.division_rate[i]:.6f}",
                f"{rates.death_rate[i]:.6f}",
                f"{rates.mean_alive[i]:.3f}",
            ]
            for label, rates in groups
            for i, start in enumerate(rates.bin_starts)
        ),
    )


def write_inheritance_csv(
    path: str | Path, groups: Sequence[tuple[str, InheritanceReport]]
) -> None:
    rows = []
    for label, report in groups:
        for (anc, desc), stat in sorted(report.by_pair.items()):
            rows.append(
                [label, "pair", anc, desc, desc - anc, stat.n, f"{stat.r:.6f}"]
            )
        for gap, stat in sorted(report.by_gap.items()):
            rows.append([label, "gap", "", "", gap, stat.n, f"{stat.r:.6f}"])
    _write_csv(
        path,
        [
            "group",
            "kind",
            "ancestor_generation",
            "descendant_generation",
            "generation_gap",
            "pairs",
            "pearson_r",
        ],
        rows,
    )


def write_sister_csv(
    path: str | Path, groups: Sequence[tuple[str, list[SisterPair]]]
) -> None:
    _write_csv(
        path,
        [
            "group",
            "video",
            "generation",
            "track_a",
            "track_b",
            "overlap_frames",
            "pearson_r",
        ],
        (
            [label, p.video, p.generation, p.track_a, p.track_b, p.overlap,
             f"{p.r:.6f}"]
            for label, pairs in groups
            for p in pairs
        ),
    )


def write_interdivision_csv(
    path: str | Path, groups: Sequence[tuple[str, dict[int, DurationStats]]]
) -> None:
    _write_csv(
        path,
        ["group", "generation", "cycles", "mean_frames", "median_frames"],
        (
            [label, gen, stat.n, f"{stat.mean:.3f}", f"{stat.median:.3f}"]
            for label, stats in groups
            for gen, stat in stats.items()
        ),
    )


def write_profiles_csv(
    path: str | Path, groups: Sequence[tuple[str, list[DivisionProfile]]]
) -> None:
    """Long format: one row per event of each sampled lineage line."""
    _write_csv(
        path,
        [
            "group",
            "video",
            "profile",
            "root_track",
            "leaf_track",
            "divisions",
            "event_index",
            "frame",
            "kind",
        ],
        (
            [
                label,
                prof.video,
                i,
                prof.tracks[0],
                prof.tracks[-1],
                prof.divisions,
                j,
                frame,
                kind,
            ]
            for label, profiles in groups
            for i, prof in enumerate(profiles)
            for j, (frame, kind) in enumerate(prof.events)
        ),
    )
