"""Batch command line: simulate, track, evaluate, ablate, analyze.

Every command writes a ``manifest.json`` into its output directory
before any other file; the manifest snapshots the effective
configuration, inputs, seed, and tool version, and is enough to repeat
the run byte for byte.

Configuration comes from three layers, later ones winning: built-in
defaults, a flat ``key = value`` config file (``--config``), and
``--set key=value`` flags.  Keys are prefixed by the dataclass they
feed: ``tracker.``, ``sim.``, or ``analysis.`` (for example
``tracker.memory_frames = 5``).  Lines starting with ``#`` are
comments.

Exit codes: 0 success, 2 usage or input problems (including a ground
truth with no objects, on which the scores are undefined), 1 anything
else.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import statistics
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

from . import __version__
from .analysis import (
    AnalysisFilter,
    ancestor_descendant_correlation,
    eligible_profiles,
    event_rates,
    interdivision_records,
    sample_profiles,
    sister_correlation,
    summarize_durations,
    write_event_rates_csv,
    write_inheritance_csv,
    write_interdivision_csv,
    write_profiles_csv,
    write_sister_csv,
)
from .core import LineageForest, TrackerConfig, ValidationError
from .ingest import (
    DetectionFile,
    load_detections,
    load_forest,
    load_ground_truth,
    save_detections,
    save_forest,
)
from .metrics import UndefinedMetricError, evaluate
from .simulator import SimulationConfig, corrupt, simulate
from .tracker import track_video

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE = 2

_SWEEP_MEMORY = tuple(range(0, 16))

_ABLATION_VARIANTS = ("full", "no_low_conf", "no_kalman", "neither")


class UsageError(Exception):
    """Bad flags, bad config keys, unreadable inputs: exit code 2."""


# ---------------------------------------------------------------------------
# Configuration plumbing

_SECTIONS = {
    "tracker": TrackerConfig,
    "sim": SimulationConfig,
    "analysis": AnalysisFilter,
}


def parse_scalar(text: str):
    """Turn a config-file token into bool/None/int/float/str."""
    t = text.strip()
    low = t.lower()
    if low == "true":
        return True
    if low == "false":
        return False
    if low in ("none", "null"):
        return None
    try:
        return int(t)
    except ValueError:
        pass
    try:
        return float(t)
    except ValueError:
        pass
    return t


def read_config_file(path: str) -> dict[str, object]:
    values: dict[str, object] = {}
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key = value")
        key, _, value = line.partition("=")
        values[key.strip()] = parse_scalar(value)
    return values


def _merge_settings(
    config_path: str | None, sets: list[str] | None
) -> dict[str, dict[str, object]]:
    """Split prefixed keys into per-section kwargs, validating names."""
    flat: dict[str, object] = {}
    if config_path:
        flat.update(read_config_file(config_path))
    for item in sets or []:
        if "=" not in item:
            raise UsageError(f"--set needs key=value, got {item!r}")
        key, _, value = item.partition("=")
        flat[key.strip()] = parse_scalar(value)

    sections: dict[str, dict[str, object]] = {
        name: {} for name in _SECTIONS
    }
    for key, value in flat.items():
        if "." not in key:
            raise UsageError(
                f"config key {key!r} needs a section prefix "
                f"({'/'.join(_SECTIONS)})"
            )
        section, _, field = key.partition(".")
        cls = _SECTIONS.get(section)
        if cls is None:
            raise UsageError(f"unknown config section {section!r} in {key!r}")
        names = {f.name for f in dataclasses.fields(cls)}
        if field not in names:
            raise UsageError(f"unknown config key {key!r}")
        sections[section][field] = value
    return sections


def build_configs(
    config_path: str | None, sets: list[str] | None
) -> tuple[TrackerConfig, SimulationConfig, AnalysisFilter]:
    sections = _merge_settings(config_path, sets)
    try:
        return (
            TrackerConfig(**sections["tracker"]),
            SimulationConfig(**sections["sim"]),
            AnalysisFilter(**sections["analysis"]),
        )
    except (ValidationError, TypeError) as exc:
        raise UsageError(f"invalid configuration: {exc}") from exc


def write_manifest(
    out_dir: Path,
    command: str,
    inputs: list[str],
    seed: int | None,
    tracker_cfg: TrackerConfig,
    sim_cfg: SimulationConfig,
    analysis_cfg: AnalysisFilter,
    extra: dict | None = None,
) -> None:
    manifest = {
        "tool": "celltrack",
        "version": __version__,
        "command": command,
        "seed": seed,
        "inputs": sorted(inputs),
        "output_dir": str(out_dir),
        "config": {
            "tracker": dataclasses.asdict(tracker_cfg),
            "sim": dataclasses.asdict(sim_cfg),
            "analysis": dataclasses.asdict(analysis_cfg),
        },
    }
    if extra:
        manifest.update(extra)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# simulate


def _simulate_one(sim_cfg: SimulationConfig, dir_str: str) -> str:
    out = Path(dir_str)
    out.mkdir(parents=True, exist_ok=True)
    result = simulate(sim_cfg)
    save_forest(result.ground_truth, str(out / "gt"))
    det = DetectionFile(
        meta=result.ground_truth.meta,
        embedding_dim=sim_cfg.embedding_dim,
        frames=result.clean_frames,
    )
    save_detections(det, str(out / "clean.txt"))
    noisy = DetectionFile(
        meta=result.ground_truth.meta,
        embedding_dim=sim_cfg.embedding_dim,
        frames=corrupt(result.clean_frames, sim_cfg),
    )
    save_detections(noisy, str(out / "detections.txt"))
    return dir_str


def cmd_simulate(args) -> int:
    tracker_cfg, sim_cfg, analysis_cfg = build_configs(args.config, args.set)
    if args.seed is not None:
        sim_cfg = replace(sim_cfg, seed=args.seed)
    out = _out_dir(args)
    write_manifest(
        out,
        "simulate",
        [args.config] if args.config else [],
        sim_cfg.seed,
        tracker_cfg,
        sim_cfg,
        analysis_cfg,
        extra={"count": args.count},
    )
    jobs: list[tuple[SimulationConfig, str]] = []
    if args.count == 1:
        vid = sim_cfg.video_id or "video_000"
        jobs.append((replace(sim_cfg, video_id=vid), str(out)))
    else:
        for i in range(args.count):
            name = f"video_{i:03d}"
            jobs.append(
                (
                    replace(sim_cfg, seed=sim_cfg.seed + i, video_id=name),
                    str(out / name),
                )
            )
    if args.workers > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=args.workers) as pool:
            list(pool.map(_simulate_one, *zip(*jobs)))
    else:
        for cfg, d in jobs:
            _simulate_one(cfg, d)
    print(f"simulated {len(jobs)} video(s) -> {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# track


def _track_file(
    detections_path: str, tracker_cfg: TrackerConfig, out_prefix: str
) -> LineageForest:
    det_file = load_detections(detections_path)
    forest = track_video(det_file.frames, config=tracker_cfg, meta=det_file.meta)
    save_forest(forest, out_prefix)
    return forest


def cmd_track(args) -> int:
    tracker_cfg, sim_cfg, analysis_cfg = build_configs(args.config, args.set)
    out = _out_dir(args)
    write_manifest(
        out,
        "track",
        [args.detections] + ([args.config] if args.config else []),
        None,
        tracker_cfg,
        sim_cfg,
        analysis_cfg,
    )
    forest = _track_file(args.detections, tracker_cfg, str(out / "pred"))
    print(
        f"tracked {args.detections}: {len(forest.tracks)} tracks -> "
        f"{out / 'pred_tracks.txt'}"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# evaluate


def _write_report(out: Path, flat: dict[str, float]) -> None:
    with open(out / "metrics.json", "w", encoding="utf-8") as fh:
        json.dump(flat, fh, indent=2, sort_keys=True)
        fh.write("\n")
    width = max(len(k) for k in flat)
    lines = [f"{k.ljust(width)}  {flat[k]:.6f}" for k in sorted(flat)]
    (out / "metrics.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")


def cmd_evaluate(args) -> int:
    tracker_cfg, sim_cfg, analysis_cfg = build_configs(args.config, args.set)
    out = _out_dir(args)
    write_manifest(
        out,
        "evaluate",
        [args.pred, args.gt],
        None,
        tracker_cfg,
        sim_cfg,
        analysis_cfg,
    )
    pred = load_forest(args.pred, strict=False)
    gt = load_ground_truth(args.gt)
    report = evaluate(pred, gt)
    flat = report.to_flat()
    _write_report(out, flat)
    for name in ("det", "lnk", "tra", "hota", "mota", "idf1"):
        print(f"{name.upper():5s} {flat[name]:.4f}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# ablate


def _variant_config(base: TrackerConfig, name: str) -> TrackerConfig:
    if name == "full":
        return base
    if name == "no_low_conf":
        # Raising the low threshold to the high one leaves stage two
        # with nothing to work on.
        return replace(base, tau_low=base.tau_high)
    if name == "no_kalman":
        return replace(base, use_kalman=False)
    if name == "neither":
        return replace(base, tau_low=base.tau_high, use_kalman=False)
    raise ValueError(f"unknown variant {name!r}")


def _find_corpus(corpus_dir: str) -> list[Path]:
    root = Path(corpus_dir)
    if not root.is_dir():
        raise UsageError(f"corpus directory {corpus_dir} does not exist")
    if (root / "detections.txt").exists():
        return [root]
    videos = sorted(
        p for p in root.iterdir() if (p / "detections.txt").exists()
    )
    if not videos:
        raise UsageError(f"no detections.txt under {corpus_dir}")
    for v in videos:
        if not (v / "gt_tracks.txt").exists():
            raise UsageError(f"missing ground truth next to {v}/detections.txt")
    return videos


def _score_video(
    video_dir: str, cfg: TrackerConfig
) -> tuple[float, float, float]:
    det_file = load_detections(str(Path(video_dir) / "detections.txt"))
    forest = track_video(det_file.frames, config=cfg, meta=det_file.meta)
    gt = load_ground_truth(str(Path(video_dir) / "gt"))
    report = evaluate(forest, gt)
    return report.det, report.lnk, report.tra


def _ablate_job(job: tuple[str, str, str, TrackerConfig]):
    kind, label, video_dir, cfg = job
    det, lnk, tra = _score_video(video_dir, cfg)
    return kind, label, Path(video_dir).name, det, lnk, tra


def _mean_std(values: list[float]) -> tuple[float, float]:
    if len(values) == 1:
        return values[0], 0.0
    return statistics.mean(values), statistics.stdev(values)


def cmd_ablate(args) -> int:
    tracker_cfg, sim_cfg, analysis_cfg = build_configs(args.config, args.set)
    videos = _find_corpus(args.corpus)
    out = _out_dir(args)
    write_manifest(
        out,
        "ablate",
        [str(v) for v in videos] + ([args.config] if args.config else []),
        None,
        tracker_cfg,
        sim_cfg,
        analysis_cfg,
        extra={"sweep_memory": list(_SWEEP_MEMORY) if args.sweep else []},
    )

    jobs: list[tuple[str, str, str, TrackerConfig]] = []
    for name in _ABLATION_VARIANTS:
        cfg = _variant_config(tracker_cfg, name)
        for v in videos:
            jobs.append(("variant", name, str(v), cfg))
    if args.sweep:
        for n in _SWEEP_MEMORY:
            cfg = replace(tracker_cfg, memory_frames=n)
            for v in videos:
                jobs.append(("memory", str(n), str(v), cfg))

    if args.workers > 1:
        with ProcessPoolExecutor(max_workers=args.workers) as pool:
            results = list(pool.map(_ablate_job, jobs))
    else:
        results = [_ablate_job(j) for j in jobs]

    rows = sorted(results, key=lambda r: (r[0], r[1], r[2]))
    with open(out / "ablation.csv", "w", encoding="utf-8") as fh:
        fh.write("kind,configuration,video,det,lnk,tra\n")
        for kind, label, video, det, lnk, tra in rows:
            fh.write(
                f"{kind},{label},{video},{det:.6f},{lnk:.6f},{tra:.6f}\n"
            )

    summary: dict[tuple[str, str], list[tuple[float, float, float]]] = {}
    for kind, label, _video, det, lnk, tra in rows:
        summary.setdefault((kind, label), []).append((det, lnk, tra))
    with open(out / "ablation_summary.csv", "w", encoding="utf-8") as fh:
        fh.write(
            "kind,configuration,videos,det_mean,det_std,"
            "lnk_mean,lnk_std,tra_mean,tra_std\n"
        )
        for (kind, label), triples in sorted(summary.items()):
            det_m, det_s = _mean_std([t[0] for t in triples])
            lnk_m, lnk_s = _mean_std([t[1] for t in triples])
            tra_m, tra_s = _mean_std([t[2] for t in triples])
            fh.write(
                f"{kind},{label},{len(triples)},{det_m:.6f},{det_s:.6f},"
                f"{lnk_m:.6f},{lnk_s:.6f},{tra_m:.6f},{tra_s:.6f}\n"
            )
            if kind == "variant":
                print(
                    f"{label:12s} TRA {tra_m:.4f} ± {tra_s:.4f} "
                    f"(DET {det_m:.4f}, LNK {lnk_m:.4f})"
                )
    return EXIT_OK


# ---------------------------------------------------------------------------
# analyze


def cmd_analyze(args) -> int:
    tracker_cfg, sim_cfg, analysis_cfg = build_configs(args.config, args.set)
    out = _out_dir(args)
    write_manifest(
        out,
        "analyze",
        list(args.forests),
        args.seed,
        tracker_cfg,
        sim_cfg,
        analysis_cfg,
        extra={"sample_size": args.sample_size},
    )
    forests = [load_forest(prefix, strict=False) for prefix in args.forests]

    def label(forest: LineageForest) -> str:
        meta = forest.meta
        return meta.dosage or meta.video_id or "all"

    rate_groups = [(label(f), event_rates(f)) for f in forests]
    write_event_rates_csv(out / "event_rates.csv", rate_groups)

    inh_groups = [
        (label(f), ancestor_descendant_correlation(f, analysis_cfg))
        for f in forests
    ]
    write_inheritance_csv(out / "size_inheritance.csv", inh_groups)

    sis_groups = [
        (label(f), sister_correlation(f, analysis_cfg)) for f in forests
    ]
    write_sister_csv(out / "sister_correlation.csv", sis_groups)

    records = []
    for f in forests:
        records.extend(interdivision_records(f, analysis_cfg))
    write_interdivision_csv(
        out / "interdivision.csv", summarize_durations(records)
    )

    pooled: dict[str, list] = {}
    for f in forests:
        pooled.setdefault(label(f), []).extend(eligible_profiles(f))
    seed = args.seed if args.seed is not None else 0
    profile_groups = [
        (key, sample_profiles(pooled[key], args.sample_size, seed))
        for key in sorted(pooled)
    ]
    write_profiles_csv(out / "division_profiles.csv", profile_groups)
    print(f"analyzed {len(forests)} forest(s) -> {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="celltrack",
        description="Lineage tracking of live-cell detections: "
        "simulate, track, evaluate, ablate, analyze.",
    )
    parser.add_argument(
        "--version", action="version", version=f"celltrack {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument(
            "--set",
            action="append",
            metavar="KEY=VALUE",
            help="override one config key (repeatable)",
        )
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--workers", type=int, default=1)

    p = sub.add_parser("simulate", help="generate synthetic videos")
    common(p)
    p.add_argument(
        "--count", type=int, default=1, help="number of videos to generate"
    )
    p.add_argument("--seed", type=int, default=None, help="video seed")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("track", help="run the tracker on a detection file")
    common(p)
    p.add_argument("detections", help="detection file path")
    p.set_defaults(func=cmd_track)

    p = sub.add_parser("evaluate", help="score a prediction against truth")
    common(p)
    p.add_argument("pred", help="prediction forest prefix")
    p.add_argument("gt", help="ground-truth forest prefix")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("ablate", help="run ablations over a corpus")
    common(p)
    p.add_argument("corpus", help="directory of simulated videos")
    p.add_argument(
        "--no-sweep",
        dest="sweep",
        action="store_false",
        help="skip the memory-length sweep",
    )
    p.set_defaults(func=cmd_ablate, sweep=True)

    p = sub.add_parser("analyze", help="lineage analyses over forests")
    common(p)
    p.add_argument("forests", nargs="+", help="forest file prefixes")
    p.add_argument("--sample-size", type=int, default=300)
    p.add_argument("--seed", type=int, default=None, help="profile sampling seed")
    p.set_defaults(func=cmd_analyze)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (
        ValidationError, UndefinedMetricError, FileNotFoundError, OSError
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
