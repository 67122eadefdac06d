"""Batch command line: simulate, track, evaluate, ablate, analyze.

Every command writes a ``manifest.json`` into its output directory
before any other file; the manifest snapshots the effective
configuration, inputs, seed, and tool version, and is enough to repeat
the run byte for byte.

Configuration comes from three layers, later ones winning: built-in
defaults, a flat ``key = value`` config file (``--config``), and
``--set key=value`` flags.  Keys are prefixed by the dataclass they
feed: ``tracker.``, ``sim.``, or ``analysis.`` (for example
``tracker.memory_frames = 5``).  A ``#`` at the start of a line or
after whitespace starts a comment that runs to the end of the line;
any other ``#`` is part of the value (``sim.dosage = 10uM#2``).

Exit codes: 0 success, 2 usage or input problems (including a ground
truth with no objects, on which the scores are undefined), 1 anything
else.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import re
import shutil
import statistics
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from itertools import chain, groupby
from pathlib import Path
from typing import NamedTuple

from . import __version__, metrics
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
from .core import TrackerConfig, ValidationError
from .ingest import (
    DetectionFile,
    load_detections,
    load_forest,
    read_forest,
    save_detections,
    save_forest,
)
from .metrics import UndefinedMetricError, evaluate
from .simulator import SimulationConfig, corrupt, corrupts, simulate
from .tracker import track_video

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE = 2

_SWEEP_MEMORY = tuple(range(0, 16))


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


_COMMENT = re.compile(r"(^|\s)#.*")


def read_config_file(path: str) -> dict[str, str]:
    """The file's ``key = value`` lines as stripped text, comments dropped."""
    values: dict[str, str] = {}
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = _COMMENT.sub("", raw).strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key = value")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


def _merge_settings(
    config_path: str | None, sets: list[str] | None
) -> dict[str, dict[str, object]]:
    """Split prefixed keys into per-section kwargs, validating names."""
    flat: dict[str, str] = {}
    if config_path:
        flat.update(read_config_file(config_path))
    for item in sets or []:
        if "=" not in item:
            raise UsageError(f"--set needs key=value, got {item!r}")
        key, _, value = item.partition("=")
        flat[key.strip()] = value.strip()

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
        types = {f.name: f.type for f in dataclasses.fields(cls)}
        if field not in types:
            raise UsageError(f"unknown config key {key!r}")
        sections[section][field] = (
            value if types[field] == "str" else parse_scalar(value)
        )
    return sections


class Configs(NamedTuple):
    """The effective configuration, one value per section."""

    tracker: TrackerConfig
    sim: SimulationConfig
    analysis: AnalysisFilter


def build_configs(config_path: str | None, sets: list[str] | None) -> Configs:
    sections = _merge_settings(config_path, sets)
    try:
        return Configs(
            **{name: cls(**sections[name]) for name, cls in _SECTIONS.items()}
        )
    except (ValidationError, TypeError) as exc:
        raise UsageError(f"invalid configuration: {exc}") from exc


def write_manifest(
    args: argparse.Namespace,
    configs: Configs,
    inputs: list[str],
    seed: int | None = None,
    extra: dict | None = None,
) -> Path:
    """Create the output directory and record ``args.command``, its inputs
    in the order given (the ``--config`` file last), seed and effective
    configuration in its ``manifest.json``; return the directory.  The
    order matters: ``analyze`` pools a group's forests in it."""
    out = Path(args.out)
    if args.config:
        inputs = [*inputs, args.config]
    manifest = {
        "tool": "celltrack",
        "version": __version__,
        "command": args.command,
        "seed": seed,
        "inputs": inputs,
        "output_dir": str(out),
        "config": {k: dataclasses.asdict(v) for k, v in configs._asdict().items()},
        **(extra or {}),
    }
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
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
    if corrupts(sim_cfg):
        noisy = corrupt(result.clean_frames, sim_cfg)
        save_detections(
            DetectionFile(det.meta, det.embedding_dim, noisy), str(out / "detections.txt")
        )
    else:
        # The clean detections' text, without formatting it again.
        shutil.copyfile(out / "clean.txt", out / "detections.txt")
    return dir_str


def _map_jobs(fn, jobs: list[tuple], workers: int) -> list:
    """``fn(*job)`` for each job, in order; in a pool of ``workers``
    processes when both ``workers`` and the job count exceed 1."""
    if workers > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, *zip(*jobs)))
    return [fn(*job) for job in jobs]


def cmd_simulate(args) -> int:
    configs = build_configs(args.config, args.set)
    if args.seed is not None:
        configs = configs._replace(sim=replace(configs.sim, seed=args.seed))
    sim_cfg = configs.sim
    out = write_manifest(args, configs, [], sim_cfg.seed, {"count": args.count})
    if args.count == 1:
        vid = sim_cfg.video_id or "video_000"
        jobs = [(replace(sim_cfg, video_id=vid), str(out))]
    else:
        names = [f"video_{i:03d}" for i in range(args.count)]
        jobs = [
            (replace(sim_cfg, seed=sim_cfg.seed + i, video_id=name), str(out / name))
            for i, name in enumerate(names)
        ]
    _map_jobs(_simulate_one, jobs, args.workers)
    print(f"simulated {len(jobs)} video(s) -> {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# track


def cmd_track(args) -> int:
    configs = build_configs(args.config, args.set)
    out = write_manifest(args, configs, [args.detections])
    det_file = load_detections(args.detections)
    forest = track_video(det_file.columns, config=configs.tracker, meta=det_file.meta)
    save_forest(forest, str(out / "pred"))
    print(
        f"tracked {args.detections}: {forest.ids.size} tracks -> "
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
    configs = build_configs(args.config, args.set)
    out = write_manifest(args, configs, [args.pred, args.gt])
    pred = metrics.build_graph(read_forest(args.pred, strict=False))
    gt = metrics.build_graph(read_forest(args.gt))
    report = evaluate(pred, gt)
    flat = report.to_flat()
    _write_report(out, flat)
    for name in ("det", "lnk", "tra", "hota", "mota", "idf1"):
        print(f"{name.upper():5s} {flat[name]:.4f}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# ablate


def _ablation_configs(base: TrackerConfig, sweep: bool) -> list:
    """``(kind, label, config)`` of each variant, then of each swept memory."""
    # Raising the low threshold to the high one leaves stage two with
    # nothing to work on.
    no_low = replace(base, tau_low=base.tau_high)
    variants = {
        "full": base,
        "no_low_conf": no_low,
        "no_kalman": replace(base, use_kalman=False),
        "neither": replace(no_low, use_kalman=False),
    }
    configs = [("variant", name, cfg) for name, cfg in variants.items()]
    if sweep:
        configs += [
            ("memory", str(n), replace(base, memory_frames=n)) for n in _SWEEP_MEMORY
        ]
    return configs


def _find_corpus(corpus_dir: str) -> list[Path]:
    root = Path(corpus_dir)
    if not root.is_dir():
        raise UsageError(f"corpus directory {corpus_dir} does not exist")
    if (root / "detections.txt").exists():
        videos = [root]
    else:
        videos = sorted(p for p in root.iterdir() if (p / "detections.txt").exists())
    if not videos:
        raise UsageError(f"no detections.txt under {corpus_dir}")
    for v in videos:
        if not (v / "gt_tracks.txt").exists():
            raise UsageError(f"missing ground truth next to {v}/detections.txt")
    return videos


def _ablate_job(video: Path, configs: list) -> list[tuple]:
    """DET/LNK/TRA rows of each ``(kind, label, config)`` on one video.  The
    configs share one parse, whose columns the tracker only reads.  The
    ground truth is read as columns straight into its graph, and each
    tracked forest's columns are scored as they are.  Scores go through
    ``metrics.`` so that wrappers of that module's globals (the benchmark
    tracer) see them."""
    det_file = load_detections(str(video / "detections.txt"))
    gt_graph = metrics.build_graph(read_forest(str(video / "gt")))
    rows = []
    for kind, label, cfg in configs:
        forest = track_video(det_file.columns, config=cfg, meta=det_file.meta)
        scores = metrics.det_lnk_tra(forest, gt_graph)
        rows.append((kind, label, video.name, scores.det, scores.lnk, scores.tra))
    return rows


def _mean_std(values: tuple[float, ...]) -> tuple[float, float]:
    if len(values) == 1:
        return values[0], 0.0
    return statistics.mean(values), statistics.stdev(values)


def cmd_ablate(args) -> int:
    configs = build_configs(args.config, args.set)
    videos = _find_corpus(args.corpus)
    sweep = list(_SWEEP_MEMORY) if args.sweep else []
    out = write_manifest(
        args, configs, [str(v) for v in videos], extra={"sweep_memory": sweep}
    )
    variants = _ablation_configs(configs.tracker, args.sweep)
    jobs = [(video, variants) for video in videos]
    results = _map_jobs(_ablate_job, jobs, args.workers)
    # (kind, label, video) is unique, so the scores never decide the order.
    rows = sorted(chain.from_iterable(results))
    with open(out / "ablation.csv", "w", encoding="utf-8") as fh:
        fh.write("kind,configuration,video,det,lnk,tra\n")
        for kind, label, video, det, lnk, tra in rows:
            fh.write(
                f"{kind},{label},{video},{det:.6f},{lnk:.6f},{tra:.6f}\n"
            )

    with open(out / "ablation_summary.csv", "w", encoding="utf-8") as fh:
        fh.write(
            "kind,configuration,videos,det_mean,det_std,"
            "lnk_mean,lnk_std,tra_mean,tra_std\n"
        )
        for (kind, label), group in groupby(rows, key=lambda r: r[:2]):
            triples = [r[3:] for r in group]
            (det_m, det_s), (lnk_m, lnk_s), (tra_m, tra_s) = map(
                _mean_std, zip(*triples)
            )
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
    configs = build_configs(args.config, args.set)
    filt = configs.analysis
    out = write_manifest(
        args, configs, args.forests, args.seed, {"sample_size": args.sample_size}
    )
    # A forest's group is its dosage, else its video id, else "all".  Each
    # analysis pools the forests of one group, in command-line order.
    groups: dict[str, list] = {}
    videos: dict[str, str] = {}
    for prefix in args.forests:
        forest = load_forest(prefix, strict=False)
        video = forest.meta.video_id
        if video and video in videos:
            raise ValidationError(
                f"{videos[video]} and {prefix} are both video {video!r}"
            )
        videos[video] = prefix
        groups.setdefault(forest.meta.dosage or video or "all", []).append(forest)
    tables = (
        ("event_rates.csv", write_event_rates_csv, event_rates),
        ("size_inheritance.csv", write_inheritance_csv,
         lambda fs: ancestor_descendant_correlation(fs, filt)),
        ("sister_correlation.csv", write_sister_csv,
         lambda fs: sister_correlation(fs, filt)),
        ("interdivision.csv", write_interdivision_csv,
         lambda fs: summarize_durations(interdivision_records(fs, filt))),
        ("division_profiles.csv", write_profiles_csv,
         lambda fs: sample_profiles(eligible_profiles(fs), args.sample_size, args.seed)),
    )
    for name, write, analyze in tables:
        write(out / name, [(label, analyze(groups[label])) for label in sorted(groups)])
    print(f"analyzed {len(args.forests)} forest(s) -> {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing


def _int_at_least(text: str, low: int) -> int:
    value = int(text)
    if value < low:
        raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
    return value


def positive_int(text: str) -> int:
    """Argparse type of the count flags: an integer >= 1."""
    return _int_at_least(text, 1)


def non_negative_int(text: str) -> int:
    """Argparse type of ``--seed``: an integer >= 0."""
    return _int_at_least(text, 0)


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
        p.add_argument("--workers", type=positive_int, default=1)

    p = sub.add_parser("simulate", help="generate synthetic videos")
    common(p)
    p.add_argument(
        "--count", type=positive_int, default=1, help="number of videos to generate"
    )
    p.add_argument("--seed", type=non_negative_int, default=None, help="video seed")
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
    p.add_argument("--sample-size", type=positive_int, default=300)
    p.add_argument(
        "--seed", type=non_negative_int, default=0, help="profile sampling seed"
    )
    p.set_defaults(func=cmd_analyze)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, ValidationError, UndefinedMetricError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
