"""The benchmark's workloads: inputs, timed CLI commands and output checks.

Every workload drives ``celltrack.cli.main(argv)`` in-process with
``--workers 1``.  Inputs come from the workload seed only: a run with
seed ``s`` simulates ``videos`` videos with ``sim.seed = s * videos + i``
(``simulate --count`` adds ``i``), so runs with different seeds share no
video.  Several short videos per workload keep the amount of work nearly
the same from seed to seed; one 234-frame video varies by about 14 %
(quartile spread of its detection count over 20 seeds), which would
swamp the timing bounds.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path

NOISE = (
    "sim.box_jitter_sigma=2",
    "sim.drop_prob=0.1",
    "sim.false_positive_rate=0.5",
    "sim.embedding_noise_sigma=1.4",
    "sim.death_prob=0.01",
)

SCORES = ("det", "lnk", "tra", "hota", "mota", "idf1")
ABLATION_VARIANTS = ("full", "no_low_conf", "no_kalman", "neither")
ANALYSIS_FILES = (
    "event_rates.csv",
    "size_inheritance.csv",
    "sister_correlation.csv",
    "interdivision.csv",
    "division_profiles.csv",
)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    videos: int
    sim: tuple[str, ...]
    tiny: tuple[str, ...]  # overrides for the self-test
    detections: str = "detections.txt"
    ablate: bool = False
    perfect: bool = False  # every score must be exactly 1.0


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "identity",
            "clean detections at the criterion-1 geometry: stage 1 only, one "
            "single-row Kalman update per match, no gap fill, every score exactly 1.0",
            videos=2,
            sim=("sim.frames=45", "sim.initial_cells=55", "sim.death_prob=0.01",
                 "sim.treatment_frame=22"),
            tiny=("sim.frames=12", "sim.initial_cells=12", "sim.treatment_frame=6"),
            detections="clean.txt",
            perfect=True,
        ),
        Workload(
            "noisy",
            "README noise: stage-2 matching, memory bank, gap interpolation, "
            "false-positive births and multi-pair IoU components; ingest writes and reads the noisy files",
            videos=2,
            sim=("sim.frames=45", "sim.initial_cells=60", "sim.treatment_frame=22")
            + NOISE,
            tiny=("sim.frames=15", "sim.initial_cells=12", "sim.treatment_frame=7"),
        ),
        Workload(
            "dense",
            "800 cells on 2048x2048 with README noise: ~800x800 IoU matrices and "
            "~240k gating pairs per call, so per-pair work outweighs per-call overhead",
            videos=1,
            sim=("sim.frames=5", "sim.initial_cells=800", "sim.width=2048",
                 "sim.height=2048", "sim.treatment_frame=2") + NOISE,
            tiny=("sim.frames=3", "sim.initial_cells=150", "sim.treatment_frame=1"),
        ),
        Workload(
            "ablate",
            "4-video noisy corpus: the ablate job loop (16 jobs, each video parsed "
            "4 times), no-Kalman and no-stage-2 tracker paths, and analyze",
            videos=4,
            sim=("sim.frames=32", "sim.initial_cells=40", "sim.treatment_frame=16")
            + NOISE,
            tiny=("sim.frames=12", "sim.initial_cells=8", "sim.treatment_frame=6"),
            ablate=True,
        ),
    )
}


class CheckFailed(Exception):
    """An output of a command is missing, malformed or wrong."""


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _existing(*paths: Path) -> list[Path]:
    for p in paths:
        if not p.is_file() or p.stat().st_size == 0:
            raise CheckFailed(f"missing output {p}")
    return list(paths)


def video_dirs(sim_dir: Path, count: int) -> list[Path]:
    if count == 1:
        return [sim_dir]
    return [sim_dir / f"video_{i:03d}" for i in range(count)]


def simulate_argv(w: Workload, seed: int, out: Path, tiny: bool) -> list[str]:
    argv = ["simulate", "--out", str(out), "--count", str(w.videos),
            "--seed", str(seed * w.videos), "--workers", "1"]
    for item in w.sim + (w.tiny if tiny else ()):
        argv += ["--set", item]
    return argv


def check_simulate(sim_dir: Path, count: int) -> list[Path]:
    """Every video has its ground truth and both detection files."""
    hashed = []
    for v in video_dirs(sim_dir, count):
        _existing(v / "clean.txt", v / "detections.txt")
        hashed += _existing(v / "gt_tracks.txt", v / "gt_entries.txt")
    return hashed


def check_track(out: Path) -> list[Path]:
    return _existing(out / "pred_tracks.txt", out / "pred_entries.txt")


def read_scores(out: Path, perfect: bool) -> dict[str, float]:
    """Scores from ``metrics.json``: finite, in [0, 1], and 1.0 if ``perfect``."""
    (path,) = _existing(out / "metrics.json")
    flat = json.loads(path.read_text(encoding="utf-8"))
    scores = {}
    for key in SCORES:
        value = flat.get(key)
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise CheckFailed(f"{path}: {key} is {value!r}")
        if not 0.0 <= value <= 1.0:
            raise CheckFailed(f"{path}: {key}={value} outside [0, 1]")
        if perfect and value != 1.0:
            raise CheckFailed(f"{path}: {key}={value!r}, expected exactly 1.0")
        scores[key] = float(value)
    return scores


def read_ablation(out: Path, videos: int, standalone: dict[str, dict[str, float]]) -> float:
    """Check the ablation tables; return the mean TRA of the ``full`` variant.

    ``standalone`` maps each corpus video to the scores of ``track`` +
    ``evaluate`` run on it; its ``full`` row must agree with them to the
    six decimals the table keeps.
    """
    table, summary = _existing(out / "ablation.csv", out / "ablation_summary.csv")
    with open(table, encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != len(ABLATION_VARIANTS) * videos:
        raise CheckFailed(f"{table}: {len(rows)} rows, expected "
                          f"{len(ABLATION_VARIANTS) * videos}")
    for row in rows:
        for key in ("det", "lnk", "tra"):
            if not 0.0 <= float(row[key]) <= 1.0:
                raise CheckFailed(f"{table}: {key}={row[key]} outside [0, 1]")
        scores = standalone.get(row["video"]) if row["configuration"] == "full" else None
        for key in ("det", "lnk", "tra") if scores else ():
            if row[key] != f"{scores[key]:.6f}":
                raise CheckFailed(f"{table}: full/{row['video']} {key}={row[key]}, "
                                  f"standalone evaluate gives {scores[key]!r}")
    with open(summary, encoding="utf-8") as fh:
        variants = {r["configuration"]: r for r in csv.DictReader(fh)
                    if r["kind"] == "variant"}
    if sorted(variants) != sorted(ABLATION_VARIANTS):
        raise CheckFailed(f"{summary}: variants {sorted(variants)}")
    return float(variants["full"]["tra_mean"])


def check_analyze(out: Path) -> list[Path]:
    return _existing(*(out / name for name in ANALYSIS_FILES))


def remove_tree(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
