"""celltrack benchmark: time the CLI on one workload and check its outputs.

    python3 perfbench/run.py --workload identity --seed 1 --seconds 22 --trace 0

Run from the repository root.  ``--trace 0`` reports the end-to-end
metrics of ``BENCHMARK.json``; ``--trace 1`` alternates untraced and
traced iterations and reports the per-layer metrics, whose self times
carry the tracing overhead.  ``--workload all`` runs every workload in
its own process, both ways, and with ``--out FILE`` writes all reports
to one JSON file.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from workloads import (  # noqa: E402
    WORKLOADS,
    CheckFailed,
    Workload,
    check_analyze,
    check_simulate,
    check_track,
    read_ablation,
    read_scores,
    remove_tree,
    sha256,
    simulate_argv,
    video_dirs,
)

SETUP_REPEATS = 5  # set-ups per untraced run; setup_s is their median
# Host speed drifts by 20 % and more within a minute on shared machines.
# Each timed step is therefore scaled by REFERENCE_S over the mean time
# of a reference loop run just before and just after it.
REFERENCE_S = 0.04
REFERENCE_LOOPS = 7000
MIN_ITERATIONS = 3  # untraced iterations per run, even past --seconds
RUNS_DIR = ".perfbench_runs"


def reference_seconds() -> float:
    """Time a fixed mix of interpreter and small-array numpy work.

    It takes about ``REFERENCE_S`` on the machine the bounds were set on
    when that machine runs at its usual speed.
    """
    import numpy as np

    start = time.perf_counter()
    table = {}
    for i in range(REFERENCE_LOOPS):
        a = np.arange(40.0) + i
        table[i % 97] = float(np.hypot(a, a[::-1]).sum()) + len([j for j in range(30)])
    return time.perf_counter() - start


def _median(values):
    return statistics.median(values) if values else 0.0


class Run:
    """One workload run: executes commands, counts failures, checks outputs."""

    def __init__(self, workload: Workload, seed: int, tiny: bool, work_dir: Path):
        from celltrack.cli import main

        self.main = main
        self.w = workload
        self.seed = seed
        self.tiny = tiny
        self.work_dir = work_dir
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.digests: dict[str, dict[str, str]] = {}
        self.scores: dict[str, dict[str, float]] = {}
        self.ablation_tra: float | None = None
        self.tracer = None  # set while an iteration is traced
        self.last_reference: float | None = None
        self.wall_s = 0.0

    # -- one command ---------------------------------------------------------

    def command(self, key: str, argv: list[str], check) -> float:
        """Run ``celltrack <argv>``; return its reference-scaled seconds.

        ``check`` returns the output files whose sha256 must repeat from
        iteration to iteration, or raises ``CheckFailed``.
        """
        self.attempted += 1
        captured = io.StringIO()

        def run_command():
            with redirect_stdout(captured):
                if self.tracer is None:
                    return self.main(argv)
                return self.tracer.call(f"cli.{argv[0]}", self.main, argv)

        try:
            code, elapsed = self.timed(run_command)
        except Exception as exc:  # a raising command is a failed operation
            code, elapsed = f"{type(exc).__name__}: {exc}", 0.0
        try:
            if code != 0:
                raise CheckFailed(f"exit {code}")
            digests = {"/".join(p.relative_to(self.work_dir).parts[1:]): sha256(p)
                       for p in check()}
            first = self.digests.setdefault(key, digests)
            if digests != first:
                changed = sorted(k for k in digests if digests[k] != first.get(k))
                raise CheckFailed(f"outputs differ from the first iteration: {changed}")
        except (CheckFailed, OSError, ValueError, KeyError, TypeError) as exc:
            self.failed += 1
            self.errors.append(f"{key}: {exc}")
            print(f"FAILED {key}: {exc}\n{captured.getvalue()}", file=sys.stderr)
        return elapsed

    def timed(self, fn):
        """Run ``fn()``; return its result and its reference-scaled seconds.

        The wall time goes to ``self.wall_s``.  The reference measured
        after one step also serves as the one before the next step.
        """
        before = self.last_reference or reference_seconds()
        start = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - start
        self.last_reference = reference_seconds()
        self.wall_s += wall
        return result, wall * 2.0 * REFERENCE_S / (before + self.last_reference)

    # -- set-up and one iteration --------------------------------------------

    def setup(self) -> float:
        """Scaled seconds to import ``celltrack.cli`` in a fresh interpreter."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        self.last_reference = None
        return self.timed(lambda: subprocess.run(
            [sys.executable, "-c", "import celltrack.cli"],
            env=env, cwd=ROOT, check=True))[1]

    def iteration(self, index: int) -> dict[str, float]:
        it = self.work_dir / f"it{index}"
        self.last_reference = None
        self.wall_s = 0.0
        try:
            times = self._iteration(it)
        finally:
            remove_tree(it)
        times["wall_total_s"] = self.wall_s
        return times

    def _iteration(self, it: Path) -> dict[str, float]:
        sim_dir = it / "sim"
        simulate_s = self.command(
            "simulate", simulate_argv(self.w, self.seed, sim_dir, self.tiny),
            lambda: check_simulate(sim_dir, self.w.videos))
        videos = video_dirs(sim_dir, self.w.videos)
        self.scores.clear()
        track_s = evaluate_s = 0.0
        for i, video in enumerate(videos):
            name = f"video_{i:03d}"
            out = it / "track" / name
            track_s += self.command(
                f"track:{name}",
                ["track", str(video / self.w.detections), "--out", str(out),
                 "--workers", "1"],
                lambda: check_track(out))
            evaluate_s += self.command(
                f"evaluate:{name}",
                ["evaluate", str(out / "pred"), str(video / "gt"),
                 "--out", str(it / "evaluate" / name), "--workers", "1"],
                lambda: self._check_evaluate(it / "evaluate" / name, name))
        times = {"simulate_s": simulate_s, "track_s": track_s, "evaluate_s": evaluate_s}
        if self.w.ablate:
            times.update(self._ablate(it, sim_dir, videos))
        times["total_s"] = sum(times.values())
        return times

    def _check_evaluate(self, out: Path, name: str) -> list[Path]:
        self.scores[name] = read_scores(out, self.w.perfect)
        return [out / "metrics.json"]

    def _ablate(self, it: Path, corpus: Path, videos: list[Path]) -> dict[str, float]:
        """``ablate --no-sweep`` then ``analyze`` on the corpus."""
        out = it / "ablate"

        def check_ablate():
            self.ablation_tra = read_ablation(out, self.w.videos, self.scores)
            return [out / "ablation.csv", out / "ablation_summary.csv"]

        ablate_s = self.command(
            "ablate", ["ablate", str(corpus), "--out", str(out), "--no-sweep",
                       "--workers", "1"], check_ablate)
        analysis = it / "analyze"
        analyze_s = self.command(
            "analyze", ["analyze", *(str(v / "gt") for v in videos),
                        "--out", str(analysis), "--workers", "1"],
            lambda: check_analyze(analysis))
        return {"ablate_s": ablate_s, "analyze_s": analyze_s}

    def score_metrics(self) -> dict[str, float]:
        """Mean scores over the workload's evaluated videos."""
        out = {}
        for key in ("tra", "hota", "idf1", "mota"):
            values = [s[key] for s in self.scores.values()]
            out[key] = statistics.fmean(values) if values else 0.0
        if self.w.ablate:
            out["tra"] = self.ablation_tra if self.ablation_tra is not None else 0.0
        return out


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False) -> dict:
    """Run one workload; return its metrics, counts and records."""
    from tracing import Tracer, layer_metrics

    w = WORKLOADS[name]
    work_dir = ROOT / RUNS_DIR / f"{name}-{seed}-{os.getpid()}"
    remove_tree(work_dir)
    run = Run(w, seed, tiny, work_dir)
    tracer = Tracer()
    try:
        setups = [] if trace else [run.setup() for _ in range(SETUP_REPEATS)]

        plain: list[dict[str, float]] = []
        traced: list[dict[str, float]] = []
        # Start another iteration only while it should end within --seconds.
        start = time.perf_counter()
        last = 0.0
        index = 0
        while (len(plain) < (1 if trace else MIN_ITERATIONS)
               or time.perf_counter() - start + last <= seconds):
            began = time.perf_counter()
            gc.collect()
            plain.append(run.iteration(index))
            index += 1
            if trace:
                gc.collect()
                tracer.spans = []
                run.tracer = tracer
                tracer.install()
                try:
                    times = run.iteration(index)
                finally:
                    tracer.restore()
                    run.tracer = None
                index += 1
                layers = layer_metrics(tracer.spans)
                layers["trace.total_s"] = times["total_s"]
                traced.append(layers)
            last = time.perf_counter() - began

        if trace:
            metrics = {key: _median([t[key] for t in traced]) for key in traced[0]}
            metrics["trace.overhead_s"] = (
                metrics["trace.total_s"] - _median([p["total_s"] for p in plain]))
        else:
            metrics = {key: _median([p[key] for p in plain])
                       for key in ("total_s", "simulate_s", "track_s", "evaluate_s")}
            metrics["setup_s"] = _median(setups)
            metrics["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
            metrics.update(run.score_metrics())
        return {
            "workload": name,
            "seed": seed,
            "trace": int(trace),
            "iterations": len(plain) + len(traced),
            "attempted": run.attempted,
            "failed": run.failed,
            "errors": run.errors,
            "metrics": metrics,
            "outputs_sha256": run.digests,
            "iteration_times": plain,
        }
    finally:
        tracer.restore()
        remove_tree(work_dir)
        try:
            work_dir.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass


# ---------------------------------------------------------------------------
# Reporting


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text(encoding="utf-8").strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    lines = sum(1 for path in sorted((SRC / "celltrack").rglob("*.py"))
                for line in path.read_text(encoding="utf-8").splitlines()
                if line.strip())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "src_nonblank_lines": lines,
    }


def declared_metrics(trace: bool) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec["per_layer" if trace else "end_to_end"]


def contract_line(report: dict) -> dict:
    """The result object, with every declared metric and its unit."""
    metrics = {}
    for m in declared_metrics(bool(report["trace"])):
        metrics[m["name"]] = {"value": report["metrics"][m["name"]], "unit": m["unit"]}
    return {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }


def print_run(report: dict) -> dict:
    line = contract_line(report)
    print(f"{report['workload']} seed={report['seed']} trace={report['trace']}: "
          f"{report['iterations']} iterations, {report['attempted']} operations, "
          f"{report['failed']} failed")
    for name, m in line["metrics"].items():
        print(f"  {name:45s} {m['value']:>14.6g} {m['unit']}")
    print("report " + json.dumps(report, sort_keys=True))
    return line


def run_all(args) -> int:
    """Each workload in its own process, untraced then traced."""
    reports = []
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                cwd=ROOT, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-2]))
            found = [json.loads(x[7:]) for x in lines if x.startswith("report ")]
            if proc.returncode != 0 or not found:
                print(f"{name} trace={trace}: exit {proc.returncode}", file=sys.stderr)
                return 1
            reports.append(found[0])
    if args.out:
        Path(args.out).write_text(
            json.dumps({"machine": machine(), "runs": reports}, indent=1, sort_keys=True)
            + "\n", encoding="utf-8")
    summary = {"correct": all(r["failed"] == 0 for r in reports),
               "attempted": sum(r["attempted"] for r in reports),
               "failed": sum(r["failed"] for r in reports),
               "metrics": {}}
    for r in reports:
        for name, m in contract_line(r)["metrics"].items():
            summary["metrics"][f"{r['workload']}.{name}"] = m
    print(json.dumps(summary, sort_keys=True))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="with --workload all: write the reports here")
    args = parser.parse_args(argv)
    if not (SRC / "celltrack" / "__init__.py").is_file():
        print(f"error: no celltrack sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    report["machine"] = machine()
    line = print_run(report)
    print(json.dumps(line, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
