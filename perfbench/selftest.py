"""Self-test of the benchmark: every workload at a tiny size.

    python3 perfbench/selftest.py

Checks that each run reports exactly the metrics ``BENCHMARK.json``
declares, with their units; that no operation fails; that the traced
pass puts every wrapped function back; and that each workload exercises
or bypasses the layers its description claims.  Exits 0 when all hold.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

SEED = 3

# (workload, per-layer metric, predicate, what the predicate states)
CLAIMS = (
    ("identity", "kalman.interpolate_gap.calls", lambda v: v == 0, "== 0"),
    ("identity", "kalman.batch_update.rows_per_call", lambda v: v == 1.0, "== 1.0"),
    ("identity", "cli.ablate.jobs", lambda v: v == 0, "== 0"),
    ("identity", "analysis.self_s", lambda v: v == 0, "== 0"),
    ("noisy", "kalman.interpolate_gap.calls", lambda v: v > 0, "> 0"),
    ("dense", "tracker.build_candidates.pairs_tested", lambda v: v > 0, "> 0"),
    ("ablate", "cli.ablate.jobs", lambda v: v == 16, "== 16"),
    ("ablate", "cli.ablate.parses_per_video", lambda v: v == 4, "== 4"),
    # 16 parses in the job loop plus one standalone track per video.
    ("ablate", "ingest.load_detections.calls", lambda v: v == 20, "== 20"),
    ("ablate", "simulator.simulate.self_s", lambda v: v > 0, "> 0"),
    ("ablate", "analysis.eligible_profiles.self_s", lambda v: v > 0, "> 0"),
)


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    from tracing import patched_objects

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems: list[str] = []
    layers: dict[str, dict[str, float]] = {}
    for name in run.WORKLOADS:
        before = patched_objects()
        for trace in (False, True):
            report = run.run_workload(name, SEED, 0.0, trace, tiny=True)
            declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
            line = run.contract_line(report)
            if set(report["metrics"]) != set(declared):
                problems.append(f"{name} trace={trace}: metrics "
                                f"{sorted(set(report['metrics']) ^ set(declared))} "
                                "reported but not declared, or declared but missing")
            if any(m["unit"] != declared[k] for k, m in line["metrics"].items()):
                problems.append(f"{name} trace={trace}: unit mismatch")
            if report["failed"] or not line["correct"] or line["attempted"] < 1:
                problems.append(f"{name} trace={trace}: {report['errors']}")
            if trace:
                layers[name] = report["metrics"]
            elif name == "identity":
                for score in ("tra", "hota", "idf1", "mota"):
                    if report["metrics"][score] != 1.0:
                        problems.append(f"identity: {score}={report['metrics'][score]}")
        after = patched_objects()
        moved = [key for key in before if after[key] is not before[key]]
        if moved:
            problems.append(f"{name}: not restored after tracing: {moved}")
    for workload, metric, holds, claim in CLAIMS:
        value = layers[workload][metric]
        if not holds(value):
            problems.append(f"{workload}: {metric} = {value}, expected {claim}")
    # Clean detections leave almost every IoU component 1x1, which the
    # matcher settles without the Hungarian solver.
    lsa = "metrics.linear_sum_assignment.calls"
    if not layers["identity"][lsa] < layers["noisy"][lsa]:
        problems.append(f"{lsa}: identity {layers['identity'][lsa]} "
                        f"not below noisy {layers['noisy'][lsa]}")
    for problem in problems:
        print("FAIL", problem)
    print(f"selftest: {len(run.WORKLOADS)} workloads, {len(CLAIMS)} layer claims, "
          f"{len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
