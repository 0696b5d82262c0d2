"""Smoke test of the benchmark itself (not part of the package's test suite).

    python3 perfbench/smoke.py

Runs every workload once untraced and once traced, with a one-second budget
so each run makes the fewest passes it can, and checks that:
- the result line holds exactly the metrics BENCHMARK.json lists, every pass
  is correct (failed_frac == 0) and the human-readable lines name every
  end-to-end metric, quality metrics included;
- the traced run emits every per-layer metric, and the layers each workload
  is meant to exercise did work;
- in a directory holding only BENCHMARK.json and the benchmark's files, the
  benchmark exits non-zero without printing a result.
Exits 0 when all checks pass.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Human-readable lines every untraced run prints, beyond the result line.
PRINTED = ["frames_per_s", "setup_s", "peak_rss_mb", "failed_frac", "f1"]
PRINTED_NOISY = PRINTED + ["loc_err_m.p50", "count_success_rate"]

# Per-layer metrics that must be non-zero on each workload.
EXERCISED = {
    "sweep_swap": ["scenarios.generate_s", "scenarios.pose_samples",
                   "geometry.interpolate_calls", "camera.annotate_calls",
                   "downwash.eval_self_s", "downwash.frames", "cli.self_s"],
    "sim_eval_waypoint4": ["scenarios.generate_s", "geometry.interpolate_calls",
                           "camera.annotate_calls", "camera.visible_ratio",
                           "datasets.write_s", "datasets.read_s", "datasets.bytes_written",
                           "datasets.bytes_read", "downwash.frames", "cli.self_s"],
    "noisy_eval_orbit4": ["datasets.read_s", "datasets.bytes_read", "perception.detect_s",
                          "perception.decode_s", "perception.detections",
                          "perception.decode_yield", "downwash.eval_self_s", "downwash.frames",
                          "metrics.match_s", "metrics.match_calls", "cli.self_s",
                          "loc_err_m.p50", "count_success_rate"],
}


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    command = [*SPEC["command"], "--workload", workload, "--seed", "1",
               "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=300)


def check(condition: bool, message: str, failures: list[str]) -> None:
    if not condition:
        failures.append(message)
        print(f"FAIL {message}", flush=True)


def main() -> int:
    failures: list[str] = []
    names = {0: [m["name"] for m in SPEC["end_to_end"]], 1: [m["name"] for m in SPEC["per_layer"]]}
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace in (0, 1):
            before = len(failures)
            done = run(workload, trace)
            label = f"{workload} trace {trace}"
            check(done.returncode == 0, f"{label}: exit {done.returncode}\n{done.stderr}", failures)
            lines = done.stdout.strip().splitlines()
            if not lines:
                continue
            result = json.loads(lines[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{label}: result keys {sorted(result)}", failures)
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{label}: correct={result['correct']} failed={result['failed']}", failures)
            check(sorted(result["metrics"]) == sorted(names[trace]),
                  f"{label}: metrics {sorted(result['metrics'])}", failures)
            printed = {line.split()[0] for line in lines[:-1] if line.strip()}
            if trace == 0:
                expected = PRINTED_NOISY if workload == "noisy_eval_orbit4" else PRINTED
                check(set(expected) <= printed,
                      f"{label}: missing lines {sorted(set(expected) - printed)}", failures)
                check(any(line.startswith("failed_frac 0.0 ") for line in lines),
                      f"{label}: failed_frac is not 0", failures)
            else:
                for name in EXERCISED[workload]:
                    check(result["metrics"][name]["value"] > 0, f"{label}: {name} is 0", failures)
            if len(failures) == before:
                print(f"ok   {label}", flush=True)

    bare = ROOT / ".perfbench_run" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    done = run(SPEC["workloads"][0]["name"], 0, cwd=bare)
    last = done.stdout.strip().splitlines()[-1:] or [""]
    if done.returncode != 0 and not last[0].startswith("{"):
        print("ok   bare directory exits non-zero without a result", flush=True)
    else:
        check(False, f"bare directory: exit {done.returncode}, last line {last[0]!r}", failures)
    shutil.rmtree(bare)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
