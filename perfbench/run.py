"""spincam benchmark: one seeded workload, timed passes, checked outputs.

    python3 perfbench/run.py --workload sweep_swap --seed 1 --seconds 25 --trace 0

Run it from anywhere inside a source checkout; it imports `spincam` from the
checkout's `src/` and writes only under `.perfbench_run/` at the checkout root.
Passes run back to back in this one single-threaded process (a closed loop
with one caller) until `--seconds` have elapsed. Every pass is checked.

With `--trace 0` the last stdout line carries the end-to-end metrics; with
`--trace 1` untraced and traced passes alternate and it carries the per-layer
metrics plus the tracing overhead. Human-readable lines come first. See
NOTES.md for what each workload and metric is for.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools before numpy can load; set-up probes inherit this.
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _name in THREAD_ENV:
    os.environ[_name] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from contextlib import contextmanager, nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

from tracing import Tracer, pass_layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".perfbench_run"
REFERENCE = BENCH_DIR / "reference.json"
SPEC = ROOT / "BENCHMARK.json"
SETUP_REPEATS = 3
PROBE_TIMEOUT_S = 150
SAMPLE_INTERVAL_S = 0.1
# Throughput at reference speed: the throughput on a machine where one speed
# sample takes REFERENCE_SAMPLE_S (see SpeedSampler).
REFERENCE_SAMPLE_S = 0.002

QUALITY_UNITS = {"f1": "ratio", "loc_err_m.p50": "m", "count_success_rate": "ratio"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def git_sha() -> str:
    """HEAD commit read from the checkout's .git files, or 'unknown'."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance() -> dict:
    import numpy
    import scipy

    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": {name: os.environ[name] for name in THREAD_ENV},
    }


def measure_setup(args, work: Path) -> list[float]:
    """Wall time of SETUP_REPEATS fresh processes doing the workload's set-up:
    interpreter start, importing spincam, writing the inputs (and, for the
    noisy workload, simulating and loading its dataset)."""
    samples = []
    for k in range(SETUP_REPEATS):
        probe_dir = work / f"setup-{k}"
        probe_dir.mkdir()
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
                   "--seed", str(args.seed), "--setup-probe", str(probe_dir)]
        start = time.perf_counter()
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=PROBE_TIMEOUT_S)
        samples.append(time.perf_counter() - start)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe exited {done.returncode}:\n{done.stderr}")
    return samples


def reference_key(workload, seed: int) -> str:
    return str(seed) if workload.seeded else "any"


def load_reference(workload, seed: int):
    try:
        recorded = json.loads(REFERENCE.read_text())
    except FileNotFoundError:
        return None
    return recorded["workloads"].get(workload.name, {}).get(reference_key(workload, seed))


def same_outputs(a, b) -> bool:
    """Equal structure and values; floats agree to 1e-9 relative."""
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(same_outputs(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(same_outputs(x, y) for x, y in zip(a, b))
    if isinstance(a, float) or isinstance(b, float):
        return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)
    return a == b


def speed_sample() -> float:
    """Seconds taken by a fixed mix of small numpy calls and interpreter work,
    the mix the spincam pipeline spends its time on. It runs no spincam code,
    so a change to the program cannot move it; only the machine can."""
    import numpy as np

    v, w = np.array([1.0, 2.0, 3.0]), np.array([0.5, -1.0, 2.0])
    start = time.perf_counter()
    acc = 0.0
    for i in range(60):
        acc += float(np.dot(np.cross(v, w), v)) + i * 0.5
    table: dict[int, int] = {}
    for i in range(300):
        table[i % 97] = table.get(i % 97, 0) + i
    return time.perf_counter() - start


class SpeedSampler:
    """Measures the machine's speed while a pass runs.

    The shared host's speed changes by up to 1.7x within seconds, mid-pass
    included. A SIGALRM timer interrupts the pass every SAMPLE_INTERVAL_S of
    wall time and times `speed_sample` (about 2.5 ms). The time spent in the
    handler is subtracted from the pass; the pass's speed factor is the mean
    of REFERENCE_SAMPLE_S / sample time, i.e. the mean speed over the pass
    relative to the reference machine.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def _handler(self, signum, frame):
        start = time.perf_counter()
        self.samples.append(speed_sample())
        self.spent += time.perf_counter() - start

    @contextmanager
    def sampling(self):
        self.samples, self.spent = [], 0.0
        previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        if not self.samples:  # a pass shorter than one interval
            self.samples.append(speed_sample())

    def speed(self) -> float:
        return statistics.fmean(REFERENCE_SAMPLE_S / d for d in self.samples)


def run_passes(workload, state, seconds, reference, tracer):
    """Closed loop: the next pass starts when the previous one ends.

    Each pass records its wall time less the sampler's share, and its mean
    machine speed. With a tracer, untraced and traced passes alternate so
    both see the same machine conditions; the loop runs until both kinds
    have at least one pass and the time is up.
    """
    passes = []
    expected = reference
    sampler = SpeedSampler()
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        t0 = time.perf_counter()
        try:
            with sampler.sampling(), tracer.traced_pass() if traced else nullcontext():
                outcome = workload.run_pass(state)
            problems = list(outcome.problems)
        except Exception:  # a failing pass is counted, never fatal
            outcome, problems = None, [traceback.format_exc()]
        elapsed = time.perf_counter() - t0 - sampler.spent
        if outcome is not None:
            if expected is None and not problems:
                expected = outcome.summary
            if expected is not None and not same_outputs(outcome.summary, expected):
                source = "recorded reference" if reference is not None else "first pass"
                problems.append(f"outputs differ from the {source}: {outcome.summary}")
        for problem in problems:
            print(f"perfbench: pass {len(passes)} failed: {problem}", file=sys.stderr)
        passes.append({"traced": traced, "seconds": elapsed, "speed": sampler.speed(),
                       "samples": len(sampler.samples), "outcome": outcome,
                       "problems": problems})
        kinds = {p["traced"] for p in passes}
        if time.perf_counter() - start >= seconds and (tracer is None or len(kinds) == 2):
            return passes


def finite(value: float) -> float:
    """JSON has no NaN; a metric with no successful pass to measure reads 0."""
    return value if math.isfinite(value) else 0.0


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles gives them."""
    if len(values) < 2:
        return (values[0],) * 3 if values else (math.nan,) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def throughput(passes, traced, reference_speed=False):
    """Frames per second of each correct pass, in its own time or, with
    reference_speed, in the time it would take at the reference speed."""
    return [p["outcome"].frames / (p["seconds"] * (p["speed"] if reference_speed else 1.0))
            for p in passes if p["traced"] == traced and not p["problems"]]


def quality(passes) -> dict[str, float]:
    good = [p["outcome"].quality for p in passes if not p["problems"]]
    return {key: statistics.median(q[key] for q in good) for key in good[0]} if good else {}


def layer_metrics(passes, tracer) -> dict[str, float]:
    traced = [i for i, p in enumerate(passes) if p["traced"]]
    per_pass = [pass_layer_metrics(spans, counts)
                for spans, counts in zip(tracer.passes, tracer.pass_counts)]
    metrics = {key: statistics.median(m[key] for m in per_pass) for key in per_pass[0]}
    scores = quality([passes[i] for i in traced])
    metrics["downwash.f1"] = scores.get("f1", 0.0)
    metrics["loc_err_m.p50"] = scores.get("loc_err_m.p50", 0.0)
    metrics["count_success_rate"] = scores.get("count_success_rate", 0.0)
    fps_traced = quartiles(throughput(passes, True, reference_speed=True))[1]
    fps_untraced = quartiles(throughput(passes, False, reference_speed=True))[1]
    metrics["trace.ref_frames_per_s"] = fps_traced
    metrics["trace.untraced_ref_frames_per_s"] = fps_untraced
    metrics["trace.overhead_pct"] = 100.0 * (fps_untraced / fps_traced - 1.0)
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "spincam" / "__init__.py").is_file():
        print(f"perfbench: no spincam sources under {ROOT / 'src'}; run it from a full "
              "source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads(SPEC.read_text())
    workload = WORKLOADS[args.workload]
    if args.setup_probe:
        workload.prepare(args.seed, Path(args.setup_probe))
        return 0

    work = OUT_DIR / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    setup_samples = measure_setup(args, work)
    (work / "main").mkdir()
    state = workload.prepare(args.seed, work / "main")
    reference = load_reference(workload, args.seed)
    tracer = Tracer() if args.trace else None

    passes = run_passes(workload, state, args.seconds, reference, tracer)

    failed = sum(1 for p in passes if p["problems"])
    frames = next((p["outcome"].frames for p in passes if not p["problems"]), None)
    q1, fps, q3 = quartiles(throughput(passes, False))
    ref_q1, ref_fps, ref_q3 = quartiles(throughput(passes, False, reference_speed=True))
    speed = statistics.median(p["speed"] for p in passes)
    scores = quality(passes)
    info = provenance() | {"frames_per_pass": frames, "robots": workload.robots}
    end_to_end = {
        "ref_frames_per_s": ref_fps,
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }

    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"reference {'recorded' if reference is not None else 'first-pass'}")
    print("provenance " + json.dumps(info, sort_keys=True))
    untraced = sum(1 for p in passes if not p["traced"])
    print(f"frames_per_s {fps!r} frames/s (wall time; q1 {q1!r}, q3 {q3!r}, "
          f"{untraced} untraced passes)")
    print(f"ref_frames_per_s {ref_fps!r} frames/s (at reference speed; q1 {ref_q1!r}, "
          f"q3 {ref_q3!r}; median machine speed {speed!r} x reference)")
    print(f"setup_s {end_to_end['setup_s']!r} s (median of {SETUP_REPEATS} fresh processes)")
    print(f"peak_rss_mb {end_to_end['peak_rss_mb']!r} MB")
    print(f"failed_frac {failed / len(passes)!r} ratio ({failed} of {len(passes)} passes)")
    for name, value in scores.items():
        print(f"{name} {value!r} {QUALITY_UNITS[name]}")

    result = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "provenance": info, "setup_samples_s": setup_samples,
              "reference": "recorded" if reference is not None else "first-pass",
              "passes": [{"traced": p["traced"], "seconds": p["seconds"], "speed": p["speed"],
                          "speed_samples": p["samples"],
                          "frames": p["outcome"].frames if p["outcome"] else 0,
                          "problems": p["problems"]} for p in passes],
              "end_to_end": end_to_end, "wall_frames_per_s": {"q1": q1, "median": fps, "q3": q3},
              "quality": scores}
    if tracer is not None:
        metrics = layer_metrics(passes, tracer)
        for layer in tracer.absent:
            print(f"perfbench: layer {layer} is absent (no wrapped name found); "
                  "its metrics read 0", file=sys.stderr)
        for error, count in tracer.counter_errors.items():
            print(f"perfbench: work counter failed {count}x: {error}", file=sys.stderr)
        result["per_layer"] = metrics
        result["absent_layers"] = tracer.absent
        (work / "trace_spans.json").write_text(json.dumps(tracer.dump()))
        listed = spec["per_layer"]
    else:
        metrics, listed = end_to_end, spec["end_to_end"]
    reported = {m["name"]: {"value": finite(metrics[m["name"]]), "unit": m["unit"]}
                for m in listed}
    if tracer is not None:
        for name, metric in reported.items():
            print(f"{name} {metric['value']!r} {metric['unit']}")
    (work / "result.json").write_text(json.dumps(result, indent=1, default=str))

    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(passes),
        "failed": failed,
        "metrics": reported,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
