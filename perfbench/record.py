"""Record the reference outputs that every benchmark pass is checked against.

    python3 perfbench/record.py --seeds 0-63

Runs one pass of each workload per seed on the current checkout (once for a
workload whose outputs do not depend on the seed) and writes
perfbench/reference.json. Record only from a commit whose outputs are known to
be right: a pass with a failed check aborts the recording. A later change that
alters outputs on purpose re-records in a benchmark-only change and says why.
"""

from __future__ import annotations

import argparse
import json
import sys

import run
from workloads import WORKLOADS

DEFAULT_SEED = 1
HELD_OUT_SEED = 2


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default=f"{DEFAULT_SEED},{HELD_OUT_SEED}",
                        help="comma-separated seeds or ranges, e.g. 0-63")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(run.ROOT / "src"))

    recorded = {}
    for name, workload in WORKLOADS.items():
        recorded[name] = {}
        seeds = parse_seeds(args.seeds) if workload.seeded else [DEFAULT_SEED]
        for seed in seeds:
            work = run.OUT_DIR / "record" / name / str(seed)
            work.mkdir(parents=True, exist_ok=True)
            outcome = workload.run_pass(workload.prepare(seed, work))
            if outcome.problems:
                print(f"{name} seed {seed}: {outcome.problems}", file=sys.stderr)
                return 1
            recorded[name][run.reference_key(workload, seed)] = outcome.summary
            print(f"{name} seed {seed}: {json.dumps(outcome.summary)[:120]}", flush=True)

    info = run.provenance()
    reference = {
        "recorded_at": {key: info[key] for key in ("git_sha", "python", "numpy", "scipy")},
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "workloads": recorded,
    }
    run.REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")
    print(f"wrote {run.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
