#!/usr/bin/env python3
"""Benchmark of the learned hierarchy, the search baseline and training.

    python3 bench/run.py --workload metro-drl --seed 0 --seconds 32 --trace 0

Workloads (README.md says why each exists):
  metro-drl   untrained seeded city and region agents, "ours" triggers, metro city
  city-mcts   UCT search baseline, "baseline" triggers, default city
  city-train  region agents, then the city agent, trained with DDPG, default city
  all         each of the above in its own process, one after another

Load model: a closed loop. One single-threaded simulator in one process; each
simulator event waits for the decision it triggers.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced rounds, prints the per-layer metrics and writes the spans as JSONL to
bench/out/. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. The program is imported from the
checkout's src/; without it the benchmark exits with status 1.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
NAMES = ("metro-drl", "city-mcts", "city-train")


def import_program() -> None:
    """Import the package from this checkout's src/, nowhere else."""
    sys.path[:0] = [str(SRC), str(HERE)]
    try:
        import ermrl
    except ImportError as exc:
        sys.exit(f"bench: cannot import the program from {SRC}: {exc}")
    if not Path(ermrl.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"bench: imported ermrl from {ermrl.__file__}, not from {SRC}")


def units(trace: bool) -> dict[str, str]:
    with open(HERE.parent / "BENCHMARK.json") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def report(result: dict, trace: bool) -> dict:
    """Print every metric by name with its unit; return the result line."""
    unit = units(trace)
    missing = set(unit) - set(result["metrics"])
    if missing:
        raise RuntimeError(f"no value computed for {sorted(missing)}")
    print(f"workload {result['workload']}  seed {result['seed']}  "
          f"rounds {result['rounds']}  decisions per round {result['decisions_per_round']}")
    for name, u in unit.items():
        print(f"  {name:36s} {result['metrics'][name]:.6g} {u}")
    print(f"attempted {result['attempted']}  failed {result['failed']}")
    print(f"fingerprint {result['fingerprint']}")
    for m in result["messages"]:
        print(f"CHECK FAILED: {m}")
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: {"value": result["metrics"][k], "unit": u}
                        for k, u in unit.items()}}


def run_all(args) -> dict:
    """Each workload in a fresh process, so peak memory is per workload."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        proc = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              stdout=subprocess.PIPE, text=True, check=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        one = json.loads(lines[-1])
        total["correct"] &= one["correct"]
        total["attempted"] += one["attempted"]
        total["failed"] += one["failed"]
        total["metrics"].update({f"{name}.{k}": v for k, v in one["metrics"].items()})
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    import_program()
    if args.workload == "all":
        line = run_all(args)
    else:
        from workloads import measure

        OUT.mkdir(parents=True, exist_ok=True)
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), OUT)
        line = report(result, bool(args.trace))
        path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
        with open(path, "w") as f:
            json.dump(result, f, indent=1)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
