#!/usr/bin/env python3
"""The deterministic host-cost gate (`make cost`).

Runs `perfbench/main.exe <workload> --seed 1 --trace 0` once per workload
and reads four host counters from its JSON line: `sim.events`,
`sim.minor_words_per_event`, `sim.major_gcs` and `peak_heap_mb`. Unlike
`wall_s`, these repeat exactly from run to run for one build, so they can
be checked like the BENCH files. The gate compares them with the committed
`BENCH_cost.json` and fails if any value grew by more than the ratchet
(2 %). A change that lowers them rewrites the file with `--update` and
lists the deltas in CHANGES.md.

The script only reads perfbench's output; it never edits the benchmark.

    python3 bench/cost_gate.py            # check (builds nothing)
    python3 bench/cost_gate.py --update   # rewrite BENCH_cost.json
"""

import argparse
import json
import subprocess
import sys

WORKLOADS = ["read_ladder", "cold_import", "write_storm"]
SEED = 1
RATCHET = 0.02
LAYER_KEYS = ["sim.events", "sim.minor_words_per_event", "sim.major_gcs"]


def measure(exe, workload):
    proc = subprocess.run(
        [exe, workload, "--seed", str(SEED), "--trace", "0"],
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        sys.exit(f"cost: {workload} exited {proc.returncode}\n{proc.stderr}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    values = {k: report["layers"][k] for k in LAYER_KEYS}
    values["peak_heap_mb"] = report["host"]["peak_heap_mb"]
    return {k: round(v, 4) for k, v in values.items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--exe", default="_build/default/perfbench/main.exe")
    ap.add_argument("--file", default="BENCH_cost.json")
    ap.add_argument("--update", action="store_true", help="rewrite the file")
    args = ap.parse_args()

    measured = {w: measure(args.exe, w) for w in WORKLOADS}
    if args.update:
        with open(args.file, "w") as f:
            json.dump(
                {"workloads": measured},
                f,
                indent=2,
                sort_keys=True,
            )
            f.write("\n")
        print(f"cost: wrote {args.file}")
        return

    with open(args.file) as f:
        committed = json.load(f)["workloads"]
    failures = 0
    for w in WORKLOADS:
        for key, now in measured[w].items():
            was = committed[w][key]
            change = (now - was) / was if was else 0.0
            verdict = "ok"
            if now > was * (1 + RATCHET):
                verdict = "FAIL"
                failures += 1
            elif now < was * (1 - RATCHET):
                verdict = "lower (rewrite with --update)"
            print(f"cost: {w:12} {key:26} {was:>14} -> {now:>14} {change:+7.2%}  {verdict}")
    if failures:
        sys.exit(f"cost: {failures} value(s) grew by more than {RATCHET:.0%}")
    print(f"cost: every host counter within {RATCHET:.0%} of {args.file}")


if __name__ == "__main__":
    main()
