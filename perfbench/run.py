#!/usr/bin/env python3
"""Run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of the repository. The script builds perfbench/main.exe
with dune, then measures for S seconds by starting the executable again
and again, one fresh process per repetition, and aggregates:

* virtual-clock metrics must come out byte-identical in every repetition
  (same seed, same program), so they are reported from the first;
* host-clock metrics (wall_s, peak_heap_mb, setup_s) are the median over
  the repetitions.

Each repetition is its own process because Obs keeps process-global state:
SLO windows and metric histograms outlive a run, so a second repetition in
the same process would time a different program (ROADMAP, open item 1).
Inside read_ladder the three steps share one process on purpose; that is
how `hns_cli load --full` and `bench --json` run their arms.

With --trace 1 the run spends half its time on untraced repetitions and
then makes one traced repetition (spans and the flight recorder on); the
per-layer metrics come from it, and obs.trace_overhead_pct compares its
wall time with the untraced median.

Human-readable lines go first; the last line of standard output is one
JSON object {"correct", "attempted", "failed", "metrics"}. With
--workload all it covers the three workloads together: "correct" only if
each is, counts summed, metric names prefixed with the workload. The
exit status is 1 when any check failed. A report with every repetition
and the traced run's span table is written to perfbench/out/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
HERE = os.path.join(ROOT, "perfbench")
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
OUT = os.path.join(HERE, "out")
WORKLOADS = ["read_ladder", "cold_import", "write_storm"]
# Set-up-only processes per run; each costs milliseconds, and set-up time
# is their median, so many of them keep it steady.
SETUPS = 40
# Time limits per process. A full repetition of a kind not seen yet in
# the run (the first untraced one, the traced one) may take FIRST_REP_S;
# later untraced ones get SLOW_FACTOR times the slowest seen so far.
# Tracing is not a fixed factor: read_ladder runs about nine times
# slower traced, the other workloads about 1.1 times.
SETUP_REP_S = 30.0
FIRST_REP_S = 120.0
SLOW_FACTOR = 4.0

# End-to-end metrics: (name, unit, clock). Virtual ones are the workload's
# headline numbers; host ones are measured around the process.
END_TO_END = [
    ("mean_ms", "ms", "virtual"),
    ("p99_ms", "ms", "virtual"),
    ("good_fraction", "ratio", "virtual"),
    ("capacity_per_s", "1/s", "virtual"),
    ("wall_s", "s", "host"),
    ("peak_heap_mb", "MB", "host"),
    ("setup_s", "s", "host"),
]

STEP_LAYERS = [
    ("hrpc.calls", "count"),
    ("hrpc.retries_per_call", "ratio"),
    ("hrpc.errors", "count"),
    ("nsm.calls", "count"),
    ("nsm.call_ms_p50", "ms"),
    ("nsm.call_ms_p99", "ms"),
    ("nsm.errors", "count"),
    ("dns.public_bind_qps", "1/s"),
    ("dns.meta_primary_qps", "1/s"),
    ("dns.meta_replica_qps", "1/s"),
    ("store.records_per_group_commit", "ratio"),
    ("store.fsyncs", "count"),
    ("store.disk_busy_ms", "ms"),
    ("store.wal_append_ms_p50", "ms"),
    ("store.wal_append_ms_p99", "ms"),
    ("store.wal_bytes", "bytes"),
    ("obs.slo_window_n", "count"),
]

# Per-layer metrics, reported with --trace 1. Host-clock ones come from
# the untraced repetitions; the rest are counters of the traced one.
PER_LAYER = [
    ("sim.events", "count"),
    ("sim.host_ns_per_event", "ns"),
    ("sim.minor_words_per_event", "words"),
    ("sim.major_gcs", "count"),
    ("obs.histogram_samples", "count"),
    ("obs.trace_overhead_pct", "%"),
    ("transport.packets_sent", "count"),
    ("transport.bytes_sent", "bytes"),
    ("transport.packets_dropped", "count"),
    ("wire.hand_decodes", "count"),
    ("wire.generic_fallbacks", "count"),
    ("wire.value_materializations", "count"),
    ("wire.pool_hit_ratio", "ratio"),
    ("hrpc.call_ms_p50", "ms"),
    ("hrpc.call_ms_p99", "ms"),
    ("hrpc.backoff_ms", "ms"),
    ("hns.cache_hit_ratio", "ratio"),
    ("hns.agent_hit_ratio", "ratio"),
    ("hns.agent_coalesced", "count"),
    ("hns.prefetch_yield", "ratio"),
    ("hns.find_nsm_ms", "ms"),
    ("hns.meta_lookup_ms", "ms"),
    ("dns.replica_routed", "count"),
    ("dns.primary_fallbacks", "count"),
    ("dns.ixfr_served", "count"),
    ("dns.ixfr_fallbacks", "count"),
    ("dns.notify_sent", "count"),
    ("dns.full_transfers", "count"),
    ("dns.update_amplification", "ratio"),
    ("dns.converge_p99_ms", "ms"),
] + [(f"{name}.s{k}", unit) for name, unit in STEP_LAYERS for k in (1, 2, 3)]

HOST_LAYERS = {"sim.host_ns_per_event", "sim.minor_words_per_event", "sim.major_gcs"}


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "dune-project")) and os.path.isdir(os.path.join(ROOT, "lib"))):
        fail("run from the repository root: dune-project and lib/ are missing", 2)
    # Keep every file the build writes inside the checkout: no shared
    # dune cache, and the compilers' temporary files under .bench_build.
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=tmp)
    try:
        proc = subprocess.run(
            ["dune", "build", "--root", ".", "--display", "quiet", "./perfbench/main.exe"],
            cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr, timeout=880,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}", 2)
    if proc.returncode != 0 or not os.path.isfile(EXE):
        fail("build failed", 2)


def repetition(workload, seed, trace, timeout, setup_only=False):
    """One fresh process; returns its JSON result, set-up time included."""
    t_spawn = time.time()
    proc = subprocess.Popen(
        [EXE, workload, "--seed", str(seed), "--trace", str(trace)]
        + (["--setup-only"] if setup_only else []),
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail(f"{workload} seed {seed} did not finish in time")
    if proc.returncode != 0:
        sys.stderr.write(err)
        fail(f"{workload} seed {seed} exited with {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        fail(f"{workload} seed {seed} printed nothing")
    result = json.loads(lines[-1])
    result["elapsed_s"] = time.time() - t_spawn
    host = result["host"]
    # Set-up = process start (spawn until the program's first line runs)
    # plus the set-up segments the program timed itself.
    host["setup_s"] = float(result["process_start"]) - t_spawn + host["setup_in_process_s"]
    return result


def virtual_view(r):
    """Everything that must repeat exactly for the same seed."""
    layers = {k: v for k, v in r["layers"].items() if k not in HOST_LAYERS}
    return json.dumps(
        [r["attempted"], r["failed"], r["checks"], r["headline"], r["detail"], r["digests"], layers],
        sort_keys=True,
    )


def rep_timeout(reps):
    return SLOW_FACTOR * max(r["elapsed_s"] for r in reps) if reps else FIRST_REP_S


def measure(workload, seed, seconds, trace):
    """Set-up alone SETUPS times, then whole repetitions for the rest of
    the time; set-up time is the median over all of them."""
    setups = [repetition(workload, seed, 0, SETUP_REP_S, setup_only=True)["host"]["setup_s"]
              for _ in range(SETUPS)]
    reps = []
    budget = seconds / 2.0 if trace else float(seconds)
    t0 = time.monotonic()
    while not reps or time.monotonic() - t0 < budget:
        reps.append(repetition(workload, seed, 0, rep_timeout(reps)))
    traced = repetition(workload, seed, 1, FIRST_REP_S) if trace else None
    setup_s = statistics.median(setups + [r["host"]["setup_s"] for r in reps])
    return setup_s, reps, traced


def median_host(reps, key):
    return statistics.median(r["host"][key] for r in reps)


def report(workload, seed, seconds, trace):
    """Measure one workload and print its table; returns the result object
    for the last line and the list of problems found."""
    setup_s, reps, traced = measure(workload, seed, seconds, trace)
    first = reps[0]
    problems = [f"check failed: {c['name']} ({c['detail']})" for c in first["checks"] if not c["ok"]]
    views = {virtual_view(r) for r in reps}
    if len(views) != 1:
        problems.append("virtual metrics differ between repetitions of the same seed")

    e2e = {}
    for name, unit, clock in END_TO_END:
        if clock == "virtual":
            h = first["headline"][name]
            e2e[name] = {"value": h["value"], "unit": unit, "clock": clock, "n": h["n"]}
        elif name == "setup_s":
            e2e[name] = {"value": setup_s, "unit": unit, "clock": clock, "n": SETUPS + len(reps)}
        else:
            e2e[name] = {"value": median_host(reps, name), "unit": unit, "clock": clock, "n": len(reps)}

    print(f"perfbench {workload} seed {seed}: {len(reps)} repetitions in fresh processes"
          + (", plus one traced" if traced else ""))
    print(f"  {'metric':34s} {'value':>14s} {'unit':6s} {'clock':8s} samples")
    for name, m in e2e.items():
        print(f"  {name:34s} {m['value']:14.4f} {m['unit']:6s} {m['clock']:8s} {m['n']}")
    for name, m in first["detail"].items():
        print(f"  {name:34s} {m['value']:14.4f} {m['unit']:6s} {'virtual':8s} {m['n']}")
    for d in first["digests"]:
        print(f"  schedule digest {d}")
    for c in first["checks"]:
        print(f"  check {'ok  ' if c['ok'] else 'FAIL'} {c['name']}: {c['detail']}")
    for p in problems:
        print(f"  PROBLEM {p}")

    if traced is None:
        metrics = {name: {"value": m["value"], "unit": m["unit"]} for name, m in e2e.items()}
    else:
        untraced_wall = median_host(reps, "wall_s")
        layers = dict(traced["layers"])
        for key in HOST_LAYERS:
            layers[key] = statistics.median(r["layers"][key] for r in reps)
        layers["obs.trace_overhead_pct"] = 100.0 * (traced["host"]["wall_s"] / untraced_wall - 1.0)
        metrics = {name: {"value": layers.get(name, 0.0), "unit": unit} for name, unit in PER_LAYER}
        print(f"  traced run: wall {traced['host']['wall_s']:.3f} s vs {untraced_wall:.3f} s untraced; "
              f"{traced['spans_lost']:.0f} spans lost to the tracer's ring")
        # Traced HRPC calls carry a trace header, so their bytes, and with
        # them the virtual times, differ slightly from the untraced run.
        for name, h in traced["headline"].items():
            print(f"  traced {name:27s} {h['value']:14.4f} (untraced {first['headline'][name]['value']:.4f})")
        print(f"  {'span':34s} {'count':>8s} {'total vms':>14s} {'self vms':>14s} {'host s':>9s}")
        for s in traced["spans"]:
            print(f"  {s['name']:34s} {s['count']:8.0f} {s['total_virtual_ms']:14.1f} "
                  f"{s['self_virtual_ms']:14.1f} {s['host_s']:9.3f}")
        for name, m in metrics.items():
            print(f"  layer {name:40s} {m['value']:16.4f} {m['unit']}")

    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"{workload}-seed{seed}-trace{trace}.json"), "w") as f:
        json.dump({"end_to_end": e2e, "repetitions": reps, "traced": traced, "problems": problems}, f, indent=1)

    return {
        "correct": not problems,
        "attempted": int(first["attempted"]),
        "failed": int(first["failed"]),
        "metrics": metrics,
    }, problems


def selftest():
    """Same seed twice: identical virtual metrics and counters. A second
    seed: different schedule digests, every check still passing."""
    ok = True
    for workload in WORKLOADS:
        a1 = repetition(workload, 1, 0, FIRST_REP_S)
        a2 = repetition(workload, 1, 0, rep_timeout([a1]))
        b = repetition(workload, 2, 0, rep_timeout([a1, a2]))
        same = virtual_view(a1) == virtual_view(a2)
        moved = a1["digests"] != b["digests"]
        checks = all(c["ok"] for r in (a1, b) for c in r["checks"])
        for what, passed in (("same seed repeats exactly", same),
                             ("second seed changes the schedule", moved),
                             ("every check passes on both seeds", checks)):
            print(f"selftest {workload}: {'ok  ' if passed else 'FAIL'} {what}")
            ok = ok and passed
    return ok


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS + ["all"],
                   help="one workload, or all three one after another")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args()
    build()
    if args.selftest:
        sys.exit(0 if selftest() else 1)
    if args.workload is None or args.seed is None:
        fail("--workload and --seed are required", 2)
    if args.workload != "all":
        result, problems = report(args.workload, args.seed, args.seconds, args.trace)
    else:
        # One last line for all three: correct only if every workload is,
        # counts summed, metrics prefixed with the workload's name.
        results = {w: report(w, args.seed, args.seconds, args.trace) for w in WORKLOADS}
        problems = [p for _, ps in results.values() for p in ps]
        result = {
            "correct": all(r["correct"] for r, _ in results.values()),
            "attempted": sum(r["attempted"] for r, _ in results.values()),
            "failed": sum(r["failed"] for r, _ in results.values()),
            "metrics": {f"{w}.{name}": m for w, (r, _) in results.items()
                        for name, m in r["metrics"].items()},
        }
    print(json.dumps(result))
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
