#!/usr/bin/env python3
"""The repository benchmark: three full-stack pmcast workloads.

    python3 perfbench/run.py --workload steady_group --seed 2027 \
        --seconds 40 --trace 0

Run from the root of a checkout. The first call builds the library and the
workload runner (perfbench/CMakeLists.txt, Release) into the directory named
by CARGO_TARGET_DIR, default `.bench_build`. Each repetition of a workload
then runs in a fresh perfbench_workload process, so peak RSS is the
repetition's own.

--trace 0 repeats the workload for --seconds and prints the end-to-end
metrics; --trace 1 runs it once untraced and once with the per-layer probes
and prints the per-layer metrics. Either way the last line of stdout is one
JSON object {"correct", "attempted", "failed", "metrics"}; a failed output
check sets "correct" to false and the exit code to 1. README.md beside this
file says what each workload and metric is for.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("steady_group", "sharded_fleet", "churn_wire")
# Repetitions whose simulated outputs (delivery, messages, latency) are
# reported. Fixed, so those metrics repeat exactly at a fixed --seed; the
# timed metrics take every repetition that fits in --seconds.
SIM_REPS = 5
REP_TIMEOUT_S = 150
MEMBERSHIP_KINDS = ("MembershipDigest", "MembershipUpdate", "JoinRequest",
                    "ViewTransfer", "Leave", "SuspectQuery", "SuspectReply")
PMCAST_KINDS = ("Gossip", "EventDigest", "EventRequest", "EventPayload")
KINDS = PMCAST_KINDS + MEMBERSHIP_KINDS
UNITS = {
    "setup_s": "s", "run_s": "s", "peak_rss_mb": "MB",
    "delivery_ratio": "ratio", "msgs_per_proc": "msgs/proc",
    "latency_ms_mean": "ms",
}


class CheckFailed(Exception):
    """An output check failed: the workload's result is not correct."""


def nproc():
    return len(os.sched_getaffinity(0))


# ---------------------------------------------------------------------------
# Build
# ---------------------------------------------------------------------------

def build():
    """Builds the workload runner from the checkout's sources; returns it."""
    for needed in ("CMakeLists.txt", "src/harness/shard.hpp"):
        if not (ROOT / needed).is_file():
            raise SystemExit(f"perfbench: {ROOT / needed} is missing; run "
                             "from the root of a pmcast checkout")
    out = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
    if not (out / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(out), "-j", str(nproc())],
                   check=True, stdout=sys.stderr)
    return out / "perfbench_workload"


# ---------------------------------------------------------------------------
# Repetitions
# ---------------------------------------------------------------------------

def sub_seed(seed, k):
    """Seed of repetition k: the seed itself first, then splitmix64 draws."""
    if k == 0:
        return seed
    z = (seed + k * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return (z ^ (z >> 31)) & 0x7FFFFFFFFFFFFFFF


def run_rep(binary, workload, seed, *, trace=False, threads=1, codec=True,
            smoke=False):
    """Runs one repetition in a fresh process and returns its record."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--threads", str(threads), "--codec", "on" if codec else "off"]
    if trace:
        cmd.append("--trace")
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=REP_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: "
                           f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def threads_for(workload):
    return nproc() if workload == "sharded_fleet" else 1


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def check_build(rep):
    meta = rep["meta"]
    if meta["assertions"] or meta["sanitizer"] or \
            "-fsanitize" in meta["build_flags"]:
        raise CheckFailed(f"timed run from an assert-enabled or sanitizer "
                          f"build: {meta}")


def check_exactly_once(rep):
    if rep["delivered"] > rep["expected"]:
        raise CheckFailed(f"{rep['workload']} seed {rep['seed']}: delivered "
                          f"{rep['delivered']} > expected {rep['expected']}")
    if rep["expected"] == 0:
        raise CheckFailed(f"{rep['workload']} seed {rep['seed']}: no "
                          "deliveries were owed")


def check_same_fingerprint(a, b, what):
    if a["fingerprint"] != b["fingerprint"]:
        raise CheckFailed(f"{a['workload']} seed {a['seed']}: {what}: "
                          f"fingerprint {a['fingerprint']} != "
                          f"{b['fingerprint']}")


def check_rep(rep):
    check_build(rep)
    check_exactly_once(rep)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(reps):
    """End-to-end metrics: timings are medians over every repetition, the
    simulated ones pool the first SIM_REPS repetitions."""
    sim = reps[:SIM_REPS]
    expected = sum(r["expected"] for r in sim)
    delivered = sum(r["delivered"] for r in sim)
    values = {
        "setup_s": statistics.median(r["setup_s"] for r in reps),
        "run_s": statistics.median(r["run_s"] for r in reps),
        "peak_rss_mb": statistics.median(r["peak_rss_bytes"] / 2**20
                                         for r in reps),
        "delivery_ratio": delivered / expected,
        "msgs_per_proc": sum(r["net"]["sent"] for r in sim)
                         / sum(r["processes"] for r in sim),
        "latency_ms_mean": sum(r["latency_total_ms"] for r in sim)
                           / sum(r["latency_samples"] for r in sim),
    }
    metrics = {name: metric(v, UNITS[name]) for name, v in values.items()}
    return expected, expected - delivered, metrics


def tail(samples):
    """(value, percentile) of the highest percentile with ten samples
    beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 11:
        raise CheckFailed(f"only {n} period samples; need at least 11")
    return ordered[n - 11], 100.0 * (n - 10) / n


def per_layer(untraced, traced, serial, codec_off):
    """Per-layer metrics from one untraced and one traced repetition of the
    same seed (plus the T=1 rerun, or the codec-off rerun, where they
    apply)."""
    u, t = untraced, traced
    procs = u["processes"]
    payloads = sum(t["payloads"].values())
    total_bytes = sum(t["bytes"].values())
    mem_payloads = sum(t["payloads"][k] for k in MEMBERSHIP_KINDS)
    mem_bytes = sum(t["bytes"][k] for k in MEMBERSHIP_KINDS)
    pm_payloads = sum(t["payloads"][k] for k in PMCAST_KINDS)
    pm_bytes = sum(t["bytes"][k] for k in PMCAST_KINDS)
    period_tail, tail_pct = tail(t["period_ms"])
    threads = u["meta"]["threads"]
    serial_run_s = serial["run_s"] if serial else t["run_s"]
    ops = u["sched_executed"]
    m = {
        "harness.period_ms.p50": metric(statistics.median(t["period_ms"]), "ms"),
        "harness.period_ms.tail": metric(period_tail, "ms"),
        "harness.period_ms.tail_pct": metric(tail_pct, "%"),
        "harness.period_ms.samples": metric(len(t["period_ms"]), "count"),
        "harness.tracing_overhead": metric(t["run_s"] / u["run_s"], "ratio"),
        "sched.ops": metric(ops, "count"),
        "sched.ops_per_proc": metric(ops / procs, "ops/proc"),
        "sched.ns_per_op": metric(u["run_s"] * 1e9 / ops, "ns"),
        "sched.pending.p50": metric(statistics.median(t["pending"]), "count"),
        "sched.pending.max": metric(max(t["pending"]), "count"),
    }
    for name, value in u["net"].items():
        m[f"net.{name}"] = metric(value, "count")
    m["net.delivered_per_sent"] = metric(
        u["net"]["delivered"] / u["net"]["sent"], "ratio")
    m["net.fanout_mean"] = metric(u["net"]["sent"] / payloads, "msgs/payload")
    for k in KINDS:
        m[f"net.payloads.{k}"] = metric(t["payloads"][k], "count")
    for k in KINDS:
        m[f"wire.bytes.{k}"] = metric(t["bytes"][k], "B")
    m.update({
        "wire.bytes_per_proc": metric(total_bytes / procs, "B/proc"),
        "wire.encode_s": metric(t["encode_s"], "s"),
        "wire.decode_s": metric(t["decode_s"], "s"),
        "wire.share": metric((t["encode_s"] + t["decode_s"])
                             / (t["run_s"] * threads), "ratio"),
        "wire.off_run_s": metric(codec_off["run_s"] if codec_off
                                 else u["run_s"], "s"),
        "membership.payloads": metric(mem_payloads, "count"),
        "membership.payload_share": metric(mem_payloads / payloads, "ratio"),
        "membership.bytes_per_proc": metric(mem_bytes / procs, "B/proc"),
        "membership.tombstones": metric(u["tombstones"], "count"),
        "membership.joins_served": metric(u["joins_served"], "count"),
        "membership.joined_ratio": metric(u["joined"] / u["live"], "ratio"),
        "pmcast.payloads": metric(pm_payloads, "count"),
        "pmcast.bytes_per_proc": metric(pm_bytes / procs, "B/proc"),
        "pmcast.dup_suppressed": metric(u["dup_suppressed"], "count"),
        "pmcast.shed_events": metric(u["shed_events"], "count"),
        "pmcast.bound_collapsed": metric(u["bound_collapsed"], "count"),
        "pmcast.latency_ms_max": metric(u["latency_max_ms"], "ms"),
        "pool.threads": metric(threads, "count"),
        "pool.serial_run_s": metric(serial_run_s, "s"),
        "pool.speedup": metric(serial_run_s / t["run_s"], "x"),
        "pool.cpu_util": metric(u["cpu_s"] / (u["run_s"] * threads), "ratio"),
        "mem.bytes_per_proc": metric(u["peak_rss_bytes"] / procs, "B/proc"),
    })
    return m


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

def timed_run(binary, workload, seed, seconds, smoke):
    """--trace 0: repetitions with fresh seeds until --seconds is used up
    (at least SIM_REPS of them)."""
    threads = threads_for(workload)
    reps = []
    start = time.monotonic()
    last = 0.0
    while len(reps) < SIM_REPS or \
            time.monotonic() - start + last <= seconds:
        rep_start = time.monotonic()
        rep = run_rep(binary, workload, sub_seed(seed, len(reps)),
                      threads=threads, smoke=smoke)
        last = time.monotonic() - rep_start
        check_rep(rep)
        reps.append(rep)
    attempted, failed, metrics = end_to_end(reps)
    return reps, attempted, failed, metrics


def traced_run(binary, workload, seed, smoke):
    """--trace 1: the untraced and traced repetitions of one seed, plus the
    reruns whose outputs must match: T=1 on sharded_fleet, codec off on
    churn_wire."""
    threads = threads_for(workload)
    untraced = run_rep(binary, workload, seed, threads=threads, smoke=smoke)
    traced = run_rep(binary, workload, seed, trace=True, threads=threads,
                     smoke=smoke)
    serial = codec_off = None
    if workload == "sharded_fleet":
        serial = run_rep(binary, workload, seed, trace=True, threads=1,
                         smoke=smoke)
    if workload == "churn_wire":
        codec_off = run_rep(binary, workload, seed, codec=False, smoke=smoke)
    reps = [r for r in (untraced, traced, serial, codec_off) if r]
    for rep in reps:
        check_rep(rep)
    check_same_fingerprint(traced, untraced, "traced vs untraced")
    if serial:
        check_same_fingerprint(serial, untraced,
                               f"T=1 vs T={untraced['meta']['threads']}")
    if codec_off:
        check_same_fingerprint(codec_off, untraced, "codec off vs on")
    attempted = untraced["expected"]
    failed = attempted - untraced["delivered"]
    return reps, attempted, failed, per_layer(untraced, traced, serial,
                                              codec_off)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="reduced sizes, for perfbench/test_run.py")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    binary = build()
    try:
        if args.trace:
            reps, attempted, failed, metrics = traced_run(
                binary, args.workload, args.seed, args.smoke)
        else:
            reps, attempted, failed, metrics = timed_run(
                binary, args.workload, args.seed, args.seconds, args.smoke)
    except CheckFailed as e:
        print(f"perfbench: CHECK FAILED: {e}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    meta = dict(reps[0]["meta"], workload=args.workload, seed=args.seed,
                repetitions=len(reps), seeds=[r["seed"] for r in reps])
    print("meta " + json.dumps(meta))
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": True, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
