#!/usr/bin/env python3
"""End-to-end benchmark runner.

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 e2ebench/run.py --selftest

Run from the root of a checkout. Builds the runtime and the benchmark
binaries from source into $CARGO_TARGET_DIR (default .bench_build), runs the
workload and prints, as the last line of standard output, one JSON object:

    {"correct": true, "attempted": N, "failed": F, "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of the plain run. With
--trace 1 the workload runs twice with the same seed, plain and traced, and
the metrics are the per-layer metrics. The line before it holds the details
(sample counts, stationarity, host facts). Any build failure, correctness
mismatch or disagreement between the two runs of one seed exits non-zero
without printing a result. --selftest builds and runs the attribution
self-test of the traced binary instead.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("steady_calls", "reconfig_churn", "evolve_under_load")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880
MIN_P99_SAMPLES = 1000
MAX_UNCLAIMED_SHARE = 0.10


def fail(message):
    print("e2ebench: " + message, file=sys.stderr)
    sys.exit(1)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out):
    """Configures and builds both binaries; build output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("runtime sources (src/) not found next to " + HERE)
    jobs = str(max(1, min(3, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + generator)
    steps.append(["cmake", "--build", out, "-j", jobs])
    for step in steps:
        try:
            result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                    timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as error:
            fail("build step %s failed: %s" % (step[:2], error))
        if result.returncode != 0:
            fail("build step %s exited %d" % (step[:2], result.returncode))


def run_binary(binary, args):
    """Runs one benchmark binary; returns its E2E_REPORT object."""
    try:
        result = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                                stderr=sys.stderr, timeout=RUN_TIMEOUT_S,
                                text=True)
    except subprocess.TimeoutExpired:
        fail("%s timed out" % os.path.basename(binary))
    if result.returncode != 0:
        fail("%s exited %d" % (os.path.basename(binary), result.returncode))
    for line in reversed(result.stdout.splitlines()):
        if line.startswith("E2E_REPORT "):
            return json.loads(line[len("E2E_REPORT "):])
    fail("%s printed no report" % os.path.basename(binary))


def per(numerator, denominator, scale=1.0):
    return scale * numerator / denominator if denominator else 0.0


def end_to_end(plain):
    return {
        "setup_s": (statistics.median(plain["setup_s"]), "s"),
        "calls_per_s": (per(plain["calls"], plain["timed_host_s"]), "1/s"),
        "peak_rss_mb": (plain["peak_rss_mb"], "MiB"),
        "sim_call_ms_p50": (plain["call_ms"]["p50"], "ms"),
        "sim_call_ms_p99": (plain["call_ms"]["p99"], "ms"),
    }


def per_layer(plain, traced):
    c = plain["counts"]
    calls = plain["calls"]
    reconfigs = plain["reconfigs"]
    ops = calls + reconfigs
    kinds = plain["reconfigs_by_kind"]
    spans = traced["spans"]
    layer_self = traced["layer_self_ns"]
    kind_self = traced["layer_kind_self_ns"]

    def span_ns(name):  # mean inclusive ns of one site
        count, inclusive, _ = spans.get(name, (0, 0, 0))
        return per(inclusive, count)

    def span_total(*names):
        return sum(spans.get(n, (0, 0, 0))[1] for n in names)

    dfm_reconfig = span_total(
        "dfm.DynamicFunctionMapper::IncorporateComponent",
        "dfm.DynamicFunctionMapper::AdoptConfiguration",
        "dfm.DynamicFunctionMapper::RemapBodies",
        "dfm.DynamicFunctionMapper::RemoveComponent")
    streams = c["fetcher_streams"] + c["fetcher_coalesced"]
    lookups = c["cache_hits"] + c["cache_misses"]
    m = {
        "sim.events_per_op": (per(c["events"], ops), "count"),
        "sim.host_ns_per_event": (
            per(plain["timed_host_s"] * 1e9, c["events"]), "ns"),
        "sim.self_ns_per_op": (per(layer_self["sim"], ops), "ns"),
        "sim.net_msgs_per_call": (per(c["net_msgs"], calls), "count"),
        "sim.net_bytes_per_call": (per(c["net_bytes"], calls), "B"),
        "rpc.issue_ns_per_call": (span_ns("rpc.RpcClient::Invoke"), "ns"),
        "rpc.self_ns_per_call": (per(layer_self["rpc"], calls), "ns"),
        "rpc.dedup_evictions_per_call": (
            per(c["dedup_evictions"] + c["dedup_capacity_evictions"], calls),
            "count"),
        "rpc.dedup_hits_per_kcall": (per(c["dedup_hits"], calls, 1e3),
                                     "count"),
        "rpc.timeouts_per_kcall": (per(c["rpc_timeouts"], calls, 1e3),
                                   "count"),
        "rpc.rebinds_per_kcall": (per(c["rpc_rebinds"], calls, 1e3), "count"),
        "naming.cache_hit_ratio": (per(c["cache_hits"], lookups), "1"),
        "naming.lookups_per_kcall": (per(c["agent_lookups"], calls, 1e3),
                                     "count"),
        "naming.self_ns_per_op": (per(layer_self["naming"], ops), "ns"),
        "dfm.acquire_ns": (span_ns("dfm.DynamicFunctionMapper::Acquire"),
                           "ns"),
        "dfm.reconfig_ns_per_reconfig": (per(dfm_reconfig, reconfigs), "ns"),
        "dfm.rejected_per_kcall": (per(c["dfm_rejected"], calls, 1e3),
                                   "count"),
        "component.fetches_per_reconfig": (
            per(c["component_fetches"], reconfigs), "count"),
        "component.coalesced_ratio": (per(c["fetcher_coalesced"], streams),
                                      "1"),
        "component.self_ns_per_reconfig": (
            per(layer_self["component"], reconfigs), "ns"),
        "core.dispatch_ns_per_call": (span_ns("handler.core"), "ns"),
        "core.evolve_self_ns": (
            per(kind_self["core"]["evolve"], kinds.get("evolve", 0)), "ns"),
        "core.migrate_self_ns": (
            per(kind_self["core"]["migrate"], kinds.get("migrate", 0)), "ns"),
        "core.create_self_ns": (
            per(kind_self["core"]["create"], kinds.get("create", 0)), "ns"),
        "core.reconfigs_per_s": (per(reconfigs, plain["timed_host_s"]),
                                 "1/s"),
        "core.sim_reconfig_s_p50": (plain["reconfig_s"]["p50"], "s"),
        "core.sim_reconfig_s_p99": (plain["reconfig_s"]["p99"], "s"),
        "runtime.fom_self_ns_per_reconfig": (
            per(layer_self["runtime"], reconfigs), "ns"),
        "common.allocs_per_call": (per(c["allocs"], calls), "count"),
        "common.alloc_bytes_per_call": (per(c["alloc_bytes"], calls), "B"),
        "common.allocs_per_reconfig": (per(c["allocs"], reconfigs), "count"),
        "app.body_ns_per_call": (span_ns("app.body"), "ns"),
        "trace.overhead_ratio": (
            per(traced["timed_host_s"], plain["timed_host_s"]), "1"),
        "trace.unclaimed_share": (traced["closure"]["unclaimed_share"], "1"),
    }
    return m


# Fields of the two runs of one seed that must agree exactly: the simulation
# is deterministic and the traced binary only observes it.
DETERMINISTIC = ("calls", "calls_failed", "reconfigs", "reconfigs_failed",
                 "reconfigs_by_kind", "call_ms", "reconfig_s", "warmup_sim_s",
                 "timed_sim_s")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and None in (args.workload, args.seed, args.seconds):
        parser.error("--workload, --seed and --seconds are required")
    for var in ("DCDO_SIM_WORKERS", "DCDO_SIM_THREADS"):
        if var in os.environ:
            fail("refusing to run with %s set" % var)
    if not args.selftest and (args.seconds < 1 or args.seed < 0):
        fail("--seconds must be >= 1 and --seed >= 0")

    out = build_dir()
    build(out)
    if args.selftest:
        sys.exit(subprocess.run([os.path.join(out, "e2e_traced"),
                                 "--selftest"]).returncode)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds)]
    plain = run_binary(os.path.join(out, "e2e_plain"), common)
    if plain["call_ms"]["count"] < MIN_P99_SAMPLES:
        fail("only %d call samples; p99 needs %d" %
             (plain["call_ms"]["count"], MIN_P99_SAMPLES))

    details = {
        "workload": args.workload,
        "seed": args.seed,
        "nproc": plain["nproc"],
        "compile_flags": plain["compile_flags"],
        "setup_s_runs": plain["setup_s"],
        "warmup_sim_s": plain["warmup_sim_s"],
        "timed_sim_s": plain["timed_sim_s"],
        "timed_host_s": plain["timed_host_s"],
        "sim_call_ms": plain["call_ms"],
        "sim_reconfig_s": plain["reconfig_s"],
        "reconfigs_per_s": per(plain["reconfigs"], plain["timed_host_s"]),
        "reconfigs_by_kind": plain["reconfigs_by_kind"],
        "failed_ratio": per(plain["calls_failed"] + plain["reconfigs_failed"],
                            plain["calls"] + plain["reconfigs"]),
        # Stationarity: resident memory growth across the timed phase.
        "rss_growth_mb": plain["rss_after_mb"] - plain["rss_before_mb"],
        "counts": plain["counts"],
    }
    if args.trace:
        spans_file = os.path.join(
            out, "spans-%s-%d.json" % (args.workload, args.seed))
        traced = run_binary(os.path.join(out, "e2e_traced"),
                            common + ["--spans", spans_file])
        for field in DETERMINISTIC:
            if plain[field] != traced[field]:
                fail("plain and traced runs disagree on %s: %r != %r" %
                     (field, plain[field], traced[field]))
        # The traced binary's own allocations are the only counts it adds.
        for name, value in plain["counts"].items():
            if not name.startswith("alloc") and traced["counts"][name] != value:
                fail("plain and traced runs disagree on count %s" % name)
        if traced["open_spans"] != 0:
            fail("%d spans left open" % traced["open_spans"])
        closure = traced["closure"]
        # An invariant of the span recorder, not a measurement gate: self
        # times sum to the root by construction, so a non-zero error means
        # a span escaped the timed root (a recorder bug).
        if closure["closure_error"] != 0:
            fail("span recorder invariant broken: self times miss the timed "
                 "phase by %g" % closure["closure_error"])
        if closure["unclaimed_share"] > MAX_UNCLAIMED_SHARE:
            fail("unclaimed share %g above %g" %
                 (closure["unclaimed_share"], MAX_UNCLAIMED_SHARE))
        metrics = per_layer(plain, traced)
        details["closure"] = traced["closure"]
        # Endpoint handlers charged to no layer (the self-test requires 0).
        details["unrecognised_handlers"] = traced["unrecognised_handlers"]
        details["layer_self_ns"] = traced["layer_self_ns"]
        details["spans_file"] = os.path.relpath(spans_file, ROOT)
    else:
        metrics = end_to_end(plain)

    print(json.dumps(details, sort_keys=True))
    print(json.dumps({
        "correct": True,
        "attempted": plain["calls"] + plain["reconfigs"],
        "failed": plain["calls_failed"] + plain["reconfigs_failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
