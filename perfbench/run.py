#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the Libra simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all            # every workload, tables

Run from the repository root. Builds perfbench/ (the simulator's libraries
plus perfbench_driver) in Release under $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench), then launches one driver process per repetition:

  --trace 0  plain repetitions until --seconds have passed (at least 3); the
             end-to-end metrics are the virtual ones (identical in every
             repetition) and the medians of the host ones. Scaled-down
             (--tiny) audit repetitions follow: traced (VOP conservation;
             tracing must not move the virtual clock) and, on tenant_scale,
             at --sim-threads=2 (the engine's thread count must not either).
  --trace 1  alternating plain and traced repetitions (at least 2 each); the
             per-layer metrics come from the traced ones, with the tracing
             overhead measured against the plain ones. On tenant_scale one
             more full repetition runs at --sim-threads=2.

Every repetition checks every result; any failure, a virtual metric that
differs between repetitions of one seed, or a VOP conservation violation
makes the run incorrect (exit 1). The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}. A full report (host metadata,
per-layer table tagged with the end-to-end metric each row should move, time
slices) is written under the build directory's results/.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("provisioned_mix", "tenant_scale", "read_scan")
DRIVER_TIMEOUT_S = 150
# tenant_scale's parallel engine is timed on one worker thread (the
# barrier hand-offs of a second one add host noise far above the bounds on
# a shared 4-core machine) and checked bit-for-bit against two.
CHECK_THREADS = 2

# name -> (unit, better). Virtual metrics repeat exactly for a seed.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "sim_req_per_s": ("1/s", "higher"),
    "cpu_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "v_get_mean_ms": ("ms", "lower"),
    "v_get_p99_ms": ("ms", "lower"),
    "v_put_mean_ms": ("ms", "lower"),
    "v_put_p99_ms": ("ms", "lower"),
    "v_goodput_kreq_s": ("kreq/s", "higher"),
    "reservation_attainment": ("ratio", "higher"),
    "vop_per_req": ("VOP/req", "lower"),
    "write_amp": ("ratio", "lower"),
    "space_amp": ("ratio", "lower"),
}
HOST_E2E = ("setup_s", "sim_req_per_s", "cpu_s", "peak_rss_mb")

PM, TS, RS = "provisioned_mix", "tenant_scale", "read_scan"
ALL = "every workload"


def _iosched_rows():
    rows = {}
    for cls in ("get", "put", "scan", "flush", "compact"):
        moves = ("reservation_shortfall, v_get_p99_ms", PM)
        if cls in ("put", "flush", "compact"):
            moves = ("v_put_p99_ms, reservation_shortfall", PM)
        if cls == "scan":
            moves = ("v_scan_p99_ms", RS)
        for kind in ("queue_wait", "service"):
            for q in ("p50", "p99"):
                rows["iosched.%s.%s_%s_ms" % (cls, kind, q)] = (
                    "ms", "lower") + moves
    return rows


# name -> (unit, better, end-to-end metric it should move, where it shows)
PER_LAYER = {
    "cluster.add_tenant_us_p50": ("us", "lower", "setup_s", TS + "; flat on " + PM),
    "cluster.add_tenant_us_max": ("us", "lower", "setup_s", TS + "; flat on " + PM),
    "cluster.rpcs_per_req": ("count", "lower", "sim_req_per_s", TS + ", " + RS),
    "cluster.rebalances": ("count", "lower", "reservation_shortfall", PM),
    "kv.get_p99_ms": ("ms", "lower", "v_get_p99_ms (client minus node = routing + RPC)", TS),
    "kv.put_p99_ms": ("ms", "lower", "v_put_p99_ms (client minus node = routing + RPC)", TS),
    "kv.scan_p99_ms": ("ms", "lower", "v_scan_p99_ms (client minus node = routing + RPC)", RS),
    "lsm.flushes": ("count", "lower", "sim_req_per_s, write_amp", PM),
    "lsm.compactions": ("count", "lower", "sim_req_per_s, write_amp", PM),
    "lsm.flush_bytes": ("B", "lower", "sim_req_per_s, write_amp", PM),
    "lsm.compact_bytes_read": ("B", "lower", "sim_req_per_s, write_amp", PM),
    "lsm.compact_bytes_written": ("B", "lower", "sim_req_per_s, write_amp", PM),
    "lsm.stall_ns": ("ns", "lower", "v_put_p99_ms", PM),
    "lsm.tables_probed_per_get": ("count", "lower", "vop_per_req, v_get_p99_ms", RS + "; flat on " + TS),
    "lsm.bloom_negative_ratio": ("ratio", "higher", "vop_per_req, v_get_p99_ms", RS + "; flat on " + TS),
    "lsm.data_block_reads_per_get": ("count", "lower", "vop_per_req, v_get_p99_ms", RS + "; flat on " + TS),
    "lsm.bcache_hit_ratio": ("ratio", "higher", "vop_per_req, v_get_p99_ms", RS + "; flat on " + TS),
    "fs.bytes_used": ("B", "lower", "space_amp", ALL),
    "fs.files": ("count", "lower", "space_amp", ALL),
    **_iosched_rows(),
    "iosched.rounds_per_op": ("count", "lower", "sim_req_per_s", TS + "; little on " + PM),
    "iosched.vops_per_req.get": ("VOP/req", "lower", "vop_per_req", ALL),
    "iosched.vops_per_req.put": ("VOP/req", "lower", "vop_per_req", ALL),
    "iosched.vops_per_req.scan": ("VOP/req", "lower", "vop_per_req", RS),
    "ssd.reads": ("count", "lower", "write_amp, v_put_p99_ms", PM),
    "ssd.writes": ("count", "lower", "write_amp, v_put_p99_ms", PM),
    "ssd.write_bytes": ("B", "lower", "write_amp, v_put_p99_ms", PM),
    "ssd.gc_pages_moved": ("count", "lower", "write_amp, v_put_p99_ms", PM),
    "ssd.ftl_write_amp": ("ratio", "lower", "write_amp, v_put_p99_ms", PM),
    "ssd.avg_queue_depth": ("count", "lower", "write_amp, v_put_p99_ms", PM),
    "sim.events": ("count", "lower", "sim_req_per_s", ALL),
    "sim.host_ns_per_event": ("ns", "lower", "sim_req_per_s", ALL),
    "sim.epochs": ("count", "lower", "cpu_s, sim_req_per_s", TS + "; zero on the serial workloads"),
    "sim.messages_per_epoch": ("count", "higher", "cpu_s, sim_req_per_s", TS + "; zero on the serial workloads"),
    "sim.host_ns_per_epoch": ("ns", "lower", "cpu_s, sim_req_per_s", TS + "; zero on the serial workloads"),
    "host.calibrate_s": ("s", "lower", "setup_s", ALL),
    "host.add_tenants_s": ("s", "lower", "setup_s", TS),
    "host.preload_s": ("s", "lower", "setup_s", PM + ", " + RS),
    "host.run_s": ("s", "lower", "sim_req_per_s", ALL),
    "host.snapshot_s": ("s", "lower", "setup_s", ALL),
    "host.verify_s": ("s", "lower", "setup_s", ALL),
    "host.rss_after_setup_mb": ("MB", "lower", "peak_rss_mb", TS),
    "host.trace_overhead": ("ratio", "lower", "(traced / plain host.run_s)", ALL),
    "v_get_p50_ms": ("ms", "lower", "v_get_mean_ms", ALL),
    "v_put_p50_ms": ("ms", "lower", "v_put_mean_ms", ALL),
    "v_scan_mean_ms": ("ms", "lower", "v_goodput_kreq_s", RS),
    "v_scan_p50_ms": ("ms", "lower", "v_goodput_kreq_s", RS),
    "v_scan_p99_ms": ("ms", "lower", "v_goodput_kreq_s", RS),
    "client.get_samples": ("count", "higher", "v_get_p99_ms (sample count)", ALL),
    "client.put_samples": ("count", "higher", "v_put_p99_ms (sample count)", ALL),
    "client.scan_samples": ("count", "higher", "v_scan_p99_ms (sample count)", RS),
    "client.max_lag_ms": ("ms", "lower", "v_put_mean_ms (open-loop generator lateness)", TS),
    "reservation_shortfall": ("ratio", "lower", "reservation_attainment", PM),
    "reservation_worst_group": ("ratio", "higher", "reservation_attainment", PM),
    "bench.error_rate": ("ratio", "lower", "correct", ALL),
    "span.requests": ("count", "higher", "(sampled traces)", ALL),
    "span.route_rpc_share": ("ratio", "lower", "v_get_mean_ms, v_put_mean_ms", TS),
    "span.node_other_share": ("ratio", "lower", "v_put_mean_ms", PM),
    "span.device_io_share": ("ratio", "lower", "v_get_mean_ms, v_put_mean_ms", PM + ", " + RS),
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out_dir):
    """Configures (once) and builds perfbench_driver; returns its path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out_dir, "--target", "perfbench_driver",
                  "-j", jobs])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           text=True)
        if r.returncode != 0:
            log(r.stdout[-4000:])
            raise SystemExit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(out_dir, "perfbench_driver")


def source_identity():
    """Commit when the checkout is a git repository, else a digest of src/."""
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                           text=True, timeout=10)
        if r.returncode == 0 and r.stdout.strip():
            return r.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for base, dirs, files in os.walk(os.path.join(ROOT, "src")):
        dirs.sort()
        for f in sorted(files):
            p = os.path.join(base, f)
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as fh:
                h.update(fh.read())
    return "src-sha256:" + h.hexdigest()[:16]


def run_driver(driver, workload, seed, traced=False, threads=1, extra=()):
    cmd = [driver, "--workload=" + workload, "--seed=%d" % seed,
           "--sim-threads=%d" % threads] + (["--traced"] if traced else [])
    cmd += list(extra)
    r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       text=True, timeout=DRIVER_TIMEOUT_S)
    if r.stderr:
        log(r.stderr.rstrip())
    if r.returncode not in (0, 1):
        raise SystemExit("perfbench: driver exited %d: %s"
                         % (r.returncode, " ".join(cmd)))
    rep = json.loads(r.stdout.strip().splitlines()[-1])
    rep["exit_code"] = r.returncode
    rep["threads"] = threads
    return rep


def collect(driver, workload, seed, seconds, trace, extra=()):
    """Runs the repetitions of one benchmark run.

    Returns (plain, traced, checks): full-size plain and traced repetitions,
    and the extra repetitions that only feed the correctness and
    determinism gates. Every repetition in a group must agree exactly on
    its virtual metrics.
    """
    plain, traced, checks = [], [], []
    start = time.monotonic()
    if trace:
        while (time.monotonic() - start < seconds
               or len(plain) < 2 or len(traced) < 2):
            plain.append(run_driver(driver, workload, seed, extra=extra))
            traced.append(run_driver(driver, workload, seed, True, extra=extra))
        if workload == "tenant_scale":
            # The engine's worker threads must not change any answer.
            plain.append(run_driver(driver, workload, seed,
                                    threads=CHECK_THREADS, extra=extra))
    else:
        while time.monotonic() - start < seconds or len(plain) < 3:
            plain.append(run_driver(driver, workload, seed, extra=extra))
        # Scaled-down audit: VOP conservation needs the span collector, and
        # tracing (and the engine's thread count) must not move the virtual
        # clock. Cheap, so the timed repetitions stay untraced.
        tiny = tuple(extra) + ("--tiny",)
        checks.append(run_driver(driver, workload, seed, extra=tiny))
        checks.append(run_driver(driver, workload, seed, True, extra=tiny))
        if workload == "tenant_scale":
            checks.append(run_driver(driver, workload, seed,
                                     threads=CHECK_THREADS, extra=tiny))
    return plain, traced, checks


def determinism_errors(group, what):
    errors = []
    ref = group[0]
    for r in group[1:]:
        for k, v in ref["virtual"].items():
            if r["virtual"].get(k) != v:
                errors.append("%s: %s differs: %r (%s, %d threads) vs %r"
                              % (what, k, r["virtual"].get(k), r["mode"],
                                 r["threads"], v))
        if r["mode"] == "traced" and ref["mode"] == "traced":
            for k, v in ref["layer_virtual"].items():
                if r["layer_virtual"].get(k) != v:
                    errors.append("%s: per-layer %s differs between traced "
                                  "runs: %r vs %r"
                                  % (what, k, r["layer_virtual"].get(k), v))
    return errors


def median(reps, section, key):
    return statistics.median(r[section][key] for r in reps)


def summarize(workload, seed, trace, plain, traced, checks):
    reps = plain + traced + checks
    attempted = sum(r["attempted"] for r in reps)
    bad = sum(r["failed"] + r["wrong"] for r in reps)
    violations = sum(r["conservation_violations"] for r in reps)
    cells = sum(r["conservation_cells"] for r in reps)
    errors = determinism_errors(plain + traced, "runs of one seed")
    errors += determinism_errors(traced, "traced runs") if len(traced) > 1 \
        else []
    if checks:
        errors += determinism_errors(checks, "audit runs")
    if violations:
        errors.append("%d VOP conservation violations" % violations)
    if cells == 0:
        errors.append("VOP conservation was not checked (no attributed cells)")
    if bad:
        errors.append("%d failed or wrong operations" % bad)
    for e in errors:
        log("perfbench: INCORRECT: " + e)

    timed = [r for r in plain if r["threads"] == plain[0]["threads"]]
    e2e = {}
    for k in END_TO_END:
        if k in HOST_E2E:
            e2e[k] = median(timed, "host", k)
        else:
            e2e[k] = plain[0]["virtual"][k]
    layer = {}
    if trace:
        layer.update(traced[0]["layer_virtual"])
        for k in traced[0]["layer_host"]:
            layer[k] = median(traced, "layer_host", k)
        run_plain = median(timed, "layer_host", "host.run_s")
        layer["host.trace_overhead"] = (
            median(traced, "layer_host", "host.run_s") / run_plain
            if run_plain > 0 else 0.0)
        layer["bench.error_rate"] = bad / attempted if attempted else 0.0
        missing = [k for k in PER_LAYER if k not in layer]
        if missing:
            errors.append("per-layer metrics missing: " + ", ".join(missing))
            log("perfbench: INCORRECT: per-layer metrics missing: "
                + ", ".join(missing))
        layer = {k: layer[k] for k in PER_LAYER if k in layer}
    return {
        "workload": workload, "seed": seed, "trace": trace,
        "correct": not errors, "errors": errors,
        "attempted": attempted, "failed": bad + violations,
        "repetitions": {"timed": len(timed), "traced": len(traced),
                        "audit": len(checks) + len(plain) - len(timed)},
        "meta": plain[0]["meta"], "config": plain[0]["config"],
        "end_to_end": e2e, "per_layer": layer,
        "samples": {k: plain[0]["layer_virtual"][k] for k in (
            "client.get_samples", "client.put_samples", "client.scan_samples")},
        "p50": {k: plain[0]["layer_virtual"][k] for k in (
            "v_get_p50_ms", "v_put_p50_ms", "v_scan_p50_ms")},
        "shortfall": plain[0]["layer_virtual"]["reservation_shortfall"],
        "host_runs": {k: [r["host"][k] for r in timed] for k in HOST_E2E},
        "series": (traced or plain)[0]["series"],
    }


def print_tables(s):
    print("== perfbench %s  seed %d  trace %d  (%s) =="
          % (s["workload"], s["seed"], s["trace"],
             "correct" if s["correct"] else "INCORRECT"))
    m = s["meta"]
    print("host: nproc %s, %s, %s build, source %s"
          % (m["nproc"], m["compiler"], m["build_type"], m["source"]))
    print("config: " + json.dumps(s["config"], sort_keys=True))
    print("repetitions: %(timed)d timed, %(traced)d traced, %(audit)d audit"
          % s["repetitions"])
    print("%-24s %14s  %-8s %s" % ("end-to-end metric", "value", "unit", "note"))
    samples = {"get": s["samples"]["client.get_samples"],
               "put": s["samples"]["client.put_samples"]}
    for k, v in s["end_to_end"].items():
        note = "median of %d runs" % s["repetitions"]["timed"] \
            if k in HOST_E2E else "virtual clock"
        for cls in ("get", "put"):
            if k.startswith("v_%s_" % cls):
                note += ", n=%d, p50 %.4f ms" % (
                    samples[cls], s["p50"]["v_%s_p50_ms" % cls])
        print("%-24s %14.6g  %-8s %s" % (k, v, END_TO_END[k][0], note))
    print("%-24s %14.6g  %-8s %s" % (
        "reservation_shortfall", s["shortfall"], "ratio",
        "worst tenant: max(0, 1 - achieved / reserved)"))
    print("%-24s %14.6g  %-8s %d failed of %d attempted" % (
        "error_rate", s["failed"] / max(1, s["attempted"]), "ratio",
        s["failed"], s["attempted"]))
    if s["per_layer"]:
        print("%-34s %14s  %-8s %-40s %s" % ("per-layer metric", "value", "unit",
                                             "moves", "shows on"))
        for k, v in s["per_layer"].items():
            unit, _, moves, where = PER_LAYER[k]
            print("%-34s %14.6g  %-8s %-40s %s" % (k, v, unit, moves, where))


def run_one(driver, workload, seed, seconds, trace, source, extra=()):
    plain, traced, checks = collect(driver, workload, seed, seconds, trace,
                                    extra)
    s = summarize(workload, seed, trace, plain, traced, checks)
    s["meta"]["source"] = source
    out = os.path.join(build_dir(), "results")
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, "%s-seed%d-trace%d.json" % (workload, seed, trace))
    rows = [{"metric": k, "value": v, "unit": PER_LAYER[k][0],
             "moves": PER_LAYER[k][2], "shows_on": PER_LAYER[k][3]}
            for k, v in s["per_layer"].items()]
    with open(path, "w") as fh:
        json.dump(dict(s, per_layer_table=rows), fh, indent=1, sort_keys=True)
    print_tables(s)
    print("report: " + os.path.relpath(path, ROOT))
    return s


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="scaled-down sizes (smoke tests)")
    ap.add_argument("--corrupt-expectation", action="store_true",
                    help="test hook: one expected value is wrong, so the "
                         "correctness gate must fail the run")
    args = ap.parse_args()

    driver = build(build_dir())
    source = source_identity()
    extra = (("--tiny",) if args.tiny else ()) + (
        ("--corrupt-expectation",) if args.corrupt_expectation else ())
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    summaries = [run_one(driver, w, args.seed, args.seconds, args.trace,
                         source, extra) for w in names]

    metrics = {}
    for s in summaries:
        prefix = "" if len(summaries) == 1 else s["workload"] + "."
        values = s["per_layer"] if args.trace else s["end_to_end"]
        units = PER_LAYER if args.trace else END_TO_END
        for k, v in values.items():
            metrics[prefix + k] = {"value": v, "unit": units[k][0]}
    correct = all(s["correct"] for s in summaries)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
