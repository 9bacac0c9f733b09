#!/usr/bin/env python3
"""Prism's end-to-end benchmark.

Run from the root of a Prism checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --goldens            # regenerate perfbench/goldens
    python3 perfbench/run.py --collision-check    # the seed's known key collision
    python3 perfbench/run.py --compare A.json B.json

Builds Prism through perfbench/CMakeLists.txt into $CARGO_TARGET_DIR
(default .bench_build), runs one workload, checks every output against
the goldens in perfbench/goldens, and prints one JSON object as the last
line: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end metrics of BENCHMARK.json, with --trace 1 its
per-layer metrics: those the workload's driver produced (PRODUCES below;
a missing one fails the run) and 0 for layers the workload does not
exercise. Earlier lines carry the host/build fingerprint and a report
with the workload-specific numbers; the same record is written to
<build>/results/ for --compare, which refuses records whose CPUs, CPU
model, build type or compiler differ, and prints both commits.

Workloads (BENCHMARK.json says why each exists):
  cold_sweep   DesignSearch over the six fixed cores x 16 BSA subsets,
               no disk cache, RAM tier cleared before each pass.
  warm_search  fresh processes over an artifact cache that set-up filled
               with the RAM tier off; the timed phase must compute nothing.
  serve_mixed  prism_serve under a seeded open-loop request mix.
  validate     the Table 1 rows plus sampled CPI on every (workload,
               IO2/OOO2) row.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREADS = min(4, len(os.sched_getaffinity(0)))
WORKLOADS = ("cold_sweep", "warm_search", "serve_mixed", "validate")
CHILD_TIMEOUT_S = 170
# Fingerprint fields that must match before two results are compared
# (the commit is recorded and printed, but parent and change differ in
# it by definition).
HOST_BUILD = ("cpus", "cpu_model", "build_type", "compiler")

# The per-layer metrics each workload's traced run produces. A run
# whose driver record lacks one of them fails; per-layer metrics of
# layers a workload does not exercise print as 0.
_SEARCH = ["load.calls", "load.busy_s", "load.minsts_per_s",
           "load.cached_frac", "basecore.calls", "basecore.busy_s",
           "basecore.minsts_per_s", "regioneval.calls",
           "regioneval.simd.busy_s", "regioneval.dpcgra.busy_s",
           "regioneval.nsdf.busy_s", "regioneval.tracep.busy_s",
           "analyzer.calls", "analyzer.busy_s", "compose.calls",
           "compose.busy_s", "compose.ns_per_call", "search.load_s",
           "search.prepare_s", "search.run_s", "search.export_s"]
_RAM = ["ram.hits", "ram.misses", "ram.evictions", "ram.resident_mb",
        "ram.hit_ratio"]
_ARTIFACT = [f"artifact.{kind}.{stat}"
             for kind in ("trace", "tdgprof", "basecore", "regioneval")
             for stat in ("hits", "misses", "rejected", "read_mb",
                          "written_mb")] + ["artifact.hit_ratio"]
_RECONCILE = ["pool.util", "pool.straggler_s", "trace.overhead_frac",
              "reconcile.gap_frac"]
_COMMON = ["op.p50_us", "op.p99_us", "fail_frac"]
PRODUCES = {
    "cold_sweep": _SEARCH + _RAM + _RECONCILE + _COMMON,
    "warm_search": _SEARCH + _RAM + _ARTIFACT + _RECONCILE + _COMMON,
    "serve_mixed": _RAM + _COMMON + [
        "serve.queue_high_water", "serve.busy_rejected", "serve.mean_batch",
        "serve.service_us_mean", "serve.offered_qps", "serve.max_qps",
        "serve.cold_p50_ms", "serve.p99_cold_mix_us",
        "loadgen.lag_p99_us"],
    "validate": _RECONCILE + _COMMON + [
        "load.calls", "load.busy_s", "load.minsts_per_s", "analyzer.calls",
        "analyzer.busy_s", "refsim.calls", "refsim.busy_s",
        "refsim.minsts_per_s", "udg.busy_s", "sampled.busy_s",
        "sampled.coverage", "sampled.ci_miss_frac", "stream.busy_s",
        "validate.model_err_pct"],
}
# Produced metrics that count rare events, so 0 is a normal reading.
MAY_BE_ZERO = {"fail_frac", "reconcile.gap_frac", "sampled.ci_miss_frac",
               "ram.hits", "ram.hit_ratio", "ram.evictions",
               "serve.busy_rejected", "load.cached_frac"} | {
    n for n in _ARTIFACT
    if n.endswith((".misses", ".rejected", ".written_mb"))}


def die(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else ROOT / d


def build():
    """Configure once, then (incrementally) build the two binaries."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        die("not run from a Prism checkout (no src/CMakeLists.txt)", 2)
    out = build_dir()
    if not (out / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(out),
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(out), "-j", str(THREADS), "--target",
         "perfbench_driver", "prism_serve"],
        check=True, stdout=sys.stderr)
    return out / "perfbench_driver", out / "prism" / "src" / "prism_serve"


def fingerprint(out):
    cache = (out / "CMakeCache.txt").read_text()

    def cache_var(name):
        m = re.search(rf"^{name}:\w+=(.*)$", cache, re.M)
        return m.group(1) if m else ""

    compiler = cache_var("CMAKE_CXX_COMPILER")
    version = subprocess.run([compiler, "--version"], capture_output=True,
                             text=True).stdout.splitlines()[:1]
    model = ""
    for line in Path("/proc/cpuinfo").read_text().splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    return {
        "cpus": len(os.sched_getaffinity(0)),
        "cpu_model": model or platform.processor(),
        "build_type": cache_var("CMAKE_BUILD_TYPE"),
        "compiler": version[0] if version else compiler,
        "commit": source_identity(),
    }


def source_identity():
    """git HEAD when the checkout is a repository, else a digest of
    the sources the benchmark builds and runs."""
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            return r.stdout.strip()
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for top in ("src", "perfbench"):
        files += sorted(p for p in (ROOT / top).rglob("*")
                        if p.is_file() and "__pycache__" not in p.parts)
    for p in files:
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return "tree-" + h.hexdigest()[:16]


class Child:
    """A child process whose peak RSS we read when reaping it."""

    def __init__(self, cmd, env=None):
        full_env = dict(os.environ)
        full_env.update(env or {})
        self.proc = subprocess.Popen([str(c) for c in cmd], cwd=ROOT,
                                     env=full_env, stdout=subprocess.PIPE,
                                     text=True)
        self.maxrss_mb = 0.0
        self.code = None

    def reap(self, timeout=CHILD_TIMEOUT_S):
        timer = threading.Timer(timeout, self.proc.kill)
        timer.start()
        try:
            _, status, ru = os.wait4(self.proc.pid, 0)
        finally:
            timer.cancel()
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.code = self.proc.returncode
        self.maxrss_mb = ru.ru_maxrss / 1024.0
        return self.code

    def stop(self):
        if self.code is None:
            self.proc.send_signal(signal.SIGTERM)
            timer = threading.Timer(60, self.proc.kill)
            timer.start()
            try:
                self.proc.stdout.read()
            finally:
                timer.cancel()
            self.reap(60)


def driver(exe, mode, args, env=None):
    """Run one driver phase; returns (record, peak RSS MiB)."""
    child = Child([exe, mode, f"--threads={THREADS}"] + args, env)
    out = child.proc.stdout.read()
    code = child.reap()
    if code == 3:
        die(f"{mode}: warm assertion failed (see stderr)", 3)
    if code != 0:
        die(f"{mode}: driver exited with {code}")
    return json.loads(out.strip().splitlines()[-1]), child.maxrss_mb


def pct(samples, q):
    """Nearest-rank percentile, as the driver computes it."""
    if not samples:
        return 0.0
    s = sorted(samples)
    return s[max(0, min(len(s) - 1, math.ceil(q * len(s)) - 1))]


def merge(records):
    out = {"attempted": 0, "failed": 0, "failures": [], "values": {},
           "samples": {}}
    for r in records:
        out["attempted"] += r["attempted"]
        out["failed"] += r["failed"]
        out["failures"] += r["failures"]
        out["values"].update(r["values"])
        for k, v in r["samples"].items():
            out["samples"].setdefault(k, []).extend(v)
    return out


def common_metrics(rec, rss):
    """The end-to-end metrics, plus the workload's per-operation
    latency percentiles (reported, see BENCHMARK.json's per-layer
    list)."""
    s = rec["samples"]
    if s.get("op_us"):
        rec["values"]["op.p50_us"] = pct(s["op_us"], 0.50)
        rec["values"]["op.p99_us"] = pct(s["op_us"], 0.99)
    return {
        "setup_s": statistics.median(s["setup_s"]),
        "wall_s": statistics.median(s["wall_s"]),
        "peak_rss_mb": rss,
    }


def run_cold_sweep(exe, args, state):
    rec, rss = driver(exe, "sweep", args.common + [
        f"--spans={state / 'spans-cold_sweep.csv'}"])
    return rec, common_metrics(rec, rss)


def run_warm_search(exe, args, state):
    """Set-up fills a fresh cache three times (RAM tier off); each
    timed phase is a fresh process over the last one."""
    setups, ref = [], state / "warm-ref.csv"
    cache = state / "warm-cache"
    try:
        for _ in range(3):
            shutil.rmtree(cache, ignore_errors=True)
            r, _ = driver(exe, "populate", [
                f"--seed={args.seed}", f"--cache-dir={cache}",
                f"--ref={ref}"], env={"PRISM_RAM_CACHE_MB": "0"})
            setups.append(r["values"]["setup_s"])
        records, rss = [], []
        start = time.monotonic()
        while len(records) < 5 or time.monotonic() - start < args.seconds:
            r, m = driver(exe, "warm", [
                f"--seed={args.seed}", f"--cache-dir={cache}",
                f"--ref={ref}"])
            records.append(r)
            rss.append(m)
        if args.trace:
            r, _ = driver(exe, "warm", [
                f"--seed={args.seed}", f"--cache-dir={cache}",
                f"--ref={ref}", "--trace=1",
                f"--spans={state / 'spans-warm_search.csv'}"])
            records.append(r)
    finally:
        shutil.rmtree(cache, ignore_errors=True)
    rec = merge(records)
    rec["samples"]["setup_s"] = setups
    rec["samples"]["wall_s"] = [r["values"]["wall_s"] for r in records]
    return rec, common_metrics(rec, statistics.median(rss))


def boot(serve, names):
    """Start prism_serve; returns (child, port, seconds to ready)."""
    t0 = time.monotonic()
    child = Child([serve, "--port=0", f"--threads={THREADS}",
                   f"--workloads={names}"])
    port = None
    deadline = threading.Timer(120, child.proc.kill)
    deadline.start()
    try:
        for line in child.proc.stdout:
            m = re.search(r"listening on 127\.0\.0\.1:(\d+)", line)
            if m:
                port = int(m.group(1))
            if "ready" in line:
                return child, port, time.monotonic() - t0
    finally:
        deadline.cancel()
    child.reap()
    die("prism_serve exited before it was ready")


def run_serve_mixed(exe, serve, args, state):
    """Three daemons, each booted (set-up) and then measured for a third
    of the run: a daemon's thread placement moves its throughput, so
    every serve metric is a median over instances."""
    names = subprocess.run([str(exe), "suite"], capture_output=True,
                           text=True, check=True).stdout.strip()
    setups, records, rss = [], [], []
    share = max(1, args.seconds // 3)
    for i in range(3):
        daemon, port, ready_s = boot(serve, names)
        try:
            setups.append(ready_s)
            r, _ = driver(exe, "loadgen", [
                f"--seed={args.seed * 3 + i}", f"--seconds={share}",
                f"--trace={args.trace}", f"--goldens={HERE / 'goldens'}",
                f"--port={port}"])
        finally:
            daemon.stop()
        if r["values"].get("invalid"):
            die("load generator fell behind its lag bound; run invalid")
        records.append(r)
        rss.append(daemon.maxrss_mb)
    rec = merge(records)
    rec["samples"]["setup_s"] = setups
    metrics = common_metrics(rec, statistics.median(rss))
    v = rec["values"]
    # The tail is the median of per-window p99s (one host stall moves
    # one window only).
    v["op.p99_us"] = statistics.median(rec["samples"]["op_p99_us"])
    for name in ("max_qps", "loadgen.lag_p99_us", "serve.p99_cold_mix_us",
                 "serve.offered_qps", "serve.mean_batch",
                 "serve.service_us_mean"):
        if name in v:
            v[name] = statistics.median(r["values"][name] for r in records)
    if rec["samples"].get("cold_ms"):
        v["serve.cold_p50_ms"] = pct(rec["samples"]["cold_ms"], 0.5)
    if "max_qps" in v:
        v["serve.max_qps"] = v["max_qps"]
    return rec, metrics


def run_validate(exe, args, state):
    rec, rss = driver(exe, "validate", args.common + [
        f"--spans={state / 'spans-validate.csv'}"])
    rec["values"]["validate.model_err_pct"] = rec["values"]["model_err_pct"]
    return rec, common_metrics(rec, rss)


def spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        die("BENCHMARK.json not found at the checkout root", 2)
    return json.loads(path.read_text())


def layer_values(workload, values, table):
    """The per-layer metrics of one traced run, by name: what the
    driver produced for `workload` (a missing one is an error, never a
    silent 0), and 0 for layers the workload does not exercise."""
    produced = PRODUCES[workload]
    missing = [n for n in produced if n not in values]
    if missing:
        die(f"{workload}: the driver did not produce {', '.join(missing)}")
    return {m["name"]: values[m["name"]] if m["name"] in produced else 0.0
            for m in table}


def run(args):
    bench = spec()
    exe, serve = build()
    fp = fingerprint(build_dir())
    state = build_dir() / "state"
    state.mkdir(parents=True, exist_ok=True)
    args.common = [f"--seed={args.seed}", f"--seconds={args.seconds}",
                   f"--trace={args.trace}",
                   f"--goldens={HERE / 'goldens'}"]
    if args.workload == "cold_sweep":
        rec, e2e = run_cold_sweep(exe, args, state)
    elif args.workload == "warm_search":
        rec, e2e = run_warm_search(exe, args, state)
    elif args.workload == "serve_mixed":
        rec, e2e = run_serve_mixed(exe, serve, args, state)
    else:
        rec, e2e = run_validate(exe, args, state)

    rec["values"]["fail_frac"] = rec["failed"] / max(1, rec["attempted"])
    for name, samples in rec["samples"].items():
        if name.startswith("search."):
            rec["values"][name] = statistics.median(samples)
    if args.trace:
        table = bench["per_layer"]
        values = layer_values(args.workload, rec["values"], table)
    else:
        table = bench["end_to_end"]
        values = e2e
    metrics = {m["name"]: {"value": float(values[m["name"]]),
                           "unit": m["unit"]} for m in table}
    report = {k: v for k, v in rec["values"].items()
              if k in ("op.p50_us", "op.p99_us", "serve.max_qps",
                       "serve.offered_qps", "serve.mean_batch",
                       "serve.cold_p50_ms", "serve.p99_cold_mix_us",
                       "loadgen.lag_p99_us", "validate.model_err_pct",
                       "sampled.ci_miss_frac", "fail_frac",
                       "reconcile.gap_frac", "trace.overhead_frac")}
    result = {"correct": rec["failed"] == 0, "attempted": rec["attempted"],
              "failed": rec["failed"], "metrics": metrics}
    for failure in rec["failures"]:
        print(f"perfbench: failed: {failure}", file=sys.stderr)
    results = build_dir() / "results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                              "fingerprint": fp, "report": report,
                              **result}, indent=1))
    print("fingerprint: " + json.dumps(fp))
    print("report: " + json.dumps(report))
    print(json.dumps(result))


def compare(a_path, b_path):
    a, b = (json.loads(Path(p).read_text()) for p in (a_path, b_path))
    diff = [k for k in HOST_BUILD
            if a["fingerprint"].get(k) != b["fingerprint"].get(k)]
    if diff:
        die("refusing to compare results from different hosts or builds "
            f"(fingerprints differ in: {', '.join(diff)})")
    if a["workload"] != b["workload"]:
        die("refusing to compare different workloads")
    print(f"{'commit':32s} {a['fingerprint'].get('commit')} -> "
          f"{b['fingerprint'].get('commit')}")
    for name, m in a["metrics"].items():
        other = b["metrics"].get(name)
        if other is None:
            continue
        ratio = other["value"] / m["value"] if m["value"] else float("nan")
        print(f"{name:32s} {m['value']:14.6g} {other['value']:14.6g} "
              f"{ratio:8.3f}x {m['unit']}")


def goldens():
    exe, _ = build()
    code = subprocess.run(
        [str(exe), "goldens", f"--threads={THREADS}",
         f"--goldens={HERE / 'goldens'}"],
        env=dict(os.environ, PRISM_RAM_CACHE_MB="0"), cwd=ROOT,
        stdout=subprocess.DEVNULL).returncode
    sys.exit(code)


def collision_check():
    """Run the twin pairs whose component keys collide, with the RAM
    tier on and (as the control) off, and report the gate's count. The
    last line is {"ram_on": {...}, "ram_off": {...}} with each leg's
    attempted and failed counts."""
    exe, _ = build()
    twins = "--workloads=181.mcf,429.mcf,256.bzip2,401.bzip2"
    result = {}
    for ram in (None, "0"):
        env = {"PRISM_RAM_CACHE_MB": ram} if ram else None
        rec, _ = driver(exe, "sweep", [twins, "--seconds=1",
                                       f"--goldens={HERE / 'goldens'}"], env)
        label = "RAM tier off" if ram else "RAM tier on "
        print(f"{label}: {rec['failed']} of {rec['attempted']} results "
              f"differ from the goldens {rec['failures'][:2]}")
        result["ram_off" if ram else "ram_on"] = {
            "attempted": rec["attempted"], "failed": rec["failed"]}
    print(json.dumps(result))


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--goldens", action="store_true")
    p.add_argument("--collision-check", action="store_true")
    p.add_argument("--compare", nargs=2, metavar="RESULT")
    args = p.parse_args()
    if args.compare:
        compare(*args.compare)
    elif args.goldens:
        goldens()
    elif args.collision_check:
        collision_check()
    elif args.workload:
        if args.seed < 0 or args.seconds < 1:
            die("--seed must be >= 0 and --seconds >= 1", 2)
        run(args)
    else:
        p.error("one of --workload, --goldens, --collision-check or "
                "--compare is required")


if __name__ == "__main__":
    main()
