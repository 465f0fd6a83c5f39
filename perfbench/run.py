#!/usr/bin/env python3
"""The repository benchmark: build vcbbench, run one workload, report.

    python3 perfbench/run.py --workload suite_full --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-check

Builds the benchmark package (perfbench/CMakeLists.txt, which builds the
repository's vcb library from the parent directory) into $CARGO_TARGET_DIR
or .bench_build, runs one workload in one vcbbench process with
VCB_THREADS=1, and prints a run header line and then, as the last line,
one JSON result: {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list.

Hang guard: vcbbench prints one record per finished operation.  If no
record arrives within the ceiling, the process is killed, the operation
in flight counts as failed, and the result is built from the records
that did arrive.  See README.md for the workloads and metric meanings.
"""

import argparse
import json
import os
import queue
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

FIRST_OP_CEILING_S = 120  # set-up plus the first operation
OP_CEILING_S = 60         # between two operation records
RUN_CEILING_S = 170       # the whole vcbbench process


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure (once) and build vcbbench; returns its path or None."""
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = ROOT / build_dir
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir)])
    jobs = str(min(os.cpu_count() or 1, 4))
    steps.append(["cmake", "--build", str(build_dir), "--target", "vcbbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            log("build failed")
            return None
    return build_dir / "vcbbench"


def git_commit():
    """HEAD of the checkout when it is a git work tree itself (git would
    otherwise search the directories above it)."""
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown (not a git checkout)"


def run_vcbbench(exe, workload, seed, seconds, trace, extra=()):
    """Run one vcbbench process under the hang guard.

    Returns (records, guard_failure): the JSON records it printed, and a
    string naming the failure when it hung, crashed or overran.
    """
    cmd = [str(exe), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace)),
           "--repo", str(ROOT), *extra]
    env = dict(os.environ, VCB_THREADS="1")
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True)
    lines = queue.Queue()

    def pump():
        for line in proc.stdout:
            lines.put(line)
        lines.put(None)

    reader = threading.Thread(target=pump, daemon=True)
    reader.start()
    records, failure = [], None
    start = last = time.monotonic()
    seen_op = False
    while True:
        ceiling = OP_CEILING_S if seen_op else FIRST_OP_CEILING_S
        wait = min(last + ceiling, start + RUN_CEILING_S) - time.monotonic()
        try:
            line = lines.get(timeout=max(wait, 0.01))
        except queue.Empty:
            failure = f"no record within {ceiling} s (killed)"
            break
        if line is None:
            break
        last = time.monotonic()
        try:
            rec = json.loads(line)
        except json.JSONDecodeError:
            log(f"ignoring non-JSON output: {line.rstrip()}")
            continue
        records.append(rec)
        seen_op = seen_op or rec.get("rec") == "op"
    if failure:
        proc.kill()
    code = proc.wait()
    reader.join()
    if not failure and code != 0:
        failure = f"vcbbench exited with code {code}"
    return records, failure


def percentile(samples, p):
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[p - 1]


def aggregate(records, trace):
    """Metrics dict (name -> value) from one process's records."""
    ops = [r for r in records if r["rec"] == "op"]
    setup = next(r for r in records if r["rec"] == "setup")
    med = statistics.median
    if trace:
        out = {n: med(op["layers"][n] for op in ops)
               for n in ops[0]["layers"]}
        out["sim.device_load_ms"] = med(setup["device_load_ms"])
        out["kernels.build_ms"] = med(setup["kernels_build_ms"])
        for r in records:
            if r["rec"] == "probe":
                out.update({k: v for k, v in r.items() if k != "rec"})
        return out
    lat = [x for op in ops for x in op["lat_ms"]]
    timed_s = sum(op["wall_s"] for op in ops)
    return {
        "setup_s": med(setup["setup_s"]),
        "wall_s": med(op["wall_s"] for op in ops),
        "wg_per_s": sum(op["workgroups"] for op in ops) / timed_s,
        "req_per_s": sum(op["requests"] for op in ops) / timed_s,
        "p50_ms": percentile(lat, 50),
        "p95_ms": percentile(lat, 95),
        "cpu_s": med(op["cpu_s"] for op in ops),
        "peak_rss_mb": med(op["peak_rss_mb"] for op in ops),
    }


def measure(exe, workload, seed, seconds, trace, extra=()):
    """One benchmark run: (header dict, result dict)."""
    records, failure = run_vcbbench(exe, workload, seed, seconds, trace,
                                    extra)
    ops = [r for r in records if r["rec"] == "op"]
    attempted = sum(int(op["attempted"]) for op in ops)
    failed = sum(int(op["failed"]) for op in ops)
    if failure:
        log(f"{workload}: {failure}")
        attempted += 1
        failed += 1
    have_all = ops and any(r["rec"] == "setup" for r in records) and (
        not trace or any(r["rec"] == "probe" for r in records))
    if not have_all:
        return None, None
    header = next((r for r in records if r["rec"] == "header"), {})
    header = {k: v for k, v in header.items() if k != "rec"}
    header.update(git_commit=git_commit(), operations=len(ops),
                  requests_per_operation=ops[0]["requests"],
                  latency_samples=sum(len(op["lat_ms"]) for op in ops),
                  failed_frac=failed / attempted)
    if trace:
        slowest = max(ops, key=lambda op: op["layers"][
            "harness.slowest_cell_ms"])
        header["slowest_cell"] = slowest["slowest_cell"] or "n/a (no sweep)"
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    values = aggregate(records, trace)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return header, result


SIMULATED = ["sim.workgroups", "sim.tier.trace_wg", "sim.tier.block_wg",
             "sim.tier.lanemajor_wg", "sim.tier.instrumented_wg",
             "sim.launches", "sim.kernel_region_ms", "sim.device_busy_ms",
             "sim.migrated_mb", "sim.fault_ms"]


def self_check(exe):
    """Each workload once at tiny scale untraced and twice traced."""
    problems = []
    for w in WORKLOADS:
        before = len(problems)
        extra = ("--tiny",)
        _, plain = measure(exe, w, 1, 1, False, extra)
        traced = [measure(exe, w, 1, 1, True, extra) for _ in range(2)]
        results = [plain] + [r for _, r in traced]
        if any(r is None for r in results):
            problems.append(f"{w}: a run printed no result")
            continue
        for r, kind in zip(results, ["end_to_end", "per_layer",
                                     "per_layer"]):
            for m in SPEC[kind]:
                got = r["metrics"].get(m["name"])
                if not got or got["unit"] != m["unit"]:
                    problems.append(f"{w}: {m['name']} missing or wrong unit")
            if r["failed"]:
                problems.append(f"{w}: failed_frac "
                                f"{r['failed'] / r['attempted']:.3f}")
        a, b = (r["metrics"] for _, r in traced)
        for n in SIMULATED:
            if a[n]["value"] != b[n]["value"]:
                problems.append(f"{w}: {n} differs across runs: "
                                f"{a[n]['value']} vs {b[n]['value']}")
        overhead = (a["trace.wall_s"]["value"] /
                    plain["metrics"]["wall_s"]["value"] - 1)
        print(f"{w}: ok={len(problems) == before} traced wall "
              f"{a['trace.wall_s']['value']:.3f} s vs untraced "
              f"{plain['metrics']['wall_s']['value']:.3f} s "
              f"(tracing overhead {overhead:+.1%}), slowest cell "
              f"{traced[0][0]['slowest_cell']!r}")
    for p in problems:
        print(f"self-check: {p}")
    print(f"self-check: {'PASS' if not problems else 'FAIL'}")
    return 0 if not problems else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args()
    if not args.self_check and not args.workload:
        ap.error("--workload is required")

    exe = build()
    if exe is None:
        return 1
    if args.self_check:
        return self_check(exe)
    header, result = measure(exe, args.workload, args.seed, args.seconds,
                             bool(args.trace))
    if result is None:
        log("no complete result")
        return 1
    print(json.dumps({"run_header": header}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
