#!/usr/bin/env python3
"""Repo benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Builds the benchmark program
(perfbench_dta) and the libraries it links into .bench_build/perfbench
(or $CARGO_TARGET_DIR/perfbench when that is set), runs one workload, and
prints one JSON object as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end metrics, with
--trace 1 its per_layer metrics. The full result document (every metric, the
per-session samples and a host fingerprint) is written under
<build>/results/. Exits non-zero when the build fails, a correctness check
fails, or a metric is missing.

--smoke and --mismatch-reference are passed through to perfbench_dta (see
perfbench/main.cc); the self-test (perfbench/selftest.py) uses them.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out_dir):
    """Configures (once) and builds perfbench_dta; returns its path or None."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", out_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
            shutil.rmtree(out_dir, ignore_errors=True)
            return None
    cmd = ["cmake", "--build", out_dir, "--target", "perfbench_dta",
           "-j", jobs]
    if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
        return None
    return os.path.join(out_dir, "perfbench_dta")


def source_digest():
    """sha256 over the sources perfbench_dta is built from."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")) or not shutil.which("git"):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def fingerprint(info):
    """Identifies the host and build; numbers are comparable only between
    result documents with equal fingerprints."""
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "nproc": nproc,
        "machine": platform.machine(),
        "compiler": info.get("compiler"),
        "build_type": info.get("build_type"),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--mismatch-reference", action="store_true")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log("unknown workload %r" % args.workload)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    out_dir = build_dir()
    binary = build(out_dir)
    if binary is None:
        log("perfbench: build failed")
        return 1

    results = os.path.join(out_dir, "results")
    os.makedirs(results, exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", os.path.join(results, stem + "-spans.json")]
    if args.smoke:
        cmd.append("--smoke")
    if args.mismatch_reference:
        cmd.append("--mismatch-reference")

    started = time.time()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=sys.stderr, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log("perfbench: %s did not finish in %ds" % (args.workload,
                                                     RUN_TIMEOUT_S))
        return 1
    lines = stdout.strip().splitlines()
    if not lines:
        log("perfbench: perfbench_dta exited %d without a result" % proc.returncode)
        return 1
    try:
        result = json.loads(lines[-1])
    except ValueError:
        log("perfbench: unreadable result line: %s" % lines[-1][:200])
        return 1

    measured = result["metrics"]
    info = result.get("info", {})
    missing = [m["name"] for m in wanted
               if m["name"] not in measured
               or measured[m["name"]]["unit"] != m["unit"]]
    doc = {
        "benchmark": "perfbench",
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "wall_s": time.time() - started,
        "fingerprint": fingerprint(info),
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": measured,
        "info": info,
    }
    with open(os.path.join(results, stem + ".json"), "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)

    for m in wanted:
        if m["name"] not in measured:
            continue
        note = ""
        if m["name"] == "tune_ms.tail" and "tail_percentile" in info:
            note = " (p%.1f of %d samples)" % (info["tail_percentile"],
                                               info["tune_samples"])
        print("%-36s %16.6f %s%s" % (m["name"], measured[m["name"]]["value"],
                                     m["unit"], note))
    print("%-36s %16.6f ratio (%d of %d failed)" % (
        "failed_frac", measured.get("failed_frac", {}).get("value", 1.0),
        result["failed"], result["attempted"]))
    if missing:
        log("perfbench: metrics missing or with a wrong unit: %s"
            % ", ".join(missing))
    line = {
        "correct": bool(result["correct"]) and not missing,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {m["name"]: measured[m["name"]] for m in wanted
                    if m["name"] in measured},
    }
    print(json.dumps(line), flush=True)
    ok = proc.returncode == 0 and line["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
