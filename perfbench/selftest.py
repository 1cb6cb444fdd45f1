#!/usr/bin/env python3
"""Smoke-scale self-test of the repo benchmark.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json at smoke scale (reduced inputs, one
set-up, one-second runs) through perfbench/run.py and checks that:
  * the timed and the traced run print every end_to_end / per_layer metric
    with its unit, and the last line has exactly the contract's keys;
  * every metric is documented in perfbench/README.md;
  * the correctness check passes on the true reference and fires on a
    deliberately mismatched one (non-zero exit, every unit failed).
Exits non-zero on the first failed check.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")


def run(workload, trace, *extra):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), "--smoke", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        sys.stderr.write(proc.stderr)
        raise AssertionError("%s: no output (exit %d)"
                             % (" ".join(cmd[1:]), proc.returncode))
    return proc.returncode, json.loads(lines[-1]), proc.stderr


def check(cond, msg):
    if not cond:
        raise AssertionError(msg)
    print("ok   " + msg)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(os.path.join(ROOT, "perfbench", "README.md")) as f:
        readme = f.read()
    for group in ("end_to_end", "per_layer"):
        for m in spec[group]:
            check("`%s`" % m["name"] in readme,
                  "README documents %s metric %s" % (group, m["name"]))

    for w in spec["workloads"]:
        name = w["name"]
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            code, line, err = run(name, trace)
            check(code == 0 and line["correct"],
                  "%s trace=%d passes its correctness checks" % (name, trace))
            check(sorted(line) == ["attempted", "correct", "failed",
                                   "metrics"],
                  "%s trace=%d last line has exactly the contract keys"
                  % (name, trace))
            check(line["attempted"] >= 1 and line["failed"] == 0,
                  "%s trace=%d attempted %d, failed %d"
                  % (name, trace, line["attempted"], line["failed"]))
            wanted = {m["name"]: m["unit"] for m in spec[group]}
            got = {k: v["unit"] for k, v in line["metrics"].items()}
            check(got == wanted,
                  "%s trace=%d prints every %s metric with its unit"
                  % (name, trace, group))
            check(all(isinstance(v["value"], (int, float))
                      for v in line["metrics"].values()),
                  "%s trace=%d metric values are numbers" % (name, trace))

        code, line, err = run(name, 0, "--mismatch-reference")
        check(code != 0 and not line["correct"]
              and line["failed"] == line["attempted"] >= 1,
              "%s: a mismatched reference fails every check (%d of %d)"
              % (name, line["failed"], line["attempted"]))
        check("differs from the reference" in err,
              "%s: the failure names the first divergence" % name)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except AssertionError as e:
        print("FAIL " + str(e), file=sys.stderr)
        sys.exit(1)
