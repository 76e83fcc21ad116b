#!/usr/bin/env python3
"""Self-test of the benchmark, run from the repository root:

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json it makes a tiny run untraced and
traced, and checks that each run is correct and emits exactly the
metrics BENCHMARK.json names, with their units. It then tampers with
the expected digest and checks that the correctness gate fails the run.
Exits 0 when every check passes.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TINY = ["--seconds", "1", "--records", "8192", "--warmup", "2048"]


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "3", "--trace", str(trace), *TINY, *extra]
    r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                       timeout=600)
    lines = r.stdout.strip().splitlines()
    if not lines:
        raise SystemExit("no output from %s:\n%s" % (cmd, r.stderr))
    return r.returncode, json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    errors = []

    def expect(cond, msg):
        if not cond:
            errors.append(msg)

    for wl in spec["workloads"]:
        name = wl["name"]
        before = len(errors)
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            rc, res = run(name, trace)
            tag = "%s --trace %d" % (name, trace)
            expect(rc == 0, tag + ": exit code %d" % rc)
            expect(sorted(res) == ["attempted", "correct", "failed",
                                   "metrics"], tag + ": result keys")
            expect(res["correct"] is True, tag + ": not correct")
            expect(res["attempted"] >= 1 and res["failed"] == 0,
                   tag + ": attempted/failed %d/%d" %
                   (res["attempted"], res["failed"]))
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            expect(got == want, tag + ": metrics %s != %s" % (got, want))
            for k, v in res["metrics"].items():
                expect(isinstance(v["value"], (int, float)),
                       tag + ": %s is not a number" % k)
        print("FAIL" if len(errors) > before else "ok", name)

    before = len(errors)
    rc, res = run(spec["workloads"][0]["name"], 0,
                  "--expect-digest", "0123456789abcdef")
    expect(rc != 0, "tampered digest: exit code 0")
    expect(res["correct"] is False, "tampered digest: run reported correct")
    expect(res["failed"] == res["attempted"],
           "tampered digest: not every op counted as failed")
    print("FAIL" if len(errors) > before else "ok",
          "tampered digest fails the gate")

    for e in errors:
        print("FAIL", e)
    sys.exit(1 if errors else 0)


if __name__ == "__main__":
    main()
