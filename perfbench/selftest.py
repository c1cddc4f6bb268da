#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/selftest.py

1. Smoke: every workload, untraced and traced, on a tiny fixture; every
   metric BENCHMARK.json names must be emitted with its unit, the run must
   be correct.
2. Negative: a daemon with PICP_FAILPOINTS=serve.generate=error:1in5 must
   make the run report failure (correct false, failed > 0, exit code 1).
3. No sources: a directory holding only BENCHMARK.json and perfbench/ must
   exit non-zero without printing a result.
"""

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")


def run(args, cwd=ROOT, script=RUN):
    proc = subprocess.run([sys.executable, script] + args, cwd=cwd,
                          capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    return proc, result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    failures = []

    def expect(cond, what):
        print(("ok   " if cond else "FAIL ") + what, flush=True)
        if not cond:
            failures.append(what)

    for w in bench["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc, result = run(["--workload", w["name"], "--seed", "1",
                                "--seconds", "3", "--trace", str(trace),
                                "--smoke"])
            what = f"smoke {w['name']} --trace {trace}"
            if result is None:
                expect(False, f"{what}: no result (exit {proc.returncode})\n"
                       + proc.stderr[-2000:])
                continue
            expect(proc.returncode == 0 and result["correct"]
                   and result["failed"] == 0,
                   f"{what}: correct, exit 0")
            expect(set(result) == {"correct", "attempted", "failed",
                                   "metrics"}, f"{what}: result keys")
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = result["metrics"]
            expect(set(got) == set(want), f"{what}: every {key} metric "
                   f"(missing {sorted(set(want) - set(got))}, "
                   f"extra {sorted(set(got) - set(want))})")
            expect(all(got[n]["unit"] == u for n, u in want.items()
                       if n in got), f"{what}: units match BENCHMARK.json")
            expect(all(isinstance(v["value"], (int, float))
                       and math.isfinite(v["value"]) for v in got.values()),
                   f"{what}: every value is a finite number")

    proc, result = run(["--workload", "cold_sweep", "--seed", "1",
                        "--seconds", "3", "--smoke", "--failpoints",
                        "serve.generate=error:1in5"])
    expect(result is not None and not result["correct"]
           and result["failed"] > 0 and proc.returncode == 1,
           "failpoint serve.generate=error:1in5 is reported as failure")
    fail_pct = [l for l in proc.stdout.splitlines()
                if l.startswith("fail_pct")]
    expect(bool(fail_pct) and float(fail_pct[0].split()[1]) > 0,
           "failpoint run prints fail_pct > 0")

    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc, result = run(["--workload", "warm_hits", "--seed", "1",
                            "--seconds", "3"], cwd=bare,
                           script=os.path.join(bare, "perfbench", "run.py"))
        expect(proc.returncode != 0 and result is None,
               "without sources: non-zero exit and no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
