#!/usr/bin/env python3
"""Smoke test of the RTL-to-verdict benchmark: every workload at smoke size.

    python3 perfbench/smoke_test.py

Runs each workload of BENCHMARK.json, and remote_10k, for one second
through run.py (which builds and trains on first use), untraced and
traced, and checks that:
  * every end-to-end and per-layer metric of BENCHMARK.json prints, with
    its unit;
  * truncated rtl_mix sources come back as Diagnostics (success_share is
    1 and audit.rejected is above 0);
  * verdict digests agree: a repeated seed, the traced and the untraced
    run of a seed, and remote_10k against library_10k;
  * run.py fails, printing no result, in a directory that holds only
    BENCHMARK.json and perfbench/.
Exits 0 when every check passes. Python standard library only.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 7
failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def run(workload, trace, cwd=ROOT, env=None):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
         str(SEED), "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=900, check=False)
    return done


def result_of(done):
    lines = done.stdout.strip().splitlines()
    digest = next(line.split()[-1] for line in lines if line.startswith("digest "))
    return digest, json.loads(lines[-1])


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    digests = {}
    # remote_10k is not in BENCHMARK.json (README, Workloads) but stays
    # runnable, so its digest is still checked against library_10k's.
    for workload in [w["name"] for w in bench["workloads"]] + ["remote_10k"]:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            done = run(workload, trace)
            check(done.returncode == 0, f"{workload} trace {trace} exits 0")
            if done.returncode != 0:
                print(done.stderr[-3000:])
                continue
            digest, result = result_of(done)
            digests[(workload, trace)] = digest
            metrics = result["metrics"]
            check(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                  f"{workload} trace {trace} is correct")
            for m in bench[kind]:
                got = metrics.get(m["name"], {})
                check(got.get("unit") == m["unit"] and isinstance(got.get("value"), (int, float)),
                      f"{workload} trace {trace} prints {m['name']} in {m['unit']}")
            check(set(metrics) == {m["name"] for m in bench[kind]},
                  f"{workload} trace {trace} prints no other metric")
            if workload == "rtl_mix" and trace == 0:
                check(metrics["success_share"]["value"] == 1,
                      "rtl_mix: every report is of the expected kind")
            if workload == "rtl_mix" and trace == 1:
                check(metrics["audit.rejected"]["value"] > 0,
                      "rtl_mix: truncated sources come back as Diagnostics")
        check(digests.get((workload, 0)) == digests.get((workload, 1)),
              f"{workload}: traced and untraced digests agree")

    again = run("rtl_mix", 0)
    check(again.returncode == 0 and result_of(again)[0] == digests.get(("rtl_mix", 0)),
          "rtl_mix: a repeated seed prints the same digest")
    check(digests.get(("remote_10k", 0)) == digests.get(("library_10k", 0)),
          "remote_10k's digest equals library_10k's")

    # The bare copy shares this checkout's build directory, named by an
    # absolute path, and must still not reuse this checkout's build.
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    bare = build_dir / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    alone = run("rtl_mix", 0, cwd=bare,
                env=dict(os.environ, CARGO_TARGET_DIR=str(build_dir)))
    check(alone.returncode != 0 and '"metrics"' not in alone.stdout,
          "without the library sources run.py fails and prints no result, "
          "even beside a full checkout's build")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
