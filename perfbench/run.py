#!/usr/bin/env python3
"""Run one workload of the RTL-to-verdict benchmark and print its result.

    python3 perfbench/run.py --workload rtl_mix --seed 1 --seconds 10 --trace 0

Paths resolve against the checkout that holds this script, whatever the
working directory. Everything the script makes lives under .bench_build/
in the checkout, or under $CARGO_TARGET_DIR when that is set:

  cmake-<checkout>/  the CMake build (Release) of verdict_bench from this
                     checkout's sources, one per checkout path, so
                     checkouts sharing one $CARGO_TARGET_DIR never build
                     each other's code;
  models/<tree>/     the RTL and netlist detectors, trained once per
                     source tree from a fixed seed;
  digests/<tree>/    the verdict-stream digest of every seed run so far.

<tree> is a hash of the sources verdict_bench is built from (src/ and
perfbench's C++ and CMake files), so a change to the library retrains
and starts a fresh digest history. Then the script runs the workload,
checks its digest against earlier runs of the same seed and sources,
records provenance, and prints the result JSON as the last line of
standard output.

Exits non-zero without printing a result when the sources are missing or
the build, the training, the run or a digest check fails. Python
standard library only.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("rtl_mix", "netlist_obf", "library_10k", "remote_10k")
CORPORA = ("rtl", "netlist")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run_logged(cmd, cwd, timeout=None):
    """Run a build or training step with its output on stderr."""
    try:
        done = subprocess.run(cmd, cwd=cwd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"{' '.join(map(str, cmd))}: {e}")
    if done.returncode != 0:
        fail(f"{' '.join(map(str, cmd))} exited with {done.returncode}")


def source_tree(root):
    """Hash of every file under src/ and of perfbench's C++ and CMake files."""
    files = [p for p in (root / "src").rglob("*") if p.is_file()]
    files += [p for p in (root / "perfbench").iterdir()
              if p.is_file() and p.suffix in (".cpp", ".h", ".txt")]
    h = hashlib.sha256()
    for path in sorted(files):
        data = path.read_bytes()
        h.update(f"{path.relative_to(root).as_posix()}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()[:16]


def build(root, build_dir):
    checkout = hashlib.sha256(str(root).encode()).hexdigest()[:12]
    cmake_dir = build_dir / f"cmake-{checkout}"
    if not (cmake_dir / "CMakeCache.txt").exists():
        run_logged(["cmake", "-S", str(root / "perfbench"), "-B", str(cmake_dir),
                    "-DCMAKE_BUILD_TYPE=Release"], root)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    run_logged(["cmake", "--build", str(cmake_dir), "--target", "verdict_bench",
                "-j", jobs], root)
    return cmake_dir / "verdict_bench"


def train_models(root, build_dir, binary, tree):
    """Train both detectors once per source tree, on the first run of any
    workload, so every later run stays short. Training is deterministic."""
    paths = {}
    for corpus in CORPORA:
        path = build_dir / "models" / tree / f"{corpus}.model"
        if not path.exists() or not Path(f"{path}.delta").exists():
            path.parent.mkdir(parents=True, exist_ok=True)
            run_logged([str(binary), "train", corpus, str(path)], root, timeout=600)
        paths[corpus] = path
    return paths


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def check_digest(build_dir, tree, args, digest):
    """Same seed, same sources: the verdict stream must not change."""
    size = "smoke" if args.smoke else "full"
    path = build_dir / "digests" / tree / f"{args.workload}-seed{args.seed}-{size}.txt"
    if path.exists():
        earlier = path.read_text(encoding="utf-8").strip()
        if earlier != digest:
            fail(f"verdict digest {digest} of {args.workload} seed {args.seed} "
                 f"differs from {earlier} printed by an earlier run of the "
                 f"same seed and sources")
    else:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(f"{digest}\n", encoding="utf-8")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--smoke", action="store_true",
                        help="shrink the 10k library so a run takes seconds")
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    if not (root / "src").is_dir():
        fail(f"library sources not found under {root / 'src'}")
    build_dir = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    tree = source_tree(root)
    binary = build(root, build_dir)
    models = train_models(root, build_dir, binary, tree)
    model = models["netlist" if args.workload == "netlist_obf" else "rtl"]

    cmd = [str(binary), "run", "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace", args.trace,
           "--model", str(model)]
    if args.smoke:
        cmd.append("--smoke")
    if args.trace == "1":
        spans = build_dir / "traces" / (
            f"{args.workload}-seed{args.seed}{'-smoke' if args.smoke else ''}.tsv")
        spans.parent.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans", str(spans)]

    load_before = os.getloadavg()
    started = time.monotonic()
    try:
        done = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    load_after = os.getloadavg()
    if done.returncode != 0:
        fail(f"verdict_bench exited with {done.returncode}")

    lines = done.stdout.strip().splitlines()
    fields = {}
    for line in lines[:-1]:
        key, _, value = line.partition(" ")
        fields[key] = value
    if "provenance" not in fields or "digest" not in fields:
        fail("verdict_bench printed no provenance or digest")
    digest = fields["digest"].split()[-1]
    check_digest(build_dir, tree, args, digest)

    result = json.loads(lines[-1])
    provenance = json.loads(fields["provenance"])
    provenance.update({
        "source_tree": tree,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "loadavg_before": load_before,
        "loadavg_after": load_after,
        "digest": digest,
        "wall_s": round(time.monotonic() - started, 3),
    })
    record = build_dir / "results" / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}"
        f"{'-smoke' if args.smoke else ''}.json")
    record.parent.mkdir(parents=True, exist_ok=True)
    record.write_text(json.dumps({"provenance": provenance, "result": result}, indent=1)
                      + "\n", encoding="utf-8")

    print(f"digest {args.workload} {digest}")
    print("provenance " + json.dumps(provenance))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
