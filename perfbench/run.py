#!/usr/bin/env python3
"""Build and run one perfbench workload; print its result as the last line.

    python3 perfbench/run.py --workload solve_m16 --seed 1 --seconds 15 --trace 0

Run from the repository root. The first call configures and builds the
h3dfact library plus the perfbench program (CMake, Release) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench) and runs the
helper self-test; later calls only re-check the build. The perfbench binary
prints a stamp line and then the result line, which this script validates
against BENCHMARK.json (exact metric set and units) before passing both
through. Spans and result copies land in <build dir>/out/.

Any workload perfbench knows runs, including serve_open, which is not in
BENCHMARK.json's set. Exit codes: 0 success; 2 the checkout lacks the
library sources; any other nonzero code is a build, self-test or workload
failure (an unknown workload name included). Nothing is printed on stdout unless the run succeeded.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys

RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(code, message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def source_digest(root):
    """SHA-256 over the library sources and build files (the checkout may
    not be a git repository, so this stands in for the commit)."""
    h = hashlib.sha256()
    paths = [os.path.join(root, "CMakeLists.txt")]
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            paths.extend(os.path.join(dirpath, f) for f in sorted(filenames))
    for path in paths:
        rel = os.path.relpath(path, root)
        h.update(rel.encode() + b"\0")
        with open(path, "rb") as fh:
            h.update(fh.read())
        h.update(b"\0")
    return h.hexdigest()[:16]


def git_commit(root):
    if not os.path.exists(os.path.join(root, ".git")) or not shutil.which("git"):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def build(root, build_dir):
    """Configure once, then build perfbench and its self-test (a no-op when
    nothing changed). Build output goes to stderr."""
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                    "perfbench_selftest", "-j", jobs],
                   check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    binary = os.path.join(build_dir, "perfbench")
    selftest = os.path.join(build_dir, "perfbench_selftest")
    stamp = os.path.join(build_dir, "selftest.ok")
    if (not os.path.exists(stamp)
            or os.path.getmtime(stamp) < os.path.getmtime(binary)
            or os.path.getmtime(stamp) < os.path.getmtime(selftest)):
        subprocess.run([selftest], check=True, stdout=sys.stderr, timeout=120)
        with open(stamp, "w") as fh:
            fh.write("ok\n")
    return binary


def check_result(line, expected):
    """The result line must hold exactly the four result keys and exactly the
    declared metrics, each a finite number with the declared unit."""
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"result keys {sorted(result)}")
    if not isinstance(result["correct"], bool):
        raise ValueError("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            raise ValueError(f"{key} is not a whole number")
    if result["attempted"] < 1:
        raise ValueError("attempted < 1")
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        missing = sorted(set(expected) - set(metrics))
        extra = sorted(set(metrics) - set(expected))
        raise ValueError(f"metric set differs: missing {missing}, extra {extra}")
    for name, m in metrics.items():
        if set(m) != {"value", "unit"} or m["unit"] != expected[name]:
            raise ValueError(f"metric {name}: {m}")
        if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
            raise ValueError(f"metric {name} is not a finite number")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    for needed in ("CMakeLists.txt", "src", os.path.join("perfbench", "CMakeLists.txt")):
        if not os.path.exists(os.path.join(root, needed)):
            fail(2, f"{needed} is missing: run from a full checkout of the repository")
    spec_path = os.path.join(root, "BENCHMARK.json")
    if not os.path.exists(spec_path):
        fail(2, "BENCHMARK.json is missing")
    with open(spec_path) as fh:
        spec = json.load(fh)
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        fail(2, "--seed must be >= 0 and --seconds in [1, 600]")
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    expected = {m["name"]: m["unit"] for m in declared}

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, target, "perfbench")
    try:
        binary = build(root, build_dir)
    except (OSError, subprocess.SubprocessError) as e:
        fail(3, f"build or self-test failed: {e}")
    out_dir = os.path.join(build_dir, "out")
    os.makedirs(out_dir, exist_ok=True)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", out_dir, "--source-digest", source_digest(root),
           "--git-commit", git_commit(root)]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=root,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(4, f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    if run.returncode != 0:
        fail(run.returncode, f"{args.workload} exited with code {run.returncode}")
    lines = [ln for ln in run.stdout.splitlines() if ln.strip()]
    if len(lines) < 2:
        fail(5, "perfbench printed no result")
    try:
        check_result(lines[-1], expected)
    except (ValueError, KeyError, TypeError) as e:
        fail(5, f"malformed result: {e}")
    print(lines[-2])
    print(lines[-1])


if __name__ == "__main__":
    main()
