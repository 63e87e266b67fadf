#!/usr/bin/env python3
"""Gate kernel perf regressions: compare a fresh `bench/kernels --json` run
against a checked-in baseline.

Usage:
    check_kernel_baseline.py FRESH.json BASELINE.json [--threshold=1.5]

Every benchmark named in the baseline must exist in the fresh run and have
ns/op <= threshold * baseline ns/op. The baseline deliberately lists only
the hdc-layer kernels (similarity / projection / bind and their batched
variants); end-to-end and device-model benches are too noisy to gate, so
the fresh artifact may contain rows the baseline does not name.

The two artifacts must come from the same kernel backend — comparing AVX2
numbers against a scalar run (or an arm host) would gate nothing real.

Refresh (one command, then commit the file):
    ./build/bench/kernels --json=bench/baselines/x86_64-avx2.json
(see docs/kernels.md for when a refresh is legitimate)
"""

import json
import sys


def fail(msg: str) -> None:
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(2)


def main(argv: list[str]) -> int:
    threshold = 1.5
    paths = []
    for arg in argv[1:]:
        if arg.startswith("--threshold="):
            threshold = float(arg.split("=", 1)[1])
        elif arg.startswith("--"):
            fail(f"unknown flag {arg}")
        else:
            paths.append(arg)
    if len(paths) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    fresh_path, baseline_path = paths

    with open(fresh_path) as f:
        fresh = json.load(f)
    with open(baseline_path) as f:
        baseline = json.load(f)

    for doc, path in ((fresh, fresh_path), (baseline, baseline_path)):
        if doc.get("schema_version") != 1:
            fail(f"{path}: unsupported schema_version {doc.get('schema_version')!r}")

    if fresh.get("backend") != baseline.get("backend"):
        fail(
            f"backend mismatch: fresh ran '{fresh.get('backend')}' but the "
            f"baseline is '{baseline.get('backend')}' — a cross-backend "
            "comparison gates nothing; use a matching host or refresh the "
            "baseline for this backend"
        )

    fresh_by_name = {row["name"]: row for row in fresh["benchmarks"]}
    failures = []
    print(
        f"{'benchmark':<40} {'baseline ns/op':>15} {'fresh ns/op':>12} "
        f"{'ratio':>7}  limit {threshold:.2f}x"
    )
    for base_row in baseline["benchmarks"]:
        name = base_row["name"]
        fresh_row = fresh_by_name.get(name)
        if fresh_row is None:
            failures.append(f"{name}: missing from the fresh run")
            print(f"{name:<40} {base_row['ns_per_op']:>15.1f} {'MISSING':>12}")
            continue
        ratio = fresh_row["ns_per_op"] / base_row["ns_per_op"]
        verdict = "ok" if ratio <= threshold else "FAIL"
        print(
            f"{name:<40} {base_row['ns_per_op']:>15.1f} "
            f"{fresh_row['ns_per_op']:>12.1f} {ratio:>6.2f}x  {verdict}"
        )
        if ratio > threshold:
            failures.append(
                f"{name}: {fresh_row['ns_per_op']:.1f} ns/op vs baseline "
                f"{base_row['ns_per_op']:.1f} ({ratio:.2f}x > {threshold}x)"
            )

    if failures:
        print(f"\n{len(failures)} kernel regression(s) above {threshold}x:")
        for f_ in failures:
            print(f"  - {f_}")
        print(
            "\nIf this is expected (intentional trade-off, toolchain or "
            "runner change), refresh the baseline:\n"
            f"    ./build/bench/kernels --json={baseline_path}"
        )
        return 1
    print(f"\nall {len(baseline['benchmarks'])} gated kernels within {threshold}x of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
