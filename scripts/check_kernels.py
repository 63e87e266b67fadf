#!/usr/bin/env python3
"""Same-host kernel regression gate: times every `bench/kernels` row of a
parent build against a change build on this machine, and fails a row the
change made more than 1.5x slower.

Usage:
    check_kernels.py PARENT_KERNELS CHANGE_KERNELS
    check_kernels.py --self-test

PARENT_KERNELS and CHANGE_KERNELS are two `bench/kernels` binaries, built
from the parent revision and from the change. Every row both binaries list
is gated, except the rows SKIP matches: the threaded rows (their times
follow the host's free cores), the end-to-end factorizations and the
device model. A row only one side lists is printed but not gated.

Each gated row runs PAIRS times per side, each run a fresh process with
`--benchmark_filter=^<row>$ --benchmark_min_time=0.25
--benchmark_format=json`, and the side that goes first alternates from
pair to pair. A pair's ratio is change/parent `real_time`; a row fails when
the median of its PAIRS ratios exceeds LIMIT. Run-to-run noise on one host
stays well inside 1.5x, so the gate catches step changes (a dispatch seam
that falls back to scalar reads 3.5-4x), not every slowdown near 1.5x.

The binaries run with the caller's environment, so H3DFACT_KERNEL_BACKEND
picks the backend both sides run. Both must name the same backend on their
`kernel backend:` stderr line, and it must be the one
H3DFACT_KERNEL_BACKEND names when that is set.

Exit status: 0 when every gated row is within LIMIT, 1 when a row is not,
2 on a usage error, a backend mismatch or a run that fails. Standard
library only. `--self-test` drives the same decision code with synthetic
timings.
"""

import json
import os
import random
import re
import statistics
import subprocess
import sys

PAIRS = 7
MIN_TIME = "0.25"
LIMIT = 1.5
# Threaded, end-to-end and device-model rows are printed, never gated.
SKIP = re.compile(r"Threads|^BM_Factorize|^BM_CrossbarMvm")

NS_PER_UNIT = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


class GateError(Exception):
    """The two builds cannot be compared: exit status 2."""


class Bench:
    """One `bench/kernels` binary; every call is a fresh process."""

    def __init__(self, path: str) -> None:
        self.path = path

    def run(self, args: list[str]) -> tuple[str, str]:
        """The run's stdout and the backend its stderr names."""
        cmd = [self.path, *args]
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True)
        except OSError as e:
            raise GateError(f"cannot run {self.path}: {e}") from e
        if proc.returncode != 0:
            raise GateError(f"{' '.join(cmd)} exited {proc.returncode}: "
                            f"{proc.stderr.strip()}")
        found = re.search(r"^kernel backend: (\S+)$", proc.stderr, re.M)
        if found is None:
            raise GateError(f"{self.path} printed no 'kernel backend:' line")
        return proc.stdout, found.group(1)

    def rows(self) -> tuple[list[str], str]:
        out, backend = self.run(["--benchmark_list_tests=true"])
        return out.split(), backend

    def time_ns(self, row: str) -> float:
        out, _ = self.run([f"--benchmark_filter=^{re.escape(row)}$",
                           f"--benchmark_min_time={MIN_TIME}",
                           "--benchmark_format=json"])
        runs = [r for r in json.loads(out)["benchmarks"]
                if r.get("run_type", "iteration") == "iteration"]
        if len(runs) != 1 or runs[0].get("error_occurred"):
            raise GateError(f"{self.path}: row {row} gave no single timing")
        return runs[0]["real_time"] * NS_PER_UNIT[runs[0]["time_unit"]]


def gate(parent, change, forced: str | None, out=sys.stdout) -> list[str]:
    """Times every gated row; returns the rows above LIMIT. Raises
    GateError when the two builds ran different backends, or not the one
    `forced` names."""
    parent_rows, parent_backend = parent.rows()
    change_rows, change_backend = change.rows()
    if parent_backend != change_backend:
        raise GateError(f"backend mismatch: the parent ran {parent_backend} "
                        f"and the change {change_backend}")
    if forced is not None and change_backend != forced:
        raise GateError(f"H3DFACT_KERNEL_BACKEND={forced}, but both builds "
                        f"ran {change_backend}")
    in_parent, in_change = set(parent_rows), set(change_rows)
    both = [r for r in change_rows if r in in_parent]
    gated = [r for r in both if not SKIP.search(r)]
    print(f"kernel backend {change_backend}; {len(gated)} rows, {PAIRS} "
          f"alternating pairs each at --benchmark_min_time={MIN_TIME}; "
          f"limit {LIMIT:.2f}x", file=out)
    print(f"{'row':<36} {'parent ns':>11} {'change ns':>11} {'median':>7} "
          f"{'range':>12}", file=out, flush=True)
    failures = []
    for row in gated:
        parent_ns, change_ns = [], []
        for i in range(PAIRS):
            if i % 2 == 0:
                parent_ns.append(parent.time_ns(row))
                change_ns.append(change.time_ns(row))
            else:
                change_ns.append(change.time_ns(row))
                parent_ns.append(parent.time_ns(row))
        ratios = [c / p for p, c in zip(parent_ns, change_ns)]
        median = statistics.median(ratios)
        failed = median > LIMIT
        if failed:
            failures.append(row)
        print(f"{row:<36} {statistics.median(parent_ns):>11.1f} "
              f"{statistics.median(change_ns):>11.1f} "
              f"{median:>6.2f}x {min(ratios):>5.2f}-{max(ratios):.2f}x  "
              f"{'FAIL' if failed else 'ok'}", file=out, flush=True)
    for label, rows in (
            ("not gated (threaded, end-to-end, device model)",
             [r for r in both if SKIP.search(r)]),
            ("only in the parent, not gated",
             [r for r in parent_rows if r not in in_change]),
            ("only in the change, not gated",
             [r for r in change_rows if r not in in_parent])):
        if rows:
            print(f"{label}: {', '.join(rows)}", file=out)
    if failures:
        print(f"\n{len(failures)} of {len(gated)} rows above {LIMIT:.2f}x "
              f"the parent: {', '.join(failures)}", file=out)
    else:
        print(f"\nall {len(gated)} rows within {LIMIT:.2f}x of the parent",
              file=out)
    return failures


def run_gate(parent, change, forced: str | None, out=sys.stdout,
             err=sys.stderr) -> int:
    try:
        return 1 if gate(parent, change, forced, out) else 0
    except GateError as e:
        print(f"error: {e}", file=err)
        return 2


# --- self-test ----------------------------------------------------------------

class FakeBench:
    """A bench whose rows take `base * scale[row]` ns, times +-5 % noise
    from a fixed seed; it logs every timing call."""

    def __init__(self, name: str, rows: list[str], backend: str,
                 scale: dict[str, float], seed: int, log: list) -> None:
        self.name, self._rows, self._backend = name, rows, backend
        self._scale, self._rng, self._log = scale, random.Random(seed), log

    def rows(self) -> tuple[list[str], str]:
        return list(self._rows), self._backend

    def time_ns(self, row: str) -> float:
        self._log.append((self.name, row))
        return 1000.0 * self._scale.get(row, 1.0) * self._rng.uniform(0.95,
                                                                      1.05)


class Sink:
    def write(self, _: str) -> None:
        pass

    def flush(self) -> None:
        pass


def self_test() -> int:
    shared = ["BM_Slow/16", "BM_Slower/16", "BM_Same/16",
              "BM_EngineMvmBatchThreads/512/64/1", "BM_FactorizeBatched/256/16",
              "BM_CrossbarMvm/64"]
    slow = {"BM_Slow/16": 1.4, "BM_Slower/16": 1.6,
            "BM_EngineMvmBatchThreads/512/64/1": 3.0,
            "BM_FactorizeBatched/256/16": 3.0, "BM_CrossbarMvm/64": 3.0,
            "BM_New/16": 3.0}

    def pair(change_scale, change_backend="avx2"):
        log: list = []
        return (FakeBench("parent", shared + ["BM_Old/16"], "avx2", {}, 1,
                          log),
                FakeBench("change", shared + ["BM_New/16"], change_backend,
                          change_scale, 2, log), log)

    checks = []
    parent, change, log = pair(slow)
    failures = gate(parent, change, None, out=Sink())
    checks.append(("a row 1.6x slower fails, and only that row",
                   failures == ["BM_Slower/16"]))
    checks.append(("a row 1.4x slower passes", "BM_Slow/16" not in failures))
    timed = {row for _, row in log}
    checks.append(("a row on one side only is not timed and does not fail",
                   not timed & {"BM_Old/16", "BM_New/16"}))
    checks.append(("threaded, end-to-end and device-model rows are not timed",
                   timed == set(shared[:3])))
    order = [side for side, row in log if row == "BM_Same/16"]
    checks.append((f"each row runs {PAIRS} times per side, alternating "
                   "which side goes first",
                   order == ["parent", "change", "change", "parent"] *
                   (PAIRS // 2) + ["parent", "change"] * (PAIRS % 2)))
    parent, change, _ = pair({})
    checks.append(("unchanged builds exit 0",
                   run_gate(parent, change, None, Sink(), Sink()) == 0))
    parent, change, _ = pair(slow)
    checks.append(("a slower row exits 1",
                   run_gate(parent, change, None, Sink(), Sink()) == 1))
    parent, change, _ = pair({}, change_backend="sse2")
    checks.append(("a backend mismatch exits 2",
                   run_gate(parent, change, None, Sink(), Sink()) == 2))
    parent, change, _ = pair({})
    checks.append(("a backend other than H3DFACT_KERNEL_BACKEND's exits 2",
                   run_gate(parent, change, "avx512", Sink(), Sink()) == 2))
    for name, ok in checks:
        print(f"{'ok  ' if ok else 'FAIL'} {name}")
    return 0 if all(ok for _, ok in checks) else 1


def main(argv: list[str]) -> int:
    if argv == ["--self-test"]:
        return self_test()
    if len(argv) != 2 or any(a.startswith("--") for a in argv):
        print(__doc__, file=sys.stderr)
        return 2
    return run_gate(Bench(argv[0]), Bench(argv[1]),
                    os.environ.get("H3DFACT_KERNEL_BACKEND") or None)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
