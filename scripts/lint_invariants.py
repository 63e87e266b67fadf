#!/usr/bin/env python3
"""Repo-invariant linter: rung 3 of the static-analysis ladder.

Enforces textual invariants that neither the compiler nor clang-tidy can
express (docs/static-analysis.md) over src/, bench/ and examples/ (not
perfbench/, the benchmark harness):

  raw-poll     ::poll() may appear only in src/sweep/transport.cpp, home of
               the one channel poll (sweep::poll_channels, under the sweep
               scheduler, the serve coordinator and the serve client) and
               the one-channel wait (WorkerChannel::await_frame). Every
               other wait routes through those two, so no call site polls
               or blocks on its own terms.
  raw-parse    The strto*/ato*/sto*/sscanf families may appear only in
               src/util/parse.hpp, the single strict-parse choke point.
               Raw use silently accepts " 14", "1e4"-as-int and partial
               tokens (the PR 6 misparse class).
  determinism  std::random_device, mt19937, rand()/srand()/drand48() are
               banned: every stochastic path seeds util::Rng
               (xoshiro256**) so runs replay bit-identically.
  raw-mutex    std::mutex / std::condition_variable / lock_guard /
               unique_lock / scoped_lock may appear only inside
               src/util/sync.hpp. All other code takes the annotated
               util::Mutex wrappers so Clang -Wthread-safety sees every
               lock site.
  raw-io       Binary file I/O (fread/fwrite, std::ios::binary streams)
               may appear only under src/io/, the versioned-artifact
               choke point (docs/serialization.md). Ad-hoc binary
               readers skip the magic/version/digest validation that
               makes corrupt files a typed error instead of UB.
  raw-fnv      The FNV-1a offset-basis and prime literals may appear only
               in src/util/hash.hpp. Every digest hashes through
               util::Fnv1a (or its kFnvOffset/kFnvPrime constants), so
               the repo keeps one FNV-1a instead of hand-rolled copies.
  raw-le       Byte-shift codec loops (`<< (8 * i)` / `>> (8 * i)`) may
               appear only in src/util/bytes.hpp and src/util/hash.hpp.
               The wire protocol and the artifact payloads read and write
               through the one util::ByteReader / put_* codec, which
               bounds every read.
  raw-thread   std::thread / std::jthread may appear only in
               src/util/sync.hpp (util::run_workers) and the kernel pool
               (src/hdc/kernels/thread_pool.*); std::thread::
               hardware_concurrency stays allowed everywhere.
  raw-fork     A zero-argument fork(), ::fork() or vfork() may appear only
               in src/sweep/transport.cpp, where WorkerFleet spawns a
               worker command and execs it at once. Local sweep shards are
               threads; a second local process pool would duplicate them.
               A member call such as x.fork(id) is not matched.
  raw-simd     Intrinsic headers (<immintrin.h>, <arm_neon.h>, ...),
               x86 intrinsic tokens (_mm*_, __m128/__m256/__m512 types)
               and the BMI2 bit deposit/extract (_pdep_u32/64,
               _pext_u32/64, __builtin_ia32_pdep*/pext*) may appear only
               in the kernel backends
               (src/hdc/kernels/*.cpp), so every SIMD path sits under the
               backend parity and fuzz suites.
  hw-accounting
               A function whose name ends _pJ, _fJ, _um2 or _mm2 may
               appear only under src/ppa/, src/dse/, bench/ and
               examples/. ppa computes every area, energy and latency
               figure from its Table III calibration, so a second model
               in device, cim or arch cannot drift away from it.
  pragma-once  Every header opens with #pragma once as its first
               non-comment line.

Comments and string/char literals are stripped before matching, so prose
mentioning a banned identifier does not trip a rule. Violations print as
path:line: [rule] message, and the exit status is the violation count
capped at 1.

`--self-test` runs every rule against scripts/lint_fixtures/, where each
fixture file is a minimal violating snippet named after its rule (a
suffix after a dot, as in raw_simd.pdep.cpp, gives a rule more than one
fixture); the
linter must flag every fixture (and find nothing in the clean fixture) or
the self-test fails. CI runs `lint_invariants.py && lint_invariants.py
--self-test` so a silently-dead rule fails the build just like a
violation does.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURE_DIR = Path(__file__).resolve().parent / "lint_fixtures"

# ---------------------------------------------------------------------------
# Rules
# ---------------------------------------------------------------------------

# The one file allowed to call ::poll directly: the worker transport, whose
# poll_channels and await_frame every event loop and wait goes through.
POLL_ALLOWLIST = {"src/sweep/transport.cpp"}

# The one file where the raw C parse family may live.
PARSE_ALLOWLIST = {"src/util/parse.hpp"}

# The one file where the raw std synchronization types may live.
MUTEX_ALLOWLIST = {"src/util/sync.hpp"}

# The one directory where raw binary file I/O may live (prefix match):
# every on-disk binary format goes through the H3DA artifact container.
RAW_IO_ALLOW_PREFIXES = ("src/io/",)

# The one file where the FNV-1a constants may be spelled out.
FNV_ALLOWLIST = {"src/util/hash.hpp"}

# The byte codec and the hash that folds u64s byte by byte.
LE_ALLOWLIST = {"src/util/bytes.hpp", "src/util/hash.hpp"}

# The scoped spawn (util::run_workers) and the persistent kernel pool.
THREAD_ALLOWLIST = {
    "src/hdc/kernels/thread_pool.cpp",
    "src/hdc/kernels/thread_pool.hpp",
    "src/util/sync.hpp",
}

# WorkerFleet's spawn-and-exec: the one process fork.
FORK_ALLOWLIST = {"src/sweep/transport.cpp"}

# The kernel backends: one translation unit per ISA (docs/kernels.md).
SIMD_ALLOW_RE = re.compile(r"src/hdc/kernels/[^/]+\.cpp")

# The one hardware-accounting path and the layers that read its figures.
HW_ACCOUNTING_ALLOW_PREFIXES = ("src/ppa/", "src/dse/", "bench/", "examples/")

RULES = [
    {
        "id": "raw-poll",
        "pattern": re.compile(r"(?<![\w:])::poll\s*\("),
        "allow": POLL_ALLOWLIST,
        "message": "raw ::poll() outside src/sweep/transport.cpp; wait "
                   "through sweep::poll_channels or "
                   "WorkerChannel::await_frame",
    },
    {
        "id": "raw-parse",
        "pattern": re.compile(
            r"(?<![\w])(?:std\s*::\s*)?"
            r"(?:strto(?:l|ll|ul|ull|f|d|ld|imax|umax)|"
            r"ato(?:i|l|ll|f)|"
            r"sto(?:i|l|ll|ul|ull|f|d|ld)|"
            r"sscanf)\s*\("
        ),
        "allow": PARSE_ALLOWLIST,
        "message": "raw number parse outside src/util/parse.hpp; use "
                   "util::parse_i64/parse_u64/parse_f64 (strict full-token "
                   "semantics)",
    },
    {
        "id": "determinism",
        "pattern": re.compile(
            r"(?<![\w])(?:std\s*::\s*)?"
            r"(?:random_device|mt19937(?:_64)?|s?rand|drand48)\s*(?:\(|\{|\b)"
        ),
        "allow": set(),
        "message": "non-deterministic RNG; seed util::Rng "
                   "(xoshiro256**) so runs replay bit-identically",
    },
    {
        "id": "raw-mutex",
        "pattern": re.compile(
            r"(?<![\w])std\s*::\s*"
            r"(?:mutex|timed_mutex|recursive_mutex|shared_mutex|"
            r"condition_variable(?:_any)?|lock_guard|unique_lock|"
            r"scoped_lock|shared_lock)\b"
        ),
        "allow": MUTEX_ALLOWLIST,
        "message": "raw std synchronization outside src/util/sync.hpp; use "
                   "util::Mutex/MutexLock/CondVar so -Wthread-safety sees "
                   "the lock site",
    },
    {
        "id": "raw-io",
        "pattern": re.compile(
            r"(?:(?<![\w])(?:std\s*::\s*)?f(?:read|write)\s*\(|"
            r"(?<![\w])ios(?:_base)?\s*::\s*binary\b)"
        ),
        "allow": set(),
        "allow_prefixes": RAW_IO_ALLOW_PREFIXES,
        "message": "raw binary file I/O outside src/io/; serialize through "
                   "the H3DA artifact container (io::ArtifactWriter / "
                   "io::Artifact::load) so files carry magic, version and "
                   "digests",
    },
    {
        "id": "raw-fnv",
        "pattern": re.compile(
            r"(?<![\w])0x0*(?:cbf29ce484222325|100000001b3)(?![0-9a-f])",
            re.IGNORECASE),
        "allow": FNV_ALLOWLIST,
        "message": "FNV-1a constant outside src/util/hash.hpp; hash through "
                   "util::Fnv1a (or util::kFnvOffset/kFnvPrime)",
    },
    {
        "id": "raw-le",
        "pattern": re.compile(
            r"(?:<<|>>)\s*\(\s*(?:8\s*\*\s*\w+|\w+\s*\*\s*8)\s*\)"),
        "allow": LE_ALLOWLIST,
        "message": "byte-shift codec loop outside src/util/bytes.hpp; encode "
                   "with util::put_* and decode with util::ByteReader or "
                   "util::load_u32/load_u64",
    },
    {
        "id": "raw-thread",
        "pattern": re.compile(
            r"(?<![\w:])std\s*::\s*j?thread\b"
            r"(?!\s*::\s*hardware_concurrency)"),
        "allow": THREAD_ALLOWLIST,
        "message": "raw std::thread outside src/util/sync.hpp; spawn scoped "
                   "workers with util::run_workers",
    },
    {
        "id": "raw-fork",
        "pattern": re.compile(r"(?<![\w.>:])(?:::\s*)?v?fork\s*\(\s*\)"),
        "allow": FORK_ALLOWLIST,
        "message": "process fork outside WorkerFleet's spawn-and-exec; "
                   "run local work on util::run_workers threads",
    },
    {
        "id": "raw-simd",
        "pattern": re.compile(
            r"#\s*include\s*<\s*(?:\w*intrin|arm_neon|arm_sve)\.h\s*>|"
            r"(?<![\w])(?:_mm\d*_\w+|__m(?:128|256|512)\w*|"
            r"_p(?:dep|ext)_u(?:32|64)|__builtin_ia32_p(?:dep|ext)\w*)"),
        "allow": set(),
        "allow_re": SIMD_ALLOW_RE,
        "message": "SIMD intrinsics outside src/hdc/kernels/*.cpp; add the "
                   "ISA path as a KernelBackend primitive so the parity and "
                   "fuzz suites cover it",
    },
    {
        "id": "hw-accounting",
        "pattern": re.compile(r"(?<![\w])\w+_(?:pJ|fJ|um2|mm2)\s*\("),
        "allow": set(),
        "allow_prefixes": HW_ACCOUNTING_ALLOW_PREFIXES,
        "message": "area/energy figure outside src/ppa/; compute it in ppa "
                   "(area_model, energy_model, timing_model) so there is one "
                   "hardware-accounting path",
    },
]


def strip_comments_and_strings(text: str) -> str:
    """Blank out comments and string/char literals, preserving newlines.

    Handles //, /* */, "..." and '...' with backslash escapes. The repo
    bans raw string literals from src/ by convention (none exist today),
    so they are not special-cased.
    """
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            while i < n and text[i] != "\n":
                i += 1
        elif c == "/" and nxt == "*":
            i += 2
            while i < n and not (text[i] == "*" and i + 1 < n
                                 and text[i + 1] == "/"):
                if text[i] == "\n":
                    out.append("\n")
                i += 1
            i = min(i + 2, n)
        elif c in "\"'":
            quote = c
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\":
                    i += 1
                elif text[i] == "\n":
                    out.append("\n")
                i += 1
            i += 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def first_code_line(text: str) -> str:
    """First non-blank line after stripping comments (for pragma-once)."""
    for line in strip_comments_and_strings(text).splitlines():
        if line.strip():
            return line.strip()
    return ""


def lint_file(path: Path, rel: str) -> list[tuple[str, int, str, str]]:
    """Return (rel, line, rule-id, message) violations for one file."""
    text = path.read_text(encoding="utf-8", errors="replace")
    violations = []
    code = strip_comments_and_strings(text)
    for rule in RULES:
        if rel in rule["allow"]:
            continue
        if any(rel.startswith(p) for p in rule.get("allow_prefixes", ())):
            continue
        if "allow_re" in rule and rule["allow_re"].fullmatch(rel):
            continue
        for lineno, line in enumerate(code.splitlines(), start=1):
            if rule["pattern"].search(line):
                violations.append((rel, lineno, rule["id"], rule["message"]))
    if path.suffix == ".hpp" and first_code_line(text) != "#pragma once":
        violations.append(
            (rel, 1, "pragma-once",
             "header must open with #pragma once as its first non-comment "
             "line"))
    return violations


LINT_DIRS = ("src", "bench", "examples")


def lint_tree(root: Path) -> list[tuple[str, int, str, str]]:
    violations = []
    for top in LINT_DIRS:
        for path in sorted((root / top).rglob("*")):
            if path.suffix not in {".hpp", ".cpp"}:
                continue
            rel = path.relative_to(root).as_posix()
            violations.extend(lint_file(path, rel))
    return violations


# ---------------------------------------------------------------------------
# Self-test: every fixture must trip exactly its namesake rule.
# ---------------------------------------------------------------------------

def self_test() -> int:
    failures = []
    fixtures = sorted(FIXTURE_DIR.glob("*"))
    if not fixtures:
        print(f"self-test: no fixtures found in {FIXTURE_DIR}",
              file=sys.stderr)
        return 1
    for fixture in fixtures:
        if fixture.suffix not in {".hpp", ".cpp"}:
            continue
        # clean.hpp is the negative control; everything else names a rule.
        rule = fixture.stem.split(".")[0]
        expected = None if rule == "clean" else rule.replace("_", "-")
        # Lint the fixture as if it lived in src/ so allowlists (which are
        # src/-relative) cannot mask it.
        hits = lint_file(fixture, f"src/fixture/{fixture.name}")
        hit_ids = {rule_id for (_, _, rule_id, _) in hits}
        if expected is None:
            if hit_ids:
                failures.append(f"{fixture.name}: clean fixture tripped "
                                f"{sorted(hit_ids)}")
        elif expected not in hit_ids:
            failures.append(
                f"{fixture.name}: expected rule '{expected}' to fire, "
                f"got {sorted(hit_ids) or 'nothing'}")
    if failures:
        for f in failures:
            print(f"self-test FAIL: {f}", file=sys.stderr)
        return 1
    print(f"self-test OK: {len(fixtures)} fixtures, all rules fire")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--self-test", action="store_true",
                        help="verify every lint_fixtures/ snippet trips its "
                             "namesake rule")
    parser.add_argument("--root", type=Path, default=REPO_ROOT,
                        help="repository root (default: the repo containing "
                             "this script)")
    args = parser.parse_args()

    if args.self_test:
        return self_test()

    violations = lint_tree(args.root)
    for rel, lineno, rule_id, message in violations:
        print(f"{rel}:{lineno}: [{rule_id}] {message}")
    if violations:
        print(f"{len(violations)} invariant violation(s)", file=sys.stderr)
        return 1
    print("lint_invariants: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
