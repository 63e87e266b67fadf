#!/usr/bin/env python3
"""Statistical equivalence gate: does a change that moves the bits of a
sweep keep its distribution? Compares two `--json` dumps of the same grid,
one from the parent and one from the change, cell by cell.

Usage:
    check_equivalence.py PARENT.json CHANGE.json
    check_equivalence.py --self-test

Per cell it runs two tests, and a third on traced cells:
  - accuracy: a two-proportion z-test on correct / trials;
  - iterations: a Mann-Whitney rank test on the iteration count of every
    trial, censored at the cap: a trial that did not solve ranks above
    every solved one, and all of them tie;
  - one-shot accuracy (Fig. 6b's headline): a two-proportion z-test on
    correct_raw_by_iteration[1] / trials, for a cell whose two dumps both
    carry the trace histogram.
Each p-value is two-sided, from the normal approximation (midranks and
the tie-corrected variance for the rank test). With m cells, t of them
traced, the gate runs 2m + t tests, and a Bonferroni correction holds the
family-wise false-alarm rate at ALPHA = 0.05: a cell differs when any of
its p-values is below ALPHA / (2m + t).

Each row also prints the rank test's power, at that threshold and the
cell's trial count, against a 5 % shift in mean iterations: every parent
count x scaled to 1.05·x with randomized rounding, which keeps counts
integer and moves their mean by exactly 5 % before the cap.

A cell's seed also draws its codebooks, and one codebook set moves mean
iterations by more than the gate resolves, so a grid may run each cell as
replicas that differ only in a `replica` coordinate (and so in seed): the
gate pools a cell's replicas into one sample before it tests.

Both dumps must hold the same grid: the same cells, coordinates, dimension,
factor count, codebook size, trial count and cap. Seeds and parameters may
differ (the self-test compares seeds and thresholds); a differing parameter
is printed. Exit status: 0 when every cell passes, 1 when a cell differs,
2 when the dumps cannot be compared. Standard library only.

`--self-test` runs the gate on synthetic grids drawn with fixed seeds: a
seed-only change must pass, and a 27 % drop in mean iterations (what
theta 1.5 -> 1.4 does at F3/M16), a 2-point accuracy drop and a 2-point
one-shot accuracy drop must each fail. docs/sweeps.md gives the real-data
pair and the measured power.
"""

import bisect
import json
import math
import random
import sys
from statistics import NormalDist

ALPHA = 0.05
SHIFT = 1.05  # the mean-iteration shift the power column is computed for
NORMAL = NormalDist()

CONFIG_KEYS = ("dim", "factors", "codebook_size", "trials", "max_iterations")


def fail(msg: str) -> None:
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(2)


def two_sided(z: float) -> float:
    return math.erfc(abs(z) / math.sqrt(2.0))


def proportion_p(k1: int, n1: int, k2: int, n2: int) -> float:
    """Two-proportion z-test, pooled variance."""
    pooled = (k1 + k2) / (n1 + n2)
    var = pooled * (1.0 - pooled) * (1.0 / n1 + 1.0 / n2)
    if var == 0.0:
        return 1.0
    return two_sided((k1 / n1 - k2 / n2) / math.sqrt(var))


def censored(cell: dict) -> list[float]:
    """Every trial's iteration count; unsolved trials read as cap + 1."""
    unsolved = cell["trials"] - cell["solved"]
    return list(cell["samples"]) + [cell["cap"] + 1] * unsolved


def rank_test(a: list[float], b: list[float]) -> tuple[float, float]:
    """Mann-Whitney U of `a` against `b`: (z, two-sided p)."""
    n1, n2 = len(a), len(b)
    pooled = sorted([(v, 0) for v in a] + [(v, 1) for v in b])
    n = n1 + n2
    rank_sum = 0.0
    ties = 0.0
    i = 0
    while i < n:
        j = i
        while j < n and pooled[j][0] == pooled[i][0]:
            j += 1
        mid = (i + 1 + j) / 2.0  # ranks i+1 .. j
        rank_sum += mid * sum(1 for k in range(i, j) if pooled[k][1] == 0)
        t = j - i
        ties += t * t * t - t
        i = j
    u = rank_sum - n1 * (n1 + 1) / 2.0
    var = n1 * n2 / 12.0 * ((n + 1) - ties / (n * (n - 1)))
    if var <= 0.0:
        return 0.0, 1.0
    z = (u - n1 * n2 / 2.0) / math.sqrt(var)
    return z, two_sided(z)


def shift_power(sample: list[float], cap: int, alpha: float) -> float:
    """Power of the rank test at level `alpha`, with len(sample) trials a
    side, against the sample scaled by SHIFT (randomized rounding, censored
    at the cap), taking the sample as the parent's distribution."""
    xs = sorted(sample)
    n = len(xs)

    def below_half(y: float) -> float:  # P(X < y) + P(X = y) / 2
        lo = bisect.bisect_left(xs, y)
        hi = bisect.bisect_right(xs, y)
        return (lo + 0.5 * (hi - lo)) / n

    theta = 0.0
    for x in xs:
        if x > cap:  # censored stays censored
            theta += below_half(x)
            continue
        base = math.floor(SHIFT * x)
        frac = SHIFT * x - base
        ys = [(base, 1.0 - frac), (base + 1, frac)]
        for y, w in ys:
            theta += w * below_half(min(y, cap + 1))
    theta /= n
    # U / (n·n) estimates theta; under the null its variance is
    # (2n + 1) / (12 n²) before the tie correction, which only helps.
    z = abs(theta - 0.5) * math.sqrt(12.0 * n * n / (2 * n + 1))
    return NORMAL.cdf(z - NORMAL.inv_cdf(1.0 - alpha / 2.0))


def one_shot(cell: dict) -> int | None:
    """Trials whose decode read correct after iteration 1, read as
    TrialStats::accuracy_raw_at(1) reads it (the last slot when the cap is
    0); None when the cell recorded no traces."""
    hist = cell.get("correct_raw_by_iteration") or []
    return hist[min(1, len(hist) - 1)] if hist else None


def label(cell: dict) -> str:
    coords = {k: v for k, v in cell["coordinates"].items() if k != "replica"}
    return "/".join(str(v) for v in coords.values()) or str(cell["index"])


def pool(cells: list[dict]) -> list[dict]:
    """Cells that differ only in their `replica` coordinate, merged into
    one: trials, solved, correct and one-shot counts add up (the one-shot
    count is None unless every replica is traced), samples concatenate."""
    out: dict[str, dict] = {}
    for cell in cells:
        key = label(cell)
        if key not in out:
            out[key] = {"label": key, "params": cell["params"],
                        "cap": cell["config"]["max_iterations"],
                        "trials": 0, "solved": 0, "correct": 0,
                        "one_shot": 0, "samples": []}
        merged = out[key]
        merged["trials"] += cell["stats"]["trials"]
        merged["solved"] += cell["stats"]["solved"]
        merged["correct"] += cell["stats"]["correct"]
        k = one_shot(cell)
        merged["one_shot"] = (None if k is None or merged["one_shot"] is None
                              else merged["one_shot"] + k)
        merged["samples"] += cell["iteration_samples"]
    return list(out.values())


def load(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")
    return {}


def compare(parent: dict, change: dict, out=sys.stdout) -> int:
    """Prints the per-cell verdicts; returns the exit status."""
    if parent.get("sweep") != change.get("sweep"):
        fail(f"different grids: {parent.get('sweep')} vs {change.get('sweep')}")
    pcells, ccells = parent.get("cells", []), change.get("cells", [])
    if not pcells or len(pcells) != len(ccells):
        fail(f"cell counts differ or are empty: {len(pcells)} vs {len(ccells)}")
    for p, c in zip(pcells, ccells):
        if p["index"] != c["index"] or p["coordinates"] != c["coordinates"]:
            fail(f"cell {p['index']} ({label(p)}) has no twin in the change")
        for key in CONFIG_KEYS:
            if p["config"][key] != c["config"][key]:
                fail(f"cell {label(p)}: {key} {p['config'][key]} vs "
                     f"{c['config'][key]}")
    pooled = list(zip(pool(pcells), pool(ccells)))
    traced = sum(p["one_shot"] is not None and c["one_shot"] is not None
                 for p, c in pooled)
    tests = 2 * len(pooled) + traced
    level = ALPHA / tests
    print(f"{parent['sweep']}: {len(pooled)} cells ({len(pcells)} replicas),"
          f" {tests} tests, family-wise alpha {ALPHA}, per-test level "
          f"{level:.2e}", file=out)
    print(f"{'cell':<10} {'trials':>7} {'acc parent':>10} {'acc change':>10}"
          f" {'p(acc)':>9} {'mean it parent':>14} {'mean it change':>14}"
          f" {'p(rank)':>9} {'power@5%':>8} {'1-shot parent':>13}"
          f" {'1-shot change':>13} {'p(1-shot)':>9}  verdict", file=out)
    differs = 0
    for p, c in pooled:
        p_acc = proportion_p(p["correct"], p["trials"], c["correct"],
                             c["trials"])
        a, b = censored(p), censored(c)
        _, p_rank = rank_test(a, b)
        power = shift_power(a, p["cap"], level)
        bad = p_acc < level or p_rank < level
        shot = f"{'-':>13} {'-':>13} {'-':>9}"
        if p["one_shot"] is not None and c["one_shot"] is not None:
            p_shot = proportion_p(p["one_shot"], p["trials"], c["one_shot"],
                                  c["trials"])
            bad = bad or p_shot < level
            shot = (f"{p['one_shot'] / p['trials']:>13.4f} "
                    f"{c['one_shot'] / c['trials']:>13.4f} {p_shot:>9.2e}")
        differs += bad
        print(f"{p['label']:<10} {p['trials']:>7} "
              f"{p['correct'] / p['trials']:>10.4f} "
              f"{c['correct'] / c['trials']:>10.4f} {p_acc:>9.2e} "
              f"{sum(a) / len(a):>14.2f} {sum(b) / len(b):>14.2f} "
              f"{p_rank:>9.2e} {power:>8.3f} {shot}  "
              f"{'DIFFERS' if bad else 'ok'}", file=out)
        for key in sorted(set(p["params"]) | set(c["params"])):
            if p["params"].get(key) != c["params"].get(key):
                print(f"{'':<10} param {key}: {p['params'].get(key)} vs "
                      f"{c['params'].get(key)}", file=out)
    print(f"{differs} of {len(pooled)} cells differ" if differs else
          "every cell passes: the two runs are equivalent in distribution",
          file=out)
    return 1 if differs else 0


# --- self-test ----------------------------------------------------------------

def synthetic_cell(index: int, rng: random.Random, trials: int, cap: int,
                   mean: float, accuracy: float,
                   shot: float | None) -> dict:
    """A cell whose solved counts are 1 + geometric-lognormal draws with
    about the given mean (SD about 1.5× the mean, like F3/M16's), traced
    with a one-shot accuracy of about `shot` unless it is None."""
    samples = []
    correct = 0
    mu = math.log(max(mean - 1.0, 1e-9)) - 0.5
    for _ in range(trials):
        if rng.random() >= accuracy:
            continue
        correct += 1
        x = 1 + math.floor(rng.lognormvariate(mu, 1.0))
        if x <= cap:
            samples.append(x)
    hist = [] if shot is None else [
        0, sum(rng.random() < shot for _ in range(trials))]
    return {"index": index, "coordinates": {"cell": f"S{index}"},
            "params": {}, "config": {"dim": 1024, "factors": 3,
                                     "codebook_size": 16, "trials": trials,
                                     "max_iterations": cap},
            "stats": {"trials": trials, "solved": len(samples),
                      "correct": min(correct, len(samples)),
                      "accuracy": min(correct, len(samples)) / trials},
            "iteration_samples": samples, "correct_raw_by_iteration": hist}


def synthetic_grid(seed: int, means: list[float], accuracies: list[float],
                   shots: list[float | None]) -> dict:
    rng = random.Random(seed)
    return {"sweep": "synthetic",
            "cells": [synthetic_cell(i, rng, 20000, 1000, m, a, s)
                      for i, (m, a, s) in enumerate(zip(means, accuracies,
                                                        shots))]}


class Sink:
    def write(self, _: str) -> None:
        pass


def self_test() -> int:
    means = [32.4, 35.0, 47.0, 54.0]
    acc = [1.0, 1.0, 0.999, 0.999]
    shots = [None, None, None, 0.935]  # one traced cell, like fig6b's
    parent = synthetic_grid(1, means, acc, shots)
    cases = [
        ("a seed-only change passes", synthetic_grid(2, means, acc, shots),
         0),
        ("mean iterations 32.4 -> 23.5 in one cell fails",
         synthetic_grid(3, [23.5] + means[1:], acc, shots), 1),
        ("accuracy 99.9 % -> 97.9 % in one cell fails",
         synthetic_grid(4, means, acc[:3] + [0.979], shots), 1),
        ("one-shot accuracy 93.5 % -> 91.5 % in one cell fails",
         synthetic_grid(5, means, acc, shots[:3] + [0.915]), 1),
    ]
    broken = 0
    for name, change, want in cases:
        got = compare(parent, change, out=Sink())
        print(f"{'ok  ' if got == want else 'FAIL'} {name} (exit {got})")
        broken += got != want
    # The power column must see a 5 % shift at 20000 trials a side.
    power = shift_power(censored(pool(parent["cells"][:1])[0]), 1000,
                        ALPHA / 9)
    ok = power >= 0.8
    print(f"{'ok  ' if ok else 'FAIL'} power against a 5 % shift at 20000 "
          f"trials: {power:.3f}")
    broken += not ok
    return 1 if broken else 0


def main(argv: list[str]) -> int:
    if argv == ["--self-test"]:
        return self_test()
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    return compare(load(argv[0]), load(argv[1]))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
