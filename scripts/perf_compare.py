#!/usr/bin/env python3
"""perf_compare: diff two perf_theorem1 JSON artifacts by named counter.

Compares a candidate bench run against a baseline (typically the committed
BENCH_5.json) and exits nonzero when any compared counter regressed by
more than the tolerance. This is the perf-regression ratchet: CI runs
the reduced perf_theorem1 sweep, then holds the fresh numbers against the
committed artifact.

Counter flattening: each entry of the top-level "sizes" array becomes
"n<n>.<counter>" (e.g. "n256.speedup_batched"); nested objects such as
"rwm" become "rwm.<counter>"; top-level numeric fields keep their name.
Only counters present in BOTH files are compared (CI runs reduced size
sweeps, so the intersection is the contract).

Direction is inferred from the counter name:
  higher-is-better:  *per_sec*, speedup_*
  lower-is-better:   *_ns, *ns_per*
Anything else (checksums, configuration echoes like beta/reps) is
informational and never gates.

Exit codes: 0 within tolerance, 1 regression, 2 usage/format error.
"""

import argparse
import fnmatch
import json
import sys

HIGHER_BETTER = ("per_sec", "speedup")
LOWER_BETTER = ("_ns", "ns_per")


def flatten(doc, prefix=""):
    """Yields (key, value) for every numeric leaf counter."""
    if isinstance(doc, dict):
        for name, value in doc.items():
            if name == "sizes" and isinstance(value, list):
                for entry in value:
                    n = entry.get("n")
                    sub = f"n{n}." if n is not None else ""
                    for key, leaf in flatten(entry, prefix + sub):
                        if key != prefix + sub + "n":
                            yield key, leaf
            elif isinstance(value, (dict, list)):
                yield from flatten(value, f"{prefix}{name}.")
            elif (isinstance(value, (int, float))
                  and not isinstance(value, bool)):
                yield f"{prefix}{name}", value
    elif isinstance(doc, list):
        for idx, value in enumerate(doc):
            yield from flatten(value, f"{prefix}{idx}.")


def direction(key):
    """'up' (higher better), 'down' (lower better), or None (no gate)."""
    leaf = key.rsplit(".", 1)[-1]
    if any(tok in leaf for tok in HIGHER_BETTER):
        return "up"
    if any(tok in leaf for tok in LOWER_BETTER):
        return "down"
    return None


def load_counters(path):
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise RuntimeError(f"{path}: {e}")
    return dict(flatten(doc))


def compare(baseline, candidate, tolerance, patterns):
    """Returns (rows, failures). rows: (key, base, cand, delta, verdict)."""
    rows, failures = [], []
    for key in sorted(set(baseline) & set(candidate)):
        if patterns and not any(fnmatch.fnmatch(key, p) for p in patterns):
            continue
        base, cand = baseline[key], candidate[key]
        sense = direction(key)
        if sense is None or base == 0:
            rows.append((key, base, cand, 0.0, "info"))
            continue
        if sense == "up":
            delta = (base - cand) / abs(base)  # positive = got worse
        else:
            delta = (cand - base) / abs(base)
        verdict = "REGRESSED" if delta > tolerance else "ok"
        rows.append((key, base, cand, delta, verdict))
        if verdict == "REGRESSED":
            failures.append(
                f"{key}: {base:g} -> {cand:g} "
                f"({delta * 100.0:+.1f}% worse, tolerance "
                f"{tolerance * 100.0:.0f}%)")
    return rows, failures


def self_test():
    baseline = {"n64.speedup_batched": 20.0, "n64.scalar_ns_per_eval": 100.0,
                "beta": 2.5}
    checks = [
        # (candidate, tolerance, should_fail, label)
        ({"n64.speedup_batched": 19.0, "n64.scalar_ns_per_eval": 100.0,
          "beta": 2.5},
         0.10, False, "5% speedup dip within 10% tolerance"),
        ({"n64.speedup_batched": 15.0, "n64.scalar_ns_per_eval": 100.0,
          "beta": 2.5},
         0.10, True, "25% speedup regression fails"),
        ({"n64.speedup_batched": 20.0, "n64.scalar_ns_per_eval": 150.0,
          "beta": 2.5},
         0.10, True, "50% latency growth fails"),
        ({"n64.speedup_batched": 40.0, "n64.scalar_ns_per_eval": 50.0,
          "beta": 9.9},
         0.10, False, "improvements and config echoes never gate"),
        ({"n9999.rounds_per_sec": 1.0},
         0.10, False, "disjoint keys compare nothing"),
    ]
    sample = {"bench": "b", "sizes": [{"n": 64, "x_ns": 5, "speedup_k": 2.0}],
              "rwm": {"rounds_per_sec": 7.0}}
    flat = dict(flatten(sample))
    expect = {"n64.x_ns": 5, "n64.speedup_k": 2.0, "rwm.rounds_per_sec": 7.0}
    if flat != expect:
        print(f"self-test FAILURE: flatten produced {flat}, expected {expect}")
        return 1
    for candidate, tol, should_fail, label in checks:
        _, failures = compare(baseline, candidate, tol, [])
        if bool(failures) != should_fail:
            print(f"self-test FAILURE: {label}: failures={failures}")
            return 1
        print(f"self-test: {label}: behaved")
    # Configuration metadata switched to shortest round-trip formatting
    # ("rate": 0.1, not 0.10000000000000001). Both spellings parse to the
    # same float when exact, and metadata never gates even when the
    # representation (or the value) changes.
    _, failures = compare({"rate": 0.10000000000000001, "beta": 2.5},
                          {"rate": 0.1, "beta": 2.5}, 0.0, [])
    if failures:
        print(f"self-test FAILURE: metadata representation gated: {failures}")
        return 1
    print("self-test: metadata double representation never gates: behaved")
    print("self-test: all comparisons behaved")
    return 0


def main():
    parser = argparse.ArgumentParser(
        prog="perf_compare", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("baseline", nargs="?",
                        help="baseline JSON (the committed artifact)")
    parser.add_argument("candidate", nargs="?",
                        help="freshly produced JSON")
    parser.add_argument("--tolerance", type=float, default=0.10,
                        help="allowed fractional regression per counter "
                             "(default 0.10 = 10%%)")
    parser.add_argument("--counters", action="append", default=[],
                        metavar="GLOB",
                        help="only compare counters matching this glob "
                             "(repeatable, e.g. --counters 'speedup_*')")
    parser.add_argument("--self-test", action="store_true",
                        help="verify the comparator on synthetic data")
    args = parser.parse_args()

    if args.self_test:
        return self_test()
    if not args.baseline or not args.candidate:
        parser.error("baseline and candidate files are required")

    try:
        baseline = load_counters(args.baseline)
        candidate = load_counters(args.candidate)
    except RuntimeError as e:
        print(f"perf_compare: {e}", file=sys.stderr)
        return 2

    patterns = [p for glob in args.counters for p in glob.split(",") if p]
    rows, failures = compare(baseline, candidate, args.tolerance, patterns)
    if not rows:
        print("perf_compare: no common counters to compare", file=sys.stderr)
        return 2
    width = max(len(key) for key, *_ in rows)
    for key, base, cand, delta, verdict in rows:
        if verdict == "info":
            print(f"  {key:<{width}}  {base:>14g}  {cand:>14g}    (info)")
        else:
            print(f"  {key:<{width}}  {base:>14g}  {cand:>14g}  "
                  f"{delta * 100.0:+7.1f}%  {verdict}")
    gated = sum(1 for r in rows if r[4] != "info")
    print(f"perf_compare: {gated} gated counter(s), "
          f"{len(failures)} regression(s), "
          f"tolerance {args.tolerance * 100.0:.0f}%")
    for failure in failures:
        print(f"perf_compare: REGRESSION: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
