#!/usr/bin/env python3
"""perf_compare: diff two BENCH_N.json artifacts by named counter.

Compares a candidate bench run against a baseline (typically the committed
BENCH_N.json) and exits nonzero when any compared counter regressed by
more than the tolerance. This is the perf-regression ratchet: CI runs
the reduced perf sweep, then holds the fresh numbers against the
committed artifact.

Counter flattening: each entry of the top-level "sizes" array becomes
"n<n>.<counter>" (e.g. "n256.speedup_batched"); entries that also carry a
"policy" string (perf_serve emits one row per schedule policy) become
"n<n>.<policy>.<counter>" (e.g. "n256.max-weight.p99_slot_us");
nested objects such as "rwm" become "rwm.<counter>"; top-level numeric
fields keep their name. Only counters present in BOTH files are compared
(CI runs reduced size sweeps, so the intersection is the contract).

Direction is inferred from the counter name:
  higher-is-better:  *per_sec*, speedup_*, served
  lower-is-better:   *_ns, *_us, *ns_per*, *us_per*
Anything else (checksums, configuration echoes like beta/reps) is
informational and never gates. Boolean conservation_ok and
deterministic_ok counters are a hard gate regardless of tolerance: a
candidate that trades throughput for a conservation or thread-count
determinism violation must fail.

Artifact sequence: the committed artifacts are BENCH_<N>.json with N the
PR sequence number, and the sequence has gaps (BENCH_7.json was never
committed — that PR changed no perf-relevant code). Comparing two
artifacts whose numbers differ by more than 1 is usually a mistake (it
silently attributes several PRs' worth of drift to the candidate), so it
is refused unless the baseline is a *stated choice*: pass it via
--baseline instead of the first positional to say "yes, I mean to span
the gap".

Exit codes: 0 within tolerance, 1 regression (or conservation violation),
2 usage/format error.
"""

import argparse
import fnmatch
import json
import os
import re
import sys

HIGHER_BETTER = ("per_sec", "speedup", "served")
LOWER_BETTER = ("_ns", "_us", "ns_per", "us_per", "allocs", "p99_over_p50")
HARD_BOOLS = ("conservation_ok", "deterministic_ok")

BENCH_NAME_RE = re.compile(r"^BENCH_(\d+)\.json$")


def bench_number(path):
    """The N of a BENCH_N.json basename, or None for other filenames."""
    match = BENCH_NAME_RE.match(os.path.basename(path))
    return int(match.group(1)) if match else None


def adjacency_error(baseline_path, candidate_path, stated):
    """Error string when the pair spans a gap in the BENCH_N sequence.

    Applies only when BOTH files follow the BENCH_N.json naming scheme;
    ad-hoc filenames (CI's fresh bench_serve.json, tmp files) carry no
    sequence position and always compare. Identical numbers (the identity
    test) and adjacent numbers pass; anything wider needs `stated` (the
    --baseline flag) to be an explicit choice.
    """
    base_n = bench_number(baseline_path)
    cand_n = bench_number(candidate_path)
    if base_n is None or cand_n is None or abs(cand_n - base_n) <= 1 or stated:
        return None
    return (f"BENCH_{base_n} -> BENCH_{cand_n} spans a gap in the artifact "
            f"sequence (e.g. BENCH_7.json was never committed); pass the "
            f"baseline via --baseline to make the non-adjacent comparison "
            f"a stated choice")


def flatten(doc, prefix=""):
    """Yields (key, value) for every numeric/bool leaf counter."""
    if isinstance(doc, dict):
        for name, value in doc.items():
            if name == "sizes" and isinstance(value, list):
                for entry in value:
                    n = entry.get("n")
                    sub = f"n{n}." if n is not None else ""
                    # Per-policy rows (perf_serve): the policy joins the
                    # prefix so the same counter gates per policy.
                    policy = entry.get("policy")
                    if isinstance(policy, str) and policy:
                        sub += f"{policy}."
                    for key, leaf in flatten(entry, prefix + sub):
                        if key != prefix + sub + "n":
                            yield key, leaf
            elif isinstance(value, (dict, list)):
                yield from flatten(value, f"{prefix}{name}.")
            elif isinstance(value, (int, float, bool)):
                yield f"{prefix}{name}", value
    elif isinstance(doc, list):
        for idx, value in enumerate(doc):
            yield from flatten(value, f"{prefix}{idx}.")


def direction(key):
    """'up' (higher better), 'down' (lower better), or None (no gate)."""
    leaf = key.rsplit(".", 1)[-1]
    if any(tok in leaf for tok in HIGHER_BETTER):
        return "up"
    if any(leaf.endswith(tok) or tok in leaf for tok in LOWER_BETTER):
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
        leaf = key.rsplit(".", 1)[-1]
        if leaf in HARD_BOOLS:
            ok = bool(cand)
            rows.append((key, base, cand, 0.0, "ok" if ok else "VIOLATED"))
            if not ok:
                failures.append(f"{key}: {leaf} violated")
            continue
        if isinstance(base, bool) or isinstance(cand, bool):
            continue
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
                "n64.conservation_ok": True, "n1.deterministic_ok": True,
                "beta": 2.5}
    checks = [
        # (candidate, tolerance, should_fail, label)
        ({"n64.speedup_batched": 19.0, "n64.scalar_ns_per_eval": 100.0,
          "n64.conservation_ok": True, "beta": 2.5},
         0.10, False, "5% speedup dip within 10% tolerance"),
        ({"n64.speedup_batched": 15.0, "n64.scalar_ns_per_eval": 100.0,
          "n64.conservation_ok": True, "beta": 2.5},
         0.10, True, "25% speedup regression fails"),
        ({"n64.speedup_batched": 20.0, "n64.scalar_ns_per_eval": 150.0,
          "n64.conservation_ok": True, "beta": 2.5},
         0.10, True, "50% latency growth fails"),
        ({"n64.speedup_batched": 20.0, "n64.scalar_ns_per_eval": 100.0,
          "n64.conservation_ok": False, "beta": 2.5},
         0.50, True, "conservation violation fails at any tolerance"),
        ({"n64.speedup_batched": 40.0, "n64.scalar_ns_per_eval": 50.0,
          "n64.conservation_ok": True, "beta": 9.9},
         0.10, False, "improvements and config echoes never gate"),
        ({"n64.speedup_batched": 20.0, "n64.scalar_ns_per_eval": 100.0,
          "n64.conservation_ok": True, "n1.deterministic_ok": False,
          "beta": 2.5},
         0.50, True, "determinism violation fails at any tolerance"),
        ({"n9999.slots_per_sec": 1.0},
         0.10, False, "disjoint keys compare nothing"),
    ]
    sample = {"bench": "b", "sizes": [{"n": 64, "x_ns": 5, "speedup_k": 2.0}],
              "rwm": {"rounds_per_sec": 7.0}}
    flat = dict(flatten(sample))
    expect = {"n64.x_ns": 5, "n64.speedup_k": 2.0, "rwm.rounds_per_sec": 7.0}
    if flat != expect:
        print(f"self-test FAILURE: flatten produced {flat}, expected {expect}")
        return 1
    # Per-policy rows: the same n appears once per policy, and the policy
    # string joins the key so the counters gate independently.
    policy_sample = {"sizes": [
        {"n": 64, "policy": "max-weight", "p99_over_p50": 3.0},
        {"n": 64, "policy": "ahm", "p99_over_p50": 2.0}]}
    flat = dict(flatten(policy_sample))
    expect = {"n64.max-weight.p99_over_p50": 3.0, "n64.ahm.p99_over_p50": 2.0}
    if flat != expect:
        print(f"self-test FAILURE: policy flatten produced {flat}, "
              f"expected {expect}")
        return 1
    print("self-test: policy rows flatten with the policy in the key: "
          "behaved")
    for candidate, tol, should_fail, label in checks:
        _, failures = compare(baseline, candidate, tol, [])
        if bool(failures) != should_fail:
            print(f"self-test FAILURE: {label}: failures={failures}")
            return 1
        print(f"self-test: {label}: behaved")
    gap_checks = [
        # (baseline path, candidate path, stated, should_refuse, label)
        ("BENCH_8.json", "BENCH_9.json", False, False,
         "adjacent artifacts compare by default"),
        ("BENCH_5.json", "BENCH_5.json", False, False,
         "identity comparison is never a gap"),
        ("BENCH_6.json", "BENCH_9.json", False, True,
         "non-adjacent artifacts are refused by default"),
        ("BENCH_6.json", "BENCH_9.json", True, False,
         "--baseline makes the gap a stated choice"),
        ("old/BENCH_6.json", "/tmp/bench_serve.json", False, False,
         "ad-hoc filenames carry no sequence position"),
    ]
    for base_path, cand_path, stated, should_refuse, label in gap_checks:
        refused = adjacency_error(base_path, cand_path, stated) is not None
        if refused != should_refuse:
            print(f"self-test FAILURE: {label}: refused={refused}")
            return 1
        print(f"self-test: {label}: behaved")
    if direction("n4096.allocs_per_slot") != "down":
        print("self-test FAILURE: allocs_per_slot must gate lower-is-better")
        return 1
    print("self-test: allocs_per_slot gates lower-is-better: behaved")
    if direction("n4096.max-weight.p99_over_p50") != "down":
        print("self-test FAILURE: p99_over_p50 must gate lower-is-better")
        return 1
    print("self-test: p99_over_p50 gates lower-is-better: behaved")
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
                        help="baseline BENCH_N.json (the committed artifact)")
    parser.add_argument("candidate", nargs="?",
                        help="freshly produced BENCH_N.json")
    parser.add_argument("--baseline", dest="stated_baseline", metavar="PATH",
                        help="baseline as a stated choice: required to "
                             "compare non-adjacent BENCH_N.json artifacts "
                             "(the sequence has gaps)")
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
    # With --baseline PATH, the single positional is the candidate (argparse
    # fills positionals left to right, so it lands in args.baseline).
    if args.stated_baseline:
        baseline_path = args.stated_baseline
        candidate_path = args.candidate or args.baseline
    else:
        baseline_path, candidate_path = args.baseline, args.candidate
    if not baseline_path or not candidate_path:
        parser.error("baseline and candidate files are required")

    gap = adjacency_error(baseline_path, candidate_path,
                          stated=bool(args.stated_baseline))
    if gap:
        print(f"perf_compare: {gap}", file=sys.stderr)
        return 2

    try:
        baseline = load_counters(baseline_path)
        candidate = load_counters(candidate_path)
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
