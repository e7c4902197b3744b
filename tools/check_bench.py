#!/usr/bin/env python3
"""Gate CI on perf regressions in ``BENCH_perf.json``.

Compares a freshly generated benchmark file against the committed
baseline. Absolute round times are meaningless across runner hardware,
so two machine-independent checks gate the build:

1. derived speedup ratios must stay above their floors: the batch-of-8
   speedup over 8 serial evaluations (default 3x — the repo's headline
   batching win, always required), the compile-once-run-many speedup
   over the recompile-per-run path (default 1.5x — the plan-cache win),
   the vectorized noisy-engine speedup over the per-instruction
   Kraus walk (default 5x — the channel-aware fusion + superoperator
   win), and the pair-kernel vs. tensordot-reference speedups at 16
   qubits (default 4x — the kernel-v2 win) and 20 qubits (default 3x).
   These families gate whenever either file carries the key, so
   baselines predating a benchmark family still compare cleanly;
2. each benchmark's time *normalized by its in-run reference benchmark*
   (its ``reference`` field — a benchmark from the same cost family,
   defaulting to the file's ``reference_benchmark``) must not regress
   more than ``--max-regression`` (default 25%) against the baseline's
   normalized value. A benchmark that is its own reference is exempt —
   it is a unit of measurement; one whose reference changed between
   baseline and current is reported but not gated (schema migration).

The file may also carry a ``phases`` key — the obs-traced per-phase
self-time shares of one end-to-end run (see
``benchmarks/perf/conftest.py``). Shares are within-run normalized, so
they compare across machines: a phase whose share drifted more than
``--max-phase-drift`` (absolute, default 0.30) fails the gate. The
comparison is first-appearance tolerant — a baseline without ``phases``
(or a phase new to the current file) reports but never gates — but a
current file that lacks the baseline's ``phases`` fails, except under
``--subset``.

Benchmarks present in the current file but absent from the baseline are
reported as "new" and skipped (there is nothing to compare against —
they start gating on the next baseline refresh); a benchmark whose
reference is missing or zero-time is likewise reported and skipped
rather than failing the run, so adding a benchmark family never breaks
an older baseline comparison. ``--subset`` relaxes the reverse
direction for partial runs (the CI kernel smoke job regenerates only
the kernel family): benchmarks present only in the baseline are not
treated as dropped and absent derived keys never gate.

Kernel benchmarks carry a ``bytes_touched`` estimate; the report prints
the implied sustained GB/s per engine (roofline placement, never
gated).

Exit status is non-zero on any violation, with a per-benchmark report
either way.

Usage::

    python tools/check_bench.py --baseline old.json --current BENCH_perf.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

SPEEDUP_KEY = "batch8_speedup_vs_serial8"
COMPILE_SPEEDUP_KEY = "compile_once_speedup_vs_recompile"
NOISY_SPEEDUP_KEY = "noisy_engine_speedup_8q"
KERNEL_SPEEDUP_KEY = "kernel_speedup_16q"
KERNEL_20Q_SPEEDUP_KEY = "kernel_speedup_20q"
RETRY_OVERHEAD_KEY = "retry_overhead_fleet"


def load(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        sys.exit(f"check_bench: cannot read {path}: {exc}")


def normalized_times(payload: dict, path: Path) -> tuple:
    """``({name: normalized_min}, {name: reference_name}, [skipped])``.

    A benchmark whose reference is missing or zero-time cannot be
    normalized; it lands in ``skipped`` (reported, never gated) instead
    of aborting the whole comparison.
    """
    benchmarks = payload.get("benchmarks", {})
    default_reference = payload.get("reference_benchmark")
    normalized = {}
    references = {}
    skipped = []
    for name, entry in benchmarks.items():
        reference_name = entry.get("reference", default_reference)
        reference = benchmarks.get(reference_name, {}).get("min_s")
        if not reference:
            print(
                f"check_bench: {path}: benchmark {name!r} has missing or "
                f"zero-time reference {reference_name!r}; skipping it"
            )
            skipped.append(name)
            continue
        normalized[name] = entry["min_s"] / reference
        references[name] = reference_name
    return normalized, references, skipped


def report_roofline(current: dict) -> None:
    """Informative sustained-bandwidth estimates for kernel benchmarks.

    Kernel benchmarks carry a ``bytes_touched`` estimate for one
    workload execution (summed from the ``kernel.*.bytes`` counters);
    dividing by the best round time approximates the gate loop's
    sustained memory bandwidth, which locates each engine against the
    machine's roofline. Never gates — absolute GB/s is machine-bound.
    """
    rows = [
        (name, entry)
        for name, entry in current.get("benchmarks", {}).items()
        if entry.get("bytes_touched") and entry.get("min_s")
    ]
    if not rows:
        return
    print("\nroofline estimate (bytes touched / best round):")
    for name, entry in sorted(rows):
        gbps = entry["bytes_touched"] / entry["min_s"] / 1e9
        print(
            f"  {name}: {entry['bytes_touched'] / 1e9:6.2f} GB / "
            f"{entry['min_s'] * 1e3:8.1f} ms = {gbps:6.1f} GB/s"
        )


def compare_phases(
    baseline: dict,
    current: dict,
    max_drift: float,
    failures: list,
    subset: bool = False,
) -> None:
    """Tolerant comparison of the obs per-phase share breakdowns."""
    cur = current.get("phases")
    base = baseline.get("phases")
    if not cur:
        # A full run must record the phases its baseline has; otherwise
        # the drift gate would switch off without a word.
        if base and not subset:
            failures.append("current file lacks the baseline's traced phases")
        return
    shares = cur.get("shares", {})
    base_shares = (base or {}).get("shares")
    print(
        f"\ntraced phases ({cur.get('workload', '?')}, "
        f"coverage {100.0 * cur.get('coverage', 0.0):.1f}%):"
    )
    for name in sorted(shares):
        if base_shares is None or name not in base_shares:
            print(f"  {name}: {shares[name]:6.3f} /    (new)  [ok]")
            continue
        drift = abs(shares[name] - base_shares[name])
        status = "FAIL" if drift > max_drift else "ok"
        print(
            f"  {name}: {shares[name]:6.3f} / {base_shares[name]:6.3f}"
            f"  (drift {drift:.3f}, allowed {max_drift:.2f}) [{status}]"
        )
        if drift > max_drift:
            failures.append(
                f"phase {name} share drifted {drift:.3f} "
                f"(allowed {max_drift:.2f})"
            )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", type=Path, required=True)
    parser.add_argument("--current", type=Path, required=True)
    parser.add_argument(
        "--max-regression",
        type=float,
        default=0.25,
        help="maximum allowed normalized slowdown vs. baseline (0.25 = 25%%)",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=3.0,
        help="floor for the batch-of-8 vs. 8-serial speedup",
    )
    parser.add_argument(
        "--min-compile-once-speedup",
        type=float,
        default=1.5,
        help="floor for the compile-once-run-many vs. recompile speedup",
    )
    parser.add_argument(
        "--min-noisy-speedup",
        type=float,
        default=5.0,
        help="floor for the noisy-engine vs. per-instruction-walk speedup",
    )
    parser.add_argument(
        "--min-kernel-speedup",
        type=float,
        default=4.0,
        help="floor for the 16q pair-kernel vs. tensordot-reference speedup",
    )
    parser.add_argument(
        "--min-kernel-speedup-20q",
        type=float,
        default=3.0,
        help="floor for the 20q pair-kernel vs. tensordot-reference speedup",
    )
    parser.add_argument(
        "--max-retry-overhead",
        type=float,
        default=4.0,
        help=(
            "ceiling for the faulty-drain vs. clean-drain overhead ratio "
            "(two injected retries per job must not multiply drain cost "
            "beyond this factor)"
        ),
    )
    parser.add_argument(
        "--max-phase-drift",
        type=float,
        default=0.30,
        help="maximum absolute drift of a traced phase's self-time share",
    )
    parser.add_argument(
        "--subset",
        action="store_true",
        help=(
            "the current file covers only a subset of the suite (e.g. the "
            "CI kernel smoke run): benchmarks present only in the baseline "
            "are not treated as dropped"
        ),
    )
    args = parser.parse_args(argv)

    baseline = load(args.baseline)
    current = load(args.current)
    base_norm, base_refs, _ = normalized_times(baseline, args.baseline)
    cur_norm, cur_refs, cur_skipped = normalized_times(current, args.current)

    failures = []

    speedup = current.get("derived", {}).get(SPEEDUP_KEY)
    if speedup is None:
        if not args.subset:
            failures.append(f"current file lacks derived.{SPEEDUP_KEY}")
    else:
        status = "ok" if speedup >= args.min_speedup else "FAIL"
        print(
            f"{SPEEDUP_KEY}: {speedup:.2f}x "
            f"(floor {args.min_speedup:.2f}x) [{status}]"
        )
        if speedup < args.min_speedup:
            failures.append(
                f"batch speedup {speedup:.2f}x below floor "
                f"{args.min_speedup:.2f}x"
            )

    # These cost families gate once they exist on either side: a current
    # file missing a key the baseline had means the benchmark family
    # disappeared; a baseline without it (a snapshot predating the
    # family) just means the floor starts applying with this run.
    gated_families = (
        (COMPILE_SPEEDUP_KEY, args.min_compile_once_speedup, "compile-once"),
        (NOISY_SPEEDUP_KEY, args.min_noisy_speedup, "noisy-engine"),
        (KERNEL_SPEEDUP_KEY, args.min_kernel_speedup, "16q-kernel"),
        (KERNEL_20Q_SPEEDUP_KEY, args.min_kernel_speedup_20q, "20q-kernel"),
    )
    for key, floor, label in gated_families:
        speedup = current.get("derived", {}).get(key)
        if speedup is None:
            if key in baseline.get("derived", {}) and not args.subset:
                failures.append(f"current file lacks derived.{key}")
            continue
        status = "ok" if speedup >= floor else "FAIL"
        print(f"{key}: {speedup:.2f}x (floor {floor:.2f}x) [{status}]")
        if speedup < floor:
            failures.append(
                f"{label} speedup {speedup:.2f}x below floor {floor:.2f}x"
            )

    # The retry-overhead family gates a *ceiling*, not a floor; like the
    # speedup families it is first-appearance tolerant — a baseline
    # predating it just means the ceiling starts applying with this run.
    overhead = current.get("derived", {}).get(RETRY_OVERHEAD_KEY)
    if overhead is None:
        if RETRY_OVERHEAD_KEY in baseline.get("derived", {}) and not args.subset:
            failures.append(f"current file lacks derived.{RETRY_OVERHEAD_KEY}")
    else:
        status = "ok" if overhead <= args.max_retry_overhead else "FAIL"
        print(
            f"{RETRY_OVERHEAD_KEY}: {overhead:.2f}x "
            f"(ceiling {args.max_retry_overhead:.2f}x) [{status}]"
        )
        if overhead > args.max_retry_overhead:
            failures.append(
                f"retry overhead {overhead:.2f}x above ceiling "
                f"{args.max_retry_overhead:.2f}x"
            )

    print("\nnormalized vs each benchmark's reference (current / baseline):")
    for name in sorted(cur_norm):
        if name == cur_refs[name]:
            continue  # a unit of measurement, not a gated benchmark
        if name not in base_norm:
            # First appearance: nothing to compare against, never gated.
            print(f"  {name}: {cur_norm[name]:8.2f} /    (new)  [ok]")
            continue
        if base_refs.get(name) != cur_refs[name]:
            print(f"  {name}: {cur_norm[name]:8.2f} / (reference changed)  [ok]")
            continue
        allowed = base_norm[name] * (1.0 + args.max_regression)
        regressed = cur_norm[name] > allowed
        status = "FAIL" if regressed else "ok"
        print(
            f"  {name}: {cur_norm[name]:8.2f} / {base_norm[name]:8.2f}"
            f"  (allowed {allowed:8.2f}) [{status}]"
        )
        if regressed:
            change = 100.0 * (cur_norm[name] / base_norm[name] - 1.0)
            failures.append(f"{name} regressed {change:.0f}% (normalized)")

    if not args.subset:
        current_names = set(cur_norm) | set(cur_skipped)
        dropped = sorted(set(base_norm) - current_names)
        for name in dropped:
            failures.append(f"benchmark {name} disappeared from the suite")

    report_roofline(current)
    compare_phases(baseline, current, args.max_phase_drift, failures, args.subset)

    if failures:
        print("\ncheck_bench: FAILED")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("\ncheck_bench: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
