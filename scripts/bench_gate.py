#!/usr/bin/env python3
"""Benchmark regression gate for CI.

Parses `go test -bench` output (one or more files, already -benchmem) and
compares the best (minimum) ns/op per benchmark against the recorded
baselines: the `after` blocks of BENCH_wheel.json (kernel/mesh hot paths),
BENCH_protocols_gate.json (per-protocol simulator baselines),
BENCH_shard.json (sequential vs epoch-parallel kernel), and BENCH_soa.json
(third-generation fast path: throughput, commit, and abort latency — loaded
last, so it supersedes same-named entries), falling back to the `after`
block of BENCH_hotpath.json. Fails on

  * ns/op more than THRESHOLD (default 15%) above the baseline,
  * any allocation on the zero-alloc hot paths (kernel post/step and far
    post, mesh send and 256-way multicast, the JSONL event encoder, the
    stream log append, and the rivals' per-attempt line bookkeeping), or a
    zero-alloc bench missing from the input, or
  * a per-protocol simulator run (BenchmarkProtocols/*) allocating more than
    ALLOC_THRESHOLD (15%) above its recorded allocs_op. Allocation counts do
    not depend on the host, so this check holds on any runner and is not
    widened by BENCH_GATE_THRESHOLD.

Run -count=3 (or more) and let the gate take the min: single bench samples
on shared CI runners are noisy, minima are stable. Cross-host ns/op
comparisons are inherently rough — the threshold can be widened for a known
slow runner via BENCH_GATE_THRESHOLD (e.g. `BENCH_GATE_THRESHOLD=0.30`).

Usage: bench_gate.py BENCH_OUTPUT_FILE...
"""

import json
import os
import re
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
THRESHOLD = float(os.environ.get("BENCH_GATE_THRESHOLD", "0.15"))
ZERO_ALLOC = {
    "BenchmarkKernelPostStep",
    "BenchmarkKernelFarPost",
    "BenchmarkMeshSendEvent",
    "BenchmarkMeshMulticast256",
    "BenchmarkJSONLStreamEvent",
    "BenchmarkStreamLogWrite",
    "BenchmarkLineSetAttempt",
}
ALLOC_THRESHOLD = 0.15
ALLOC_GATED = re.compile(r"^BenchmarkProtocols/")

# `BenchmarkName-8   123  456 ns/op  ... 0 allocs/op` (GOMAXPROCS suffix and
# allocs column optional; sub-benchmark names keep their slash, e.g.
# `BenchmarkProtocols/tl2-8`).
LINE = re.compile(
    r"^(Benchmark[\w/]+?)(?:-\d+)?\s+\d+\s+([\d.]+) ns/op(?:.*?\s(\d+) allocs/op)?"
)


def load_baselines():
    """Load recorded baselines, failing loudly on anything unexpected.

    BENCH_wheel.json (kernel/mesh hot paths), BENCH_protocols_gate.json
    (per-protocol simulator runs), BENCH_shard.json (sequential vs
    epoch-parallel kernel), and BENCH_soa.json (third-generation fast path,
    including the abort-latency gate) are REQUIRED: silently skipping a missing or
    malformed file would turn the gate into a no-op that reports every
    benchmark as "informational" and passes. Only BENCH_hotpath.json (a
    superseded earlier baseline) is optional, and even it must parse if
    present. Later files win where names collide. Returns the ns/op
    baselines and the recorded allocs_op, each as {bench: (value, file)}.
    """
    base, alloc_base = {}, {}
    for name, required in (
        ("BENCH_hotpath.json", False),
        ("BENCH_wheel.json", True),
        ("BENCH_protocols_gate.json", True),
        ("BENCH_shard.json", True),
        ("BENCH_soa.json", True),
    ):
        path = os.path.join(REPO, name)
        if not os.path.exists(path):
            if required:
                sys.exit(
                    f"bench_gate: required baseline {name} is missing at {path} — "
                    "the gate cannot run without it (regenerate it or restore it "
                    "from version control)"
                )
            continue
        try:
            with open(path) as f:
                doc = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            sys.exit(f"bench_gate: baseline {name} is unreadable or malformed: {e}")
        after = doc.get("after")
        if not isinstance(after, dict):
            sys.exit(f"bench_gate: baseline {name} has no 'after' block — malformed baseline")
        loaded = 0
        for bench, rec in after.items():
            if isinstance(rec, dict) and "ns_op" in rec:
                base[bench] = (float(rec["ns_op"]), name)
                if "allocs_op" in rec:
                    alloc_base[bench] = (int(rec["allocs_op"]), name)
                loaded += 1
        if required and loaded == 0:
            sys.exit(f"bench_gate: baseline {name} contains no usable benchmark records")
    return base, alloc_base


def parse(paths):
    ns, allocs = {}, {}
    for path in paths:
        with open(path) as f:
            for line in f:
                m = LINE.match(line)
                if not m:
                    continue
                bench, v = m.group(1), float(m.group(2))
                ns[bench] = min(ns.get(bench, v), v)
                if m.group(3) is not None:
                    a = int(m.group(3))
                    allocs[bench] = max(allocs.get(bench, a), a)
    return ns, allocs


def main():
    if len(sys.argv) < 2:
        sys.exit("usage: bench_gate.py BENCH_OUTPUT_FILE...")
    baselines, alloc_baselines = load_baselines()
    ns, allocs = parse(sys.argv[1:])
    if not ns:
        sys.exit("bench_gate: no benchmark lines found in input")

    failed = False
    for bench in sorted(ZERO_ALLOC - ns.keys()):
        print(f"{bench}: zero-alloc hot path missing from the input — run it")
        failed = True
    for bench in sorted(ns):
        got = ns[bench]
        if bench in baselines:
            want, src = baselines[bench]
            limit = want * (1 + THRESHOLD)
            verdict = "ok" if got <= limit else "REGRESSION"
            print(
                f"{bench}: {got:.6g} ns/op vs {want:.6g} recorded in {src} "
                f"(limit {limit:.6g}, {THRESHOLD:.0%} headroom) — {verdict}"
            )
            failed |= got > limit
        else:
            print(f"{bench}: {got:.6g} ns/op (no recorded baseline, informational)")
        if bench in ZERO_ALLOC:
            a = allocs.get(bench)
            if a is None:
                print(f"{bench}: missing allocs/op column (run with -benchmem)")
                failed = True
            elif a != 0:
                print(f"{bench}: {a} allocs/op — zero-alloc hot path REGRESSION")
                failed = True
            else:
                print(f"{bench}: 0 allocs/op — ok")
        if ALLOC_GATED.match(bench) and bench in alloc_baselines:
            want, src = alloc_baselines[bench]
            limit = want * (1 + ALLOC_THRESHOLD)
            a = allocs.get(bench)
            if a is None:
                print(f"{bench}: missing allocs/op column (run with -benchmem)")
                failed = True
            else:
                verdict = "ok" if a <= limit else "ALLOCATION REGRESSION"
                print(
                    f"{bench}: {a} allocs/op vs {want} recorded in {src} "
                    f"(limit {limit:.0f}, {ALLOC_THRESHOLD:.0%} headroom) — {verdict}"
                )
                failed |= a > limit
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
