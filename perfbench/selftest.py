"""Fast self-test of the benchmark: the smallest rung of every workload.

    python3 perfbench/selftest.py

For each workload it runs only its smallest operations, one traced pass
and one untraced, and checks that every answer matches, that every
metric is computed, and that the metric names and units agree with
``BENCHMARK.json``.  It takes well under a minute and is not part of the
package's test suite.
"""

from __future__ import annotations

import json
import sys

import run

SMALLEST = {
    "cli-small": lambda op: op.name == "check fig2.cds --json",
    "graph-scale": lambda op: op.name.startswith("e100-0"),
    "lp-oracle": lambda op: op.name == "ground 4" or op.name.startswith("half-reduced "),
}


def main() -> int:
    sys.path[:0] = [str(run.SRC), str(run.HERE)]
    problems = []
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for kind, ours in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        theirs = {m["name"]: m["unit"] for m in spec[kind]}
        if theirs != ours:
            problems.append(f"BENCHMARK.json {kind} differs from run.py: {sorted(set(theirs) ^ set(ours))}")
    names = {w["name"] for w in spec["workloads"]}
    if names != set(SMALLEST):
        problems.append(f"BENCHMARK.json workloads {sorted(names)} differ from {sorted(SMALLEST)}")
    for name, keep in SMALLEST.items():
        wl, passes, probes, tracer = run.measure(name, seed=0, seconds=0, trace=True, op_filter=keep, n_probes=1)
        records = [r for p in passes for r in p["ops"]]
        if not records:
            problems.append(f"{name}: no operation matched the smallest rung")
            continue
        for r in records:
            if not r["ok"]:
                problems.append(f"{name}: {r['op']} failed: {r['error']}")
        e2e = run.end_to_end(wl, passes, probes)
        layers = run.per_layer(wl, passes, probes, tracer)
        missing = (set(run.END_TO_END) - set(e2e)) | (set(run.PER_LAYER) - set(layers))
        if missing:
            problems.append(f"{name}: metrics not computed: {sorted(missing)}")
        if not 0 < layers["trace.self_share"] <= 1.0 + 1e-9:
            problems.append(f"{name}: layer self times cover {layers['trace.self_share']:.3f} of the pass")
        print(f"{name}: {len(records)} operations, wall {e2e['wall_s']:.4f} s, "
              f"layer share {layers['trace.self_share']:.3f}")
    for p in problems:
        print("FAIL " + p)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
