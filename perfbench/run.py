"""cdskit benchmark: closed-loop workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its ``src``.
One client runs one operation at a time, in passes over the workload's
fixed operation list, for about ``--seconds`` (a pass starts if it is
expected to end within half a pass of that) and at least ``min_passes``
passes.  Every answer is checked.  The report
lines name each metric with its unit; the last line of standard output is
the JSON object ``{"correct", "attempted", "failed", "metrics"}``.

End-to-end metrics (``--trace 0``):
  setup_s       median over fresh interpreters, started before, between
                and after the passes, of ``import cdskit`` plus reading and
                parsing the workload's input files
  wall_s        median time of one pass, until every answer is in
  op_p50_s      median operation of the mean pass: each operation's time
                averaged over the passes, then the median (nearest rank)
                over the operations.  The machine this was tuned on runs
                interpreter-bound code at two speeds, 1.7x apart, for
                seconds at a time; a median taken over single timings
                jumps with the share of timings that fell in the slow
                spells, a mean moves only as far as that share does
  op_tail_s     the q-quantile of operation times, q = 1 - 10/n where n is
                the sample count every run is guaranteed (min_passes times
                the operations of a pass), so at least ten samples lie
                beyond it; q is at least 0.5
  peak_rss_mib  peak resident memory of what runs the operations: this
                process, and the largest peak that a child reported with an
                answer (cli-small's commands, lp-oracle's LP workers; an LP
                worker stopped at its deadline has grown by however far it
                got, which depends on the machine's speed, and is left out)

Per-layer metrics (``--trace 1``) come from passes with spans recorded at
each layer boundary (see spans.py); they alternate with untraced passes so
that ``trace.overhead_s`` is traced minus untraced ``wall_s``.  Times are
per pass unless the name says otherwise; ``cli.*`` are per command, and
``instance.parse_s`` (and ``cli.import_s`` outside cli-small) per set-up.
``trace.self_share`` is the share of the pass that the layers' self times
account for; the rest is the benchmark's own checking.

An operation fails when its answer differs from the expected one, its
exit code is wrong, it raises or writes to stderr, the oracle disagrees
with the ranks, or it misses its deadline.  Failures of operations that
exercise a known defect (golden.json, ``known_defect``) are counted in
``failed`` but leave ``correct`` true; any other failure makes it false.

Each run writes its full record (environment, every operation, spans) to
``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import traceback
from importlib import metadata
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_PROBES = 9  # fresh interpreters per run; two before the passes, one after each

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "peak_rss_mib": "MiB",
}
PER_LAYER = {
    "cli.start_s": "s", "cli.import_s": "s", "cli.run_s": "s",
    "instance.parse_s": "s", "instance.feasible_s": "s", "instance.vertices": "count", "instance.edges": "count",
    "synthesis.plan_s": "s", "synthesis.synth_s": "s", "synthesis.reduce_s": "s",
    "synthesis.field_p": "count", "synthesis.noise_len": "count",
    "scheme.verify_s": "s", "scheme.verify_s_per_edge": "s", "scheme.alignment_s": "s", "scheme.format_parse_s": "s",
    "gf.rank_calls": "count", "gf.rank_s": "s",
    "oracle.tabulate_s": "s", "oracle.realizations": "count", "oracle.correct_s_per_edge": "s",
    "oracle.secure_s_per_edge": "s", "oracle.audit_s": "s", "oracle.agree_frac": "ratio",
    "entropy_lp.build_s": "s", "entropy_lp.rows": "count", "entropy_lp.vars": "count", "entropy_lp.certify_s": "s",
    "simplex.solve_s": "s", "simplex.calls": "count", "simplex.dual_bits_max": "bits",
    "simplex.deadline_misses": "count", "simplex.reach_ground": "count", "simplex.fig2_s": "s",
    **{f"{layer}.self_s": "s" for layer in
       ("cli", "instance", "synthesis", "scheme", "gf", "oracle", "entropy_lp", "simplex")},
    "trace.self_share": "ratio", "trace.overhead_s": "s",
}


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank q-quantile: the smallest sample with at least a share q
    of the samples at or below it.  Unlike interpolation it never mixes two
    operations of very different cost."""
    xs = sorted(values)
    return xs[max(math.ceil(q * len(xs)) - 1, 0)]


def environment(seed: int) -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "seed": seed,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def setup_probes(wl, env: dict, n: int) -> list[dict]:
    """Time ``import cdskit`` plus parsing the inputs in fresh interpreters."""
    from workloads import run_child

    inputs = wl.work / "inputs.txt"
    if not inputs.exists():
        inputs.write_text("".join(f"{kind} {path}\n" for kind, path in wl.inputs), encoding="utf-8")
    timing = wl.work / "setup-timing.json"
    out = []
    for _ in range(n):
        t0 = perf_counter()
        proc = run_child([sys.executable, str(HERE / "probe.py"), "ready", str(inputs), str(timing)], env=env)
        wall = perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError("set-up probe failed: " + proc.stderr.decode(errors="replace"))
        out.append({"wall_s": wall, **json.loads(timing.read_text(encoding="utf-8"))})
    return out


def run_passes(wl, seconds: float, trace: bool, tracer, op_filter=None, between=None) -> list[dict]:
    """Closed loop: passes until ``seconds`` are up and ``min_passes`` done.
    With ``trace``, even-numbered passes are traced and odd ones are not.
    ``between`` is called after each pass, outside the measured time."""
    from workloads import Missed

    passes: list[dict] = []
    need = max(wl.min_passes, 2 if trace else 1)  # a traced run needs an untraced pass too
    begin = perf_counter()
    last = 0.0  # how long the last pass took, with what ran after it
    # A further pass starts if it is expected to end less than half a pass
    # past ``seconds``, so that a run ends near its time, not a pass after.
    while len(passes) < need or perf_counter() - begin + last / 2 < seconds:
        t_start = perf_counter()
        traced = trace and len(passes) % 2 == 0
        ops = [op for op in wl.ops(len(passes)) if op_filter is None or op_filter(op)]
        wl.counts = {}
        wl.excluded_s = 0.0
        first_span = len(tracer.spans) if tracer else 0
        if traced:
            tracer.install()
            wl.tracer = tracer
        records = []
        t_pass = perf_counter()
        for op in ops:
            opened = tracer.begin("bench.op") if traced else None
            excluded = wl.excluded_s
            t0 = perf_counter()
            error = None
            try:
                result = op.run()
                secs = perf_counter() - t0
                error = op.check(result)
            except Exception as exc:  # a raise fails the operation; a deadline miss says which
                secs = perf_counter() - t0 - (wl.excluded_s - excluded)
                error = str(exc) if isinstance(exc, Missed) else traceback.format_exc(limit=4)
            finally:
                if opened:
                    tracer.end(opened)
            records.append({
                "op": op.name, "secs": secs, "ok": error is None,
                "known_defect": op.known_defect if error else None, "error": error,
            })
        wall = perf_counter() - t_pass - wl.excluded_s
        if traced:
            tracer.uninstall()
            wl.tracer = None
        passes.append({
            "traced": traced, "wall_s": wall, "ops": records, "counts": dict(wl.counts),
            "spans": (first_span, len(tracer.spans)) if traced else None,
        })
        if between:
            between()
        last = perf_counter() - t_start
    return passes


def end_to_end(wl, passes: list[dict], probes: list[dict]) -> dict:
    times = [r["secs"] for p in passes for r in p["ops"]]
    per_op: dict[str, list[float]] = {}
    for r in (r for p in passes for r in p["ops"]):
        per_op.setdefault(r["op"], []).append(r["secs"])
    n_min = wl.min_passes * len(passes[0]["ops"])
    q = max(0.5, 1 - 10 / n_min)
    return {
        "setup_s": statistics.median(p["wall_s"] for p in probes),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "op_p50_s": quantile([statistics.fmean(v) for v in per_op.values()], 0.5),
        "op_tail_s": quantile(times, q),
        "peak_rss_mib": wl.peak_rss_mib(),
        "_tail": {"quantile": q, "samples": len(times), "guaranteed_samples": n_min},
    }


def per_layer(wl, passes: list[dict], probes: list[dict], tracer) -> dict:
    from spans import LAYERS, self_times, totals

    rows = []
    for p in [p for p in passes if p["traced"]]:
        spans = tracer.spans[p["spans"][0] : p["spans"][1]]
        tot = totals(spans)
        own = self_times(spans)
        c = p["counts"]

        def secs(name):
            return tot.get(name, (0, 0.0))[1]

        def per_call(name):
            calls, s = tot.get(name, (0, 0.0))
            return s / calls if calls else 0.0

        commands = c.get("cli.commands", 0)
        vertices, edges = wl.sizes()
        row = {
            "cli.start_s": secs("cli.start") / commands if commands else 0.0,
            "cli.import_s": secs("cli.import") / commands if commands
            else statistics.median(x["import_s"] for x in probes),
            "cli.run_s": secs("cli.run") / commands if commands else 0.0,
            "instance.parse_s": statistics.median(x["instance_parse_s"] for x in probes),
            "instance.feasible_s": secs("instance.feasible"),
            "instance.vertices": vertices,
            "instance.edges": edges,
            "synthesis.plan_s": secs("synthesis.plan"),
            "synthesis.synth_s": secs("synthesis.synth"),
            "synthesis.reduce_s": secs("synthesis.reduce"),
            "synthesis.field_p": c.get("synthesis.field_p", 0),
            "synthesis.noise_len": c.get("synthesis.noise_len", 0),
            "scheme.verify_s": secs("scheme.verify"),
            "scheme.verify_s_per_edge": secs("scheme.verify") / c["scheme.edges_verified"]
            if c.get("scheme.edges_verified") else 0.0,
            "scheme.alignment_s": secs("scheme.alignment"),
            "scheme.format_parse_s": secs("scheme.format") + secs("scheme.parse"),
            "gf.rank_calls": tot.get("gf.rank", (0, 0.0))[0],
            "gf.rank_s": secs("gf.rank"),
            "oracle.tabulate_s": secs("oracle.tabulate"),
            "oracle.realizations": c.get("oracle.realizations", 0),
            "oracle.correct_s_per_edge": per_call("oracle.correct"),
            "oracle.secure_s_per_edge": per_call("oracle.secure"),
            "oracle.audit_s": secs("oracle.audit"),
            "oracle.agree_frac": c["oracle.agree"] / c["oracle.edges"] if c.get("oracle.edges") else 0.0,
            "entropy_lp.build_s": secs("entropy_lp.build"),
            "entropy_lp.rows": c.get("entropy_lp.rows", 0),
            "entropy_lp.vars": c.get("entropy_lp.vars", 0),
            "entropy_lp.certify_s": secs("entropy_lp.certify"),
            "simplex.solve_s": secs("simplex.solve"),
            "simplex.calls": tot.get("simplex.solve", (0, 0.0))[0],
            "simplex.dual_bits_max": c.get("simplex.dual_bits_max", 0),
            "simplex.deadline_misses": c.get("simplex.deadline_misses", 0),
            "simplex.reach_ground": c.get("lp.reach_ground", 0),
            "simplex.fig2_s": c.get("simplex.fig2_s", 0.0),
            **{f"{layer}.self_s": own.get(layer, 0.0) for layer in LAYERS},
            "trace.self_share": sum(own.get(layer, 0.0) for layer in LAYERS) / p["wall_s"],
        }
        rows.append(row)
    out = {k: statistics.median(r[k] for r in rows) for k in rows[0]}
    traced = [p["wall_s"] for p in passes if p["traced"]]
    plain = [p["wall_s"] for p in passes if not p["traced"]]
    out["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # On SIGTERM, unwind through the finally blocks that stop the workers.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "cdskit" / "__init__.py").is_file():
        print(f"error: no cdskit package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    for var in THREAD_VARS:  # one BLAS/OpenMP thread here and in every child
        os.environ[var] = "1"
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    return report(args, *measure(args.workload, args.seed, args.seconds, bool(args.trace)))


def measure(name: str, seed: int, seconds: float, trace: bool, op_filter=None, n_probes=SETUP_PROBES):
    """Prepare, time the set-up, run the passes; returns (workload, passes,
    probes, tracer).  ``main`` must have set up the import path."""
    import workloads
    from spans import Tracer

    env = workloads.child_env(SRC)
    work = OUT / f"work-{name}-{seed}-{os.getpid()}"
    work.mkdir(parents=True)
    tracer = Tracer() if trace else None
    wl = workloads.WORKLOADS[name](seed, work, env)
    try:
        wl.prepare()
        # Set-up samples spread over the run, so that a slow spell of the
        # machine weighs on them no more than on the passes.
        probes = setup_probes(wl, env, min(2, n_probes))
        wl.ready()
        passes = run_passes(
            wl, seconds, trace, tracer, op_filter,
            between=lambda: probes.extend(setup_probes(wl, env, 1)) if len(probes) < n_probes else None,
        )
        probes += setup_probes(wl, env, n_probes - len(probes))
    finally:
        wl.close()
        shutil.rmtree(work, ignore_errors=True)
    return wl, passes, probes, tracer


def report(args, wl, passes, probes, tracer) -> int:
    from workloads import LpLadder

    records = [r for p in passes for r in p["ops"]]
    failed = [r for r in records if not r["ok"]]
    unexpected = [r for r in failed if not r["known_defect"]]
    e2e = end_to_end(wl, passes, probes)
    tail = e2e.pop("_tail")
    env = environment(args.seed)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(passes)} passes of {len(passes[0]['ops'])} operations, one client, closed loop")
    print("environment: " + json.dumps(env, sort_keys=True))
    if args.trace:
        metrics, units = per_layer(wl, passes, probes, tracer), PER_LAYER
        for name, value in metrics.items():
            print(f"  {name:<26} {value:12.6g} {units[name]}")
    else:
        metrics, units = {k: e2e[k] for k in END_TO_END}, END_TO_END
        for name, value in metrics.items():
            print(f"  {name:<16} {value:12.6g} {units[name]}")
        print(f"  {'op_tail_s':<16} is p{100 * tail['quantile']:.1f} of {tail['samples']} samples "
              f"({tail['guaranteed_samples']} guaranteed)")
    print(f"  {'fail_frac':<16} {len(failed) / len(records):12.6g} ratio "
          f"({len(failed)} of {len(records)} failed, {len(failed) - len(unexpected)} on known defects)")
    if isinstance(wl, LpLadder):
        reach = [p["counts"].get("lp.reach_ground", 0) for p in passes]
        fig2 = [p["counts"]["simplex.fig2_s"] for p in passes if "simplex.fig2_s" in p["counts"]]
        print(f"  {'lp_reach_ground':<16} {min(reach):12d} count")
        print(f"  {'bound_fig2_s':<16} {statistics.median(fig2) if fig2 else float('nan'):12.6g} s"
              " (fig2 certified at 5/12)")
    seen = set()
    for r in failed:
        if r["op"] not in seen:
            seen.add(r["op"])
            tag = f"known defect: {r['known_defect']}" if r["known_defect"] else "UNEXPECTED"
            print(f"  failed: {r['op']} [{tag}] {r['error'].strip().splitlines()[-1]}")
    OUT.mkdir(exist_ok=True)
    record = {
        "workload": args.workload, "seconds": args.seconds, "trace": args.trace, "environment": env,
        "end_to_end": e2e, "tail": tail, "per_layer": metrics if args.trace else None,
        "setup_probes": probes, "passes": [{k: v for k, v in p.items() if k != "spans"} for p in passes],
        "spans": tracer.spans if tracer else None,
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record), encoding="utf-8")
    print(json.dumps({
        "correct": not unexpected,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
