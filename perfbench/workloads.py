"""The three closed-loop workloads: one client, one operation at a time.

A workload writes its seeded inputs into a work directory (``prepare``),
gets ready to answer (``ready``: import cdskit and parse the inputs), and
then yields the same fixed list of operations for every pass (``ops``).
An operation is ``Op(name, run, check, known_defect)``: ``run`` calls the
program and is timed; ``check`` compares its answer with the one the
inputs were built to have and returns an error message, or None.

Why these three:

- cli-small: ``python -m cdskit.cli`` on the built-ins.  Interpreter start
  and import dominate every call, so it exposes start-up and rendering and
  bypasses every heavy layer.
- graph-scale: generated instances of about 10^2, 10^3 and 10^4 edges,
  half feasible, half with a planted infeasibility.  The only workload
  where instance, synthesis, scheme and gf do the work, and they grow
  superlinearly.
- lp-oracle: the exact answers, in two halves a pass.  The lp-ladder:
  ``shannon_bound`` at ground sets 4 to 9, each with a deadline, where
  entropy_lp and simplex do nearly all the work.  The oracle sweep: linear
  schemes near the 2^20 enumeration budget, every edge checked by the
  oracle against exact ranks, where the numpy enumeration dominates.  The
  large-graph code is bypassed.  The halves share one workload so that
  each run is long enough to be steady on a shared 2-core host; apart, the
  ladder's six rungs put its median and tail on one rung's time, which
  swung by a quarter from run to run.  The per-layer metrics tell the
  halves apart.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import socket
import subprocess
import sys
import threading
from dataclasses import dataclass
from multiprocessing.connection import Connection
from pathlib import Path
from time import perf_counter
from typing import Callable

import gen
from cdskit import entropy_lp, instance, oracle, scheme, synthesis

HERE = Path(__file__).resolve().parent
GOLDEN = json.loads((HERE / "golden.json").read_text(encoding="utf-8"))


def run_child(cmd: list[str], timeout: float = 120, **kwargs) -> subprocess.CompletedProcess:
    """``subprocess.run(cmd, capture_output=True)``, timed precisely.  With a
    timeout, ``subprocess.run`` reaps the child by polling in sleeps of up to
    50 ms, which would show in the timings; here the wait blocks, and a timer
    kills a child still running after ``timeout`` seconds."""
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, **kwargs) as proc:
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            out, err = proc.communicate()
        finally:
            timer.cancel()
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err)


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    known_defect: str | None = None


class Missed(Exception):
    """The operation was stopped at its deadline."""


class Workload:
    """Base: subclasses fill in the inputs and the operation list."""

    name = ""
    min_passes = 2

    def __init__(self, seed: int, work: Path, env: dict):
        self.seed = seed
        self.work = work
        self.env = env  # environment for child processes
        self.tracer = None  # the Tracer while a traced pass runs
        self.counts: dict[str, float] = {}  # per-pass counters, reset by the runner
        self.inputs: list[tuple[str, Path]] = []  # (kind, path) the set-up parses
        self.excluded_s = 0.0  # benchmark-only time inside the pass (worker restarts)

    def count(self, key: str, n: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def write(self, kind: str, name: str, text: str) -> Path:
        path = self.work / name
        path.write_text(text, encoding="utf-8")
        self.inputs.append((kind, path))
        return path

    def prepare(self) -> None:
        raise NotImplementedError

    def ready(self) -> None:
        """In-process set-up; the runner times it in fresh interpreters."""

    def ops(self, pass_no: int) -> list[Op]:
        raise NotImplementedError

    def close(self) -> None:
        pass

    def sizes(self) -> tuple[int, int]:
        """(vertices, edges) summed over the parsed instances."""
        return 0, 0

    def peak_rss_mib(self) -> float:
        """Peak resident memory of what ran the operations: this process."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class _Parsed(Workload):
    """Workloads that run in this process on parsed instance files."""

    def ready(self) -> None:
        self.parsed = {}
        for kind, path in self.inputs:
            parse = instance.parse_instance if kind == "instance" else scheme.parse_scheme
            self.parsed[path.name] = parse(path.read_text(encoding="utf-8"))

    def sizes(self) -> tuple[int, int]:
        insts = [v for v in self.parsed.values() if hasattr(v, "qualified")]
        return (
            sum(len(i.vertices) for i in insts),
            sum(len(i.qualified) + len(i.unqualified) for i in insts),
        )


# ---------------------------------------------------------------------------


class CliSmall(Workload):
    name = "cli-small"
    min_passes = 3
    # The README's command sequence on the built-ins, without ``bound``.
    COMMANDS = (
        "demo fig2 -o .",
        "demo example1 -o .",
        "check fig2.cds",
        "verify fig2.cds fig2.scheme --oracle",
        "synth example1.cds --reduce-randomness -o ex1.scheme",
        "audit fig2.cds fig2.scheme",
        "audit example1.cds ex1.scheme",
    )

    def argvs(self) -> list[list[str]]:
        return [c.split() + extra for c in self.COMMANDS for extra in ([], ["--json"])]

    def prepare(self) -> None:
        self.timing = self.work / "timing.json"
        self.peak_rss_kib = 0  # largest peak a command reported
        # The demo and synth commands rewrite these same files on every pass.
        for argv in (self.COMMANDS[0], self.COMMANDS[1], self.COMMANDS[4]):
            self._cds(argv.split())
        for kind, name in (
            ("instance", "fig2.cds"),
            ("scheme", "fig2.scheme"),
            ("instance", "example1.cds"),
            ("scheme", "ex1.scheme"),
        ):
            self.inputs.append((kind, self.work / name))

    def peak_rss_mib(self) -> float:
        """The commands' own peaks.  The children's ``ru_maxrss`` would not
        do: Linux carries it across the fork and exec that start a child,
        so it would count this process's memory as well."""
        return self.peak_rss_kib / 1024

    def _cds(self, argv: list[str]) -> subprocess.CompletedProcess:
        """``cds argv`` in a fresh interpreter, as ``python -m cdskit.cli``
        runs it; probe.py writes its timings and peak memory to
        ``self.timing``."""
        cmd = [sys.executable, str(HERE / "probe.py"), "cli", str(self.timing), *argv]
        return run_child(cmd, cwd=self.work, env=self.env)

    def ops(self, pass_no: int) -> list[Op]:
        argvs = self.argvs()
        random.Random(f"{self.seed}:{pass_no}").shuffle(argvs)
        return [self._op(argv) for argv in argvs]

    def _op(self, argv: list[str]) -> Op:
        key = " ".join(argv)
        golden = GOLDEN[self.name][key]

        def run():
            tracer = self.tracer
            t0 = perf_counter()
            proc = self._cds(argv)
            if tracer:
                t1 = perf_counter()
                t = json.loads(self.timing.read_text(encoding="utf-8"))
                # cli.start covers the interpreter's start and its exit:
                # the process wall time minus import and run.
                tracer.graft(
                    [
                        (0, None, "cli.start", t0, t["enter"]),
                        (1, None, "cli.import", *t["import"]),
                        (2, None, "cli.run", *t["run"]),
                        (3, None, "cli.start", t["run"][1], t1),
                    ],
                    tracer.current,
                )
            self.count("cli.commands")
            return proc

        def check(proc) -> str | None:
            peak = json.loads(self.timing.read_text(encoding="utf-8"))["peak_rss_kib"]
            self.peak_rss_kib = max(self.peak_rss_kib, peak)
            if proc.stderr:
                return "stderr: " + proc.stderr.decode(errors="replace")[-300:]
            if proc.returncode != golden["exit"]:
                return f"exit {proc.returncode}, expected {golden['exit']}"
            if hashlib.sha256(proc.stdout).hexdigest() != golden["stdout_sha256"]:
                return "stdout differs from the golden output: " + proc.stdout.decode(errors="replace")[:300]
            return None

        return Op(key, run, check)


# ---------------------------------------------------------------------------


class GraphScale(_Parsed):
    name = "graph-scale"
    # Two passes put the tail among the 10^4-edge operations (see run.py).
    min_passes = 2

    def prepare(self) -> None:
        self.cases = {}
        for size, (spec, pairs) in gen.GRAPH_SPECS.items():
            for k in range(pairs):
                for feasible in (True, False):
                    rng = random.Random(f"{self.seed}:{size}:{k}:{feasible}")
                    case = gen.graph_case(rng, size, spec, feasible)
                    fname = f"{size}-{k}{'f' if feasible else 'i'}.cds"
                    self.write("instance", fname, case.text)
                    self.cases[fname] = case

    def ops(self, pass_no: int) -> list[Op]:
        """Each instance's operations in order, the instances interleaved at
        random (seeded by pass): the small instances' operations, which
        set the median, are then spread over the whole pass instead of
        falling into one second of it, and a slow spell of the machine
        weighs on all sizes alike."""
        chains = []
        for fname, case in self.cases.items():
            inst = self.parsed[fname]
            chains.append(self._feasible_ops(fname, case, inst) if case.feasible
                          else [self._witness_op(fname, case, inst)])
        rng = random.Random(f"{self.seed}:{pass_no}")
        out: list[Op] = []
        left = sum(len(c) for c in chains)
        while left:
            # Picking a chain in proportion to its remaining length makes
            # every interleaving equally likely.
            k = rng.randrange(left)
            for chain in chains:
                if k < len(chain):
                    out.append(chain.pop(0))
                    break
                k -= len(chain)
            left -= 1
        return out

    def _witness_op(self, fname, case, inst) -> Op:
        def check(result) -> str | None:
            if result.feasible:
                return "reported feasible; a qualified chord was planted"
            if result.witness_edge != case.chord:
                return f"witness edge {result.witness_edge}, planted {case.chord}"
            path = result.witness_path
            if not path.is_valid_for(inst) or path.vertices[0] != case.chord[0] or path.vertices[-1] != case.chord[1]:
                return f"invalid witness path {path.vertices}"
            if not set(path.vertices) <= case.chord_block:
                return "witness path leaves the chord's unqualified block"
            return None

        return Op(f"{fname} check", lambda: instance.half_rate_feasible(inst), check)

    def _feasible_ops(self, fname, case, inst) -> list[Op]:
        want = GOLDEN[self.name][case.name]
        state = {}
        edges = len(inst.qualified) + len(inst.unqualified)

        def field(key, key_p, key_n):
            def check(sch) -> str | None:
                state[key] = sch
                self.counts["synthesis.field_p"] = max(self.counts.get("synthesis.field_p", 0), sch.p)
                self.counts["synthesis.noise_len"] = max(self.counts.get("synthesis.noise_len", 0), sch.noise_len)
                if (sch.p, sch.secret_len, sch.noise_len) != (want[key_p], 1, want[key_n]):
                    return f"field {sch.p}, secret {sch.secret_len}, noise {sch.noise_len}; expected {want[key_p]}, 1, {want[key_n]}"
                return None

            return check

        def verified(report) -> str | None:
            self.count("scheme.edges_verified", edges)
            bad = [e for e, w in report.edge_verdicts.items() if not w.ok]
            if not report.passed or bad:
                return f"verification failed on {len(bad)} edges"
            return None

        def aligned(report) -> str | None:
            if min(report.noise_overlaps.values()) < 1 or not all(report.signal_alignment.values()):
                return "alignment diagnostics fail on a synthesized scheme"
            return None

        def round_trip(sch) -> str | None:
            return None if sch == state["reduced"] else "format/parse round trip changed the scheme"

        return [
            Op(f"{fname} check", lambda: instance.half_rate_feasible(inst),
               lambda r: None if r.feasible else f"reported infeasible, witness {r.witness_edge}"),
            Op(f"{fname} synth", lambda: synthesis.synthesize_half_rate(inst), field("synth", "p", "noise_len")),
            Op(f"{fname} reduce", lambda: synthesis.reduce_randomness(inst, state["synth"]),
               field("reduced", "reduced_p", "reduced_noise_len")),
            Op(f"{fname} verify", lambda: scheme.verify_linear(inst, state["reduced"]), verified),
            Op(f"{fname} align", lambda: scheme.alignment_report(inst, state["reduced"]), aligned),
            Op(f"{fname} format-parse",
               lambda: scheme.parse_scheme(scheme.format_scheme(state["reduced"])), round_trip),
        ]


# ---------------------------------------------------------------------------


FIG2_GROUND = 7  # the paper's headline instance: its bound is 5/12


class LpLadder(_Parsed):
    """The lp-ladder half of lp-oracle."""

    def prepare(self) -> None:
        rng = random.Random(f"{self.seed}:lp")
        for ground in gen.LP_LADDER:
            self.write("instance", f"ground{ground}.cds", gen.lp_instance_text(rng, ground))

    def ready(self) -> None:
        super().ready()
        # LP sizes, counted here so that a rung stopped at its deadline
        # still reports the size it was given.
        self.lp_size = {}
        for ground in gen.LP_LADDER:
            lp = entropy_lp.build_entropy_lp(self.parsed[f"ground{ground}.cds"])
            self.lp_size[ground] = (len(lp.constraints), lp.n_vars)
        self.proc = None
        self.peak_rss_kib = 0  # largest worker peak reported with an answer
        self._start_worker()

    def peak_rss_mib(self) -> float:
        """The workers' peaks as of the answers they gave: a worker stopped
        at a deadline has grown by however far it got, which depends on
        the machine's speed, so its memory is left out."""
        return self.peak_rss_kib / 1024

    def _start_worker(self) -> None:
        ours, theirs = socket.socketpair()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "probe.py"), "lp-worker", str(theirs.fileno())],
            pass_fds=(theirs.fileno(),), env=self.env, cwd=self.work,
        )
        theirs.close()
        self.conn = Connection(ours.detach())
        if not self.conn.poll(120) or self.conn.recv() != ("ready",):
            raise RuntimeError("LP worker did not start")

    def _stop_worker(self, kill: bool) -> None:
        if self.proc is None:
            return
        if kill:
            self.proc.kill()
        else:
            try:
                self.conn.send(None)
            except OSError:
                self.proc.kill()
        self.proc.wait()
        self.conn.close()
        self.proc = None

    def close(self) -> None:
        self._stop_worker(kill=False)

    def ops(self, pass_no: int) -> list[Op]:
        return [self._op(ground) for ground in gen.LP_LADDER]

    def _op(self, ground: int) -> Op:
        want = GOLDEN["lp-ladder"][str(ground)]
        inst = self.parsed[f"ground{ground}.cds"]
        deadline = float(want["deadline_s"])

        def run():
            tracer = self.tracer
            rows, nvars = self.lp_size[ground]
            self.count("entropy_lp.rows", rows)
            self.count("entropy_lp.vars", nvars)
            start = perf_counter()
            self.conn.send((inst, tracer is not None))
            got = []
            opened = {}  # spans the worker began and has not ended
            try:
                while True:
                    left = start + deadline - perf_counter()
                    if left <= 0 or not self.conn.poll(left):
                        # Whatever was running is charged up to the stop.
                        stop = perf_counter()
                        got += [(*o, stop) for o in opened.values()]
                        raise Missed(f"ground {ground}: stopped at its {deadline:g} s deadline")
                    msg = self.conn.recv()
                    if msg[0] == "open":
                        opened[msg[1][0]] = msg[1]
                        continue
                    if msg[0] == "span":
                        opened.pop(msg[1][0], None)
                        got.append(msg[1])
                        continue
                    _, bound, certified, bits, error, rss_kib = msg
                    self.peak_rss_kib = max(self.peak_rss_kib, rss_kib)
                    self.counts["simplex.dual_bits_max"] = max(self.counts.get("simplex.dual_bits_max", 0), bits)
                    return bound, certified, error, perf_counter() - start
            except (Missed, EOFError, OSError) as exc:  # stopped at the deadline, or the worker died
                if isinstance(exc, Missed):
                    self.count("simplex.deadline_misses")
                t = perf_counter()
                self._stop_worker(kill=True)
                self._start_worker()
                self.excluded_s += perf_counter() - t
                raise
            finally:
                if tracer:
                    tracer.graft(got, tracer.current)

        def check(result) -> str | None:
            bound, certified, error, secs = result
            if error:
                return error
            if bound != want["rate_bound"]:
                return f"rate bound {bound}, expected {want['rate_bound']}"
            if not certified:
                return "dual certificate failed re-verification"
            self.counts["lp.reach_ground"] = max(self.counts.get("lp.reach_ground", 0), ground)
            if ground == FIG2_GROUND:
                self.counts["simplex.fig2_s"] = secs
            return None

        return Op(f"ground {ground}", run, check, want.get("known_defect"))


# ---------------------------------------------------------------------------


class OracleSweep(_Parsed):
    """The oracle-sweep half of lp-oracle."""

    # 3^12 realizations for the rate-1/2 schemes, 2^20 for the random ones.
    HALF_RATE_COMPONENTS = 11

    def prepare(self) -> None:
        rng = random.Random(f"{self.seed}:oracle")
        self.cases = [
            gen.random_gf2_case(rng, "random"),
            *gen.half_rate_cases(rng, self.HALF_RATE_COMPONENTS, "half"),
            gen.wide_signal_case(rng, "wide"),
        ]
        for case in self.cases:
            self.write("instance", f"{case.name}.cds", case.instance_text)
            self.write("scheme", f"{case.name}.scheme", case.scheme_text)

    def ops(self, pass_no: int) -> list[Op]:
        out: list[Op] = []
        for case in self.cases:
            out += self._case_ops(case)
        return out

    def _case_ops(self, case) -> list[Op]:
        inst = self.parsed[f"{case.name}.cds"]
        sch = self.parsed[f"{case.name}.scheme"]
        state = {}
        L = case.secret_len

        def ranks(report) -> str | None:
            self.count("scheme.edges_verified", len(report.edge_verdicts))
            got = {e: w.rank_delta for e, w in report.edge_verdicts.items()}
            return None if got == case.deltas else "rank deltas differ from the independent ranks"

        def table(t) -> str | None:
            state["table"] = t
            self.count("oracle.realizations", t.size)
            return None if t.size == case.p ** (L + case.noise_len) else f"table size {t.size}"

        def edges_op(edges) -> Op:
            """Check both oracle verdicts on every listed edge against the ranks."""
            want = [(case.deltas[e] == L, case.deltas[e] == 0) for e in edges]

            def check(got) -> str | None:
                agree = sum(g == w for g, w in zip(got, want))
                self.count("oracle.edges", len(edges))
                self.count("oracle.agree", agree)
                if agree < len(edges):
                    bad = [(e, g, w) for e, g, w in zip(edges, got, want) if g != w]
                    return "; ".join(f"{e[0]}-{e[1]}: oracle (correct, secure) = {g}, ranks give {w}"
                                     for e, g, w in bad)
                return None

            name = f"{case.name} edge {edges[0][0]}-{edges[0][1]}" if len(edges) == 1 else f"{case.name} edges"
            return Op(
                name,
                lambda: [(oracle.check_correct(state["table"], *e), oracle.check_secure(state["table"], *e))
                         for e in edges],
                check,
                case.known_defect,
            )

        ops = [
            Op(f"{case.name} ranks", lambda: scheme.verify_linear(inst, sch), ranks),
            Op(f"{case.name} tabulate", lambda: oracle.tabulate(sch), table),
        ]
        if case.grouped:
            ops.append(edges_op(sorted(case.deltas)))
        else:
            ops += [edges_op([e]) for e in sorted(case.deltas)]
        if case.rate_half:
            ops.append(
                Op(f"{case.name} audit", lambda: oracle.lemma_audit(inst, state["table"], L),
                   lambda rep: None if rep.passed else "lemma audit fails on a rate-1/2 scheme")
            )
        # Drop the table once the case's last answer is checked: a 2^20-row
        # table of every signal is too large to keep for the whole pass.
        last = ops[-1]
        ops[-1] = Op(last.name, last.run, lambda got: (last.check(got), state.clear())[0], last.known_defect)
        return ops


class LpOracle(LpLadder, OracleSweep):
    name = "lp-oracle"
    # With two passes guaranteed, the tail has the ladder's four slow rungs
    # of every pass beyond it and falls among the oracle's largest tables.
    min_passes = 2

    def prepare(self) -> None:
        LpLadder.prepare(self)
        OracleSweep.prepare(self)

    def ops(self, pass_no: int) -> list[Op]:
        return LpLadder.ops(self, pass_no) + OracleSweep.ops(self, pass_no)

    def peak_rss_mib(self) -> float:
        """The larger of the LP workers' peaks and this process's, which
        holds the oracle's tables."""
        return max(LpLadder.peak_rss_mib(self), Workload.peak_rss_mib(self))


WORKLOADS = {w.name: w for w in (CliSmall, GraphScale, LpOracle)}


def child_env(src: Path) -> dict:
    """Environment for every child: the checkout's package, one BLAS thread."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + os.pathsep + str(HERE)
    return env
