"""Child processes of the benchmark; each starts from a fresh interpreter.

    probe.py ready <inputs-file> <timing-file>
        Import cdskit and parse every input file the list names (lines of
        ``instance <path>`` or ``scheme <path>``): the set-up a user pays
        before the first answer.  Writes import and parse seconds.
    probe.py cli <timing-file> <argv...>
        Run ``cdskit.cli.run(argv)`` as ``python -m cdskit.cli`` would, and
        write when the interpreter reached this file, the import time, the
        run time and the process's peak resident memory.
    probe.py lp-worker <fd>
        Serve ``shannon_bound`` requests over the socket ``fd``; each answer
        carries the worker's peak resident memory so far.

``cdskit`` is found through PYTHONPATH, which the benchmark points at the
checkout's ``src``.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

T_ENTER = perf_counter()


def ready(inputs_file: str, timing_file: str) -> int:
    t0 = perf_counter()
    from cdskit import instance, scheme

    t1 = perf_counter()
    parse_s = {"instance": 0.0, "scheme": 0.0}
    with open(inputs_file, encoding="utf-8") as fh:
        for line in fh:
            kind, path = line.split(maxsplit=1)
            t = perf_counter()
            with open(path.strip(), encoding="utf-8") as src:
                text = src.read()
            (instance.parse_instance if kind == "instance" else scheme.parse_scheme)(text)
            parse_s[kind] += perf_counter() - t
    with open(timing_file, "w", encoding="utf-8") as fh:
        json.dump({"import_s": t1 - t0, "instance_parse_s": parse_s["instance"],
                   "scheme_parse_s": parse_s["scheme"]}, fh)
    return 0


def cli(timing_file: str, argv: list[str]) -> int:
    t0 = perf_counter()
    from cdskit import cli as cds_cli

    t1 = perf_counter()
    try:
        return cds_cli.run(argv)
    finally:
        t2 = perf_counter()
        sys.stdout.flush()
        with open(timing_file, "w", encoding="utf-8") as fh:
            json.dump({"enter": T_ENTER, "import": [t0, t1], "run": [t1, t2], "peak_rss_kib": peak_rss_kib()}, fh)


def peak_rss_kib() -> int:
    """This process's own peak resident memory, in KiB.  ``ru_maxrss`` would
    not do: Linux carries it across the fork and exec that started the
    process, so it counts the parent's memory at the fork as well."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def lp_worker(fd: int) -> int:
    import traceback
    from multiprocessing.connection import Connection

    from cdskit import entropy_lp
    from spans import Tracer

    conn = Connection(fd)
    conn.send(("ready",))
    while True:
        msg = conn.recv()
        if msg is None:
            return 0
        inst, traced = msg
        tracer = Tracer(
            sink=lambda span: conn.send(("span", span)),
            on_begin=lambda opened: conn.send(("open", opened)),
        ) if traced else None
        if tracer:
            tracer.install()
        try:
            result = entropy_lp.shannon_bound(inst)
            # Re-verify the certificate outside shannon_bound.
            certified = entropy_lp.verify_certificate(result.solution, result.lp) == result.entropy_bound
            bits = 0
            if traced:
                bits = max(
                    (max(d.numerator.bit_length(), d.denominator.bit_length()) for d in result.solution.duals),
                    default=0,
                )
            reply = ("done", str(result.rate_bound), certified, bits, None)
        except Exception:  # reported to the benchmark as a failed operation
            reply = ("done", None, False, 0, traceback.format_exc())
        finally:
            if tracer:
                tracer.uninstall()
        conn.send((*reply, peak_rss_kib()))


if __name__ == "__main__":
    mode, *rest = sys.argv[1:]
    if mode == "ready":
        sys.exit(ready(*rest))
    if mode == "cli":
        sys.exit(cli(rest[0], rest[1:]))
    if mode == "lp-worker":
        sys.exit(lp_worker(int(rest[0])))
    sys.exit(f"unknown probe mode {mode!r}")
