"""Command-line front end.

Subcommands: ``check`` (capacity-1/2 feasibility with witness), ``synth``
(rate-1/2 scheme construction), ``verify`` (rank-based verification with
an optional exhaustive-oracle cross-check), ``bound`` (exact Shannon-LP
converse), ``audit`` (alignment diagnostics and the rate-1/2 lemma
audit), and ``demo`` (write the built-in instance/scheme files).

Each command imports only the layers it runs, inside its ``_cmd_*``
function: ``check`` loads :mod:`cdskit.instance` alone and no NumPy;
``synth``, ``verify``, ``audit`` and ``demo`` add :mod:`cdskit.gf` and
:mod:`cdskit.scheme`, with :mod:`cdskit.synthesis` or :mod:`cdskit.oracle`
only where they call them; only ``bound`` loads :mod:`cdskit.entropy_lp`,
:mod:`cdskit.simplex` and, inside its LP solve, SciPy.

Every ``_cmd_*`` function computes and returns one :class:`_Report`
without printing: whether the command passed, its ``--json`` payload and
its text lines.  :func:`run` alone prints a report, as JSON or as text,
and alone maps it to an exit code.

Exit codes: 0 pass/feasible, 1 fail/infeasible (with witness), 2 usage or
format errors.  Output is deterministic: vertices in name order, edges
lexicographic, rationals as p/q.  ``--json`` switches every command to a
stable machine-readable form with rationals as {"num", "den"} objects.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from fractions import Fraction

    from .instance import FeasibilityResult
    from .scheme import LinearScheme

__all__ = ["main", "run"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: A003 - argparse API
        raise _UsageError(message)


@dataclass(frozen=True)
class _Report:
    """What one command found.  ``passed`` selects exit code 0 or 1,
    ``payload`` is the ``--json`` object after its ``"command"`` key and
    ``lines`` is the text, written to stderr when ``to_stderr`` is set.
    In text mode ``stdout`` is written verbatim first (synth's scheme)."""

    passed: bool
    payload: dict
    lines: tuple[str, ...]
    to_stderr: bool = False
    stdout: str = ""


def _frac_json(x: Fraction | None):
    if x is None:
        return None
    return {"num": x.numerator, "den": x.denominator}


def _edge(e) -> str:
    return f"{{{e[0]}, {e[1]}}}"


def _instance_header(inst) -> str:
    return (
        f"instance: {len(inst.vertices)} vertices, "
        f"{len(inst.qualified) + len(inst.unqualified)} edges "
        f"({len(inst.qualified)} qualified, {len(inst.unqualified)} unqualified)"
    )


def _scheme_header(sch: LinearScheme) -> str:
    return (
        f"scheme: p={sch.p}, L={sch.secret_len}, L_Z={sch.noise_len}, "
        f"max signal length {sch.max_signal_len()}"
    )


def _eliminated(eliminated) -> list[str]:
    if not eliminated:
        return []
    return ["eliminated degenerate vertices (signal = secret): " + ", ".join(eliminated)]


def _rate_text(rates) -> str:
    rz = str(rates.randomness_rate) if rates.randomness_rate is not None else "inf"
    lo, hi = rates.bounds
    return f"R = {rates.rate}, R_Z = {rz}, bounds [{lo}, {hi}]"


def _rates_json(rates) -> dict:
    return {
        "rate": _frac_json(rates.rate) if rates else None,
        "randomness_rate": _frac_json(rates.randomness_rate) if rates else None,
    }


def _pass(ok: bool) -> str:
    return "PASS" if ok else "FAIL"


# ---------------------------------------------------------------------------
# Steps the commands share


def _load(path: str, kind: str, parse, error: type[Exception]):
    """Read and parse an instance or scheme file; a read failure, or the
    ``error`` that ``parse`` raises on malformed text, is a usage error."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise _UsageError(f"cannot read {kind} file {path}: {exc}") from None
    try:
        return parse(text)
    except error as exc:
        raise _UsageError(f"{path}: {exc}") from None


def _load_instance(path: str):
    from .instance import InstanceFormatError, parse_instance

    return _load(path, "instance", parse_instance, InstanceFormatError)


def _verified_pair(args, check):
    """Load ``args.instance`` and ``args.scheme`` and run ``check`` (a rank
    verification) on them; a scheme that does not fit the instance is a
    usage error."""
    from .scheme import SchemeFormatError, parse_scheme

    inst = _load_instance(args.instance)
    sch = _load(args.scheme, "scheme", parse_scheme, SchemeFormatError)
    try:
        return inst, sch, check(inst, sch)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _tabulate(sch: LinearScheme):
    """The oracle table of ``sch`` within ``CDS_ENUM_BUDGET`` realizations;
    a usage error past the budget or for a signal named S or Z."""
    from .oracle import DEFAULT_BUDGET, tabulate

    raw = os.environ.get("CDS_ENUM_BUDGET")
    budget = DEFAULT_BUDGET
    if raw is not None:
        try:
            budget = int(raw)
            if budget < 1:
                raise ValueError
        except ValueError:
            raise _UsageError(
                f"CDS_ENUM_BUDGET must be a positive integer, got {raw!r}"
            ) from None
    try:
        return tabulate(sch, budget=budget)
    except ValueError as exc:  # a BudgetError, or a reserved signal name
        raise _UsageError(str(exc)) from None


def _feasibility(
    inst,
    result: FeasibilityResult,
    fields: dict,
    notes=(),
    verdict: str = "FEASIBLE (capacity = 1/2)",
) -> _Report:
    """The capacity-1/2 verdict: ``fields`` go into the payload before the
    witness, ``notes`` into the text after the instance header, and
    ``verdict`` is the text line of a feasible result."""
    lines = [_instance_header(inst), *notes]
    witness = None
    if result.feasible:
        lines.append(verdict)
    else:
        edge, path = result.witness_edge, result.witness_path.vertices
        witness = {"edge": list(edge), "path": list(path)}
        lines += [
            "INFEASIBLE (capacity < 1/2)",
            f"  internal qualified edge: {_edge(edge)}",
            f"  unqualified path: ({', '.join(path)})",
        ]
    payload = {"feasible": result.feasible, **fields, "witness": witness}
    return _Report(result.feasible, payload, tuple(lines))


# ---------------------------------------------------------------------------
# Commands


def _cmd_check(args) -> _Report:
    from .instance import FeasibilityResult, half_rate_feasible, normalize_degenerate

    inst = _load_instance(args.instance)
    core, eliminated = normalize_degenerate(inst)
    counts = {
        "vertices": len(inst.vertices),
        "qualified_edges": len(inst.qualified),
        "unqualified_edges": len(inst.unqualified),
        "eliminated": list(eliminated),
    }
    notes = _eliminated(eliminated)
    if core.vertices:
        return _feasibility(inst, half_rate_feasible(core), counts, notes)
    # An empty core means no unqualified edge, so nothing is to be hidden:
    # two signals can carry two secret symbols (any two of s1 + a_v s2
    # decode), and a qualified pair carries no more, so capacity is 1.
    verdict = (
        "FEASIBLE (no unqualified edge: capacity = 1)"
        if inst.qualified
        else "FEASIBLE (no edge: no capacity is defined)"
    )
    return _feasibility(inst, FeasibilityResult(True), counts, notes, verdict)


def _cmd_synth(args) -> _Report:
    from .gf import GfMatrix
    from .instance import normalize_degenerate
    from .scheme import LinearScheme, _rates, format_scheme, verify_linear
    from .synthesis import InfeasibleInstanceError, reduce_randomness, synthesize_half_rate

    inst = _load_instance(args.instance)
    core, eliminated = normalize_degenerate(inst)
    try:
        if core.vertices:
            sch = synthesize_half_rate(core)
            if args.reduce_randomness:
                sch = reduce_randomness(core, sch)
        else:
            sch = None
    except InfeasibleInstanceError as exc:
        return _feasibility(
            inst, exc.result, {"eliminated": list(eliminated)}, _eliminated(eliminated)
        )

    # The eliminated vertices carry the secret in the clear; they have no
    # unqualified edge, so no security constraint applies to them.
    if sch is None:
        p, noise_len = 2, 0
        matrices = {}
    else:
        p, noise_len = sch.p, sch.noise_len
        matrices = dict(sch.matrices)
    plain = (GfMatrix.from_rows(p, [[1]], 1), GfMatrix.zeros(p, 1, noise_len))
    for v in eliminated:
        matrices[v] = plain
    full = LinearScheme(p, 1, noise_len, matrices)
    core_report = verify_linear(core, sch) if sch is not None else None
    # As in verify: without a qualified edge no rate is defined.
    rates = _rates(core, sch) if sch is not None and core.qualified else None

    scheme_text = format_scheme(full)
    if args.output is not None:
        try:
            Path(args.output).write_text(scheme_text, encoding="utf-8")
        except OSError as exc:
            raise _UsageError(f"cannot write scheme file {args.output}: {exc}") from None
    payload = {
        "feasible": True,
        "eliminated": list(eliminated),
        "p": full.p,
        "secret_len": full.secret_len,
        "noise_len": full.noise_len,
        **_rates_json(rates),
        "verified": core_report.passed if core_report else True,
        "output": args.output,
    }
    lines = [_instance_header(inst), *_eliminated(eliminated)]
    if core_report is not None:
        rate = f", {_rate_text(rates)}" if rates is not None else ""
        lines.append(f"scheme: p={full.p}, L={full.secret_len}, L_Z={full.noise_len}{rate}")
        lines.append(f"verification: {_pass(core_report.passed)}")
    if args.output is not None:
        lines.append(f"wrote scheme to {args.output}")
        return _Report(True, payload, tuple(lines))
    # The scheme file goes to stdout and the summary to stderr.
    payload["scheme"] = scheme_text
    return _Report(True, payload, tuple(lines), to_stderr=True, stdout=scheme_text)


def _cmd_verify(args) -> _Report:
    from .scheme import _rates, verify_linear

    inst, sch, report = _verified_pair(args, verify_linear)
    # Without a qualified edge no pair must decode, so no rate bound
    # applies (signals may even be empty); rates are reported otherwise.
    rates = _rates(inst, sch) if report.passed and inst.qualified else None
    lines = [_instance_header(inst), _scheme_header(sch)]
    for v, w in sorted(report.vertex_verdicts.items()):
        lines.append(f"vertex {v}: {'secure' if w.secure else f'LEAKS {w.leak_rank}'}")
    for e, w in sorted(report.edge_verdicts.items()):
        if w.kind == "q":
            state = "decodable" if w.ok else "NOT DECODABLE"
            lines.append(
                f"edge {_edge(e)} qualified: {state} (information rank {w.rank_delta})"
            )
        else:
            state = "secure (leak 0)" if w.ok else f"LEAKS {w.rank_delta}"
            lines.append(f"edge {_edge(e)} unqualified: {state}")
    lines.append(f"overall: {_pass(report.passed)}")
    if rates is not None:
        lines.append(_rate_text(rates))
    passed, oracle = report.passed, None
    if args.oracle:
        from .oracle import check_correct, check_secure

        table = _tabulate(sch)
        # The vertices of a signal block share one array, so an edge's
        # verdict depends only on its kind and the blocks of its ends.
        verdicts: dict[tuple[str, int, int], bool] = {}
        mismatches = []
        for kind, (v, u) in inst.edges:
            key = (kind, sch.block_of[v], sch.block_of[u])
            if key not in verdicts:
                check = check_correct if kind == "q" else check_secure
                verdicts[key] = check(table, v, u)
            if verdicts[key] != report.edge_verdicts[(v, u)].ok:
                mismatches.append([v, u])
        oracle = {
            "realizations": table.size,
            "checked": len(inst.edges),
            "mismatches": mismatches,
        }
        passed = passed and not mismatches
        if mismatches:
            lines.append("oracle: MISMATCH on " + ", ".join(map(_edge, mismatches)))
        else:
            lines.append(
                f"oracle: all {len(inst.edges)} edge verdicts confirmed "
                f"over {table.size} realizations"
            )
    payload = {
        "pass": passed,
        "p": sch.p,
        "secret_len": sch.secret_len,
        "noise_len": sch.noise_len,
        "vertices": {
            v: {"secure": w.secure, "leak": w.leak_rank}
            for v, w in sorted(report.vertex_verdicts.items())
        },
        "edges": [
            {"edge": list(e), "kind": w.kind, "ok": w.ok, "rank": w.rank_delta}
            for e, w in sorted(report.edge_verdicts.items())
        ],
        **_rates_json(rates),
        "oracle": oracle,
    }
    return _Report(passed, payload, tuple(lines))


def _cmd_bound(args) -> _Report:
    from .entropy_lp import dual_certificate, shannon_bound

    inst = _load_instance(args.instance)
    restricted = None
    if args.vertices is not None:
        names = list(dict.fromkeys(v.strip() for v in args.vertices.split(",") if v.strip()))
        unknown = [v for v in names if v not in inst.vertices]
        if unknown:
            raise _UsageError(f"unknown vertices: {', '.join(unknown)}")
        inst = inst.induced(names)
        restricted = sorted(names)
    lines = [_instance_header(inst)]
    if restricted:
        lines.append("restricted to vertices: " + ", ".join(restricted))
    payload = {
        "rate_bound": None,
        "entropy_bound": None,
        "degenerate": True,
        "restricted_to": restricted,
        "certificate": None,
    }
    if not inst.edges:
        # No edge, whether or not a restriction kept vertices: as for
        # `check`, no capacity is defined.
        lines.append("shannon bound: none (no edge: no capacity is defined)")
        return _Report(True, payload, tuple(lines))
    try:
        result = shannon_bound(inst)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    certificate = (
        dual_certificate(result.solution, result.lp) if args.certificate else None
    )
    lines.append(
        f"shannon bound: {result.rate_bound} (max H(S) = {result.entropy_bound})"
    )
    if result.degenerate:
        lines.append(
            "degenerate: no qualified edge ties the secret to the signals; "
            "the bound is the explicit cap"
        )
    if certificate is not None:
        lines.append(certificate.rstrip("\n"))
    payload.update(
        rate_bound=_frac_json(result.rate_bound),
        entropy_bound=_frac_json(result.entropy_bound),
        degenerate=result.degenerate,
        certificate=certificate,
    )
    return _Report(True, payload, tuple(lines))


def _cmd_audit(args) -> _Report:
    from .scheme import verify_and_align

    inst, sch, (report, alignment) = _verified_pair(args, verify_and_align)
    L = sch.secret_len
    skip_reason = None
    lemmas = None
    if not report.passed:
        skip_reason = "scheme fails verification"
    elif any(sch.signal_len(v) != L for v in inst.vertices):
        lens = sorted({sch.signal_len(v) for v in inst.vertices})
        skip_reason = (
            f"signal lengths {lens} differ from secret length {L}; "
            "the identities assume rate 1/2"
        )
    else:
        from .oracle import lemma_audit

        lemmas = lemma_audit(inst, sch, L)
    # report.passed implies signal alignment: a zero leak on each unqualified edge.
    overlap_ok = all(a >= L for a in alignment.noise_overlaps.values())
    passed = report.passed and overlap_ok and (lemmas is None or lemmas.passed)

    lines = [
        _instance_header(inst),
        _scheme_header(sch),
        f"verification: {_pass(report.passed)}",
        "alignment:",
    ]
    for e, overlap in sorted(alignment.noise_overlaps.items()):
        marker = ">=" if overlap >= L else "<"
        lines.append(
            f"  qualified edge {_edge(e)}: noise overlap {overlap} ({marker} L = {L})"
        )
    for e, ok in sorted(alignment.signal_alignment.items()):
        state = "signal-aligned" if ok else "NOT ALIGNED"
        lines.append(f"  unqualified edge {_edge(e)}: {state}")
    if lemmas is None:
        lines.append(f"lemma audit: skipped ({skip_reason})")
    else:
        lines.append("lemma audit (rate-1/2 entropy identities):")
        for lemma in lemmas.lemmas:
            if lemma.vacuous:
                state = "vacuous (nothing to check)"
            elif lemma.passed:
                state = f"pass ({lemma.checked} checked)"
            else:
                state = f"FAIL ({len(lemma.failures)} of {lemma.checked})"
            lines.append(f"  {lemma.name}: {state}")
            for subjects, detail in lemma.failures:
                lines.append(f"    {', '.join(subjects)}: {detail}")
    lines.append(f"overall: {_pass(passed)}")

    payload = {
        "pass": passed,
        "verify_pass": report.passed,
        "noise_overlaps": [
            {"edge": list(e), "overlap": o, "at_least_secret_len": o >= L}
            for e, o in sorted(alignment.noise_overlaps.items())
        ],
        "signal_alignment": [
            {"edge": list(e), "aligned": ok}
            for e, ok in sorted(alignment.signal_alignment.items())
        ],
        "lemmas": None
        if lemmas is None
        else [
            {
                "name": l.name,
                "checked": l.checked,
                "passed": l.passed,
                "failures": [{"subjects": list(s), "detail": d} for s, d in l.failures],
            }
            for l in lemmas.lemmas
        ],
        "lemma_skip_reason": skip_reason,
    }
    return _Report(passed, payload, tuple(lines))


def _cmd_demo(args) -> _Report:
    from .instance import format_instance
    from .scheme import format_scheme
    from .synthesis import (
        builtin_fig2_scheme,
        builtin_instance,
        reduce_randomness,
        synthesize_half_rate,
    )

    name = args.name
    inst = builtin_instance(name)
    if name == "fig2":
        sch = builtin_fig2_scheme()
    else:
        sch = reduce_randomness(inst, synthesize_half_rate(inst))
    directory = Path(args.output or ".")
    try:
        directory.mkdir(parents=True, exist_ok=True)
        inst_path = directory / f"{name}.cds"
        sch_path = directory / f"{name}.scheme"
        inst_path.write_text(format_instance(inst), encoding="utf-8")
        sch_path.write_text(format_scheme(sch), encoding="utf-8")
    except OSError as exc:
        raise _UsageError(f"cannot write demo files: {exc}") from None
    files = [str(inst_path), str(sch_path)]
    return _Report(True, {"files": files}, tuple(f"wrote {f}" for f in files))


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="cds",
        description="Conditional disclosure of secrets: capacity toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="decide whether capacity 1/2 is achievable")
    p.add_argument("instance")

    p = sub.add_parser("synth", help="construct the rate-1/2 linear scheme")
    p.add_argument("instance")
    p.add_argument("--reduce-randomness", action="store_true")
    p.add_argument("-o", "--output", default=None, help="scheme file (default stdout)")

    p = sub.add_parser("verify", help="verify a linear scheme against an instance")
    p.add_argument("instance")
    p.add_argument("scheme")
    p.add_argument("--oracle", action="store_true", help="cross-check by enumeration")

    p = sub.add_parser("bound", help="Shannon-type converse bound by exact LP")
    p.add_argument("instance")
    p.add_argument("--vertices", default=None, help="comma-separated restriction")
    p.add_argument("--certificate", action="store_true", help="print the dual proof")

    p = sub.add_parser("audit", help="alignment diagnostics and lemma audit")
    p.add_argument("instance")
    p.add_argument("scheme")

    p = sub.add_parser("demo", help="write a built-in instance and scheme")
    p.add_argument("name", choices=["fig2", "example1"])
    p.add_argument("-o", "--output", default=None, help="target directory")

    for p in sub.choices.values():
        p.add_argument("--json", action="store_true")
    return parser


_COMMANDS = {
    "check": _cmd_check,
    "synth": _cmd_synth,
    "verify": _cmd_verify,
    "bound": _cmd_bound,
    "audit": _cmd_audit,
    "demo": _cmd_demo,
}


def run(argv=None) -> int:
    """Parse arguments, run the command, print its report and return the
    exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        report = _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"cds: error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    if args.json:
        print(json.dumps({"command": args.command, **report.payload}))
    else:
        sys.stdout.write(report.stdout)
        print("\n".join(report.lines), file=sys.stderr if report.to_stderr else sys.stdout)
    return 0 if report.passed else 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
