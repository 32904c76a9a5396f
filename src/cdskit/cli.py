"""Command-line front end.

Subcommands: ``check`` (capacity-1/2 feasibility with witness), ``synth``
(rate-1/2 scheme construction), ``verify`` (rank-based verification with
an optional exhaustive-oracle cross-check), ``bound`` (exact Shannon-LP
converse), ``audit`` (alignment diagnostics and the rate-1/2 lemma
audit), and ``demo`` (write the built-in instance/scheme files).

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
from fractions import Fraction
from pathlib import Path

from .entropy_lp import dual_certificate, shannon_bound
from .gf import GfMatrix
from .instance import (
    CdsInstance,
    FeasibilityResult,
    InstanceFormatError,
    format_instance,
    half_rate_feasible,
    normalize_degenerate,
    parse_instance,
)
from .oracle import (
    DEFAULT_BUDGET,
    BudgetError,
    LemmaAuditReport,
    check_correct,
    check_secure,
    lemma_audit,
    tabulate,
)
from .scheme import (
    AlignmentReport,
    LinearScheme,
    RateReport,
    VerificationReport,
    SchemeFormatError,
    alignment_report,
    format_scheme,
    parse_scheme,
    rate_report,
    verify_linear,
)
from .synthesis import (
    InfeasibleInstanceError,
    builtin_instance,
    builtin_fig2_scheme,
    reduce_randomness,
    synthesize_half_rate,
)

__all__ = ["main", "run", "render_report"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: A003 - argparse API
        raise _UsageError(message)


def _frac(x: Fraction) -> str:
    return str(x)


def _frac_json(x: Fraction | None):
    if x is None:
        return None
    return {"num": x.numerator, "den": x.denominator}


def _edge(e) -> str:
    return f"{{{e[0]}, {e[1]}}}"


def _path(vertices) -> str:
    return "(" + ", ".join(vertices) + ")"


def _instance_header(inst: CdsInstance) -> str:
    return (
        f"instance: {len(inst.vertices)} vertices, "
        f"{len(inst.qualified) + len(inst.unqualified)} edges "
        f"({len(inst.qualified)} qualified, {len(inst.unqualified)} unqualified)"
    )


# ---------------------------------------------------------------------------
# Report rendering (deterministic, line-stable)


def render_feasibility(result) -> str:
    if result.feasible:
        return "FEASIBLE (capacity = 1/2)"
    lines = [
        "INFEASIBLE (capacity < 1/2)",
        f"  internal qualified edge: {_edge(result.witness_edge)}",
        f"  unqualified path: {_path(result.witness_path.vertices)}",
    ]
    return "\n".join(lines)


def render_verification(report) -> str:
    lines = []
    for v in sorted(report.vertex_verdicts):
        verdict = report.vertex_verdicts[v]
        state = "secure" if verdict.secure else f"LEAKS {verdict.leak_rank}"
        lines.append(f"vertex {v}: {state}")
    for edge in sorted(report.edge_verdicts):
        verdict = report.edge_verdicts[edge]
        if verdict.kind == "q":
            state = (
                f"decodable (information rank {verdict.rank_delta})"
                if verdict.ok
                else f"NOT DECODABLE (information rank {verdict.rank_delta})"
            )
            lines.append(f"edge {_edge(edge)} qualified: {state}")
        else:
            state = "secure (leak 0)" if verdict.ok else f"LEAKS {verdict.rank_delta}"
            lines.append(f"edge {_edge(edge)} unqualified: {state}")
    lines.append(f"overall: {'PASS' if report.passed else 'FAIL'}")
    return "\n".join(lines)


def render_rate(report) -> str:
    rz = _frac(report.randomness_rate) if report.randomness_rate is not None else "inf"
    lo, hi = report.bounds
    return f"R = {_frac(report.rate)}, R_Z = {rz}, bounds [{_frac(lo)}, {_frac(hi)}]"


def render_alignment(report, secret_len: int | None = None) -> str:
    lines = ["alignment:"]
    for edge in sorted(report.noise_overlaps):
        overlap = report.noise_overlaps[edge]
        note = ""
        if secret_len is not None:
            marker = ">=" if overlap >= secret_len else "<"
            note = f" ({marker} L = {secret_len})"
        lines.append(f"  qualified edge {_edge(edge)}: noise overlap {overlap}{note}")
    for edge in sorted(report.signal_alignment):
        state = "signal-aligned" if report.signal_alignment[edge] else "NOT ALIGNED"
        lines.append(f"  unqualified edge {_edge(edge)}: {state}")
    for path, bound in report.path_bounds:
        lines.append(f"  path {_path(path)}: overlap lower bound {bound}")
    return "\n".join(lines)


def render_lemmas(report) -> str:
    lines = ["lemma audit (rate-1/2 entropy identities):"]
    for lemma in report.lemmas:
        if lemma.vacuous:
            state = "vacuous (nothing to check)"
        elif lemma.passed:
            state = f"pass ({lemma.checked} checked)"
        else:
            state = f"FAIL ({len(lemma.failures)} of {lemma.checked})"
        lines.append(f"  {lemma.name}: {state}")
        for subjects, detail in lemma.failures:
            lines.append(f"    {', '.join(subjects)}: {detail}")
    return "\n".join(lines)


def render_report(report) -> str:
    """Deterministic text for any report object produced by the library."""
    if isinstance(report, FeasibilityResult):
        return render_feasibility(report)
    if isinstance(report, VerificationReport):
        return render_verification(report)
    if isinstance(report, RateReport):
        return render_rate(report)
    if isinstance(report, AlignmentReport):
        return render_alignment(report)
    if isinstance(report, LemmaAuditReport):
        return render_lemmas(report)
    raise TypeError(f"no renderer for {type(report).__name__}")


# ---------------------------------------------------------------------------
# Command implementations


def _load_instance(path: str) -> CdsInstance:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise _UsageError(f"cannot read instance file {path}: {exc}") from None
    try:
        return parse_instance(text)
    except InstanceFormatError as exc:
        raise _UsageError(f"{path}: {exc}") from None


def _load_scheme(path: str) -> LinearScheme:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise _UsageError(f"cannot read scheme file {path}: {exc}") from None
    try:
        return parse_scheme(text)
    except SchemeFormatError as exc:
        raise _UsageError(f"{path}: {exc}") from None


def _budget() -> int:
    raw = os.environ.get("CDS_ENUM_BUDGET")
    if raw is None:
        return DEFAULT_BUDGET
    try:
        value = int(raw)
        if value < 1:
            raise ValueError
    except ValueError:
        raise _UsageError(f"CDS_ENUM_BUDGET must be a positive integer, got {raw!r}") from None
    return value


def _witness_json(result):
    if result.feasible:
        return None
    return {
        "edge": list(result.witness_edge),
        "path": list(result.witness_path.vertices),
    }


def _cmd_check(args, out) -> int:
    inst = _load_instance(args.instance)
    core, eliminated = normalize_degenerate(inst)
    if core.vertices:
        result = half_rate_feasible(core)
    else:
        result = FeasibilityResult(True)
    if args.json:
        out(
            json.dumps(
                {
                    "command": "check",
                    "feasible": result.feasible,
                    "vertices": len(inst.vertices),
                    "qualified_edges": len(inst.qualified),
                    "unqualified_edges": len(inst.unqualified),
                    "eliminated": list(eliminated),
                    "witness": _witness_json(result),
                }
            )
        )
    else:
        lines = [_instance_header(inst)]
        if eliminated:
            lines.append(
                "eliminated degenerate vertices (signal = secret): "
                + ", ".join(eliminated)
            )
        lines.append(render_feasibility(result))
        out("\n".join(lines))
    return 0 if result.feasible else 1


def _cmd_synth(args, out) -> int:
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
        result = exc.result
        if args.json:
            out(
                json.dumps(
                    {
                        "command": "synth",
                        "feasible": False,
                        "eliminated": list(eliminated),
                        "witness": _witness_json(result),
                    }
                )
            )
        else:
            out(_instance_header(inst))
            out(render_feasibility(result))
        return 1

    # The eliminated vertices carry the secret in the clear; they have no
    # unqualified edge, so no security constraint applies to them.
    if sch is None:
        p, noise_len = 2, 0
        matrices = {}
    else:
        p, noise_len = sch.p, sch.noise_len
        matrices = dict(sch.matrices)
    for v in eliminated:
        matrices[v] = (
            GfMatrix.from_rows(p, [[1]], 1),
            GfMatrix.zeros(p, 1, noise_len),
        )
    full = LinearScheme(p, 1, noise_len, matrices)
    core_report = verify_linear(core, sch) if sch is not None else None
    # As in verify: without a qualified edge no rate is defined.
    rates = rate_report(core, sch) if sch is not None and core.qualified else None

    scheme_text = format_scheme(full)
    if args.json:
        payload = {
            "command": "synth",
            "feasible": True,
            "eliminated": list(eliminated),
            "p": full.p,
            "secret_len": full.secret_len,
            "noise_len": full.noise_len,
            "rate": _frac_json(rates.rate) if rates else None,
            "randomness_rate": _frac_json(rates.randomness_rate) if rates else None,
            "verified": core_report.passed if core_report else True,
            "output": args.output,
        }
        if args.output is None:
            payload["scheme"] = scheme_text
        else:
            Path(args.output).write_text(scheme_text, encoding="utf-8")
        out(json.dumps(payload))
        return 0
    if args.output is None:
        # Scheme file on stdout; human summary on stderr.
        sys.stdout.write(scheme_text)
        summary = sys.stderr.write
    else:
        Path(args.output).write_text(scheme_text, encoding="utf-8")
        summary = lambda s: out(s.rstrip("\n"))
    summary(_instance_header(inst) + "\n")
    if eliminated:
        summary(
            "eliminated degenerate vertices (signal = secret): "
            + ", ".join(eliminated)
            + "\n"
        )
    if core_report is not None:
        rate = f", {render_rate(rates)}" if rates is not None else ""
        summary(
            f"scheme: p={full.p}, L={full.secret_len}, L_Z={full.noise_len}{rate}\n"
        )
        summary(f"verification: {'PASS' if core_report.passed else 'FAIL'}\n")
    if args.output is not None:
        summary(f"wrote scheme to {args.output}\n")
    return 0


def _cmd_verify(args, out) -> int:
    inst = _load_instance(args.instance)
    sch = _load_scheme(args.scheme)
    try:
        report = verify_linear(inst, sch)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    # Without a qualified edge no pair must decode, so no rate bound
    # applies (signals may even be empty); rates are reported otherwise.
    rates = rate_report(inst, sch) if report.passed and inst.qualified else None
    oracle_result = None
    if args.oracle:
        try:
            table = tabulate(sch, budget=_budget())
        except BudgetError as exc:
            raise _UsageError(str(exc)) from None
        mismatches = []
        for kind, (v, u) in inst.edges:
            expected = report.edge_verdicts[(v, u)].ok
            actual = (
                check_correct(table, v, u) if kind == "q" else check_secure(table, v, u)
            )
            if actual != expected:
                mismatches.append((v, u))
        oracle_result = {
            "realizations": table.size,
            "checked": len(inst.edges),
            "mismatches": mismatches,
        }
    passed = report.passed and not (oracle_result and oracle_result["mismatches"])
    if args.json:
        out(
            json.dumps(
                {
                    "command": "verify",
                    "pass": passed,
                    "p": sch.p,
                    "secret_len": sch.secret_len,
                    "noise_len": sch.noise_len,
                    "vertices": {
                        v: {"secure": w.secure, "leak": w.leak_rank}
                        for v, w in sorted(report.vertex_verdicts.items())
                    },
                    "edges": [
                        {
                            "edge": list(e),
                            "kind": w.kind,
                            "ok": w.ok,
                            "rank": w.rank_delta,
                        }
                        for e, w in sorted(report.edge_verdicts.items())
                    ],
                    "rate": _frac_json(rates.rate) if rates else None,
                    "randomness_rate": _frac_json(rates.randomness_rate)
                    if rates
                    else None,
                    "oracle": None
                    if oracle_result is None
                    else {
                        "realizations": oracle_result["realizations"],
                        "checked": oracle_result["checked"],
                        "mismatches": [list(e) for e in oracle_result["mismatches"]],
                    },
                }
            )
        )
        return 0 if passed else 1
    lines = [
        _instance_header(inst),
        f"scheme: p={sch.p}, L={sch.secret_len}, L_Z={sch.noise_len}, "
        f"max signal length {sch.max_signal_len()}",
        render_verification(report),
    ]
    if rates is not None:
        lines.append(render_rate(rates))
    if oracle_result is not None:
        if oracle_result["mismatches"]:
            lines.append(
                "oracle: MISMATCH on "
                + ", ".join(_edge(e) for e in oracle_result["mismatches"])
            )
        else:
            lines.append(
                f"oracle: all {oracle_result['checked']} edge verdicts confirmed "
                f"over {oracle_result['realizations']} realizations"
            )
    out("\n".join(lines))
    return 0 if passed else 1


def _cmd_bound(args, out) -> int:
    inst = _load_instance(args.instance)
    restricted = None
    if args.vertices:
        names = [v.strip() for v in args.vertices.split(",") if v.strip()]
        unknown = [v for v in names if v not in inst.vertices]
        if unknown:
            raise _UsageError(f"unknown vertices: {', '.join(unknown)}")
        inst = inst.induced(names)
        restricted = sorted(names)
    try:
        result = shannon_bound(inst)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    certificate = (
        dual_certificate(result.solution, result.lp) if args.certificate else None
    )
    if args.json:
        out(
            json.dumps(
                {
                    "command": "bound",
                    "rate_bound": _frac_json(result.rate_bound),
                    "entropy_bound": _frac_json(result.entropy_bound),
                    "degenerate": result.degenerate,
                    "restricted_to": restricted,
                    "certificate": certificate,
                }
            )
        )
        return 0
    lines = [_instance_header(inst)]
    if restricted:
        lines.append("restricted to vertices: " + ", ".join(restricted))
    lines.append(
        f"shannon bound: {_frac(result.rate_bound)} "
        f"(max H(S) = {_frac(result.entropy_bound)})"
    )
    if result.degenerate:
        lines.append(
            "degenerate: no qualified edge ties the secret to the signals; "
            "the bound is the explicit cap"
        )
    if certificate is not None:
        lines.append(certificate.rstrip("\n"))
    out("\n".join(lines))
    return 0


def _cmd_audit(args, out) -> int:
    inst = _load_instance(args.instance)
    sch = _load_scheme(args.scheme)
    try:
        report = verify_linear(inst, sch)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    alignment = alignment_report(inst, sch)
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
        try:
            lemmas = lemma_audit(inst, tabulate(sch, budget=_budget()), L)
        except BudgetError as exc:
            raise _UsageError(str(exc)) from None
    alignment_ok = all(
        report.edge_verdicts[e].ok for e in report.edge_verdicts
    ) and all(alignment.signal_alignment.values())
    overlap_ok = all(a >= L for a in alignment.noise_overlaps.values())
    passed = (
        report.passed
        and alignment_ok
        and overlap_ok
        and (lemmas is None or lemmas.passed)
    )
    if args.json:
        out(
            json.dumps(
                {
                    "command": "audit",
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
                            "failures": [
                                {"subjects": list(s), "detail": d}
                                for s, d in l.failures
                            ],
                        }
                        for l in lemmas.lemmas
                    ],
                    "lemma_skip_reason": skip_reason,
                }
            )
        )
        return 0 if passed else 1
    lines = [
        _instance_header(inst),
        f"scheme: p={sch.p}, L={sch.secret_len}, L_Z={sch.noise_len}, "
        f"max signal length {sch.max_signal_len()}",
        f"verification: {'PASS' if report.passed else 'FAIL'}",
        render_alignment(alignment, secret_len=L),
    ]
    if lemmas is None:
        lines.append(f"lemma audit: skipped ({skip_reason})")
    else:
        lines.append(render_lemmas(lemmas))
    lines.append(f"overall: {'PASS' if passed else 'FAIL'}")
    out("\n".join(lines))
    return 0 if passed else 1


def _cmd_demo(args, out) -> int:
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
    if args.json:
        out(
            json.dumps(
                {"command": "demo", "files": [str(inst_path), str(sch_path)]}
            )
        )
    else:
        out(f"wrote {inst_path}")
        out(f"wrote {sch_path}")
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="cds",
        description="Conditional disclosure of secrets: capacity toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="decide whether capacity 1/2 is achievable")
    p.add_argument("instance")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("synth", help="construct the rate-1/2 linear scheme")
    p.add_argument("instance")
    p.add_argument("--reduce-randomness", action="store_true")
    p.add_argument("-o", "--output", default=None, help="scheme file (default stdout)")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("verify", help="verify a linear scheme against an instance")
    p.add_argument("instance")
    p.add_argument("scheme")
    p.add_argument("--oracle", action="store_true", help="cross-check by enumeration")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("bound", help="Shannon-type converse bound by exact LP")
    p.add_argument("instance")
    p.add_argument("--vertices", default=None, help="comma-separated restriction")
    p.add_argument("--certificate", action="store_true", help="print the dual proof")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("audit", help="alignment diagnostics and lemma audit")
    p.add_argument("instance")
    p.add_argument("scheme")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("demo", help="write a built-in instance and scheme")
    p.add_argument("name", choices=["fig2", "example1"])
    p.add_argument("-o", "--output", default=None, help="target directory")
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
    """Parse arguments, dispatch, and return the exit code."""
    parser = _build_parser()
    out = lambda s: print(s)
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args, out)
    except _UsageError as exc:
        print(f"cds: error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
