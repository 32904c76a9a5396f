"""Capacity analysis toolkit for conditional disclosure of secrets.

Decide when an instance admits the extreme rate 1/2, synthesize the
optimal linear schemes, verify arbitrary linear schemes by exact matrix
ranks (cross-checkable against an exhaustive enumeration oracle), and
compute Shannon-type converse bounds by exact rational linear
programming.

``import cdskit`` loads none of the submodules.  Each exported name, and
each submodule, loads on first access (PEP 562), so ``cdskit.rank``
brings in NumPy through :mod:`cdskit.gf` and ``cdskit.parse_instance``
does not.
"""

from importlib import import_module as _import_module

# Exported name -> the submodule that defines it.
_SUBMODULE_OF = {
    name: module
    for module, names in {
        "gf": (
            "GfMatrix",
            "left_kernel",
            "rank",
            "rowspace_intersection_basis",
            "rowspace_intersection_dim",
        ),
        "instance": (
            "CdsInstance",
            "DegenerateInstanceError",
            "FeasibilityResult",
            "InstanceFormatError",
            "Partition",
            "PathWitness",
            "format_instance",
            "half_rate_feasible",
            "is_non_degenerate",
            "normalize_degenerate",
            "parse_instance",
            "qualified_components",
            "unqualified_components_within",
            "unqualified_path",
        ),
        "scheme": (
            "AlignmentReport",
            "LinearScheme",
            "RateReport",
            "SchemeFormatError",
            "VerificationReport",
            "alignment_report",
            "check_signal_alignment",
            "format_scheme",
            "noise_overlap_dim",
            "parse_scheme",
            "path_overlap_lower_bound",
            "rate_report",
            "verify_linear",
        ),
        "oracle": (
            "BudgetError",
            "DEFAULT_BUDGET",
            "LemmaAuditReport",
            "SchemeTable",
            "check_correct",
            "check_secure",
            "joint_entropy",
            "joint_rank",
            "lemma_audit",
            "tabulate",
        ),
        "synthesis": (
            "InfeasibleInstanceError",
            "SynthesisPlan",
            "builtin_example1_instance",
            "builtin_fig2_instance",
            "builtin_fig2_scheme",
            "builtin_instance",
            "plan_synthesis",
            "reduce_randomness",
            "synthesize_half_rate",
        ),
        "simplex": ("LpSolution", "solve_lp"),
        "entropy_lp": (
            "EntropyLp",
            "ShannonBoundResult",
            "build_entropy_lp",
            "cds_constraints",
            "dual_certificate",
            "elemental_inequalities",
            "lp_dump",
            "shannon_bound",
            "simplex_solve",
            "verify_certificate",
        ),
    }.items()
    for name in names
}
_SUBMODULES = frozenset(_SUBMODULE_OF.values())

__all__ = [*_SUBMODULE_OF, *sorted(_SUBMODULES)]
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _SUBMODULES:
        return _import_module(f"{__name__}.{name}")
    if name not in _SUBMODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_import_module(f"{__name__}.{_SUBMODULE_OF[name]}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
