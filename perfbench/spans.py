"""In-memory spans at the layer boundaries of cdskit, recorded from outside.

A :class:`Tracer` replaces public functions of the ``cdskit`` modules by
timing wrappers, under the name each calling module imports them by, so
calls made inside the package are seen too (``reduce_randomness`` calling
``plan_synthesis``, ``verify_linear`` calling ``rank``).  Spans stay in
memory until the run ends.  A span's layer is the part of its name before
the first dot; ``bench`` spans belong to the benchmark itself.
"""

from __future__ import annotations

import importlib
from time import perf_counter

LAYERS = ("cli", "instance", "synthesis", "scheme", "gf", "oracle", "entropy_lp", "simplex")

# (module, attribute) -> span name.  Several entries share a span name when
# one function is imported into several modules.
WRAPPED = {
    ("cdskit.instance", "parse_instance"): "instance.parse",
    ("cdskit.instance", "half_rate_feasible"): "instance.feasible",
    ("cdskit.synthesis", "half_rate_feasible"): "instance.feasible",
    ("cdskit.synthesis", "plan_synthesis"): "synthesis.plan",
    ("cdskit.synthesis", "synthesize_half_rate"): "synthesis.synth",
    ("cdskit.synthesis", "reduce_randomness"): "synthesis.reduce",
    ("cdskit.scheme", "verify_linear"): "scheme.verify",
    ("cdskit.scheme", "alignment_report"): "scheme.alignment",
    ("cdskit.scheme", "format_scheme"): "scheme.format",
    ("cdskit.scheme", "parse_scheme"): "scheme.parse",
    ("cdskit.gf", "rank"): "gf.rank",
    ("cdskit.scheme", "rank"): "gf.rank",
    ("cdskit.oracle", "rank"): "gf.rank",
    ("cdskit.oracle", "tabulate"): "oracle.tabulate",
    ("cdskit.oracle", "check_correct"): "oracle.correct",
    ("cdskit.oracle", "check_secure"): "oracle.secure",
    ("cdskit.oracle", "lemma_audit"): "oracle.audit",
    ("cdskit.entropy_lp", "shannon_bound"): "entropy_lp.bound",
    ("cdskit.entropy_lp", "build_entropy_lp"): "entropy_lp.build",
    ("cdskit.entropy_lp", "verify_certificate"): "entropy_lp.certify",
    ("cdskit.entropy_lp", "solve_lp"): "simplex.solve",
}


class Tracer:
    """Span recorder.  ``spans`` holds (id, parent id, name, start, end)."""

    def __init__(self, sink=None, on_begin=None):
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self._stack: list[int] = []
        self._next = 0
        self._undo: list[tuple[object, str, object]] = []
        self._sink = sink  # called with each finished span, if given
        self._on_begin = on_begin  # called with (id, parent id, name, start)

    @property
    def current(self) -> int | None:
        """Id of the innermost open span."""
        return self._stack[-1] if self._stack else None

    def begin(self, name: str) -> tuple[int, int | None, str, float]:
        sid = self._next
        self._next += 1
        opened = (sid, self.current, name, perf_counter())
        self._stack.append(sid)
        if self._on_begin is not None:
            self._on_begin(opened)
        return opened

    def end(self, opened) -> None:
        sid, parent, name, start = opened
        span = (sid, parent, name, start, perf_counter())
        self._stack.pop()
        self.spans.append(span)
        if self._sink is not None:
            self._sink(span)

    def graft(self, spans, parent: int | None) -> None:
        """Adopt spans recorded by another tracer, such as one in a child
        process (``perf_counter`` is system-wide on Linux).  Their roots,
        and spans whose parent never finished, hang under ``parent``."""
        base = self._next
        ids = {s[0] for s in spans}
        for sid, par, name, start, end in spans:
            self.spans.append((base + sid, base + par if par in ids else parent, name, start, end))
        self._next = base + max(ids, default=-1) + 1

    def install(self) -> None:
        for (module_name, attr), name in WRAPPED.items():
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            setattr(module, attr, self._wrapper(name, original))
            self._undo.append((module, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)

    def _wrapper(self, name: str, fn):
        def traced(*args, **kwargs):
            opened = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(opened)

        return traced


def totals(spans) -> dict[str, tuple[int, float]]:
    """Span name -> (calls, inclusive seconds)."""
    out: dict[str, tuple[int, float]] = {}
    for _, _, name, start, end in spans:
        calls, secs = out.get(name, (0, 0.0))
        out[name] = (calls + 1, secs + end - start)
    return out


def self_times(spans) -> dict[str, float]:
    """Layer -> self time: each span's duration minus the part of it that
    its child spans cover (children never overlap one another)."""
    child = {}
    for _, parent, _, start, end in spans:
        if parent is not None:
            child[parent] = child.get(parent, 0.0) + end - start
    out: dict[str, float] = {}
    for sid, _, name, start, end in spans:
        layer = name.split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + (end - start) - child.get(sid, 0.0)
    return out
