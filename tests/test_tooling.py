"""The benchmark calls into cdskit from outside the package, so what it
calls must still resolve: its tracer (perfbench/spans.py) wraps cdskit
functions by (module, attribute) name, and its workloads call module
functions with fixed arguments.  A name lost in an import cleanup, or a
changed signature, would otherwise only show as a failed benchmark run
or failed benchmark operations.  These checks read the benchmark's source
and import none of it.  A wrapper also sees only the calls made through
the name it replaced, so the last check counts, under wrappers of its
own, the calls one ``shannon_bound`` makes through the entropy_lp names
the tracer wraps: a call routed around them would leave their spans at
zero.  The graph-scale operations are counted the same way, so that their
trace keeps its meaning from one version to the next, and so are the
passes that each report or decision must make only once."""

import ast
import importlib
import inspect
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SPANS = PERFBENCH / "spans.py"
# The benchmark's callers and the cdskit modules whose calls are checked.
CALLERS = ("workloads.py", "probe.py")
CHECKED_MODULES = ("instance", "scheme", "oracle", "synthesis", "entropy_lp")


def wrapped_names() -> dict:
    """The WRAPPED table, read from the source without importing it."""
    tree = ast.parse(SPANS.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "WRAPPED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{SPANS} defines no WRAPPED table")


def test_every_wrapped_name_resolves():
    wrapped = wrapped_names()
    assert wrapped
    missing = [
        (module, attr)
        for module, attr in wrapped
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []


def module_calls(path: Path):
    """(line, module, attribute, call) for every call of ``module.attribute``
    in a file, where the module is one of CHECKED_MODULES imported by
    ``from cdskit import ...`` (under any alias)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    aliases = {
        alias.asname or alias.name: alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "cdskit"
        for alias in node.names
        if alias.name in CHECKED_MODULES
    }
    for node in ast.walk(tree):
        func = getattr(node, "func", None)
        if (
            isinstance(node, ast.Call)
            and isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in aliases
        ):
            yield node.lineno, aliases[func.value.id], func.attr, node


def test_benchmark_calls_bind_to_current_signatures():
    problems, checked = [], 0
    for name in CALLERS:
        for line, module, attr, call in module_calls(PERFBENCH / name):
            where = f"{name}:{line} {module}.{attr}"
            target = getattr(importlib.import_module(f"cdskit.{module}"), attr, None)
            checked += 1
            if not callable(target):
                problems.append(f"{where}: no such function")
                continue
            starred = any(isinstance(a, ast.Starred) for a in call.args) or any(
                k.arg is None for k in call.keywords
            )
            if starred:
                continue  # the arguments are unknown until run time
            try:
                inspect.signature(target).bind(
                    *call.args, **{k.arg: k.value for k in call.keywords}
                )
            except TypeError as exc:
                problems.append(f"{where}: {exc}")
    assert checked >= 10
    assert problems == []


def test_shannon_bound_calls_each_wrapped_name_once(monkeypatch):
    from cdskit import entropy_lp
    from cdskit.instance import CdsInstance

    names = [attr for module, attr in wrapped_names() if module == "cdskit.entropy_lp"]
    assert {"build_entropy_lp", "solve_lp", "verify_certificate"} <= set(names)
    calls = dict.fromkeys(names, 0)

    def counted(attr, fn):
        def wrapper(*args, **kwargs):
            calls[attr] += 1
            return fn(*args, **kwargs)

        return wrapper

    for attr in names:
        monkeypatch.setattr(entropy_lp, attr, counted(attr, getattr(entropy_lp, attr)))
    inst = CdsInstance.from_edges([("q", "A1", "B1"), ("u", "A1", "B2")])
    entropy_lp.shannon_bound(inst)
    assert calls == dict.fromkeys(names, 1)


def count_calls(monkeypatch, targets, name=lambda module, attr: attr) -> dict:
    """Wrap each (module, attribute) so that its calls count under
    ``name(module, attribute)``; the counts start at zero."""
    calls = {}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    for module_name, attr in targets:
        module = importlib.import_module(module_name)
        key = name(module_name, attr)
        calls[key] = 0
        monkeypatch.setattr(module, attr, counted(key, getattr(module, attr)))
    return calls


def test_each_report_ranks_once_and_each_decision_decomposes_once(monkeypatch):
    from cdskit import instance, scheme, synthesis

    inst = synthesis.builtin_example1_instance()
    sch = synthesis.synthesize_half_rate(inst)
    # Synthesis reads the union-find's roots: it builds no Partition.
    calls = count_calls(
        monkeypatch,
        [
            ("cdskit.scheme", "block_ranks"),
            ("cdskit.instance", "_decompose"),
            ("cdskit.synthesis", "_decompose"),
            ("cdskit.instance", "Partition"),
        ],
    )
    for run, once in (
        (lambda: scheme.verify_linear(inst, sch), "block_ranks"),
        (lambda: scheme.alignment_report(inst, sch), "block_ranks"),
        (lambda: scheme.verify_and_align(inst, sch), "block_ranks"),
        (lambda: instance.half_rate_feasible(inst), "_decompose"),
        (lambda: synthesis.plan_synthesis(inst), "_decompose"),
        (lambda: synthesis.synthesize_half_rate(inst), "_decompose"),
        (lambda: synthesis.reduce_randomness(inst, sch), "_decompose"),
    ):
        calls.update(dict.fromkeys(calls, 0))
        run()
        assert calls == {"block_ranks": 0, "_decompose": 0, "Partition": 0, once: 1}


# The spans each graph-scale operation (perfbench/workloads.py) records,
# with their calls, on example1 and, for the infeasible check, fig2.
GRAPH_SCALE_SPANS = {
    "parse": {"instance.parse": 1},
    "check": {"instance.feasible": 1},
    "check infeasible": {"instance.feasible": 1},
    "synth": {"synthesis.synth": 1, "synthesis.plan": 1},
    "reduce": {"synthesis.reduce": 1, "synthesis.plan": 1},
    "verify": {"scheme.verify": 1},
    "align": {"scheme.alignment": 1},
    "format-parse": {"scheme.format": 1, "scheme.parse": 1},
}


def test_graph_scale_operations_keep_their_spans(monkeypatch):
    from cdskit import instance, scheme, synthesis

    wrapped = wrapped_names()
    calls = count_calls(monkeypatch, wrapped, lambda module, attr: wrapped[module, attr])
    text = instance.format_instance(synthesis.builtin_example1_instance())
    inst = instance.parse_instance(text)
    fig2 = synthesis.builtin_fig2_instance()
    state = {}
    ops = {
        "parse": lambda: instance.parse_instance(text),
        "check": lambda: instance.half_rate_feasible(inst),
        "check infeasible": lambda: instance.half_rate_feasible(fig2),
        "synth": lambda: state.setdefault("synth", synthesis.synthesize_half_rate(inst)),
        "reduce": lambda: state.setdefault(
            "reduced", synthesis.reduce_randomness(inst, state["synth"])
        ),
        "verify": lambda: scheme.verify_linear(inst, state["reduced"]),
        "align": lambda: scheme.alignment_report(inst, state["reduced"]),
        "format-parse": lambda: scheme.parse_scheme(scheme.format_scheme(state["reduced"])),
    }
    seen = {}
    for op, run in ops.items():
        calls.update(dict.fromkeys(calls, 0))
        run()
        seen[op] = {span: n for span, n in calls.items() if n}
    assert seen == GRAPH_SCALE_SPANS


SRC = Path(__file__).resolve().parent.parent / "src" / "cdskit"


def unused_imports(path: Path) -> list[str]:
    """The names a module imports and never reads, listed as
    ``file:line name``.  A name written out in ``__all__`` is read, and
    an import on a line marked ``# noqa: F401`` is exempt only if the
    benchmark's tracer wraps that name in this module (WRAPPED)."""
    traced = {attr for module, attr in wrapped_names() if module == f"cdskit.{path.stem}"}
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    tree = ast.parse(text)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.List) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        marked = "# noqa: F401" in lines[node.end_lineno - 1]
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in (traced if marked else used):
                unused.append(f"{path.name}:{node.lineno} {name}")
    return unused


def test_no_module_imports_a_name_it_never_uses():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) >= 9
    assert [name for path in modules for name in unused_imports(path)] == []


def test_noqa_names_only_a_traced_import(tmp_path):
    module = tmp_path / "scheme.py"  # read as cdskit.scheme, where rank is traced
    module.write_text(
        "from .gf import rank  # noqa: F401\n"
        "from .gf import hstack  # noqa: F401\n"
        "from .gf import vstack  # noqa: F401\n"
        "print(vstack)\n",
        encoding="utf-8",
    )
    assert unused_imports(module) == ["scheme.py:2 hstack", "scheme.py:3 vstack"]


def names_used(node: ast.AST) -> set[str]:
    """The names a statement reads, takes an attribute by, or imports."""
    used = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            used.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            used.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            used |= {alias.name for alias in sub.names}
    return used


def dead_private_code(paths: list[Path]) -> list[str]:
    """The module-level private functions and classes that no live code
    in ``paths`` names, listed as ``file:line name``.  Every other
    module-level statement is live, and so is each such function or class
    that live code names, other than itself: a helper that only dead code
    calls is dead too."""
    where, uses = {}, {}
    for path in paths:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            where[node], uses[node] = path.name, names_used(node)
    private = [
        node
        for node in uses
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.endswith("__")
    ]
    dead: set = set()
    while True:
        now = {
            node
            for node in private
            if not any(
                node.name in used
                for other, used in uses.items()
                if other is not node and other not in dead
            )
        }
        if now == dead:
            return sorted(f"{where[node]}:{node.lineno} {node.name}" for node in dead)
        dead = now


def test_no_private_function_or_class_is_left_without_a_caller():
    # Tests do not count: code only a test calls is dead code.
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) >= 9
    assert dead_private_code(modules) == []
