"""The determinism rule catalog (REP001..REP008).

Every rule targets one concrete way the byte-identity contract has broken
(or could break) in this codebase: results must be a pure function of
``(spec, seed)`` — identical across ``n_jobs`` 1/N, spawn contexts, and
any PYTHONHASHSEED.  See ``docs/determinism.md`` for the catalog with worked
examples; the authoritative behavior spec is the corpus under
``tests/analysis/corpus/``.

Rules are heuristic by design: they resolve names through import aliases
and do lightweight local type inference, but they do not chase values
across modules.  False positives are handled by the justified-suppression
workflow, never by weakening a rule silently.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.context import ModuleContext
from repro.analysis.violations import Finding, Rule

__all__ = ["META_RULE_CODE", "RULES", "rule_codes"]

#: Pseudo-rule for malformed / unused suppression comments.  It is not an
#: analysis of the code itself, so it lives outside the REP001.. catalog,
#: cannot be suppressed, and is never baselined away silently.
META_RULE_CODE = "REP000"


# ----------------------------------------------------------------------
# REP001: wall-clock reads

_WALL_CLOCK = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.process_time",
        "time.process_time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)


def check_wall_clock(ctx: ModuleContext) -> Iterator[Finding]:
    """REP001: simulated time must come from the event loop, never the host.

    PR 1's first cross-process nondeterminism was exactly this: ESG measured
    its plan-search wall time and fed it back into the simulation as
    scheduling overhead, so every run's timeline depended on host load.
    """
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        resolved = ctx.resolve_call(node)
        if resolved in _WALL_CLOCK:
            yield Finding(
                node,
                f"wall-clock read {resolved}() in simulation code: results must "
                "be a pure function of (spec, seed); model elapsed time "
                "deterministically or move this to the benchmark/CLI layer",
            )


# ----------------------------------------------------------------------
# REP002: builtin hash()/id() flowing into keys, seeds or sort keys

_SEED_SINKS = frozenset(
    {
        "numpy.random.default_rng",
        "numpy.random.SeedSequence",
        "numpy.random.seed",
        "numpy.random.RandomState",
        "random.seed",
        "random.Random",
        "repro.utils.rng.derive_rng",
        "derive_rng",
    }
)
_TAINTED_NAME_PARTS = ("key", "seed", "entropy")


def _name_is_tainted(name: str) -> bool:
    lowered = name.lower()
    return any(part in lowered for part in _TAINTED_NAME_PARTS)


def check_hash_id_in_keys(ctx: ModuleContext) -> Iterator[Finding]:
    """REP002: ``hash()`` is PYTHONHASHSEED-salted and ``id()`` is a heap address.

    Neither survives a process boundary, so anything derived from them —
    cache keys, RNG seeds, sort keys, dict keys — silently differs between
    a parent and its spawned workers (the ``derive_rng`` bug PR 1 fixed).
    """
    for node in ast.walk(ctx.tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("hash", "id")
            and node.func.id not in ctx.imports  # shadowed by an import: not builtin
        ):
            continue
        builtin = node.func.id
        context = _hash_flow_context(ctx, node)
        if context is not None:
            yield Finding(
                node,
                f"builtin {builtin}() flows into {context}: it is not stable "
                "across processes (PYTHONHASHSEED / heap layout); derive the "
                "value from stable bytes instead (e.g. hashlib.blake2s)",
            )


def _hash_flow_context(ctx: ModuleContext, call: ast.Call) -> str | None:
    """Classify where a hash()/id() value ends up, or ``None`` if harmless."""
    previous: ast.AST = call
    for ancestor in ctx.ancestors(call):
        if isinstance(ancestor, ast.keyword):
            if ancestor.arg in ("key", "seed"):
                return f"a {ancestor.arg}= argument"
        elif isinstance(ancestor, ast.Call):
            resolved = ctx.resolve_call(ancestor)
            if resolved in _SEED_SINKS:
                return f"RNG seeding ({resolved})"
        elif isinstance(ancestor, ast.Dict):
            if previous in ancestor.keys:
                return "a dict key"
        elif isinstance(ancestor, ast.Subscript):
            if previous is ancestor.slice:
                return "a subscript key"
        elif isinstance(ancestor, (ast.Set, ast.SetComp)):
            return "a set element"
        elif isinstance(ancestor, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (
                ancestor.targets
                if isinstance(ancestor, ast.Assign)
                else [ancestor.target]
            )
            for target in targets:
                if isinstance(target, ast.Name) and _name_is_tainted(target.id):
                    return f"variable {target.id!r}"
            return None
        elif isinstance(ancestor, ast.Return):
            function = ctx.enclosing_function(ancestor)
            if (
                function is not None
                and function.name != "__hash__"  # in-process protocol, legitimate
                and (_name_is_tainted(function.name) or "hash" in function.name.lower())
            ):
                return f"the return value of {function.name}()"
            return None
        elif isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Module)):
            return None
        previous = ancestor
    return None


# ----------------------------------------------------------------------
# REP003: unseeded / global RNG state

_RANDOM_MODULE_FUNCS = frozenset(
    {
        "betavariate", "choice", "choices", "expovariate", "gauss",
        "getrandbits", "lognormvariate", "normalvariate", "paretovariate",
        "randbytes", "randint", "random", "randrange", "sample", "seed",
        "shuffle", "triangular", "uniform", "vonmisesvariate", "weibullvariate",
    }
)
_NUMPY_RANDOM_FUNCS = frozenset(
    {
        "beta", "binomial", "bytes", "chisquare", "choice", "dirichlet",
        "exponential", "gamma", "geometric", "gumbel", "laplace", "logistic",
        "lognormal", "multinomial", "multivariate_normal", "normal",
        "permutation", "poisson", "rand", "randint", "randn", "random",
        "random_integers", "random_sample", "ranf", "rayleigh", "sample",
        "seed", "shuffle", "standard_cauchy", "standard_exponential",
        "standard_gamma", "standard_normal", "standard_t", "triangular",
        "uniform", "vonmises", "wald", "weibull", "zipf",
    }
)


def check_global_rng(ctx: ModuleContext) -> Iterator[Finding]:
    """REP003: module-level RNG state is shared, unseeded, and order-dependent.

    Simulation code must draw from a :class:`numpy.random.Generator` handed
    down from ``derive_rng(seed, ...)``.  ``random.random()`` /
    ``np.random.normal()`` read hidden global state seeded from the OS, and
    even explicit ``random.seed(n)`` is a process-wide mutation that breaks
    under worker reuse.
    """
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        resolved = ctx.resolve_call(node)
        if resolved is None:
            continue
        hazard: str | None = None
        if resolved.startswith("random.") and resolved.split(".", 1)[1] in _RANDOM_MODULE_FUNCS:
            hazard = f"{resolved}() uses the process-global random state"
        elif (
            resolved.startswith("numpy.random.")
            and resolved.rsplit(".", 1)[1] in _NUMPY_RANDOM_FUNCS
        ):
            hazard = f"{resolved}() uses numpy's legacy global RNG state"
        elif resolved == "numpy.random.default_rng" and not node.args and not node.keywords:
            hazard = "numpy.random.default_rng() without a seed draws OS entropy"
        elif resolved == "random.Random" and not node.args and not node.keywords:
            hazard = "random.Random() without a seed draws OS entropy"
        if hazard is not None:
            yield Finding(
                node,
                f"{hazard}; pass a Generator derived via derive_rng(seed, ...) instead",
            )


# ----------------------------------------------------------------------
# REP004: order-sensitive iteration over sets

_EVENT_SINK_NAMES = frozenset(
    {
        "add_event", "append", "appendleft", "emit", "extend", "publish",
        "push", "push_event", "put", "record", "schedule", "send", "write",
    }
)


def _is_set_expr(ctx: ModuleContext, node: ast.AST, local_sets: set[str]) -> bool:
    """Whether ``node`` syntactically produces a set/frozenset (or is one).

    ``local_sets`` holds plain names inferred as sets plus ``"self.X"``
    entries for set-typed attributes of the enclosing class.
    """
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Name):
        return node.id in local_sets
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return f"self.{node.attr}" in local_sets
    if isinstance(node, ast.Call):
        resolved = ctx.resolve_call(node)
        if resolved in ("set", "frozenset"):
            return True
        # set algebra keeps set-ness: s.union(...), s.intersection(...), ...
        if isinstance(node.func, ast.Attribute) and node.func.attr in (
            "union", "intersection", "difference", "symmetric_difference", "copy"
        ):
            return _is_set_expr(ctx, node.func.value, local_sets)
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        return _is_set_expr(ctx, node.left, local_sets) or _is_set_expr(
            ctx, node.right, local_sets
        )
    return False


def _walk_scope(scope: ast.AST) -> Iterator[ast.AST]:
    """Walk ``scope`` without descending into nested function definitions.

    Each function is analyzed as its own scope with its own local set
    inference; the module scope must not see a function's locals (and vice
    versa), or same-named variables would cross-contaminate.
    """
    stack: list[ast.AST] = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _annotation_is_set(ctx: ModuleContext, annotation: ast.AST) -> bool:
    """Whether a type annotation declares a set (incl. ``set[...] | None``)."""
    if isinstance(annotation, ast.Subscript):
        return _annotation_is_set(ctx, annotation.value)
    if isinstance(annotation, ast.BinOp) and isinstance(annotation.op, ast.BitOr):
        return _annotation_is_set(ctx, annotation.left) or _annotation_is_set(
            ctx, annotation.right
        )
    resolved = ctx.resolve(annotation)
    return resolved in (
        "set", "frozenset", "typing.Set", "typing.FrozenSet", "Set", "FrozenSet",
        "typing.AbstractSet", "AbstractSet",
    )


def _class_set_attributes(ctx: ModuleContext, class_def: ast.ClassDef) -> set[str]:
    """``self.X`` attribute names declared or assigned as sets in a class."""
    attrs: set[str] = set()
    for stmt in class_def.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            if _annotation_is_set(ctx, stmt.annotation):
                attrs.add(f"self.{stmt.target.id}")
    for node in ast.walk(class_def):
        targets: list[ast.expr] = []
        value: ast.expr | None = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign):
            targets, value = [node.target], node.value
        for target in targets:
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                declared = isinstance(node, ast.AnnAssign) and _annotation_is_set(
                    ctx, node.annotation
                )
                if declared or (value is not None and _is_set_expr(ctx, value, attrs)):
                    attrs.add(f"self.{target.attr}")
    return attrs


def _collect_local_sets(ctx: ModuleContext, scope: ast.AST) -> set[str]:
    """Names assigned a set-valued expression anywhere in ``scope``.

    Flow-insensitive on purpose: a name that ever holds a set is treated as
    a set.  Reassigning ``items = sorted(items)`` introduces a new name in
    well-factored code; when it does not, a justified suppression documents
    the reasoning.
    """
    local_sets: set[str] = set()
    if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
        enclosing_class = ctx.enclosing_class(scope)
        if enclosing_class is not None:
            local_sets |= _class_set_attributes(ctx, enclosing_class)
    # Iterate to a fixpoint so chains (`a = set(); b = a | other`) resolve.
    for _ in range(3):
        before = len(local_sets)
        for node in _walk_scope(scope):
            if isinstance(node, ast.Assign):
                if _is_set_expr(ctx, node.value, local_sets):
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            local_sets.add(target.id)
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                if _is_set_expr(ctx, node.value, local_sets) and isinstance(
                    node.target, ast.Name
                ):
                    local_sets.add(node.target.id)
        if len(local_sets) == before:
            break
    return local_sets


def _body_is_order_sensitive(body: list[ast.stmt]) -> str | None:
    """Why a loop body depends on iteration order, or ``None``."""
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.AugAssign):
                return "accumulates with an augmented assignment (float sums reorder)"
            if isinstance(node, (ast.Yield, ast.YieldFrom)):
                return "yields values in iteration order"
            if isinstance(node, ast.Call):
                name = None
                if isinstance(node.func, ast.Attribute):
                    name = node.func.attr
                elif isinstance(node.func, ast.Name):
                    name = node.func.id
                if name in _EVENT_SINK_NAMES:
                    return f"emits into an ordered sink ({name}())"
    return None


def check_set_iteration(ctx: ModuleContext) -> Iterator[Finding]:
    """REP004: set iteration order is PYTHONHASHSEED-dependent.

    The exact ESG bug class: summing floats (or emitting events) while
    iterating a set produces hash-order-dependent results.  Iterate
    ``sorted(the_set)`` — or keep an ordered container — whenever the body
    accumulates or emits.
    """
    scopes: list[ast.AST] = [ctx.tree] + [
        node
        for node in ast.walk(ctx.tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    for scope in scopes:
        local_sets = _collect_local_sets(ctx, scope)
        for node in _walk_scope(scope):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                if not _is_set_expr(ctx, node.iter, local_sets):
                    continue
                reason = _body_is_order_sensitive(node.body)
                if reason is None:
                    continue
                yield Finding(
                    node,
                    f"iteration over a set where the body {reason}: set order "
                    "is PYTHONHASHSEED-dependent; iterate sorted(...) or an "
                    "ordered container",
                )
            elif isinstance(node, ast.Call):
                resolved = ctx.resolve_call(node)
                if resolved in ("sum", "math.fsum") and node.args:
                    arg = node.args[0]
                    arg_is_set = _is_set_expr(ctx, arg, local_sets)
                    if isinstance(arg, (ast.GeneratorExp, ast.ListComp)) and any(
                        _is_set_expr(ctx, gen.iter, local_sets) for gen in arg.generators
                    ):
                        arg_is_set = True
                    if arg_is_set:
                        yield Finding(
                            node,
                            f"{resolved}() over a set: float addition is not "
                            "associative, so the total is "
                            "PYTHONHASHSEED-dependent; sum over sorted(...) "
                            "instead",
                        )
                elif (
                    resolved in ("list", "tuple")
                    and len(node.args) == 1
                    and _is_set_expr(ctx, node.args[0], local_sets)
                ):
                    parent = ctx.parent(node)
                    if (
                        isinstance(parent, ast.Call)
                        and ctx.resolve_call(parent) == "sorted"
                    ):
                        continue  # sorted(list(s)) restores a total order
                    yield Finding(
                        node,
                        f"{resolved}() over a set materializes "
                        "PYTHONHASHSEED-dependent iteration order into an "
                        "ordered container; use sorted(...) instead",
                    )
            elif isinstance(node, (ast.ListComp, ast.DictComp)):
                if not any(
                    _is_set_expr(ctx, gen.iter, local_sets) for gen in node.generators
                ):
                    continue
                parent = ctx.parent(node)
                if isinstance(parent, ast.Call) and ctx.resolve_call(parent) in (
                    # order-free consumers — and sum(), which the Call branch
                    # above already owns (flagging it here would double-report)
                    "sorted", "set", "frozenset", "sum", "min", "max", "len", "any", "all"
                ):
                    continue
                kind = "list" if isinstance(node, ast.ListComp) else "dict"
                yield Finding(
                    node,
                    f"{kind} comprehension over a set materializes "
                    "PYTHONHASHSEED-dependent iteration order into an "
                    "ordered container; iterate sorted(...) instead",
                )


# ----------------------------------------------------------------------
# REP005: mutable defaults

_MUTABLE_FACTORIES = frozenset(
    {
        "list", "dict", "set", "bytearray",
        "collections.defaultdict", "collections.OrderedDict", "collections.Counter",
        "collections.deque", "defaultdict", "OrderedDict", "Counter", "deque",
    }
)
_SPEC_CLASS_SUFFIXES = ("Spec", "Config", "Scenario", "Settings", "Action", "Schedule")


def _is_mutable_literal(ctx: ModuleContext, node: ast.AST) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        resolved = ctx.resolve_call(node)
        return resolved in _MUTABLE_FACTORIES
    return False


def _is_dataclass(ctx: ModuleContext, node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        resolved = ctx.resolve(target)
        if resolved in ("dataclasses.dataclass", "dataclass"):
            return True
    return False


def _is_spec_class(node: ast.ClassDef) -> bool:
    return node.name.endswith(_SPEC_CLASS_SUFFIXES)


def check_mutable_defaults(ctx: ModuleContext) -> Iterator[Finding]:
    """REP005: a mutable default is shared state across calls — and processes.

    Specs and configs are pickled across the engine's process boundary; a
    shared mutable default mutated on one run leaks into every later run in
    the same worker, making results depend on execution order.
    """
    for node in ast.walk(ctx.tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            defaults = list(node.args.defaults) + [
                default for default in node.args.kw_defaults if default is not None
            ]
            for default in defaults:
                if _is_mutable_literal(ctx, default):
                    name = getattr(node, "name", "<lambda>")
                    yield Finding(
                        default,
                        f"mutable default argument in {name}(): the object is "
                        "created once and shared by every call; default to "
                        "None (or field(default_factory=...) in dataclasses)",
                    )
        elif isinstance(node, ast.ClassDef):
            if not (_is_dataclass(ctx, node) or _is_spec_class(node)):
                continue
            for stmt in node.body:
                value: ast.AST | None = None
                if isinstance(stmt, ast.AnnAssign):
                    value = stmt.value
                elif isinstance(stmt, ast.Assign):
                    value = stmt.value
                if value is not None and _is_mutable_literal(ctx, value):
                    yield Finding(
                        value,
                        f"mutable class-level default in {node.name}: shared by "
                        "every instance (and survives pickling inconsistently); "
                        "use field(default_factory=...)",
                    )


# ----------------------------------------------------------------------
# REP006: closures in picklable spec fields

_SPEC_CONSTRUCTORS = frozenset(
    {
        "RunSpec", "Scenario", "ExperimentConfig", "SimulationConfig",
        "ClusterConfig", "MetricsConfig", "ChurnSpec", "ChurnSchedule",
        "ChurnAction", "ClusterTopology", "replace",
    }
)


def _nested_function_names(
    function: ast.FunctionDef | ast.AsyncFunctionDef,
) -> set[str]:
    names: set[str] = set()
    for stmt in function.body:
        for node in ast.walk(stmt):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node is not function:
                names.add(node.name)
    return names


def check_closures_in_specs(ctx: ModuleContext) -> Iterator[Finding]:
    """REP006: lambdas and local closures cannot cross the process boundary.

    ``RunSpec`` / ``Scenario`` objects are pickled to engine workers; a
    lambda or nested function in a field raises ``PicklingError`` only when
    ``n_jobs > 1`` — the worst kind of works-on-my-run bug.  Use a named
    module-level function (or a registered name) instead.
    """
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        resolved = ctx.resolve_call(node)
        if resolved is None:
            continue
        terminal = resolved.rsplit(".", 1)[-1]
        if terminal not in _SPEC_CONSTRUCTORS:
            continue
        enclosing = ctx.enclosing_function(node)
        nested = _nested_function_names(enclosing) if enclosing is not None else set()
        for value, label in [(arg, "positional argument") for arg in node.args] + [
            (kw.value, f"field {kw.arg!r}") for kw in node.keywords if kw.arg
        ]:
            if isinstance(value, ast.Lambda):
                yield Finding(
                    value,
                    f"lambda assigned into {terminal} ({label}): specs cross "
                    "the engine's process boundary and lambdas do not pickle; "
                    "use a module-level function or a registered name",
                )
            elif isinstance(value, ast.Name) and value.id in nested:
                yield Finding(
                    value,
                    f"locally-defined function {value.id!r} assigned into "
                    f"{terminal} ({label}): nested functions do not pickle "
                    "across the engine's process boundary; move it to module "
                    "level",
                )


# ----------------------------------------------------------------------
# REP007: environment reads in the hot path

def check_environ_reads(ctx: ModuleContext) -> Iterator[Finding]:
    """REP007: the environment is per-process ambient state, not part of the spec.

    A simulation that reads ``os.environ`` can differ between the parent
    and spawned workers (or between two hosts in a sharded sweep) while
    producing the same content-addressed cache key — silently poisoning the
    store.  Configuration belongs in the spec; only the CLI / benchmark
    layer may read the environment.
    """
    for node in ast.walk(ctx.tree):
        if isinstance(node, (ast.Attribute, ast.Name)):
            resolved = ctx.resolve(node) or ""
            if resolved != "os.environ" and not resolved.startswith("os.environ."):
                continue
            # Flag each os.environ expression once, at the outermost attribute
            # in the chain (os.environ["X"], os.environ.get(...), `in` tests).
            if isinstance(ctx.parent(node), ast.Attribute):
                continue
            yield Finding(
                node,
                "os.environ read in simulation code: ambient per-process state "
                "bypasses the spec (and the result store's cache key); thread "
                "the value through the config instead",
            )
        elif isinstance(node, ast.Call) and ctx.resolve_call(node) == "os.getenv":
            yield Finding(
                node,
                "os.getenv() read in simulation code: ambient per-process state "
                "bypasses the spec (and the result store's cache key); thread "
                "the value through the config instead",
            )


# ----------------------------------------------------------------------
# REP008: sorting objects without a total order

def _class_defines_order(ctx: ModuleContext, node: ast.ClassDef) -> bool:
    for stmt in node.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)) and stmt.name in (
            "__lt__", "__le__", "__gt__", "__ge__"
        ):
            return True
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        resolved = ctx.resolve(target)
        if resolved in ("functools.total_ordering", "total_ordering"):
            return True
        if resolved in ("dataclasses.dataclass", "dataclass") and isinstance(
            decorator, ast.Call
        ):
            for kw in decorator.keywords:
                if kw.arg == "order" and isinstance(kw.value, ast.Constant):
                    return bool(kw.value.value)
    return False


def _unordered_classes(ctx: ModuleContext) -> set[str]:
    return {
        node.name
        for node in ast.walk(ctx.tree)
        if isinstance(node, ast.ClassDef) and not _class_defines_order(ctx, node)
    }


def _element_class(ctx: ModuleContext, node: ast.AST) -> str | None:
    """Class name constructed by every element of a list display/comprehension."""
    def ctor(expr: ast.AST) -> str | None:
        if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name):
            return expr.func.id
        return None

    if isinstance(node, ast.List) and node.elts:
        names = {ctor(elt) for elt in node.elts}
        return names.pop() if len(names) == 1 else None
    if isinstance(node, (ast.ListComp, ast.GeneratorExp)):
        return ctor(node.elt)
    return None


def check_unkeyed_sorts(ctx: ModuleContext) -> Iterator[Finding]:
    """REP008: sorting relies on ``__lt__``; without one, Python raises — or
    worse, an inherited partial order ties inconsistently.

    Only flags sorts whose elements are provably instances of a class
    defined in the same module that lacks ``__lt__`` / ``order=True`` /
    ``total_ordering``.  Deterministic tie-breaking needs an explicit
    ``key=`` with a total order.
    """
    unordered = _unordered_classes(ctx)
    if not unordered:
        return

    # name -> class constructed into it via a list display/comprehension
    inferred: dict[str, str] = {}
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name):
                element = _element_class(ctx, node.value)
                if element is not None:
                    inferred[target.id] = element

    def sorted_target_class(expr: ast.AST) -> str | None:
        element = _element_class(ctx, expr)
        if element is None and isinstance(expr, ast.Name):
            element = inferred.get(expr.id)
        return element if element in unordered else None

    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        has_key = any(kw.arg == "key" for kw in node.keywords)
        if has_key:
            continue
        element: str | None = None
        if ctx.resolve_call(node) == "sorted" and node.args:
            element = sorted_target_class(node.args[0])
        elif (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "sort"
            and not node.args
        ):
            element = sorted_target_class(node.func.value)
        if element is not None:
            yield Finding(
                node,
                f"sort over {element} instances without key=: {element} defines "
                "no total order (__lt__ / dataclass(order=True)), so this "
                "either raises or tie-breaks unstably; pass an explicit "
                "key= with a total order",
            )


# ----------------------------------------------------------------------
# the catalog

RULES: tuple[Rule, ...] = (
    Rule(
        code="REP001",
        name="wall-clock",
        summary="wall-clock reads (time.time/perf_counter/datetime.now) in simulation code",
        check=check_wall_clock,
        layered=True,
    ),
    Rule(
        code="REP002",
        name="hash-id-key",
        summary="builtin hash()/id() flowing into keys, seeds or sort keys",
        check=check_hash_id_in_keys,
    ),
    Rule(
        code="REP003",
        name="global-rng",
        summary="unseeded/global RNG (random.*, np.random.* module functions)",
        check=check_global_rng,
        layered=True,
    ),
    Rule(
        code="REP004",
        name="set-iteration",
        summary="order-sensitive iteration (accumulation/event emission) over sets",
        check=check_set_iteration,
    ),
    Rule(
        code="REP005",
        name="mutable-default",
        summary="mutable default arguments and mutable spec/config class defaults",
        check=check_mutable_defaults,
    ),
    Rule(
        code="REP006",
        name="closure-in-spec",
        summary="lambdas/local closures in picklable spec fields",
        check=check_closures_in_specs,
    ),
    Rule(
        code="REP007",
        name="environ-read",
        summary="os.environ/os.getenv reads in simulation code",
        check=check_environ_reads,
        layered=True,
    ),
    Rule(
        code="REP008",
        name="unkeyed-sort",
        summary="sorting objects lacking a total order without an explicit key=",
        check=check_unkeyed_sorts,
    ),
)


def rule_codes() -> tuple[str, ...]:
    """The registered rule codes, in catalog order."""
    return tuple(rule.code for rule in RULES)
