"""The RB001–RB004 and RB007–RB010 per-file rule classes.

Every rule subclasses :class:`Rule` and implements :meth:`Rule.check`,
receiving the parsed module and a :class:`RuleContext` describing where
the file sits in the tree.  Rules report :class:`Violation` records;
suppression and aggregation live in :mod:`repro.analysis.engine`, and
the project-wide passes (RB006 import layering, stale-suppression
RB000 accounting) live in :mod:`repro.analysis.graph` and the engine
respectively.

The rules are deliberately heuristic: they resolve names textually
(``np.random.seed`` is matched as an attribute chain, not through type
inference), which is exactly the right trade-off for a repo-specific
linter — false positives are silenced with ``# repro: noqa RBxxx`` at
the offending line, and the suppression itself is then visible in
review.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterator, Sequence

__all__ = [
    "DETERMINISTIC_PACKAGES",
    "LAYERS",
    "RB001GlobalNondeterminism",
    "RB002SeedPlumbing",
    "RB003Uint8Overflow",
    "RB004TelemetryHygiene",
    "RB007ResourceLifecycle",
    "RB008CliExitContract",
    "RB009PoolBoundary",
    "RB010SchemaVersionHygiene",
    "RULES",
    "Rule",
    "RuleContext",
    "SEED_SEQUENCE_ALLOWLIST",
    "UNUSED_SUPPRESSION_RULE_ID",
    "Violation",
]

#: Findings for ``repro: noqa`` suppression comments that no longer
#: suppress anything are reported under this pseudo-rule id (the engine
#: emits them after every other rule — per-file and project — has run).
UNUSED_SUPPRESSION_RULE_ID = "RB000"

#: The import-layer DAG that RB006 checks, lowest layer first.  Packages
#: on one row may import each other; higher rows may eagerly import
#: lower rows, never the reverse — upward references must be lazy
#: (function-scoped or TYPE_CHECKING) imports.  ``telemetry`` and
#: ``faults`` sit at the bottom because they are substrates the whole
#: pipeline instruments into and draws seeds from (everything imports
#: them; they eagerly import nothing).  ``cli`` is the user-facing
#: shell: the ``repro`` facade, ``cli.py`` and ``__main__.py``.
LAYERS: tuple[tuple[str, ...], ...] = (
    ("coding", "imaging", "faults", "telemetry"),
    ("core", "io"),
    ("channel",),
    ("link",),
    ("serve",),
    ("baselines", "bench"),
    ("analysis", "cli"),
)

#: Packages whose code must be deterministic by construction (RB001).
DETERMINISTIC_PACKAGES = frozenset({"core", "channel", "coding", "faults", "link"})

#: The only places allowed to construct ``np.random.SeedSequence``
#: directly: ``(path suffix, enclosing function name)`` pairs.  Keeping
#: this list at exactly one entry is itself a contract — new seed
#: derivation sites must route through the existing helper.
SEED_SEQUENCE_ALLOWLIST: frozenset[tuple[str, str]] = frozenset(
    {("faults/plan.py", "derive_seed")}
)

#: Legacy module-level RNG functions on ``np.random`` (global hidden
#: state, unseedable per call site).
_LEGACY_NP_RANDOM = frozenset(
    {
        "seed",
        "rand",
        "randn",
        "randint",
        "random",
        "random_sample",
        "random_integers",
        "ranf",
        "sample",
        "bytes",
        "uniform",
        "normal",
        "standard_normal",
        "choice",
        "shuffle",
        "permutation",
        "get_state",
        "set_state",
        "RandomState",
    }
)

#: Wall-clock reads, as dotted-name suffixes rooted at a module alias.
_WALL_CLOCK = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.localtime",
        "time.ctime",
        "datetime.now",
        "datetime.utcnow",
        "datetime.today",
        "date.today",
    }
)

#: Monotonic-clock reads.  Under telemetry/ these are legitimate only in
#: the span recorder itself (``telemetry/trace.py``); everywhere else —
#: the report, the Chrome-trace exporter, the percentile aggregator, the
#: budget gate and the campaign tail — durations must come from
#: *recorded* span data, never from a fresh clock read, or exported
#: artifacts stop being pure functions of their inputs.
_MONOTONIC_CLOCK = frozenset(
    {
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
    }
)

#: The one telemetry module allowed to read the monotonic clock.
_SPAN_RECORDER = "trace.py"


@dataclass(frozen=True)
class Violation:
    """One finding: a rule id plus where and why."""

    rule: str
    message: str
    path: str
    line: int
    col: int

    def as_dict(self) -> dict[str, object]:
        return {
            "rule": self.rule,
            "message": self.message,
            "path": self.path,
            "line": self.line,
            "col": self.col,
        }


@dataclass(frozen=True)
class RuleContext:
    """Where the linted module sits in the tree.

    *relpath* is the path as given to the engine (used in reports);
    *package* is the first ``repro`` subpackage on that path (``core``,
    ``telemetry``, ...) or ``""`` when the file sits outside any known
    subpackage.  *in_repro* is True when the path passes through a
    ``repro`` directory at all — repo-contract rules (RB008/RB010) are
    scoped to it so a run over ``tests/`` does not flag fixtures that
    deliberately construct malformed artifacts.
    """

    relpath: str
    package: str
    in_repro: bool = True

    @classmethod
    def for_path(cls, relpath: str) -> "RuleContext":
        parts = relpath.replace("\\", "/").split("/")
        return cls(
            relpath=relpath,
            package=_package_of(relpath),
            in_repro="repro" in parts[:-1],
        )


_KNOWN_PACKAGES = frozenset(name for row in LAYERS for name in row) - {"cli"}


def _package_of(relpath: str) -> str:
    parts = relpath.replace("\\", "/").split("/")
    if "repro" in parts:
        parts = parts[parts.index("repro") + 1 :]
    for part in parts[:-1]:
        if part in _KNOWN_PACKAGES:
            return part
    return ""


def dotted_name(node: ast.AST) -> str:
    """``np.random.default_rng`` for the matching Attribute chain, else ``""``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def _iter_calls(tree: ast.AST) -> Iterator[ast.Call]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            yield node


class Rule:
    """Base class: one rule id, one :meth:`check` pass over a module."""

    id = "RB000"
    title = ""

    def check(self, tree: ast.Module, ctx: RuleContext) -> list[Violation]:
        raise NotImplementedError

    def violation(self, ctx: RuleContext, node: ast.AST, message: str) -> Violation:
        return Violation(
            rule=self.id,
            message=message,
            path=ctx.relpath,
            line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", 0),
        )


def _enclosing_functions(tree: ast.Module) -> dict[int, str]:
    """Map every node id to the name of its innermost enclosing function."""
    owner: dict[int, str] = {}

    def visit(node: ast.AST, current: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            current = node.name
        owner[id(node)] = current
        for child in ast.iter_child_nodes(node):
            visit(child, current)

    visit(tree, "")
    return owner


class RB001GlobalNondeterminism(Rule):
    """No global RNG, wall clock, or raw SeedSequence in deterministic packages."""

    id = "RB001"
    title = "global nondeterminism in a deterministic package"

    def check(self, tree: ast.Module, ctx: RuleContext) -> list[Violation]:
        if ctx.package not in DETERMINISTIC_PACKAGES:
            return []
        out: list[Violation] = []
        owner = _enclosing_functions(tree)

        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random":
                        out.append(
                            self.violation(
                                ctx,
                                node,
                                "stdlib `random` imported; inject an "
                                "np.random.Generator instead",
                            )
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.module == "random" and node.level == 0:
                    out.append(
                        self.violation(
                            ctx,
                            node,
                            "stdlib `random` imported; inject an "
                            "np.random.Generator instead",
                        )
                    )

        for call in _iter_calls(tree):
            name = dotted_name(call.func)
            if not name:
                continue
            root = name.split(".")[0]
            if root == "random":
                out.append(
                    self.violation(
                        ctx,
                        call,
                        f"`{name}()` uses the stdlib global RNG; inject an "
                        "np.random.Generator instead",
                    )
                )
            elif name.startswith(("np.random.", "numpy.random.")):
                leaf = name.rsplit(".", 1)[1]
                if leaf in _LEGACY_NP_RANDOM:
                    out.append(
                        self.violation(
                            ctx,
                            call,
                            f"`{name}()` is module-level global RNG; inject an "
                            "np.random.Generator instead",
                        )
                    )
                elif leaf == "SeedSequence" and not self._allowlisted(ctx, owner, call):
                    out.append(
                        self.violation(
                            ctx,
                            call,
                            "raw SeedSequence construction; derive seeds through "
                            "repro.faults.plan.derive_seed",
                        )
                    )
            elif any(name == w or name.endswith("." + w) for w in _WALL_CLOCK):
                out.append(
                    self.violation(
                        ctx,
                        call,
                        f"`{name}()` reads the wall clock inside a deterministic "
                        "package",
                    )
                )
        return out

    @staticmethod
    def _allowlisted(ctx: RuleContext, owner: dict[int, str], call: ast.Call) -> bool:
        relpath = ctx.relpath.replace("\\", "/")
        function = owner.get(id(call), "")
        return any(
            relpath.endswith(suffix) and function == name
            for suffix, name in SEED_SEQUENCE_ALLOWLIST
        )


class RB002SeedPlumbing(Rule):
    """Functions accepting rng/seed must not call argless default_rng()."""

    id = "RB002"
    title = "seed parameter discarded by default_rng()"

    _SEED_PARAMS = frozenset({"rng", "seed"})

    def check(self, tree: ast.Module, ctx: RuleContext) -> list[Violation]:
        out: list[Violation] = []
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            params = {
                a.arg
                for a in (
                    node.args.posonlyargs + node.args.args + node.args.kwonlyargs
                )
            }
            if not (params & self._SEED_PARAMS):
                continue
            for call in _iter_calls(node):
                name = dotted_name(call.func)
                if (
                    name.endswith("default_rng")
                    and not call.args
                    and not call.keywords
                ):
                    out.append(
                        self.violation(
                            ctx,
                            call,
                            f"`{node.name}()` accepts "
                            f"{'/'.join(sorted(params & self._SEED_PARAMS))} but "
                            "calls default_rng() with no argument, discarding the "
                            "caller's determinism",
                        )
                    )
        return out


#: Calls that produce uint8 arrays when given ``dtype=np.uint8``.
_UINT8_DTYPES = frozenset({"np.uint8", "numpy.uint8", "uint8"})


def _is_uint8_dtype(node: ast.AST) -> bool:
    if isinstance(node, ast.Constant):
        return node.value == "uint8"
    return dotted_name(node) in _UINT8_DTYPES


def _is_uint8_source(node: ast.AST) -> bool:
    """Does *node* evaluate to a uint8 array, as far as the AST shows?"""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Attribute) and func.attr == "astype":
        return (bool(node.args) and _is_uint8_dtype(node.args[0])) or any(
            k.arg == "dtype" and _is_uint8_dtype(k.value) for k in node.keywords
        )
    if dotted_name(func).endswith("to_uint8"):
        return True
    return any(k.arg == "dtype" and _is_uint8_dtype(k.value) for k in node.keywords)


class RB003Uint8Overflow(Rule):
    """+/-/* on arrays read from uint8 sources without a widening cast.

    Function-scoped taint tracking: a name assigned from a uint8-dtyped
    expression (``x = img.astype(np.uint8)``, ``x = np.zeros(...,
    dtype=np.uint8)``, ``x = to_uint8(img)``) is tainted until
    reassigned from something else.  Arithmetic whose operand is a
    tainted name — or a uint8 source expression directly — wraps
    silently at 255 and is flagged; cast first (``x.astype(np.int32)``)
    or suppress with ``# repro: noqa RB003`` where wraparound is
    intended.
    """

    id = "RB003"
    title = "uint8 overflow hazard"

    _OPS = (ast.Add, ast.Sub, ast.Mult)

    def check(self, tree: ast.Module, ctx: RuleContext) -> list[Violation]:
        out: list[Violation] = []
        self._check_scope(tree, ctx, out)
        return out

    def _check_scope(
        self, scope: ast.AST, ctx: RuleContext, out: list[Violation]
    ) -> None:
        tainted: set[str] = set()
        body = scope.body if hasattr(scope, "body") else []
        for stmt in body:
            self._visit_stmt(stmt, ctx, tainted, out)

    def _visit_stmt(
        self,
        stmt: ast.stmt,
        ctx: RuleContext,
        tainted: set[str],
        out: list[Violation],
    ) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            # Fresh taint scope per function/class body.
            self._check_scope(stmt, ctx, out)
            return

        # Flag arithmetic in the expressions this statement owns directly
        # (nested statements are visited on their own below, so each
        # expression is scanned exactly once).
        for node in self._own_expr_nodes(stmt):
            if isinstance(node, ast.BinOp) and isinstance(node.op, self._OPS):
                for side in (node.left, node.right):
                    if self._is_tainted(side, tainted):
                        out.append(self._flag(ctx, node, side))
                        break
        if isinstance(stmt, ast.AugAssign) and isinstance(stmt.op, self._OPS):
            for side in (stmt.target, stmt.value):
                if self._is_tainted(side, tainted):
                    out.append(self._flag(ctx, stmt, side))
                    break

        if isinstance(stmt, ast.Assign):
            is_src = _is_uint8_source(stmt.value) or (
                isinstance(stmt.value, ast.Name) and stmt.value.id in tainted
            )
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    (tainted.add if is_src else tainted.discard)(target.id)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            if isinstance(stmt.target, ast.Name):
                if _is_uint8_source(stmt.value):
                    tainted.add(stmt.target.id)
                else:
                    tainted.discard(stmt.target.id)

        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.stmt):
                self._visit_stmt(child, ctx, tainted, out)
            elif isinstance(child, ast.ExceptHandler):
                for grandchild in child.body:
                    self._visit_stmt(grandchild, ctx, tainted, out)

    @staticmethod
    def _own_expr_nodes(stmt: ast.stmt) -> Iterator[ast.AST]:
        """Expression nodes belonging to *stmt* itself, stopping at nested stmts."""
        stack = [
            child
            for child in ast.iter_child_nodes(stmt)
            if not isinstance(child, (ast.stmt, ast.ExceptHandler))
        ]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(
                child
                for child in ast.iter_child_nodes(node)
                if not isinstance(child, (ast.stmt, ast.ExceptHandler))
            )

    @staticmethod
    def _is_tainted(node: ast.AST, tainted: set[str]) -> bool:
        if isinstance(node, ast.Name):
            return node.id in tainted
        return _is_uint8_source(node)

    def _flag(self, ctx: RuleContext, node: ast.AST, operand: ast.AST) -> Violation:
        label = (
            operand.id
            if isinstance(operand, ast.Name)
            else ast.unparse(operand)  # pragma: no cover - source expr operand
        )
        return self.violation(
            ctx,
            node,
            f"arithmetic on uint8 array `{label}` wraps at 255; cast with "
            ".astype(...) first (or `# repro: noqa RB003` if wraparound is "
            "intended)",
        )


class RB004TelemetryHygiene(Rule):
    """Spans only via `with`; no wall clock under telemetry/."""

    id = "RB004"
    title = "telemetry hygiene"

    def check(self, tree: ast.Module, ctx: RuleContext) -> list[Violation]:
        out: list[Violation] = []
        allowed: set[int] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.With):
                for item in node.items:
                    allowed.add(id(item.context_expr))
            elif isinstance(node, ast.Return) and node.value is not None:
                # A wrapper that *returns* the context manager verbatim
                # keeps the with-contract at its call sites.
                allowed.add(id(node.value))

        for call in _iter_calls(tree):
            func = call.func
            is_span = (isinstance(func, ast.Attribute) and func.attr == "span") or (
                isinstance(func, ast.Name) and func.id == "span"
            )
            if is_span and id(call) not in allowed:
                out.append(
                    self.violation(
                        ctx,
                        call,
                        "span() must be used as a context manager "
                        "(`with ...span(name):`) or returned verbatim by a "
                        "forwarding wrapper",
                    )
                )

        if ctx.package == "telemetry":
            basename = ctx.relpath.replace("\\", "/").rsplit("/", 1)[-1]
            is_span_recorder = basename == _SPAN_RECORDER
            for call in _iter_calls(tree):
                name = dotted_name(call.func)
                if not name:
                    continue
                if any(name == w or name.endswith("." + w) for w in _WALL_CLOCK):
                    out.append(
                        self.violation(
                            ctx,
                            call,
                            f"`{name}()` reads the wall clock under telemetry/; "
                            "use perf_counter offsets so merges stay "
                            "deterministic",
                        )
                    )
                elif not is_span_recorder and any(
                    name == w or name.endswith("." + w) for w in _MONOTONIC_CLOCK
                ):
                    out.append(
                        self.violation(
                            ctx,
                            call,
                            f"`{name}()` reads a clock under telemetry/ outside "
                            "the span recorder; exporters/aggregators must "
                            "derive timings from recorded spans only",
                        )
                    )
        return out


#: Dotted-name suffixes whose call acquires an OS-backed resource that
#: must be released on every path (RB007).
_ACQUIRE_SUFFIXES = (
    "SharedMemory",
    "NamedTemporaryFile",
    "TemporaryFile",
    "TemporaryDirectory",
)

#: Method names that count as releasing an acquired resource.
_RELEASE_METHODS = frozenset({"close", "unlink", "cleanup", "terminate", "release"})


def _is_acquisition(call: ast.Call) -> bool:
    name = dotted_name(call.func)
    if name == "open" or name.endswith(".open"):
        # Path.open / io.open / builtins.open all hand back a file
        # object the caller owns.
        return name in ("open", "io.open") or name.endswith("Path.open")
    return any(name == s or name.endswith("." + s) for s in _ACQUIRE_SUFFIXES)


class RB007ResourceLifecycle(Rule):
    """SharedMemory/open/NamedTemporaryFile must be released on all paths.

    Grounded in :mod:`repro.serve.shm`: a leaked ``SharedMemory``
    segment outlives the process and pollutes ``/dev/shm`` for every
    later run.  An acquisition is clean when its result is

    * used as a context manager (``with open(...) as f``),
    * released under ``try/finally`` (``finally: f.close()``),
    * returned/yielded to the caller (ownership transfer),
    * stored on an object or into a container (a manager owns it), or
    * passed directly to another call (a helper adopts it).

    A plain local binding whose only release is an unguarded
    ``.close()`` — or no release at all — leaks the resource on any
    exception between acquire and close, and is flagged.
    """

    id = "RB007"
    title = "resource acquired without guaranteed release"

    def check(self, tree: ast.Module, ctx: RuleContext) -> list[Violation]:
        out: list[Violation] = []
        for scope in self._scopes(tree):
            self._check_scope(scope, ctx, out)
        return out

    @staticmethod
    def _scopes(tree: ast.Module) -> Iterator[ast.AST]:
        yield tree
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield node

    def _check_scope(self, scope: ast.AST, ctx: RuleContext, out: list[Violation]) -> None:
        # Nodes belonging to nested function scopes are analysed there.
        nested: set[int] = set()
        for node in ast.walk(scope):
            if node is scope:
                continue
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for sub in ast.walk(node):
                    if sub is not node:
                        nested.add(id(sub))

        transferred = self._transferred_expressions(scope, nested)
        released = self._released_names(scope, nested)

        for node in ast.walk(scope):
            if id(node) in nested or not isinstance(node, ast.Call):
                continue
            if not _is_acquisition(node):
                continue
            if id(node) in transferred:
                continue
            bound = self._binding_name(scope, nested, node)
            if bound is not None and bound in released:
                continue
            label = dotted_name(node.func) or "resource"
            out.append(
                self.violation(
                    ctx,
                    node,
                    f"`{label}(...)` acquires a resource with no guaranteed "
                    "release; use `with`, release it in `finally`, or hand "
                    "ownership to a caller/manager",
                )
            )

    @staticmethod
    def _transferred_expressions(scope: ast.AST, nested: set[int]) -> set[int]:
        """ids of expressions whose resource ownership moves elsewhere."""
        moved: set[int] = set()
        for node in ast.walk(scope):
            if id(node) in nested:
                continue
            if isinstance(node, ast.With):
                for item in node.items:
                    moved.add(id(item.context_expr))
            elif isinstance(node, ast.Return) and node.value is not None:
                moved.add(id(node.value))
            elif isinstance(node, (ast.Yield, ast.YieldFrom)) and node.value is not None:
                moved.add(id(node.value))
            elif isinstance(node, ast.Call):
                for arg in list(node.args) + [k.value for k in node.keywords]:
                    if isinstance(arg, ast.Call):
                        moved.add(id(arg))
            elif isinstance(node, ast.Assign):
                # `self.shm = SharedMemory(...)` / `cache[k] = open(...)`:
                # the object/container now owns the handle.
                if any(
                    isinstance(t, (ast.Attribute, ast.Subscript)) for t in node.targets
                ):
                    moved.add(id(node.value))
        return moved

    @staticmethod
    def _binding_name(
        scope: ast.AST, nested: set[int], call: ast.Call
    ) -> "str | None":
        for node in ast.walk(scope):
            if id(node) in nested or not isinstance(node, ast.Assign):
                continue
            if node.value is call and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name):
                    return target.id
        return None

    @classmethod
    def _released_names(cls, scope: ast.AST, nested: set[int]) -> set[str]:
        """Names that are provably released or handed off in *scope*."""
        released: set[str] = set()
        for node in ast.walk(scope):
            if id(node) in nested:
                continue
            if isinstance(node, ast.Try):
                for stmt in node.finalbody:
                    released |= cls._release_targets(stmt)
            elif isinstance(node, ast.With):
                for item in node.items:
                    if isinstance(item.context_expr, ast.Name):
                        released.add(item.context_expr.id)
                    elif isinstance(item.context_expr, ast.Call):
                        # contextlib.closing(f) / ExitStack patterns.
                        for arg in item.context_expr.args:
                            if isinstance(arg, ast.Name):
                                released.add(arg.id)
            elif isinstance(node, (ast.Return, ast.Yield, ast.YieldFrom)):
                if isinstance(getattr(node, "value", None), ast.Name):
                    released.add(node.value.id)  # type: ignore[union-attr]
            elif isinstance(node, ast.Call):
                for arg in list(node.args) + [k.value for k in node.keywords]:
                    if isinstance(arg, ast.Name):
                        released.add(arg.id)
            elif isinstance(node, ast.Assign):
                if any(
                    isinstance(t, (ast.Attribute, ast.Subscript)) for t in node.targets
                ) and isinstance(node.value, ast.Name):
                    released.add(node.value.id)
        return released

    @staticmethod
    def _release_targets(stmt: ast.stmt) -> set[str]:
        """Names released by ``finally`` statements like ``f.close()``."""
        out: set[str] = set()
        for node in ast.walk(stmt):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _RELEASE_METHODS
                and isinstance(node.func.value, ast.Name)
            ):
                out.add(node.func.value.id)
        return out


class RB008CliExitContract(Rule):
    """CLI handlers return ints through the 0/1/2 contract; no raw sys.exit.

    Applies to ``cli.py`` and ``__main__.py`` modules inside the repro
    tree.  ``sys.exit(main())`` under the import guard is the single
    sanctioned process-exit site; everything else returns its code so
    the dispatcher (and the tests) see one funnel.  Handler functions
    (``_cmd_*`` / ``main``) must return a value on every path, and a
    literal return code must be 0, 1 or 2.
    """

    id = "RB008"
    title = "CLI exit-code contract"

    _HANDLER_PREFIX = "_cmd_"

    def check(self, tree: ast.Module, ctx: RuleContext) -> list[Violation]:
        basename = ctx.relpath.replace("\\", "/").rsplit("/", 1)[-1]
        if not ctx.in_repro or basename not in ("cli.py", "__main__.py"):
            return []
        out: list[Violation] = []

        for call in _iter_calls(tree):
            name = dotted_name(call.func)
            if name != "sys.exit":
                continue
            if self._is_main_funnel(call):
                continue
            out.append(
                self.violation(
                    ctx,
                    call,
                    "raw `sys.exit(...)` bypasses the 0/1/2 exit contract; "
                    "return the code from the handler and let "
                    "`sys.exit(main())` be the only exit site",
                )
            )

        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not (node.name.startswith(self._HANDLER_PREFIX) or node.name == "main"):
                continue
            self._check_handler(node, ctx, out)
        return out

    @staticmethod
    def _is_main_funnel(call: ast.Call) -> bool:
        if len(call.args) != 1 or call.keywords:
            return False
        arg = call.args[0]
        return isinstance(arg, ast.Call) and dotted_name(arg.func).endswith("main")

    def _check_handler(
        self,
        node: "ast.FunctionDef | ast.AsyncFunctionDef",
        ctx: RuleContext,
        out: list[Violation],
    ) -> None:
        returns = [
            n
            for n in ast.walk(node)
            if isinstance(n, ast.Return) and self._owner_function(node, n) is node
        ]
        for ret in returns:
            if ret.value is None or (
                isinstance(ret.value, ast.Constant) and ret.value.value is None
            ):
                out.append(
                    self.violation(
                        ctx,
                        ret,
                        f"`{node.name}()` returns without an exit code; every "
                        "path must yield an int for the 0/1/2 contract",
                    )
                )
            elif isinstance(ret.value, ast.Constant) and isinstance(
                ret.value.value, int
            ):
                if ret.value.value not in (0, 1, 2):
                    out.append(
                        self.violation(
                            ctx,
                            ret,
                            f"`{node.name}()` returns literal "
                            f"{ret.value.value}; exit codes are 0 (ok), "
                            "1 (finding/regression) or 2 (usage error)",
                        )
                    )
        if not self._terminates(node.body):
            out.append(
                self.violation(
                    ctx,
                    node,
                    f"`{node.name}()` can fall off the end without returning "
                    "an exit code; end every path in `return <code>` or "
                    "`raise`",
                )
            )

    @staticmethod
    def _owner_function(
        root: "ast.FunctionDef | ast.AsyncFunctionDef", target: ast.AST
    ) -> ast.AST:
        """Innermost function owning *target* (to skip nested defs)."""
        owner: ast.AST = root

        def visit(node: ast.AST, current: ast.AST) -> "ast.AST | None":
            if node is target:
                return current
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node is not root:
                current = node
            for child in ast.iter_child_nodes(node):
                found = visit(child, current)
                if found is not None:
                    return found
            return None

        found = visit(root, root)
        return found if found is not None else owner

    @classmethod
    def _terminates(cls, body: Sequence[ast.stmt]) -> bool:
        """Does *body* provably end in return/raise on every path?"""
        if not body:
            return False
        last = body[-1]
        if isinstance(last, ast.Return):
            return last.value is not None
        if isinstance(last, ast.Raise):
            return True
        if isinstance(last, ast.If):
            return bool(last.orelse) and cls._terminates(last.body) and cls._terminates(
                last.orelse
            )
        if isinstance(last, ast.With):
            return cls._terminates(last.body)
        if isinstance(last, ast.Try):
            if last.finalbody and cls._terminates(last.finalbody):
                return True
            tail_ok = cls._terminates(last.orelse) if last.orelse else cls._terminates(
                last.body
            )
            return tail_ok and all(cls._terminates(h.body) for h in last.handlers)
        return False


class RB009PoolBoundary(Rule):
    """Callables crossing the worker-pool boundary must be module-level.

    ``WorkerPool.submit``/``map_ordered`` pickle the callable into the
    worker process; under the spawn start method a lambda or closure
    fails at submit time on some platforms and silently works on
    others (fork).  Only provable violations are flagged: a lambda
    literal, a name bound to a lambda, or a function defined inside an
    enclosing function.  Names the rule cannot resolve (parameters,
    imports, attributes) pass — spawn-safety for those is the call
    site's reviewable claim.
    """

    id = "RB009"
    title = "non-picklable callable submitted to the pool"

    _SUBMIT_METHODS = frozenset({"submit", "map_ordered"})

    def check(self, tree: ast.Module, ctx: RuleContext) -> list[Violation]:
        out: list[Violation] = []
        module_names = self._module_level_names(tree)
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            local = self._local_callables(node)
            for call in _iter_calls(node):
                self._check_call(call, ctx, module_names, local, out)
        # Module-level submit calls (rare, e.g. scripts) get the same
        # lambda check with no locals in scope.
        for call in self._top_level_calls(tree):
            self._check_call(call, ctx, module_names, {}, out)
        return out

    def _check_call(
        self,
        call: ast.Call,
        ctx: RuleContext,
        module_names: set[str],
        local: dict[str, str],
        out: list[Violation],
    ) -> None:
        if not (
            isinstance(call.func, ast.Attribute)
            and call.func.attr in self._SUBMIT_METHODS
            and call.args
        ):
            return
        candidate = call.args[0]
        if isinstance(candidate, ast.Lambda):
            out.append(
                self.violation(
                    ctx,
                    candidate,
                    "lambda submitted across the pool boundary cannot be "
                    "pickled under spawn; use a module-level function",
                )
            )
        elif isinstance(candidate, ast.Name) and candidate.id not in module_names:
            kind = local.get(candidate.id)
            if kind is not None:
                out.append(
                    self.violation(
                        ctx,
                        candidate,
                        f"`{candidate.id}` is a {kind} submitted across the "
                        "pool boundary; only module-level callables survive "
                        "pickling under spawn",
                    )
                )

    @staticmethod
    def _module_level_names(tree: ast.Module) -> set[str]:
        names: set[str] = set()
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.add(stmt.name)
            elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
                for alias in stmt.names:
                    names.add((alias.asname or alias.name).split(".")[0])
            elif isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
        return names

    @staticmethod
    def _local_callables(
        func: "ast.FunctionDef | ast.AsyncFunctionDef",
    ) -> dict[str, str]:
        """Names that are nested functions or lambda bindings in *func*."""
        local: dict[str, str] = {}
        for node in ast.walk(func):
            if node is func:
                continue
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                local[node.name] = "nested function (closure)"
            elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Lambda):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        local[target.id] = "lambda binding"
        return local

    @staticmethod
    def _top_level_calls(tree: ast.Module) -> Iterator[ast.Call]:
        skip: set[int] = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for sub in ast.walk(node):
                    skip.add(id(sub))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and id(node) not in skip:
                yield node


#: Dict keys whose value names a wire-format schema version (RB010).
_SCHEMA_KEYS = frozenset({"version", "schema_version"})


class RB010SchemaVersionHygiene(Rule):
    """Versioned-artifact writers must reference a SCHEMA_VERSION constant.

    The trace header and analysis report each stamp their documents
    from a single module-level ``*SCHEMA_VERSION`` constant;
    a hand-rolled ``{"version": 1}`` literal forks the schema silently
    — the writer and the version-compatibility check drift apart on
    the next bump.  Flags inline int/str constants under a ``version``
    / ``schema_version`` key in dict displays and subscript stores,
    inside the repro tree only (test fixtures deliberately build
    malformed headers).
    """

    id = "RB010"
    title = "inline schema-version literal"

    def check(self, tree: ast.Module, ctx: RuleContext) -> list[Violation]:
        if not ctx.in_repro:
            return []
        out: list[Violation] = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Dict):
                for key, value in zip(node.keys, node.values):
                    if (
                        isinstance(key, ast.Constant)
                        and key.value in _SCHEMA_KEYS
                        and isinstance(value, ast.Constant)
                        and isinstance(value.value, (int, str))
                    ):
                        out.append(self._flag(ctx, value, str(key.value)))
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if (
                        isinstance(target, ast.Subscript)
                        and isinstance(target.slice, ast.Constant)
                        and target.slice.value in _SCHEMA_KEYS
                        and isinstance(node.value, ast.Constant)
                        and isinstance(node.value.value, (int, str))
                    ):
                        out.append(self._flag(ctx, node, str(target.slice.value)))
        return out

    def _flag(self, ctx: RuleContext, node: ast.AST, key: str) -> Violation:
        return self.violation(
            ctx,
            node,
            f'inline literal under "{key}"; stamp versioned artifacts from '
            "the module's *_SCHEMA_VERSION constant so writer and "
            "compatibility check cannot drift",
        )


#: Registry of per-file rules, in id order; the engine runs them all
#: unless ``--select``ed.  RB006 (import layering) is a project pass —
#: see :data:`repro.analysis.graph.PROJECT_RULES` — and RB000 (stale
#: suppressions) is emitted by the engine itself.
RULES: Sequence[Rule] = (
    RB001GlobalNondeterminism(),
    RB002SeedPlumbing(),
    RB003Uint8Overflow(),
    RB004TelemetryHygiene(),
    RB007ResourceLifecycle(),
    RB008CliExitContract(),
    RB009PoolBoundary(),
    RB010SchemaVersionHygiene(),
)
