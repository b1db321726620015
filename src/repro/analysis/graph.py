"""Project-wide import graph: the layer DAG and RB006.

The per-file rules see one module at a time; this pass sees them all.
It resolves every ``import`` in the indexed tree to the target module,
keeps the **eager** edges (executed at import time) and drops the
**lazy** ones (function-scoped or under ``if TYPE_CHECKING:``), then
checks the eager graph against the declared layer DAG:

* an eager import may only point at the **same or a lower** layer —
  an upward import is a layering inversion (RB006);
* the eager module graph must be **acyclic** — any strongly-connected
  component is reported as a cycle (RB006), because such modules only
  import by luck of execution order;
* every package that appears in the tree must be **declared** in
  :data:`LAYERS`, so a new subsystem cannot dodge the contract.

Lazy imports are the sanctioned mechanism for upward references (the
CLI pulling subsystems on demand, a low layer reaching a diagnostic
renderer at call time) and are exempt.

:data:`LAYERS` is declared in :mod:`repro.analysis.rules` (which also
derives its package scoping from it) and re-exported here.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from .rules import LAYERS, Violation

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine import ModuleRecord

__all__ = [
    "LAYERS",
    "ImportEdge",
    "ProjectGraph",
    "PROJECT_RULES",
    "RB006ImportLayering",
    "build_project_graph",
]


@dataclass(frozen=True)
class ImportEdge:
    """One resolved eager ``import`` statement: source module -> target module."""

    src: str
    dst: str
    relpath: str
    line: int
    col: int


#: Package -> layer index (0 = lowest).
_LEVEL_OF: dict[str, int] = {
    name: level for level, row in enumerate(LAYERS) for name in row
}


def module_name_for(relpath: str) -> str:
    """Dotted module for *relpath*, anchored at its ``repro`` directory.

    ``src/repro/core/decoder.py`` -> ``repro.core.decoder``;
    ``repro/__init__.py`` -> ``repro``.  Paths that never pass through
    a ``repro`` directory return ``""`` and stay out of the graph.
    """
    parts = relpath.replace("\\", "/").split("/")
    if "repro" not in parts[:-1]:
        return ""
    parts = parts[parts.index("repro") :]
    if not parts[-1].endswith(".py"):
        return ""
    parts[-1] = parts[-1][: -len(".py")]
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def entity_of(module: str) -> str:
    """Layer entity for a module: its first subpackage, or ``cli``.

    Top-level modules (``repro.cli``, ``repro.__main__`` and the
    ``repro`` facade itself) are the user-facing shell and belong to
    the ``cli`` layer.
    """
    parts = module.split(".")
    if len(parts) >= 3 or (len(parts) == 2 and parts[1] not in ("cli", "__main__")):
        candidate = parts[1]
        return candidate if candidate not in ("cli", "__main__") else "cli"
    return "cli"


class _ImportCollector(ast.NodeVisitor):
    """Collect (module, line, col) eager import targets for one file."""

    def __init__(self, module: str, known: set[str], is_package: bool = False):
        self.module = module
        self.known = known
        self.is_package = is_package
        self.found: list[tuple[str, int, int]] = []

    # Function bodies (and TYPE_CHECKING blocks) execute after import
    # time; imports there are lazy and never enter the graph.
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        pass

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        pass

    def visit_If(self, node: ast.If) -> None:
        test = node.test
        is_type_checking = (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
            isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
        )
        if is_type_checking:
            for stmt in node.orelse:
                self.visit(stmt)
        else:
            self.generic_visit(node)

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self._add(alias.name, node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.level > 0:
            base_parts = self.module.split(".")
            # '.': the containing package — which for an __init__ module
            # is the module itself; '..': one package up, and so on.
            drop = node.level - 1 if self.is_package else node.level
            base_parts = base_parts[: len(base_parts) - drop]
            if node.module:
                base_parts = base_parts + node.module.split(".")
            base = ".".join(base_parts)
        else:
            base = node.module or ""
        if not base:
            return
        resolved_any = False
        for alias in node.names:
            candidate = f"{base}.{alias.name}"
            # `from repro import telemetry` binds the submodule; only
            # record the package edge when the name is not one.
            if self._is_known_module(candidate):
                self._add(candidate, node)
                resolved_any = True
        if not resolved_any:
            self._add(base, node)

    def _is_known_module(self, dotted: str) -> bool:
        return dotted in self.known

    def _add(self, target: str, node: ast.stmt) -> None:
        if target == "repro" or target.startswith("repro."):
            self.found.append((target, node.lineno, node.col_offset))


@dataclass
class ProjectGraph:
    """The resolved module index plus every cross-module import edge."""

    modules: dict[str, "ModuleRecord"] = field(default_factory=dict)
    edges: list[ImportEdge] = field(default_factory=list)


def build_project_graph(records: Iterable["ModuleRecord"]) -> ProjectGraph:
    """Index parsed modules and resolve every import between them."""
    graph = ProjectGraph()
    for record in records:
        if record.tree is None or not record.module:
            continue
        # First writer wins; duplicate module names (the same tree
        # linted through two roots) keep the first occurrence.
        graph.modules.setdefault(record.module, record)

    known = set(graph.modules)
    for module, record in graph.modules.items():
        assert record.tree is not None
        is_package = record.relpath.replace("\\", "/").endswith("/__init__.py")
        collector = _ImportCollector(module, known, is_package=is_package)
        collector.visit(record.tree)
        for target, line, col in collector.found:
            resolved = _resolve_target(target, known)
            if resolved is None or resolved == module:
                continue
            graph.edges.append(
                ImportEdge(
                    src=module,
                    dst=resolved,
                    relpath=record.relpath,
                    line=line,
                    col=col,
                )
            )
    return graph


def _resolve_target(dotted: str, known: set[str]) -> "str | None":
    """Longest indexed prefix of *dotted* (imports of attrs hit the module)."""
    parts = dotted.split(".")
    for end in range(len(parts), 0, -1):
        candidate = ".".join(parts[:end])
        if candidate in known:
            return candidate
    return None


def _strongly_connected(nodes: Sequence[str], edges: dict[str, set[str]]) -> list[list[str]]:
    """Tarjan SCCs, returned in first-seen order; singletons excluded."""
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    counter = [0]
    components: list[list[str]] = []

    def strongconnect(v: str) -> None:
        # Iterative Tarjan: (node, iterator) frames, no recursion limit.
        work: list[tuple[str, Iterator[str]]] = [(v, iter(sorted(edges.get(v, ()))))]
        index[v] = low[v] = counter[0]
        counter[0] += 1
        stack.append(v)
        on_stack.add(v)
        while work:
            node, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(sorted(edges.get(w, ())))))
                    advanced = True
                    break
                if w in on_stack:
                    low[node] = min(low[node], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                component: list[str] = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    component.append(w)
                    if w == node:
                        break
                if len(component) > 1:
                    components.append(sorted(component))

    for v in sorted(nodes):
        if v not in index:
            strongconnect(v)
    return components


class RB006ImportLayering:
    """Eager imports must respect the declared layer DAG and stay acyclic."""

    id = "RB006"
    title = "import layering inversion or cycle"

    def check_project(self, graph: ProjectGraph) -> list[Violation]:
        out: list[Violation] = []
        undeclared_flagged: set[str] = set()
        adjacency: dict[str, set[str]] = {}
        for edge in graph.edges:
            adjacency.setdefault(edge.src, set()).add(edge.dst)
            src_entity, dst_entity = entity_of(edge.src), entity_of(edge.dst)
            for entity, module in ((src_entity, edge.src), (dst_entity, edge.dst)):
                if entity not in _LEVEL_OF and entity not in undeclared_flagged:
                    undeclared_flagged.add(entity)
                    out.append(
                        self._violation(
                            edge,
                            f"package `{entity}` (via {module}) is not "
                            "declared in LAYERS; every package must take a "
                            "place in the layer DAG",
                        )
                    )
            if src_entity == dst_entity:
                continue
            src_level = _LEVEL_OF.get(src_entity)
            dst_level = _LEVEL_OF.get(dst_entity)
            if src_level is None or dst_level is None:
                continue
            if src_level < dst_level:
                out.append(
                    self._violation(
                        edge,
                        f"upward import: `{src_entity}` (layer {src_level}) "
                        f"eagerly imports `{dst_entity}` (layer {dst_level}); "
                        "higher layers may import lower, never the reverse "
                        "(make it lazy or move the shared piece down)",
                    )
                )

        for component in _strongly_connected(sorted(graph.modules), adjacency):
            cycle = " -> ".join(component + component[:1])
            first = component[0]
            edge = next(
                (e for e in graph.edges if e.src == first and e.dst in component),
                None,
            )
            record = graph.modules[first]
            out.append(
                Violation(
                    rule=self.id,
                    message=(
                        f"import cycle among {len(component)} modules: "
                        f"{cycle}; eager cycles only work by luck of import "
                        "order"
                    ),
                    path=edge.relpath if edge else record.relpath,
                    line=edge.line if edge else 1,
                    col=edge.col if edge else 0,
                )
            )
        return out

    def _violation(self, edge: ImportEdge, message: str) -> Violation:
        return Violation(
            rule=self.id,
            message=message,
            path=edge.relpath,
            line=edge.line,
            col=edge.col,
        )


#: Registry of project passes, run by the engine after per-file rules.
PROJECT_RULES: Sequence[RB006ImportLayering] = (RB006ImportLayering(),)
