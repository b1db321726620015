"""RB006 import layering: the project pass and the layer DAG.

The seeded regressions here are the contract this PR exists for: a
layering inversion (a low layer eagerly importing a high one), an
eager module cycle, and an undeclared package must each be caught —
while lazy (function-scoped / TYPE_CHECKING) imports stay exempt as
the sanctioned upward mechanism.  The final tests prove the *real*
``src/repro`` tree is clean under the declared DAG.
"""

import textwrap
from collections import Counter
from pathlib import Path

from repro.analysis import LAYERS, analyze_paths, build_project_graph
from repro.analysis.engine import parse_module
from repro.analysis.graph import (
    RB006ImportLayering,
    entity_of,
    module_name_for,
)

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC_REPRO = REPO_ROOT / "src" / "repro"


def records_for(modules):
    """Parse {relpath: source} into phase-1 records."""
    return [
        parse_module(textwrap.dedent(source), relpath)
        for relpath, source in modules.items()
    ]


def rb006(modules):
    graph = build_project_graph(records_for(modules))
    return graph, RB006ImportLayering().check_project(graph)


# -- seeded regression: layering inversion -------------------------------


def test_upward_eager_import_is_flagged():
    graph, violations = rb006(
        {
            "repro/core/bad.py": "from repro.serve.pool import Executor\n",
            "repro/serve/pool.py": "class Executor:\n    pass\n",
        }
    )
    (violation,) = violations
    assert violation.rule == "RB006"
    assert "upward import" in violation.message
    assert "`core`" in violation.message and "`serve`" in violation.message
    assert violation.path == "repro/core/bad.py"
    assert violation.line == 1


def test_downward_eager_import_is_fine():
    _, violations = rb006(
        {
            "repro/serve/pool.py": "from repro.core.util import f\n",
            "repro/core/util.py": "def f():\n    return 0\n",
        }
    )
    assert violations == []


def test_lazy_function_scoped_import_is_exempt():
    graph, violations = rb006(
        {
            "repro/core/ok.py": """
                def render():
                    from repro.serve.pool import Executor
                    return Executor
                """,
            "repro/serve/pool.py": "class Executor:\n    pass\n",
        }
    )
    assert violations == []
    assert graph.edges == []  # lazy imports never enter the graph


def test_type_checking_import_is_exempt():
    _, violations = rb006(
        {
            "repro/core/typed.py": """
                from typing import TYPE_CHECKING

                if TYPE_CHECKING:
                    from repro.serve.pool import Executor

                def f(pool: "Executor"):
                    return pool
                """,
            "repro/serve/pool.py": "class Executor:\n    pass\n",
        }
    )
    assert violations == []


# -- seeded regression: eager module cycle -------------------------------


def test_eager_module_cycle_is_flagged():
    _, violations = rb006(
        {
            "repro/core/a.py": "from repro.core.b import f\n",
            "repro/core/b.py": "from repro.core.a import g\n",
        }
    )
    (violation,) = violations
    assert violation.rule == "RB006"
    assert "import cycle" in violation.message
    assert "repro.core.a -> repro.core.b" in violation.message


def test_lazy_back_edge_breaks_the_cycle():
    _, violations = rb006(
        {
            "repro/core/a.py": "from repro.core.b import f\n",
            "repro/core/b.py": """
                def g():
                    from repro.core.a import h
                    return h
                """,
        }
    )
    assert violations == []


# -- seeded regression: undeclared package -------------------------------


def test_undeclared_package_is_flagged():
    _, violations = rb006(
        {
            "repro/widgets/shiny.py": "from repro.core.util import f\n",
            "repro/core/util.py": "def f():\n    return 0\n",
        }
    )
    assert any(
        "`widgets`" in v.message and "not declared" in v.message
        for v in violations
    )


# -- module identity & layer config --------------------------------------


def test_module_name_and_entity_resolution():
    assert module_name_for("src/repro/core/decoder.py") == "repro.core.decoder"
    assert module_name_for("src/repro/core/__init__.py") == "repro.core"
    assert module_name_for("src/repro/__init__.py") == "repro"
    assert module_name_for("tests/core/test_decoder.py") == ""
    assert entity_of("repro.core.decoder") == "core"
    assert entity_of("repro.cli") == "cli"
    assert entity_of("repro.__main__") == "cli"
    assert entity_of("repro") == "cli"


def test_each_package_appears_in_layers_once():
    counts = Counter(name for row in LAYERS for name in row)
    assert [name for name, n in counts.items() if n > 1] == []


# -- the real tree -------------------------------------------------------


def test_src_repro_layering_is_clean_and_nontrivial():
    """RB006 proves the declared DAG holds on the real import graph."""
    result = analyze_paths([SRC_REPRO], select=["RB006"])
    offending = [
        f"{v.path}:{v.line}: {v.message}" for v in result.violations
    ]
    assert offending == []
    assert result.errors == []


def test_src_repro_graph_has_real_edges_and_declared_entities():
    from repro.analysis.engine import _read_module, iter_python_files

    records = [
        _read_module(p, str(p)) for p in iter_python_files([SRC_REPRO])
    ]
    graph = build_project_graph(records)
    assert len(graph.edges) > 20  # the tree genuinely interconnects
    levels = {name: level for level, row in enumerate(LAYERS) for name in row}
    assert {entity_of(m) for m in graph.modules} <= set(levels)  # all declared
    # Every eager package edge points level-downward or sideways.
    for edge in graph.edges:
        src, dst = entity_of(edge.src), entity_of(edge.dst)
        assert levels[src] >= levels[dst], f"upward edge {src} -> {dst}"
