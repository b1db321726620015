"""The budget gate: ``min``/``max`` bounds on named metrics.

One gate serves both checks that read ``budgets.toml``:

* ``[quality.<metric>]`` bounds the channel-quality summary
  (``repro quality report --check``);
* ``[perf.<workload>."<metric>"]`` bounds the metrics of a perfbench
  result (``repro perf check --workload <workload>``).

Each table takes ``min`` and/or ``max``.  A budgeted metric the run
never recorded **fails** — a gate that passes because nothing was
measured would hide a dead probe.  The CLIs map the outcome onto the
repo's 0 (pass) / 1 (fail) / 2 (usage error) exit contract.

Budgets files are TOML or JSON with the same tree; JSON stays because
``tomllib`` only ships with Python 3.11+.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

__all__ = ["Budget", "Verdict", "load_budgets", "check_budgets", "format_check"]


def _load_budget_doc(path: str | Path) -> dict[str, Any]:
    """Load and version-check a budgets file (``.toml`` or ``.json``)."""
    path = Path(path)
    if path.suffix == ".toml":
        try:
            import tomllib
        except ImportError as exc:  # Python < 3.11: ship budgets as JSON instead.
            raise ValueError(
                f"{path}: TOML budgets need Python 3.11+ (tomllib); "
                "use a .json budgets file on older interpreters"
            ) from exc
        with open(path, "rb") as fh:
            doc = tomllib.load(fh)
    elif path.suffix == ".json":
        doc = json.loads(path.read_text())
    else:
        raise ValueError(f"{path}: budgets must be .toml or .json")
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: budgets root must be a table/object")
    version = doc.get("schema_version", 1)
    if version != 1:
        raise ValueError(f"{path}: unsupported budgets schema_version {version}")
    return doc


@dataclass(frozen=True)
class Budget:
    """Acceptable range for one metric (min and/or max)."""

    metric: str
    min_value: float | None = None
    max_value: float | None = None


@dataclass(frozen=True)
class Verdict:
    """Outcome of one metric's budget comparison."""

    metric: str
    value: float | None
    min_value: float | None
    max_value: float | None
    ok: bool
    note: str = ""


def load_budgets(path: str | Path, table: str) -> dict[str, Budget]:
    """Parse the ``[<table>.<metric>]`` bounds of a budgets file.

    *table* is a dotted path such as ``"quality"`` or
    ``"perf.receive_replay"``; a file without it returns an empty
    mapping.  Each metric table needs at least one of ``min`` / ``max``.
    """
    node: Any = _load_budget_doc(path)
    for key in table.split("."):
        node = node.get(key, {}) if isinstance(node, Mapping) else None
    if not isinstance(node, Mapping):
        raise ValueError(f"{path}: [{table}] must be a table/object")
    out: dict[str, Budget] = {}
    for name, entry in node.items():
        if not isinstance(entry, Mapping):
            raise ValueError(f"{path}: [{table}.{name}] must be a table/object")
        unknown = set(entry) - {"min", "max"}
        if unknown:
            raise ValueError(f"{path}: unknown {table} budget keys {sorted(unknown)}")
        minimum = entry.get("min")
        maximum = entry.get("max")
        if minimum is None and maximum is None:
            raise ValueError(f"{path}: [{table}.{name}] needs a min and/or max bound")
        out[str(name)] = Budget(
            metric=str(name),
            min_value=float(minimum) if minimum is not None else None,
            max_value=float(maximum) if maximum is not None else None,
        )
    return out


def check_budgets(
    values: Mapping[str, Any], budgets: Mapping[str, Budget]
) -> list[Verdict]:
    """Gate *values* against *budgets*, one verdict per budgeted metric."""
    verdicts: list[Verdict] = []
    for name in sorted(budgets):
        budget = budgets[name]
        raw = values.get(name)
        if raw is None:
            verdicts.append(
                Verdict(
                    name, None, budget.min_value, budget.max_value, False,
                    "metric not recorded",
                )
            )
            continue
        value = float(raw)
        ok = True
        notes: list[str] = []
        if budget.min_value is not None and value < budget.min_value:
            ok = False
            notes.append("below minimum")
        if budget.max_value is not None and value > budget.max_value:
            ok = False
            notes.append("above maximum")
        verdicts.append(
            Verdict(name, value, budget.min_value, budget.max_value, ok, "; ".join(notes))
        )
    return verdicts


def format_check(verdicts: list[Verdict], gate: str) -> str:
    """Human-readable verdict table, ending in ``<gate>: PASS`` or ``FAIL``."""
    header = f"{'metric':<28} {'value':>10} {'min':>8} {'max':>8} {'verdict':>8}"
    lines = [header, "-" * len(header)]
    for v in verdicts:
        value = f"{v.value:.4f}" if v.value is not None else "-"
        minimum = f"{v.min_value:.4f}" if v.min_value is not None else "-"
        maximum = f"{v.max_value:.4f}" if v.max_value is not None else "-"
        verdict = "ok" if v.ok else "FAIL"
        suffix = f"  ({v.note})" if v.note else ""
        lines.append(
            f"{v.metric:<28} {value:>10} {minimum:>8} {maximum:>8} {verdict:>8}{suffix}"
        )
    failed = [v.metric for v in verdicts if not v.ok]
    lines.append("")
    lines.append(f"{gate}: PASS" if not failed else f"{gate}: FAIL ({', '.join(failed)})")
    return "\n".join(lines)
