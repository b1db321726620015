"""Fixture snippets that trigger (and avoid) each RB rule."""

import textwrap

from repro.analysis import analyze_source


def check(snippet, relpath="repro/core/fixture.py", select=None):
    report = analyze_source(textwrap.dedent(snippet), relpath, select=select)
    assert not report.error, report.error
    return report.violations


def rules_of(violations):
    return [v.rule for v in violations]


# -- RB001 ---------------------------------------------------------------


def test_rb001_flags_stdlib_random_import_and_call():
    violations = check(
        """
        import random

        def draw():
            return random.random()
        """
    )
    assert rules_of(violations) == ["RB001", "RB001"]
    assert "stdlib `random`" in violations[0].message


def test_rb001_flags_legacy_np_random():
    violations = check(
        """
        import numpy as np

        def noise(shape):
            np.random.seed(0)
            return np.random.rand(*shape)
        """
    )
    assert rules_of(violations) == ["RB001", "RB001"]


def test_rb001_flags_wall_clock():
    violations = check(
        """
        import time
        from datetime import datetime

        def stamp():
            return time.time(), datetime.now()
        """
    )
    assert rules_of(violations) == ["RB001", "RB001"]


def test_rb001_flags_raw_seed_sequence():
    violations = check(
        """
        import numpy as np

        def rng_for(seed):
            return np.random.default_rng(np.random.SeedSequence(seed))
        """
    )
    assert rules_of(violations) == ["RB001"]
    assert "derive_seed" in violations[0].message


def test_rb001_allowlists_derive_seed_in_plan():
    violations = check(
        """
        import numpy as np

        def derive_seed(seed, *components):
            return np.random.SeedSequence(entropy=seed, spawn_key=components)
        """,
        relpath="repro/faults/plan.py",
    )
    assert violations == []


def test_rb001_ignores_injected_generator_and_perf_counter():
    violations = check(
        """
        import time
        import numpy as np

        def noise(rng, shape):
            started = time.perf_counter()
            return rng.normal(size=shape), time.perf_counter() - started

        def make_rng(seed):
            return np.random.default_rng(seed)
        """
    )
    assert violations == []


def test_rb001_only_applies_to_deterministic_packages():
    snippet = """
        import numpy as np

        def noise(shape):
            return np.random.rand(*shape)
        """
    assert check(snippet, relpath="repro/bench/fixture.py") == []
    assert rules_of(check(snippet, relpath="repro/link/fixture.py")) == ["RB001"]


# -- RB002 ---------------------------------------------------------------


def test_rb002_flags_argless_default_rng_with_seed_param():
    violations = check(
        """
        import numpy as np

        def simulate(seed=0):
            rng = np.random.default_rng()
            return rng
        """,
        select=["RB002"],
    )
    assert rules_of(violations) == ["RB002"]
    assert "simulate" in violations[0].message


def test_rb002_accepts_plumbed_seed():
    violations = check(
        """
        import numpy as np

        def simulate(seed=0, rng=None):
            rng = rng or np.random.default_rng(seed)
            return rng

        def unrelated():
            return np.random.default_rng()
        """,
        select=["RB002"],
    )
    assert violations == []


# -- RB003 ---------------------------------------------------------------


def test_rb003_flags_arithmetic_on_uint8_names():
    violations = check(
        """
        import numpy as np

        def brighten(image):
            raw = image.astype(np.uint8)
            return raw + 40
        """,
        select=["RB003"],
    )
    assert rules_of(violations) == ["RB003"]
    assert "raw" in violations[0].message


def test_rb003_flags_dtype_kwarg_sources_and_augassign():
    violations = check(
        """
        import numpy as np

        def accumulate(n):
            total = np.zeros(n, dtype=np.uint8)
            total += 1
            return total
        """,
        select=["RB003"],
    )
    assert rules_of(violations) == ["RB003"]


def test_rb003_cast_clears_taint():
    violations = check(
        """
        import numpy as np

        def brighten(image):
            raw = image.astype(np.uint8)
            wide = raw.astype(np.int32)
            raw = raw.astype(np.float64)
            return wide + 40, raw * 2.0
        """,
        select=["RB003"],
    )
    assert violations == []


def test_rb003_taint_is_function_scoped():
    violations = check(
        """
        import numpy as np

        def first(image):
            raw = image.astype(np.uint8)
            return raw

        def second(raw):
            return raw + 1
        """,
        select=["RB003"],
    )
    assert violations == []


def test_rb003_to_uint8_taints():
    violations = check(
        """
        from repro.imaging import to_uint8

        def overlay(image, delta):
            frame = to_uint8(image)
            return frame - delta
        """,
        select=["RB003"],
    )
    assert rules_of(violations) == ["RB003"]


def test_rb003_nested_statements_flag_once():
    violations = check(
        """
        import numpy as np

        def brighten(image, flag):
            raw = image.astype(np.uint8)
            if flag:
                return raw * 2
            return raw
        """,
        select=["RB003"],
    )
    assert rules_of(violations) == ["RB003"]


# -- RB004 ---------------------------------------------------------------


def test_rb004_flags_span_not_in_with():
    violations = check(
        """
        def extract(tracer, image):
            ctx = tracer.span("extract")
            ctx.__enter__()
            return image
        """,
        select=["RB004"],
    )
    assert rules_of(violations) == ["RB004"]


def test_rb004_accepts_with_and_forwarding_return():
    violations = check(
        """
        def extract(tracer, image):
            with tracer.span("extract"):
                return image

        def span(name):
            return _current().tracer.span(name)
        """,
        select=["RB004"],
    )
    assert violations == []


def test_rb004_flags_wall_clock_under_telemetry():
    violations = check(
        """
        import time

        def snapshot():
            return {"at": time.time()}
        """,
        relpath="repro/telemetry/fixture.py",
        select=["RB004"],
    )
    assert rules_of(violations) == ["RB004"]
    # ...but not outside telemetry/ (RB001 owns the deterministic tree).
    assert (
        check(
            """
        import time

        def snapshot():
            return {"at": time.time()}
        """,
            relpath="repro/bench/fixture.py",
            select=["RB004"],
        )
        == []
    )


def test_rb004_flags_monotonic_clock_outside_span_recorder():
    source = """
        import time

        def export():
            return {"now_ms": time.perf_counter() * 1000}
        """
    # The exporter/aggregator modules must derive timings from records.
    violations = check(
        source, relpath="repro/telemetry/perf/chrome_trace.py", select=["RB004"]
    )
    assert rules_of(violations) == ["RB004"]
    # ...the span recorder itself is the one legitimate reader...
    assert check(source, relpath="repro/telemetry/trace.py", select=["RB004"]) == []
    # ...and outside telemetry/ monotonic clocks are fine (bench timing).
    assert check(source, relpath="repro/bench/fixture.py", select=["RB004"]) == []


def test_rb004_monotonic_variants_flagged():
    violations = check(
        """
        import time

        def tick():
            return time.monotonic(), time.monotonic_ns(), time.perf_counter_ns()
        """,
        relpath="repro/telemetry/perf/aggregate.py",
        select=["RB004"],
    )
    assert rules_of(violations) == ["RB004"] * 3


def test_rb004_time_sleep_is_not_a_clock_read():
    violations = check(
        """
        import time

        def pace(interval):
            time.sleep(interval)
        """,
        relpath="repro/telemetry/perf/tail.py",
        select=["RB004"],
    )
    assert violations == []
