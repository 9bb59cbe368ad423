"""Shared fixtures for the figure/table regeneration benchmarks.

The end-to-end figures (9-12) all derive from one scheme x workload x
page-size sweep, exactly as in the paper; the sweep runs once per
pytest session and is shared by every figure bench.

Environment knobs:

* ``REPRO_REFS``       — trace length per run (default 20000, the
  length EXPERIMENTS.md quotes its measured numbers at).
* ``REPRO_WORKLOADS``  — comma-separated subset of the suite.
"""

from __future__ import annotations

import os

import pytest

from repro.sim import SimConfig, run_suite
from repro.workloads import SUITE


def bench_refs() -> int:
    return int(os.environ.get("REPRO_REFS", "20000"))


def bench_workloads():
    names = os.environ.get("REPRO_WORKLOADS")
    if names:
        return [n.strip() for n in names.split(",") if n.strip()]
    return list(SUITE)


def pytest_collection_modifyitems(config, items):
    """Every figure/table regeneration is a slow benchmark; give each a
    wall-clock safety net (see ``tests/conftest.py`` for the SIGALRM
    fallback used when pytest-timeout is absent)."""
    for item in items:
        item.add_marker(pytest.mark.slow)
        if item.get_closest_marker("timeout") is None:
            item.add_marker(pytest.mark.timeout(3600))


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    import signal

    marker = item.get_closest_marker("timeout")
    limit = marker.args[0] if marker and marker.args else None
    use_alarm = (
        limit is not None
        and not item.config.pluginmanager.hasplugin("timeout")
        and hasattr(signal, "SIGALRM")
    )
    if not use_alarm:
        yield
        return

    def _expire(signum, frame):
        pytest.fail(f"benchmark exceeded the {limit}s timeout", pytrace=False)

    old_handler = signal.signal(signal.SIGALRM, _expire)
    signal.setitimer(signal.ITIMER_REAL, float(limit))
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, old_handler)


@pytest.fixture(scope="session")
def suite_results():
    """The full sweep behind Figures 9-12: all schemes, 4 KB and THP."""
    config = SimConfig(num_refs=bench_refs())
    return run_suite(
        workload_names=bench_workloads(),
        schemes=("radix", "ecpt", "lvm", "ideal"),
        page_modes=(False, True),
        config=config,
    )


@pytest.fixture(scope="session")
def sim_config():
    return SimConfig(num_refs=bench_refs())
