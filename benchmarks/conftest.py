"""Benchmark fixtures: paper-scale synthetic worlds, built once.

The benchmarks regenerate every table and figure of the paper's
evaluation at full paper scale by default (30,238 zip units at the top
rung).  Set ``REPRO_BENCH_SCALE`` (0 < s <= 1) to shrink everything for
a quick pass.

Figure benches report their tables through ``capsys.disabled()`` so the
paper-style rows appear in the run log without ``-s``.  Reports and
``BENCH_*.json`` claim records land in ``REPRO_RESULTS_DIR`` (default
``benchmarks/results/``, git-ignored); the committed copies are the
regression gate's ``benchmarks/baselines/``.
"""

import os

import pytest

from repro.synth.universes import (
    build_new_york_world,
    build_united_states_world,
)

BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))


@pytest.fixture(scope="session")
def bench_scale():
    return BENCH_SCALE


@pytest.fixture(scope="session")
def ny_world():
    """Paper-scale New York State world (1,794 zips / 62 counties)."""
    return build_new_york_world(scale=BENCH_SCALE)


@pytest.fixture(scope="session")
def us_world():
    """Paper-scale United States world (30,238 zips / 3,142 counties)."""
    return build_united_states_world(scale=BENCH_SCALE)


@pytest.fixture
def report(capsys, request):
    """Print a figure report (and persist it under benchmarks/results/).

    The report's first line doubles as the saved file's name.
    """
    from repro.experiments.reporting import save_report

    def _print(text):
        with capsys.disabled():
            print("\n" + text + "\n")
        title = text.strip().splitlines()[0][:80]
        save_report(f"{request.node.name}-{title}", text)

    return _print
