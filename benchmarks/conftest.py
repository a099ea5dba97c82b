"""Shared benchmark fixtures.

One building-scale scenario (the paper's fleet: ~39 pods / 156 radios over
four floors) is simulated and reconstructed once per session; each
table/figure benchmark then times its analysis against that shared run and
prints the paper-vs-measured comparison.

``--scale`` selects the sweep size: ``small`` (the default, what
``make bench-smoke`` runs) keeps the scenario-family sweep at small scale
and the campus sweep at one 512-radio point; ``full`` (CI's full-scale
bench lane, and ``make bench-full``) runs full-scale families and the
512/1024/1536-radio campus scaling curve.
"""

import pytest

from repro.experiments.common import (
    get_building_run,
    get_campus_run,
    get_small_run,
)


def pytest_addoption(parser):
    parser.addoption(
        "--scale",
        choices=("small", "full"),
        default="small",
        help=(
            "benchmark scale: 'full' runs full-scale scenario families "
            "and the 500-1500 radio campus sweep (CI's full-scale lane)"
        ),
    )


@pytest.fixture(scope="session")
def bench_scale(request):
    return request.config.getoption("--scale")


@pytest.fixture(scope="session")
def building_run():
    return get_building_run()


@pytest.fixture(scope="session")
def small_run():
    return get_small_run()


@pytest.fixture(scope="session")
def campus_run():
    """The 4-building (512-radio) campus the campus bench merges."""
    return get_campus_run()
