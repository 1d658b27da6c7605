"""Shared fixtures: standard small quandles and a session-wide census store.

Censuses are expensive enough that every module shares one store; build
times are recorded per order so the acceptance tests can charge them
against the right runtime budget.
"""

from __future__ import annotations

import time

import pytest

from quandles import Quandle, enumerate_all, enumerate_connected, trivial_quandle

TAIT_TABLE = ((0, 2, 1), (2, 1, 0), (1, 0, 2))

# Two orbits {0,1} and {2}; the only nontrivial symmetry is at 2.
TWO_ORBIT_TABLE = ((0, 0, 1), (1, 1, 0), (2, 2, 2))


@pytest.fixture
def t3() -> Quandle:
    return Quandle(TAIT_TABLE)


@pytest.fixture
def q3() -> Quandle:
    return Quandle(TWO_ORBIT_TABLE)


@pytest.fixture
def trivial4() -> Quandle:
    return trivial_quandle(4)


class CensusStore:
    def __init__(self) -> None:
        self._brute = {}
        self._structure = {}
        self.brute_seconds: dict[int, float] = {}
        self.structure_seconds: dict[int, float] = {}

    def brute(self, n: int):
        if n not in self._brute:
            start = time.perf_counter()
            self._brute[n] = enumerate_all(n)
            self.brute_seconds[n] = time.perf_counter() - start
        return self._brute[n]

    def structure(self, n: int):
        if n not in self._structure:
            start = time.perf_counter()
            self._structure[n] = enumerate_connected(n)
            self.structure_seconds[n] = time.perf_counter() - start
        return self._structure[n]


@pytest.fixture(scope="session")
def censuses() -> CensusStore:
    return CensusStore()


@pytest.fixture(scope="session")
def census_7():
    """The order-7 brute-force census, built once per session."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("QUANDLE_MAX_ORDER", "7")
        return enumerate_all(7)


# Acceptance results are printed after the run so they survive output
# capture; each entry is (criterion number, short name, "PASS"/"FAIL",
# elapsed seconds, budget seconds).
ACCEPTANCE_RESULTS: list[tuple[int, str, str, float, float]] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("acceptance criteria:")
    for number, name, status, elapsed, budget in sorted(ACCEPTANCE_RESULTS):
        terminalreporter.write_line(
            f"  criterion {number} ({name}): {status} {elapsed:.1f} s of {budget:g} s"
        )
