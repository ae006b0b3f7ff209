"""Shared pytest plumbing and test helpers.

The acceptance tests register one line per criterion; this hook replays
them in a dedicated section after the run so the verdicts are visible
without -s.
"""

import pytest

from tessera import datagen
from tessera.metrics import ssc_detail

acceptance_lines: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)


@pytest.fixture
def parses(monkeypatch):
    """Counts calls of the CSV parser behind load_csv."""
    calls = []
    parse = datagen._parse_csv

    def counted(f, name):
        calls.append(name)
        return parse(f, name)
    monkeypatch.setattr(datagen, "_parse_csv", counted)
    return calls


def ssc(intervals, y, n_bins: int) -> list[float]:
    """Per-bin coverage of ``metrics.ssc_detail``."""
    return [b.coverage for b in ssc_detail(intervals, y, (n_bins,))[n_bins]]
