"""Shared fixtures.

The variety solver is the one expensive piece of the suite, so solve
reports are cached once per session, keyed by the braid word (a table knot
and the torus word it equals share one entry), and the elapsed wall time of
the original run is kept alongside each report for the budget checks in the
acceptance tests.
"""
from __future__ import annotations

import time

import pytest

from repvar.braid import BraidWord, knot_by_name
from repvar.solver import solve


@pytest.fixture(scope="session")
def solve_table():
    cache: dict[BraidWord, tuple] = {}

    def run(knot: str | BraidWord):
        """The report and solve time of a table knot's word or of any word."""
        word = knot_by_name(knot).word if isinstance(knot, str) else knot
        if word not in cache:
            t0 = time.monotonic()
            report = solve(word)
            cache[word] = (report, time.monotonic() - t0)
        return cache[word]

    return run
