"""Shared helpers for the lint tests."""

from __future__ import annotations

from pathlib import Path

import pytest

import repro
from repro.lint import run_lint

FIXTURES = Path(__file__).parent / "fixtures"

# Pytest must never collect the fixture sources as test modules (some
# are deliberately broken code).
collect_ignore = ["fixtures"]


@pytest.fixture(scope="session")
def fixtures():
    return FIXTURES


@pytest.fixture(scope="session")
def head_report():
    """The one full lint of ``src/repro`` per session (the race
    detector alone is ~10 s): every "clean at HEAD" test slices this
    report by code instead of re-analysing the tree."""
    return run_lint([Path(repro.__file__).parent])
