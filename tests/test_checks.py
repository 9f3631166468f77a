"""The oracle library: every QUICK_CHECKS entry, the same functions
`metareweight verify` runs, as one test each."""

import pytest

from conftest import run_check
from metareweight.checks import QUICK_CHECKS


@pytest.mark.parametrize("name", [name for name, _ in QUICK_CHECKS])
def test_quick_check(name):
    ok, detail, _ = run_check(name)
    assert ok, f"{name}: {detail}"
