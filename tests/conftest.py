import gc
import sys
from pathlib import Path

import pytest

# Make the test-only oracle helpers importable as plain modules.
sys.path.insert(0, str(Path(__file__).parent))


def pytest_terminal_summary(terminalreporter):
    """Echo the acceptance criterion PASS/FAIL lines after the run."""
    lines = getattr(sys.modules.get("test_acceptance"), "RESULTS", None)
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


@pytest.fixture()
def collector_state():
    """Restore the garbage collector's setting after a test that changes it."""
    was_enabled = gc.isenabled()
    yield
    if was_enabled:
        gc.enable()
    else:
        gc.disable()
