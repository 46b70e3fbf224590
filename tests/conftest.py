import pytest
from hypothesis import settings

# Property tests draw the same examples on every run and never replay
# failures from a local example database, so Tier-1 is reproducible.
settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")

_ACCEPTANCE_LINES = []


@pytest.fixture(scope="session")
def acceptance_log():
    """Shared sink for one summary line per acceptance criterion."""
    return _ACCEPTANCE_LINES


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
