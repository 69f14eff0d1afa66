import sys
from pathlib import Path

import pytest

# allow running the tests from a fresh checkout without installing
SRC = Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


@pytest.fixture
def int_digits():
    """``int_digits(n)`` sets CPython's int <-> str digit limit to ``n`` (0 lifts
    it) for the rest of the test; the limit in force before comes back after."""
    get = getattr(sys, "get_int_max_str_digits", None)
    if get is None:  # CPython before 3.10.7 has no limit
        yield lambda n: None
        return
    old = get()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(old)


def pytest_terminal_summary(terminalreporter):
    import _acceptance_log

    if _acceptance_log.LINES:
        terminalreporter.section("acceptance criteria")
        for line in _acceptance_log.LINES:
            terminalreporter.write_line(line)
