import signal

import pytest

# Longest a single test may run, about 30 times the slowest one (9 s).
# faulthandler_timeout (pyproject.toml) only prints the stacks of a hung
# test; this alarm also fails it, so the run goes on to the next test.
TEST_ALARM_S = 300


def _expire(signum, frame):
    raise TimeoutError(f"test still running after {TEST_ALARM_S} s")


@pytest.fixture(autouse=True)
def fail_hung_test():
    previous = signal.signal(signal.SIGALRM, _expire)
    signal.alarm(TEST_ALARM_S)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)
