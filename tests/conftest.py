import gc
import random
import signal
import sys

import pytest
from hypothesis import strategies as st

from discretepl.measures import from_weights

try:
    import resource
except ImportError:  # not on Windows
    resource = None


@st.composite
def pmf_strategy(draw, max_width=10, resolution=24, max_offset=10):
    width = draw(st.integers(1, max_width))
    offset = draw(st.integers(-max_offset, max_offset))
    weights = draw(st.lists(st.integers(0, resolution), min_size=width, max_size=width))
    if sum(weights) == 0:
        weights[draw(st.integers(0, width - 1))] = 1
    return from_weights(offset, weights)


#: seconds after which a test fails: a loop that never ends, such as an SSP search whose strict relaxation is
#: broken, then fails its test instead of hanging the suite (the slowest test takes a few seconds)
TEST_TIME_LIMIT_S = 120


#: bytes of address space the suite may map (`ulimit -v 1500000`): a loop that keeps allocating, such as an SSP
#: search whose strict relaxation is broken (about 0.5 GB/s), then fails with MemoryError in seconds instead of
#: taking the host's memory; the whole suite peaks at 353 MB of VM (VmPeak, Python 3.11, numpy, 2 cores)
TEST_ADDRESS_SPACE_BYTES = 1_500_000 * 1024


def pytest_configure(config):
    """Lower the soft RLIMIT_AS to `TEST_ADDRESS_SPACE_BYTES` where `resource` exists and the limit is higher."""
    if resource is None:
        return
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    if soft == resource.RLIM_INFINITY or soft > TEST_ADDRESS_SPACE_BYTES:
        try:
            resource.setrlimit(resource.RLIMIT_AS, (TEST_ADDRESS_SPACE_BYTES, hard))
        except (ValueError, OSError):  # a platform that refuses the limit runs the suite without it
            pass


@pytest.fixture(autouse=True)
def time_limit():
    """Fail the test once it has run `TEST_TIME_LIMIT_S` seconds, where the platform has SIGALRM; else do nothing."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        pytest.fail(f"test ran past its {TEST_TIME_LIMIT_S} s limit")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TEST_TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def rng():
    return random.Random(20240811)


#: the block-growth guards read CPython's allocator and free lists
cpython_only = pytest.mark.skipif(sys.implementation.name != "cpython", reason="CPython allocator statistics")


def allocated_block_growth(call, times: int) -> int:
    """Growth of sys.getallocatedblocks() over `times` calls, with the cyclic collector off.

    A full collection empties CPython's free lists, so with it off the small
    tuples a call strands there show as growth instead of being reclaimed.
    """
    call()
    gc.collect()
    gc.disable()
    try:
        before = sys.getallocatedblocks()
        for _ in range(times):
            call()
        return sys.getallocatedblocks() - before
    finally:
        gc.enable()
