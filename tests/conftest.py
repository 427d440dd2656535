"""Shared test helpers, the test-local distance and grid oracles and the acceptance-summary hook."""

from contextlib import contextmanager
from fractions import Fraction
from math import lcm

ACCEPTANCE_LINES = []


@contextmanager
def criterion(number: int, name: str):
    """Record one pass/fail line per acceptance criterion."""
    try:
        yield
    except BaseException:
        ACCEPTANCE_LINES.append(f"criterion {number} FAIL  {name}")
        raise
    ACCEPTANCE_LINES.append(f"criterion {number} PASS  {name}")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("=", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def spy_on_dtype(monkeypatch):
    """Record every arithmetic path that ``metric.exact_dtype`` chooses."""
    from cbcdyn import metric

    paths = []
    exact_dtype = metric.exact_dtype

    def spy(bound):
        paths.append(exact_dtype(bound))
        return paths[-1]

    monkeypatch.setattr(metric, "exact_dtype", spy)
    return paths


def entropy_grid(n_bits, prefix_len):
    """All states x all zero-tailed prefixes as points, state-major: the oracle of ``chaoslab.grid_rows``."""
    from itertools import product

    from cbcdyn.cipher import BlockVector
    from cbcdyn.dynamics import MessageSequence, SystemPoint

    values = range(1 << n_bits)
    return [
        SystemPoint(BlockVector(state, n_bits), MessageSequence(n_bits, prefix, (0,)))
        for state in values
        for prefix in product(values, repeat=prefix_len)
    ]


def oracle_message_distance(m, other):
    """Message distance summed as its own geometric series, apart from the library's scale.

    The head (up to the longer prefix) is summed block by block; the tail
    repeats with the joint period P, so its first period is multiplied by
    1 / (1 - 10^-P).
    """
    if m.n_bits != other.n_bits:
        raise ValueError("block size mismatch")
    head_len = max(len(m.prefix), len(other.prefix))
    period = lcm(len(m.cycle), len(other.cycle))

    def digits(start, stop):
        total = 0
        for i in range(start, stop):
            total = total * 10 + (m.block(i).value ^ other.block(i).value).bit_count()
        return total

    head = Fraction(digits(0, head_len), 10 ** head_len)
    tail = Fraction(digits(head_len, head_len + period), 10 ** (head_len + period)) * Fraction(
        10 ** period, 10 ** period - 1
    )
    return Fraction(9, m.n_bits) * (head + tail)


def oracle_distance(X, Y):
    """Phase-space distance on ``oracle_message_distance``."""
    if X.n_bits != Y.n_bits:
        raise ValueError("block size mismatch")
    return (X.state.value ^ Y.state.value).bit_count() + oracle_message_distance(X.message, Y.message)


def first_difference_index(m, other):
    """0-based index of the first differing block of two distinct sequences, found block by block."""
    if m == other:
        raise ValueError("sequences are equal")
    horizon = max(len(m.prefix), len(other.prefix)) + lcm(len(m.cycle), len(other.cycle))
    for i in range(horizon):
        if m.block(i) != other.block(i):
            return i
    raise AssertionError("distinct canonical sequences must differ within one joint period")
