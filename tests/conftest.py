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


def numpy_rationals(p, q):
    """p/q in the numpy forms a caller may pass: int64 and int32 scalars when q is 1, and Fractions of them."""
    import numpy as np

    forms = []
    for kind in (np.int64, np.int32):
        if q == 1:
            forms.append(kind(p))
        forms.append(Fraction(kind(p), kind(q)))
    return forms


def has_int_parts(q):
    """Whether a Fraction's numerator and denominator are both Python ints."""
    return type(q.numerator) is int and type(q.denominator) is int


def entropy_grid(n_bits, prefix_len):
    """All states x all zero-tailed prefixes as points, state-major: the oracle of ``chaoslab.grid_rows``."""
    from itertools import product

    from cbcdyn.dynamics import MessageSequence, SystemPoint

    values = range(1 << n_bits)
    return [
        SystemPoint(state, MessageSequence(n_bits, prefix, (0,)))
        for state in values
        for prefix in product(values, repeat=prefix_len)
    ]


def walked_rows(cfg, points, n):
    """Orbit rows walked one point and one step at a time: the oracle of the column walker.

    Row i holds point i's states x_0..x_{n-1}, each from the one before by
    ``dynamics.next_state_value``, then its blocks 0..n-2+L+P read one by
    one off the prefix and the cycle. Returns the int64 matrix, the longest prefix L and the joint
    period P.
    """
    import numpy as np

    from cbcdyn.dynamics import next_state_value

    prefix_len = max((len(p.message.prefix) for p in points), default=0)
    period = lcm(*(len(p.message.cycle) for p in points))
    width = n - 1 + prefix_len + period
    rows = []
    for p in points:
        prefix, cycle = p.message.prefix, p.message.cycle
        blocks = [prefix[i] if i < len(prefix) else cycle[(i - len(prefix)) % len(cycle)] for i in range(width)]
        states = [p.state]
        for m in blocks[: n - 1]:
            states.append(next_state_value(cfg, states[-1], m))
        rows.append(states + blocks)
    return np.array(rows, dtype=np.int64).reshape(len(points), n + width), prefix_len, period


def oracle_weights(prefix_len, period):
    """The L+P block weights over D = N * 10^L * R, R = 10^P - 1, written out: the test-local weight formula.

    Block t+c weighs 9 * 10^(L-1-c) * R for c < L and 9 * 10^(L+P-1-c) after.
    """
    repeat = 10**period - 1
    weights = [9 * 10 ** (prefix_len - 1 - c) * repeat for c in range(prefix_len)]
    return tuple(weights + [9 * 10 ** (prefix_len + period - 1 - c) for c in range(prefix_len, prefix_len + period)])


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
    return (X.state ^ Y.state).bit_count() + oracle_message_distance(X.message, Y.message)


def first_difference_index(m, other):
    """0-based index of the first differing block of two distinct sequences, found block by block."""
    if m == other:
        raise ValueError("sequences are equal")
    horizon = max(len(m.prefix), len(other.prefix)) + lcm(len(m.cycle), len(other.cycle))
    for i in range(horizon):
        if m.block(i) != other.block(i):
            return i
    raise AssertionError("distinct canonical sequences must differ within one joint period")
