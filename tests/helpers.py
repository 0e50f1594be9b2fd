"""Fixtures shared by several test modules."""

import itertools

import numpy as np

from resnetlab.network import Weights


def zero_weights(width, depth, delta=None, delta_exponent=0.5):
    """The all-zero stack, whose network is the identity map; delta defaults
    to depth**-delta_exponent."""
    if delta is None:
        delta = float(depth) ** (-delta_exponent)
    return Weights(np.zeros((depth, width, width)), delta)


def sigma_prime(trace):
    """sigma'(a_k) for every layer of a forward trace, from its preactivations."""
    return trace.activation.deriv1(trace.preact)


def exhaustive_oracle(values):
    """Exact 2-variation by brute force: the largest summed squared increments
    over every index chain that contains both endpoints, via itertools."""
    values = np.asarray(values, dtype=np.float64).reshape(len(values), -1)
    last = len(values) - 1
    best = 0.0
    for size in range(0, last):
        for interior in itertools.combinations(range(1, last), size):
            idx = (0, *interior, last)
            total = sum(float(np.sum((values[b] - values[a]) ** 2))
                        for a, b in zip(idx[:-1], idx[1:]))
            best = max(best, total)
    return best
