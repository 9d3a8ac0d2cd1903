"""A fixed piece of calibration work that tracks the host's speed.

The benchmark's host is a few cores of a shared machine whose speed shifts
by 30-70 % over minutes, for a pure-Python loop as much as for the program,
and differs a little from one process to the next. Each worker times this
work right after set-up and again right after its run calls; ``run.py``
multiplies the set-up time by ``NOMINAL_S`` over the first calibration time
and the run time by ``NOMINAL_S`` over the mean of both. ``wall_s`` and
``setup_s`` are then seconds at a fixed nominal host speed: a shift of the
host's speed cancels out, while a change of the program's speed does not,
because the calibration work never calls ``lqmfg``.

The work mixes what the program spends its time on, in about equal parts:
a Python-level loop, numpy calls on tiny matrices, and vectorized
arithmetic on small arrays, reused so that they stay in cache. The first
pass adds about 0.5 MB to the worker's peak memory, the same in every run.
"""

import time

import numpy as np

# About the median calibration time on the baseline host (README.md,
# Baseline); a constant, so that scaled timings stay in seconds.
NOMINAL_S = 0.3

_SMALL = np.array([[1.2, 0.3], [0.1, 0.9]])
_ARRAY_SHAPE = (200, 50)  # 80 kB of float64


def _python_loop() -> int:
    total, table = 0, {}
    for i in range(700_000):
        total += i * i % 7
        table[i & 255] = total
    return total


def _small_matrices() -> float:
    eye = np.eye(2)
    acc = 0.0
    for _ in range(3_000):
        x = np.linalg.solve(_SMALL, eye)
        acc += np.linalg.norm(_SMALL @ x, 2)
        acc += float((_SMALL.T @ eye + eye)[0, 0])
    return acc


def _arrays() -> float:
    x = np.linspace(-1.0, 1.0, _ARRAY_SHAPE[0] * _ARRAY_SHAPE[1]).reshape(_ARRAY_SHAPE)
    y = np.empty_like(x)
    acc = 0.0
    for _ in range(3_000):
        np.multiply(x, x, out=y)
        np.add(y, x, out=y)
        np.exp(y, out=y)
        acc += float(y.sum())
    return acc


def calibration_s() -> float:
    """Wall time of one pass of the calibration work."""
    t = time.perf_counter()
    _python_loop()
    _small_matrices()
    _arrays()
    return time.perf_counter() - t
