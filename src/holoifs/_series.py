"""Truncated power-series arithmetic on plain coefficient arrays.

A series is a complex array ``p`` with ``p[k]`` the coefficient of ``z**k``.
All germs handled by the package fix the origin, so ``p[0] == 0`` throughout;
keeping the constant slot makes convolution indexing direct.
"""

from __future__ import annotations

import numpy as np


def zero(order: int) -> np.ndarray:
    return np.zeros(order + 1, dtype=np.complex128)


def pad(p: np.ndarray, order: int) -> np.ndarray:
    out = zero(order)
    n = min(len(p), order + 1)
    out[:n] = p[:n]
    return out


def mul(a: np.ndarray, b: np.ndarray, order: int) -> np.ndarray:
    return np.convolve(a, b)[: order + 1]


def compose(outer: np.ndarray, inner: np.ndarray, order: int) -> np.ndarray:
    """``outer(inner(z))`` truncated at ``order``; ``inner[0]`` must be 0."""
    outer = pad(outer, order)
    result = zero(order)
    for k in range(order, 0, -1):
        result = mul(result, inner, order)
        result[0] += outer[k]
    result = mul(result, inner, order)
    result[0] += outer[0]
    return result


def reversion(f: np.ndarray, order: int) -> np.ndarray:
    """Compositional inverse ``g`` with ``f(g(z)) = z`` up to ``order``.

    ``f[0]`` must be 0 and ``f[1]`` must not be.
    """
    f = pad(f, order)
    c1 = f[1]
    g = zero(order)
    g[1] = 1.0 / c1
    for n in range(2, order + 1):
        err = compose(f, g, n)[n]
        g[n] = -err / c1
    return g
