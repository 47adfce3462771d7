"""Deterministic bounding system and objective construction."""
from __future__ import annotations

import numpy as np

from .model import Inequality, support_layout, support_row


def build_support(n: int, alpha: float) -> list[Inequality]:
    """The 2n+1 bounding inequalities, in canonical order.

    Rows 0..n-1:    x_j <= alpha
    Rows n..2n-1:  -x_j <= 0
    Row 2n:         sum_j x_j <= (n-1)*alpha + alpha/2

    The last row cuts the corner of the hypercube nearest to (alpha, ..., alpha)
    so the region stays bounded with a known optimal vertex.
    """
    if n < 1:
        raise ValueError("n >= 1 required")
    return [support_row(n, *spec) for spec in support_layout(n, alpha)]


def build_objective(n: int, theta: float) -> np.ndarray:
    """Objective coefficients c = theta * (n, n-1, ..., 1)."""
    if n < 1:
        raise ValueError("n >= 1 required")
    c = theta * np.arange(n, 0, -1, dtype=np.float64)
    c.flags.writeable = False
    return c


def support_only_solution(n: int, alpha: float) -> np.ndarray:
    """The unique maximizer over the bounding system alone:
    (alpha, ..., alpha, alpha/2)."""
    if n < 1:
        raise ValueError("n >= 1 required")
    x = np.full(n, float(alpha))
    x[n - 1] = alpha / 2
    x.flags.writeable = False
    return x
