"""Deterministic bounding system and objective construction."""
from __future__ import annotations

import numpy as np

from .model import Inequality


def diagonal_rhs(n: int, alpha: float) -> float:
    """Right-hand side of the diagonal bounding row: (n-1)*alpha + alpha/2."""
    return (n - 1) * alpha + alpha / 2


def support_layout(n: int, alpha: float):
    """The rows of ``build_support(n, alpha)`` in closed form, in order.

    Yields (j, coef, rhs): coefficient coef at position j and zeros
    elsewhere, or coef at every position when j is None, with right-hand
    side rhs.  Code that only needs the structure of the bounding system
    (the writer, the reader) walks this instead of building the rows.
    """
    for j in range(n):
        yield j, 1.0, alpha
    for j in range(n):
        yield j, -1.0, 0.0
    yield None, 1.0, diagonal_rhs(n, alpha)


def support_row(n: int, j, coef: float, rhs: float) -> Inequality:
    """The row (j, coef, rhs) of ``support_layout`` as an inequality."""
    if j is None:
        return Inequality(np.full(n, coef), rhs)
    a = np.zeros(n)
    a[j] = coef
    return Inequality(a, rhs)


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
