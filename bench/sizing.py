"""Node-stack sizes of the built-in groups, computed without building them.

Every group build precomputes one (nodes, d, d) complex stack per window
irrep, so it holds sum(d^2) * nodes * 16 bytes. ``check_budget`` refuses a
set of group specs whose stacks would exceed the budget before anything is
built: an oversized SU(2) band is killed for lack of memory instead of
failing with a message. This module imports neither numpy nor the library,
so the set-up probe can call it before its timed import.
"""

from __future__ import annotations

import math

#: Largest total node-stack size one benchmark process may build.
STACK_BUDGET_MB = 1024.0

BYTES_PER_ENTRY = 16  # complex128


class MemoryBudgetError(ValueError):
    """Raised when group specs would need more stack memory than the budget."""


def stack_shape(spec: dict) -> tuple[int, int]:
    """(quadrature nodes, K = sum of d^2 over the window) of a group spec.

    Mirrors the quadrature sizing of the library's group builders; the
    benchmark compares it with every group it builds.
    """
    kind = spec["kind"]
    if kind == "cyclic":
        n = int(spec["n"])
        return n, n
    if kind == "s3":
        return 6, 6
    if kind == "circle":
        band = int(spec["band"])
        return 4 * band + 1, 2 * band + 1
    if kind == "su2":
        band = float(spec["band"])
        half = bool(spec.get("half_integers", False))
        step = 0.5 if half else 1.0
        ells = [k * step for k in range(int(round(band / step)) + 1)]
        coeffs = sum((int(round(2 * ell)) + 1) ** 2 for ell in ells)
        n_alpha = math.ceil(4 * band + 2)
        n_beta = math.ceil(2 * band + 1)
        n_gamma = math.ceil((8 if half else 4) * band + 2)
        return n_alpha * n_beta * n_gamma, coeffs
    raise ValueError(f"no size estimate for group kind {kind!r}")


def stack_mb(spec: dict) -> float:
    nodes, coeffs = stack_shape(spec)
    return nodes * coeffs * BYTES_PER_ENTRY / 1e6


def check_budget(specs, budget_mb: float = STACK_BUDGET_MB) -> float:
    """Total node-stack MB of ``specs``; raises MemoryBudgetError over budget."""
    total = sum(stack_mb(spec) for spec in specs)
    if total > budget_mb:
        raise MemoryBudgetError(
            f"groups {list(specs)} need {total:,.0f} MB of node stacks, over the "
            f"benchmark budget of {budget_mb:,.0f} MB; refusing to build them"
        )
    return total
