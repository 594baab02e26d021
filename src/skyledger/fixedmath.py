"""Integer fixed-point helpers shared by the pricing and geometry code.

All monetary and dimensionless quantities are integers. Dimensionless
values (reputation, cost-scaling factor, smoothing weight) live on a
1e-6 grid ("micro" units) so that arithmetic never drifts.
"""

from __future__ import annotations

MICRO = 10**6


def div_round_half_up(numer: int, denom: int) -> int:
    """floor(numer/denom + 1/2) in exact integer arithmetic.

    denom must be positive. Halves round toward +infinity.
    """
    if denom <= 0:
        raise ValueError("denominator must be positive")
    return (2 * numer + denom) // (2 * denom)

