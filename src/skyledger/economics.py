"""Mission pricing and operator reputation.

The quoted fee for a mission is

    fee = k * base_cost + deposit + surcharge

where k is a per-operator cost-scaling factor, the deposit is the
refundable compliance deposit (RCD) escrowed for the mission, and the
surcharge grows with airspace congestion. After each mission the
operator's reputation is the Beta-system score

    R = (rewards - penalties) / (rewards + penalties + 2)

and k is blended toward (1 - (R+1)/2) with smoothing weight alpha:

    k' = (1 - (R+1)/2) * alpha + k_prev * (1 - alpha)

clamped below by a configured floor so the base cost never vanishes.

All functions are pure. k, R and alpha are micro fixed-point integers
(1e-6 grid); currency amounts are plain integers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .fixedmath import MICRO, div_round_half_up

DEFAULT_ALPHA_MICRO = 300_000  # 0.3
DEFAULT_K_MIN_MICRO = 50_000   # 0.05; keeps the base-cost term alive
INITIAL_K_MICRO = MICRO        # new operators pay the undiscounted base cost
INITIAL_REPUTATION_MICRO = 0   # matches reputation(0, 0)


@dataclass(frozen=True)
class FeeParams:
    """Pricing knobs loaded from the scenario config.

    base_cost: mission cost with an empty sky (currency units).
    deposit: refundable compliance deposit, escrowed per mission.
    surcharge_per_mission: congestion surcharge per overlapping active
        mission.
    alpha_micro: smoothing weight of the k update, in (0, 1).
    k_min_micro: floor for k, in (0, 1].

    Each field's metadata names its key in the scenario file's
    `economics` object.
    """

    base_cost: int = field(default=10, metadata={"key": "baseMissionCost"})
    deposit: int = field(default=1000, metadata={"key": "rcd"})
    surcharge_per_mission: int = field(default=2, metadata={"key": "surchargePerMission"})
    alpha_micro: int = field(default=DEFAULT_ALPHA_MICRO, metadata={"key": "alphaMicro"})
    k_min_micro: int = field(default=DEFAULT_K_MIN_MICRO, metadata={"key": "kMinMicro"})

    def __post_init__(self) -> None:
        if self.base_cost < 0 or self.deposit < 0 or self.surcharge_per_mission < 0:
            raise ValueError("currency parameters must be non-negative")
        if not 0 < self.alpha_micro < MICRO:
            raise ValueError("alpha must be strictly between 0 and 1")
        if not 0 < self.k_min_micro <= MICRO:
            raise ValueError("k floor must be in (0, 1]")


@dataclass
class ReputationState:
    """Per-operator reputation score and cost-scaling factor."""

    reputation_micro: int = INITIAL_REPUTATION_MICRO
    k_micro: int = INITIAL_K_MICRO


def dynamic_fee(k_micro: int, base_cost: int, deposit: int, surcharge: int) -> int:
    """Quoted mission fee, rounded half-up to whole currency units."""
    total_micro = k_micro * base_cost + (deposit + surcharge) * MICRO
    return div_round_half_up(total_micro, MICRO)


def congestion_surcharge(active_overlapping_missions: int, surcharge_per_mission: int) -> int:
    if active_overlapping_missions < 0:
        raise ValueError("mission count must be non-negative")
    return surcharge_per_mission * active_overlapping_missions


def reputation(rewards: int, penalties: int) -> int:
    """Beta-system score (rewards - penalties) / (rewards + penalties + 2).

    Returns micro units; the result is strictly inside (-1, 1).
    """
    if rewards < 0 or penalties < 0:
        raise ValueError("counters must be non-negative")
    return div_round_half_up((rewards - penalties) * MICRO, rewards + penalties + 2)


def update_k(reputation_micro: int, k_prev_micro: int, alpha_micro: int, k_min_micro: int) -> int:
    """Next cost-scaling factor, floored at k_min.

    Exact over a common denominator: with one = 1e6,

        k = ((one - R) * alpha + 2 * k_prev * (one - alpha)) / (2 * one)

    then rounded half-up to the micro grid.
    """
    numer = (MICRO - reputation_micro) * alpha_micro + 2 * k_prev_micro * (MICRO - alpha_micro)
    blended = div_round_half_up(numer, 2 * MICRO)
    return max(k_min_micro, blended)
