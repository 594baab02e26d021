import random

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from skyledger.economics import (
    FeeParams,
    congestion_surcharge,
    dynamic_fee,
    reputation,
    update_k,
)
from skyledger.fixedmath import MICRO, div_round_half_up


def test_div_round_half_up():
    assert div_round_half_up(29_000_000, 2_000_000) == 15  # 14.5 rounds up
    assert div_round_half_up(7, 2) == 4
    assert div_round_half_up(-1, 2) == 0   # halves go toward +inf
    assert div_round_half_up(-3, 2) == -1
    with pytest.raises(ValueError):
        div_round_half_up(1, 0)


class TestDynamicFee:
    def test_unit_scale_no_congestion(self):
        assert dynamic_fee(MICRO, 10, 5, 0) == 15

    def test_with_congestion(self):
        assert dynamic_fee(MICRO, 10, 5, 2) == 17

    def test_fractional_scale_rounds_half_up(self):
        # 0.75 * 10 + 5 + 2 = 14.5 -> 15
        assert dynamic_fee(750_000, 10, 5, 2) == 15

    def test_all_zero(self):
        assert dynamic_fee(MICRO, 0, 0, 0) == 0

    def test_nondecreasing_in_every_argument(self):
        rng = random.Random(4)
        for _ in range(500):
            k = rng.randrange(50_000, MICRO + 1)
            d, c, a = rng.randrange(0, 1000), rng.randrange(0, 1000), rng.randrange(0, 100)
            base = dynamic_fee(k, d, c, a)
            assert dynamic_fee(k + 1000, d, c, a) >= base
            assert dynamic_fee(k, d + 1, c, a) >= base
            assert dynamic_fee(k, d, c + 1, a) >= base
            assert dynamic_fee(k, d, c, a + 1) >= base


class TestCongestionSurcharge:
    def test_empty_sky(self):
        assert congestion_surcharge(0, 2) == 0

    def test_three_active(self):
        assert congestion_surcharge(3, 2) == 6

    def test_monotone(self):
        fees = [congestion_surcharge(n, 5) for n in range(50)]
        assert fees == sorted(fees)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            congestion_surcharge(-1, 2)


class TestReputation:
    def test_neutral_prior(self):
        assert reputation(0, 0) == 0

    @pytest.mark.parametrize("n", [1, 2, 7, 40])
    def test_symmetric_counts_cancel(self, n):
        assert reputation(n, n) == 0

    def test_eight_two(self):
        assert reputation(8, 2) == 500_000  # 6/12

    @given(st.integers(0, 10**6), st.integers(0, 10**6))
    @settings(max_examples=300, derandomize=True)
    def test_open_interval_range(self, r, p):
        assert -MICRO < reputation(r, p) < MICRO

    def test_strictly_monotone_on_small_grid(self):
        for r in range(0, 30):
            for p in range(0, 30):
                assert reputation(r + 1, p) > reputation(r, p)
                assert reputation(r, p + 1) < reputation(r, p)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            reputation(-1, 0)


class TestUpdateK:
    def test_neutral_blend(self):
        assert update_k(0, MICRO, 500_000, 50_000) == 750_000

    def test_floor_engages_at_best_reputation(self):
        assert update_k(999_999, MICRO, 999_999, 50_000) == 50_000

    def test_worst_reputation_full_weight(self):
        # score -1 with full smoothing weight pins k at 1 regardless of history
        assert update_k(-MICRO, 300_000, MICRO, 50_000) == MICRO
        assert update_k(-MICRO, MICRO, MICRO, 50_000) == MICRO

    def test_stays_in_interval(self):
        rng = random.Random(5)
        for _ in range(2000):
            rep = rng.randrange(-MICRO + 1, MICRO)
            k_prev = rng.randrange(50_000, MICRO + 1)
            alpha = rng.randrange(1, MICRO)
            k = update_k(rep, k_prev, alpha, 50_000)
            assert 50_000 <= k <= MICRO

    def test_better_reputation_never_costs_more(self):
        rng = random.Random(6)
        for _ in range(1000):
            k_prev = rng.randrange(50_000, MICRO + 1)
            alpha = rng.randrange(1, MICRO)
            lo = rng.randrange(-MICRO + 1, MICRO - 1)
            hi = rng.randrange(lo + 1, MICRO)
            k_better = update_k(hi, k_prev, alpha, 50_000)
            k_worse = update_k(lo, k_prev, alpha, 50_000)
            assert k_better <= k_worse
            # and a lower k never quotes a higher fee
            assert dynamic_fee(k_better, 10, 1000, 0) <= dynamic_fee(k_worse, 10, 1000, 0)


def test_matches_rational_oracle_everywhere():
    rng = random.Random(7)
    for _ in range(3000):
        k = rng.randrange(0, 2 * MICRO)
        d, c, a = rng.randrange(0, 10**6), rng.randrange(0, 10**6), rng.randrange(0, 10**4)
        assert abs(dynamic_fee(k, d, c, a) - oracles.rational_fee(k, d, c, a)) <= 1
        r, p = rng.randrange(0, 10**6), rng.randrange(0, 10**6)
        assert abs(reputation(r, p) - oracles.rational_reputation(r, p)) <= 1
        rep = rng.randrange(-MICRO, MICRO + 1)
        k_prev = rng.randrange(50_000, MICRO + 1)
        alpha = rng.randrange(1, MICRO)
        assert abs(update_k(rep, k_prev, alpha, 50_000) - oracles.rational_update_k(rep, k_prev, alpha, 50_000)) <= 1


class TestFeeParams:
    def test_defaults_valid(self):
        FeeParams()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"base_cost": -1},
            {"deposit": -5},
            {"surcharge_per_mission": -2},
            {"alpha_micro": 0},
            {"alpha_micro": MICRO},
            {"k_min_micro": 0},
            {"k_min_micro": MICRO + 1},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            FeeParams(**kwargs)
