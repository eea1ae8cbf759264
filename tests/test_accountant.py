import math

import numpy as np
import pytest

from dpvideo.accountant import (
    AccountantState,
    CalibrationError,
    PrivacyBudget,
    calibrate_sigma,
    group_privacy,
    rdp_gaussian,
    rdp_subsampled_gaussian,
    to_epsilon,
)
from oracles import bisect_sigma, epsilon_grid_scan, renyi_divergence_quadrature


class TestGaussianRdp:
    def test_order_two_unit_sigma_is_one(self):
        assert rdp_gaussian(2, 1.0) == 1.0
        # numeric integration of the divergence between N(0,1) and N(1,1)
        assert renyi_divergence_quadrature(1.0, 1.0, 2) == pytest.approx(1.0, abs=1e-10)

    def test_order_three_sigma_two(self):
        assert rdp_gaussian(3, 2.0) == 0.375
        assert renyi_divergence_quadrature(1.0, 2.0, 3) == pytest.approx(0.375, abs=1e-10)

    def test_decreases_to_zero_in_sigma(self):
        values = [rdp_gaussian(4, s) for s in (0.5, 1.0, 10.0, 1e4, 1e8)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-15

    def test_rejects_order_at_most_one(self):
        with pytest.raises(ValueError):
            rdp_gaussian(1, 1.0)
        with pytest.raises(ValueError):
            rdp_gaussian(0.5, 1.0)


class TestSubsampledRdp:
    def test_full_sampling_matches_gaussian(self):
        for sigma in (0.5, 1.0, 2.0, 4.0):
            for order in (2, 3, 17, 256):
                assert rdp_subsampled_gaussian(1.0, sigma, order) == pytest.approx(
                    rdp_gaussian(order, sigma), abs=1e-9
                )

    def test_vanishes_as_q_goes_to_zero(self):
        # the decay sets in only once q^a beats e^(a(a-1)/2s^2), hence the
        # very small tail values
        for sigma in (0.7, 2.0):
            for order in (2, 8, 32):
                values = [
                    rdp_subsampled_gaussian(q, sigma, order) for q in (1e-2, 1e-6, 1e-12, 1e-24)
                ]
                assert all(a > b for a, b in zip(values, values[1:]))
                assert values[-1] < 1e-10

    def test_small_q_matches_integration_oracle(self):
        formula = rdp_subsampled_gaussian(0.01, 1.0, 2)
        oracle = renyi_divergence_quadrature(0.01, 1.0, 2)
        assert formula >= oracle - 1e-6
        assert abs(formula - oracle) / oracle < 0.05

    def test_upper_bounds_integration_oracle_on_random_grid(self):
        gen = np.random.default_rng(100)
        for _ in range(100):
            q = float(gen.uniform(0.001, 0.5))
            sigma = float(gen.uniform(0.5, 4.0))
            order = int(gen.integers(2, 33))
            formula = rdp_subsampled_gaussian(q, sigma, order)
            oracle = renyi_divergence_quadrature(q, sigma, order)
            assert formula >= oracle - 1e-9, (q, sigma, order)

    def test_nondecreasing_in_order(self):
        for q, sigma in ((0.01, 1.0), (0.3, 0.8), (1.0, 2.0)):
            values = [rdp_subsampled_gaussian(q, sigma, a) for a in range(2, 257)]
            assert all(b >= a for a, b in zip(values, values[1:]))
            assert all(v >= 0.0 for v in values)

    def test_domain_violations_rejected(self):
        with pytest.raises(ValueError):
            rdp_subsampled_gaussian(0.0, 1.0, 2)
        with pytest.raises(ValueError):
            rdp_subsampled_gaussian(1.2, 1.0, 2)
        with pytest.raises(ValueError):
            rdp_subsampled_gaussian(0.5, 0.0, 2)
        with pytest.raises(ValueError):
            rdp_subsampled_gaussian(0.5, 1.0, 1)
        with pytest.raises(ValueError):
            rdp_subsampled_gaussian(0.5, 1.0, 2.5)


class TestToEpsilon:
    def test_zero_steps_spends_nothing(self):
        state = AccountantState.create(0.1, 1.0)
        for delta in (1e-7, 1e-5, 0.1):
            assert to_epsilon(state, delta) == 0.0

    def test_single_full_batch_step_matches_grid_scan(self):
        state = AccountantState.create(1.0, 1.0, steps=1)
        expected, best = epsilon_grid_scan(lambda a: a / 2.0, steps=1, delta=1e-5)
        eps, order = state.epsilon_with_order(1e-5)
        assert eps == pytest.approx(expected, rel=1e-12)
        assert order == best
        # frozen from the scan: min over alpha of alpha/2 + ln(1e5)/(alpha-1)
        assert eps == pytest.approx(5.302585092994046, abs=1e-12)
        assert best == 6

    def test_doubling_steps_strictly_increases_epsilon(self):
        for steps in (1, 10, 400):
            a = to_epsilon(AccountantState.create(0.02, 1.2, steps=steps), 1e-5)
            b = to_epsilon(AccountantState.create(0.02, 1.2, steps=2 * steps), 1e-5)
            assert b > a

    def test_additive_composition_is_exact(self):
        state = AccountantState.create(0.05, 1.5)
        assert state.advance(3).advance(9).steps == state.advance(12).steps
        assert to_epsilon(state.advance(3).advance(9), 1e-5) == to_epsilon(state.advance(12), 1e-5)

    def test_monotonicity_over_randomized_grid(self):
        gen = np.random.default_rng(42)
        for _ in range(40):
            q = float(gen.uniform(0.005, 0.5))
            sigma = float(gen.uniform(0.6, 4.0))
            steps = int(gen.integers(1, 500))
            delta = float(10.0 ** gen.uniform(-8, -2))
            base = to_epsilon(AccountantState.create(q, sigma, steps), delta)
            assert to_epsilon(AccountantState.create(q, sigma, steps + 7), delta) >= base
            assert to_epsilon(AccountantState.create(min(1.0, q * 1.5), sigma, steps), delta) >= base
            assert to_epsilon(AccountantState.create(q, sigma * 1.5, steps), delta) <= base
            assert to_epsilon(AccountantState.create(q, sigma, steps), delta * 5) <= base


class TestCalibration:
    def test_calibrated_sigma_hits_target_window(self):
        for target in (0.5, 1.0, 5.0):
            sigma = calibrate_sigma(target, 1e-5, 0.05, 400)
            spent = to_epsilon(AccountantState.create(0.05, sigma, 400), 1e-5)
            assert target * (1 - 1e-4) <= spent <= target
            assert abs(spent - target) / target <= 1e-4

    def test_larger_target_needs_less_noise(self):
        sigmas = [calibrate_sigma(t, 1e-5, 0.05, 400) for t in (0.5, 1.0, 2.0, 5.0)]
        assert all(a > b for a, b in zip(sigmas, sigmas[1:]))

    def test_matches_external_bisection(self):
        def eps_of_sigma(sigma: float) -> float:
            return to_epsilon(AccountantState.create(1.0, sigma, 1), 1e-5)

        ours = calibrate_sigma(5.0, 1e-5, 1.0, 1)
        ref = bisect_sigma(eps_of_sigma, 5.0)
        assert eps_of_sigma(ours) == pytest.approx(5.0, rel=1e-4)
        assert ours == pytest.approx(ref, rel=1e-3)

    def test_each_bisection_sigma_is_accounted_once(self, monkeypatch):
        created = []
        create = AccountantState.create.__func__

        def counting_create(cls, *args, **kwargs):
            created.append(args)
            return create(cls, *args, **kwargs)

        monkeypatch.setattr(AccountantState, "create", classmethod(counting_create))
        calibrate_sigma(5.0, 1e-5, 0.1, 400)
        sigmas = [args[1] for args in created]
        assert len(sigmas) == len(set(sigmas))
        assert len(sigmas) == 20  # two bracket ends and 18 bisection midpoints

    def test_infeasible_target_reports_achievable_range(self):
        with pytest.raises(CalibrationError, match="achievable range"):
            calibrate_sigma(1e9, 1e-5, 0.01, 1)
        with pytest.raises(CalibrationError, match="achievable range"):
            calibrate_sigma(1e-9, 1e-5, 1.0, 10_000)


class TestGroupPrivacy:
    def test_singleton_group_is_identity(self):
        budget = PrivacyBudget(0.7, 1e-6)
        assert group_privacy(budget, 1) == budget

    def test_two_clip_example(self):
        out = group_privacy(PrivacyBudget(0.5, 1e-6), 2)
        assert out.epsilon == pytest.approx(1.0, abs=1e-15)
        # 2 * e^0.5 * 1e-6, written out independently
        assert out.delta == pytest.approx(2.0 * 1.6487212707001282 * 1e-6, rel=1e-12)

    def test_epsilon_is_linear_in_group_size(self):
        eps = 0.3
        values = [group_privacy(PrivacyBudget(eps, 1e-9), k).epsilon for k in range(1, 9)]
        for k, v in enumerate(values, start=1):
            assert v == pytest.approx(k * eps, rel=1e-12)

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            PrivacyBudget(-0.1, 1e-5)
        with pytest.raises(ValueError):
            PrivacyBudget(1.0, 0.0)
        with pytest.raises(ValueError):
            PrivacyBudget(1.0, 1.0)


def test_rdp_per_step_depends_only_on_q_and_sigma():
    a = AccountantState.create(0.2, 1.3, steps=5)
    b = AccountantState.create(0.2, 1.3, steps=90)
    assert a.rdp_per_step == b.rdp_per_step
    assert a.orders == tuple(range(2, 257))


def test_state_without_a_value_per_order_is_rejected():
    # built directly, the state would have no curve: epsilon inf, yet equal to create()'s
    with pytest.raises(ValueError, match="rdp_per_step"):
        AccountantState(0.1, 1.0, 5)
    with pytest.raises(ValueError, match="rdp_per_step"):
        AccountantState(0.1, 1.0, 5, rdp_per_step=(0.5,) * 3)
    state = AccountantState.create(0.1, 1.0, 5)
    assert to_epsilon(state, 1e-5) == pytest.approx(3.5276, abs=1e-4)
    assert state.advance(2).rdp_per_step == state.rdp_per_step


def test_negative_steps_rejected():
    state = AccountantState.create(0.2, 1.3)
    with pytest.raises(ValueError):
        state.advance(-1)
    with pytest.raises(ValueError):
        AccountantState.create(0.2, 1.3, steps=-2)
