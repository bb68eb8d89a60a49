"""Noise schedule construction and cumulative-product bookkeeping."""
import mpmath as mp
import numpy as np
import pytest
from numpy.testing import assert_allclose

from priorshift.schedule import (
    MAX_T,
    Schedule,
    alpha_bar_at,
    default_schedule,
    linear_schedule,
    step_roots,
)


class TestLinearSchedule:
    def test_endpoints_and_spacing(self):
        s = linear_schedule(1e-4, 2e-2, 100)
        assert s.T == 100
        assert s.beta[0] == 1e-4
        assert s.beta[-1] == 2e-2
        assert_allclose(np.diff(s.beta), np.diff(s.beta)[0], rtol=1e-12)

    def test_first_cumulative_value(self):
        s = default_schedule()
        assert alpha_bar_at(s, 0) == 1.0 - 1e-4
        assert_allclose(alpha_bar_at(s, 1), (1 - s.beta[0]) * (1 - s.beta[1]), rtol=1e-15)

    def test_terminal_value_against_extended_precision_product(self):
        # Independent oracle: the same product accumulated at 50 digits.
        s = default_schedule()
        mp.mp.dps = 50
        prod = mp.mpf(1)
        for b in s.beta:
            prod *= 1 - mp.mpf(float(b))
        assert abs(alpha_bar_at(s, 99) - float(prod)) <= 1e-12
        assert alpha_bar_at(s, 99) == pytest.approx(0.3635632480554919, abs=1e-15)

    def test_every_step_matches_oracle(self):
        s = default_schedule()
        mp.mp.dps = 50
        prod = mp.mpf(1)
        for t, b in enumerate(s.beta):
            prod *= 1 - mp.mpf(float(b))
            assert abs(alpha_bar_at(s, t) - float(prod)) <= 1e-14

    @pytest.mark.parametrize("bad", [
        dict(beta_min=0.0, beta_max=0.02, T=100),
        dict(beta_min=-1e-4, beta_max=0.02, T=100),
        dict(beta_min=0.02, beta_max=0.01, T=100),
        dict(beta_min=1e-4, beta_max=1.0, T=100),
        dict(beta_min=1e-4, beta_max=0.02, T=1),
    ])
    def test_rejects_bad_parameters(self, bad):
        with pytest.raises(ValueError):
            linear_schedule(**bad)

    def test_step_count_bound(self):
        """A step count above ``MAX_T`` fails before any table is allocated."""
        assert linear_schedule(1e-4, 2e-2, MAX_T).T == MAX_T
        with pytest.raises(ValueError, match=f"^T: must be at most {MAX_T}, got 100000000000$"):
            linear_schedule(1e-4, 2e-2, 10 ** 11)

    def test_constant_rate_allowed(self):
        s = linear_schedule(0.01, 0.01, 10)
        assert_allclose(s.beta, 0.01)


class TestAlphaBarInvariants:
    def test_recurrence(self):
        """alpha_bar(t) = alpha_bar(t-1) * (1 - beta(t)) at every step, from 1 - beta(0)."""
        s = default_schedule()
        alpha = 1.0 - s.beta
        assert abs(alpha_bar_at(s, 0) - alpha[0]) <= 1e-15 * alpha[0]
        for t in range(1, s.T):
            lhs = alpha_bar_at(s, t)
            rhs = alpha_bar_at(s, t - 1) * alpha[t]
            assert abs(lhs - rhs) <= 1e-15 * rhs

    def test_strictly_decreasing_within_unit_interval(self):
        s = default_schedule()
        vals = [alpha_bar_at(s, t) for t in range(s.T)]
        assert alpha_bar_at(s, 0) < 1.0
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert all(0.0 < v <= 1.0 for v in vals)

    def test_signal_noise_energy_split(self):
        """The squared corruption coefficients always sum to one."""
        s = default_schedule()
        for t in range(s.T):
            ab = alpha_bar_at(s, t)
            assert abs((np.sqrt(ab) ** 2 + np.sqrt(1 - ab) ** 2) - 1.0) <= 1e-12

    def test_out_of_range_timesteps(self):
        s = default_schedule()
        with pytest.raises(ValueError):
            alpha_bar_at(s, -2)
        with pytest.raises(ValueError):
            alpha_bar_at(s, -1)
        with pytest.raises(ValueError):
            alpha_bar_at(s, s.T)

    def test_one_step_per_row_is_a_column_of_scalar_lookups(self):
        s = default_schedule()
        t = np.array([0, 99, 7, 7, 50])
        col = alpha_bar_at(s, t)
        assert col.shape == (5, 1) and col.dtype == np.float64
        assert np.array_equal(col[:, 0], [alpha_bar_at(s, int(tv)) for tv in t])
        assert alpha_bar_at(s, np.array([], dtype=int)).shape == (0, 1)
        assert alpha_bar_at(s, np.asarray(7)) == alpha_bar_at(s, 7)

    @pytest.mark.parametrize("bad", [-1, 100])
    def test_out_of_range_row_step_rejected(self, bad):
        with pytest.raises(ValueError, match="timesteps outside"):
            alpha_bar_at(default_schedule(), np.array([0, bad, 3]))

    @pytest.mark.parametrize("bad", [np.array([1.0, 2.0]), np.array([True, False])],
                             ids=["float", "bool"])
    def test_non_integer_row_steps_rejected(self, bad):
        """A bool array would otherwise index as a mask, a float one fail
        with numpy's bare IndexError."""
        with pytest.raises(ValueError, match=f"timesteps must be integers, got dtype {bad.dtype}"):
            alpha_bar_at(default_schedule(), bad)

    def test_float64_view_matches_accessor(self):
        s = default_schedule()
        arr = s.alpha_bar
        assert arr.dtype == np.float64
        for t in range(s.T):
            assert arr[t] == alpha_bar_at(s, t)


class TestStepRoots:
    def test_each_pair_holds_the_square_roots_of_the_lookup(self):
        """Read in one go, each step's scales have the bits of the square
        roots of its scalar lookup."""
        s = default_schedule()
        roots = step_roots(s, s.T)
        assert len(roots) == s.T
        for t, (root, root_1m) in enumerate(roots):
            ab = alpha_bar_at(s, t)
            assert type(root) is float and root == np.sqrt(ab) and root_1m == np.sqrt(1.0 - ab)
        assert step_roots(s, 25) == roots[:25] and step_roots(s, 0) == []

    @pytest.mark.parametrize("stop", [-1, 101])
    def test_steps_beyond_the_schedule_rejected(self, stop):
        with pytest.raises(ValueError, match=rf"steps \[0, {stop}\) outside \[0, 100\)"):
            step_roots(default_schedule(), stop)


def test_handbuilt_schedule_puts_no_constraints_on_values():
    # The container itself accepts any table; this supports synthetic
    # plateau schedules used elsewhere in the tests.
    beta = np.array([0.5, 0.0])
    s = Schedule(T=2, beta=beta, alpha_bar=np.array([0.5, 0.5]))
    assert alpha_bar_at(s, 1) == alpha_bar_at(s, 0) == 0.5
