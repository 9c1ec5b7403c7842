"""The three stabilizer laws of ``closed_loop.CHANNELS``, the firing rule and
the dwell timers; the post-jump states come from each channel's own jump map.

A law's command and Lyapunov function read only ``zeta`` on the in-plane
channels, so their scalar cases pass ``s=None`` and ``zeta = (x, y, alpha,
beta)``; the z channel's read ``s``, given as a list indexed by component."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybrid_rendezvous import closed_loop as cl
from hybrid_rendezvous import controllers as ctl
from hybrid_rendezvous.hcw import RZ, VZ, OrbitParams

from conftest import rk4

P = OrbitParams()
ORBIT = P.period
Z, BETA, ALPHA = (cl.CHANNELS[name] for name in ("z", "beta", "alpha"))


def z_state(r_z, v_z):
    """A list of 11 components with ``r_z`` and ``v_z`` set, the rest 0."""
    s = [0.0] * cl.DIM
    s[RZ], s[VZ] = r_z, v_z
    return s


def alpha_command(y, alpha):
    return ALPHA.command(None, (0.0, y, alpha, 0.0), P)


def alpha_guard(x, y, alpha, tau_a):
    """The alpha margins at ``beta = 0``, ``q_alpha = 1`` and ``(x, y, alpha,
    tau_alpha)``; the state is checked to give ``(x, y, alpha)`` exactly."""
    state = cl.make_state(r=(x, alpha + 2.0 * y / P.n, 0.0), v=(y, -2.0 * P.n * x, 0.0),
                          tau_alpha=tau_a)
    assert tuple(cl.zeta_of(state, P)[:3]) == (x, y, alpha)
    return ALPHA.guard(P, 0.01, state.tolist())


def v_alpha(x, y, alpha):
    return ALPHA.lyapunov(None, (x, y, alpha, 0.0), P)


def v_beta(beta):
    return BETA.lyapunov(None, (0.0, 0.0, 0.0, beta), P)


def z_event(r_z, v_z, q_z):
    """The z channel's post-jump state and event at ``(r_z, v_z, q_z)``."""
    state = cl.make_state(r=(0.0, 0.0, r_z), v=(0.0, 0.0, v_z), q_z=q_z)
    return cl.make_channel("z", P, 0.01).jump(state, 0.0, 0)


def alpha_event(y, alpha, q_a):
    """The alpha channel's post-jump state and event at ``x = beta = 0``
    and ``(y, alpha, q_alpha)``; the state is checked to give ``(y, alpha)``
    exactly."""
    state = cl.make_state(r=(0.0, alpha + 2.0 * y / P.n, 0.0), v=(y, 0.0, 0.0), q_alpha=q_a)
    assert tuple(cl.zeta_of(state, P)[1:3]) == (y, alpha)
    return cl.make_channel("alpha", P, 0.01).jump(state, 0.0, 0)


class TestTimer:
    def test_linear_segment_quarter_orbit(self):
        assert ctl.timer_advance(0.0, 0.25 * ORBIT, P.n) == pytest.approx(0.25, rel=1e-12)

    def test_two_is_a_fixed_point(self):
        assert ctl.timer_advance(2.0, 1e6, P.n) == 2.0

    def test_rate_freezes_at_two(self):
        assert ctl.timer_rate(2.0, P.n) == 0.0
        assert ctl.timer_rate(0.5, P.n) == pytest.approx(P.n / (2 * np.pi))

    @pytest.mark.parametrize("tau,share", [(0.0, 1.0), (1.0, 1.0), (1.5, 0.5), (2.0, 0.0)])
    def test_rate_examples(self, tau, share):
        # all of n / 2 pi up to 1, then falling linearly to none at 2
        assert ctl.timer_rate(tau, P.n) == pytest.approx(share * P.n / (2 * np.pi))

    @given(st.floats(-10, 10, allow_nan=False))
    @settings(max_examples=200)
    def test_rate_is_full_exactly_up_to_one(self, tau):
        assert (ctl.timer_rate(tau, P.n) == P.n / (2 * np.pi)) == (tau <= 1.0)

    @given(
        tau0=st.floats(0.0, 2.0, allow_nan=False),
        dt=st.floats(0.0, 20 * ORBIT, allow_nan=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_interval_forward_invariant_and_monotone(self, tau0, dt):
        tau = ctl.timer_advance(tau0, dt, P.n)
        assert tau0 <= tau <= 2.0

    @given(
        tau0=st.floats(0.0, 1.9, allow_nan=False),
        dt=st.floats(1.0, 2 * ORBIT, allow_nan=False),
    )
    @settings(max_examples=50, deadline=None)
    def test_closed_form_matches_rk4_oracle(self, tau0, dt):
        # Integrate the timer rate numerically, including across the kink
        # at tau = 1, and compare to the piecewise form.
        steps = 2000
        tau = rk4(lambda tau: ctl.timer_rate(tau, P.n), tau0, dt / steps, steps)
        assert ctl.timer_advance(tau0, dt, P.n) == pytest.approx(tau, abs=1e-7)


class TestFire:
    @pytest.mark.parametrize(
        "u_cmd,expected",
        [(0.5, (0.2, False)), (-0.5, (-0.2, False)), (0.2, (0.2, True)), (0.0, (0.0, True))],
    )
    def test_saturates_and_reports_unsaturated(self, u_cmd, expected):
        assert ctl.fire(u_cmd, P.umax) == expected


class TestZChannel:
    @pytest.mark.parametrize(
        "v_z,expected", [(0.1, -0.1), (0.5, -0.2), (0.0, 0.0), (-0.3, 0.2)]
    )
    def test_input(self, v_z, expected):
        assert Z.command(z_state(0.0, v_z), None, P) == -v_z
        assert ctl.fire(Z.command(z_state(0.0, v_z), None, P), P.umax)[0] == expected

    def test_guard_fires_at_zero_crossing_with_matured_timer(self):
        h = Z.guard(P, 0.01, cl.make_state(v=(0.0, 0.0, 0.1), tau_z=0.01).tolist())
        assert h == (0.0, 0.1, 0.0)
        assert min(h) >= 0.0

    def test_guard_vetoes_wrong_phase(self):
        h = Z.guard(P, 0.01, cl.make_state(r=(0.0, 0.0, 1.0), tau_z=2.0).tolist())
        assert h[0] == pytest.approx(-P.n)
        assert min(h) < 0.0

    def test_guard_dwell_time_veto(self):
        h = Z.guard(P, 0.01, cl.make_state(v=(0.0, 0.0, 0.1), tau_z=0.0).tolist())
        assert h[2] < 0.0

    def test_jump_saturated(self):
        post, ev = z_event(0.0, 0.5, 1.0)
        assert (post[VZ], ev.u_applied) == (pytest.approx(0.3), -0.2)
        assert post[cl.QZ] == 1.0  # saturated firing keeps the polarity armed

    def test_jump_unsaturated_toggles(self):
        post, ev = z_event(0.0, 0.1, 1.0)
        assert post[VZ] == 0.0 and ev.u_applied == -0.1
        assert post[cl.QZ] == -1.0

    def test_jump_on_rest_state_is_noop(self):
        post, ev = z_event(0.0, 0.0, -1.0)
        assert post[VZ] == 0.0 and ev.u_applied == 0.0
        assert post[cl.QZ] == 1.0

    @pytest.mark.parametrize(
        "v_z,expected_delta", [(0.5, -0.16), (0.1, -0.01)]
    )
    def test_jump_decrease_identity(self, v_z, expected_delta):
        # Delta V_z = -sat(v_z) (2 v_z - sat(v_z)), independent of r_z.
        r_z = 123.0
        v_plus = z_event(r_z, v_z, 1.0)[0][VZ]
        delta = Z.lyapunov(z_state(r_z, v_plus), None, P) - Z.lyapunov(z_state(r_z, v_z), None, P)
        assert delta == pytest.approx(expected_delta, abs=1e-15)
        # and it obeys the jump-decrease bound -v_z sat(v_z)
        assert delta <= -v_z * np.clip(v_z, -P.umax, P.umax) + 1e-12


class TestBetaChannel:
    @pytest.mark.parametrize(
        "beta,expected", [(0.396, 0.132), (1.2, 0.2), (0.0, 0.0), (-1.2, -0.2)]
    )
    def test_input(self, beta, expected):
        zeta = (0.0, 0.0, 0.0, beta)
        assert BETA.command(None, zeta, P) == beta / 3.0
        assert ctl.fire(BETA.command(None, zeta, P), P.umax)[0] == pytest.approx(expected)

    def test_guard_boundary_and_veto(self):
        assert BETA.guard(P, 0.02, cl.make_state(tau_beta=0.02).tolist())[0] == 0.0
        assert BETA.guard(P, 0.02, cl.make_state(tau_beta=0.0).tolist())[0] < 0.0

    def test_firing_period(self):
        # With tau^M = 0.02 the timer matures every 0.02 * 2pi/n seconds.
        tau_m = 0.02
        dt = tau_m * ORBIT
        assert ctl.timer_advance(0.0, dt, P.n) == pytest.approx(tau_m, rel=1e-12)
        assert dt == pytest.approx(114.2, abs=0.1)

    @given(st.floats(-5, 5, allow_nan=False))
    @settings(max_examples=200)
    def test_jump_decrease_bound(self, beta):
        u, _ = ctl.fire(BETA.command(None, (0.0, 0.0, 0.0, beta), P), P.umax)
        beta_plus = beta - 3.0 * u
        delta = v_beta(beta_plus) - v_beta(beta)
        assert delta <= -u * (beta / 3.0) + 1e-12
        assert abs(beta_plus) <= abs(beta)


class TestAlphaChannel:
    def test_input_examples(self):
        assert alpha_command(0.0, 1000.0) == pytest.approx(0.275)
        assert alpha_command(1.0, 0.0) == -0.5
        # Null set of the law: y = n alpha / 2.
        assert alpha_command(P.n * 40.0 / 2.0, 40.0) == pytest.approx(0.0, abs=1e-18)

    def test_guard_examples(self):
        h = alpha_guard(0.0, 1.0, 0.0, 0.01)
        assert h == (0.0, 1.0, 0.0)
        h = alpha_guard(1.0, 0.0, 0.0, 2.0)
        assert h[0] == pytest.approx(-P.n)
        h = alpha_guard(0.0, -1.0, 0.0, 2.0)
        assert h[1] == -1.0  # polarity veto

    def test_jump_saturated_example(self):
        # x=0, y=1, alpha=0: command -0.5 saturates to -0.2;
        # V_alpha drops from 1 to 0.68.
        post, ev = alpha_event(1.0, 0.0, 1.0)
        _, y_plus, a_plus, _ = cl.zeta_of(post, P)
        assert ev.u_applied == -0.2
        assert y_plus == pytest.approx(0.8)
        assert a_plus == pytest.approx(0.4 / P.n)
        assert post[cl.QA] == 1.0  # saturated: stays armed
        v0 = v_alpha(0.0, 1.0, 0.0)
        v1 = v_alpha(0.0, y_plus, a_plus)
        assert v0 == 1.0
        assert v1 == pytest.approx(0.68)
        assert v1 - v0 == pytest.approx(-0.32)

    def test_jump_null_command_is_noop(self):
        y, alpha = P.n * 10.0 / 2.0, 10.0
        post, ev = alpha_event(y, alpha, -1.0)
        _, y_plus, a_plus, _ = cl.zeta_of(post, P)
        assert ev.u_applied == 0.0 and y_plus == y and a_plus == alpha
        assert post[cl.QA] == 1.0  # zero command counts as unsaturated: toggles

    @given(
        y=st.floats(-1, 1, allow_nan=False),
        alpha=st.floats(-2000, 2000, allow_nan=False),
        x=st.floats(-500, 500, allow_nan=False),
    )
    @settings(max_examples=300)
    def test_jump_decrease_bound(self, y, alpha, x):
        u = alpha_command(y, alpha)
        s, _ = ctl.fire(u, P.umax)
        y_plus, a_plus = y + s, alpha - 2.0 * s / P.n
        delta = v_alpha(x, y_plus, a_plus) - v_alpha(x, y, alpha)
        scale = max(1.0, v_alpha(x, y, alpha))
        assert delta <= -2.0 * s * u + 1e-12 * scale

    def test_unsaturated_decrease_is_minus_two_u_squared(self):
        y, alpha = 0.3, 0.0
        u = alpha_command(y, alpha)
        assert abs(u) <= P.umax
        post, ev = alpha_event(y, alpha, 1.0)
        _, y_plus, a_plus, _ = cl.zeta_of(post, P)
        delta = v_alpha(0, y_plus, a_plus) - v_alpha(0, y, alpha)
        assert delta == pytest.approx(-2.0 * u * u, rel=1e-12)
        assert post[cl.QA] == -1.0
