"""Composition of the plant with the three channels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hybrid_rendezvous import closed_loop as cl
from hybrid_rendezvous import controllers as ctl
from hybrid_rendezvous.analysis import IMPULSE_FLOOR, check_jump_decrease
from hybrid_rendezvous.controllers import timer_advance
from hybrid_rendezvous.engine import SimulationOptions, rk4_step, simulate
from hybrid_rendezvous.hcw import (
    RX, RY, VX, VY, VZ, OrbitParams, hcw_derivative, hcw_stm, sat,
)

from conftest import flip_alpha_sign, zeta_b

P = OrbitParams()
THRESHOLDS = cl.DwellThresholds(z=0.01, beta=0.02, alpha=0.01)


class TestMakeState:
    def test_layout(self):
        s = cl.make_state(r=(1, 2, 3), v=(4, 5, 6), q_z=-1.0, tau_z=0.5,
                          tau_beta=0.25, q_alpha=1.0, tau_alpha=1.5)
        assert list(s[:6]) == [1, 2, 3, 4, 5, 6]
        assert s[cl.QZ] == -1.0 and s[cl.TAUZ] == 0.5
        assert s[cl.TAUB] == 0.25
        assert s[cl.QA] == 1.0 and s[cl.TAUA] == 1.5

    @pytest.mark.parametrize(
        "bad", [{"q_z": 0.0}, {"q_alpha": 2.0}, {"tau_z": -0.1}, {"tau_beta": 2.5}]
    )
    def test_range_validation(self, bad):
        with pytest.raises(ValueError):
            cl.make_state(**bad)


class TestFullFlow:
    def test_matches_plant_derivative(self):
        rng = np.random.default_rng(2)
        s = cl.make_state(r=rng.uniform(-100, 100, 3), v=rng.uniform(-1, 1, 3))
        d = cl.full_flow(s, P)
        assert np.array_equal(d[:6], hcw_derivative(s[:6], P))

    def test_timers_run_at_orbit_rate(self):
        s = cl.make_state(tau_z=0.5, tau_beta=0.5, tau_alpha=0.5)
        d = cl.full_flow(s, P)
        for idx in (cl.TAUZ, cl.TAUB, cl.TAUA):
            assert d[idx] == pytest.approx(P.n / (2 * np.pi))
        assert d[cl.QZ] == 0.0 and d[cl.QA] == 0.0

    def test_rest_state_with_saturated_timers_is_stationary(self):
        s = cl.make_state(tau_z=2.0, tau_beta=2.0, tau_alpha=2.0)
        assert np.array_equal(cl.full_flow(s, P), np.zeros(cl.DIM))

    def test_closed_form_propagator_matches_rk4(self):
        rng = np.random.default_rng(9)
        s = cl.make_state(
            r=rng.uniform(-100, 100, 3), v=rng.uniform(-0.5, 0.5, 3),
            tau_z=0.3, tau_beta=0.9, tau_alpha=1.4,
        )
        dt = 200.0
        exact = cl.make_flow_to(P)(s, dt)
        stepped = s
        for _ in range(100):
            stepped = rk4_step(stepped, cl.make_flow(P), dt / 100)
        assert np.max(np.abs(exact - stepped)) <= 1e-9 * max(1.0, np.max(np.abs(exact)))

    def test_transition_matrix_memo_is_exact(self, monkeypatch):
        # Each step equals a freshly built matrix and timer advance; only a
        # change of dt builds a new matrix.
        stm_calls = []

        def counted_stm(p, dt):
            stm_calls.append(dt)
            return hcw_stm(p, dt)

        monkeypatch.setattr(cl, "hcw_stm", counted_stm)
        flow_to = cl.make_flow_to(P)
        s = cl.make_state(
            r=(-60.0, 1000.0, 500.0), v=(0.01, -0.02, 0.05),
            tau_z=0.3, tau_beta=0.9, tau_alpha=1.4,
        )
        h = 10.0
        for dt in (h, h, h / 3, h, 2 * h):
            expected = np.array(s)
            expected[:6] = hcw_stm(P, dt) @ s[:6]
            for idx in (cl.TAUZ, cl.TAUB, cl.TAUA):
                expected[idx] = timer_advance(s[idx], dt, P.n)
            out = flow_to(s, dt)
            assert np.array_equal(out, expected)
            s = out
        assert len(stm_calls) == 4


class TestLyapunovAndDistance:
    def test_distance_zero_on_attractor(self):
        spec = cl.AttractorSpec(which="full", epsilon=1.0)
        assert cl.distance_to_attractor(cl.make_state(), P, spec) == 0.0

    def test_z_distance_is_sqrt_vz(self):
        s = cl.make_state(v=(0, 0, 0.5))
        spec = cl.AttractorSpec(which="z", epsilon=1.0)
        assert cl.lyapunov_values(s, P)["z"] == 0.25
        assert cl.distance_to_attractor(s, P, spec) == 0.5

    def test_reference_inplane_energy(self):
        # IC (-60, 0, 1000, 0): V_alpha + V_beta =
        # n^2 * 180^2 + (n^2/4) * 1000^2 + 0.396^2 = 0.49852.
        s = cl.make_state(r=(-60.0, 1000.0, 0.0))
        spec = cl.AttractorSpec(which="inplane", epsilon=1.0)
        expected = P.n**2 * 180.0**2 + 0.25 * P.n**2 * 1000.0**2 + 0.396**2
        assert expected == pytest.approx(0.49852, abs=1e-5)
        assert cl.distance_to_attractor(s, P, spec) ** 2 == pytest.approx(
            expected, rel=1e-12
        )

    def test_zeta_view_consistency(self):
        rng = np.random.default_rng(1)
        s = cl.make_state(r=rng.uniform(-100, 100, 3), v=rng.uniform(-1, 1, 3))
        from hybrid_rendezvous.hcw import to_zeta

        direct = to_zeta(np.array([s[RX], s[VX], s[RY], s[VY]]), P)
        assert np.max(np.abs(cl.zeta_of(s, P) - direct)) <= 1e-12 * max(
            1.0, np.max(np.abs(direct))
        )


STATE_BLOCKS = st.integers(1, 6).flatmap(
    lambda n: arrays(
        np.float64, (n, cl.DIM), elements=st.floats(-1e4, 1e4, allow_nan=False)
    )
)


class TestBlockViews:
    @given(states=STATE_BLOCKS)
    @settings(max_examples=100, deadline=None)
    def test_block_rows_equal_single_state_calls(self, states):
        zeta = cl.zeta_of(states, P)
        lyap = cl.lyapunov_values(states, P)
        specs = [cl.AttractorSpec(which=w) for w in cl.SUBSYSTEM_CHANNELS]
        dists = [cl.distance_to_attractor(states, P, spec) for spec in specs]
        assert zeta.shape == (len(states), 4)
        for i, s in enumerate(states):
            assert (zeta[i] == cl.zeta_of(s, P)).all()
            for name, value in cl.lyapunov_values(s, P).items():
                assert lyap[name][i] == value
            for spec, dist in zip(specs, dists):
                single = cl.distance_to_attractor(s, P, spec)
                assert type(single) is float
                assert dist[i] == single

    @given(states=STATE_BLOCKS)
    @settings(max_examples=100, deadline=None)
    def test_scalar_hot_path_equals_array_views(self, states):
        # Guards on a state's tolist() give the terms of the array itself;
        # each Lyapunov function on a tolist() equals its block view entry;
        # each jump map equals its formula evaluated through the block views.
        channels = cl.build_system(P, THRESHOLDS, "full").channels
        zeta = cl.zeta_of(states, P)
        lyap = cl.lyapunov_values(states, P)
        expected = {ch.name: [] for ch in channels}
        for i, s in enumerate(states):
            for ch in channels:
                assert ch.guard.terms(s.tolist()) == ch.guard.terms(s)
                assert ch.guard.margin(s.tolist()) == ch.guard.margin(s)
                assert cl.LYAPUNOV[ch.name](s.tolist(), P) == lyap[ch.name][i]
            _, y, al, beta = zeta[i]
            u_cmd = -s[VZ]
            u_z, unsaturated = ctl.fire(u_cmd, P.umax)
            post = np.array(s)
            post[VZ] = s[VZ] + u_z
            post[cl.QZ] = -s[cl.QZ] if unsaturated else s[cl.QZ]
            post[cl.TAUZ] = 0.0
            expected["z"].append((post, u_cmd, u_z, lyap["z"][i]))
            u_beta, _ = ctl.fire(beta / 3.0, P.umax)
            post = np.array(s)
            post[VY] += u_beta
            post[cl.TAUB] = 0.0
            expected["beta"].append((post, beta / 3.0, u_beta, lyap["beta"][i]))
            u_cmd = ctl.alpha_command(y, al, P)
            u_alpha, unsaturated = ctl.fire(u_cmd, P.umax)
            post = np.array(s)
            post[VX] += u_alpha
            post[cl.QA] = -s[cl.QA] if unsaturated else s[cl.QA]
            post[cl.TAUA] = 0.0
            expected["alpha"].append((post, u_cmd, u_alpha, lyap["alpha"][i]))
        for ch in channels:
            posts = np.array([post for post, *_ in expected[ch.name]])
            lyap_post = cl.lyapunov_values(posts, P)[ch.name]
            gain = 2.0 if ch.name == "alpha" else 1.0
            for i, (post, u_cmd, u, pre) in enumerate(expected[ch.name]):
                out = ch.jump(states[i], 0.0, 0)
                assert np.array_equal(out.state_post, post)
                assert out.u_commanded == u_cmd and out.u_applied == u
                assert out.lyap_pre == pre and out.lyap_post == lyap_post[i]
                assert out.bound == -gain * u * u_cmd


#: Random states of the full system: logic variables in {-1, 1}, timers in
#: [0, 2], positions up to 10 km and velocities up to 10 m/s.
FULL_STATES = st.builds(
    cl.make_state,
    r=st.tuples(*[st.floats(-1e4, 1e4)] * 3),
    v=st.tuples(*[st.floats(-10.0, 10.0)] * 3),
    q_z=st.sampled_from([-1.0, 1.0]),
    tau_z=st.floats(0.0, 2.0),
    tau_beta=st.floats(0.0, 2.0),
    q_alpha=st.sampled_from([-1.0, 1.0]),
    tau_alpha=st.floats(0.0, 2.0),
)

#: Each channel's thrust velocity, timer and logic variable (beta has none).
EDITS = {"z": (VZ, cl.TAUZ, cl.QZ), "beta": (VY, cl.TAUB, None), "alpha": (VX, cl.TAUA, cl.QA)}


class TestJumpMaps:
    @given(state=FULL_STATES, t=st.floats(0.0, 1e7), j_pre=st.integers(0, 10**6))
    @settings(max_examples=200, deadline=None)
    def test_one_firing_rule_on_every_channel(self, state, t, j_pre):
        for ch in cl.build_system(P, THRESHOLDS, "full").channels:
            thrust, timer, logic = EDITS[ch.name]
            ev = ch.jump(state, t, j_pre)
            post = ev.state_post
            assert ev.state_pre is state
            assert (ev.channel, ev.t, ev.j_pre) == (ch.name, t, j_pre)
            assert ev.margins == ch.guard.terms(state.tolist())
            assert ev.u_applied == sat(ev.u_commanded, P.umax)
            unsaturated = abs(ev.u_commanded) <= P.umax
            for k in (cl.QZ, cl.QA):
                flips = k == logic and unsaturated
                assert post[k] == (-state[k] if flips else state[k])
            for k in (cl.TAUZ, cl.TAUB, cl.TAUA):
                assert post[k] == (0.0 if k == timer else state[k])
            assert [k for k in range(6) if post[k] != state[k]] in ([], [thrust])
            assert post[thrust] == state[thrust] + ev.u_applied

    @given(state=FULL_STATES)
    @settings(max_examples=200, deadline=None)
    def test_jump_maps_move_zeta_by_the_input_matrix(self, state):
        # u_x moves (y, alpha) by (u, -2u/n) and u_y moves (x, beta) by
        # (-2u/n, -3u): the columns of the paper's input matrix.  The z
        # impulse leaves zeta alone and moves v_z by u.
        b = zeta_b(P.n)
        moves = {
            "alpha": np.append(b[:, 0], 0.0),
            "beta": np.append(b[:, 1], 0.0),
            "z": np.array([0.0, 0.0, 0.0, 0.0, 1.0]),
        }
        # zeta sums terms up to 3 |r| and 2 |v| / n.
        scale = 1.0 + max(np.abs(state[:3]).max(), np.abs(state[3:6]).max() / P.n)
        for ch in cl.build_system(P, THRESHOLDS, "full").channels:
            ev = ch.jump(state, 0.0, 0)
            pre, post = ((*cl.zeta_of(s, P), s[VZ]) for s in (ev.state_pre, ev.state_post))
            np.testing.assert_allclose(
                np.subtract(post, pre), ev.u_applied * moves[ch.name], rtol=0.0, atol=1e-13 * scale
            )


def jump_sets(state):
    """Names of the full system's channels whose guard holds at ``state``."""
    system = cl.build_system(P, THRESHOLDS, "full")
    return {ch.name for ch in system.channels if ch.guard.margin(state) >= 0.0}


class TestJumpSets:
    def test_flowing_state_has_empty_active_set(self):
        s = cl.make_state(r=(0, 0, 100.0))  # all timers at 0
        assert jump_sets(s) == set()

    def test_beta_only(self):
        s = cl.make_state(r=(0, 0, 100.0), tau_beta=0.02)
        assert jump_sets(s) == {"beta"}

    def test_simultaneous_z_and_alpha(self):
        s = cl.make_state(v=(1.0, 0, 0.1), tau_z=0.01, tau_alpha=0.01)
        assert jump_sets(s) == {"z", "alpha"}

    def test_build_system_rejects_unknown_subsystem(self):
        with pytest.raises(ValueError):
            cl.build_system(P, THRESHOLDS, subsystem="lateral")


def run_full_reference():
    system = cl.build_system(P, THRESHOLDS, subsystem="full")
    x0 = cl.make_state(
        r=(-60.0, 1000.0, 500.0), q_alpha=-1.0,
        tau_z=THRESHOLDS.z, tau_beta=THRESHOLDS.beta, tau_alpha=THRESHOLDS.alpha,
    )
    opts = SimulationOptions(step_h=10.0, t_max=3 * P.period, event_tol=1e-6)
    return simulate(system, x0, opts)


class TestCompositionProperties:
    @pytest.fixture(scope="class")
    @staticmethod
    def sol():
        return run_full_reference()

    def test_channel_decoupling_per_event(self, sol):
        # z impulses touch only (v_z, q_z, tau_z); beta only (v_y, tau_beta);
        # alpha only (v_x, q_alpha, tau_alpha).
        touched = {
            "z": {VZ, cl.QZ, cl.TAUZ},
            "beta": {VY, cl.TAUB},
            "alpha": {VX, cl.QA, cl.TAUA},
        }
        for ev in sol.events:
            diff = np.nonzero(ev.state_post != ev.state_pre)[0]
            assert set(diff) <= touched[ev.channel]

    def test_composite_certificate_monotone(self, sol):
        # V_z + beta^2 never increases across any jump.
        for ev in sol.events:
            pre = sum(cl.lyapunov_values(ev.state_pre, P)[k] for k in ("z", "beta"))
            post = sum(cl.lyapunov_values(ev.state_post, P)[k] for k in ("z", "beta"))
            assert post <= pre + 1e-12 * max(1.0, pre)

    def test_alpha_certificate_monotone_at_alpha_jumps(self, sol):
        for ev in sol.events:
            if ev.channel == "alpha":
                post = cl.lyapunov_values(ev.state_post, P)["alpha"]
                pre = cl.lyapunov_values(ev.state_pre, P)["alpha"]
                assert post <= pre + 1e-12

    def test_no_zeno_termination(self, sol):
        assert sol.status != "jump_budget_exhausted"

    def test_zero_events_have_zero_lyapunov_change(self, sol):
        for ev in sol.events:
            if abs(ev.u_applied) <= IMPULSE_FLOOR:
                assert ev.delta_lyap == pytest.approx(0.0, abs=1e-12)

    def test_corrupted_alpha_sign_breaks_certificate(self):
        system = flip_alpha_sign(cl.build_system(P, THRESHOLDS, subsystem="inplane"), P)
        x0 = cl.make_state(
            r=(-60.0, 1000.0, 0.0), q_alpha=-1.0,
            tau_beta=THRESHOLDS.beta, tau_alpha=THRESHOLDS.alpha,
        )
        opts = SimulationOptions(step_h=10.0, t_max=0.5 * P.period, event_tol=1e-6)
        sol = simulate(system, x0, opts)
        report = check_jump_decrease(sol)
        assert not report.passed
        assert any("alpha" in v.quantity for v in report.violations)
