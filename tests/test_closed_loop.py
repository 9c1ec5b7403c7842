"""Composition of the plant with the three channels."""

import math
import weakref
from dataclasses import fields, replace
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hybrid_rendezvous import closed_loop as cl
from hybrid_rendezvous import controllers as ctl
from hybrid_rendezvous.analysis import IMPULSE_FLOOR, check_jump_decrease
from hybrid_rendezvous.controllers import timer_advance
from hybrid_rendezvous.engine import IntegrationFailure, SimulationOptions, simulate
from hybrid_rendezvous.hcw import (
    RX, RY, RZ, VX, VY, VZ, OrbitParams, apply_stm, hcw_derivative, hcw_stm, sat, to_zeta,
)

from conftest import (
    criterion2_case, flip_alpha_sign, full_flow, plant_of, rk4, scenario_run, zeta_b,
)

P = OrbitParams()
THRESHOLDS = cl.DwellThresholds(z=0.01, beta=0.02, alpha=0.01)


def fresh_flow_to(s, dt, p=P):
    """``flow_to`` of ``s`` over ``dt`` from a freshly built transition
    matrix, applied in :func:`apply_stm`'s fixed order, and the three timer
    advances."""
    expected = np.array(s)
    expected[:6] = apply_stm(hcw_stm(p.n, dt), s[:6].tolist())
    for idx in (cl.TAUZ, cl.TAUB, cl.TAUA):
        expected[idx] = timer_advance(s[idx], dt, p.n)
    return expected


def test_channel_lists_agree():
    # build_system reads each listed channel's threshold by its name.
    names = tuple(f.name for f in fields(cl.DwellThresholds))
    assert tuple(cl.CHANNELS) == cl.SUBSYSTEM_CHANNELS["full"] == names


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
    """The RK4 oracle's vector field, ``conftest.full_flow``, and the
    propagators against it."""

    def test_matches_plant_derivative(self):
        rng = np.random.default_rng(2)
        s = cl.make_state(r=rng.uniform(-100, 100, 3), v=rng.uniform(-1, 1, 3))
        d = full_flow(P, s)
        assert np.array_equal(d[:6], hcw_derivative(s[:6], P))

    def test_timers_run_at_orbit_rate(self):
        s = cl.make_state(tau_z=0.5, tau_beta=0.5, tau_alpha=0.5)
        d = full_flow(P, s)
        for idx in (cl.TAUZ, cl.TAUB, cl.TAUA):
            assert d[idx] == pytest.approx(P.n / (2 * np.pi))
        assert d[cl.QZ] == 0.0 and d[cl.QA] == 0.0

    def test_rest_state_with_saturated_timers_is_stationary(self):
        s = cl.make_state(tau_z=2.0, tau_beta=2.0, tau_alpha=2.0)
        assert np.array_equal(full_flow(P, s), np.zeros(cl.DIM))

    def test_closed_form_propagator_matches_rk4(self):
        rng = np.random.default_rng(9)
        s = cl.make_state(
            r=rng.uniform(-100, 100, 3), v=rng.uniform(-0.5, 0.5, 3),
            tau_z=0.3, tau_beta=0.9, tau_alpha=1.4,
        )
        dt = 200.0
        exact, rk4_flow_to = cl.make_flow_to(P)(s, dt), cl.make_rk4_flow_to(P)
        stepped = s
        for _ in range(100):
            stepped = rk4_flow_to(stepped, dt / 100)
        assert np.max(np.abs(exact - stepped)) <= 1e-9 * max(1.0, np.max(np.abs(exact)))

    def test_transition_matrix_memo_is_exact(self, monkeypatch):
        # Each step equals a freshly built matrix and timer advance; only a
        # dt not in the bounded matrix cache builds a new matrix.  The
        # counting hcw_stm keys entries of its own, so the count starts from
        # an empty cache, whatever ran before: the real hcw_stm's has h.
        s = cl.make_state(
            r=(-60.0, 1000.0, 500.0), v=(0.01, -0.02, 0.05),
            tau_z=0.3, tau_beta=0.9, tau_alpha=1.4,
        )
        cl.make_flow_to(P)(s, 10.0)
        stm_calls = []

        def counted_stm(n, dt):
            stm_calls.append(dt)
            return hcw_stm(n, dt)

        monkeypatch.setattr(cl, "hcw_stm", counted_stm)
        flow_to = cl.make_flow_to(P)

        def step(s, dt):
            out = flow_to(s, dt)
            assert np.array_equal(out, fresh_flow_to(s, dt))
            return out

        h = 10.0
        for dt in (h, h, h / 3, h, 2 * h):
            s = step(s, dt)
        assert len(stm_calls) == 3  # the revisits of h are hits
        # 300 new dt: only the 256 latest stay cached, so a revisit of the
        # oldest of those is a hit and one of the first of the 300 a build.
        for k in range(300):
            s = step(s, 1000.0 + k)
        assert len(stm_calls) == 303
        s = step(s, 1000.0 + 300 - 256)
        assert len(stm_calls) == 303
        step(s, 1000.0)
        assert stm_calls[-1] == 1000.0 and len(stm_calls) == 304


class TestLyapunovAndDistance:
    def test_distance_zero_on_attractor(self):
        assert cl.distance_to_attractor(cl.make_state(), P, "full") == 0.0

    def test_z_distance_is_sqrt_vz(self):
        s = cl.make_state(v=(0, 0, 0.5))
        assert cl.lyapunov_values(s, P)["z"] == 0.25
        assert cl.distance_to_attractor(s, P, "z") == 0.5

    def test_reference_inplane_energy(self):
        # IC (-60, 0, 1000, 0): V_alpha + V_beta =
        # n^2 * 180^2 + (n^2/4) * 1000^2 + 0.396^2 = 0.49852.
        s = cl.make_state(r=(-60.0, 1000.0, 0.0))
        expected = P.n**2 * 180.0**2 + 0.25 * P.n**2 * 1000.0**2 + 0.396**2
        assert expected == pytest.approx(0.49852, abs=1e-5)
        assert cl.distance_to_attractor(s, P, "inplane") ** 2 == pytest.approx(
            expected, rel=1e-12
        )

    def test_zeta_view_consistency(self):
        rng = np.random.default_rng(1)
        s = cl.make_state(r=rng.uniform(-100, 100, 3), v=rng.uniform(-1, 1, 3))
        direct = to_zeta(plant_of([s[RX], s[VX], s[RY], s[VY]]), P)
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
    def test_to_zeta_reads_every_layout(self, states):
        # One definition for the 11 floats of the guards and jump maps, the
        # six plant floats, and the columns of a block's view, bit for bit.
        columns = to_zeta(states.T, P)
        for i, s in enumerate(states):
            full = to_zeta(s.tolist(), P)
            assert all(type(v) is float for v in full)
            assert to_zeta(s.tolist()[:6], P) == full
            assert tuple(col[i] for col in columns) == full

    @given(states=STATE_BLOCKS)
    @settings(max_examples=100, deadline=None)
    def test_block_rows_equal_single_state_calls(self, states):
        zeta = cl.zeta_of(states, P)
        lyap = cl.lyapunov_values(states, P)
        dists = [cl.distance_to_attractor(states, P, w) for w in cl.SUBSYSTEM_CHANNELS]
        assert zeta.shape == (len(states), 4)
        for i, s in enumerate(states):
            assert (zeta[i] == cl.zeta_of(s, P)).all()
            for name, value in cl.lyapunov_values(s, P).items():
                assert lyap[name][i] == value
            for which, dist in zip(cl.SUBSYSTEM_CHANNELS, dists):
                single = cl.distance_to_attractor(s, P, which)
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
                law = cl.CHANNELS[ch.name]
                tau_m = getattr(THRESHOLDS, ch.name)
                assert law.guard(P, tau_m, s.tolist()) == ch.guard.terms(s)
                zeta_s = to_zeta(s.tolist(), P)
                assert law.lyapunov(s.tolist(), zeta_s, P) == lyap[ch.name][i]
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
            u_cmd = cl.CHANNELS["alpha"].command(None, zeta[i], P)
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
                out_state, out = ch.jump(states[i], 0.0, 0)
                assert np.array_equal(out_state, post)
                assert out.u_commanded == u_cmd and out.u_applied == u
                assert out.lyap_pre == pre and out.lyap_post == lyap_post[i]
                assert out.bound == -gain * u * u_cmd


class TestZetaOncePerState:
    def test_to_zeta_calls(self, monkeypatch):
        # One coordinate change per state: one per lyapunov_values call, and
        # one each for the pre- and post-jump state of every jump map, plus
        # one in the alpha guard, which computes its own view.
        calls = []

        def counting(s, p):
            calls.append(1)
            return to_zeta(s, p)

        monkeypatch.setattr(cl, "to_zeta", counting)
        state = cl.make_state(r=(-60.0, 1000.0, 500.0), tau_z=0.01, tau_beta=0.02,
                              tau_alpha=0.01)
        for s in (state, np.stack([state, state])):
            calls.clear()
            cl.lyapunov_values(s, P)
            assert len(calls) == 1
        for ch in cl.build_system(P, THRESHOLDS, "full").channels:
            calls.clear()
            ch.jump(state, 0.0, 0)
            assert len(calls) == (3 if ch.name == "alpha" else 2), ch.name


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


#: Step lengths of the localization probes: dyadic fractions ``k h/2^m`` of
#: a 10 s step, which repeat, or any length up to 600 s, which do not.
PROBE_DTS = st.integers(0, 4).flatmap(
    lambda m: st.integers(1, 2**m).map(lambda k: 10.0 * k / 2**m)
) | st.floats(0.0, 600.0, exclude_min=True)


class TestFlowToCache:
    @given(
        state=FULL_STATES,
        # One step of at most 600 s moves a timer by at most 0.105, so timers
        # in [0.9, 1.1] advance on both sides of the knee at 1.
        knee=st.none() | st.tuples(*[st.floats(0.9, 1.1)] * 3),
        dts=st.lists(PROBE_DTS, min_size=1, max_size=40),
    )
    @settings(max_examples=200, deadline=None)
    def test_cached_matrices_equal_fresh_builds(self, state, knee, dts):
        if knee is not None:
            state[[cl.TAUZ, cl.TAUB, cl.TAUA]] = knee
        flow_to = cl.make_flow_to(P)
        for dt in dts:
            assert np.array_equal(flow_to(state, dt), fresh_flow_to(state, dt))

    def test_propagators_share_no_cache(self):
        # One dt on two orbit rates: each propagator applies its own rate's
        # matrix, whichever was called first.
        s = cl.make_state(r=(-60.0, 1000.0, 500.0), v=(0.01, -0.02, 0.05))
        slow, fast = OrbitParams(n=0.0011), OrbitParams(n=0.0021)
        flows = {p: cl.make_flow_to(p) for p in (slow, fast)}
        for p in (slow, fast, slow):
            assert np.array_equal(flows[p](s, 30.0), fresh_flow_to(s, 30.0, p))
        assert not np.array_equal(flows[slow](s, 30.0), flows[fast](s, 30.0))

    def test_a_miss_calls_hcw_stm_as_it_is_then(self, monkeypatch):
        # The benchmark's tracer counts matrix builds by replacing
        # closed_loop.hcw_stm: a propagator built before the replacement
        # calls it on each miss, and calls nothing on a hit.  The cache is
        # keyed by the hcw_stm in force at the call, so the replacement's
        # first 10.0 is a miss.
        s = cl.make_state(r=(-60.0, 1000.0, 500.0), v=(0.01, -0.02, 0.05))
        before, after = [], []

        def counted(calls, n, dt):
            calls.append(dt)
            return hcw_stm(n, dt)

        monkeypatch.setattr(cl, "hcw_stm", partial(counted, before))
        flow_to = cl.make_flow_to(P)
        flow_to(s, 10.0)
        monkeypatch.setattr(cl, "hcw_stm", partial(counted, after))
        for dt in (10.0, 20.0, 20.0):
            assert np.array_equal(flow_to(s, dt), fresh_flow_to(s, dt))
        assert before == [10.0] and after == [10.0, 20.0]

    def test_runs_are_identical_from_an_empty_or_a_warm_cache(self, monkeypatch):
        # Criterion 2's random starts on each subsystem, each run once from
        # an empty matrix cache, and once after systems with other dwell
        # thresholds on the same orbit warmed it.
        rng = np.random.default_rng(30)
        cases = [
            (subsystem, *criterion2_case(rng, subsystem, P, THRESHOLDS))
            for subsystem in ("z", "inplane", "full")
            for _ in range(4)
        ]
        builds = []

        def counted(n, dt):
            builds.append(dt)
            return hcw_stm(n, dt)

        def run(subsystem, x0, opts, thresholds=THRESHOLDS):
            sol = simulate(cl.build_system(P, thresholds, subsystem), x0, opts)
            return sol.t.tobytes(), sol.j.tobytes(), sol.states.tobytes(), repr(sol.events), sol.status

        cold = []
        for case in cases:
            # a new hcw_stm keys entries of its own: the cache starts empty
            monkeypatch.setattr(cl, "hcw_stm", partial(counted))
            cold.append(run(*case))
        cold_builds = len(builds)
        for case in cases:
            run(*case, thresholds=cl.DwellThresholds(z=0.05, beta=0.05, alpha=0.05))
        builds.clear()
        assert [run(*case) for case in cases] == cold
        assert len(builds) < cold_builds

    def test_orbits_with_one_rate_share_their_matrices(self, monkeypatch):
        # The matrix depends on n and dt alone: systems that differ in umax
        # only, as the values of a umax sweep do, build one matrix per dt.
        s = cl.make_state(r=(-60.0, 1000.0, 500.0), v=(0.01, -0.02, 0.05))
        builds = []

        def counted(n, dt):
            builds.append((n, dt))
            return hcw_stm(n, dt)

        monkeypatch.setattr(cl, "hcw_stm", counted)
        for umax in (0.2, 0.05):
            p = OrbitParams(n=0.0011, umax=umax)
            assert np.array_equal(cl.build_system(p, THRESHOLDS, "z").flow_to(s, 30.0),
                                  fresh_flow_to(s, 30.0, p))
        assert builds == [(0.0011, 30.0)]

    def test_matrices_beyond_the_bound_are_freed(self):
        # No propagator is kept once its system is gone, and the one matrix
        # cache holds the latest bound of twice as many steps.
        bound = cl._stm.cache_info().maxsize
        s = cl.make_state(r=(-60.0, 1000.0, 500.0), v=(0.01, -0.02, 0.05))
        flow_to = cl.build_system(P, THRESHOLDS, "z").flow_to
        for k in range(2 * bound):
            flow_to(s, 1000.0 + k)
        alive = weakref.ref(flow_to)
        del flow_to
        assert alive() is None
        assert cl._stm.cache_info().currsize == bound


class TestRk4Flow:
    """The RK4 propagator that ``build_system(..., integrator="rk4")``
    installs as ``flow_to``: one classical step per call."""

    flow_to = staticmethod(cl.build_system(P, THRESHOLDS, integrator="rk4").flow_to)

    def test_oscillator_against_closed_form(self):
        # z dynamics from (r_z, v_z) = (1, 0): r_z(t) = cos(n t).
        s = self.flow_to(cl.make_state(r=(0.0, 0.0, 1.0)), 1.0)
        assert s[RZ] == pytest.approx(np.cos(P.n), abs=1e-12)

    def test_equilibrium_is_fixed(self):
        # at rest with saturated timers every derivative is zero
        x = cl.make_state(tau_z=2.0, tau_beta=2.0, tau_alpha=2.0)
        assert self.flow_to(x, 17.0).tobytes() == x.tobytes()

    def test_timer_linear_segment(self):
        # taudot = (n/2pi)(1 - max(tau - 1, 0)) is exactly linear below 1.
        s = self.flow_to(cl.make_state(tau_z=0.0), 0.25 * P.period)
        assert s[cl.TAUZ] == pytest.approx(0.25, rel=1e-12)

    def test_nonfinite_derivative_raises(self, monkeypatch):
        # The plant's stages overflow from v_x = 1e308; a timer's, here, from
        # a rate that is not finite.  Each block checks its last stage, and
        # a timer below the knee takes its one-rate step only on a finite
        # rate (-inf would pass its test tau + h * k1 <= 1).
        match = "^non-finite derivative encountered$"
        with pytest.raises(IntegrationFailure, match=match):
            self.flow_to(cl.make_state(v=(1e308, 0.0, 0.0)), 10.0)
        for rate in (np.inf, -np.inf, np.nan):
            monkeypatch.setattr(ctl, "timer_rate", lambda tau, n: rate)
            with pytest.raises(IntegrationFailure, match=match):
                self.flow_to(cl.make_state(), 10.0)

    @given(
        state=FULL_STATES,
        # One step of at most 600 s moves a timer by at most 0.105, so timers
        # in [0.9, 1.1] put RK4 stages on both sides of the dead-zone knee.
        knee=st.none() | st.tuples(*[st.floats(0.9, 1.1)] * 3),
        h=st.floats(0.0, 600.0, exclude_min=True),
    )
    @example(state=cl.make_state(r=(-60.0, 1000.0, 5.0), tau_beta=0.95), knee=None, h=600.0)
    @settings(max_examples=200, deadline=None)
    def test_step_equals_array_form_bit_for_bit(self, state, knee, h):
        if knee is not None:
            state[[cl.TAUZ, cl.TAUB, cl.TAUA]] = knee
        # the propagator steps each block alone: the bits of one array-form
        # RK4 step over the whole 11-vector field
        got = cl.make_rk4_flow_to(P)(state, h)
        expected = rk4(lambda s: np.array(full_flow(P, s)), state, h)
        assert np.array_equal(got, expected)
        assert got.tobytes() == expected.tobytes()  # signed zeros too

    @given(
        taus=st.tuples(*[st.floats(0.0, 2.0, exclude_max=True)] * 3),
        h=st.floats(0.0, 600.0, exclude_min=True),
    )
    @example(taus=(0.5, 1.0, 1.5), h=60.0)
    @settings(max_examples=200, deadline=None)
    def test_timer_step_against_closed_form(self, taus, h):
        # Below the knee the rate is one constant, so RK4 is exact but for
        # rounding; from tau >= 1 on, tau relaxes as 2 - (2 - tau) e^{-k t}
        # and RK4's update truncates e^{-kh} after its (kh)^4 term.  A step
        # across the knee is held by the bit-for-bit test above.
        state = cl.make_state(tau_z=taus[0], tau_beta=taus[1], tau_alpha=taus[2])
        got = cl.make_rk4_flow_to(P)(state, h)
        kh = P.n / (2.0 * math.pi) * h
        for tau, idx in zip(taus, (cl.TAUZ, cl.TAUB, cl.TAUA)):
            if tau + kh <= 1.0:
                tol = 4.0 * math.ulp(1.0)
            elif tau >= 1.0:
                tol = (2.0 - tau) * kh**5 / 120.0 + 4.0 * math.ulp(2.0)
            else:
                continue
            assert abs(got[idx] - timer_advance(tau, h, P.n)) <= tol, (tau, idx)

    def test_one_step_calls_the_traced_rates(self, monkeypatch):
        # The benchmark tracer counts calls of closed_loop.hcw_derivative
        # (hcw.derivative.calls) and controllers.timer_rate (part of
        # controllers.timer.calls), patched after the propagator is built:
        # one RK4 step takes four plant derivatives, and four rates a timer
        # but one for a timer whose step stays at or below the knee.
        flow_to = cl.make_rk4_flow_to(P)
        calls = {"derivative": 0, "timer_rate": 0}

        def counted(key, fn):
            def wrapper(*args):
                calls[key] += 1
                return fn(*args)

            return wrapper

        monkeypatch.setattr(cl, "hcw_derivative", counted("derivative", cl.hcw_derivative))
        monkeypatch.setattr(ctl, "timer_rate", counted("timer_rate", ctl.timer_rate))
        # 10 s moves a timer by 0.00175: below, across and above the knee
        state = cl.make_state(r=(-60.0, 1000.0, 5.0), tau_z=0.3, tau_beta=0.999, tau_alpha=1.5)
        flow_to(state, 10.0)
        assert calls == {"derivative": 4, "timer_rate": 1 + 4 + 4}

    def test_build_selects_the_propagator(self):
        # build_system validates the integrator, as the entry point it is
        rk4_system = cl.build_system(P, THRESHOLDS, "z", integrator="rk4")
        state, h = cl.make_state(r=(-60.0, 1000.0, 5.0), tau_z=0.3), 10.0
        assert rk4_system.flow is None and cl.build_system(P, THRESHOLDS, "z").flow is None
        assert rk4_system.flow_to(state, h).tobytes() == cl.make_rk4_flow_to(P)(state, h).tobytes()
        assert cl.build_system(P, THRESHOLDS, "z").flow_to(state, h).tobytes() == (
            cl.make_flow_to(P)(state, h).tobytes()
        )
        with pytest.raises(ValueError, match="^unknown integrator 'euler'$"):
            cl.build_system(P, THRESHOLDS, "z", integrator="euler")


#: Each channel's thrust velocity, timer and logic variable (beta has none).
EDITS = {"z": (VZ, cl.TAUZ, cl.QZ), "beta": (VY, cl.TAUB, None), "alpha": (VX, cl.TAUA, cl.QA)}


class TestJumpMaps:
    @given(state=FULL_STATES, t=st.floats(0.0, 1e7), j_pre=st.integers(0, 10**6))
    @settings(max_examples=200, deadline=None)
    def test_one_firing_rule_on_every_channel(self, state, t, j_pre):
        for ch in cl.build_system(P, THRESHOLDS, "full").channels:
            thrust, timer, logic = EDITS[ch.name]
            pre = state.tobytes()
            post, ev = ch.jump(state, t, j_pre)
            # the state handed in is the pre-jump state, left as it was
            assert post is not state and state.tobytes() == pre
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
            post_state, ev = ch.jump(state, 0.0, 0)
            pre, post = ((*cl.zeta_of(s, P), s[VZ]) for s in (state, post_state))
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


def event_states(sol):
    """Each event of ``sol`` with its pre- and post-jump sample rows."""
    rows = sol.event_rows()
    return zip(sol.events, sol.states[rows - 1], sol.states[rows])


def within_dwell_bound(times, tau_m, period):
    """Whether the last of one channel's firing times ``times``, in order,
    keeps the dwell bound: it is later than the firing before, and as the
    k-th firing at ``t``, ``k <= 2 + floor(t / (tau_m period))``.

    Each firing resets the channel's timer to 0, and the timer climbs at rate
    ``1 / period`` up to 1 and slower after, so in exact arithmetic firings
    are at least ``tau_m`` periods apart and ``k <= 1 + floor(...)``.  Landing
    rounding needs the ``+ 1``: where flow steps end exactly on the dwell
    (``step_h = tau_m period / m``), the float sum of the steps falls short
    of ``tau_m period`` by up to 1.6e-14 of it, and ``1 + floor`` fails by
    one (:class:`TestDwellBound` without the ``+ 1`` fails on such a run, as
    at ``n = 2^-7``, ``tau_m = 1`` and ``m = 1``).
    """
    k, t = len(times), times[-1]
    return (k == 1 or times[-2] < t) and k <= 2 + math.floor(t / (tau_m * period))


class TestDwellBound:
    """The dwell timers alone bound a run's jumps: no jump budget is needed
    (Hespanha & Morse, 1999; Goebel, Sanfelice & Teel, 2012)."""

    @given(
        state=FULL_STATES,
        n=st.floats(1e-4, 1e-2),
        tau_m=st.tuples(*[st.floats(1e-4, 2.0, exclude_max=True)] * 3),
        # The horizon and the step are in units of the shortest dwell: a tiny
        # tau^M asks for many firings an orbit, as a tiny step_h asks for
        # many steps.  Steps of 1/m of it end exactly on that dwell.
        horizon=st.floats(0.0, 40.0),
        step=st.integers(1, 5).map(lambda m: 1.0 / m) | st.floats(0.05, 2.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_each_firing_keeps_its_channels_dwell_bound(self, state, n, tau_m, horizon, step):
        # Each firing is checked as it happens, so a jump map that leaves its
        # channel in its jump set fails here instead of draining forever.
        p = OrbitParams(n=n)
        thresholds = cl.DwellThresholds(*tau_m)
        dwell = min(tau_m) * p.period
        fired = []

        def checked(ch):
            tm, times = getattr(thresholds, ch.name), []

            def jump(state, t, j_pre):
                times.append(t)
                fired.append(ch.name)
                assert within_dwell_bound(times, tm, p.period), (ch.name, tm, times[-2:])
                return ch.jump(state, t, j_pre)

            return replace(ch, jump=jump)

        system = cl.build_system(p, thresholds, "full")
        system = replace(system, channels=tuple(map(checked, system.channels)))
        opts = SimulationOptions(step_h=step * dwell, t_max=horizon * dwell, event_tol=1e-6)
        sol = simulate(system, state, opts)
        assert fired == [ev.channel for ev in sol.events]


class TestCompositionProperties:
    @pytest.fixture(scope="class")
    @staticmethod
    def sol():
        return scenario_run("full_ref")[1]

    def test_channel_decoupling_per_event(self, sol):
        # z impulses touch only (v_z, q_z, tau_z); beta only (v_y, tau_beta);
        # alpha only (v_x, q_alpha, tau_alpha).
        touched = {
            "z": {VZ, cl.QZ, cl.TAUZ},
            "beta": {VY, cl.TAUB},
            "alpha": {VX, cl.QA, cl.TAUA},
        }
        for ev, state_pre, state_post in event_states(sol):
            diff = np.nonzero(state_post != state_pre)[0]
            assert set(diff) <= touched[ev.channel]

    def test_composite_certificate_monotone(self, sol):
        # V_z + beta^2 never increases across any jump.
        for _, state_pre, state_post in event_states(sol):
            pre = sum(cl.lyapunov_values(state_pre, P)[k] for k in ("z", "beta"))
            post = sum(cl.lyapunov_values(state_post, P)[k] for k in ("z", "beta"))
            assert post <= pre + 1e-12 * max(1.0, pre)

    def test_alpha_certificate_monotone_at_alpha_jumps(self, sol):
        for ev, state_pre, state_post in event_states(sol):
            if ev.channel == "alpha":
                post = cl.lyapunov_values(state_post, P)["alpha"]
                pre = cl.lyapunov_values(state_pre, P)["alpha"]
                assert post <= pre + 1e-12

    def test_dwell_bound_per_channel(self, sol):
        # Every firing of the run keeps its channel's dwell bound (TestDwellBound).
        thresholds = scenario_run("full_ref")[0].thresholds()
        times = {name: [] for name in cl.CHANNELS}
        for ev in sol.events:
            times[ev.channel].append(ev.t)
            tau_m = getattr(thresholds, ev.channel)
            assert within_dwell_bound(times[ev.channel], tau_m, P.period), ev
        assert all(times.values())

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
