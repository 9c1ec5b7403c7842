"""Hybrid executor: integration, event localization, jump resolution."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybrid_rendezvous import closed_loop, controllers, engine
from hybrid_rendezvous.analysis import budget
from hybrid_rendezvous.closed_loop import (
    QZ,
    TAUZ,
    DwellThresholds,
    build_system,
    make_state,
)
from hybrid_rendezvous.engine import (
    GuardConjunction,
    IntegrationFailure,
    JumpChannel,
    SimulationOptions,
    first_active,
    locate_event,
    resolve_jumps,
    simulate,
)
from hybrid_rendezvous.config import parse_config
from hybrid_rendezvous.hcw import RZ, VZ, OrbitParams

from conftest import RUNS, arcs_by_loop, scenario_path, scenario_run, stm_matrix

P = OrbitParams()
THRESHOLDS = DwellThresholds(z=0.01, beta=0.02, alpha=0.01)


def opts(**kw):
    base = dict(step_h=30.0, t_max=2 * P.period, event_tol=1e-6)
    base.update(kw)
    return SimulationOptions(**base)


class TestLocateEvent:
    """Localize the upward zero crossing of r_z(t) = cos(n t) at t = 3pi/2n."""

    @staticmethod
    def flow_to(state, dt):
        return stm_matrix(P, dt) @ state

    @staticmethod
    def inside(state):
        return state[RZ] >= 0.0

    def setup_method(self):
        self.s0 = np.zeros(6)
        self.s0[RZ] = 1.0
        self.t_cross = 1.5 * np.pi / P.n

    def test_finds_analytic_zero(self):
        t_a = self.t_cross - 200.0
        t_b = self.t_cross + 200.0
        state_a = self.flow_to(self.s0, t_a)
        state_b = self.flow_to(self.s0, t_b)
        t_star, state_star, found = locate_event(
            self.inside,
            lambda s, dt: self.flow_to(s, dt),
            state_a,
            state_b,
            t_a,
            t_b,
            event_tol=1e-6,
            found_b=self.inside(state_b),
        )
        assert abs(t_star - self.t_cross) <= 1e-6
        assert self.inside(state_star)
        # the answer handed back is the query's at the landing state
        assert found == self.inside(state_star)

    def test_rejects_bracket_already_inside(self, engine_calls):
        # locate_event no longer asks state_a, so the caller keeps this: on
        # every call simulate makes over ENGINE_RUNS, the bracket starts outside.
        for run, (_, located, *_) in engine_calls.items():
            assert located, run
            assert all(found_a is None for found_a, *_ in located), run


class TestSimulationOptions:
    @pytest.mark.parametrize(
        "bad",
        [
            {"step_h": 0.0},
            {"t_max": -1.0},
            {"event_tol": 0.0},
            {"event_tol": 60.0},  # must stay below step_h
            {"event_tol": float("nan")},
            {"t_max": float("nan")},
            {"event_tol": 1e-15},  # below the float spacing at t_max, 1.4e-14
            {"t_max": math.inf},
            {"step_h": float("nan")},
        ],
    )
    def test_validation(self, bad):
        base = dict(step_h=30.0, t_max=100.0)
        base.update(bad)
        # every bad horizon, negative, NaN or infinite, is named as such
        match = "t_max must be finite" if "t_max" in bad else None
        with pytest.raises(ValueError, match=match):
            SimulationOptions(**base)


class TestFirstActive:
    @given(margins=st.lists(st.floats(-1.0, 1.0), max_size=5))
    @settings(max_examples=200, deadline=None)
    def test_first_nonnegative_margin_in_order(self, margins):
        # Channel i's guard has the single margin margins[i]; every guard
        # evaluation is logged by channel index, and each reads the very
        # list of floats handed in.
        evaluated = []
        values = [0.0, 1.0, -2.0]

        def channel(i, m):
            def terms(read):
                assert read is values
                evaluated.append(i)
                return (m,)

            return JumpChannel(name=str(i), guard=GuardConjunction(terms), jump=None)

        channels = [channel(i, m) for i, m in enumerate(margins)]
        active = [i for i, m in enumerate(margins) if m >= 0.0]
        ch = first_active(channels, values)
        if active:
            assert ch is channels[active[0]]
            assert evaluated == list(range(active[0] + 1))
        else:
            assert ch is None
            assert evaluated == list(range(len(margins)))


class TestResolveJumps:
    def system(self, subsystem="full"):
        return build_system(P, THRESHOLDS, subsystem=subsystem)

    def test_single_active_channel_toggles_and_resets(self):
        # Unsaturated z firing: q_z flips, tau_z resets to 0.
        system = self.system("z")
        state = make_state(v=(0, 0, 0.1), tau_z=THRESHOLDS.z)
        ch = first_active(system.channels, state.tolist())
        posts, events = resolve_jumps(state, 0.0, 0, ch, system.channels)
        assert [e.channel for e in events] == ["z"]
        # The event records the guard terms at the trigger state.
        assert events[0].margins == system.channels[0].guard.terms(state.tolist())
        (out,) = posts
        assert out[QZ] == -1.0
        assert out[TAUZ] == 0.0
        assert out[VZ] == 0.0

    def test_simultaneous_channels_fire_in_priority_order(self):
        # z and beta both active at the same instant: z first, then beta,
        # whose guard (timer only) is untouched by the z jump.
        system = self.system("full")
        state = make_state(
            r=(-60.0, 1000.0, 0.0),
            v=(0, 0, 0.1),
            tau_z=THRESHOLDS.z,
            tau_beta=THRESHOLDS.beta,
        )
        ch = first_active(system.channels, state.tolist())
        posts, events = resolve_jumps(state, 0.0, 0, ch, system.channels)
        assert len(posts) == len(events)
        assert [e.channel for e in events][:2] == ["z", "beta"]
        assert [e.j_pre for e in events] == list(range(len(events)))
        assert all(e.t == 0.0 for e in events)

    def test_priority_permutation_changes_order(self):
        system = self.system("full")
        state = make_state(
            r=(-60.0, 1000.0, 0.0),
            v=(0, 0, 0.1),
            tau_z=THRESHOLDS.z,
            tau_beta=THRESHOLDS.beta,
        )
        z, beta, alpha = system.channels
        channels = (beta, alpha, z)
        ch = first_active(channels, state.tolist())
        _, events = resolve_jumps(state, 0.0, 0, ch, channels)
        assert events[0].channel == "beta"

    def test_empty_active_set_is_an_error(self, engine_calls):
        # resolve_jumps no longer asks its start state (handed None, it would
        # fire nothing), so the caller keeps this: on every call simulate
        # makes over ENGINE_RUNS, the channel handed in is active, the first one.
        for run, (_, _, resolved, *_) in engine_calls.items():
            assert resolved, run
            for _, ch, first in resolved:
                assert ch is not None, run
                assert ch is first, run


class TestSimulate:
    def test_immediate_jump_at_t0(self):
        # r_z=0, v_z>0, q_z=1, tau at threshold: margins (0, +, 0), jump now.
        system = build_system(P, THRESHOLDS, subsystem="z")
        x0 = make_state(v=(0, 0, 0.1), tau_z=THRESHOLDS.z)
        sol = simulate(system, x0, opts(t_max=10.0))
        assert sol.events and sol.events[0].t == 0.0
        assert sol.events[0].u_applied == pytest.approx(-0.1)

    def test_attractor_is_invariant(self):
        system = build_system(P, THRESHOLDS, subsystem="full")
        sol = simulate(system, make_state(), opts(t_max=P.period))
        assert np.all(np.abs(sol.states[:, :6]) == 0.0)
        assert all(abs(e.u_applied) == 0.0 for e in sol.events)

    def test_hybrid_time_monotone(self):
        sol = scenario_run("z_fast_2orbits")[1]
        assert np.all(np.diff(sol.t) >= 0.0)
        dj = np.diff(sol.j)
        assert np.all((dj == 0) | (dj == 1))
        assert sol.j[-1] == len(sol.events)

    def test_determinism_bit_identical(self):
        system = build_system(P, THRESHOLDS, subsystem="full")
        x0 = make_state(
            r=(-60.0, 1000.0, 500.0), q_alpha=-1.0,
            tau_z=THRESHOLDS.z, tau_beta=THRESHOLDS.beta, tau_alpha=THRESHOLDS.alpha,
        )
        a = simulate(system, x0, opts(step_h=10.0, t_max=2 * P.period))
        b = simulate(system, x0, opts(step_h=10.0, t_max=2 * P.period))
        assert np.array_equal(a.t, b.t)
        assert np.array_equal(a.states, b.states)
        assert len(a.events) == len(b.events)

    def test_empty_horizon_produces_no_events(self):
        system = build_system(P, THRESHOLDS, subsystem="z")
        x0 = make_state(v=(0, 0, 0.1), tau_z=THRESHOLDS.z)  # in the jump set
        sol = simulate(system, x0, opts(t_max=0.0))
        assert sol.events == []
        assert len(sol.t) == 1

    def test_dwell_time_spacing(self):
        cfg, sol, p, _, _ = scenario_run("z_fast_2orbits")
        times = [e.t for e in sol.events]
        min_gap = cfg.tau_m_z * p.period - cfg.options().event_tol
        assert all(b - a >= min_gap for a, b in zip(times, times[1:]))

    @pytest.mark.parametrize("name, impulses", [("z_fast", 4), ("full_ref", 12)])
    def test_event_resolution_changes_which_impulses_fire(self, name, impulses):
        # Pins a knob dependence the paper's laws do not have: a 1e-3 s
        # bisection bracket books one more nonzero z impulse than the default
        # (z_fast's at t ~ 7254.2 s).  The CLI always runs at the default; a
        # minimum impulse bit in the jump sets (ROADMAP item 3) should move it.
        cfg, sol, *_ = scenario_run(name)
        options = dataclasses.replace(cfg.options(), event_tol=1e-3)
        coarse = simulate(scenario_system(cfg), cfg.initial_state(), options)
        fine, coarse = budget(sol).impulse_counts, budget(coarse).impulse_counts
        assert sum(fine.values()) == impulses and coarse == {**fine, "z": fine["z"] + 1}

    def test_nonfinite_initial_state_raises(self):
        system = build_system(P, THRESHOLDS, subsystem="z")
        x0 = make_state()
        x0[RZ] = np.nan
        with pytest.raises(IntegrationFailure, match="^non-finite initial state$"):
            simulate(system, x0, opts())

    @pytest.mark.parametrize("integrator", ["closed_form", "rk4"])
    @pytest.mark.parametrize(
        "bad, stages",
        [(np.inf, [1e308] * 4), (-np.inf, [-1e308] * 4), (np.nan, [1e308, -1e308, 1e308, 0.0])],
        ids=["inf", "-inf", "nan"],
    )
    def test_nonfinite_flow_state_raises(self, integrator, bad, stages, monkeypatch):
        # x0 stays in place on the first step, and the second, a plain step,
        # puts `bad` in component 1: no guard ever holds.  Under closed_form a
        # stub propagator does it.  Under rk4 the system's own propagator
        # does, with its timers saturated and a stub plant derivative, zero on
        # the first step's four stages, then `stages` in component 1 on the
        # second's, finite, whose update overflows to `bad`.
        x0 = make_state(r=(1.0, 2.0, 3.0), tau_z=2.0, tau_beta=2.0, tau_alpha=2.0)
        calls, asked = [], []

        def stub_flow_to(state, dt):
            calls.append(dt)
            out = state.copy()
            if len(calls) == 2:
                out[1] = bad
            return out

        def derivative(plant, p):
            calls.append(plant)
            return [0.0, stages[len(calls) - 5] if len(calls) > 4 else 0.0, 0.0, 0.0, 0.0, 0.0]

        def terms(values):
            asked.append(list(values))
            return (-1.0,)

        monkeypatch.setattr(closed_loop, "hcw_derivative", derivative)
        system = build_system(P, THRESHOLDS, integrator=integrator)
        system = dataclasses.replace(
            system,
            channels=(JumpChannel("never", GuardConjunction(terms), jump=None),),
            flow_to=stub_flow_to if integrator == "closed_form" else system.flow_to,
        )
        with pytest.raises(IntegrationFailure, match="^non-finite state during flow$"):
            simulate(system, x0, opts(step_h=10.0, t_max=50.0))
        # x0 and the first step's end were asked; the non-finite state was not
        assert asked == [x0.tolist(), x0.tolist()]
        assert len(calls) == (2 if integrator == "closed_form" else 8)

    def test_nonfinite_rk4_derivative_raises(self, monkeypatch):
        # The rk4 propagator's other failure, through simulate: the plant
        # derivative is zero on the first step, then not finite at the
        # second's last stage, and the step raises before it updates.
        x0 = make_state(r=(1.0, 2.0, 3.0), tau_z=2.0, tau_beta=2.0, tau_alpha=2.0)
        calls = []

        def derivative(plant, p):
            calls.append(plant)
            return [0.0, np.inf if len(calls) == 8 else 0.0, 0.0, 0.0, 0.0, 0.0]

        monkeypatch.setattr(closed_loop, "hcw_derivative", derivative)
        system = build_system(P, THRESHOLDS, subsystem="z", integrator="rk4")
        with pytest.raises(IntegrationFailure, match="^non-finite derivative encountered$"):
            simulate(system, x0, opts(step_h=10.0, t_max=50.0))
        assert len(calls) == 8

    def test_one_guard_evaluation_per_flow_sample(self):
        # x0 and each of the five step ends are checked once; from tau_z = 0
        # the dwell timer vetoes the z jump for the whole 50 s horizon.
        system = build_system(P, THRESHOLDS, subsystem="z")
        evals = []

        def counting(guard):
            def terms(state):
                evals.append(1)
                return guard.terms(state)

            return GuardConjunction(terms)

        system = dataclasses.replace(
            system,
            channels=tuple(
                dataclasses.replace(ch, guard=counting(ch.guard))
                for ch in system.channels
            ),
        )
        x0 = make_state(r=(0, 0, 100), v=(0, 0, 0.05), tau_z=0.0)
        sol = simulate(system, x0, SimulationOptions(step_h=10, t_max=50))
        assert sol.events == []
        assert len(sol.t) == 6
        assert len(evals) == 6

    def test_rk4_integrator_matches_closed_form_between_jumps(self):
        system = build_system(P, THRESHOLDS, subsystem="z")
        x0 = make_state(r=(0, 0, 300.0), tau_z=THRESHOLDS.z)
        rk4_system = build_system(P, THRESHOLDS, subsystem="z", integrator="rk4")
        o = opts(step_h=P.period / 10_000, event_tol=1e-8, t_max=0.5 * P.period)
        final_rk = simulate(rk4_system, x0, o).states[-1]
        final_cf = simulate(system, x0, o).states[-1]
        assert np.max(np.abs(final_rk - final_cf)) <= 1e-6


#: The runs whose engine calls and flat records are checked: ids of
#: :data:`conftest.RUNS`.
ENGINE_RUNS = ("full_ref", "inplane_ref", "inplane_ref_rk4", "z_fast", "z_slow")


def scenario_system(cfg):
    """The system a scenario config builds."""
    return build_system(cfg.params(), cfg.thresholds(), cfg.subsystem, cfg.integrator)


class TestCarriedAnswers:
    """``simulate`` asks :func:`first_active` of each state once and hands
    the answer on, so ``locate_event`` and ``resolve_jumps`` check no
    precondition that costs a query.  Nor do ``locate_event``, the
    propagators and ``timer_advance`` check the brackets and steps their
    callers make.  Their callers keep these preconditions instead, on every
    recorded call."""

    @pytest.mark.parametrize("run", ["full_ref", "inplane_ref", "inplane_ref_rk4"])
    def test_each_state_is_asked_once(self, run, engine_calls):
        # x0, every flow sample (step ends and bisection probes) and every
        # post-jump state: one query each, on the state's 11 floats.
        sol, _, _, flows, _, _, queries = engine_calls[run]
        assert sol.events and flows
        assert all(queries)
        assert len(queries) == 1 + len(flows) + len(sol.events)

    @pytest.mark.parametrize("run", ENGINE_RUNS)
    def test_callers_meet_the_unchecked_preconditions(self, run, engine_calls):
        # On every call: each bracket is t_a < t_b with a jump set entered at
        # t_b, the answers handed in and back are first_active's, resolve_jumps
        # is handed the system's channels, and each step and probe, under
        # either integrator, is a forward system.flow_to call.  The bracket
        # start and the channel handed in are checked by
        # TestLocateEvent::test_rejects_bracket_already_inside and
        # TestResolveJumps::test_empty_active_set_is_an_error.
        sol, located, resolved, flows, dts, rates, _ = engine_calls[run]
        assert located and resolved and sol.events
        for _, found_b, at_b, found, at_landing, t_a, t_b in located:
            assert t_a < t_b
            assert found_b is not None
            assert found_b is at_b
            assert found is at_landing
        assert all(same_channels for same_channels, _, _ in resolved)
        # one flow_to call a step outside locate_event: a sample each
        steps = [dt for dt, probe in flows if not probe]
        assert len(steps) == len(sol.t) - 1 - len(sol.events)
        assert all(dt > 0 for dt, _ in flows)
        assert all(dt > 0 for dt in dts)
        # rk4 runs flow the timers by timer_rate, closed-form runs by
        # timer_advance alone: each run makes one kind of call.
        rk4 = scenario_run(run)[0].integrator == "rk4"
        assert bool(rates) == rk4 and bool(dts) != rk4


def record_calls(run):
    """Run one of :data:`ENGINE_RUNS`, asking :func:`first_active` at every
    ``locate_event`` and ``resolve_jumps`` call ``simulate`` makes, and
    recording every ``system.flow_to``, ``timer_advance`` and ``timer_rate``
    call.

    Returns the solution and six records.  Per ``locate_event`` call: the
    answers at ``state_a``, handed in (``found_b``), at ``state_b``, handed
    back, and at the landing state, then the bracket ``t_a, t_b``.  Per
    ``resolve_jumps`` call: whether it got the system's channels, the channel
    handed in, and the answer at its state.  Per ``flow_to`` call: its
    ``dt`` and whether it is a probe (made inside ``locate_event``).  Each
    ``timer_advance``'s ``dt``, and each ``timer_rate``'s ``tau``.  Last,
    per query ``simulate`` makes of :func:`first_active`: whether it read a
    list of 11 floats.
    """
    cfg = scenario_run(run)[0]
    built = scenario_system(cfg)
    locate, resolve = engine.locate_event, engine.resolve_jumps
    advance, rate, query = controllers.timer_advance, controllers.timer_rate, engine.first_active
    located, resolved, flows, dts, rates, queries, locating = [], [], [], [], [], [], []

    def recording_flow_to(state, dt):
        flows.append((dt, bool(locating)))
        return built.flow_to(state, dt)

    system = dataclasses.replace(built, flow_to=recording_flow_to)

    def asked(state):
        return first_active(system.channels, state.tolist())

    def recording_locate(query, flow_to, state_a, state_b, t_a, t_b, event_tol, found_b):
        found_a, at_b = asked(state_a), asked(state_b)
        locating.append(True)
        t, state, found = locate(
            query, flow_to, state_a, state_b, t_a, t_b, event_tol, found_b
        )
        locating.pop()
        located.append((found_a, found_b, at_b, found, asked(state), t_a, t_b))
        return t, state, found

    def recording_resolve(state, t, j, ch, channels):
        resolved.append((channels is system.channels, ch, asked(state)))
        return resolve(state, t, j, ch, channels)

    def recording_advance(tau, dt, n):
        dts.append(dt)
        return advance(tau, dt, n)

    def recording_rate(tau, n):
        rates.append(tau)
        return rate(tau, n)

    def recording_query(channels, values):
        floats = type(values) is list and all(type(x) is float for x in values)
        queries.append(floats and len(values) == 11)
        return query(channels, values)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "locate_event", recording_locate)
        mp.setattr(engine, "resolve_jumps", recording_resolve)
        mp.setattr(controllers, "timer_advance", recording_advance)
        mp.setattr(controllers, "timer_rate", recording_rate)
        mp.setattr(engine, "first_active", recording_query)
        sol = simulate(system, cfg.initial_state(), cfg.options())
    return sol, located, resolved, flows, dts, rates, queries


@pytest.fixture(scope="module")
def engine_calls():
    """:func:`record_calls` of every run in :data:`ENGINE_RUNS`, by run id."""
    return {run: record_calls(run) for run in ENGINE_RUNS}


class TestArcs:
    @pytest.mark.parametrize("t_max_orbits", [20.0, 0.0])
    def test_matches_sample_loop(self, t_max_orbits, monkeypatch):
        # The blocks tile the samples with the arcs of the loop, whole: each
        # takes arcs while they fit in CHUNK_ROWS rows, and at least one.
        # A run with no horizon is its first sample, x0.
        sol = scenario_run("full_ref")[1]
        if t_max_orbits == 0.0:
            sol = dataclasses.replace(sol, t=sol.t[:1], j=sol.j[:1], states=sol.states[:1])
        stop_of = dict(arcs_by_loop(sol.j))
        for rows in (engine.CHUNK_ROWS, 7, 1):
            monkeypatch.setattr(engine, "CHUNK_ROWS", rows)
            blocks = [*sol.blocks()]
            assert all(type(i) is int for block in blocks for i in block)
            assert [lo for lo, _ in blocks] == [0, *(hi for _, hi in blocks[:-1])]
            assert blocks[-1][1] == len(sol.j)
            for lo, hi in blocks:
                assert lo in stop_of and (hi == len(sol.j) or hi in stop_of)
                assert hi - lo <= rows or hi == stop_of[lo]
                assert hi == len(sol.j) or stop_of[hi] - lo > rows
        if t_max_orbits == 0.0:
            assert blocks == [(0, 1)]


class TestFlatRecord:
    @pytest.mark.parametrize("run", ENGINE_RUNS)
    def test_samples_are_one_block_and_events_their_rows(self, run):
        cfg, sol, *_ = scenario_run(run)
        system = scenario_system(cfg)
        assert sol.states.dtype == np.float64 and sol.states.flags.c_contiguous
        assert sol.states.shape == (len(sol.t), 11)
        assert sol.t.dtype == np.float64
        assert sol.j.dtype == np.array([0], dtype=int).dtype
        # each event's post-jump row is the first sample of its jump count,
        # at its time, and the row before it is the last of the count before
        rows = sol.event_rows()
        assert sol.events and rows.tolist() == (np.flatnonzero(np.diff(sol.j)) + 1).tolist()
        assert sol.t[rows].tolist() == [ev.t for ev in sol.events]
        assert sol.j[rows - 1].tolist() == [ev.j_pre for ev in sol.events]
        assert sol.t[rows - 1].tolist() == [ev.t for ev in sol.events]
        assert [rows[k].tolist() for k in (slice(3, 9), slice(-5, None))] == [
            sol.event_rows(k).tolist() for k in (slice(3, 9), slice(-5, None))
        ]
        # re-applying each event's jump map to its pre-jump row gives its
        # post-jump row and the event itself, bit for bit
        jump = {ch.name: ch.jump for ch in system.channels}
        for row, ev in zip(rows.tolist(), sol.events):
            post, again = jump[ev.channel](sol.states[row - 1], ev.t, ev.j_pre)
            assert post.tobytes() == sol.states[row].tobytes()
            assert repr(again) == repr(ev)

    def test_shared_runs_are_frozen(self):
        # every test that reads a run of RUNS gets the same solution
        for run in RUNS:
            sol = scenario_run(run)[1]
            for array in (sol.t, sol.j, sol.states):
                with pytest.raises(ValueError, match="read-only"):
                    array[-1] = array[-1]
            with pytest.raises(AttributeError):
                sol.events.append(sol.events[0])

    def test_simulate_peaks_at_the_memory_it_keeps(self):
        # Under tracemalloc, a 2-orbit full_ref run: simulate's peak exceeds
        # what it keeps (the solution and the propagator's matrix cache) by
        # less than a quarter of that.  An array per sample, copied into one
        # at the end, put the peak 72 % above it.
        cfg = parse_config(scenario_path("full_ref"), t_max_orbits=2.0)
        system, opts = scenario_system(cfg), cfg.options()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            sol = simulate(system, cfg.initial_state(), opts)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(sol.t) > 1000
        assert peak - kept < 0.25 * (kept - before)
