"""Certificate checks, delta-v budgets, convergence metrics."""

import dataclasses
import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybrid_rendezvous import analysis, engine
from hybrid_rendezvous.cli import flow_drift_tolerance
from hybrid_rendezvous.closed_loop import (
    AttractorSpec,
    DwellThresholds,
    build_system,
    full_flow,
    lyapunov_values,
    make_channel,
    make_flow_to,
    make_state,
)
from hybrid_rendezvous.engine import HybridSystem, SimulationOptions, simulate
from hybrid_rendezvous.hcw import RZ, OrbitParams

from conftest import RUNS, arcs_by_loop, scenario_run

P = OrbitParams()
THRESHOLDS = DwellThresholds(z=0.01, beta=0.02, alpha=0.01)


def z_solution(r_z=500.0, v_z=0.0, t_orbits=2.0, **state_kw):
    system = build_system(P, THRESHOLDS, subsystem="z")
    x0 = make_state(r=(0, 0, r_z), v=(0, 0, v_z), tau_z=THRESHOLDS.z, **state_kw)
    opts = SimulationOptions(step_h=30.0, t_max=t_orbits * P.period, event_tol=1e-6)
    return simulate(system, x0, opts)


def beta_only_system():
    return HybridSystem(
        flow=partial(full_flow, P),
        channels=(make_channel("beta", P, THRESHOLDS.beta),),
        flow_to=make_flow_to(P),
    )


class TestFlowInvariance:
    def test_closed_form_arcs_hold_tight_tolerance(self):
        report = analysis.check_flow_invariance(scenario_run("z_fast_2orbits")[1], P, tol=1e-12)
        assert report.passed
        assert max(report.arc_drift.values()) <= 1e-12

    def test_zero_duration_arcs_have_zero_drift(self):
        # Simultaneous jumps produce zero-length arcs; they must not trip.
        sol = z_solution(r_z=0.0, v_z=0.5)
        report = analysis.check_flow_invariance(sol, P, tol=1e-12)
        assert report.passed

    def test_violation_reported_with_location(self):
        sol = scenario_run("z_fast_2orbits")[1]
        report = analysis.check_flow_invariance(sol, P, tol=0.0)
        # Impossible tolerance: any nonzero rounding shows up as a violation.
        if report.violations:
            v = report.violations[0]
            assert v.bound == 0.0 and v.observed > 0.0

    def test_infinite_v_is_a_violation(self):
        # V_z = inf at every sample makes each arc's drift inf - inf = NaN,
        # which must fail the check, not pass it.  It corrupts a copy.
        sol = scenario_run("z_fast_2orbits")[1]
        sol = dataclasses.replace(sol, states=sol.states.copy())
        sol.states[:, RZ] = np.inf
        with pytest.warns(RuntimeWarning, match="invalid value"):
            report = analysis.check_flow_invariance(sol, P, tol=1e-12)
        assert not report.passed
        assert {v.quantity for v in report.violations} == {"V_z flow drift"}
        assert all(math.isnan(v.observed) for v in report.violations)

    @pytest.mark.parametrize("corrupt", [False, True], ids=["as_run", "nan_and_inf"])
    @pytest.mark.parametrize("tol", [1e-12, 1e-16, 0.0])
    def test_matches_the_per_arc_loop(self, tol, corrupt):
        # Two orbits of full_ref hold z arcs and in-plane arcs with beta
        # live and zeroed; corrupted samples make NaN and inf drifts, and a
        # NaN or inf V_beta at an arc start.
        _, sol, p, _, _ = scenario_run("full_ref_2orbits")
        if corrupt:
            sol = dataclasses.replace(sol, states=sol.states.copy())
            rng = np.random.default_rng(5)
            starts = [start for start, _ in arcs_by_loop(sol.j)]
            for col in range(sol.states.shape[1]):
                rows = [*rng.choice(starts, 2), *rng.choice(len(sol.t), 2)]
                sol.states[rows, col] = [np.nan, np.inf, -np.inf, 1e200]
        with np.errstate(all="ignore"):
            report = analysis.check_flow_invariance(sol, p, tol=tol)
            expected = per_arc_flow_invariance(sol, p, tol)
        assert report.violations or tol > 0.0
        assert repr(report.arc_drift) == repr(expected.arc_drift)
        assert repr(report.violations) == repr(expected.violations)


def per_arc_flow_invariance(sol, p, tol):
    """Reference flow-invariance check: one arc at a time."""
    report = analysis.CertificateReport()
    lyap = lyapunov_values(sol.states, p)
    names = tuple(lyap)
    values = np.column_stack(tuple(lyap.values()))
    worst = {name: 0.0 for name in names}
    for start, stop in arcs_by_loop(sol.j):
        ref = values[start]
        drift = np.abs(values[start:stop] - ref) / np.maximum(ref, analysis.DRIFT_FLOOR)
        arc_worst = drift.max(axis=0)
        beta_live = lyap["beta"][start] > analysis.BETA_GATE**2
        for k, name in enumerate(names):
            if name == "alpha" and beta_live:
                continue
            worst[name] = max(worst[name], float(arc_worst[k]))
            if not arc_worst[k] <= tol:
                idx = start + int(np.argmax(drift[:, k]))
                report.violations.append(
                    analysis.Violation(
                        t=float(sol.t[idx]),
                        j=int(sol.j[idx]),
                        quantity=f"V_{name} flow drift",
                        observed=float(arc_worst[k]),
                        bound=tol,
                    )
                )
    report.arc_drift = worst
    return report


def event_margins(events):
    """Each event's jump-decrease margin ``bound - delta_V``, with bound 0
    and ``|delta_V|`` for a zero-input event."""
    return [
        0.0 - abs(ev.delta_lyap) if abs(ev.u_applied) <= analysis.IMPULSE_FLOOR
        else ev.bound - ev.delta_lyap
        for ev in events
    ]


class TestJumpDecrease:
    def test_reference_run_passes(self):
        report = analysis.check_jump_decrease(scenario_run("z_fast_2orbits")[1])
        assert report.passed

    @pytest.mark.parametrize("run", RUNS)
    def test_min_margin_is_the_min_of_the_event_margins(self, run):
        sol = scenario_run(run)[1]
        report = analysis.check_jump_decrease(sol)
        assert repr(report.min_margin) == repr(min(event_margins(sol.events), default=None))

    @pytest.mark.parametrize("nan_at", [0, 5])
    def test_min_margin_orders_a_nan_as_min_does(self, nan_at):
        # A NaN margin first is the minimum; a NaN after it, here last, is passed over.
        sol = scenario_run("z_fast_2orbits")[1]
        events = [*sol.events[:6]]
        events[nan_at] = dataclasses.replace(events[nan_at], lyap_post=math.nan)
        margins = event_margins(events)
        assert math.isnan(margins[nan_at]) and not math.isnan(min(margins[1:]))
        report = analysis.check_jump_decrease(dataclasses.replace(sol, events=events))
        assert repr(report.min_margin) == repr(min(margins))
        assert math.isnan(report.min_margin) == (nan_at == 0)

    def test_saturated_z_event_margin(self):
        # From rest at v_z = 0.5 the first firing removes 0.2:
        # delta V = -0.16 against the bound -v_z sat(v_z) = -0.10.
        sol = z_solution(r_z=0.0, v_z=0.5, t_orbits=0.01)
        ev = sol.events[0]
        assert ev.delta_lyap == pytest.approx(-0.16, abs=1e-15)
        assert ev.bound == pytest.approx(-0.10, abs=1e-15)
        report = analysis.check_jump_decrease(sol)
        assert report.passed

    def test_beta_single_firing(self):
        system = beta_only_system()
        x0 = make_state(r=(-60.0, 1000.0, 0.0), tau_beta=THRESHOLDS.beta)
        opts = SimulationOptions(step_h=30.0, t_max=0.1 * P.period, event_tol=1e-6)
        sol = simulate(system, x0, opts)
        nonzero = [e for e in sol.events if abs(e.u_applied) > analysis.IMPULSE_FLOOR]
        assert len(nonzero) == 1
        ev = nonzero[0]
        assert ev.u_applied == pytest.approx(0.132, abs=1e-12)
        assert ev.delta_lyap == pytest.approx(-(0.396**2), abs=1e-12)
        assert ev.bound == pytest.approx(-0.132 * 0.132, abs=1e-12)

    @pytest.mark.parametrize(
        "u_applied,quantity",
        [(0.0, "z zero-input delta_V"), (0.2, "z jump delta_V")],
        ids=["zero_input", "nonzero"],
    )
    def test_nan_delta_v_is_a_violation(self, u_applied, quantity):
        sol = scenario_run("z_fast_2orbits")[1]
        ev = dataclasses.replace(
            sol.events[0], t=1234.5, j_pre=6, u_applied=u_applied, lyap_post=math.nan
        )
        report = analysis.check_jump_decrease(dataclasses.replace(sol, events=[ev]))
        assert not report.passed
        (violation,) = report.violations
        assert math.isnan(violation.observed)
        # the record names the event, and the branch's quantity and bound
        bound = 0.0 if u_applied == 0.0 else ev.bound
        assert (violation.t, violation.j, violation.quantity, violation.bound) == (
            1234.5, 7, quantity, bound
        )

    def test_jump_slack_boundary(self):
        # delta <= bound + JUMP_SLACK, with -0.1 + 1e-12 rounding to exactly
        # -0.099999999999: that delta passes and the next float up fails.
        # bound - delta >= -JUMP_SLACK rounds differently: it would judge
        # both a violation.
        sol = scenario_run("z_fast_2orbits")[1]
        at_slack = -0.099999999999
        for delta, passed in ((at_slack, True), (math.nextafter(at_slack, math.inf), False)):
            ev = dataclasses.replace(
                sol.events[0], u_applied=0.2, bound=-0.1, lyap_pre=0.0, lyap_post=delta
            )
            report = analysis.check_jump_decrease(dataclasses.replace(sol, events=[ev]))
            assert report.passed is passed, delta
            assert [v.observed for v in report.violations] == ([] if passed else [delta])


class TestBetaJumpCount:
    @pytest.mark.parametrize(
        "beta0,umax,expected",
        [(0.396, 0.2, 1), (0.0, 0.2, 0), (-0.0, 0.2, 0), (1.3, 0.2, 3), (0.6, 0.2, 1),
         (-1.3, 0.2, 3)],
    )
    def test_examples(self, beta0, umax, expected):
        assert analysis.beta_jump_count(beta0, umax) == expected

    def test_rejects_bad_umax(self):
        with pytest.raises(ValueError):
            analysis.beta_jump_count(1.0, 0.0)

    @given(
        beta0=st.floats(-5, 5, allow_nan=False),
        umax=st.floats(0.05, 1.0, allow_nan=False),
    )
    @settings(max_examples=200)
    def test_matches_iterated_map(self, beta0, umax):
        # Saturated firings remove exactly 3*umax; the final unsaturated one
        # lands exactly on zero (beta+ = beta - 3*(beta/3) in real arithmetic).
        # Stay away from exact multiples of 3*umax, where the count is
        # rounding-sensitive by construction.
        import math

        from hypothesis import assume

        ratio = abs(beta0) / (3.0 * umax)
        assume(abs(ratio - round(ratio)) > 1e-6)
        beta, fired = beta0, 0
        while abs(beta) > 3.0 * umax and fired < 1000:
            beta -= math.copysign(3.0 * umax, beta)
            fired += 1
        if beta != 0.0:
            fired += 1
        assert analysis.beta_jump_count(beta0, umax) == fired


class TestBudget:
    def test_empty_solution(self):
        sol = z_solution(r_z=0.0, v_z=0.0, t_orbits=0.0)
        bud = analysis.budget(sol)
        assert bud.total_delta_v == 0.0
        assert bud.impulse_counts == {}
        assert bud.last_impulse_time is None

    def test_totals_match_event_sums(self):
        sol = scenario_run("z_fast_2orbits")[1]
        bud = analysis.budget(sol)
        expected = sum(
            abs(e.u_applied)
            for e in sol.events
            if abs(e.u_applied) > analysis.IMPULSE_FLOOR
        )
        assert bud.total_delta_v == expected
        assert sum(bud.delta_v.values()) == expected

    def test_three_saturated_z_events(self):
        sol = z_solution(r_z=0.0, v_z=10.0, t_orbits=1.6)
        bud = analysis.budget(sol)
        assert bud.delta_v["z"] >= 3 * P.umax - 1e-12
        assert bud.impulse_counts["z"] >= 3

    def test_additivity_over_segments(self):
        sol = scenario_run("z_fast_2orbits")[1]
        t_split = sol.t[-1] / 2
        first = [e for e in sol.events if e.t <= t_split]
        second = [e for e in sol.events if e.t > t_split]
        total = analysis.budget(sol).total_delta_v
        def seg_total(evs):
            return sum(
                abs(e.u_applied) for e in evs if abs(e.u_applied) > analysis.IMPULSE_FLOOR
            )
        assert seg_total(first) + seg_total(second) == pytest.approx(total, rel=1e-15)


class TestConvergenceTime:
    def test_on_attractor_is_hybrid_time_zero(self):
        sol = z_solution(r_z=0.0, v_z=0.0, t_orbits=0.5)
        ht = analysis.convergence_time(sol, P, AttractorSpec(which="z", epsilon=1e-9))
        assert ht is not None
        assert (ht.t, ht.j) == (0.0, 0)

    def test_beta_only_converges_at_first_firing(self):
        system = beta_only_system()
        x0 = make_state(r=(-60.0, 1000.0, 0.0), tau_beta=0.0)
        opts = SimulationOptions(step_h=10.0, t_max=0.2 * P.period, event_tol=1e-6)
        sol = simulate(system, x0, opts)
        # Initial distance is sqrt(0.49852) ~ 0.706; zeroing beta drops it
        # below 0.6, so a 0.65 ball is entered exactly at the firing.
        spec = AttractorSpec(which="inplane", epsilon=0.65)
        ht = analysis.convergence_time(sol, P, spec)
        assert ht is not None
        expected = THRESHOLDS.beta * P.period
        assert ht.t == pytest.approx(expected, abs=1e-5)

    def test_never_converging_returns_none(self):
        sol = z_solution(t_orbits=0.05)  # far from rest the whole horizon
        ht = analysis.convergence_time(sol, P, AttractorSpec(which="z", epsilon=1e-6))
        assert ht is None


class TestBlocks:
    # (the *_rk4 runs take the rk4 path; its 20-orbit runs would add only time)
    @pytest.mark.parametrize("run", [r for r in RUNS if not r.endswith(("_2orbits", "_20orbits"))])
    def test_seven_row_blocks_report_as_one_block(self, run, monkeypatch):
        cfg, sol, p, spec, _ = scenario_run(run)
        tol = flow_drift_tolerance(cfg)
        reports = []
        for rows in (7, len(sol.t)):
            monkeypatch.setattr(engine, "CHUNK_ROWS", rows)
            assert (len([*sol.blocks()]) == 1) == (rows == len(sol.t))
            with np.errstate(all="ignore"):
                flow = analysis.check_flow_invariance(sol, p, tol=tol)
                reports.append((flow, analysis.convergence_time(sol, p, spec)))
        assert repr(reports[0]) == repr(reports[1])
        flow, conv = reports[0]
        if run == "inplane_ref_x512":
            assert (flow.violations[0].quantity, flow.violations[0].j) == ("V_beta flow drift", 17)
        elif run == "v_alpha_overflow":
            with np.errstate(all="ignore"):
                assert np.isinf(lyapunov_values(sol.states, p)["alpha"]).any()  # inf - inf drifts
            assert conv is None
        else:
            assert flow.passed and conv is not None
