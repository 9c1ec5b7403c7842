"""Acceptance gate: one test per top-level requirement.

Each test prints a single PASS line (visible with ``pytest -v`` via the test
outcome, and on stdout in the captured report) summarizing the check and the
measured numbers.
"""

import dataclasses
import itertools
import time

import numpy as np
import pytest

from hybrid_rendezvous import cli
from hybrid_rendezvous.analysis import (
    IMPULSE_FLOOR,
    beta_jump_count,
    budget,
    check_flow_invariance,
    check_jump_decrease,
    convergence_time,
)
from hybrid_rendezvous.closed_loop import (
    DwellThresholds,
    build_system,
    make_channel,
    make_flow_to,
    make_state,
)
from hybrid_rendezvous.engine import HybridSystem, SimulationOptions, simulate
from hybrid_rendezvous.hcw import (
    RZ,
    OrbitParams,
    hcw_derivative,
)

from conftest import (
    BUNDLED,
    criterion2_case,
    inplane_a0,
    inplane_b0,
    rk4,
    scenario_run,
    stm_matrix,
    transform_matrix,
    transform_matrix_inv,
    zeta_a,
    zeta_b,
)

def test_criterion_01_lyapunov_flow_invariance():
    """Per-arc drift of V_z, beta^2, V_alpha: <= 1e-12 closed-form on the full
    horizons, <= 1e-8 per orbit under rk4 at h = period / 1e4."""
    worst_cf, worst_rk = 0.0, 0.0
    for name in BUNDLED:
        cfg, sol, p, spec, elapsed = scenario_run(name)
        assert elapsed < 5.0, f"{name} exceeded the runtime budget: {elapsed:.2f} s"
        report = check_flow_invariance(sol, p, tol=1e-12)
        assert report.passed, f"{name}: closed-form drift violations"
        worst_cf = max(worst_cf, max(report.arc_drift.values()))
        # rk4 variant over one orbit at the mandated step
        h = p.period / 10_000
        rk_cfg = dataclasses.replace(cfg, integrator="rk4", step_h=h, t_max_orbits=1.0)
        start = time.perf_counter()
        rk_sol, _, _ = cli.run_scenario(rk_cfg)
        rk_elapsed = time.perf_counter() - start
        assert rk_elapsed < 5.0, f"{name} rk4 exceeded runtime budget: {rk_elapsed:.2f} s"
        rk_report = check_flow_invariance(rk_sol, p, tol=1e-8)
        assert rk_report.passed, f"{name}: rk4 drift violations"
        worst_rk = max(worst_rk, max(rk_report.arc_drift.values()))
    print(
        f"PASS criterion 1: flow invariance on {len(BUNDLED)} scenarios "
        f"(worst closed-form drift {worst_cf:.2e} <= 1e-12, rk4 {worst_rk:.2e} <= 1e-8)"
    )


def test_criterion_02_jump_decrease_randomized():
    """Every nonzero-input firing obeys its jump-decrease bound with absolute
    slack 1e-12, over 1000 randomized initial conditions per subsystem.  One
    system serves each subsystem's runs, and one propagator all three: its
    matrix cache is exact, so a run's result does not depend on the runs
    before it (``TestFlowToCache`` in test_closed_loop.py)."""
    p = OrbitParams()
    thresholds = DwellThresholds()
    rng = np.random.default_rng(2024)
    checked = 0
    for subsystem in ("z", "inplane", "full"):
        system = build_system(p, thresholds, subsystem=subsystem)
        for _ in range(1000):
            sol = simulate(system, *criterion2_case(rng, subsystem, p, thresholds))
            report = check_jump_decrease(sol)
            assert report.passed, f"{subsystem}: {report.violations[:3]}"
            checked += len(sol.events)
    print(
        f"PASS criterion 2: jump decrease held at {checked} events over "
        f"3000 randomized runs (slack 1e-12)"
    )


def test_criterion_03_finite_time_beta():
    """Nonzero beta firings match ceil(|beta0| / (3 umax)) on 1000 randomized
    pairs; the reference in-plane state fires once at 0.132 m/s."""
    rng = np.random.default_rng(7)
    thresholds = DwellThresholds()
    for k in range(1000):
        beta0 = rng.uniform(-3.0, 3.0)
        umax = rng.uniform(0.05, 0.5)
        p = OrbitParams(umax=umax)
        expected = beta_jump_count(beta0, umax)
        system = HybridSystem(
            flow=None,
            channels=(make_channel("beta", p, thresholds.beta),),
            flow_to=make_flow_to(p),
        )
        # beta maps to the plant as v_y = -beta/3 at the origin
        x0 = make_state(v=(0, -beta0 / 3.0, 0), tau_beta=thresholds.beta)
        horizon = (expected + 2) * thresholds.beta * p.period
        opts = SimulationOptions(step_h=60.0, t_max=horizon, event_tol=1e-6)
        sol = simulate(system, x0, opts)
        observed = sum(1 for e in sol.events if abs(e.u_applied) > IMPULSE_FLOOR)
        assert observed == expected, f"case {k}: beta0={beta0}, umax={umax}"
    # reference scenario: exactly one firing of 0.132 m/s
    p = OrbitParams()
    system = HybridSystem(
        flow=None,
        channels=(make_channel("beta", p, thresholds.beta),),
        flow_to=make_flow_to(p),
    )
    x0 = make_state(r=(-60.0, 1000.0, 0.0), tau_beta=thresholds.beta)
    opts = SimulationOptions(step_h=60.0, t_max=0.2 * p.period, event_tol=1e-6)
    sol = simulate(system, x0, opts)
    nonzero = [e for e in sol.events if abs(e.u_applied) > IMPULSE_FLOOR]
    assert len(nonzero) == 1
    assert abs(nonzero[0].u_applied - 0.132) <= 1e-9
    print(
        "PASS criterion 3: beta firing counts matched ceil(|beta0|/(3 umax)) on "
        "1000 randomized pairs; reference case fired once at 0.132 m/s"
    )


def test_criterion_04_reference_inplane_convergence():
    """The reference in-plane scenario converges below 1e-3 of its initial
    attractor distance within 20 orbits, with passing certificates."""
    cfg, sol, p, spec, _ = scenario_run("inplane_ref")
    ht = convergence_time(sol, p, spec)
    assert ht is not None, "no convergence within the horizon"
    orbits = ht.t / p.period
    assert orbits <= cfg.t_max_orbits
    assert check_flow_invariance(sol, p, tol=1e-12).passed
    assert check_jump_decrease(sol).passed
    print(
        f"PASS criterion 4: in-plane reference converged to 1e-3 of the initial "
        f"distance at {orbits:.3f} orbits (horizon {cfg.t_max_orbits:g})"
    )


def test_criterion_05_impulse_placement():
    """Every z firing either happens at an r_z zero crossing (|r_z| below
    1e-3 of the max excursion) or is dwell-time-delayed (timer margin zero
    at trigger)."""
    classified = {"zero_crossing": 0, "dwell_delayed": 0}
    for name in ("z_fast", "z_slow", "full_ref"):
        cfg, sol, p, spec, _ = scenario_run(name)
        rz_max = float(np.max(np.abs(sol.states[:, RZ])))
        rz_pre = sol.states[sol.event_rows() - 1, RZ].tolist()  # each event's pre-jump r_z
        for ev, rz in zip(sol.events, rz_pre):
            if ev.channel != "z":
                continue
            label = cli.classify_z_event(float(ev.margins[2]), p)
            classified[label] += 1
            if label == "zero_crossing":
                assert abs(rz) <= rz_max * 1e-3, (
                    f"{name}: firing at |r_z|={abs(rz):.3g} "
                    f"with timer margin {ev.margins[2]:.3g}"
                )
    assert sum(classified.values()) > 0
    print(
        f"PASS criterion 5: z impulse placement verified "
        f"({classified['zero_crossing']} at zero crossings, "
        f"{classified['dwell_delayed']} dwell-delayed)"
    )


def test_criterion_06_dwell_time_spacing():
    """Consecutive firings on a channel are separated by at least
    tau^M * 2 pi / n minus one event tolerance, on all bundled scenarios and
    on the dwell-time sweep pair."""
    checked = 0
    for name in BUNDLED:
        cfg, sol, p, spec, _ = scenario_run(name)
        taus = {"z": cfg.tau_m_z, "beta": cfg.tau_m_beta, "alpha": cfg.tau_m_alpha}
        by_channel = {}
        for ev in sol.events:
            by_channel.setdefault(ev.channel, []).append(ev.t)
        for channel, times in by_channel.items():
            min_gap = taus[channel] * p.period - cfg.options().event_tol
            for a, b in zip(times, times[1:]):
                assert b - a >= min_gap, (
                    f"{name}/{channel}: gap {b - a:.6f} < {min_gap:.6f}"
                )
                checked += 1
    print(f"PASS criterion 6: dwell spacing held across {checked} firing gaps")


def test_criterion_07_dwell_tradeoff():
    """Sweeping the z dwell threshold over {0.01, 0.25} from the pinned
    initial state: the short dwell converges strictly faster, the long dwell
    fires strictly fewer impulses."""
    (_, fast_sol, p, fast_spec, _) = scenario_run("z_fast")
    (_, slow_sol, _, slow_spec, _) = scenario_run("z_slow")
    fast_conv = convergence_time(fast_sol, p, fast_spec)
    slow_conv = convergence_time(slow_sol, p, slow_spec)
    assert fast_conv is not None and slow_conv is not None
    fast_count = budget(fast_sol).impulse_counts["z"]
    slow_count = budget(slow_sol).impulse_counts["z"]
    assert fast_conv.t < slow_conv.t, "short dwell must converge strictly faster"
    assert slow_count < fast_count, "long dwell must fire strictly fewer impulses"
    print(
        f"PASS criterion 7: trade-off reproduced "
        f"(tau^M=0.01: {fast_count} impulses, {fast_conv.t / p.period:.2f} orbits; "
        f"tau^M=0.25: {slow_count} impulses, {slow_conv.t / p.period:.2f} orbits)"
    )


def test_criterion_08_transformation_exactness():
    """T T^-1 = I, T A0 T^-1 = A, T B0 = B entrywise to 1e-12 for 100 random
    orbit rates in [1e-4, 1e-2]."""
    rng = np.random.default_rng(88)
    worst = 0.0
    for _ in range(100):
        n = rng.uniform(1e-4, 1e-2)
        t = transform_matrix(n)
        tinv = transform_matrix_inv(n)
        errs = (
            np.max(np.abs(t @ tinv - np.eye(4))),
            np.max(np.abs(t @ inplane_a0(n) @ tinv - zeta_a(n))),
            np.max(np.abs(t @ inplane_b0() - zeta_b(n))),
        )
        worst = max(worst, *errs)
        assert max(errs) <= 1e-12, f"n={n}: errors {errs}"
    print(f"PASS criterion 8: transformation exact to 1e-12 (worst {worst:.2e})")


def test_criterion_09_stm_against_rk4_oracle():
    """The closed-form transition matrix agrees with brute-force RK4 at
    h = period / 1e5 to relative error 1e-6 over one period, including the
    secular along-track drift (-12 pi r_x0 per orbit for a pure radial
    offset, as derived by the RK4 oracle)."""
    p = OrbitParams()
    s0 = np.array([1.0, 0.0, 0.7, 0.0, 0.0, 0.0])
    steps = 100_000
    s = rk4(lambda x: np.array(hcw_derivative(x.tolist(), p)), s0, p.period / steps, steps)
    prop = stm_matrix(p, p.period) @ s0
    scale = np.max(np.abs(s))
    err = np.max(np.abs(prop - s)) / scale
    assert err <= 1e-6, f"relative error {err:.3e}"
    # Oracle-derived secular drift for a pure radial offset: -12 pi r_x0.
    assert s[1] == pytest.approx(-12 * np.pi * s0[0], rel=1e-6)
    assert prop[1] == pytest.approx(-12 * np.pi * s0[0], rel=1e-9)
    print(
        f"PASS criterion 9: transition matrix matches the RK4 oracle over one "
        f"period (relative error {err:.2e}, secular drift -12 pi r_x0 reproduced)"
    )


def test_criterion_10_priority_permutation_robustness():
    """All six jump-priority orders keep the certificates, the reference
    beta count, and convergence intact on every bundled scenario.  Each
    distinct order of a scenario's own channels is run once: permutations
    that differ only in absent channels are the same simulation, and a
    scenario's own order is its shared run."""
    cases = 0
    for name in BUNDLED:
        cfg, own, p, spec, _ = scenario_run(name)
        system = build_system(p, cfg.thresholds(), subsystem=cfg.subsystem)
        by_name = {ch.name: ch for ch in system.channels}
        orders = dict.fromkeys(
            tuple(ch for ch in perm if ch in by_name)
            for perm in itertools.permutations(("z", "beta", "alpha"))
        )
        for perm in orders:
            channels = tuple(by_name[ch] for ch in perm)
            if channels == system.channels:
                sol = own
            else:
                permuted = dataclasses.replace(system, channels=channels)
                sol = simulate(permuted, cfg.initial_state(), cfg.options())
            assert check_flow_invariance(sol, p, tol=1e-12).passed, (name, perm)
            assert check_jump_decrease(sol).passed, (name, perm)
            assert convergence_time(sol, p, spec) is not None, (name, perm)
            if cfg.subsystem in ("inplane", "full"):
                beta_fires = budget(sol).impulse_counts.get("beta", 0)
                assert beta_fires == 1, (name, perm, beta_fires)
            cases += 1
    assert cases == 10  # z_fast 1, z_slow 1, inplane_ref 2, full_ref 6
    print(
        f"PASS criterion 10: certificates and convergence held for all "
        f"{cases} distinct scenario x priority-order combinations"
    )
