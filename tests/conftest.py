import contextlib
import dataclasses
import functools
import io
import os
import re
import tempfile
import time
from pathlib import Path
from types import MappingProxyType
from typing import Mapping, NamedTuple
from unittest import mock

import numpy as np
import pytest

from hybrid_rendezvous import cli
from hybrid_rendezvous import closed_loop as cl
from hybrid_rendezvous import controllers as ctl
from hybrid_rendezvous.config import parse_config
from hybrid_rendezvous.engine import SimulationOptions
from hybrid_rendezvous.hcw import RX, RY, VX, VY, OrbitParams, hcw_derivative, hcw_stm, to_zeta

REPO_ROOT = Path(__file__).resolve().parents[1]
SCENARIO_DIR = REPO_ROOT / "scenarios"


@pytest.fixture(scope="session")
def scenario_dir() -> Path:
    return SCENARIO_DIR


def scenario_path(name: str) -> Path:
    return SCENARIO_DIR / f"{name}.cfg"


BUNDLED = ("z_fast", "z_slow", "inplane_ref", "full_ref")

#: Scenario runs, by id: a bundled scenario file and config overrides; the
#: one place tests declare a scenario variant.  Besides the four scenarios:
#: inplane_ref and full_ref under rk4, at 2 orbits and 10 s steps
#: (``*_rk4``) and over their own 20 orbits (``*_rk4_20orbits``);
#: inplane_ref with r_x, r_y and umax scaled by 2^9, which fails the flow
#: check (ROADMAP's D3); inplane_ref at 30 s steps, where alpha fires
#: twice and the run never converges (D1), and with q_alpha = +1, the
#: default, where only beta fires (D2); full_ref's z channel alone
#: (``full_ref_z``, as ``--subsystem z`` runs it), and from v_y = 3e153,
#: v_z = 1e154, whose V_alpha overflows to inf, with NaN drifts
#: (``v_alpha_overflow``);
#: z_fast with r_z and umax scaled by 2^-20 and by 2^50 (``z_fast_tiny``,
#: ``z_fast_huge``), whose floats reach the layouts 1e-05 .. 1e-09 and
#: 1e+16 and up of their shortest round-trip text; full_ref and z_fast at
#: 2 orbits; z_fast and z_slow under rk4 at 60 s steps (``*_rk4_60s``), the
#: largest RK4 flow drift of any run here; and criterion 2's full-system
#: start #400 (seed 2024) under full_ref's orbit and thresholds, whose exact
#: run fails the flow check by beta's rounding (ROADMAP's D5).
RUNS = {
    **{name: (name, {}) for name in BUNDLED},
    **{
        f"{name}_rk4": (name, dict(integrator="rk4", step_h=10.0, t_max_orbits=2.0))
        for name in ("inplane_ref", "full_ref")
    },
    **{f"{name}_rk4_20orbits": (name, dict(integrator="rk4")) for name in ("inplane_ref", "full_ref")},
    "inplane_ref_x512": ("inplane_ref", dict(r_x=-60.0 * 512, r_y=1000.0 * 512, umax=0.2 * 512)),
    "inplane_ref_30s": ("inplane_ref", dict(step_h=30.0)),
    "inplane_ref_q_alpha_plus": ("inplane_ref", dict(q_alpha=1.0)),
    "full_ref_z": ("full_ref", dict(subsystem="z")),
    "v_alpha_overflow": ("full_ref", dict(v_y=3e153, v_z=1e154, subsystem="z")),
    "z_fast_tiny": ("z_fast", dict(r_z=0.000476837158203125, umax=1.9073486328125e-07)),
    "z_fast_huge": ("z_fast", dict(r_z=5.62949953421312e17, umax=225179981368524.8)),
    **{f"{name}_2orbits": (name, dict(t_max_orbits=2.0)) for name in ("full_ref", "z_fast")},
    **{
        f"{name}_rk4_60s": (name, dict(integrator="rk4", step_h=60.0))
        for name in ("z_fast", "z_slow")
    },
    "criterion2_full_400": ("full_ref", dict(
        r_x=-431.70231256933954, r_y=812.8517908896492, r_z=146.5064684759368,
        v_x=-0.36667801869228334, v_y=-0.4507606400999701, v_z=-0.41718585228657645,
        q_z=-1.0, q_alpha=-1.0, step_h=60.0, t_max_orbits=0.25,
    )),
}


@functools.cache
def scenario_run(run: str):
    """One of :data:`RUNS`, simulated once per session: ``(cfg, sol, p, spec,
    elapsed)``, with the wall time of the run.  The solution is frozen: its
    arrays, the rows that are its events' states included, are read-only and
    its events a tuple, so a test that writes to a shared run fails instead
    of changing the next test's.  Tests that compare two runs, that patch the
    engine or that measure their own run make their own; the CLI's shared
    runs are :func:`cli_run`'s."""
    name, overrides = RUNS[run]
    cfg = parse_config(scenario_path(name), **overrides)
    start = time.perf_counter()
    sol, p, spec = cli.run_scenario(cfg)
    elapsed = time.perf_counter() - start
    sol.t.flags.writeable = sol.j.flags.writeable = sol.states.flags.writeable = False
    return cfg, dataclasses.replace(sol, events=tuple(sol.events)), p, spec, elapsed


def set_keys(text, **keys):
    """``text`` with each key's line set to its value; a key that has no line
    gets one at the end (and a misspelt key is the parser's error)."""
    for key, value in keys.items():
        line = f"{key} = {value}".rstrip()
        text, count = re.subn(rf"(?m)^{key} =.*$", line, text)
        assert count <= 1, key
        if not count:
            text += f"{line}\n"
    return text


def config_text(run: str) -> str:
    """The config file of one of :data:`RUNS`: its scenario file with the
    run's overrides set."""
    name, overrides = RUNS[run]
    return set_keys(scenario_path(name).read_text(), **overrides)


class CliRun(NamedTuple):
    """One ``hybrid-rdv`` run: the exit code, stdout without the elapsed
    time and output path, and every file written, by path, read-only."""

    code: int
    out: str
    files: Mapping[str, bytes]


def run_cli(cwd: Path, text: str, argv) -> CliRun:
    """Run ``hybrid-rdv argv[0] --config run.cfg argv[1:]`` in directory
    ``cwd`` on config ``text``; the files are those written but ``run.cfg``,
    by path relative to ``cwd``."""
    cwd.mkdir(exist_ok=True)
    (cwd / "run.cfg").write_text(text)
    stdout, home = io.StringIO(), os.getcwd()
    os.chdir(cwd)
    try:
        with contextlib.redirect_stdout(stdout):
            code = cli.main([argv[0], "--config", "run.cfg", *map(str, argv[1:])])
    finally:
        os.chdir(home)
    files = {
        str(f.relative_to(cwd)): f.read_bytes()
        for f in sorted(cwd.rglob("*"))
        if f.is_file() and f.name != "run.cfg"
    }
    out = re.sub(r"\(\d+\.\d+ s\) -> .*", "", stdout.getvalue())
    return CliRun(code, out, MappingProxyType(files))


def flip_alpha_sign(system, p):
    """``system`` with the alpha channel's radial impulse applied with the
    wrong sign, which breaks the jump-decrease certificate on purpose."""

    def corrupt(jump):
        def wrong_sign(state: np.ndarray, t: float, j_pre: int):
            out, ev = jump(state, t, j_pre)
            out[VX] = state[VX] - ev.u_applied
            return out, dataclasses.replace(
                ev,
                u_applied=-ev.u_applied,
                lyap_post=cl.lyapunov_values(out, p)["alpha"],
            )

        return wrong_sign

    channels = tuple(
        dataclasses.replace(ch, jump=corrupt(ch.jump)) if ch.name == "alpha" else ch
        for ch in system.channels
    )
    return dataclasses.replace(system, channels=channels)


#: Runs only the CLI tests take, by id: a :data:`RUNS` id, and a function
#: that each system ``cli.build_system`` returns passes through.  The one
#: entry is inplane_ref with the alpha channel's impulse sign-flipped, which
#: fails the jump-decrease certificate.
CLI_RUNS = {"inplane_ref_flipped": ("inplane_ref", flip_alpha_sign)}


@functools.cache
def cli_run(run: str, command: str) -> CliRun:
    """``hybrid-rdv <command>`` (``simulate`` or ``verify``, split at spaces)
    on the config file of one of :data:`RUNS` or :data:`CLI_RUNS`, run once
    per session in a temporary directory that is then deleted.  The record
    keeps the files' bytes, not a directory that one test could change for
    the next.  A :data:`RUNS` id does not simulate again: the CLI parses,
    summarizes, writes and prints, but takes :func:`scenario_run`'s
    solution, once the config it parsed is the shared one but for
    ``output_dir``.  A :data:`CLI_RUNS` id simulates afresh."""
    if run in CLI_RUNS:
        base, corrupt = CLI_RUNS[run]
        build = cli.build_system
        patch = mock.patch.object(
            cli, "build_system",
            lambda p, thresholds, subsystem, integrator: corrupt(
                build(p, thresholds, subsystem, integrator), p
            ),
        )
    else:
        base = run
        shared, sol, p, spec, _ = scenario_run(run)

        def run_scenario(cfg):
            assert cfg == dataclasses.replace(shared, output_dir=cfg.output_dir)
            return sol, p, spec

        patch = mock.patch.object(cli, "run_scenario", run_scenario)
    with tempfile.TemporaryDirectory() as cwd, patch:
        return run_cli(Path(cwd), config_text(base), command.split())


def criterion2_case(rng, subsystem: str, p: OrbitParams, thresholds: cl.DwellThresholds):
    """One of acceptance criterion 2's random starts for ``subsystem``, drawn
    from ``rng``, and its options: ``(x0, SimulationOptions)``.  A z case
    starts on the cross-track axis with a random dwell timer and runs 0.8
    orbits at 120 s steps; an in-plane or full case starts anywhere in a box
    around the target with armed timers and runs a quarter orbit at 60 s."""
    if subsystem == "z":
        x0 = cl.make_state(
            r=(0, 0, rng.uniform(-1000, 1000)),
            v=(0, 0, rng.uniform(-1, 1)),
            q_z=rng.choice([-1.0, 1.0]),
            tau_z=rng.uniform(0, 1),
        )
        return x0, SimulationOptions(step_h=120.0, t_max=0.8 * p.period, event_tol=1e-6)
    x0 = cl.make_state(
        r=(rng.uniform(-500, 500), rng.uniform(-1000, 1000), rng.uniform(-500, 500)),
        v=rng.uniform(-0.5, 0.5, 3),
        q_z=rng.choice([-1.0, 1.0]),
        q_alpha=rng.choice([-1.0, 1.0]),
        tau_z=thresholds.z,
        tau_beta=thresholds.beta,
        tau_alpha=thresholds.alpha,
    )
    return x0, SimulationOptions(step_h=60.0, t_max=0.25 * p.period, event_tol=1e-6)


def arcs_by_loop(j) -> list[tuple[int, int]]:
    """The flow arcs of a run, by walking its jump counters ``j`` sample by
    sample: index ranges [start, stop) of maximal constant-``j`` runs."""
    out = []
    start = 0
    for i in range(1, len(j)):
        if j[i] != j[i - 1]:
            out.append((start, i))
            start = i
    out.append((start, len(j)))
    return out


def rk4(f, s, h, steps=1):
    """``steps`` classical RK4 steps of length ``h`` on ``ds/dt = f(s)``, in
    the array form ``s + (h/6) (k1 + 2 k2 + 2 k3 + k4)`` whose bits
    ``closed_loop.make_rk4_flow_to`` reproduces over :func:`full_flow`: the
    test oracle.  ``s`` is a float or an array, and ``f`` returns one of the
    same kind."""
    for _ in range(steps):
        k1 = f(s)
        k2 = f(s + 0.5 * h * k1)
        k3 = f(s + 0.5 * h * k2)
        k4 = f(s + h * k3)
        s = s + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return s


def full_flow(p: OrbitParams, s) -> tuple:
    """The closed loop's vector field, the RK4 oracle's: HCW plant, frozen
    logic variables, timer flows.  ``s`` is any sequence of the 11
    components, read by index; the result is a tuple of 11 entries in state
    order."""
    return (
        *hcw_derivative(s[:6], p),
        0.0, ctl.timer_rate(s[cl.TAUZ], p.n), ctl.timer_rate(s[cl.TAUB], p.n),
        0.0, ctl.timer_rate(s[cl.TAUA], p.n),
    )


def stm_matrix(p: OrbitParams, dt: float) -> np.ndarray:
    """:func:`hcw.hcw_stm` as a 6 x 6 array, for tests that multiply by it.
    Satisfies the group property ``stm_matrix(a) @ stm_matrix(b) =
    stm_matrix(a + b)`` up to rounding (``test_hcw::test_group_property``)."""
    return np.array(hcw_stm(p.n, dt)).reshape(6, 6)


# The in-plane coordinate change as a matrix, built from ``hcw.to_zeta``,
# and reference matrices on (r_x, v_x, r_y, v_y) and on (x, y, alpha, beta).
# Criterion 8 and ``test_hcw`` check :func:`transform_matrix` against them.


def plant_of(inplane) -> np.ndarray:
    """The plant state whose ``(r_x, v_x, r_y, v_y)`` is ``inplane`` and whose
    out-of-plane entries are zero; for a (4, k) array, the (6, k) array whose
    rows ``RX, VX, RY, VY`` are its rows."""
    inplane = np.asarray(inplane, dtype=float)
    s = np.zeros((6, *inplane.shape[1:]))
    s[[RX, VX, RY, VY]] = inplane
    return s


def transform_matrix(n: float) -> np.ndarray:
    """The in-plane change of coordinates T mapping (r_x, v_x, r_y, v_y) to
    (x, y, alpha, beta): :func:`hcw.to_zeta` applied to the plant embedding
    of the identity, column by column."""
    return np.array(to_zeta(plant_of(np.eye(4)), OrbitParams(n=n)))


def transform_matrix_inv(n: float) -> np.ndarray:
    """Exact closed-form inverse of :func:`transform_matrix`."""
    return np.array(
        [
            [1.0, 0.0, 0.0, -2.0 / (3.0 * n)],
            [0.0, 1.0, 0.0, 0.0],
            [0.0, 2.0 / n, 1.0, 0.0],
            [-2.0 * n, 0.0, 0.0, 1.0],
        ]
    )


def inplane_a0(n: float) -> np.ndarray:
    """In-plane drift matrix on (r_x, v_x, r_y, v_y)."""
    return np.array(
        [
            [0.0, 1.0, 0.0, 0.0],
            [3.0 * n * n, 0.0, 0.0, 2.0 * n],
            [0.0, 0.0, 0.0, 1.0],
            [0.0, -2.0 * n, 0.0, 0.0],
        ]
    )


def inplane_b0() -> np.ndarray:
    """In-plane input matrix on (r_x, v_x, r_y, v_y): impulses hit velocities."""
    return np.array(
        [
            [0.0, 0.0],
            [1.0, 0.0],
            [0.0, 0.0],
            [0.0, 1.0],
        ]
    )


def zeta_a(n: float) -> np.ndarray:
    """Transformed drift matrix: oscillator (x, y) plus double integrator
    (alpha, beta)."""
    return np.array(
        [
            [0.0, 1.0, 0.0, 0.0],
            [-n * n, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
            [0.0, 0.0, 0.0, 0.0],
        ]
    )


def zeta_b(n: float) -> np.ndarray:
    """Transformed input matrix: u_x enters (y, alpha) with gains (1, -2/n);
    u_y enters (x, beta) with gains (-2/n, -3)."""
    return np.array(
        [
            [0.0, -2.0 / n],
            [1.0, 0.0],
            [-2.0 / n, 0.0],
            [0.0, -3.0],
        ]
    )
