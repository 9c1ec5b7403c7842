"""The benchmark's three workloads: program set-up, generated inputs, one op,
and the check of each op's output against the pinned reference.

Importing this module imports ``hybrid_rendezvous`` (and with it numpy), so
the caller times the import as part of set-up.  Callers look the library up
through module attributes (``cli.main``, ``engine.simulate``, ...) at call
time, so that a traced run can patch those names from outside.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from hybrid_rendezvous import analysis, cli, closed_loop, config, engine

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_PATH = BENCH_DIR / "reference.json"

BUNDLED = ("z_fast", "z_slow", "inplane_ref", "full_ref")
RK4_SCENARIOS = ("inplane_ref", "full_ref")

#: Seed of tier-1 criterion 2, used when ``--seed`` is not given.
DEFAULT_SEED = 2024
#: ``ensemble`` interleaves the subsystems in this order, one case each.
ENSEMBLE_MIX = ("z", "inplane", "full")
#: Cases in one traced round of ``ensemble`` (100 of each subsystem).
ENSEMBLE_ROUND = 300

#: Oracle tolerances: event times (s) and impulses (m/s).  Convergence times
#: may differ by one output step of the scenario.
T_TOL = 1e-3
U_TOL = 1e-6


@dataclass
class Workload:
    """A workload after set-up.

    ``make_input(i)`` builds the input of op ``i`` (not timed); ``op(x)``
    runs one op on it and returns its raw output; ``check(x, output)``
    returns the problems found in that output (empty when correct).
    ``round_len`` is the number of inputs after which the traced phase
    starts the same sequence again.
    """

    name: str
    make_input: Callable[[int], object]
    op: Callable[[object], object]
    check: Callable[[object, object], list[str]]
    round_len: int
    info: dict = field(default_factory=dict)


def scenario_path(root: Path, name: str) -> Path:
    return root / "scenarios" / f"{name}.cfg"


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


# ---------------------------------------------------------------------------
# the oracle
# ---------------------------------------------------------------------------


def outcome_of(impulses, counts, total_dv, conv_t, flow_ok, jump_ok) -> dict:
    """The comparable outcome of one scenario run: its nonzero impulse
    sequence ``[channel, t, u_applied]``, nonzero counts per channel, total
    delta-v, convergence time and certificate verdicts."""
    return {
        "impulses": [[ch, float(t), float(u)] for ch, t, u in impulses],
        "impulse_counts": dict(sorted(counts.items())),
        "total_delta_v": float(total_dv),
        "convergence_t": None if conv_t is None else float(conv_t),
        "flow_invariance": bool(flow_ok),
        "jump_decrease": bool(jump_ok),
    }


def compare(ref: dict, got: dict, step_h: float) -> list[str]:
    """Problems of ``got`` against the pinned ``ref``; empty when they agree.

    Zero-input events, sample counts and the end status are not compared, so
    exact root finding or an early stop at convergence passes, while a missed
    or extra nonzero firing fails.
    """
    problems = []
    for key in ("flow_invariance", "jump_decrease"):
        if not got[key]:
            problems.append(f"{key} certificate failed")
    if got["impulse_counts"] != ref["impulse_counts"]:
        problems.append(
            f"nonzero impulse counts {got['impulse_counts']} != {ref['impulse_counts']}"
        )
    if len(got["impulses"]) != len(ref["impulses"]):
        problems.append(
            f"{len(got['impulses'])} nonzero impulses, expected {len(ref['impulses'])}"
        )
    else:
        for k, ((ch, t, u), (rch, rt, ru)) in enumerate(
            zip(got["impulses"], ref["impulses"])
        ):
            if ch != rch or abs(t - rt) > T_TOL or abs(u - ru) > U_TOL:
                problems.append(
                    f"impulse {k}: ({ch}, t={t!r}, u={u!r}) != ({rch}, t={rt!r}, u={ru!r})"
                )
                break
    dv_tol = U_TOL * max(1, len(ref["impulses"]))
    if abs(got["total_delta_v"] - ref["total_delta_v"]) > dv_tol:
        problems.append(
            f"total delta-v {got['total_delta_v']!r} != {ref['total_delta_v']!r}"
        )
    rc, gc = ref["convergence_t"], got["convergence_t"]
    if (rc is None) != (gc is None) or (rc is not None and abs(gc - rc) > step_h):
        problems.append(f"convergence time {gc!r} != {rc!r} (within {step_h} s)")
    return problems


def outcome_from_files(out_dir: Path) -> dict:
    """Outcome of one ``simulate`` run, read back from the files it wrote."""
    summary = json.loads((out_dir / "summary.json").read_text())
    with open(out_dir / "events.csv", newline="") as fh:
        impulses = [
            (row["channel"], float(row["t"]), float(row["u_applied"]))
            for row in csv.DictReader(fh)
            if abs(float(row["u_applied"])) > analysis.IMPULSE_FLOOR
        ]
    certs = summary["certificates"]
    return outcome_of(
        impulses,
        summary["budget"]["impulse_counts"],
        summary["budget"]["total_delta_v"],
        summary["convergence"]["t"],
        certs["flow_invariance"]["passed"],
        certs["jump_decrease"]["passed"],
    )


def outcome_from_run(sol, flow_report, jump_report, conv, bud) -> dict:
    """Outcome of one in-process run and its certificate checks."""
    impulses = [
        (ev.channel, ev.t, ev.u_applied)
        for ev in sol.events
        if abs(ev.u_applied) > analysis.IMPULSE_FLOOR
    ]
    return outcome_of(
        impulses,
        bud.impulse_counts,
        bud.total_delta_v,
        None if conv is None else conv.t,
        flow_report.passed,
        jump_report.passed,
    )


# ---------------------------------------------------------------------------
# bundled: the four scenario files through the in-process CLI
# ---------------------------------------------------------------------------


def _setup_bundled(root: Path, seed: int, workdir: Path) -> Workload:
    del seed  # the bundled scenarios are fixed inputs
    paths = {name: scenario_path(root, name) for name in BUNDLED}
    cfgs = {name: config.parse_config(path) for name, path in paths.items()}
    first = cfgs[BUNDLED[0]]
    closed_loop.build_system(first.params(), first.thresholds(), first.subsystem)
    reference = load_reference()["bundled"]

    def make_input(i: int) -> None:
        # Outputs of the previous op must not be read back as this op's.
        for name in BUNDLED:
            shutil.rmtree(workdir / name, ignore_errors=True)

    def op(_) -> dict:
        out = {}
        for name, path in paths.items():
            out_dir = workdir / name
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                rc = cli.main(
                    ["simulate", "--config", str(path), "--out", str(out_dir)]
                )
            out[name] = (rc, stderr.getvalue())
        return out

    def check(_, output: dict) -> list[str]:
        problems = []
        for name, (rc, err) in output.items():
            if rc != 0:
                problems.append(f"{name}: exit code {rc}: {err.strip()}")
                continue
            got = outcome_from_files(workdir / name)
            problems += [
                f"{name}: {p}" for p in compare(reference[name], got, cfgs[name].step_h)
            ]
        return problems

    return Workload("bundled", make_input, op, check, round_len=1)


# ---------------------------------------------------------------------------
# ensemble: seeded random initial states of tier-1 criterion 2
# ---------------------------------------------------------------------------


def ensemble_cases(seed: int, p, thresholds):
    """Endless, seed-determined sequence of ``(subsystem, x0, beta0)``
    cases from criterion 2's distribution, interleaving the subsystems.

    ``beta0 = -6 n r_x - 3 v_y`` is the initial drift rate, computed here
    from the drawn coordinates for the firing-count oracle.
    """
    rng = np.random.default_rng(seed)
    make_state = closed_loop.make_state
    while True:
        for subsystem in ENSEMBLE_MIX:
            if subsystem == "z":
                x0 = make_state(
                    r=(0, 0, rng.uniform(-1000, 1000)),
                    v=(0, 0, rng.uniform(-1, 1)),
                    q_z=rng.choice([-1.0, 1.0]),
                    tau_z=rng.uniform(0, 1),
                )
                yield subsystem, x0, 0.0
            else:
                r = (rng.uniform(-500, 500), rng.uniform(-1000, 1000), rng.uniform(-500, 500))
                v = rng.uniform(-0.5, 0.5, 3)
                x0 = make_state(
                    r=r,
                    v=v,
                    q_z=rng.choice([-1.0, 1.0]),
                    q_alpha=rng.choice([-1.0, 1.0]),
                    tau_z=thresholds.z,
                    tau_beta=thresholds.beta,
                    tau_alpha=thresholds.alpha,
                )
                yield subsystem, x0, -6.0 * p.n * r[0] - 3.0 * v[1]


def _setup_ensemble(root: Path, seed: int, workdir: Path) -> Workload:
    del workdir  # nothing is written
    # Orbit, actuator and dwell settings come from full_ref (they equal the
    # library defaults that criterion 2 uses).
    base = config.parse_config(scenario_path(root, "full_ref"))
    p, thresholds = base.params(), base.thresholds()
    closed_loop.build_system(p, thresholds, ENSEMBLE_MIX[0])
    opts = {
        "z": engine.SimulationOptions(step_h=120.0, t_max=0.8 * p.period, event_tol=1e-6),
        "inplane": engine.SimulationOptions(step_h=60.0, t_max=0.25 * p.period, event_tol=1e-6),
    }
    opts["full"] = opts["inplane"]
    source = ensemble_cases(seed, p, thresholds)
    cases: list = []

    def make_input(i: int):
        while len(cases) <= i:
            cases.append((len(cases),) + next(source))
        return cases[i]

    def op(case):
        _, subsystem, x0, _ = case
        system = closed_loop.build_system(p, thresholds, subsystem)
        sol = engine.simulate(system, x0, opts[subsystem])
        report = analysis.check_jump_decrease(sol)
        bud = analysis.budget(sol)
        return sol.status, report.passed, bud.impulse_counts.get("beta", 0)

    def check(case, output) -> list[str]:
        i, subsystem, _, beta0 = case
        status, jump_ok, beta_fires = output
        problems = []
        if status == "jump_budget_exhausted":
            problems.append(f"case {i}: jump budget exhausted")
        if not jump_ok:
            problems.append(f"case {i}: jump_decrease certificate failed")
        if subsystem != "z":
            expected = analysis.beta_jump_count(beta0, p.umax)
            if beta_fires != expected:
                problems.append(
                    f"case {i} ({subsystem}): {beta_fires} beta firings, expected {expected}"
                )
        return problems

    return Workload(
        "ensemble",
        make_input,
        op,
        check,
        round_len=ENSEMBLE_ROUND,
        info={"mix": "/".join(ENSEMBLE_MIX)},
    )


# ---------------------------------------------------------------------------
# rk4_verify: fixed-step RK4 runs through the certificates, no files
# ---------------------------------------------------------------------------


def rk4_config(root: Path, name: str):
    """``name`` under RK4 at a 10 s step over 2 orbits, which covers every
    nonzero firing of the in-plane and full reference scenarios."""
    cfg = config.parse_config(scenario_path(root, name))
    return config.replace(cfg, integrator="rk4", step_h=10.0, t_max_orbits=2.0)


def _setup_rk4_verify(root: Path, seed: int, workdir: Path) -> Workload:
    del seed, workdir  # fixed inputs, nothing is written
    cfgs = {name: rk4_config(root, name) for name in RK4_SCENARIOS}
    first = cfgs[RK4_SCENARIOS[0]]
    closed_loop.build_system(first.params(), first.thresholds(), first.subsystem)
    reference = load_reference()["rk4_verify"]

    def op(_) -> dict:
        out = {}
        for name, cfg in cfgs.items():
            sol, p, spec = cli.run_scenario(cfg)
            flow = analysis.check_flow_invariance(sol, p, tol=cli.flow_drift_tolerance(cfg))
            jump = analysis.check_jump_decrease(sol)
            conv = analysis.convergence_time(sol, p, spec)
            bud = analysis.budget(sol)
            out[name] = (sol, flow, jump, conv, bud)
        return out

    def check(_, output: dict) -> list[str]:
        problems = []
        for name, run in output.items():
            if run[0].status == "jump_budget_exhausted":
                problems.append(f"{name}: jump budget exhausted")
            got = outcome_from_run(*run)
            problems += [
                f"{name}: {p}" for p in compare(reference[name], got, cfgs[name].step_h)
            ]
        return problems

    return Workload("rk4_verify", lambda i: None, op, check, round_len=1)


SETUPS = {
    "bundled": _setup_bundled,
    "ensemble": _setup_ensemble,
    "rk4_verify": _setup_rk4_verify,
}


def setup(name: str, root: Path, seed: int, workdir: Path) -> Workload:
    """Parse the workload's configs and build its first system."""
    return SETUPS[name](root, seed, workdir)
