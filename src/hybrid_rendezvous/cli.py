"""Command-line front end.

Three subcommands over scenario files (see :mod:`hybrid_rendezvous.config`
for the format), each reading one run record, :func:`build_summary`:

* ``simulate --config <path> --subsystem z|inplane|full`` — run one scenario
  and write the record as ``summary.json``, with ``trajectory.csv``,
  ``events.csv`` and a gnuplot script ``plot.gp``, into the output directory;
* ``verify --config <path>`` — run the scenario and print the record's
  Lyapunov certificates (flow invariance and jump decrease) as a pass/fail
  table with one line per violation;
* ``sweep --config <path> --param <name> --values a,b,c`` — rerun the
  scenario for each parameter value and tabulate each record's impulse
  count, delta-v, convergence time and status (the dwell-time trade-off study).

Flags are config keys, put on top of the file's by :func:`config.parse_config`
before its one validation (``--out ""`` is rejected); argparse checks syntax.
Exit codes: 0 success, 1 usage (with argparse's message) or configuration
error, 2 numerical failure (a non-finite state or derivative), 3 certificate
violation (``sweep``: in any value's run, once every row is written).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict
from functools import partial
from itertools import groupby
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import __version__
from .analysis import (
    budget,
    check_flow_invariance,
    check_jump_decrease,
    convergence_time,
)
from .closed_loop import SUBSYSTEM_CHANNELS, build_system, lyapunov_values, zeta_of
from .config import ConfigError, ScenarioConfig, parse_config
from .controllers import timer_rate
from .engine import HybridSolution, IntegrationFailure, SimulationOptions, simulate
from .hcw import OrbitParams

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_CERTIFICATE = 3

SWEEPABLE = ("tau_m_z", "tau_m_beta", "tau_m_alpha", "umax")

#: Rows per block of the CSV writers: a writer's memory is one block at any run length.
WRITE_ROWS = 256


def _numbers(text: str) -> list[float]:
    """``--values``: a comma-separated list of at least one number."""
    try:
        values = [float(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:  # "could not convert string to float: 'a'"
        raise argparse.ArgumentTypeError(str(exc)) from None
    if not values:
        raise argparse.ArgumentTypeError(f"no numbers in {text!r}")
    return values


def run_scenario(cfg: ScenarioConfig):
    """Simulate one scenario; returns (solution, params, attractor spec)."""
    p = cfg.params()
    system = build_system(p, cfg.thresholds(), cfg.subsystem, cfg.integrator)
    sol = simulate(system, cfg.initial_state(), cfg.options())
    return sol, p, cfg.attractor()


def flow_drift_tolerance(cfg: ScenarioConfig) -> float:
    """Flow-invariance drift budget: 1e-12 for exact propagation.  An RK4
    step keeps beta and the alpha ramp exact and scales each oscillator
    energy by ``|R(i theta)|^2 = 1 - theta^6/72 + theta^8/576``, ``theta = n
    step_h``; RK4 adds that factor's change over its ``k = ceil(t_max /
    step_h)`` steps, about ``k theta^6 / 72`` (inf if an unstable one overflows)."""
    if cfg.integrator == "closed_form":
        return 1e-12
    theta = np.float64(cfg.n * cfg.step_h)
    steps = np.ceil(cfg.options().t_max / cfg.step_h)
    with np.errstate(over="ignore"):
        per_step = np.log1p(theta**6 * (theta * theta / 576.0 - 1.0 / 72.0))
        return 1e-12 + abs(float(np.expm1(steps * per_step)))


def classify_z_event(h3: float, p: OrbitParams) -> str:
    """Label a z firing: dwell-delayed (timer margin at zero up to the event
    localization resolution) or triggered by an ``r_z`` zero crossing."""
    h3_tol = 4.0 * timer_rate(0.0, p.n) * SimulationOptions.event_tol
    return "dwell_delayed" if h3 <= h3_tol else "zero_crossing"


# ---------------------------------------------------------------------------
# file writers
# ---------------------------------------------------------------------------

TRAJECTORY_COLUMNS = (
    "t,t_orbits,j,r_x,r_y,r_z,v_x,v_y,v_z,q_z,tau_z,tau_beta,q_alpha,tau_alpha,"
    "x,y,alpha,beta,V_z,V_beta,V_alpha"
)
EVENT_COLUMNS = (
    "t,t_orbits,j,channel,u_commanded,u_applied,delta_lyap,bound,h1,h2,h3,"
    "lyap_pre,lyap_post,classification,"
    "r_x_pre,r_y_pre,r_z_pre,v_x_pre,v_y_pre,v_z_pre"
)


def _write_csv(path: Path, header: str, rows: int, block: Callable[[slice], list[str]]) -> None:
    """Write ``header`` and ``rows`` lines to ``path``, one write per
    :data:`WRITE_ROWS` rows; ``block(part)`` gives the lines of the rows in
    the slice ``part``."""
    with path.open("w") as f:
        f.write(header + "\n")
        for start in range(0, rows, WRITE_ROWS):
            f.write("\n".join([*block(slice(start, start + WRITE_ROWS)), ""]))


def _format_rows(
    floats: np.ndarray, at: Sequence[int], text: Sequence[Sequence[str]], blank=None
) -> list[str]:
    """The CSV lines of a block: ``repr`` of each float, empty where ``blank``
    is set, and the text column ``text[k]`` (no commas) before float column
    ``at[k]``.  Each run of float columns between text columns is one
    ``orjson.dumps`` split at ``],[`` into rows.  Only the lines with a blank,
    NaN or ±inf (orjson's ``null``) or a magnitude orjson lays out otherwise
    are split into fields, and those fields remade: ``1e-9 <= |x| < 1e-4``
    (``1e-9`` and ``0.00001`` for ``1e-09`` and ``1e-05``) and ``|x| >= 1e16``
    (``1e16`` for ``1e+16``) by ``repr``."""
    from orjson import OPT_SERIALIZE_NUMPY, dumps  # here: processes writing no CSV skip its load
    blank = np.zeros(floats.shape, dtype=bool) if blank is None else blank
    cuts = [0, *at, floats.shape[1]]
    columns = []
    for k, (a, b) in enumerate(zip(cuts, cuts[1:])):
        if a < b:
            run = np.ascontiguousarray(floats[:, a:b])
            columns.append(dumps(run, option=OPT_SERIALIZE_NUMPY)[2:-2].decode().split("],["))
        columns += text[k : k + 1]  # the text column after this run, if any
    lines = [*map(",".join, zip(*columns))] if len(floats) else []
    mag = np.abs(floats)
    fix = blank | (mag >= 1e-9) & (mag < 1e-4) | ~(mag < 1e16)
    texts_before = np.searchsorted(at, np.arange(floats.shape[1]), side="right").tolist()
    rows, cols = (index.tolist() for index in np.nonzero(fix))
    fixes = zip(rows, cols, floats[fix].tolist(), blank[fix].tolist())
    for i, row_fixes in groupby(fixes, key=lambda entry: entry[0]):  # row-major: one per line
        fields = lines[i].split(",")
        for _, c, x, empty in row_fixes:
            fields[c + texts_before[c]] = "" if empty else repr(x)
        lines[i] = ",".join(fields)
    return lines


def _trajectory_block(sol: HybridSolution, p: OrbitParams, part: slice) -> list[str]:
    """The trajectory lines of the samples ``part``, from whole-array view calls."""
    t, states = sol.t[part], sol.states[part]
    floats = np.column_stack(
        # the 11-vector's layout is the column order r_x .. tau_alpha
        [t, t / p.period, states, zeta_of(states, p)]
        + [*lyapunov_values(states, p).values()]
    )
    # j goes before r_x
    return _format_rows(floats, [2], [[*map(str, sol.j[part].tolist())]])


def write_trajectory(path: Path, sol: HybridSolution, p: OrbitParams) -> None:
    """Write ``trajectory.csv``: one row per sample with hybrid time, the
    11-vector, the in-plane view (x, y, alpha, beta) and the three Lyapunov
    values (columns :data:`TRAJECTORY_COLUMNS`)."""
    _write_csv(path, TRAJECTORY_COLUMNS, len(sol.t), partial(_trajectory_block, sol, p))


def _event_block(sol: HybridSolution, p: OrbitParams, part: slice) -> list[str]:
    """The lines of the events ``part``.  Guard terms fill ``h1..h3`` from the
    right (the last is the dwell margin); absent ones are blank."""
    events = sol.events[part]
    pads = np.array([3 - len(ev.margins) for ev in events])
    pres = sol.states[sol.event_rows(part) - 1, :6].tolist()  # each pre-jump plant state
    floats = np.array(
        [
            (ev.t, ev.t / p.period, ev.u_commanded, ev.u_applied, ev.delta_lyap, ev.bound,
             *[0.0] * pad, *ev.margins, ev.lyap_pre, ev.lyap_post, *pre)
            for ev, pad, pre in zip(events, pads.tolist(), pres)
        ]
    )
    text = zip(*[
        (str(ev.j_pre + 1), ev.channel,
         classify_z_event(ev.margins[-1], p) if ev.channel == "z" else "")
        for ev in events
    ])
    # j and channel go before u_commanded, classification before r_x_pre; h1..h3 are floats 6..8
    blank = np.pad(pads[:, None] > np.arange(3), ((0, 0), (6, 8)))
    return _format_rows(floats, [2, 2, 11], [*text], blank)


def write_events(path: Path, sol: HybridSolution, p: OrbitParams) -> None:
    """Write ``events.csv``: one row per applied jump with its input, the
    Lyapunov change against its bound, the guard margins, the z firing's
    classification and the pre-jump plant state (columns
    :data:`EVENT_COLUMNS`)."""
    _write_csv(path, EVENT_COLUMNS, len(sol.events), partial(_event_block, sol, p))


def build_summary(
    cfg: ScenarioConfig, sol: HybridSolution, p: OrbitParams, spec
) -> tuple[dict, list]:
    """The run record: the ``summary.json`` dict and the certificate
    violations, flow then jump.  Its ``config`` holds the run's inputs: every
    field but ``output_dir``, ``None`` for a timer at its threshold."""
    tol = flow_drift_tolerance(cfg)
    conv = convergence_time(sol, p, spec)
    flow_report = check_flow_invariance(sol, p, tol=tol)
    jump_report = check_jump_decrease(sol)
    summary = {
        "version": __version__,
        "config": {k: v for k, v in asdict(cfg).items() if k != "output_dir"},
        "status": sol.status,
        "t_final": float(sol.t[-1]),
        "t_final_orbits": float(sol.t[-1]) / p.period,
        "j_final": int(sol.j[-1]),
        "budget": asdict(budget(sol)),
        "convergence": {
            "epsilon": spec.epsilon,
            "converged": conv is not None,
            "t": None if conv is None else conv.t,
            "t_orbits": None if conv is None else conv.t / p.period,
            "j": None if conv is None else conv.j,
        },
        "certificates": {
            "flow_invariance": {
                "passed": flow_report.passed,
                "tolerance": tol,
                "worst_drift": flow_report.arc_drift,
                "violations": len(flow_report.violations),
            },
            "jump_decrease": {
                "passed": jump_report.passed,
                "events_checked": len(sol.events),
                "min_margin": jump_report.min_margin,
                "violations": len(jump_report.violations),
            },
        },
    }
    return summary, flow_report.violations + jump_report.violations


PLOT_TEMPLATE = """\
# gnuplot script over trajectory.csv / events.csv in this directory.
# Layout: relative position, velocity, Lyapunov values, impulse magnitudes.
set datafile separator ','
set terminal pngcairo size 1200,900
set output 'scenario.png'
set multiplot layout 2,2
set key autotitle columnhead
set xlabel 'orbits'

set title 'relative position [m]'
plot 'trajectory.csv' using 2:4 with lines title 'r_x', \\
     '' using 2:5 with lines title 'r_y', \\
     '' using 2:6 with lines title 'r_z'

set title 'relative velocity [m/s]'
plot 'trajectory.csv' using 2:7 with lines title 'v_x', \\
     '' using 2:8 with lines title 'v_y', \\
     '' using 2:9 with lines title 'v_z'

set title 'Lyapunov functions'
set logscale y
plot 'trajectory.csv' using 2:($19 + 1e-18) with lines title 'V_z', \\
     '' using 2:($20 + 1e-18) with lines title 'V_beta', \\
     '' using 2:($21 + 1e-18) with lines title 'V_alpha'
unset logscale y

set title 'applied impulses [m/s]'
plot 'events.csv' using 2:(abs($6)) with impulses title '|u|'
unset multiplot
"""


def write_outputs(out_dir: Path, cfg: ScenarioConfig, sol, p, spec) -> tuple[dict, list]:
    """Write the four output files; returns the :func:`build_summary` record."""
    out_dir.mkdir(parents=True, exist_ok=True)
    write_trajectory(out_dir / "trajectory.csv", sol, p)
    write_events(out_dir / "events.csv", sol, p)
    summary, violations = build_summary(cfg, sol, p, spec)
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    (out_dir / "plot.gp").write_text(PLOT_TEMPLATE)
    return summary, violations


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_simulate(args) -> int:
    cfg = parse_config(args.config, subsystem=args.subsystem, output_dir=args.out)
    start = time.perf_counter()
    sol, p, spec = run_scenario(cfg)
    elapsed = time.perf_counter() - start
    out_dir = Path(cfg.output_dir)
    summary, violations = write_outputs(out_dir, cfg, sol, p, spec)
    print(
        f"{cfg.subsystem}: status={sol.status} t={summary['t_final_orbits']:.3f} orbits "
        f"jumps={summary['j_final']} dv={summary['budget']['total_delta_v']:.4f} m/s "
        f"({elapsed:.2f} s) -> {out_dir}"
    )
    if violations:
        print("certificate violation: see summary.json", file=sys.stderr)
        return EXIT_CERTIFICATE
    return EXIT_OK


def cmd_verify(args) -> int:
    cfg = parse_config(args.config)
    sol, p, spec = run_scenario(cfg)
    summary, violations = build_summary(cfg, sol, p, spec)
    flow, jump = summary["certificates"].values()
    margin = "n/a" if jump["min_margin"] is None else f"{jump['min_margin']:.3e}"
    drift = max(flow["worst_drift"].values())
    for name, cert, detail in (
        ("flow invariance", flow, f"worst drift {drift:.3e} (tol {flow['tolerance']:.3g})"),
        ("jump decrease", jump, f"{jump['events_checked']} events, min margin {margin}"),
    ):
        print(f"{'PASS' if cert['passed'] else 'FAIL'}  {name:<16} {detail}")
    for v in violations:
        print(
            f"      violation at t={v.t:.3f} j={v.j}: {v.quantity} "
            f"observed {v.observed:.6e} vs bound {v.bound:.6e}"
        )
    return EXIT_CERTIFICATE if violations else EXIT_OK


def cmd_sweep(args) -> int:
    cases = [
        parse_config(args.config, output_dir=args.out, **{args.param: value})
        for value in args.values
    ]
    print(
        f"{args.param:>12} {'impulses':>9} {'total_dv':>10} "
        f"{'conv_orbits':>12} {'status':>10}"
    )
    floats, text, failures = [], [], []
    for value, case in zip(args.values, cases):
        try:
            sol, p, spec = run_scenario(case)
        except IntegrationFailure as exc:
            print(f"numerical failure at {args.param}={value}: {exc}", file=sys.stderr)
            return EXIT_NUMERICAL
        summary, violations = build_summary(case, sol, p, spec)
        failures += [f"{args.param}={value}: {v.quantity}" for v in violations[:1]]
        count = sum(summary["budget"]["impulse_counts"].values())
        total_dv = summary["budget"]["total_delta_v"]
        conv_orbits = summary["convergence"]["t_orbits"]
        conv_str = "never" if conv_orbits is None else f"{conv_orbits:.3f}"
        print(
            f"{value:>12.6g} {count:>9d} {total_dv:>10.4f} "
            f"{conv_str:>12} {summary['status']:>10}"
        )
        floats.append((value, total_dv, conv_orbits))
        text.append((str(count), summary["status"]))
    # impulse_count goes before total_delta_v, status last; blank: a run that did not converge
    blank = np.array([[False, False, conv is None] for *_, conv in floats])
    lines = _format_rows(np.array(floats, dtype=float), [1, 3], [*zip(*text)], blank)
    out_dir = Path(cases[0].output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    header = f"{args.param},impulse_count,total_delta_v,convergence_orbits,status"
    _write_csv(out_dir / "sweep.csv", header, len(lines), lines.__getitem__)
    for failure in failures:
        print(f"certificate violation at {failure}", file=sys.stderr)
    return EXIT_CERTIFICATE if failures else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hybrid-rdv",
        description="Impulsive hybrid-control rendezvous simulator and verifier.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run a scenario and export results")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--subsystem", choices=SUBSYSTEM_CHANNELS, default=None)
    p_sim.add_argument("--out", default=None, help="output directory override")
    p_sim.set_defaults(func=cmd_simulate)

    p_ver = sub.add_parser("verify", help="run a scenario and check certificates")
    p_ver.add_argument("--config", required=True)
    p_ver.set_defaults(func=cmd_verify)

    p_swp = sub.add_parser("sweep", help="rerun a scenario over parameter values")
    p_swp.add_argument("--config", required=True)
    p_swp.add_argument("--param", required=True, choices=SWEEPABLE)
    p_swp.add_argument("--values", required=True, type=_numbers, help="comma-separated list")
    p_swp.add_argument("--out", default=None, help="output directory override")
    p_swp.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except IntegrationFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
