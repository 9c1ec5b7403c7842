"""Post-hoc verification of simulated trajectories.

Checks the two halves of each channel's Lyapunov certificate on an actual
:class:`~hybrid_rendezvous.engine.HybridSolution`:

* **flow invariance** — along every flow arc each Lyapunov function must
  follow the closed-form flow: V_z and V_beta = beta^2 stay constant, and
  V_alpha, whose flow derivative is (n^2/2) alpha beta, gains its integral
  over the arc's ramp alpha = alpha_0 + beta_0 t;
* **jump decrease** — every applied impulse must not increase its channel's
  Lyapunov function by more than the per-channel algebraic bound, with only
  rounding slack; zero-input firings must leave it unchanged.

Also provides delta-v accounting and convergence-time extraction for the
dwell-time trade-off study.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .closed_loop import AttractorSpec, distance_to_attractor, lyapunov_values
from .engine import HybridSolution, HybridTime
from .hcw import OrbitParams, to_zeta

#: Impulses at or below this magnitude (m/s) are bookkept as zero firings:
#: on-attractor timer resets and event-localization residue, not maneuvers.
IMPULSE_FLOOR = 1e-9

#: Denominator floor (squared-state units) for relative drift of near-zero
#: Lyapunov values, to avoid 0/0 on converged arcs.
DRIFT_FLOOR = 1e-12

#: Rounding slack on a jump's Lyapunov change (squared-state units): the
#: change may exceed its theorem bound, and a zero-input jump may move V,
#: by at most this much.
JUMP_SLACK = 1e-12


@dataclass(frozen=True)
class Violation:
    """One certificate failure: where, what quantity, observed vs. allowed."""

    t: float
    j: int
    quantity: str
    observed: float
    bound: float


@dataclass
class CertificateReport:
    """Outcome of one certificate check over a whole solution.

    ``arc_drift`` maps each Lyapunov function name to its worst relative
    drift over any flow arc; ``min_margin`` is the least event margin
    ``bound - delta_V`` (``None`` without events).  Passing means no violations.
    """

    arc_drift: dict[str, float] = field(default_factory=dict)
    min_margin: float | None = None
    violations: list[Violation] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
class ManeuverBudget:
    """Delta-v accounting over a solution.

    Counts and sums include only impulses with ``|u_applied|`` above the
    zero-firing floor; ``event_counts`` additionally tallies every applied
    jump, including zero ones.
    """

    impulse_counts: dict[str, int]
    event_counts: dict[str, int]
    delta_v: dict[str, float]
    total_delta_v: float
    last_impulse_time: float | None


def check_flow_invariance(
    sol: HybridSolution,
    p: OrbitParams,
    tol: float,
) -> CertificateReport:
    """Verify the Lyapunov functions follow the unforced flow on every arc.

    Each sample's V must equal its arc-start value advanced by the closed-form
    flow: V_z and V_beta are first integrals, and V_alpha gains
    ``n^2 beta_0 dt (alpha_0/2 + beta_0 dt/4)``, the integral of
    ``(n^2/2) alpha beta`` along ``alpha = alpha_0 + beta_0 dt``, with
    ``alpha_0`` and ``beta_0`` the arc start's and ``dt`` the time since it.

    For each arc and each function, the drift is
    ``max_t |V(t) - V_flow(t)| / max(V_flow(t), DRIFT_FLOOR)`` and must not
    exceed ``tol``; a NaN drift fails.  The arcs are taken a
    :meth:`~HybridSolution.blocks` block at a time, so the temporaries are
    one block's, and the violations come in arc order.
    """
    report = CertificateReport()
    for lo, hi in sol.blocks():
        lyap = lyapunov_values(sol.states[lo:hi], p)
        names = tuple(lyap)
        values = np.column_stack(tuple(lyap.values()))
        starts = np.flatnonzero(np.diff(sol.j[lo:hi], prepend=-1))  # the block's arcs
        stops = np.append(starts[1:], hi - lo)
        arc_of = np.repeat(np.arange(len(starts)), stops - starts)  # each sample's arc
        ref = values[starts][arc_of]
        _, _, alpha0, beta0 = (v[arc_of] for v in to_zeta(sol.states[lo + starts].T, p))
        dt = sol.t[lo:hi] - sol.t[lo + starts][arc_of]
        ref[:, names.index("alpha")] += p.n * p.n * beta0 * dt * (alpha0 / 2.0 + beta0 * dt / 4.0)
        drift = np.abs(values - ref) / np.maximum(ref, DRIFT_FLOOR)
        arc_worst = np.maximum.reduceat(drift, starts, axis=0)
        for arc, k in zip(*np.nonzero(~(arc_worst <= tol))):
            idx = lo + starts[arc] + int(np.argmax(drift[starts[arc] : stops[arc], k]))
            report.violations.append(Violation(
                t=float(sol.t[idx]), j=int(sol.j[idx]), quantity=f"V_{names[k]} flow drift",
                observed=float(arc_worst[arc, k]), bound=tol,
            ))
        # Python's max, in arc order, leaves a NaN drift (a violation) out.
        for k, name in enumerate(names):
            worst = [report.arc_drift.get(name, 0.0), *arc_worst[:, k].tolist()]
            report.arc_drift[name] = max(worst)
    return report


def check_jump_decrease(sol: HybridSolution) -> CertificateReport:
    """Verify every impulse against its channel's jump-decrease bound.

    Nonzero-input events must satisfy ``delta_V <= bound +`` :data:`JUMP_SLACK`
    where the bound is the per-channel algebraic identity recorded at jump
    time (``-v_z sat(v_z)``, ``-sat(beta/3)(beta/3)``, ``-2 sat(u_x) u_x``).
    Zero-input events must have ``|delta_V| <=`` :data:`JUMP_SLACK`.  A NaN
    ``delta_V`` fails either test.
    """
    report = CertificateReport()
    for ev in sol.events:
        delta = ev.delta_lyap
        if abs(ev.u_applied) <= IMPULSE_FLOOR:
            kind, bound, excess = "zero-input", 0.0, abs(delta)
        else:
            kind, bound, excess = "jump", ev.bound, delta
        margin = bound - excess  # 0.0, not -0.0, at rest
        if report.min_margin is None or margin < report.min_margin:  # as min(): NaN only if first
            report.min_margin = margin
        if not excess <= bound + JUMP_SLACK:
            report.violations.append(Violation(
                t=ev.t, j=ev.j_pre + 1, quantity=f"{ev.channel} {kind} delta_V",
                observed=delta, bound=bound,
            ))
    return report


def beta_jump_count(beta0: float, umax: float) -> int:
    """Number of nonzero along-track firings needed to zero a drift rate.

    Each firing removes up to ``3 umax`` from ``|beta|``, and the final
    (unsaturated) firing lands exactly on zero, so the count is
    ``ceil(|beta0| / (3 umax))``; zero for ``beta0 = 0``.
    """
    if umax <= 0:
        raise ValueError(f"umax must be positive, got {umax}")
    return math.ceil(abs(beta0) / (3.0 * umax))


def budget(sol: HybridSolution) -> ManeuverBudget:
    """Sum |applied impulse| and count firings per channel."""
    counts: dict[str, int] = {}
    event_counts: dict[str, int] = {}
    dv: dict[str, float] = {}
    last: float | None = None
    for ev in sol.events:
        event_counts[ev.channel] = event_counts.get(ev.channel, 0) + 1
        mag = abs(ev.u_applied)
        if mag > IMPULSE_FLOOR:
            counts[ev.channel] = counts.get(ev.channel, 0) + 1
            dv[ev.channel] = dv.get(ev.channel, 0.0) + mag
            last = ev.t
    return ManeuverBudget(
        impulse_counts=counts,
        event_counts=event_counts,
        delta_v=dv,
        total_delta_v=sum(dv.values(), 0.0),
        last_impulse_time=last,
    )


def convergence_time(
    sol: HybridSolution,
    p: OrbitParams,
    spec: AttractorSpec,
) -> HybridTime | None:
    """First hybrid time after which the attractor distance stays within
    ``spec.epsilon`` for the rest of the horizon; ``None`` if never.  The
    samples are scanned a :meth:`~HybridSolution.blocks` block at a time,
    last block first, down to the last sample outside the ball."""
    idx = 0  # the sample after the last one outside the ball
    for lo, hi in reversed([*sol.blocks()]):
        dist = distance_to_attractor(sol.states[lo:hi], p, spec.which)
        outside = np.flatnonzero(~(dist <= spec.epsilon))
        if len(outside):
            idx = lo + int(outside[-1]) + 1
            break
    if idx == len(sol.t):
        return None
    return HybridTime(float(sol.t[idx]), int(sol.j[idx]))
