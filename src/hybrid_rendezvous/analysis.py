"""Post-hoc verification of simulated trajectories.

Checks the two halves of each channel's Lyapunov certificate on an actual
:class:`~hybrid_rendezvous.engine.HybridSolution`:

* **flow invariance** — V_z and V_beta = beta^2 must be constant along every
  flow arc; V_alpha is a conditional invariant (its flow derivative is
  (n^2/2) alpha beta) and is checked only on arcs where beta has already been
  driven to zero;
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
from .hcw import OrbitParams

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

#: |beta| (m/s) below which an arc counts as having beta = 0, enabling the
#: V_alpha flow-invariance check (beta is constant along arcs, so this is a
#: per-arc property).  Sized to the zero-firing residue scale.
BETA_GATE = 1e-9


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
    drift over any flow arc; ``jump_margins`` lists, per event, the slack
    ``bound - delta_V`` (non-negative when the theorem bound holds).  A
    passing report has an empty ``violations`` list.
    """

    arc_drift: dict[str, float] = field(default_factory=dict)
    jump_margins: list[float] = field(default_factory=list)
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
    """Verify the Lyapunov functions are constant along every flow arc.

    V_z and V_beta are unconditional first integrals of the unforced flow.
    V_alpha is checked only on arcs where |beta| is below :data:`BETA_GATE`
    (beta is constant along arcs): while beta is nonzero, the drift offset
    alpha ramps and V_alpha genuinely varies along the flow.

    For each arc and each checked function, the drift is
    ``max_t |V(t) - V(arc start)| / max(V(arc start), DRIFT_FLOOR)`` and
    must not exceed ``tol``.
    """
    report = CertificateReport()
    lyap = lyapunov_values(sol.states, p)
    names = tuple(lyap)
    values = np.column_stack(tuple(lyap.values()))
    worst = {name: 0.0 for name in names}
    for start, stop in sol.arcs():
        ref = values[start]
        denom = np.maximum(ref, DRIFT_FLOOR)
        drift = np.abs(values[start:stop] - ref) / denom
        arc_worst = drift.max(axis=0)
        beta_live = lyap["beta"][start] > BETA_GATE**2  # V_beta = beta^2
        for k, name in enumerate(names):
            if name == "alpha" and beta_live:
                continue
            worst[name] = max(worst[name], float(arc_worst[k]))
            if arc_worst[k] > tol:
                idx = start + int(np.argmax(drift[:, k]))
                report.violations.append(
                    Violation(
                        t=float(sol.t[idx]),
                        j=int(sol.j[idx]),
                        quantity=f"V_{name} flow drift",
                        observed=float(arc_worst[k]),
                        bound=tol,
                    )
                )
    report.arc_drift = worst
    return report


def check_jump_decrease(sol: HybridSolution) -> CertificateReport:
    """Verify every impulse against its channel's jump-decrease bound.

    Nonzero-input events must satisfy ``delta_V <= bound +`` :data:`JUMP_SLACK`
    where the bound is the per-channel algebraic identity recorded at jump
    time (``-v_z sat(v_z)``, ``-sat(beta/3)(beta/3)``, ``-2 sat(u_x) u_x``).
    Zero-input events must have ``|delta_V| <=`` :data:`JUMP_SLACK`.
    """
    report = CertificateReport()
    for ev in sol.events:
        delta = ev.delta_lyap
        if abs(ev.u_applied) <= IMPULSE_FLOOR:
            report.jump_margins.append(-abs(delta))
            if abs(delta) > JUMP_SLACK:
                report.violations.append(
                    Violation(
                        t=ev.t,
                        j=ev.j_pre + 1,
                        quantity=f"{ev.channel} zero-input delta_V",
                        observed=delta,
                        bound=0.0,
                    )
                )
            continue
        margin = ev.bound - delta
        report.jump_margins.append(margin)
        if delta > ev.bound + JUMP_SLACK:
            report.violations.append(
                Violation(
                    t=ev.t,
                    j=ev.j_pre + 1,
                    quantity=f"{ev.channel} jump delta_V",
                    observed=delta,
                    bound=ev.bound,
                )
            )
    return report


def beta_jump_count(beta0: float, umax: float) -> int:
    """Number of nonzero along-track firings needed to zero a drift rate.

    Each firing removes up to ``3 umax`` from ``|beta|``, and the final
    (unsaturated) firing lands exactly on zero, so the count is
    ``ceil(|beta0| / (3 umax))``; zero for ``beta0 = 0``.
    """
    if umax <= 0:
        raise ValueError(f"umax must be positive, got {umax}")
    if beta0 == 0.0:
        return 0
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
        total_delta_v=sum(dv.values()),
        last_impulse_time=last,
    )


def convergence_time(
    sol: HybridSolution,
    p: OrbitParams,
    spec: AttractorSpec,
) -> HybridTime | None:
    """First hybrid time after which the attractor distance stays within
    ``spec.epsilon`` for the rest of the horizon; ``None`` if never."""
    inside = distance_to_attractor(sol.states, p, spec) <= spec.epsilon
    if not inside[-1]:
        return None
    # Last sample outside the ball; convergence is the next sample.
    outside = np.nonzero(~inside)[0]
    idx = 0 if len(outside) == 0 else int(outside[-1]) + 1
    return HybridTime(float(sol.t[idx]), int(sol.j[idx]))
