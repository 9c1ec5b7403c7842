"""Generic hybrid-automaton execution.

A hybrid system here is a continuous flow plus a list of jump channels.  Each
channel owns a guard (a conjunction of scalar margins; the state is in the
channel's jump set iff the smallest margin is >= 0) and a jump map, which
returns the :class:`ImpulseEvent` of its firing.  The executor alternates
fixed-step flow integration with jump application:

* jumps preempt flow — whenever any guard is satisfied, jumps are applied
  before integrating further;
* among simultaneously active channels, the order of the system's channels
  is the priority: the first active one jumps, and the guards are
  re-evaluated on the post-jump state before the next;
* guard activations inside a flow step are localized in time by left-biased
  bisection, re-integrating from the step's start state at each probe.

The jump set is the union of the channels' sets, and :func:`first_active`
is its one query: the first channel whose guard holds, or ``None``.  Each
flow sample is asked once, on one ``tolist()`` that every guard reads; an
accepted step end is already known to lie outside every jump set, and a
drained state too.

Jump sets are closed: margins are compared against zero with exact
floating-point ``>=`` after localization, with no epsilon inflation.  A run
ends at ``t_max`` or when ``j_max`` jumps are spent, never on convergence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np


class IntegrationFailure(Exception):
    """A flow step produced a non-finite state or derivative."""

    def __init__(self, message: str, state: np.ndarray | None = None):
        super().__init__(message)
        self.state = state


class EventBracketError(ValueError):
    """Bisection preconditions violated (bad bracket or no crossing)."""


class HybridTime(NamedTuple):
    """A point (t, j) of a hybrid time domain: continuous time in seconds
    and cumulative jump count."""

    t: float
    j: int


@dataclass(frozen=True)
class GuardConjunction:
    """A jump-set membership test: conjunction of scalar margins.

    ``terms`` maps a state, given as any sequence of its 11 floats, to the
    tuple of margins; the state is in the jump set iff every margin is
    ``>= 0``.  The executor passes ``state.tolist()``, one per sample, which
    gives the same margins as the array itself at a fraction of the cost.
    """

    terms: Callable[[Sequence[float]], tuple[float, ...]]

    def margin(self, state: Sequence[float]) -> float:
        return min(self.terms(state))


@dataclass(frozen=True)
class JumpChannel:
    """One impulse channel: a named guard conjunction plus a jump map
    ``jump(state, t, j_pre)`` that returns the :class:`ImpulseEvent` of its
    firing at hybrid time ``(t, j_pre)``, post-jump state included."""

    name: str
    guard: GuardConjunction
    jump: Callable[[np.ndarray, float, int], ImpulseEvent]


@dataclass(frozen=True)
class ImpulseEvent:
    """Record of one applied jump.

    ``j_pre`` is the jump counter before the event (the event itself is jump
    number ``j_pre + 1``).  ``margins`` are the guard terms evaluated at the
    trigger state.  ``delta_lyap`` is the observed change of the channel's
    Lyapunov function and ``bound`` the theorem bound it must not exceed.
    """

    channel: str
    t: float
    j_pre: int
    u_commanded: float
    u_applied: float
    state_pre: np.ndarray
    state_post: np.ndarray
    margins: tuple[float, ...]
    lyap_pre: float
    lyap_post: float
    bound: float

    @property
    def delta_lyap(self) -> float:
        return self.lyap_post - self.lyap_pre


@dataclass(frozen=True)
class SimulationOptions:
    """Fixed-step executor knobs.  A run always lasts until ``t_max`` or
    ``j_max``; simultaneous guard activations resolve in the order of
    :attr:`HybridSystem.channels`.  ``event_tol`` must be at least the float
    spacing at ``t_max``: a finer bisection bracket cannot shrink."""

    step_h: float
    t_max: float
    j_max: int = 100_000
    event_tol: float = 1e-6
    integrator: str = "closed_form"

    def __post_init__(self):
        # Written as negated comparisons so that NaN fails them too.
        if not self.step_h > 0:
            raise ValueError(f"step_h must be positive, got {self.step_h}")
        if not self.t_max >= 0:
            raise ValueError(f"t_max must be non-negative, got {self.t_max}")
        if not 0 < self.event_tol < self.step_h:
            raise ValueError(
                f"event_tol must satisfy 0 < event_tol < step_h, got {self.event_tol}"
            )
        if not self.event_tol >= np.spacing(self.t_max):
            raise ValueError(
                f"event_tol must be at least the float spacing at t_max, "
                f"{np.spacing(self.t_max):.2g}, got {self.event_tol}"
            )
        if not self.j_max > 0:
            raise ValueError(f"j_max must be a positive integer, got {self.j_max}")
        if self.integrator not in ("closed_form", "rk4"):
            raise ValueError(f"unknown integrator {self.integrator!r}")


@dataclass(frozen=True)
class HybridSystem:
    """Flow + jump channels + exact propagator.  ``channels`` is in jump
    priority order."""

    flow: Callable[[np.ndarray], np.ndarray]
    channels: tuple[JumpChannel, ...]
    flow_to: Callable[[np.ndarray, float], np.ndarray]


@dataclass
class HybridSolution:
    """A sampled hybrid arc: states indexed by hybrid time, plus events.

    Samples include every integration step endpoint and the pre/post state of
    every jump (jumps contribute two samples at the same ``t`` with ``j``
    incremented).  ``status`` is ``"t_max"`` or ``"jump_budget_exhausted"``.
    """

    t: np.ndarray
    j: np.ndarray
    states: np.ndarray
    events: list[ImpulseEvent]
    status: str

    def arcs(self) -> list[tuple[int, int]]:
        """Index ranges [start, stop) of maximal constant-``j`` sample runs
        (the flow arcs, including zero-duration ones between immediate
        jumps)."""
        bounds = [0, *(np.flatnonzero(np.diff(self.j)) + 1).tolist(), len(self.j)]
        return list(zip(bounds[:-1], bounds[1:]))


def rk4_step(state: np.ndarray, derivative_fn, h: float) -> np.ndarray:
    """One classical 4th-order Runge-Kutta update of step ``h``."""
    if h <= 0:
        raise ValueError(f"step must be positive, got {h}")
    k1 = derivative_fn(state)
    k2 = derivative_fn(state + 0.5 * h * k1)
    k3 = derivative_fn(state + 0.5 * h * k2)
    k4 = derivative_fn(state + h * k3)
    if not np.isfinite(k4).all():
        raise IntegrationFailure("non-finite derivative encountered", state)
    return state + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def first_active(channels: Sequence[JumpChannel], state: np.ndarray) -> JumpChannel | None:
    """The first of ``channels`` whose jump set holds ``state``, or ``None``
    outside their union; no guard after it is evaluated."""
    values = state.tolist()
    for ch in channels:
        if ch.guard.margin(values) >= 0.0:
            return ch
    return None


def locate_event(
    inside: Callable[[np.ndarray], bool],
    flow_to: Callable[[np.ndarray, float], np.ndarray],
    state_a: np.ndarray,
    state_b: np.ndarray,
    t_a: float,
    t_b: float,
    event_tol: float,
) -> tuple[float, np.ndarray]:
    """Localize the first guard activation inside a flow step by bisection.

Requires jump-set membership ``inside(state_b)`` but not
    ``inside(state_a)``.  Each probe re-integrates from ``state_a`` (no guard
    interpolation).  The bisection is left-biased: it keeps the earliest
    entry found, so a set entered twice within the bracket resolves to its
    first entry.  Returns the earliest probed ``(t, state)`` inside once the
    bracket is narrower than ``event_tol`` (at least the spacing at ``t_b``).
    """
    if t_a >= t_b:
        raise EventBracketError(f"need t_a < t_b, got [{t_a}, {t_b}]")
    if inside(state_a):
        raise EventBracketError("bracket precondition violated: state_a is inside")
    if not inside(state_b):
        raise EventBracketError("no guard crossing inside the bracket")
    lo, hi = t_a, t_b
    state_hi = state_b
    while hi - lo > event_tol:
        mid = 0.5 * (lo + hi)
        state_mid = flow_to(state_a, mid - t_a)
        if inside(state_mid):
            hi, state_hi = mid, state_mid
        else:
            lo = mid
    return hi, state_hi


def resolve_jumps(
    state: np.ndarray,
    t: float,
    j: int,
    channels: Sequence[JumpChannel],
    j_max: int,
) -> tuple[np.ndarray, list[ImpulseEvent], bool]:
    """Apply jumps while any guard is active, one at a time in channel order.

    Each jump fires the first active channel of ``channels``; guards after
    it are not evaluated.  The channel's jump map returns the event, and the
    next jump starts from its ``state_post``.  Guards are re-evaluated on the
    post-jump state after every applied jump, so a later channel still
    active after an earlier one's jump fires next at the same ``t``.  Returns
    the post-jump state, the events in application order, and a flag set
    when ``j_max`` was hit while guards were still active (the Zeno guard).
    """
    ch = first_active(channels, state)
    if ch is None:
        raise ValueError("resolve_jumps requires at least one active channel")
    events: list[ImpulseEvent] = []
    budget_hit = False
    while ch is not None:
        if j + len(events) >= j_max:
            budget_hit = True
            break
        events.append(ch.jump(state, t, j + len(events)))
        state = events[-1].state_post
        ch = first_active(channels, state)
    return state, events, budget_hit


def simulate(
    system: HybridSystem, x0: np.ndarray, opts: SimulationOptions
) -> HybridSolution:
    """Run the hybrid executor from ``x0`` until ``t_max`` or ``j_max``.

    Each sample's membership in the union jump set is asked of
    :func:`first_active` once: ``x0`` before the loop, and each step's
    candidate end state after integrating it.  Jumps are drained at
    ``t = 0`` when ``x0`` is in the union, and after every landing on a
    guard before ``t_max``; a landing at exactly ``t_max`` is not drained.

    Deterministic: identical ``(x0, opts)`` produce bit-identical solutions.
    """
    if opts.integrator == "closed_form":
        flow_to = system.flow_to
    else:
        flow = system.flow

        def flow_to(state: np.ndarray, dt: float) -> np.ndarray:
            return rk4_step(state, flow, dt)

    state = np.array(x0, dtype=float)
    if not np.isfinite(state).all():
        raise IntegrationFailure("non-finite initial state", state)
    t, j = 0.0, 0
    ts, js, samples = [t], [j], [state]
    events: list[ImpulseEvent] = []
    status = "t_max"

    def inside(s: np.ndarray) -> bool:
        return first_active(system.channels, s) is not None

    in_jump_set = inside(state)
    while t < opts.t_max:
        # Jumps preempt flow: drain the active set before integrating.
        if in_jump_set:
            state, new_events, budget_hit = resolve_jumps(
                state, t, j, system.channels, opts.j_max
            )
            for ev in new_events:
                events.append(ev)
                j += 1
                ts.append(t)
                js.append(j)
                samples.append(ev.state_post)
            if budget_hit:
                status = "jump_budget_exhausted"
                break
        h = min(opts.step_h, opts.t_max - t)
        candidate = flow_to(state, h)
        if not np.isfinite(candidate).all():
            raise IntegrationFailure("non-finite state during flow", candidate)
        in_jump_set = inside(candidate)
        if in_jump_set:
            # A guard activates inside this step; land exactly on it.  The
            # step's start state was accepted or drained, so it is not
            # inside here.
            t_star, state = locate_event(
                inside, flow_to, state, candidate, t, t + h, opts.event_tol
            )
            t = t_star
        else:
            state = candidate
            t += h
        ts.append(t)
        js.append(j)
        samples.append(state)

    return HybridSolution(
        t=np.array(ts),
        j=np.array(js, dtype=int),
        states=np.array(samples),
        events=events,
        status=status,
    )
