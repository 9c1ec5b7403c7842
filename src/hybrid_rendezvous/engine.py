"""Generic hybrid-automaton execution.

A hybrid system here is a continuous flow plus jump channels.  Each channel
owns a guard (a conjunction of scalar margins; the state is in its jump set
iff the smallest margin is >= 0) and a jump map, which returns the post-jump
state and the :class:`ImpulseEvent` of its firing.  The executor alternates
fixed steps of the system's propagator ``flow_to`` with jump application:

* jumps preempt flow — whenever any guard is satisfied, jumps are applied
  before integrating further;
* among simultaneously active channels, the order of the system's channels
  is the priority: the first active one jumps, and the guards are
  re-evaluated on the post-jump state before the next;
* guard activations inside a flow step are localized in time by left-biased
  bisection, re-integrating from the step's start state at each probe.

The jump set is the union of the channels' sets, and :func:`first_active`
is its one query: the first channel whose guard holds, or ``None``.  Each
state is asked once, on one ``tolist()`` that every guard reads (for ``x0``
and each step's end state, the floats checked finite first), and its answer
travels with it into :func:`locate_event` and :func:`resolve_jumps`.

Jump sets are closed: margins are compared against zero with exact
floating-point ``>=`` after localization, with no epsilon inflation.  A run
ends at ``t_max``, never on convergence, and its jumps are not capped: the
system's jump maps must leave their jump sets, or a drain at one ``t`` never
ends.  The closed loop's do, by resetting the channel's dwell timer.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np


class IntegrationFailure(Exception):
    """A flow step produced a non-finite state or derivative."""


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
    ``jump(state, t, j_pre)`` that returns the post-jump state, a new array,
    and the :class:`ImpulseEvent` of its firing at hybrid time ``(t, j_pre)``."""

    name: str
    guard: GuardConjunction
    jump: Callable[[np.ndarray, float, int], tuple[np.ndarray, ImpulseEvent]]


@dataclass(frozen=True, slots=True)
class ImpulseEvent:
    """Record of one applied jump.

    ``j_pre`` is the jump counter before the event (the event itself is jump
    number ``j_pre + 1``).  ``margins`` are the guard terms evaluated at the
    trigger state.  ``delta_lyap`` is the observed change of the channel's
    Lyapunov function and ``bound`` the theorem bound it must not exceed.
    Its states are the rows :meth:`HybridSolution.event_rows` names.
    """

    channel: str
    t: float
    j_pre: int
    u_commanded: float
    u_applied: float
    margins: tuple[float, ...]
    lyap_pre: float
    lyap_post: float
    bound: float

    @property
    def delta_lyap(self) -> float:
        return self.lyap_post - self.lyap_pre


@dataclass(frozen=True)
class SimulationOptions:
    """Fixed-step executor knobs; the propagator is the system's own
    ``flow_to``.  A run always lasts until ``t_max``; simultaneous guard
    activations resolve in the order of :attr:`HybridSystem.channels`.
    ``event_tol`` must be at least the float spacing at ``t_max``: a finer
    bisection bracket cannot shrink."""

    step_h: float
    t_max: float
    event_tol: float = 1e-6

    def __post_init__(self):
        # Written as negated comparisons so that NaN fails them too.
        if not self.step_h > 0:
            raise ValueError(f"step_h must be positive, got {self.step_h}")
        if not (math.isfinite(self.t_max) and self.t_max >= 0):
            raise ValueError(f"t_max must be finite and non-negative, got {self.t_max}")
        if not 0 < self.event_tol < self.step_h:
            raise ValueError(
                f"step_h must exceed the {self.event_tol:g} s event resolution, got {self.step_h}"
            )
        if not self.event_tol >= np.spacing(self.t_max):
            raise ValueError(
                f"horizon t_max = {self.t_max:.3g} s is too long for the {self.event_tol:g} s "
                f"event resolution: the float spacing there is {np.spacing(self.t_max):.2g} s"
            )


@dataclass(frozen=True)
class HybridSystem:
    """Jump channels + propagator ``flow_to(state, dt)``.  ``channels`` is
    in jump priority order.  No path reads ``flow``."""

    flow: Callable[[Sequence[float]], Sequence[float]] | None
    channels: tuple[JumpChannel, ...]
    flow_to: Callable[[np.ndarray, float], np.ndarray]


#: Rows per block of the certificate checks' passes over a whole run: their
#: memory stays bounded by one block.
CHUNK_ROWS = 1024


@dataclass
class HybridSolution:
    """A sampled hybrid arc: states indexed by hybrid time, plus events.

    Samples include every integration step endpoint and the pre/post state of
    every jump (jumps contribute two samples at the same ``t`` with ``j``
    incremented).  ``t``, ``j`` and the rows of ``states`` are views of the
    flat buffers :func:`simulate` filled, 104 bytes a sample for 11 floats;
    an event's states are two of those rows (:meth:`event_rows`), not copies.
    ``status``, the reason the run ended, is always ``"t_max"``.
    """

    t: np.ndarray
    j: np.ndarray
    states: np.ndarray
    events: list[ImpulseEvent]
    status: str

    def event_rows(self, part: slice = slice(None)) -> np.ndarray:
        """The post-jump row of each event in ``part``; the row before is its pre-jump row."""
        return np.searchsorted(self.j, [ev.j_pre + 1 for ev in self.events[part]])

    def blocks(self) -> Iterator[tuple[int, int]]:
        """Index ranges [lo, hi) that tile the samples with whole flow arcs
        (maximal constant-``j`` runs, zero-duration ones included): each
        ends before the arc that would take it past :data:`CHUNK_ROWS` rows,
        or after its first arc if that alone is longer."""
        j, lo = self.j, 0  # j is non-decreasing: each arc is the run of one value
        while lo < len(j):
            hi = len(j)
            if lo + CHUNK_ROWS < hi:  # end where the arc holding row lo + CHUNK_ROWS starts
                hi = int(np.searchsorted(j, j[lo + CHUNK_ROWS]))
            if hi == lo:
                hi = int(np.searchsorted(j, j[lo], side="right"))
            yield lo, hi
            lo = hi


def first_active(channels: Sequence[JumpChannel], values: Sequence[float]) -> JumpChannel | None:
    """The first of ``channels`` whose jump set holds the state whose floats
    are ``values``, or ``None`` outside their union; no later guard is run."""
    for ch in channels:
        if ch.guard.margin(values) >= 0.0:
            return ch
    return None


def locate_event(
    query: Callable[[list[float]], object],
    flow_to: Callable[[np.ndarray, float], np.ndarray],
    state_a: np.ndarray,
    state_b: np.ndarray,
    t_a: float,
    t_b: float,
    event_tol: float,
    found_b: object,
) -> tuple[float, np.ndarray, object]:
    """Localize the first guard activation inside a flow step by bisection.

    The caller guarantees ``t_a < t_b`` and has asked ``query`` of both
    ends' floats: ``state_a`` is outside and ``found_b``, the answer at
    ``state_b``, is truthy (inside).  Each probe re-integrates from
    ``state_a`` (no guard interpolation) and its floats are asked once.
    The bisection is left-biased: it keeps the earliest entry found, so a
    set entered twice within the bracket resolves to its first entry.
    Returns the earliest probed ``(t, state, found)`` inside, with its
    answer, once the bracket is narrower than ``event_tol`` (at least the
    spacing at ``t_b``).
    """
    lo, hi = t_a, t_b
    state_hi, found = state_b, found_b
    while hi - lo > event_tol:
        mid = 0.5 * (lo + hi)
        state_mid = flow_to(state_a, mid - t_a)
        if found_mid := query(state_mid.tolist()):
            hi, state_hi, found = mid, state_mid, found_mid
        else:
            lo = mid
    return hi, state_hi, found


def resolve_jumps(
    state: np.ndarray,
    t: float,
    j: int,
    ch: JumpChannel,
    channels: Sequence[JumpChannel],
) -> tuple[list[np.ndarray], list[ImpulseEvent]]:
    """Apply jumps while any guard is active, one at a time in channel order.

    It fires ``ch``, the caller's :func:`first_active` of ``state``; guards
    after the first active one are not evaluated.  The channel's jump map
    returns the post-jump state and the event, and the next jump starts from
    that state.  Guards are re-evaluated on the post-jump state after every
    applied jump, so a later channel still active after an earlier one's
    jump fires next at the same ``t``.  Returns the post-jump states and the
    events, in application order.
    """
    states, events = [], []
    while ch is not None:
        state, event = ch.jump(state, t, j + len(events))
        states.append(state)
        events.append(event)
        ch = first_active(channels, state.tolist())
    return states, events


def simulate(
    system: HybridSystem, x0: np.ndarray, opts: SimulationOptions
) -> HybridSolution:
    """Run the hybrid executor from ``x0`` until ``t_max``.

    It flows by ``system.flow_to``, whichever propagator that is.  Each
    state is asked of :func:`first_active` once, and the answer is carried:
    ``x0`` before the loop, each step's candidate end state after
    integrating it, and the probes and post-jump states inside
    :func:`locate_event` and :func:`resolve_jumps`.  ``x0`` and each
    candidate are read as floats once, which are checked finite before they
    are asked.  Jumps are drained at ``t = 0`` when ``x0`` is in the union,
    and after every landing on a guard before ``t_max``; a landing at
    exactly ``t_max`` is not drained.  Each sample's bytes, post-jump states
    included, go onto one flat buffer, and ``t`` and ``j`` onto typed
    arrays, which the solution views as they are: no array per sample or
    event is kept, and nothing is copied at the end.

    Deterministic: identical ``(x0, opts)`` produce bit-identical solutions.
    """
    state = np.array(x0, dtype=float)
    values = state.tolist()
    if not all(map(math.isfinite, values)):
        raise IntegrationFailure("non-finite initial state")
    t, j = 0.0, 0
    ts, js, samples = array("d", [t]), array("q", [j]), bytearray(state.tobytes())
    events: list[ImpulseEvent] = []

    query = partial(first_active, system.channels)
    active = query(values)
    while t < opts.t_max:
        # Jumps preempt flow: drain the active set before integrating.
        if active is not None:
            posts, new_events = resolve_jumps(state, t, j, active, system.channels)
            events += new_events
            for state in posts:  # the last one is where the flow resumes
                j += 1
                ts.append(t)
                js.append(j)
                samples += state.tobytes()
        h = min(opts.step_h, opts.t_max - t)
        candidate = system.flow_to(state, h)
        values = candidate.tolist()
        if not all(map(math.isfinite, values)):
            raise IntegrationFailure("non-finite state during flow")
        active = query(values)
        if active is not None:
            # A guard activates inside this step; land exactly on it.  The
            # step's start state was accepted or drained, so it is not
            # inside here.
            t, state, active = locate_event(
                query, system.flow_to, state, candidate, t, t + h, opts.event_tol, active
            )
        else:
            state = candidate
            t += h
        ts.append(t)
        js.append(j)
        samples += state.tobytes()

    return HybridSolution(
        t=np.frombuffer(ts),
        j=np.frombuffer(js, dtype=np.int64).astype(int, copy=False),
        states=np.frombuffer(samples).reshape(len(ts), -1),
        events=events,
        status="t_max",
    )
