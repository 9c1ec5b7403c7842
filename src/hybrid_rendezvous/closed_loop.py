"""Composition of the three stabilizer channels with the HCW plant.

The full closed-loop state is a flat 11-vector: the plant ``(r, v)`` followed
by the controller variables of each channel::

    index  0    1    2    3    4    5    6    7      8         9        10
    value  r_x  r_y  r_z  v_x  v_y  v_z  q_z  tau_z  tau_beta  q_alpha  tau_alpha

The transformed in-plane view (x, y, alpha, beta) is :func:`hcw.to_zeta`
of the state itself, recomputed once per state, never stored.  Each channel
is declared once, as a :class:`ChannelLaw` in :data:`CHANNELS`: its guard,
command law and Lyapunov function, which read the state by component index
``s[k]`` as ``to_zeta`` does (the command and the Lyapunov function take
the view from their caller), and the components its jump edits.  The views
(``zeta_of``, ``lyapunov_values`` and ``distance_to_attractor``) pass
``state.T`` of one state ``(11,)`` or a block ``(N, 11)``: a scalar for one
state and a column for a block.  (``state[..., k]`` would give a 0-d array
for one state, whose arithmetic is several times slower.)

The per-sample hot path (both propagators, the guards and the jump maps)
reads a state once with ``tolist()`` and passes the same definitions a list
of Python floats, which round exactly as NumPy's float64 scalars do, without
NumPy's per-call cost.  One :func:`make_channel` builds every channel's
guard and jump map from its law.

Subsystem variants (z only, in-plane only) run on the same 11-vector with the
unused channels simply absent from the jump list.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import lru_cache, partial
from typing import Callable

import numpy as np

from . import controllers as ctl
from .engine import GuardConjunction, HybridSystem, ImpulseEvent, IntegrationFailure, JumpChannel
from .hcw import (
    RX,
    RY,
    RZ,
    VX,
    VY,
    VZ,
    OrbitParams,
    apply_stm,
    hcw_derivative,
    hcw_stm,
    to_zeta,
)

QZ, TAUZ, TAUB, QA, TAUA = 6, 7, 8, 9, 10
DIM = 11

#: Each subsystem's channels, in jump priority order: where jump sets
#: overlap, the first active channel listed fires first.
SUBSYSTEM_CHANNELS = {
    "z": ("z",),
    "inplane": ("beta", "alpha"),
    "full": ("z", "beta", "alpha"),
}


@dataclass(frozen=True)
class DwellThresholds:
    """Per-channel dwell-time thresholds tau^M, each in (0, 2)."""

    z: float = 0.01
    beta: float = 0.02
    alpha: float = 0.01

    def __post_init__(self):
        for name, v in asdict(self).items():
            if not (0.0 < v < 2.0):
                raise ValueError(
                    f"dwell threshold for {name} channel must lie in (0, 2), got {v}"
                )


@dataclass(frozen=True)
class AttractorSpec:
    """Which rest set to measure distance to, and the convergence radius.

    ``which`` selects the zeroed components: ``z`` -> (r_z, v_z),
    ``inplane`` -> (x, y, alpha, beta), ``full`` -> both.  Logic variables and
    timers are unconstrained.  The distance is the Lyapunov-consistent
    quadratic form, so ``distance**2`` equals the sum of the corresponding
    Lyapunov functions.
    """

    which: str
    epsilon: float

    def __post_init__(self):
        if self.which not in SUBSYSTEM_CHANNELS:
            raise ValueError(f"unknown subsystem {self.which!r}")
        if not self.epsilon > 0:
            raise ValueError(f"convergence radius must be positive, got {self.epsilon}")


def make_state(
    r=(0.0, 0.0, 0.0),
    v=(0.0, 0.0, 0.0),
    q_z: float = 1.0,
    tau_z: float = 0.0,
    tau_beta: float = 0.0,
    q_alpha: float = 1.0,
    tau_alpha: float = 0.0,
) -> np.ndarray:
    """Assemble a full closed-loop state vector."""
    if q_z not in (-1.0, 1.0) or q_alpha not in (-1.0, 1.0):
        raise ValueError("logic variables must be exactly -1 or 1")
    for name, tau in (("tau_z", tau_z), ("tau_beta", tau_beta), ("tau_alpha", tau_alpha)):
        if not (0.0 <= tau <= 2.0):
            raise ValueError(f"{name} must lie in [0, 2], got {tau}")
    state = np.zeros(DIM)
    state[RX], state[RY], state[RZ] = r
    state[VX], state[VY], state[VZ] = v
    state[QZ], state[TAUZ] = q_z, tau_z
    state[TAUB] = tau_beta
    state[QA], state[TAUA] = q_alpha, tau_alpha
    return state


def zeta_of(state: np.ndarray, p: OrbitParams) -> np.ndarray:
    """Transformed in-plane view (x, y, alpha, beta) of a full state.

    ``state`` is one state of shape ``(11,)``, giving shape ``(4,)``, or a
    block of states ``(N, 11)``, giving ``(N, 4)`` with row ``i`` equal, bit
    for bit, to the view of ``state[i]``.
    """
    return np.array(to_zeta(state.T, p)).T


@lru_cache(maxsize=256)
def _stm(build: Callable, n: float, dt: float) -> tuple:
    """``build(n, dt)``, from the one matrix cache of the process, keyed by
    orbit rate and step: every system on one ``n`` shares it.  Steps repeat:
    full steps share ``h``, and a probe of a step's bracket ``[t_a, t_b]``
    has ``dt = mid - t_a``, exact, a dyadic fraction ``k (t_b - t_a)/2^m`` of
    a bracket length that takes few values.  The 256 most recent are kept
    (as brackets need not recur), about 0.2 MB.  ``build``, the ``hcw_stm``
    in force at the call, is in the key so that a replacement (a counting
    wrapper) starts from an empty cache."""
    return build(n, dt)


def make_flow_to(p: OrbitParams):
    """Exact flow propagator, called with ``dt > 0`` on every engine path: the
    plant by :func:`_stm`'s matrix, applied in :func:`apply_stm`'s order to
    one ``tolist()``, the timers by their closed-form advance on Python
    floats, the logic variables carried."""
    n = p.n

    def flow_to(state: np.ndarray, dt: float) -> np.ndarray:
        rx, ry, rz, vx, vy, vz, q_z, tau_z, tau_b, q_a, tau_a = state.tolist()
        return np.fromiter([
            *apply_stm(_stm(hcw_stm, n, dt), (rx, ry, rz, vx, vy, vz)), q_z,
            ctl.timer_advance(tau_z, dt, n), ctl.timer_advance(tau_b, dt, n),
            q_a, ctl.timer_advance(tau_a, dt, n),
        ], float)

    return flow_to


def make_rk4_flow_to(p: OrbitParams):
    """Fixed-step RK4 propagator (``integrator = rk4``): one classical step of
    ``dt`` per call, in one frame.  The flow couples no blocks, so each runs
    alone, on float locals: the plant's stages ``x + a * k`` and update
    ``x + w * (k1 + 2 k2 + 2 k3 + k4)`` per component, each timer as a scalar,
    the logic variables carried: the bits of the array form's step on the
    11-vector.  ``hcw_derivative`` and ``ctl.timer_rate`` are each read once
    per call, so a patch is seen from the next call on.  A timer whose
    ``tau + dt * k1`` stays at or below the knee tau = 1 takes one rate, as
    every stage point lies in between, where ``timer_rate`` is one constant
    (``test_controllers``' ``test_rate_is_full_exactly_up_to_one``):
    k2 = k3 = k4 = k1, same bits."""
    n, isfinite = p.n, math.isfinite

    def timer(rate, tau: float, h: float, half: float, w: float) -> float:
        k1 = rate(tau, n)
        if tau <= 1.0 and isfinite(k1) and tau + h * k1 <= 1.0:
            return tau + w * (k1 + 2.0 * k1 + 2.0 * k1 + k1)  # every stage at or below the knee
        k2 = rate(tau + half * k1, n)
        k3 = rate(tau + half * k2, n)
        k4 = rate(tau + h * k3, n)
        if not isfinite(k4):
            raise IntegrationFailure("non-finite derivative encountered")
        return tau + w * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    def flow_to(state: np.ndarray, h: float) -> np.ndarray:
        f, rate = hcw_derivative, ctl.timer_rate
        rx, ry, rz, vx, vy, vz, qz, tz, tb, qa, ta = state.tolist()
        half, w = 0.5 * h, h / 6.0
        a0, a1, a2, a3, a4, a5 = f((rx, ry, rz, vx, vy, vz), p)
        b0, b1, b2, b3, b4, b5 = f((rx + half * a0, ry + half * a1, rz + half * a2,
                                    vx + half * a3, vy + half * a4, vz + half * a5), p)
        c0, c1, c2, c3, c4, c5 = f((rx + half * b0, ry + half * b1, rz + half * b2,
                                    vx + half * b3, vy + half * b4, vz + half * b5), p)
        d0, d1, d2, d3, d4, d5 = f((rx + h * c0, ry + h * c1, rz + h * c2,
                                    vx + h * c3, vy + h * c4, vz + h * c5), p)
        if not (isfinite(d0) and isfinite(d1) and isfinite(d2)
                and isfinite(d3) and isfinite(d4) and isfinite(d5)):
            raise IntegrationFailure("non-finite derivative encountered")
        return np.fromiter([
            rx + w * (a0 + 2.0 * b0 + 2.0 * c0 + d0),
            ry + w * (a1 + 2.0 * b1 + 2.0 * c1 + d1),
            rz + w * (a2 + 2.0 * b2 + 2.0 * c2 + d2),
            vx + w * (a3 + 2.0 * b3 + 2.0 * c3 + d3),
            vy + w * (a4 + 2.0 * b4 + 2.0 * c4 + d4),
            vz + w * (a5 + 2.0 * b5 + 2.0 * c5 + d5),
            qz, timer(rate, tz, h, half, w), timer(rate, tb, h, half, w),
            qa, timer(rate, ta, h, half, w),
        ], float)

    return flow_to


PROPAGATORS = {"closed_form": make_flow_to, "rk4": make_rk4_flow_to}  # by ``integrator``


# ---------------------------------------------------------------------------
# the three channels
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChannelLaw:
    """One impulse channel, declared once over the 11-vector.

    ``guard(p, tau_m, s)`` gives the margins, the last one the dwell margin
    ``tau - tau^M``; the state is in the channel's jump set iff all are
    ``>= 0``.  ``command(s, zeta, p)`` is the commanded impulse and
    ``lyapunov(s, zeta, p)`` the channel's Lyapunov function, with ``zeta``
    the :func:`hcw.to_zeta` view of ``s``.  All three read ``s`` by state
    component: a list of 11 floats (the guards and jump maps) or ``state.T``
    of one state or a block (the views).  A firing adds the applied impulse
    to velocity ``thrust``, resets ``timer``, negates ``logic`` (if any) when
    the command was unsaturated, and decreases V by at least
    ``gain * u_applied * u_commanded``.
    """

    guard: Callable[..., tuple[float, ...]]
    command: Callable[..., float]
    lyapunov: Callable[..., float]
    thrust: int
    timer: int
    logic: int | None = None
    gain: float = 1.0


def _alpha_guard(p: OrbitParams, tau_m: float, s) -> tuple[float, float, float]:
    x, y, alpha, _ = to_zeta(s, p)
    w = y - p.n * alpha / 2.0
    return ((w - p.n * x) * x, s[QA] * w, s[TAUA] - tau_m)


#: The channels, in the order of :data:`SUBSYSTEM_CHANNELS` ``["full"]``:
#:
#: * **z** damps the cross-track oscillator.  Its margins are
#:   ``r_z (v_z - n r_z)``, which selects the quarter-arcs of the
#:   ``(r_z, v_z / n)`` phase circle entered at ``r_z = 0`` crossings,
#:   ``q_z v_z``, which matches the firing polarity, and the dwell margin.
#:   The command ``-v_z`` cancels as much of ``v_z`` as the actuator allows.
#:   ``V_z = n^2 r_z^2 + v_z^2`` is conserved along the unforced z flow.
#: * **beta** drives the along-track drift rate ``beta`` to zero.  It is
#:   purely timer-driven (its one margin is the dwell margin, and it has no
#:   logic variable).  The command is ``beta / 3``, so that
#:   ``beta+ = beta - 3 sat(beta / 3)`` through the input gain -3: each
#:   firing removes up to ``3 umax`` from ``|beta|`` and convergence takes
#:   finitely many impulses.  ``V_beta = beta^2`` is constant along the
#:   unforced flow (``betadot = 0``).
#: * **alpha** steers the in-plane oscillator pair (x, y) and the drift
#:   offset ``alpha`` with the radial-impulse law ``u_x = n alpha / 4 - y / 2``.
#:   With ``w = y - n alpha / 2``, its margins are ``(w - n x) x``,
#:   ``q_alpha w`` and the dwell margin; its guard computes its own zeta.
#:   ``V_alpha = n^2 x^2 + y^2 + (n^2 / 4) alpha^2`` is conserved along the
#:   unforced in-plane flow.
CHANNELS = {
    "z": ChannelLaw(
        guard=lambda p, tau_m, s: (s[RZ] * (s[VZ] - p.n * s[RZ]), s[QZ] * s[VZ], s[TAUZ] - tau_m),
        command=lambda s, zeta, p: -s[VZ],
        lyapunov=lambda s, zeta, p: p.n * p.n * s[RZ] * s[RZ] + s[VZ] * s[VZ],
        thrust=VZ, timer=TAUZ, logic=QZ,
    ),
    "beta": ChannelLaw(
        guard=lambda p, tau_m, s: (s[TAUB] - tau_m,),
        command=lambda s, zeta, p: zeta[3] / 3.0,
        lyapunov=lambda s, zeta, p: zeta[3] * zeta[3],
        thrust=VY, timer=TAUB,
    ),
    "alpha": ChannelLaw(
        guard=_alpha_guard,
        command=lambda s, zeta, p: p.n * zeta[2] / 4.0 - zeta[1] / 2.0,
        lyapunov=lambda s, zeta, p: (
            p.n * p.n * zeta[0] * zeta[0] + zeta[1] * zeta[1]
            + 0.25 * p.n * p.n * zeta[2] * zeta[2]
        ),
        thrust=VX, timer=TAUA, logic=QA, gain=2.0,
    ),
}


def make_channel(name: str, p: OrbitParams, tau_m: float) -> JumpChannel:
    """Channel ``name`` of :data:`CHANNELS` with dwell threshold ``tau_m``:
    its guard terms ``partial(law.guard, p, tau_m)``, and the jump map all
    channels share.  On one ``tolist()`` and its zeta the jump records the
    margins by those terms and V, fires the command through :func:`ctl.fire`,
    applies the law's edits, and records V after and the theorem bound.  It
    returns the post-jump state, a new array, and the event, which keeps none."""
    law = CHANNELS[name]
    terms = partial(law.guard, p, tau_m)
    command, lyapunov = law.command, law.lyapunov
    thrust, timer, logic, gain = law.thrust, law.timer, law.logic, law.gain

    def jump(state: np.ndarray, t: float, j_pre: int) -> tuple[np.ndarray, ImpulseEvent]:
        s = state.tolist()
        zeta = to_zeta(s, p)
        margins = terms(s)
        lyap_pre = lyapunov(s, zeta, p)
        u_cmd = command(s, zeta, p)
        u, unsaturated = ctl.fire(u_cmd, p.umax)
        s[thrust] += u
        s[timer] = 0.0
        if logic is not None and unsaturated:
            s[logic] = -s[logic]
        return np.array(s), ImpulseEvent(
            name, t, j_pre, u_cmd, u, margins,
            lyap_pre, lyapunov(s, to_zeta(s, p), p), -gain * u * u_cmd,
        )

    return JumpChannel(name=name, guard=GuardConjunction(terms=terms), jump=jump)


# ---------------------------------------------------------------------------
# Lyapunov functions and attractor distance
# ---------------------------------------------------------------------------


def lyapunov_values(state: np.ndarray, p: OrbitParams) -> dict[str, float | np.ndarray]:
    """Each channel's Lyapunov function at a state, in :data:`CHANNELS` order.

    For one state ``(11,)`` each value is a scalar; for a block ``(N, 11)``
    each is an ``(N,)`` array whose entry ``i`` equals, bit for bit, the
    value at ``state[i]``.
    """
    zeta = to_zeta(state.T, p)
    return {name: law.lyapunov(state.T, zeta, p) for name, law in CHANNELS.items()}


def distance_to_attractor(state: np.ndarray, p: OrbitParams, which: str) -> float | np.ndarray:
    """Distance of a state to the rest set of subsystem ``which``.

    This is the Lyapunov-consistent form: ``distance**2`` is the sum of the
    selected channels' Lyapunov functions, which makes convergence
    thresholds scale-free across orbit rates.

    One state ``(11,)`` gives a Python ``float``; a block ``(N, 11)`` gives
    an ``(N,)`` array of the per-row distances, bit for bit.
    """
    values = lyapunov_values(state, p)
    total = sum(values[name] for name in SUBSYSTEM_CHANNELS[which])
    dist = np.sqrt(total)
    return float(dist) if state.ndim == 1 else dist


def build_system(
    p: OrbitParams,
    thresholds: DwellThresholds,
    subsystem: str = "full",
    integrator: str = "closed_form",
) -> HybridSystem:
    """Assemble the closed-loop hybrid system for a subsystem variant.

    ``subsystem`` selects the active channels: ``"z"``, ``"inplane"``
    (beta + alpha), or ``"full"``.  ``flow_to`` is the ``integrator``'s
    propagator.  No path reads ``flow``, ``None``: ``bench/tracer.py`` replaces it.
    """
    if subsystem not in SUBSYSTEM_CHANNELS:
        raise ValueError(f"unknown subsystem {subsystem!r}")
    if integrator not in PROPAGATORS:
        raise ValueError(f"unknown integrator {integrator!r}")
    channels = tuple(
        make_channel(name, p, getattr(thresholds, name))
        for name in SUBSYSTEM_CHANNELS[subsystem]
    )
    return HybridSystem(flow=None, channels=channels, flow_to=PROPAGATORS[integrator](p))
