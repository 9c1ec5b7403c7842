"""Composition of the three stabilizer channels with the HCW plant.

The full closed-loop state is a flat 11-vector: the plant ``(r, v)`` followed
by the controller variables of each channel::

    index  0    1    2    3    4    5    6    7      8         9        10
    value  r_x  r_y  r_z  v_x  v_y  v_z  q_z  tau_z  tau_beta  q_alpha  tau_alpha

The transformed in-plane view (x, y, alpha, beta) is always recomputed from
the plant, never stored.  Each channel's Lyapunov function has one
definition in :data:`LYAPUNOV`, which reads the state by component index
``s[k]``.  The views (``zeta_of``, ``lyapunov_values`` and
``distance_to_attractor``) pass ``state.T`` of one state ``(11,)`` or a
block ``(N, 11)``: a scalar for one state and a column for a block.
(``state[..., k]`` would give a 0-d array for one state, whose arithmetic is
several times slower.)

The per-sample hot path (the propagator's timers, the guards and the jump
maps) reads a state once with ``tolist()`` and passes the same definitions a
list of Python floats, which round exactly as NumPy's float64 scalars do,
without NumPy's per-call cost.  Each jump map is built by ``_channel`` from
the channel's command law, thrust velocity, timer and logic variable.

Subsystem variants (z only, in-plane only) run on the same 11-vector with the
unused channels simply absent from the jump list.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from operator import itemgetter

import numpy as np

from . import controllers as ctl
from .engine import GuardConjunction, HybridSystem, ImpulseEvent, JumpChannel
from .hcw import (
    INPLANE,
    RX,
    RY,
    RZ,
    VX,
    VY,
    VZ,
    OrbitParams,
    hcw_derivative,
    hcw_stm,
    to_zeta,
)

QZ, TAUZ, TAUB, QA, TAUA = 6, 7, 8, 9, 10
DIM = 11

#: The in-plane components ``(r_x, v_x, r_y, v_y)`` of anything indexed by
#: state component, as a tuple.
_inplane_of = itemgetter(*INPLANE)

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

    which: str = "full"
    epsilon: float = 1e-3

    def __post_init__(self):
        if self.which not in SUBSYSTEM_CHANNELS:
            raise ValueError(f"unknown subsystem {self.which!r}")
        if not self.epsilon > 0:
            raise ValueError(f"convergence_eps must be positive, got {self.epsilon}")


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


def zeta_components(s, p: OrbitParams) -> tuple:
    """``(x, y, alpha, beta)`` of ``s``, indexed by state component: a list
    of 11 floats gives four floats, and ``state.T`` of a block gives four
    columns."""
    return to_zeta(_inplane_of(s), p)


def zeta_of(state: np.ndarray, p: OrbitParams) -> np.ndarray:
    """Transformed in-plane view (x, y, alpha, beta) of a full state.

    ``state`` is one state of shape ``(11,)``, giving shape ``(4,)``, or a
    block of states ``(N, 11)``, giving ``(N, 4)`` with row ``i`` equal, bit
    for bit, to the view of ``state[i]``.
    """
    return np.array(zeta_components(state.T, p)).T


def full_flow(state: np.ndarray, p: OrbitParams) -> np.ndarray:
    """Closed-loop vector field: HCW plant, frozen logic variables, timer
    flows.  The timers are read with one ``tolist()`` and the result is one
    array literal in state order."""
    _, tau_z, tau_b, _, tau_a = state[QZ:].tolist()
    return np.array([
        *hcw_derivative(state[:6], p).tolist(),
        0.0, ctl.timer_rate(tau_z, p.n), ctl.timer_rate(tau_b, p.n),
        0.0, ctl.timer_rate(tau_a, p.n),
    ])


def make_flow(p: OrbitParams):
    """Derivative callable for the fixed-step integrator."""

    def flow(state: np.ndarray) -> np.ndarray:
        return full_flow(state, p)

    return flow


def make_flow_to(p: OrbitParams):
    """Exact flow propagator: HCW transition matrix on the plant, closed-form
    timer advance, constant logic variables.

    The propagator keeps a one-entry memo ``(dt, hcw_stm(p, dt))`` of the
    last matrix it built, so consecutive full steps of one ``dt`` share one
    matrix; any other ``dt`` builds its own and takes the entry.  The matrix
    is a pure function of ``(p, dt)``, so reuse gives the same bits.  Each
    call reads the five controller entries with one ``tolist()`` and
    advances the three timers on Python floats.  The plant product is
    ``np.dot``: the same BLAS matrix-vector product as ``@``, with less
    dispatch cost per call.
    """
    memo_dt, memo_stm = None, None

    def flow_to(state: np.ndarray, dt: float) -> np.ndarray:
        nonlocal memo_dt, memo_stm
        if dt != memo_dt:
            memo_dt, memo_stm = dt, hcw_stm(p, dt)
        _, tau_z, tau_b, _, tau_a = state[QZ:].tolist()
        out = state.copy()
        out[:6] = np.dot(memo_stm, state[:6])
        out[TAUZ] = ctl.timer_advance(tau_z, dt, p.n)
        out[TAUB] = ctl.timer_advance(tau_b, dt, p.n)
        out[TAUA] = ctl.timer_advance(tau_a, dt, p.n)
        return out

    return flow_to


# ---------------------------------------------------------------------------
# Lyapunov functions and attractor distance
# ---------------------------------------------------------------------------


#: Each channel's Lyapunov function of ``(s, p)``.  ``s`` is read by state
#: component, so the same definition takes a list of 11 floats (the jump
#: maps) or ``state.T`` of one state or a block (the views).
LYAPUNOV = {
    "z": lambda s, p: ctl.z_lyapunov(s[RZ], s[VZ], p.n),
    "beta": lambda s, p: ctl.beta_lyapunov(zeta_components(s, p)[3]),
    "alpha": lambda s, p: ctl.alpha_lyapunov(*zeta_components(s, p)[:3], p.n),
}


def lyapunov_values(state: np.ndarray, p: OrbitParams) -> dict[str, float | np.ndarray]:
    """Each channel's :data:`LYAPUNOV` value at a state.

    For one state ``(11,)`` each value is a scalar; for a block ``(N, 11)``
    each is an ``(N,)`` array whose entry ``i`` equals, bit for bit, the
    value at ``state[i]``.
    """
    return {name: f(state.T, p) for name, f in LYAPUNOV.items()}


def distance_to_attractor(
    state: np.ndarray,
    p: OrbitParams,
    spec: AttractorSpec,
) -> float | np.ndarray:
    """Distance of a state to the rest set named by ``spec.which``.

    This is the Lyapunov-consistent form: ``distance**2`` is the sum of the
    selected channels' Lyapunov functions, which makes convergence
    thresholds scale-free across orbit rates.

    One state ``(11,)`` gives a Python ``float``; a block ``(N, 11)`` gives
    an ``(N,)`` array of the per-row distances, bit for bit.
    """
    values = lyapunov_values(state, p)
    total = sum(values[name] for name in SUBSYSTEM_CHANNELS[spec.which])
    dist = np.sqrt(total)
    return float(dist) if state.ndim == 1 else dist


# ---------------------------------------------------------------------------
# channel adapters over the 11-vector
#
# A channel is its guard terms and its command law on a list of 11 floats
# (the engine passes ``state.tolist()``), plus the indices its jump edits.
# ---------------------------------------------------------------------------


def _channel(
    name: str, p: OrbitParams, terms, command, thrust, timer, logic=None, gain=1.0
) -> JumpChannel:
    """Channel ``name``: guard ``terms`` and the jump map all channels share.
    On one ``tolist()`` it records the margins and ``LYAPUNOV[name]``, fires
    ``command`` through :func:`ctl.fire`, adds the impulse to velocity
    ``thrust``, resets ``timer``, negates ``logic`` if the command was
    unsaturated, and bounds the change of V by ``-gain * u_applied * u_commanded``."""
    lyapunov = LYAPUNOV[name]

    def jump(state: np.ndarray, t: float, j_pre: int) -> ImpulseEvent:
        s = state.tolist()
        margins = terms(s)
        lyap_pre = lyapunov(s, p)
        u_cmd = command(s)
        u, unsaturated = ctl.fire(u_cmd, p.umax)
        s[thrust] += u
        s[timer] = 0.0
        if logic is not None and unsaturated:
            s[logic] = -s[logic]
        return ImpulseEvent(
            name, t, j_pre, u_cmd, u, state, np.array(s), margins,
            lyap_pre, lyapunov(s, p), -gain * u * u_cmd,
        )

    return JumpChannel(name=name, guard=GuardConjunction(terms=terms), jump=jump)


def make_z_channel(p: OrbitParams, tau_m: float) -> JumpChannel:
    return _channel(
        "z", p, lambda s: ctl.z_guard(s[RZ], s[VZ], s[QZ], s[TAUZ], p, tau_m),
        lambda s: ctl.z_command(s[VZ]), thrust=VZ, timer=TAUZ, logic=QZ,
    )


def make_beta_channel(p: OrbitParams, tau_m: float) -> JumpChannel:
    return _channel(
        "beta", p, lambda s: ctl.beta_guard(s[TAUB], tau_m),
        lambda s: ctl.beta_command(zeta_components(s, p)[3]), thrust=VY, timer=TAUB,
    )


def make_alpha_channel(p: OrbitParams, tau_m: float) -> JumpChannel:
    def terms(s) -> tuple[float, float, float]:
        x, y, al, _ = zeta_components(s, p)
        return ctl.alpha_guard(x, y, al, s[QA], s[TAUA], p, tau_m)

    return _channel(
        "alpha", p, terms, lambda s: ctl.alpha_command(*zeta_components(s, p)[1:3], p),
        thrust=VX, timer=TAUA, logic=QA, gain=2.0,
    )


def build_system(
    p: OrbitParams,
    thresholds: DwellThresholds,
    subsystem: str = "full",
) -> HybridSystem:
    """Assemble the closed-loop hybrid system for a subsystem variant.

    ``subsystem`` selects the active channels: ``"z"``, ``"inplane"``
    (beta + alpha), or ``"full"``.  The flow is always the full 11-vector
    field; inactive channels simply never jump.
    """
    if subsystem not in SUBSYSTEM_CHANNELS:
        raise ValueError(f"unknown subsystem {subsystem!r}")
    factories = {"z": make_z_channel, "beta": make_beta_channel, "alpha": make_alpha_channel}
    channels = tuple(
        factories[name](p, getattr(thresholds, name))
        for name in SUBSYSTEM_CHANNELS[subsystem]
    )
    return HybridSystem(
        flow=make_flow(p),
        channels=channels,
        flow_to=make_flow_to(p),
    )
