"""The dwell timers and the firing rule that the three impulse channels share.

Each channel (its guard, command law and Lyapunov function) is declared
once, in :data:`closed_loop.CHANNELS`; :func:`fire` turns any channel's
command into its applied impulse and its toggle condition.

Logic variables toggle only when the commanded impulse is within the
saturation bound, i.e. when the firing drives the channel's velocity-like
quantity (``v_z`` for z, ``y - n alpha / 2`` for alpha) to zero.  A saturated
firing leaves the channel armed with the same polarity, so the dwell timer
alone gates a series of follow-up impulses that finish the cancellation.
This keeps a saturated firing from stranding the logic variable on the wrong
side; a logic variable's start value can still strand its channel for good.

Dwell timers flow as ``taudot = (n / 2 pi) (1 - max(tau - 1, 0))``: linear
at rate ``n / 2 pi`` below 1 (so one timer unit is one orbit fraction), then
relaxing asymptotically toward 2.  A channel may fire only once its timer has
reached the threshold ``tau^M``; the jump resets the timer to 0.
"""

from __future__ import annotations

import numpy as np

from .hcw import sat

TWO_PI = 2.0 * np.pi


# ---------------------------------------------------------------------------
# dwell timers
# ---------------------------------------------------------------------------


def timer_rate(tau: float, n: float) -> float:
    """Right-hand side of the timer flow, ``(n / 2 pi) (1 - max(tau - 1, 0))``."""
    return (n / TWO_PI) * (1.0 - (tau - 1.0 if tau > 1.0 else 0.0))


def timer_advance(tau: float, dt: float, n: float) -> float:
    """Exact flow of the dwell timer over ``dt >= 0`` seconds.

    Piecewise closed form: linear at rate ``n / 2 pi`` while ``tau <= 1``,
    then exponential relaxation toward 2 (``tau(t) = 2 - (2 - tau0) e^{-kt}``
    with ``k = n / 2 pi``).  The interval [0, 2] is forward invariant.
    """
    k = n / TWO_PI
    if tau <= 1.0:
        linear_time = (1.0 - tau) / k
        if dt <= linear_time:
            return tau + k * dt
        tau, dt = 1.0, dt - linear_time
    return 2.0 - (2.0 - tau) * np.exp(-k * dt)


# ---------------------------------------------------------------------------
# firing rule, shared by the three channels
# ---------------------------------------------------------------------------


def fire(u_cmd: float, umax: float) -> tuple[float, bool]:
    """The firing rule of every channel: the applied impulse ``sat(u_cmd)``
    and whether ``|u_cmd| <= umax``, the condition a logic variable toggles on."""
    return sat(u_cmd, umax), abs(u_cmd) <= umax
