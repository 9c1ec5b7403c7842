"""The three impulsive stabilizer channels as pure scalar transition rules.

Each channel is defined by an input law, a guard conjunction, and a jump
rule on its controller variables:

* **z channel** — damps the cross-track oscillator.  Fires when the
  trajectory's phase reaches a quarter-circle arc (``r_z (v_z - n r_z) >= 0``),
  the logic variable agrees with the velocity sign (``q_z v_z >= 0``), and the
  dwell timer has matured.  The impulse cancels as much of ``v_z`` as the
  actuator allows.
* **beta channel** — drives the along-track drift rate ``beta`` to zero.
  Purely timer-driven (no logic variable); each firing removes up to
  ``3 umax`` from ``|beta|``, so convergence takes finitely many impulses.
* **alpha channel** — steers the in-plane oscillator pair (x, y) and the
  drift offset ``alpha`` with the law ``u_x = n alpha / 4 - y / 2``.

Logic variables toggle only when the commanded impulse is within the
saturation bound, i.e. when the firing drives the channel's velocity-like
quantity (``v_z`` for z, ``y - n alpha / 2`` for alpha) to zero.  A saturated
firing leaves the channel armed with the same polarity, so the dwell timer
alone gates a series of follow-up impulses that finish the cancellation.
Without this, a saturated firing can strand the logic variable on the wrong
side and permanently disable the channel.

Dwell timers flow as ``taudot = (n / 2 pi) (1 - dz(tau))``: linear at rate
``n / 2 pi`` below 1 (so one timer unit is one orbit fraction), then relaxing
asymptotically toward 2.  A channel may fire only once its timer has reached
the threshold ``tau^M``; the jump resets the timer to 0.
"""

from __future__ import annotations

import numpy as np

from .hcw import OrbitParams, dz, sat

TWO_PI = 2.0 * np.pi


# ---------------------------------------------------------------------------
# dwell timers
# ---------------------------------------------------------------------------


def timer_rate(tau: float, n: float) -> float:
    """Right-hand side of the timer flow, ``(n / 2 pi) (1 - dz(tau))``."""
    return (n / TWO_PI) * (1.0 - dz(tau))


def timer_advance(tau: float, dt: float, n: float) -> float:
    """Exact flow of the dwell timer over ``dt >= 0`` seconds.

    Piecewise closed form: linear at rate ``n / 2 pi`` while ``tau <= 1``,
    then exponential relaxation toward 2 (``tau(t) = 2 - (2 - tau0) e^{-kt}``
    with ``k = n / 2 pi``).  The interval [0, 2] is forward invariant.
    """
    if dt < 0:
        raise ValueError(f"timer flow is forward-only, got dt={dt}")
    k = n / TWO_PI
    if tau <= 1.0:
        linear_time = (1.0 - tau) / k
        if dt <= linear_time:
            return tau + k * dt
        tau, dt = 1.0, dt - linear_time
    return 2.0 - (2.0 - tau) * np.exp(-k * dt)


# ---------------------------------------------------------------------------
# z channel (out-of-plane)
# ---------------------------------------------------------------------------


def z_input(v_z: float, umax: float) -> float:
    """Velocity-damping impulse ``-sat(v_z)`` (commanded value is ``-v_z``)."""
    return -sat(v_z, umax)


def z_guard(
    r_z: float, v_z: float, q_z: float, tau_z: float, p: OrbitParams, tau_m: float
) -> tuple[float, float, float]:
    """Guard margins (h1, h2, h3); the channel fires iff all are >= 0.

    h1 = r_z (v_z - n r_z) selects the quarter-arcs of the (r_z, v_z / n)
    phase circle entered at ``r_z = 0`` crossings; h2 = q_z v_z matches the
    firing polarity; h3 = tau_z - tau^M enforces the dwell time.
    """
    return (r_z * (v_z - p.n * r_z), q_z * v_z, tau_z - tau_m)


def z_jump(
    r_z: float, v_z: float, q_z: float, p: OrbitParams
) -> tuple[float, float, float]:
    """Apply the z impulse: returns (v_z_plus, q_z_plus, u_applied).

    ``v_z+ = v_z - sat(v_z)``; the timer resets to 0 (owned by the caller);
    ``q_z`` toggles iff the firing was unsaturated (``|v_z| <= umax``, so
    ``v_z+ = 0``).
    """
    u = z_input(v_z, p.umax)
    q_plus = -q_z if abs(v_z) <= p.umax else q_z
    return (v_z + u, q_plus, u)


def z_lyapunov(r_z: float, v_z: float, n: float) -> float:
    """V_z = n^2 r_z^2 + v_z^2; conserved along the unforced z flow."""
    return n * n * r_z * r_z + v_z * v_z


# ---------------------------------------------------------------------------
# beta channel (along-track drift rate)
# ---------------------------------------------------------------------------


def beta_input(beta: float, umax: float) -> float:
    """Along-track impulse ``sat(beta / 3)`` so that
    ``beta+ = beta - 3 sat(beta / 3)`` through the input gain -3."""
    return sat(beta / 3.0, umax)


def beta_guard(tau_b: float, tau_m: float) -> tuple[float]:
    """Single margin ``tau_beta - tau^M``: firing is purely periodic."""
    return (tau_b - tau_m,)


def beta_lyapunov(beta: float) -> float:
    """V_beta = beta^2; constant along unforced flow (betadot = 0)."""
    return beta * beta


# ---------------------------------------------------------------------------
# alpha channel (in-plane oscillator + drift offset)
# ---------------------------------------------------------------------------


def alpha_input(y: float, alpha: float, p: OrbitParams) -> float:
    """Radial-impulse law ``u_x = n alpha / 4 - y / 2`` (saturated at
    application time)."""
    return p.n * alpha / 4.0 - y / 2.0


def alpha_guard(
    x: float,
    y: float,
    alpha: float,
    q_a: float,
    tau_a: float,
    p: OrbitParams,
    tau_m: float,
) -> tuple[float, float, float]:
    """Guard margins (h1, h2, h3) of the alpha channel.

    h1 = (y - n alpha / 2 - n x) x, h2 = q_alpha (y - n alpha / 2),
    h3 = tau_alpha - tau^M.
    """
    w = y - p.n * alpha / 2.0
    return ((w - p.n * x) * x, q_a * w, tau_a - tau_m)


def alpha_jump(
    y: float, alpha: float, q_a: float, p: OrbitParams
) -> tuple[float, float, float, float]:
    """Apply the alpha impulse: returns (y_plus, alpha_plus, q_a_plus, s).

    With ``s = sat(u_x)``: ``y+ = y + s`` and ``alpha+ = alpha - (2/n) s``
    (the two rows of the input matrix hit by u_x).  ``q_alpha`` toggles iff
    the command was unsaturated, i.e. the firing zeroed ``y - n alpha / 2``.
    """
    u = alpha_input(y, alpha, p)
    s = sat(u, p.umax)
    q_plus = -q_a if abs(u) <= p.umax else q_a
    return (y + s, alpha - 2.0 * s / p.n, q_plus, s)


def alpha_lyapunov(x: float, y: float, alpha: float, n: float) -> float:
    """V_alpha = n^2 x^2 + y^2 + (n^2 / 4) alpha^2; conserved along the
    unforced in-plane flow."""
    return n * n * x * x + y * y + 0.25 * n * n * alpha * alpha
