"""Hill-Clohessy-Wiltshire relative dynamics and the in-plane change of coordinates.

Everything here is a pure function; the transition matrix is the tuple of
its 36 entries row by row.  The plant state vector is ordered
``(r_x, r_y, r_z, v_x, v_y, v_z)`` in the LVLH frame (x radial, y
along-track, z cross-track), in meters and meters/second; ``to_zeta``
reads any state by these indices, the closed loop's longer one too.

The in-plane coordinate change splits the coupled (r_x, r_y) motion into a
harmonic oscillator (x, y) and a double integrator (alpha, beta):

    x     = -3 r_x - (2/n) v_y
    y     = v_x
    alpha = -(2/n) v_x + r_y
    beta  = -6 n r_x - 3 v_y

Under the unforced flow these satisfy xdot = y, ydot = -n^2 x,
alphadot = beta, betadot = 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Plant state vector layout.
RX, RY, RZ, VX, VY, VZ = range(6)


@dataclass(frozen=True)
class OrbitParams:
    """Target orbit rate and thruster saturation bound.

    Parameters
    ----------
    n : float
        Mean orbital angular speed of the target, rad/s.  The default
        corresponds to a circular low Earth orbit near 500 km altitude.
    umax : float
        Per-axis bound on the magnitude of a single velocity impulse, m/s.
    """

    n: float = 0.0011
    umax: float = 0.2

    def __post_init__(self):
        if not (np.isfinite(self.n) and self.n > 0):
            raise ValueError(f"mean motion n must be positive and finite, got {self.n}")
        if not (np.isfinite(self.umax) and self.umax > 0):
            raise ValueError(f"impulse bound umax must be positive and finite, got {self.umax}")

    @property
    def period(self) -> float:
        """Orbital period 2*pi/n, seconds."""
        return 2.0 * np.pi / self.n


def sat(u: float, umax: float) -> float:
    """Symmetric saturation: clamp ``u`` to ``[-umax, umax]``.

    Odd in ``u`` and satisfies the sector property
    ``(u - sat(u)) * sat(u) >= 0``.
    """
    if u > umax:
        return umax
    if u < -umax:
        return -umax
    return u


def hcw_derivative(state, p: OrbitParams) -> tuple:
    """Unforced HCW vector field at a plant state.

    Accelerations are ``a_x = 3 n^2 r_x + 2 n v_y``, ``a_y = -2 n v_x``,
    ``a_z = -n^2 r_z``.  The equilibria are exactly the states with
    ``r_x = r_z = 0`` and ``v = 0`` (``r_y`` free).

    ``state`` is any sequence of six entries: floats give a tuple of floats,
    and the rows of a (6, k) array a tuple of rows.
    """
    n = p.n
    rx, ry, rz, vx, vy, vz = state
    return (vx, vy, vz, 3.0 * n * n * rx + 2.0 * n * vy, -2.0 * n * vx, -n * n * rz)


def hcw_stm(n: float, dt: float) -> tuple:
    """Exact state-transition matrix of the unforced HCW flow over ``dt`` at
    orbit rate ``n``, as the tuple of its 36 entries row by row, the form
    :func:`apply_stm` reads.

    Built from the trigonometric closed-form solution rather than a matrix
    exponential, with ``cos`` and ``sin`` taken once as Python floats.
    Negative ``dt`` propagates backward.
    """
    c = float(np.cos(n * dt))
    s = float(np.sin(n * dt))
    # Rows and columns in state order (r_x, r_y, r_z, v_x, v_y, v_z).  The
    # in-plane block couples r_x, r_y, v_x, v_y (secular drift lives in the
    # r_y row); the out-of-plane block is a pure oscillator.
    return (
        4.0 - 3.0 * c, 0.0, 0.0, s / n, 2.0 * (1.0 - c) / n, 0.0,
        6.0 * (s - n * dt), 1.0, 0.0, 2.0 * (c - 1.0) / n, (4.0 * s - 3.0 * n * dt) / n, 0.0,
        0.0, 0.0, c, 0.0, 0.0, s / n,
        3.0 * n * s, 0.0, 0.0, c, 2.0 * s, 0.0,
        6.0 * n * (c - 1.0), 0.0, 0.0, -2.0 * s, 4.0 * c - 3.0, 0.0,
        0.0, 0.0, -n * s, 0.0, 0.0, c,
    )


def apply_stm(m, s) -> tuple:
    """``M s`` in one stated order, for ``m`` the tuple :func:`hcw_stm` returns and
    ``s`` the six plant floats, so no BLAS kernel sets its bits.  Structural
    zeros and the unit r_y coefficient are skipped; the other rows sum left to right,
    r_y as ``(m r_x + (r_y + m v_x)) + m v_y``.  A zero row is ``+0.0``, as from a BLAS
    accumulator started at ``+0.0``.  ``cos`` and ``sin`` in ``m`` remain the host's."""
    rx, ry, rz, vx, vy, vz = s
    return (
        (m[0] * rx + m[3] * vx + m[4] * vy) or 0.0,
        (m[6] * rx + (ry + m[9] * vx) + m[10] * vy) or 0.0,
        (m[14] * rz + m[17] * vz) or 0.0,
        (m[18] * rx + m[21] * vx + m[22] * vy) or 0.0,
        (m[24] * rx + m[27] * vx + m[28] * vy) or 0.0,
        (m[32] * rz + m[35] * vz) or 0.0,
    )


def to_zeta(s, p: OrbitParams) -> tuple:
    """The in-plane rows (x, y, alpha, beta) of a state ``s``, read at
    ``s[RX]``, ``s[VX]``, ``s[RY]``, ``s[VY]``: six or 11 Python floats give
    a tuple of floats, and ``state.T`` of one state or of a block a tuple of
    scalars or of columns.  Callers that need an array wrap the tuple in
    ``np.array``.
    """
    n = p.n
    rx, vx, ry, vy = s[RX], s[VX], s[RY], s[VY]
    return (
        -3.0 * rx - 2.0 * vy / n,
        vx,
        -2.0 * vx / n + ry,
        -6.0 * n * rx - 3.0 * vy,
    )
