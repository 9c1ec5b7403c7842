"""Hill-Clohessy-Wiltshire relative dynamics and the in-plane change of coordinates.

Everything here is a pure function over plain ``numpy`` arrays.  The plant
state vector is ordered ``(r_x, r_y, r_z, v_x, v_y, v_z)`` in the LVLH frame
(x radial, y along-track, z cross-track), in meters and meters/second.

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

#: Order of the in-plane sub-vector fed to the coordinate change.
INPLANE = (RX, VX, RY, VY)


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
            raise ValueError(f"mean motion n must be positive, got {self.n}")
        if not (np.isfinite(self.umax) and self.umax > 0):
            raise ValueError(f"impulse bound umax must be positive, got {self.umax}")

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


def dz(u: float) -> float:
    """Unit dead-zone ``u - clamp(u, -1, 1)``; zero on ``[-1, 1]``."""
    if u > 1.0:
        return u - 1.0
    if u < -1.0:
        return u + 1.0
    return 0.0


def hcw_derivative(state: np.ndarray, p: OrbitParams) -> np.ndarray:
    """Unforced HCW vector field at a plant state.

    Accelerations are ``a_x = 3 n^2 r_x + 2 n v_y``, ``a_y = -2 n v_x``,
    ``a_z = -n^2 r_z``.  The equilibria are exactly the states with
    ``r_x = r_z = 0`` and ``v = 0`` (``r_y`` free).
    """
    n = p.n
    out = np.empty(6)
    out[RX] = state[VX]
    out[RY] = state[VY]
    out[RZ] = state[VZ]
    out[VX] = 3.0 * n * n * state[RX] + 2.0 * n * state[VY]
    out[VY] = -2.0 * n * state[VX]
    out[VZ] = -n * n * state[RZ]
    return out


def hcw_stm(p: OrbitParams, dt: float) -> np.ndarray:
    """Exact state-transition matrix of the unforced HCW flow over ``dt``.

    Built from the trigonometric closed-form solution rather than a matrix
    exponential.  Negative ``dt`` propagates backward.  Satisfies the group
    property ``hcw_stm(a) @ hcw_stm(b) = hcw_stm(a + b)``.
    """
    n = p.n
    c = np.cos(n * dt)
    s = np.sin(n * dt)
    m = np.zeros((6, 6))
    # In-plane block (secular drift lives in the r_y row).
    m[RX, RX] = 4.0 - 3.0 * c
    m[RX, VX] = s / n
    m[RX, VY] = 2.0 * (1.0 - c) / n
    m[RY, RX] = 6.0 * (s - n * dt)
    m[RY, RY] = 1.0
    m[RY, VX] = 2.0 * (c - 1.0) / n
    m[RY, VY] = (4.0 * s - 3.0 * n * dt) / n
    m[VX, RX] = 3.0 * n * s
    m[VX, VX] = c
    m[VX, VY] = 2.0 * s
    m[VY, RX] = 6.0 * n * (c - 1.0)
    m[VY, VX] = -2.0 * s
    m[VY, VY] = 4.0 * c - 3.0
    # Out-of-plane block: a pure oscillator.
    m[RZ, RZ] = c
    m[RZ, VZ] = s / n
    m[VZ, RZ] = -n * s
    m[VZ, VZ] = c
    return m


def transform_matrix(n: float) -> np.ndarray:
    """The in-plane change of coordinates T mapping (r_x, v_x, r_y, v_y) to
    (x, y, alpha, beta): :func:`to_zeta` applied to the identity, column by
    column."""
    return to_zeta(np.eye(4), OrbitParams(n=n))


def transform_matrix_inv(n: float) -> np.ndarray:
    """Exact closed-form inverse of :func:`transform_matrix`."""
    return np.array(
        [
            [1.0, 0.0, 0.0, -2.0 / (3.0 * n)],
            [0.0, 1.0, 0.0, 0.0],
            [0.0, 2.0 / n, 1.0, 0.0],
            [-2.0 * n, 0.0, 0.0, 1.0],
        ]
    )


def inplane_a0(n: float) -> np.ndarray:
    """In-plane drift matrix on (r_x, v_x, r_y, v_y)."""
    return np.array(
        [
            [0.0, 1.0, 0.0, 0.0],
            [3.0 * n * n, 0.0, 0.0, 2.0 * n],
            [0.0, 0.0, 0.0, 1.0],
            [0.0, -2.0 * n, 0.0, 0.0],
        ]
    )


def inplane_b0() -> np.ndarray:
    """In-plane input matrix on (r_x, v_x, r_y, v_y): impulses hit velocities."""
    return np.array(
        [
            [0.0, 0.0],
            [1.0, 0.0],
            [0.0, 0.0],
            [0.0, 1.0],
        ]
    )


def zeta_a(n: float) -> np.ndarray:
    """Transformed drift matrix: oscillator (x, y) plus double integrator
    (alpha, beta)."""
    return np.array(
        [
            [0.0, 1.0, 0.0, 0.0],
            [-n * n, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
            [0.0, 0.0, 0.0, 0.0],
        ]
    )


def zeta_b(n: float) -> np.ndarray:
    """Transformed input matrix: u_x enters (y, alpha) with gains (1, -2/n);
    u_y enters (x, beta) with gains (-2/n, -3)."""
    return np.array(
        [
            [0.0, -2.0 / n],
            [1.0, 0.0],
            [-2.0 / n, 0.0],
            [0.0, -3.0],
        ]
    )


def to_zeta(inplane: np.ndarray, p: OrbitParams) -> np.ndarray:
    """Map an in-plane state (r_x, v_x, r_y, v_y), or each column of a
    (4, k) array, to (x, y, alpha, beta)."""
    n = p.n
    rx, vx, ry, vy = inplane
    return np.array(
        [
            -3.0 * rx - 2.0 * vy / n,
            vx,
            -2.0 * vx / n + ry,
            -6.0 * n * rx - 3.0 * vy,
        ]
    )
