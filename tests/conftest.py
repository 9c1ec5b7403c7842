import dataclasses
from pathlib import Path

import numpy as np
import pytest

from hybrid_rendezvous import closed_loop as cl
from hybrid_rendezvous.hcw import VX

REPO_ROOT = Path(__file__).resolve().parents[1]
SCENARIO_DIR = REPO_ROOT / "scenarios"


@pytest.fixture(scope="session")
def scenario_dir() -> Path:
    return SCENARIO_DIR


def scenario_path(name: str) -> Path:
    return SCENARIO_DIR / f"{name}.cfg"


# Reference matrices of the in-plane coordinate change, on
# (r_x, v_x, r_y, v_y) and on (x, y, alpha, beta).  Criterion 8 and
# ``test_hcw`` check :func:`hcw.transform_matrix` against them.


def transform_matrix_inv(n: float) -> np.ndarray:
    """Exact closed-form inverse of ``hcw.transform_matrix(n)``."""
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


def flip_alpha_sign(system, p):
    """``system`` with the alpha channel's radial impulse applied with the
    wrong sign, which breaks the jump-decrease certificate on purpose."""

    def corrupt(jump):
        def wrong_sign(state: np.ndarray, t: float, j_pre: int):
            ev = jump(state, t, j_pre)
            out = np.array(ev.state_post)
            out[VX] = state[VX] - ev.u_applied
            return dataclasses.replace(
                ev,
                state_post=out,
                u_applied=-ev.u_applied,
                lyap_post=cl.lyapunov_values(out, p)["alpha"],
            )

        return wrong_sign

    channels = tuple(
        dataclasses.replace(ch, jump=corrupt(ch.jump)) if ch.name == "alpha" else ch
        for ch in system.channels
    )
    return dataclasses.replace(system, channels=channels)
