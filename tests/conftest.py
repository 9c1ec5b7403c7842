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


def flip_alpha_sign(system, p):
    """``system`` with the alpha channel's radial impulse applied with the
    wrong sign, which breaks the jump-decrease certificate on purpose."""

    def corrupt(jump):
        def wrong_sign(state: np.ndarray):
            outcome = jump(state)
            out = np.array(outcome.state)
            out[VX] = state[VX] - outcome.u_applied
            return dataclasses.replace(
                outcome,
                state=out,
                u_applied=-outcome.u_applied,
                lyap_post=cl.v_alpha(out, p),
            )

        return wrong_sign

    channels = tuple(
        dataclasses.replace(ch, jump=corrupt(ch.jump)) if ch.name == "alpha" else ch
        for ch in system.channels
    )
    return dataclasses.replace(system, channels=channels)
