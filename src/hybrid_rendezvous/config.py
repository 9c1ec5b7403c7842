"""Scenario configuration: a flat, commentable key-value text format.

A scenario file is plain text, one ``key = value`` pair per line; ``#``
starts a comment; blank lines are ignored.  Unknown keys are rejected with
the offending name.  Example::

    # orbit and actuator
    n = 0.0011            # mean motion, rad/s
    umax = 0.2            # impulse bound, m/s

    # dwell thresholds, in (0, 2)
    tau_m_z = 0.01
    tau_m_beta = 0.02
    tau_m_alpha = 0.01

    # initial plant state, m and m/s
    r_x = -60.0
    r_y = 1000.0
    v_x = 0.0
    v_y = 0.0
    q_alpha = -1.0        # the sign of y - n*alpha/2: at +1 alpha never arms

    subsystem = inplane
    step_h = 10.0         # 30 s steps miss alpha's jump-set windows
    t_max_orbits = 20

Initial timers default to the channel's own threshold (written as
``threshold``), so the first firing is not dwell-delayed; set a number in
[0, 2] to override.  The convergence radius is not a key: it is always
1e-3 of the initial attractor distance (1e-9 from rest).  Nor is the event
resolution: every run localizes events to 1e-6 s, and a file that sets
``event_tol`` is rejected as an unknown key.  A :class:`ScenarioConfig`
validates itself on construction, so a copy made with :func:`replace`,
which is :func:`dataclasses.replace`, is checked too: each value by the
record that uses it, and the subsystem and integrator by building the run's
system, the :func:`closed_loop.build_system` call that a run makes.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .closed_loop import (
    AttractorSpec, DwellThresholds, build_system, distance_to_attractor, lyapunov_values,
    make_state,
)
from .engine import SimulationOptions
from .hcw import OrbitParams

#: Kept for ``bench/`` and the tests; a copy validates itself (the CLI never copies).
replace = dataclasses.replace


class ConfigError(ValueError):
    """A scenario file failed to parse or validate; message names the field."""


@dataclass(frozen=True)
class ScenarioConfig:
    """One fully-specified simulation scenario; it validates itself."""

    # orbit and actuator
    n: float = OrbitParams.n
    umax: float = OrbitParams.umax
    # dwell thresholds
    tau_m_z: float = DwellThresholds.z
    tau_m_beta: float = DwellThresholds.beta
    tau_m_alpha: float = DwellThresholds.alpha
    # initial plant state
    r_x: float = 0.0
    r_y: float = 0.0
    r_z: float = 0.0
    v_x: float = 0.0
    v_y: float = 0.0
    v_z: float = 0.0
    # initial controller state; None timers mean "at threshold"
    q_z: float = 1.0
    q_alpha: float = 1.0
    tau_z: float | None = None
    tau_beta: float | None = None
    tau_alpha: float | None = None
    # execution
    subsystem: str = "full"
    integrator: str = "closed_form"
    step_h: float = 30.0
    t_max_orbits: float = 10.0
    output_dir: str = "out"

    def __post_init__(self):
        # The derived objects' own range checks name the field.  An empty
        # output_dir would write the outputs into the working directory.
        if not self.output_dir:
            raise ConfigError("output_dir must not be empty")
        if self.t_max_orbits < 0:  # SimulationOptions would name t_max
            raise ConfigError(f"t_max_orbits must be non-negative, got {self.t_max_orbits}")
        # An initial V that overflows is rejected on every channel, whatever the
        # subsystem: trajectory.csv and the flow certificate read all three.
        # So is an attractor distance that overflows although each V is
        # finite: its radius, 1e-3 of it, would be infinite: converged at t = 0.
        # The error names it, so NumPy's warnings on the way are silenced.
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                p = self.params()
                thresholds = self.thresholds()
                state = self.initial_state()
                self.options()
                # the run's own build: it names an unknown subsystem or integrator
                build_system(p, thresholds, self.subsystem, self.integrator)
                spec = self.attractor()
            except ValueError as exc:
                raise ConfigError(str(exc)) from exc
            v0 = lyapunov_values(state, p)
        if overflow := [f"V_{name}" for name, v in v0.items() if not np.isfinite(v)]:
            raise ConfigError(f"initial state too large: {', '.join(overflow)} not finite")
        if not np.isfinite(spec.epsilon):
            raise ConfigError("initial state too large: attractor distance not finite")

    def params(self) -> OrbitParams:
        return OrbitParams(n=self.n, umax=self.umax)

    def thresholds(self) -> DwellThresholds:
        return DwellThresholds(z=self.tau_m_z, beta=self.tau_m_beta, alpha=self.tau_m_alpha)

    def initial_state(self) -> np.ndarray:
        return make_state(
            r=(self.r_x, self.r_y, self.r_z),
            v=(self.v_x, self.v_y, self.v_z),
            q_z=self.q_z,
            tau_z=self.tau_m_z if self.tau_z is None else self.tau_z,
            tau_beta=self.tau_m_beta if self.tau_beta is None else self.tau_beta,
            q_alpha=self.q_alpha,
            tau_alpha=self.tau_m_alpha if self.tau_alpha is None else self.tau_alpha,
        )

    def options(self) -> SimulationOptions:
        t_max = self.t_max_orbits * 2.0 * np.pi / self.n
        return SimulationOptions(step_h=self.step_h, t_max=t_max)

    def attractor(self) -> AttractorSpec:
        """Attractor spec of the scenario's subsystem; its convergence radius
        is 1e-3 of the initial distance (1e-9 from rest)."""
        d0 = distance_to_attractor(self.initial_state(), self.params(), self.subsystem)
        return AttractorSpec(which=self.subsystem, epsilon=1e-3 * d0 if d0 > 0 else 1e-9)


#: Each key's value type, from the field annotations: ``str``, or float for
#: the rest.
_KINDS = {f.name: str if f.type == "str" else float for f in fields(ScenarioConfig)}
#: Only timers accept ``threshold``.
_TIMER_KEYS = {"tau_z", "tau_beta", "tau_alpha"}


def parse_config(path: str | Path, **overrides) -> ScenarioConfig:
    """Parse a scenario file, put each override that is not None (a given CLI
    flag) on top of its key and validate once, by one :class:`ScenarioConfig`
    construction; raises :class:`ConfigError` naming the file."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    values: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = (part.strip() for part in line.partition("="))
        if key not in _KINDS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        values[key] = _convert(key, value, path, lineno)
    values.update((key, value) for key, value in overrides.items() if value is not None)
    try:
        return ScenarioConfig(**values)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _convert(key: str, value: str, path: Path, lineno: int) -> object:
    if _KINDS[key] is str:
        return value
    if key in _TIMER_KEYS and value == "threshold":
        return None
    try:
        number = float(value)
    except ValueError as exc:
        raise ConfigError(
            f"{path}:{lineno}: field {key!r}: cannot parse {value!r}"
        ) from exc
    if not np.isfinite(number):
        raise ConfigError(f"{path}:{lineno}: field {key!r}: must be finite, got {value!r}")
    return number
