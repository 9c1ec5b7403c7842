"""Scenario file parsing and validation."""

import dataclasses
from dataclasses import fields
from itertools import takewhile

import numpy as np
import pytest

from hybrid_rendezvous import config
from hybrid_rendezvous.config import ConfigError, ScenarioConfig, parse_config, replace

from conftest import REPO_ROOT, scenario_path


def write_cfg(tmp_path, text):
    path = tmp_path / "case.cfg"
    path.write_text(text)
    return path


MINIMAL = """
# minimal scenario
r_z = 10.0
subsystem = z
t_max_orbits = 1
"""


class TestParsing:
    def test_defaults_and_comments(self, tmp_path):
        cfg = parse_config(write_cfg(tmp_path, MINIMAL))
        assert cfg.n == 0.0011 and cfg.umax == 0.2
        assert cfg.r_z == 10.0 and cfg.subsystem == "z"
        assert cfg.tau_z is None  # timers default to the dwell threshold

    def test_initial_timers_default_to_threshold(self, tmp_path):
        cfg = parse_config(write_cfg(tmp_path, MINIMAL + "tau_m_z = 0.25\n"))
        state = cfg.initial_state()
        from hybrid_rendezvous.closed_loop import TAUZ

        assert state[TAUZ] == 0.25

    def test_explicit_timer_value(self, tmp_path):
        cfg = parse_config(write_cfg(tmp_path, MINIMAL + "tau_z = 0.0\n"))
        from hybrid_rendezvous.closed_loop import TAUZ

        assert cfg.initial_state()[TAUZ] == 0.0

    def test_threshold_keyword(self, tmp_path):
        cfg = parse_config(write_cfg(tmp_path, MINIMAL + "tau_z = threshold\n"))
        assert cfg.tau_z is None

    def test_bundled_scenarios_parse(self):
        for name in ("z_fast", "z_slow", "inplane_ref", "full_ref"):
            cfg = parse_config(scenario_path(name))
            assert cfg.t_max_orbits > 0

    def test_t_max_in_seconds(self, tmp_path):
        cfg = parse_config(write_cfg(tmp_path, MINIMAL))
        assert cfg.options().t_max == pytest.approx(2 * np.pi / cfg.n)

    def test_every_default_parses_back(self, tmp_path):
        # The key kinds come from the dataclass: each default, written out,
        # parses back to itself with its own type.
        defaults = {
            f.name: f.default for f in fields(ScenarioConfig) if f.default is not None
        }
        text = "".join(f"{key} = {value}\n" for key, value in defaults.items())
        cfg = parse_config(write_cfg(tmp_path, text))
        for key, value in defaults.items():
            parsed = getattr(cfg, key)
            assert parsed == value and type(parsed) is type(value), key


class TestErrors:
    @pytest.mark.parametrize(
        "line,fragment",
        [
            ("bogus_key = 1", "unknown key"),
            ("n == 1", "cannot parse"),
            ("just some words", "expected"),
            ("n = fast", "cannot parse"),
            ("tau_m_z = 2.5", "dwell threshold"),
            ("tau_m_beta = 0", "dwell threshold"),
            ("q_z = 0.5", "logic variables"),
            ("tau_alpha = 3", "tau_alpha"),
            ("subsystem = sideways", "subsystem"),
            ("integrator = euler", "integrator"),
            ("step_h = -1", "step_h"),
            # every run localizes events to 1e-6 s: a step must be longer,
            ("step_h = 1e-7", "step_h must exceed the 1e-06"),
            # and floats at the horizon no farther apart (1.9e-6 s at 2e6 orbits)
            ("t_max_orbits = 2e6", "too long for the 1e-06 s"),
            # and no key sets that resolution
            ("event_tol = 1e-6", "unknown key 'event_tol'"),
            # the dwell timers bound every run's jumps: no jump budget is set
            ("j_max = 0", "unknown key 'j_max'"),
            ("n = -0.001", "n must be positive"),
            ("umax = 0", "umax must be positive"),
            # no key sets the convergence radius: "unknown key 'convergence_eps'"
            ("convergence_eps = -1", "convergence_eps"),
            ("t_max_orbits = nan", "t_max_orbits"),
            ("t_max_orbits = -1", "t_max_orbits must be non-negative"),
            # horizons that overflow to inf name t_max, not the event resolution
            ("t_max_orbits = 1e308", "t_max must be finite"),
            ("n = 1e-320", "t_max must be finite"),
            ("r_x = inf", "r_x"),
            # an initial state whose V overflows, checked whatever the subsystem
            ("r_x = 1e200", "initial state too large: V_beta, V_alpha not finite"),
            # finite Vs whose sum, the full attractor distance, overflows
            (
                "subsystem = full\nv_y = 3e153\nv_z = 1e154",
                "initial state too large: attractor distance not finite",
            ),
            ("output_dir =", "output_dir"),
        ],
    )
    def test_field_level_messages(self, tmp_path, line, fragment):
        # The line replaces MINIMAL's own setting of its (first) key, so the
        # error is never the duplicate-key one, whose message names the field
        # too.
        key = line.partition("=")[0].strip()
        base = [row for row in MINIMAL.splitlines() if row.partition("=")[0].strip() != key]
        # No case warns on the way (the suite turns warnings into errors): an
        # overflowing V is computed with NumPy's overflow warnings silenced.
        with pytest.raises(ConfigError, match=fragment):
            parse_config(write_cfg(tmp_path, "\n".join(base + [line]) + "\n"))

    def test_duplicate_key(self, tmp_path):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(write_cfg(tmp_path, MINIMAL + "r_z = 20\n"))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            parse_config(tmp_path / "absent.cfg")


class TestReplaceAndAttractor:
    def test_replace_revalidates(self):
        cfg = ScenarioConfig()
        with pytest.raises(ConfigError):
            replace(cfg, tau_m_z=2.5)

    def test_construction_validates(self):
        # replace is dataclasses.replace: the config checks itself however
        # it is made.
        assert config.replace is dataclasses.replace
        with pytest.raises(ConfigError, match="dwell threshold"):
            dataclasses.replace(ScenarioConfig(), tau_m_z=2.5)
        with pytest.raises(ConfigError, match="output_dir"):
            ScenarioConfig(output_dir="")

    def test_replace_overrides(self):
        cfg = ScenarioConfig(r_z=10.0)
        assert replace(cfg, tau_m_z=0.25).tau_m_z == 0.25

    def test_default_convergence_radius_is_relative(self):
        cfg = ScenarioConfig(r_z=500.0, subsystem="z")
        spec = cfg.attractor()
        d0 = cfg.params().n * 500.0  # sqrt(V_z) of the initial state
        assert spec.epsilon == pytest.approx(1e-3 * d0, rel=1e-12)

    def test_convergence_radius_has_no_key(self):
        with pytest.raises(TypeError, match="convergence_eps"):
            ScenarioConfig(r_z=500.0, subsystem="z", convergence_eps=0.01)


def readme_example() -> str:
    """README's ``ini`` block."""
    return (REPO_ROOT / "README.md").read_text().split("```ini\n", 1)[1].split("```", 1)[0]


def docstring_example() -> str:
    """The indented example of the :mod:`hybrid_rendezvous.config` docstring."""
    rows = config.__doc__.split("Example::\n", 1)[1].splitlines()
    return "\n".join(row[4:] for row in takewhile(lambda r: r[:4] in ("", "    "), rows))


class TestDocumentedExamples:
    @pytest.mark.parametrize("example", [readme_example, docstring_example])
    def test_example_is_inplane_ref(self, example, tmp_path):
        # Run as documented, each converges as inplane_ref does.  Without
        # q_alpha = -1 only beta fires (ROADMAP's D2); with it but at 30 s
        # steps, alpha fires twice and the run never converges (D1); test_cli's
        # TestVerify::test_stalled_inplane_ref_passes pins both.
        cfg = parse_config(write_cfg(tmp_path, example()))
        assert cfg == replace(parse_config(scenario_path("inplane_ref")), output_dir=cfg.output_dir)
