"""Command-line front end: files, exit codes, reproducibility."""

import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hybrid_rendezvous import cli
from hybrid_rendezvous import closed_loop as cl
from hybrid_rendezvous.analysis import IMPULSE_FLOOR
from hybrid_rendezvous.closed_loop import lyapunov_values, make_state, zeta_of
from hybrid_rendezvous.config import parse_config, replace
from hybrid_rendezvous.engine import IntegrationFailure
from hybrid_rendezvous.hcw import OrbitParams

from conftest import BUNDLED, cli_run, config_text, run_cli, scenario_path, scenario_run, set_keys

#: The shared simulate runs write into the run's own directory, so their
#: files are keyed by name.
SIMULATE = "simulate --out ."


def run(argv):
    return cli.main([str(a) for a in argv])


def strict_json(data):
    """``data``, the text of a JSON file, parsed strictly: ``NaN`` or
    ``Infinity`` raise."""

    def reject(constant):
        raise ValueError(f"JSON holds {constant}")

    return json.loads(data, parse_constant=reject)


def lines(data):
    return data.decode().splitlines()


def table(data, width):
    """The data rows of a CSV file's bytes, split at commas; the header and
    every row have ``width`` fields."""
    head, *rows = [line.split(",") for line in lines(data)]
    assert len(head) == width and all(len(r) == width for r in rows)
    return rows


def is_int(field):
    return str(int(field)) == field


class TestSimulate:
    def test_writes_all_outputs(self):
        record = cli_run("z_fast", SIMULATE)
        assert record.code == 0
        assert set(record.files) == {"trajectory.csv", "events.csv", "summary.json", "plot.gp"}

    def test_csv_headers(self):
        files = cli_run("z_fast", SIMULATE).files
        assert lines(files["trajectory.csv"])[0] == cli.TRAJECTORY_COLUMNS
        assert lines(files["events.csv"])[0] == cli.EVENT_COLUMNS

    def test_summary_roundtrips_from_events(self):
        files = cli_run("z_fast", SIMULATE).files
        summary = strict_json(files["summary.json"])
        rows = lines(files["events.csv"])[1:]
        header = cli.EVENT_COLUMNS.split(",")
        u_col = header.index("u_applied")
        ch_col = header.index("channel")
        totals, counts = {}, {}
        for row in rows:
            parts = row.split(",")
            u = abs(float(parts[u_col]))
            if u > IMPULSE_FLOOR:
                totals[parts[ch_col]] = totals.get(parts[ch_col], 0.0) + u
                counts[parts[ch_col]] = counts.get(parts[ch_col], 0) + 1
        assert totals == summary["budget"]["delta_v"]
        assert counts == summary["budget"]["impulse_counts"]
        assert sum(totals.values()) == summary["budget"]["total_delta_v"]

    def test_reproducible_byte_identical(self, tmp_path):
        # a fresh run against the shared record, which takes scenario_run's
        # solution: the CLI's own simulate checks the shared one
        fresh = run_cli(tmp_path, config_text("z_slow"), SIMULATE.split())
        assert fresh.code == 0 and fresh.files
        assert fresh == cli_run("z_slow", SIMULATE)

    def test_empty_horizon(self, tmp_path):
        cfg = tmp_path / "empty.cfg"
        cfg.write_text("r_z = 10.0\nsubsystem = z\nt_max_orbits = 0\n")
        out = tmp_path / "empty_out"
        assert run(["simulate", "--config", cfg, "--out", out]) == 0
        events = (out / "events.csv").read_text().splitlines()
        assert events == [cli.EVENT_COLUMNS]
        summary = strict_json((out / "summary.json").read_text())
        assert summary["budget"]["event_counts"] == {}
        # No impulse fired, yet the total is a float like every other run's.
        total = summary["budget"]["total_delta_v"]
        assert type(total) is float and total == 0.0
        assert '"total_delta_v": 0.0' in (out / "summary.json").read_text()
        trajectory = (out / "trajectory.csv").read_text().splitlines()
        assert len(trajectory) == 2 and trajectory[0] == cli.TRAJECTORY_COLUMNS

    def test_subsystem_flag_overrides_config(self, tmp_path):
        out = tmp_path / "zfull"
        code = run(
            ["simulate", "--config", scenario_path("full_ref"), "--subsystem", "z",
             "--out", out]
        )
        assert code == 0
        summary = strict_json((out / "summary.json").read_text())
        assert summary["subsystem"] == "z"
        assert set(summary["budget"]["impulse_counts"]) <= {"z"}
        # TestFlagIsKey::test_flag_run_equals_keyed_copy[subsystem] checks
        # that the flag's run is the keyed copy's.


def fmt(x):
    """Reference formatting of one float: its shortest round-trip form."""
    return repr(float(x))


def per_sample_trajectory_rows(sol, p):
    """Reference formatting: one sample at a time, single-state views."""
    orbit = 2.0 * np.pi / p.n
    for t, j, s in zip(sol.t, sol.j, sol.states):
        lyap = lyapunov_values(s, p)
        yield ",".join(
            [fmt(t), fmt(t / orbit), str(int(j))]
            + [fmt(x) for x in s]
            + [fmt(z) for z in zeta_of(s, p)]
            + [fmt(lyap["z"]), fmt(lyap["beta"]), fmt(lyap["alpha"])]
        )


def per_event_rows(sol, p):
    """Reference formatting of events.csv, one event at a time."""
    orbit = 2.0 * np.pi / p.n
    for ev, row in zip(sol.events, sol.event_rows().tolist()):
        m = ev.margins
        if ev.channel == "beta":
            h, cls = ["", "", fmt(m[0])], ""
        else:
            h = [fmt(m[0]), fmt(m[1]), fmt(m[2])]
            cls = cli.classify_z_event(m[2], p) if ev.channel == "z" else ""
        values = (ev.u_commanded, ev.u_applied, ev.delta_lyap, ev.bound)
        yield ",".join(
            [fmt(ev.t), fmt(ev.t / orbit), str(ev.j_pre + 1), ev.channel]
            + [fmt(v) for v in values]
            + h
            + [fmt(ev.lyap_pre), fmt(ev.lyap_post), cls]
            + [fmt(x) for x in sol.states[row - 1, :6]]
        )


#: Bit patterns of the formatter's test blocks, few so that repeats abound:
#: both zeros, both infinities, NaNs of either sign with different payloads,
#: subnormals (V_beta reaches ~7.6e-313 on inplane_ref) and ordinary values.
FORMAT_POOL = np.concatenate(
    [
        np.array([0.0, -0.0, np.inf, -np.inf, 5e-324, 7.6e-313, -2.2e-310, 1e-120,
                  0.1, -1.0, 1.0, 1 / 3, 5400.0, 1.7976931348623157e308]).view(np.uint64),
        np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000001,
                  0xFFF80000DEADBEEF, 0x7FF0000000000001], dtype=np.uint64),
    ]
)
SIDE = st.integers(1, 12)
SHAPES = st.one_of(st.tuples(st.just(1), SIDE), st.tuples(SIDE, st.just(1)), st.tuples(SIDE, SIDE))


def ten_to_the(e):
    """A block of ±10**e and both float neighbours of each: a decimal
    exponent is where the layout of the shortest digits can change."""
    x = float(f"1e{e}")
    row = [np.nextafter(x, 0.0), x, np.nextafter(x, np.inf)]
    return np.array([row, [-v for v in row]])


#: Zero and the smallest and largest subnormal and normal floats, tested with both signs.
EXTREMES = np.array([0.0, 5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
                     1.7976931348623157e308])


def reference_lines(floats, at=(), text=(), blank=None):
    """Reference formatting of a block, one field at a time: ``repr`` of
    each float, blank where ``blank`` is set, and ``text[k]`` inserted
    before float column ``at[k]``."""
    blank = np.zeros(floats.shape, dtype=bool) if blank is None else blank
    for i, row in enumerate(floats.tolist()):
        fields = ["" if b else repr(x) for x, b in zip(row, blank[i].tolist())]
        for k in reversed(range(len(at))):
            fields.insert(at[k], text[k][i])
        yield ",".join(fields)


def events_like_block():
    """Four events.csv rows: j and channel before float column 2 and the
    classification before column 11; the beta row blanks h1 and h2 (float
    columns 6 and 7).  Two rows hold only layouts orjson shares with repr,
    two hold one it does not (1e-05, 1e+16), the beta row one of each."""
    floats = np.array([
        [100.0, 0.25, -0.1, -0.1, -2.5, 0.0, 3.0, 0.5, 0.0, 7.0, 4.5, 1.0, 2.0, -3.0, 0.0, 0.125, -0.0],
        [200.0, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.01, 0.0, 0.0, 1e-05, 0.0, 0.0, 0.0, 0.0, 0.0],
        [300.0, 0.75, 1e16, 1e16, -1.0, -1.0, 2.0, 2.0, 0.0, 1e16, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [400.0, 1.0, 0.5, 0.5, -0.5, 0.0, -1.0, 2.0, 3e-300, 8.0, 7.5, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0],
    ])
    text = [["1", "2", "3", "4"], ["z", "beta", "alpha", "z"],
            ["zero_crossing", "", "", "dwell_delayed"]]
    blank = np.zeros(floats.shape, dtype=bool)
    blank[1, 6:8] = True
    return floats, [2, 2, 11], text, blank


def sweep_like_block():
    """Three sweep.csv rows: impulse_count before float column 1 and the
    status after the last; the last run did not converge, so its
    convergence_orbits (float column 2) is blank over a NaN."""
    floats = np.array([[0.2, 1.5, 2.25], [0.05, 3e-06, 4.75], [0.01, 0.75, np.nan]])
    text = [["12", "9", "40"], ["t_max", "t_max", "t_max"]]
    return floats, [1, 3], text, np.isnan(floats)


def mostly_nonfinite_block():
    """A trajectory-like block (j before float column 2) of 40 rows, 32 of
    which hold inf or NaN, as the V_alpha-overflow run writes them."""
    rng = np.random.default_rng(25)
    floats = rng.normal(size=(40, 20)) * 10.0 ** rng.integers(-12, 20, size=(40, 20))
    floats[:32, 18:] = rng.choice([np.inf, -np.inf, np.nan], size=(32, 2))
    rng.shuffle(floats)
    return floats, [2], [[str(j) for j in range(40)]], None


class TestCsvBytes:
    def assert_entries_are_repr(self, block, at=(), text=(), blank=None):
        lines = cli._format_rows(block, at, text, blank)
        assert len(lines) == len(block)
        assert [len(line.split(",")) for line in lines] == [block.shape[1] + len(at)] * len(block)
        assert lines == [*reference_lines(block, at, text, blank)]
        if not at and blank is None:
            assert [line.split(",") for line in lines] == [[repr(x) for x in row] for row in block.tolist()]

    @settings(max_examples=200, deadline=None)
    @given(picks=arrays(np.intp, SHAPES, elements=st.integers(0, len(FORMAT_POOL) - 1)))
    def test_block_entries_are_repr_of_their_floats(self, picks):
        self.assert_entries_are_repr(FORMAT_POOL[picks].view(np.float64))

    @settings(max_examples=200, deadline=None)
    @given(bits=arrays(np.uint64, SHAPES, elements=st.integers(0, 2**64 - 1)))
    def test_raw_bit_patterns_are_repr_of_their_floats(self, bits):
        self.assert_entries_are_repr(bits.view(np.float64))

    @pytest.mark.parametrize(
        "block",
        [ten_to_the(e) for e in range(-12, 23)] + [np.array([EXTREMES, -EXTREMES]), np.empty((0, 3))],
        ids=[f"1e{e}" for e in range(-12, 23)] + ["extremes", "empty"],
    )
    def test_layout_boundaries_are_repr(self, block):
        # every layout orjson and repr write differently, and the ones they share, near each edge
        self.assert_entries_are_repr(block)

    @pytest.mark.parametrize(
        "block",
        [events_like_block(), sweep_like_block(), mostly_nonfinite_block()],
        ids=["events", "sweep", "mostly_nonfinite"],
    )
    def test_text_columns_and_blanks(self, block):
        self.assert_entries_are_repr(*block)

    @settings(max_examples=200, deadline=None)
    @given(
        picks=arrays(np.intp, SHAPES, elements=st.integers(0, len(FORMAT_POOL) - 1)),
        data=st.data(),
    )
    def test_text_columns_anywhere(self, picks, data):
        # text columns at any float column, repeats and both ends included,
        # and blanks anywhere
        block = FORMAT_POOL[picks].view(np.float64)
        rows, width = block.shape
        at = sorted(data.draw(st.lists(st.integers(0, width), max_size=4)))
        text = [[f"c{k}r{i}" for i in range(rows)] for k in range(len(at))]
        blank = data.draw(arrays(np.bool_, block.shape))
        self.assert_entries_are_repr(block, at, text, blank)

    @pytest.mark.parametrize(
        "shared", ["z_fast", "full_ref_2orbits", "inplane_ref"],
        ids=["z_fast", "full_ref", "inplane_ref"],
    )
    def test_rows_match_per_sample_formatting(self, shared):
        # the CLI's files against the shared run of the same config
        record = cli_run(shared, SIMULATE)
        assert record.code == 0
        cfg, sol, p, _, _ = scenario_run(shared)
        if shared == "full_ref_2orbits":
            assert len(sol.t) > cli.WRITE_ROWS  # rows span a block boundary
        if shared == "inplane_ref":
            assert len(sol.events) > cli.WRITE_ROWS  # and events do
        expected = [cli.TRAJECTORY_COLUMNS, *per_sample_trajectory_rows(sol, p)]
        assert record.files["trajectory.csv"].decode() == "\n".join(expected) + "\n"
        expected = [cli.EVENT_COLUMNS, *per_event_rows(sol, p)]
        assert record.files["events.csv"].decode() == "\n".join(expected) + "\n"


#: The simulate runs whose files the CSV format contract covers: z_slow,
#: full_ref, full_ref's z channel, z_fast at both scales and the V_alpha
#: overflow, whose rows hold inf and NaN.  The files of z_fast and
#: inplane_ref equal fmt's rows (test_rows_match_per_sample_formatting).
CONTRACT_RUNS = ("z_slow", "full_ref", "full_ref_z", "z_fast_tiny", "z_fast_huge", "v_alpha_overflow")


class TestCsvContract:
    # Every row has its header's field count; j and impulse_count are ints;
    # channel is z, beta or alpha; classification is set only on z rows, to
    # one of two labels; h1 and h2 are blank exactly on beta rows;
    # convergence_orbits is blank for a run that did not converge; every
    # other field is fmt of its float (each distinct field checked once).
    @pytest.mark.parametrize("run_id", CONTRACT_RUNS)
    def test_simulate_files(self, run_id):
        overflow = run_id == "v_alpha_overflow"
        with np.errstate(all="ignore" if overflow else None):
            record = cli_run(run_id, SIMULATE)
        assert record.code == (3 if overflow else 0)
        trajectory = table(record.files["trajectory.csv"], 21)
        events = table(record.files["events.csv"], 20)
        assert all(is_int(r[2]) for r in trajectory + events)
        floats = {f for r in trajectory for f in r[:2] + r[3:]}
        for r in events:
            beta = r[3] == "beta"
            assert r[3] in ("z", "beta", "alpha"), r
            assert r[13] in (("dwell_delayed", "zero_crossing") if r[3] == "z" else ("",)), r
            assert (r[8] == r[9] == "") == beta, r
            floats.update(r[:2] + r[4:8] + r[8 + 2 * beta : 13] + r[14:])
        assert [f for f in floats if fmt(f) != f] == []

    def test_sweep_file(self, tmp_path):
        argv = ["sweep", "--param", "tau_m_z", "--values", "0.01,0.05,0.1,0.25,0.5", "--out", "o"]
        record = run_cli(tmp_path, config_text("z_fast"), argv)
        assert record.code == 0
        for r in table(record.files["o/sweep.csv"], 5):
            assert fmt(r[0]) == r[0] and is_int(r[1]) and fmt(r[2]) == r[2], r
            assert (r[3] == "" or fmt(r[3]) == r[3]) and r[4] == "t_max", r


def traced_peak(write, *args) -> int:
    """The ``tracemalloc`` peak, in bytes, of one call ``write(*args)``."""
    tracemalloc.start()
    try:
        write(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestWriterMemory:
    def test_a_writer_holds_one_block_at_any_length(self, tmp_path):
        # full_ref at 20 and at 60 orbits: each writer peaks at one block of
        # WRITE_ROWS rows, at most 0.6 MB, and the two lengths agree within
        # 10 %.  1024-row blocks peaked at about 1.6 MB at every length.
        cfg, sol, p, _, _ = scenario_run("full_ref")
        runs = {20: sol, 60: cli.run_scenario(replace(cfg, t_max_orbits=60))[0]}
        assert len(runs[60].events) > 2 * len(sol.events) > 2 * cli.WRITE_ROWS
        writers = {
            "trajectory": lambda s: cli.write_trajectory(tmp_path / "t.csv", s, p),
            "events": lambda s: cli.write_events(tmp_path / "e.csv", s, p),
        }
        for name, write in writers.items():
            write(sol)  # the first call loads what the writers import
            peaks = {orbits: traced_peak(write, s) for orbits, s in runs.items()}
            assert max(peaks.values()) <= 0.6e6, (name, peaks)
            assert max(peaks.values()) <= 1.1 * min(peaks.values()), (name, peaks)


class TestExitCodes:
    def test_missing_config_is_usage_error(self, tmp_path):
        assert run(["simulate", "--config", tmp_path / "nope.cfg"]) == 1

    def test_non_utf8_config_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"n = 0.0011\xff\n")
        assert run(["verify", "--config", cfg]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"config error: cannot read config file {cfg}: ")
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [["--help"], ["verify", "--help"]])
    def test_help_exits_ok(self, argv, capsys):
        assert run(argv) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith(f"usage: hybrid-rdv {' '.join(argv[:-1])}".rstrip())
        assert captured.err == ""

    def test_invalid_config_is_usage_error(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("tau_m_z = 7\n")
        assert run(["simulate", "--config", cfg]) == 1

    def test_unknown_subcommand_is_usage_error(self):
        assert run(["frobnicate"]) == 1

    def test_missing_required_argument_is_usage_error(self):
        assert run(["simulate"]) == 1

    def test_bad_sweep_param_is_usage_error(self, capsys):
        assert (
            run(["sweep", "--config", scenario_path("z_fast"), "--param", "n",
                 "--values", "0.001"]) == 1
        )
        captured = capsys.readouterr()
        assert "argument --param: invalid choice: 'n'" in captured.err
        assert captured.out == ""

    def test_empty_out_is_config_error(self, tmp_path, monkeypatch, capsys):
        # --out overrides output_dir and is validated as the key is: an empty
        # one is rejected before anything runs, and nothing is written.
        cfg = tmp_path / "z.cfg"
        cfg.write_text("r_z = 10.0\nsubsystem = z\nt_max_orbits = 1\noutput_dir = o\n")
        monkeypatch.chdir(tmp_path)
        assert run(["simulate", "--config", cfg, "--out", ""]) == 1
        assert f"config error: {cfg}: output_dir must not be empty" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["z.cfg"]

    @pytest.mark.parametrize(
        "keys, argv, error",
        [
            # it would write into the working directory; TestFlagIsKey's
            # "out" case runs the same file under --out
            pytest.param(
                {"output_dir": ""}, ["simulate"], "run.cfg: output_dir must not be empty",
                id="empty_output_dir",
            ),
            # every run localizes events to 1e-6 s, which no key sets; the two
            # limits it puts on a run name what the file sets, not event_tol
            pytest.param(
                {"event_tol": "1e-6"}, ["simulate", "--out", "o"],
                "run.cfg:19: unknown key 'event_tol'", id="event_tol_key",
            ),
            pytest.param(
                {"step_h": "1e-7"}, ["simulate", "--out", "o"],
                "run.cfg: step_h must exceed the 1e-06 s event resolution, got 1e-07",
                id="step_below_event_resolution",
            ),
            # floats at 2e6 orbits are 1.9e-6 s apart
            pytest.param(
                {"t_max_orbits": "2e6"}, ["simulate", "--out", "o"],
                "run.cfg: horizon t_max = 1.14e+10 s is too long for the 1e-06 s event resolution: "
                "the float spacing there is 1.9e-06 s",
                id="horizon_past_event_resolution",
            ),
        ],
    )
    def test_config_error_writes_nothing(self, keys, argv, error, tmp_path, capsys):
        record = run_cli(tmp_path, set_keys(config_text("z_fast"), **keys), argv)
        assert record.code == 1 and not record.files
        assert capsys.readouterr().err == f"config error: {error}\n"
        assert ("event_tol" in error) == ("event_tol" in keys)

    def test_v_alpha_overflow_is_certificate_error(self):
        # V_alpha overflows along the flow, so 11,502 trajectory rows and 240
        # event rows hold inf or nan, and the jumps fail the jump-decrease
        # certificate (exit 3); all four files are still written.
        with np.errstate(all="ignore"):
            record = cli_run("v_alpha_overflow", SIMULATE)
        assert record.code == 3
        assert set(record.files) == {"trajectory.csv", "events.csv", "summary.json", "plot.gp"}
        nonfinite = [
            sum("inf" in line or "nan" in line for line in lines(record.files[name]))
            for name in ("trajectory.csv", "events.csv")
        ]
        assert nonfinite == [11502, 240]

    @pytest.mark.parametrize(
        "name,command,edits,too_large",
        [
            # r_x = 1e200 overflows V_beta and V_alpha, which would put NaN
            # into the certificates and summary.json.
            *(
                pytest.param("full_ref", c, {"r_x": "1e200"}, "V_beta, V_alpha", id=c)
                for c in ("simulate", "verify")
            ),
            # Each V is finite (V_z 1.0e308, V_beta 8.1e307, V_alpha
            # 3.6e307), but their sum, the full attractor distance, is not:
            # it would write "epsilon": Infinity and converge at t = 0.
            *(
                pytest.param(
                    "full_ref", c, {"v_y": "3e153", "v_z": "1e154"}, "attractor distance",
                    id=f"sum-{c}",
                )
                for c in ("simulate", "verify")
            ),
            # r_x = 1e308 and v_y = -1e308 make x = inf - inf, so V_alpha is
            # NaN (and V_beta overflows): rejected as an overflow is.
            *(
                pytest.param(
                    "inplane_ref", c, {"r_x": "1e308", "v_y": "-1e308"}, "V_beta, V_alpha",
                    id=f"nan-{c}",
                )
                for c in ("simulate", "verify")
            ),
        ],
    )
    def test_overflowing_initial_state_is_config_error(
        self, name, command, edits, too_large, tmp_path, monkeypatch, capsys
    ):
        # The error is the only output: NumPy warns of no overflow (the
        # suite turns warnings into errors).
        if name == "inplane_ref":
            state = make_state(r=(1e308, 1000.0, 0.0), v=(0.0, -1e308, 0.0), q_alpha=-1.0)
            with np.errstate(over="ignore", invalid="ignore"):
                assert np.isnan(lyapunov_values(state, OrbitParams(n=0.0011))["alpha"])
        cfg = tmp_path / "overflow.cfg"
        cfg.write_text(set_keys(scenario_path(name).read_text(), **edits))
        monkeypatch.chdir(tmp_path)
        assert run([command, "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert f"initial state too large: {too_large} not finite" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["overflow.cfg"]

    @pytest.mark.parametrize(
        "command,flags",
        [
            ("simulate", ["--out", "o"]),
            ("verify", []),
            ("sweep", ["--param", "umax", "--values", "0.1,0.2", "--out", "o"]),
        ],
        ids=["simulate", "verify", "sweep"],
    )
    def test_integration_failure_is_numerical_error(
        self, command, flags, tmp_path, monkeypatch, capsys
    ):
        # Nothing is written, and a sweep names the value that failed.
        def failing(cfg):
            raise IntegrationFailure("non-finite state during flow")

        monkeypatch.setattr(cli, "run_scenario", failing)
        monkeypatch.chdir(tmp_path)
        assert run([command, "--config", scenario_path("z_fast"), *flags]) == 2
        err = capsys.readouterr().err
        assert "numerical failure" in err
        if command == "sweep":
            assert err == "numerical failure at umax=0.1: non-finite state during flow\n"
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "command,flags",
        [
            ("simulate", ["--out", "o"]),
            ("verify", []),
            ("sweep", ["--param", "umax", "--values", "0.1,0.2", "--out", "o"]),
        ],
        ids=["simulate", "verify", "sweep"],
    )
    def test_j_max_key_is_unknown(self, command, flags, tmp_path, monkeypatch, capsys):
        # The dwell timers bound every run's jumps, so there is no jump
        # budget to set: a file that sets one is a config error that runs
        # and writes nothing.
        cfg = tmp_path / "budget.cfg"
        cfg.write_text("r_z = 500.0\nsubsystem = z\nt_max_orbits = 2\nj_max = 1\n")
        monkeypatch.chdir(tmp_path)
        assert run([command, "--config", cfg.name, *flags]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "config error: budget.cfg:4: unknown key 'j_max'\n"
        assert [*tmp_path.iterdir()] == [cfg]

    def test_convergence_eps_key_is_unknown(self, tmp_path, monkeypatch, capsys):
        # The convergence radius is always 1e-3 of the initial distance: a
        # file that sets one is a config error that runs and writes nothing.
        cfg = tmp_path / "radius.cfg"
        cfg.write_text("r_z = 500.0\nsubsystem = z\nconvergence_eps = 0.01\n")
        monkeypatch.chdir(tmp_path)
        assert run(["simulate", "--config", cfg.name, "--out", "o"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "config error: radius.cfg:3: unknown key 'convergence_eps'\n"
        assert [*tmp_path.iterdir()] == [cfg]

    def test_nonfinite_sweep_value_is_config_error(self, tmp_path, capsys):
        # Every value is validated before the first run, so 0.2 neither runs
        # nor writes, and the message says why inf is out of range.
        argv = ["sweep", "--config", scenario_path("z_fast"), "--param", "umax",
                "--values", "0.2,inf", "--out", tmp_path / "o"]
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            f"config error: {scenario_path('z_fast')}: "
            "impulse bound umax must be positive and finite, got inf\n"
        )
        assert captured.out == ""
        assert not (tmp_path / "o").exists()

    def test_bad_sweep_values_is_usage_error(self, capsys):
        assert (
            run(["sweep", "--config", scenario_path("z_fast"), "--param", "tau_m_z",
                 "--values", "a,b"]) == 1
        )
        captured = capsys.readouterr()
        assert "argument --values: could not convert string to float: 'a'" in captured.err
        assert captured.out == ""

    def test_empty_sweep_values_is_usage_error(self, capsys):
        argv = ["sweep", "--config", scenario_path("z_fast"), "--param", "tau_m_z"]
        assert run(argv + ["--values", ""]) == 1
        captured = capsys.readouterr()
        assert "argument --values: no numbers in ''" in captured.err
        assert captured.out == ""

    def test_invalid_sweep_value_is_config_error(self, tmp_path, monkeypatch, capsys):
        # Each value is a key override, validated as the key is, and every
        # value is validated before the first run: nothing runs or prints.
        monkeypatch.setattr(cli, "run_scenario", lambda cfg: pytest.fail("a value ran"))
        for values in ("2.5", "0.01,2.5"):
            argv = ["sweep", "--config", scenario_path("z_fast"), "--param", "tau_m_z",
                    "--values", values, "--out", tmp_path / "o"]
            assert run(argv) == 1
            captured = capsys.readouterr()
            assert captured.err.startswith(
                f"config error: {scenario_path('z_fast')}: dwell threshold for z channel"
            )
            assert captured.out == ""
            assert not (tmp_path / "o").exists()


SWEEP_TAU_M_Z = ["sweep", "--param", "tau_m_z", "--values", "0.01,0.05"]


class TestFlagIsKey:
    @pytest.mark.parametrize(
        "name, file_keys, argv, keyed, keyed_argv",
        [
            pytest.param(
                "z_fast", {"output_dir": ""}, ["simulate", "--out", "d"],
                {"output_dir": "d"}, ["simulate"], id="out",
            ),
            pytest.param(
                "full_ref", {"subsystem": "sideways", "t_max_orbits": 2},
                ["simulate", "--subsystem", "z"], {"subsystem": "z"}, ["simulate"],
                id="subsystem",
            ),
            pytest.param(
                "z_fast", {"tau_m_z": 7}, SWEEP_TAU_M_Z, {"tau_m_z": 0.01}, SWEEP_TAU_M_Z,
                id="sweep",
            ),
        ],
    )
    def test_flag_run_equals_keyed_copy(self, name, file_keys, argv, keyed, keyed_argv, tmp_path):
        # A flag replaces the file's value of its key before validation, so a
        # file value it replaces is never checked: the run equals that of a
        # copy of the file that sets the key itself, and does not fail.
        text = set_keys(scenario_path(name).read_text(), **file_keys)
        flagged = run_cli(tmp_path / "flag", text, argv)
        copy = run_cli(tmp_path / "key", set_keys(text, **keyed), keyed_argv)
        assert flagged == copy
        assert flagged.code == 0 and flagged.files

    def test_one_validation_per_run(self, tmp_path, monkeypatch):
        # One ScenarioConfig construction per simulate and verify, and one per
        # sweep value.
        constructions = []
        validate = cli.ScenarioConfig.__post_init__

        def counted(cfg):
            constructions.append(cfg)
            validate(cfg)

        monkeypatch.setattr(cli.ScenarioConfig, "__post_init__", counted)
        z_fast = scenario_path("z_fast")
        counts = []
        for argv in (
            ["simulate", "--config", z_fast, "--subsystem", "z", "--out", tmp_path / "s"],
            ["verify", "--config", z_fast],
            ["sweep", "--config", z_fast, "--param", "umax", "--values", "0.1,0.2,0.3",
             "--out", tmp_path / "w"],
        ):
            constructions.clear()
            assert run(argv) == 0
            counts.append(len(constructions))
        assert counts == [1, 1, 3]


class TestVerify:
    def test_bundled_scenarios_pass(self):
        for name in BUNDLED:
            record = cli_run(name, "verify")
            assert record.code == 0
            assert "PASS" in record.out and "FAIL" not in record.out

    def test_byte_order_mark_is_skipped(self, tmp_path):
        # Windows editors often start a UTF-8 file with a byte-order mark.
        cfg = tmp_path / "bom.cfg"
        cfg.write_bytes(b"\xef\xbb\xbf" + scenario_path("z_fast").read_bytes())
        assert parse_config(cfg) == parse_config(scenario_path("z_fast"))
        assert run(["verify", "--config", cfg]) == 0

    @pytest.mark.parametrize("name", ["inplane_ref", "full_ref"])
    def test_rk4_scenarios_pass(self, name):
        # each scenario's own 20 orbits under the fixed-step RK4 oracle
        record = cli_run(f"{name}_rk4_20orbits", "verify")
        assert record.code == 0
        assert "(tol 3e-10)" in record.out and "FAIL" not in record.out

    @pytest.mark.parametrize("name", ["z_fast", "z_slow"])
    def test_rk4_60s_runs_pass(self, name):
        # RK4's largest drift here, 8.1e-8 and 1.1e-7, within its budget at
        # theta = 0.066 over 381 steps
        record = cli_run(f"{name}_rk4_60s", "verify")
        assert record.code == 0
        assert "(tol 4e-07)" in record.out and "FAIL" not in record.out

    def test_rk4_run_gets_the_fixed_step_tolerance(self):
        # RK4 scales an oscillator energy by 1 - theta^6/72 + theta^8/576 a
        # step, theta = n h; the budget is that loss over the run's steps.
        cfg = scenario_run("inplane_ref_rk4")[0]
        theta, steps = cfg.n * cfg.step_h, math.ceil(cfg.options().t_max / cfg.step_h)
        assert steps == 1143
        tol = cli.flow_drift_tolerance(cfg)
        assert tol == pytest.approx(1e-12 + steps * theta**6 / 72.0, rel=1e-4)
        assert tol < 1e-12 + steps * theta**6 / 72.0
        record = cli_run("inplane_ref_rk4", "verify")
        assert record.code == 0
        assert "(tol 3e-11)" in record.out

    def test_exact_run_fails_by_beta_rounding(self):
        # D5: beta = -6 n r_x - 3 v_y rounds relative to its operands, so
        # after seven saturated firings leave beta near 1.5e-3, V_beta = beta^2
        # carries a relative rounding error above the exact runs' 1e-12.
        record = cli_run("criterion2_full_400", "verify")
        assert record.code == 3
        assert record.out.startswith("FAIL  flow invariance  worst drift 3.513e-12 (tol 1e-12)\n")
        (violation,) = re.findall(r"violation at t=\S+ j=(\d+): (.*) observed", record.out)
        assert violation == ("14", "V_beta flow drift")

    def test_zero_state_scenario_passes_vacuously(self, tmp_path):
        cfg = tmp_path / "rest.cfg"
        cfg.write_text("subsystem = full\nt_max_orbits = 1\n")
        assert run(["verify", "--config", cfg]) == 0

    def test_at_rest_min_margin_is_positive_zero(self, tmp_path, capsys):
        # Every zero-input event of a run at rest has delta_V = 0: its margin
        # is 0.0, not -0.0, on stdout and in summary.json.
        cfg = tmp_path / "rest.cfg"
        cfg.write_text(set_keys(scenario_path("z_fast").read_text(), r_z=0.0))
        assert run(["verify", "--config", cfg]) == 0
        assert "PASS  jump decrease    400 events, min margin 0.000e+00\n" in (
            capsys.readouterr().out
        )
        assert run(["simulate", "--config", cfg, "--out", tmp_path / "out"]) == 0
        summary = strict_json((tmp_path / "out" / "summary.json").read_text())
        margin = summary["certificates"]["jump_decrease"]["min_margin"]
        assert margin == 0.0 and math.copysign(1.0, margin) == 1.0

    def test_corrupted_jump_map_fails_with_certificate_code(self):
        # A sign-flipped radial impulse in the built system: the violation
        # is reported with the dedicated exit code.
        record = cli_run("inplane_ref_flipped", "verify")
        assert record.code == 3
        assert "FAIL" in record.out and "violation" in record.out


VERIFY_ROW = re.compile(
    r"(PASS|FAIL)  flow invariance  worst drift (\S+) \(tol (\S+)\)\n"
    r"(PASS|FAIL)  jump decrease    (\d+) events, min margin (\S+)\n"
)


class TestPlotScript:
    def test_plot_columns_match_csv_headers(self):
        # gnuplot numbers the columns from 1: each plotted column is the one
        # its title names, against t_orbits on the x axis.
        headers = {
            "trajectory.csv": cli.TRAJECTORY_COLUMNS.split(","),
            "events.csv": cli.EVENT_COLUMNS.split(","),
        }
        names = {"|u|": "u_applied"}
        plotted = []
        for line in cli.PLOT_TEMPLATE.splitlines():
            if match := re.match(r"plot '(\S+)'", line):
                header = headers[match[1]]
            if match := re.search(r"using (\d+):\D*(\d+).* title '([^']+)'", line):
                x, y, title = match.groups()
                assert header[int(x) - 1] == "t_orbits"
                assert header[int(y) - 1] == names.get(title, title)
                plotted.append(title)
        assert plotted == [
            "r_x", "r_y", "r_z", "v_x", "v_y", "v_z", "V_z", "V_beta", "V_alpha", "|u|"
        ]


class TestOneRecord:
    @pytest.mark.parametrize(
        "run_id",
        ["z_fast", "z_slow", "inplane_ref", "full_ref",
         pytest.param("inplane_ref_flipped", id="flip_alpha_sign")],
    )
    def test_verify_prints_the_simulate_certificates(self, run_id):
        flipped = run_id == "inplane_ref_flipped"
        simulated, verified = cli_run(run_id, SIMULATE), cli_run(run_id, "verify")
        out = verified.out
        certs = strict_json(simulated.files["summary.json"])["certificates"]
        flow, jump = certs["flow_invariance"], certs["jump_decrease"]
        margin = jump["min_margin"]
        assert VERIFY_ROW.match(out).groups() == (
            "PASS" if flow["passed"] else "FAIL",
            f"{max(flow['worst_drift'].values()):.3e}",
            f"{flow['tolerance']:.0e}",
            "PASS" if jump["passed"] else "FAIL",
            str(jump["events_checked"]),
            "n/a" if margin is None else f"{margin:.3e}",
        )
        violations = flow["violations"] + jump["violations"]
        assert (violations > 0) == flipped
        assert out.count("\n      violation at ") == violations
        assert (simulated.code, verified.code) == ((0, 0) if violations == 0 else (3, 3))


class TestSweep:
    def test_dwell_tradeoff_rows(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        code = run(
            ["sweep", "--config", scenario_path("z_fast"), "--param", "tau_m_z",
             "--values", "0.01,0.25", "--out", out]
        )
        assert code == 0
        rows = (out / "sweep.csv").read_text().splitlines()
        assert rows[0].startswith("tau_m_z,")
        assert len(rows) == 3
        fast = rows[1].split(",")
        slow = rows[2].split(",")
        # faster convergence with the short dwell, fewer impulses with the long
        assert float(fast[3]) < float(slow[3])
        assert int(slow[1]) < int(fast[1])

    def test_single_value_matches_simulate_summary(self, tmp_path):
        out = tmp_path / "single"
        assert run(
            ["sweep", "--config", scenario_path("z_fast"), "--param", "tau_m_z",
             "--values", "0.01", "--out", out]
        ) == 0
        row = (out / "sweep.csv").read_text().splitlines()[1].split(",")
        simulated = cli_run("z_fast", SIMULATE)
        assert simulated.code == 0
        summary = strict_json(simulated.files["summary.json"])
        assert int(row[1]) == sum(summary["budget"]["impulse_counts"].values())
        assert float(row[2]) == summary["budget"]["total_delta_v"]
        assert float(row[3]) == summary["convergence"]["t_orbits"]
        # every run lasts its horizon: the only status is t_max
        assert row[4] == summary["status"] == "t_max"

    @pytest.mark.parametrize(
        "param,sweep", [("tau_m_z", "0.01,0.05,0.1"), ("umax", "0.2,0.05,0.01")]
    )
    def test_one_sweep_equals_one_value_sweeps(self, tmp_path, param, sweep):
        # Three values in one sweep share one orbit rate's matrix cache (a
        # umax value changes the orbit's parameters, not its rate): the data
        # rows equal those of three one-value sweeps, each started, as the
        # three-value one is, from an empty cache.
        def data_rows(values):
            cl._stm.cache_clear()
            argv = ["sweep", "--param", param, "--values", values, "--out", "o"]
            record = run_cli(tmp_path / values, config_text("z_fast"), argv)
            assert record.code == 0
            return lines(record.files["o/sweep.csv"])[1:]

        one_each = [row for v in sweep.split(",") for row in data_rows(v)]
        assert data_rows(sweep) == one_each and len(one_each) == 3

    def test_certificate_violation_exits_3_after_every_row(self, tmp_path, capsys):
        # D5's exact run (TestVerify::test_exact_run_fails_by_beta_rounding)
        # at umax = 0.2 fails the flow check, at 0.1 not: the table and
        # sweep.csv keep both rows, and stderr names the failing value and
        # its first violated quantity.
        argv = ["sweep", "--param", "umax", "--values", "0.2,0.1", "--out", "o"]
        record = run_cli(tmp_path, config_text("criterion2_full_400"), argv)
        assert record.code == 3
        assert capsys.readouterr().err == "certificate violation at umax=0.2: V_beta flow drift\n"
        assert [row.split()[0] for row in record.out.splitlines()[1:]] == ["0.2", "0.1"]
        assert lines(record.files["o/sweep.csv"])[1:] == [
            "0.2,15,2.64618198466159,,t_max", "0.1,27,2.7,,t_max"
        ]

    def test_rows_match_per_field_formatting(self, tmp_path):
        # One sweep value (umax = 0.01) does not converge within z_fast's
        # horizon: its convergence_orbits field is blank.
        out = tmp_path / "sweep"
        values = [0.2, 0.05, 0.01]
        assert run(
            ["sweep", "--config", scenario_path("z_fast"), "--param", "umax",
             "--values", ",".join(map(str, values)), "--out", out]
        ) == 0
        expected = ["umax,impulse_count,total_delta_v,convergence_orbits,status"]
        for value in values:
            cfg = parse_config(scenario_path("z_fast"), umax=value)
            summary, _ = cli.build_summary(cfg, *cli.run_scenario(cfg))
            conv = summary["convergence"]["t_orbits"]
            assert summary["status"] == "t_max"
            expected.append(
                ",".join(
                    [fmt(value), str(sum(summary["budget"]["impulse_counts"].values())),
                     fmt(summary["budget"]["total_delta_v"]),
                     "" if conv is None else fmt(conv), summary["status"]]
                )
            )
        assert conv is None and expected[1].split(",")[3] != ""
        assert (out / "sweep.csv").read_text() == "\n".join(expected) + "\n"
