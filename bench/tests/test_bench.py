"""Checks of the benchmark itself: exact per-layer counts against the
recorded baseline, repeatable traced runs, the oracle's sensitivity, the
seeded ensemble inputs, and the host-speed scaling of op times.

    python3 -m pytest bench/tests -q
"""

import contextlib
import copy
import io
import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import hostspeed  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

from hybrid_rendezvous import cli  # noqa: E402
from hybrid_rendezvous.closed_loop import zeta_of  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# flow_to calls, localizations, events, nonzero events of one `simulate`
BASELINE = {
    "full_ref": (38_443, 1_100, 1_102, 12),
    "inplane_ref": (37_243, 1_050, 1_052, 8),
}


def traced_simulate(name: str, out: Path) -> Tracer:
    tracer = Tracer()
    argv = ["simulate", "--config", str(workloads.scenario_path(ROOT, name)), "--out", str(out)]
    with tracer.installed(), tracer.op(1), contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    return tracer


@pytest.mark.parametrize("name", sorted(BASELINE))
def test_traced_counts_reproduce_baseline(name, tmp_path):
    runs = []
    for k in range(2):
        tracer = traced_simulate(name, tmp_path / str(k))
        metrics = tracer.layer_metrics(1, import_s=0.0)
        runs.append(
            (
                metrics["closed_loop.flow_to.calls"],
                metrics["engine.locate.calls"],
                metrics["engine.events"],
                tracer.total("engine.nonzero_events"),
            )
        )
    assert runs[0] == runs[1] == BASELINE[name]


def test_tracer_restores_every_patched_name(tmp_path):
    from hybrid_rendezvous import engine

    before = (cli.simulate, engine.locate_event, engine.GuardConjunction.margin)
    traced_simulate("z_fast", tmp_path)
    assert (cli.simulate, engine.locate_event, engine.GuardConjunction.margin) == before


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0.1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_two_traced_runs_give_identical_counts(workload):
    exact = [m["name"] for m in SPEC["per_layer"] if m["unit"] in ("count", "frac")]
    exact.remove("trace.overhead_frac")
    results = []
    for _ in range(2):
        proc = run_bench(workload, trace=1)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
        results.append({name: result["metrics"][name]["value"] for name in exact})
    assert results[0] == results[1]


def test_fails_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench("ensemble", trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


# ---------------------------------------------------------------------------
# the oracle
# ---------------------------------------------------------------------------

REFERENCE = workloads.load_reference()["bundled"]["full_ref"]


def mutated(change):
    got = copy.deepcopy(REFERENCE)
    change(got)
    return got


@pytest.mark.parametrize(
    "change",
    [
        lambda g: g["impulses"].pop(3),  # missed firing
        lambda g: g["impulses"].insert(5, ["z", 9000.0, 0.01]),  # extra firing
        lambda g: g["impulses"][2].__setitem__(1, g["impulses"][2][1] + 2e-3),
        lambda g: g["impulses"][2].__setitem__(2, g["impulses"][2][2] + 2e-6),
        lambda g: g["impulses"][2].__setitem__(0, "beta"),
        lambda g: g["impulse_counts"].__setitem__("z", 5),
        lambda g: g.__setitem__("total_delta_v", g["total_delta_v"] + 1e-3),
        lambda g: g.__setitem__("convergence_t", g["convergence_t"] + 11.0),
        lambda g: g.__setitem__("convergence_t", None),
        lambda g: g.__setitem__("flow_invariance", False),
        lambda g: g.__setitem__("jump_decrease", False),
    ],
)
def test_oracle_flags_wrong_outcomes(change):
    assert workloads.compare(REFERENCE, mutated(change), step_h=10.0)


@pytest.mark.parametrize(
    "change",
    [
        lambda g: None,
        lambda g: g["impulses"][2].__setitem__(1, g["impulses"][2][1] + 5e-4),
        lambda g: g["impulses"][2].__setitem__(2, g["impulses"][2][2] + 5e-7),
        lambda g: g.__setitem__("convergence_t", g["convergence_t"] - 9.0),
    ],
)
def test_oracle_accepts_outcomes_within_tolerance(change):
    assert workloads.compare(REFERENCE, mutated(change), step_h=10.0) == []


# ---------------------------------------------------------------------------
# ensemble inputs
# ---------------------------------------------------------------------------


def first_cases(seed: int, n: int = 30):
    cfg = workloads.config.parse_config(workloads.scenario_path(ROOT, "full_ref"))
    source = workloads.ensemble_cases(seed, cfg.params(), cfg.thresholds())
    return cfg.params(), [next(source) for _ in range(n)]


def test_ensemble_inputs_follow_the_seed():
    _, a = first_cases(3)
    _, b = first_cases(3)
    _, c = first_cases(4)
    assert [s for s, _, _ in a] == list(workloads.ENSEMBLE_MIX) * 10
    assert all((x == y).all() for (_, x, _), (_, y, _) in zip(a, b))
    assert not all((x == y).all() for (_, x, _), (_, y, _) in zip(a, c))


def test_ensemble_beta0_matches_the_coordinate_change():
    p, cases = first_cases(5)
    for subsystem, x0, beta0 in cases:
        if subsystem != "z":
            assert beta0 == pytest.approx(zeta_of(x0, p)[3], rel=1e-12, abs=1e-15)


# ---------------------------------------------------------------------------
# host-speed scaling
# ---------------------------------------------------------------------------


def test_scaled_weights_each_stretch_by_its_calibrations():
    clock = hostspeed.HostClock()
    ref = hostspeed.REFERENCE_S
    clock.marks = [(1.0, 1.0 + ref), (2.0, 2.0 + 2 * ref)]
    # Before the first calibration at its speed, between the two at their
    # mean, after the last at its speed; the calibrations themselves not.
    expected = 0.5 + (1.0 - ref) / 1.5 + (0.5 - 2 * ref) / 2
    assert clock.scaled(0.5, 2.5) == pytest.approx(expected)
    assert clock.scaled(1.0, 1.0 + ref) == 0.0
    assert clock.scaled(0.2, 0.7) == pytest.approx(0.5)


def test_interrupting_calibrates_during_a_long_call_and_restores_sigalrm():
    clock = hostspeed.HostClock(period=0.01)
    before = signal.getsignal(signal.SIGALRM)
    with clock.interrupting():
        t0 = hostspeed.perf_counter()
        while hostspeed.perf_counter() - t0 < 0.2:
            hostspeed.spin(200)
        t1 = hostspeed.perf_counter()
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    inside = [m for m in clock.marks if t0 < m[0] < t1]
    assert len(inside) >= 5
    assert all(a < b <= c for (a, b), (c, _) in zip(clock.marks, clock.marks[1:]))
    assert 0 < clock.scaled(t0, t1) < float("inf")
