"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload bundled|ensemble|rk4_verify \\
        [--seed N] [--seconds S] [--trace 0|1]

It imports the library from the checkout's ``src`` and reads
``scenarios``.  The workload is a closed loop with one client in this
single process: the next op starts when the previous one has completed and
its output has been checked.  Ops start while they are expected to end
within ``--seconds``.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics
of a traced run (see ``tracer.py`` and ``README.md``).  Every metric is also
printed by name, with its unit, on the lines before it.
"""

import os

# Single-threaded numerics; must be set before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import itertools
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from hostspeed import REFERENCE_S, HostClock

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKDIR = ROOT / ".bench_run"
#: Workload and metric names, units and bounds.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: Fresh processes that time set-up, besides this one.
SETUP_PROBES = 4
#: Failed ops whose problems are printed to stderr.
MAX_REPORTED = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=[w["name"] for w in SPEC["workloads"]]
    )
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Loop:
    """Op times and failures of one closed-loop phase.

    Times are wall seconds scaled to the reference host speed by ``clock``
    (see ``hostspeed.py``); ``raw_times`` are the plain wall seconds.
    """

    def __init__(self, clock: HostClock):
        self.clock = clock
        #: ``perf_counter`` at the start and end of each op.
        self.spans: list[tuple[float, float]] = []
        self.failed = 0
        self.bounds = (0.0, 0.0)

    def run(self, wl, indices, seconds: float, round_len: int = 1, op_ctx=None) -> None:
        """Run ops on inputs ``indices`` while the next round of
        ``round_len`` ops is expected to end within ``seconds``, at the
        rate so far; at least one round.  Calibrates between ops."""
        start = time.perf_counter()
        for k, i in enumerate(indices):
            if k and k % round_len == 0:
                elapsed = time.perf_counter() - start
                if elapsed * (k + round_len) / k > seconds:
                    break
            self.clock.maybe_tick()
            x = wl.make_input(i)
            ctx = op_ctx(len(self.spans) + 1) if op_ctx else contextlib.nullcontext()
            t = time.perf_counter()
            problems = None
            try:
                with ctx:
                    out = wl.op(x)
            except Exception as exc:  # an op that raises is a failed op
                problems = [f"op raised {exc!r}"]
            self.spans.append((t, time.perf_counter()))
            if problems is None:
                try:
                    problems = wl.check(x, out)
                except Exception as exc:
                    problems = [f"check raised {exc!r}"]
            if problems:
                self.failed += 1
                if self.failed <= MAX_REPORTED:
                    print(f"op {i} failed: " + "; ".join(problems), file=sys.stderr)
        self.bounds = (start, time.perf_counter())

    @property
    def times(self) -> list[float]:
        return [self.clock.scaled(a, b) for a, b in self.spans]

    @property
    def raw_times(self) -> list[float]:
        return [b - a for a, b in self.spans]

    @property
    def wall(self) -> float:
        """Scaled seconds of the whole phase, inputs and checks included."""
        return self.clock.scaled(*self.bounds)


def percentile(values, q: int) -> float:
    """The ``q``-th percentile, interpolated between order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure_setup(workload: str, seed: int) -> list[float]:
    """Set-up seconds of ``SETUP_PROBES`` fresh processes, one at a time."""
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload, str(seed)],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        out.append(float(proc.stdout.split()[-1]))
    return out


def report(kind: str, values: dict, correct: bool, attempted: int, failed: int) -> None:
    """Print the ``kind`` metrics of ``BENCHMARK.json`` by name with their
    units, then the result line."""
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in SPEC[kind]}
    for name, m in metrics.items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "hybrid_rendezvous" / "__init__.py").is_file() or not (
        ROOT / "scenarios"
    ).is_dir():
        print(f"error: no library sources under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    WORKDIR.mkdir(exist_ok=True)
    opdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORKDIR))
    try:
        return run(args, opdir)
    finally:
        shutil.rmtree(opdir, ignore_errors=True)


def run(args, opdir: Path) -> int:
    clock = HostClock()
    t0 = time.perf_counter()
    if args.trace:
        import workloads
        from tracer import Tracer

        import_s = time.perf_counter() - t0
        seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
        tracer = Tracer()
        with tracer.installed():
            wl = workloads.setup(args.workload, ROOT, seed, opdir)
    else:
        with clock.interrupting():
            import workloads

            seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
            wl = workloads.setup(args.workload, ROOT, seed, opdir)
            own_setup = clock.scaled(t0, time.perf_counter())
    print(f"workload={args.workload} seed={seed} seconds={args.seconds} trace={args.trace}")
    for key, value in wl.info.items():
        print(f"{key}={value}")
    if args.trace:
        return run_traced(args, wl, tracer, import_s, clock)
    return run_untraced(args, wl, seed, own_setup, clock)


def run_untraced(args, wl, seed: int, own_setup: float, clock: HostClock) -> int:
    """The loop with calibrations also during ops (``SIGALRM``)."""
    loop = Loop(clock)
    with clock.interrupting():
        loop.run(wl, itertools.count(), args.seconds)
    setups = [own_setup] + measure_setup(args.workload, seed)
    times = loop.times
    n = len(times)
    print(f"ops={n} failed={loop.failed} ops_failed_frac={loop.failed / n!r}")
    print("setup_s samples = " + " ".join(f"{s:.4f}" for s in setups))
    print(f"op_s.p90 rests on {n} op times ({n // 10} beyond it)")
    durs = [b - a for a, b in clock.marks]
    print(
        f"unscaled wall: op_s.p50 = {statistics.median(loop.raw_times)!r} s, "
        f"calibration p50 = {statistics.median(durs)!r} s over {len(durs)} "
        f"(reference {REFERENCE_S} s)"
    )
    values = {
        "setup_s": statistics.median(setups),
        "op_s.p50": statistics.median(times),
        "op_s.p90": percentile(times, 90),
        "ops_per_s": n / loop.wall,
        "ops_ok_frac": 1.0 - loop.failed / n,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    report("end_to_end", values, loop.failed == 0, n, loop.failed)
    return 0


def run_traced(args, wl, tracer, import_s: float, clock: HostClock) -> int:
    """Half the time untraced, then whole traced rounds of the same inputs
    for the other half; per-layer metrics come from the traced ops.  Both
    halves calibrate only between ops, so that no span holds a calibration;
    ``trace.overhead_frac`` compares their scaled op times."""
    plain = Loop(clock)
    plain.run(wl, itertools.count(), args.seconds / 2)
    traced = Loop(clock)
    rounds = (k % wl.round_len for k in itertools.count())
    with tracer.installed():
        traced.run(wl, rounds, args.seconds / 2, wl.round_len, op_ctx=tracer.op)
    tracer.save(WORKDIR / f"spans-{args.workload}.npz")
    values = tracer.layer_metrics(len(traced.spans), import_s)
    values["trace.overhead_frac"] = (
        statistics.median(traced.times) / statistics.median(plain.times) - 1.0
    )
    attempted = len(plain.spans) + len(traced.spans)
    failed = plain.failed + traced.failed
    print(f"ops={attempted} untraced={len(plain.spans)} traced={len(traced.spans)} failed={failed}")
    report("per_layer", values, failed == 0, attempted, failed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
