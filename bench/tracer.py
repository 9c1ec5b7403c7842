"""Outside-in tracing of the library's layers.

:class:`Tracer` patches, from outside, the module attributes through which
callers reach each layer, so the library itself is unchanged:

* spans (name, start, end, parent, op id) around ``config.parse_config``,
  ``build_system``, ``engine.simulate``, ``engine.locate_event``,
  ``engine.resolve_jumps``, ``GuardConjunction.margin``, the built system's
  ``flow_to`` and jump callables, the ``analysis`` checks, and the CLI's
  ``build_summary`` and writers;
* counts, attributed to the enclosing span, of the leaf calls too small to
  time: ``closed_loop.hcw_stm``, ``closed_loop.hcw_derivative``, the dwell
  timer flows and the built system's ``flow`` derivative.

Spans are kept in flat arrays in memory and written out by :meth:`save`.
Per-layer metrics are derived from them afterwards: a span's self time is
its duration minus the durations of its child spans.
"""

from __future__ import annotations

import dataclasses
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np

from hybrid_rendezvous import analysis, cli, closed_loop, config, engine
from hybrid_rendezvous import controllers as ctl

#: Derivative calls per fixed-step RK4 step.
RK4_STAGES = 4

ANALYSIS_SPANS = {
    "check_flow_invariance": "analysis.flow_invariance",
    "check_jump_decrease": "analysis.jump_decrease",
    "convergence_time": "analysis.convergence",
    "budget": "analysis.budget",
}


class Tracer:
    """Records spans and counts while installed; see the module docstring.

    Spans opened outside any :meth:`op` belong to op 0 (set-up).
    """

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op_id = array("i")
        self._stack: list[int] = []
        self._op = 0
        self.counts: Counter = Counter()
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op_id.append(self._op)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def _bump(self, name: str, n: int = 1) -> None:
        """Add ``n`` to count ``name`` under the enclosing span's name;
        counts outside traced ops are dropped."""
        if self._op:
            parent = self.names[self.name_id[self._stack[-1]]] if self._stack else ""
            self.counts[name, parent] += n

    def span(self, name: str, fn, after=None):
        """``fn`` wrapped in a span named ``name``.  ``after(result, args)``,
        if given, runs inside the span and returns the result to hand back."""
        nid = self._id(name)

        def traced(*args, **kwargs):
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
                return result if after is None else after(result, args)
            finally:
                self._close(idx)

        return traced

    def count(self, name: str, fn):
        """``fn`` wrapped to count its calls by enclosing span name."""

        def counted(*args, **kwargs):
            self._bump(name)
            return fn(*args, **kwargs)

        return counted

    @contextmanager
    def op(self, op_id: int):
        """Attribute the spans opened inside, and the counts, to op
        ``op_id`` (>= 1), under a root span named ``op``."""
        self._op = op_id
        idx = self._open(self._id("op"))
        try:
            yield
        finally:
            self._close(idx)
            self._op = 0

    # -- patching -----------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _traced_system(self, system, args):
        del args
        channels = tuple(
            dataclasses.replace(ch, jump=self.span("closed_loop.jump", ch.jump))
            for ch in system.channels
        )
        return dataclasses.replace(
            system,
            flow=self.count("closed_loop.flow", system.flow),
            flow_to=(
                None
                if system.flow_to is None
                else self.span("closed_loop.flow_to", system.flow_to)
            ),
            channels=channels,
        )

    def _count_events(self, result, args):
        del args
        events = result[1]
        self._bump("engine.events", len(events))
        self._bump(
            "engine.nonzero_events",
            sum(1 for ev in events if abs(ev.u_applied) > analysis.IMPULSE_FLOOR),
        )
        return result

    def _count_trajectory_rows(self, result, args):
        self._bump("cli.rows", len(args[1].t))
        return result

    def _count_event_rows(self, result, args):
        self._bump("cli.rows", len(args[1].events))
        return result

    def _count_bytes(self, result, args):
        out_dir = Path(args[0])
        self._bump("cli.bytes", sum(f.stat().st_size for f in out_dir.iterdir() if f.is_file()))
        return result

    def install(self) -> None:
        """Patch every traced name; :meth:`uninstall` restores them."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner in (config, cli):
            self._patch(owner, "parse_config", self.span("config.parse", config.parse_config))
        build = self.span("closed_loop.build", closed_loop.build_system, self._traced_system)
        for owner in (closed_loop, cli):
            self._patch(owner, "build_system", build)
        simulate = self.span("engine.simulate", engine.simulate)
        for owner in (engine, cli):
            self._patch(owner, "simulate", simulate)
        self._patch(engine, "locate_event", self.span("engine.locate", engine.locate_event))
        self._patch(
            engine,
            "resolve_jumps",
            self.span("engine.resolve", engine.resolve_jumps, self._count_events),
        )
        self._patch(
            engine.GuardConjunction,
            "margin",
            self.span("engine.guard", engine.GuardConjunction.margin),
        )
        self._patch(closed_loop, "hcw_stm", self.count("hcw.stm", closed_loop.hcw_stm))
        self._patch(
            closed_loop,
            "hcw_derivative",
            self.count("hcw.derivative", closed_loop.hcw_derivative),
        )
        for attr in ("timer_advance", "timer_rate"):
            self._patch(ctl, attr, self.count("controllers.timer", getattr(ctl, attr)))
        for attr, name in ANALYSIS_SPANS.items():
            wrapped = self.span(name, getattr(analysis, attr))
            for owner in (analysis, cli):
                self._patch(owner, attr, wrapped)
        self._patch(cli, "build_summary", self.span("cli.summary", cli.build_summary))
        self._patch(
            cli,
            "write_trajectory",
            self.span("cli.write", cli.write_trajectory, self._count_trajectory_rows),
        )
        self._patch(
            cli,
            "write_events",
            self.span("cli.write", cli.write_events, self._count_event_rows),
        )
        self._patch(
            cli, "write_outputs", self.span("cli.write", cli.write_outputs, self._count_bytes)
        )

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- results ------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op_id, dtype=np.int32).copy(),
        }

    def save(self, path: Path) -> None:
        """Write every recorded span (and the span name table) to ``path``."""
        np.savez(path, names=np.array(self.names), **self.arrays())

    def total(self, name: str, parent: str | None = None) -> int:
        """Count ``name`` over the traced ops, under spans named ``parent``
        (any span when ``None``)."""
        return sum(
            n
            for (cname, cparent), n in self.counts.items()
            if cname == name and (parent is None or cparent == parent)
        )

    def layer_metrics(self, n_ops: int, import_s: float) -> dict[str, float]:
        """Per-layer metrics over the spans and counts of the traced ops
        (op ids >= 1), per op; ``config.parse_s`` is over set-up (op 0) and
        ``import_s`` is passed through as ``cli.import_s``."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = a["parent"] >= 0
        busy_children = np.bincount(
            a["parent"][child], weights=dur[child], minlength=len(dur)
        )
        self_time = dur - busy_children
        parent_name = np.where(child, a["name_id"][np.maximum(a["parent"], 0)], -1)
        in_ops = a["op"] >= 1

        def mask(name, parent=None):
            nid = self._ids.get(name, -2)
            m = a["name_id"] == nid
            if parent is not None:
                m &= parent_name == self._ids.get(parent, -2)
            return m

        def self_s(name, ops=True):
            return float(self_time[mask(name) & (in_ops if ops else ~in_ops)].sum())

        def calls(name, parent=None):
            return int((mask(name, parent) & in_ops).sum())

        flow_steps = calls("closed_loop.flow_to", "engine.simulate") + (
            self.total("closed_loop.flow", "engine.simulate") / RK4_STAGES
        )
        probes = calls("closed_loop.flow_to", "engine.locate") + (
            self.total("closed_loop.flow", "engine.locate") / RK4_STAGES
        )
        locates = calls("engine.locate")
        events = self.total("engine.events")
        totals = {
            "closed_loop.build_s": self_s("closed_loop.build"),
            "closed_loop.flow_to_s": self_s("closed_loop.flow_to"),
            "closed_loop.flow_to.calls": calls("closed_loop.flow_to"),
            "closed_loop.jump_s": self_s("closed_loop.jump"),
            "closed_loop.jump.calls": calls("closed_loop.jump"),
            "hcw.stm.calls": self.total("hcw.stm"),
            "hcw.derivative.calls": self.total("hcw.derivative"),
            "controllers.timer.calls": self.total("controllers.timer"),
            "engine.simulate_s": self_s("engine.simulate"),
            "engine.flow_steps": flow_steps,
            "engine.locate_s": self_s("engine.locate"),
            "engine.locate.calls": locates,
            "engine.probes": probes,
            "engine.resolve_s": self_s("engine.resolve"),
            "engine.events": events,
            "engine.guard_s": self_s("engine.guard"),
            "engine.guard_evals": calls("engine.guard"),
            "analysis.flow_invariance_s": self_s("analysis.flow_invariance"),
            "analysis.jump_decrease_s": self_s("analysis.jump_decrease"),
            "analysis.convergence_s": self_s("analysis.convergence"),
            "analysis.budget_s": self_s("analysis.budget"),
            "cli.summary_s": self_s("cli.summary"),
            "cli.write_s": self_s("cli.write"),
            "cli.bytes_written": self.total("cli.bytes"),
            "cli.rows_written": self.total("cli.rows"),
        }
        out = {name: value / n_ops for name, value in totals.items()}
        out["config.parse_s"] = self_s("config.parse", ops=False)
        out["cli.import_s"] = import_s
        out["engine.probes_per_event"] = probes / locates if locates else 0.0
        out["engine.useful_event_frac"] = (
            self.total("engine.nonzero_events") / events if events else 0.0
        )
        return out
